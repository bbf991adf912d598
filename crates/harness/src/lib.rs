//! # ba-exp — the unified `Experiment` API
//!
//! One typed run-spec surface for **protocol × adversary × transport**.
//! Before this crate the workspace had three parallel ways to launch a
//! run — hand-rolled experiment binaries, the `scenarios/` key=value
//! runner, and ad-hoc `SimBuilder`/`everywhere::run*` calls — each with
//! its own trial loop, seeding convention, and output code. [`RunSpec`]
//! is the one way now:
//!
//! * [`Protocol`] — enum-dispatched protocol selection: AEBA
//!   (Algorithm 5), Algorithm 3, the tournament (Algorithm 2 + §3.5),
//!   the full Algorithm-4 everywhere stack, and the four baselines;
//! * [`AdversarySpec`] — *composable* message-level and tree-level
//!   adversaries: a single run may field a tree adversary against the
//!   tournament **and** a flooding adversary against Algorithm 3;
//! * `net` — a `ba-net` [`NetConfig`]: latency model, fault schedule.
//!   Committee traffic runs over the same [`Transport`](ba_sim::Transport)
//!   as the message-level phases, so partitions and churn reach
//!   elections;
//! * `trials`/`seeds` — the harness owns the (parallel) trial loop and
//!   all seeding; per-trial seeds derive as `seeds.base + trial`.
//!
//! [`RunSpec::validate`] is the one place a combination is judged: every
//! trial entry point and [`scenario::lower`] call it, so a knob a run
//! would silently drop (a tree adversary on a message-level protocol, a
//! rounds cap on a structured executor) is an error instead. Each
//! protocol then resolves its message adversary through one roster.
//!
//! [`run`] executes a spec and returns per-trial [`TrialOutcome`]s with
//! uniform metrics (agreement, validity, rounds, bit statistics, network
//! statistics, tournament drill-down). [`Experiment`] wraps the
//! fixed-width table printing, the shared `--json`/`--trials`/`--trace`
//! CLI, and JSON row emission: each experiment is a preset of the one
//! `exp` binary that names its cells. Declarative `scenarios/*.scn`
//! specs lower onto [`RunSpec`] through [`scenario::lower`].
//!
//! The core is serde-free plain structs: specs are built in code (or
//! lowered from the scenario grammar), never deserialized.
//!
//! ```rust
//! use ba_exp::{RunSpec, TreeAttack};
//!
//! let spec = RunSpec::tournament(64).trials(2).seeds(5).adversary(
//!     ba_exp::AdversarySpec::none().with_tree(TreeAttack::WinnerHunter),
//! );
//! let report = ba_exp::run(&spec).unwrap();
//! assert_eq!(report.trials.len(), 2);
//! assert!(report.mean_of(|t| t.agreement) > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
pub mod hunt;
mod runner;
pub mod scenario;
mod spec;
mod stats;

pub use experiment::{Experiment, Metric};
pub use hunt::{hunt, hunt_traced, shrink_spec, Finding, HuntConfig, HuntReport, Violation};
pub use runner::{
    everywhere_outcome, run, run_traced, run_trial, run_trial_traced, run_trial_with_factory,
    trace_sampler_cache, traced_trial, NetFactory, RunReport, SessionTransport, TransportFactory,
    TrialOutcome,
};
pub use spec::{
    AdversarySpec, AeToESpec, AebaSpec, GossipDegree, Knowledgeable, MessageAdversary, OutputSpec,
    Protocol, RunSpec, SeedPlan, TournamentTuning, TreeAttack,
};
pub use stats::{f1, f3, loglog_slope, mean, par_trials, Table};

// The spec surface re-uses these foreign types directly.
pub use ba_net::{InputPattern, NetConfig};
