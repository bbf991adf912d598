//! # ba-net — deterministic discrete-event network simulation
//!
//! The `ba-sim` engine models the paper's §1.1 synchronous network:
//! lock-step rounds, instantaneous lossless links. This crate replaces
//! the wire — and only the wire — with a timed, faulty network, behind
//! the engine's [`Transport`](ba_sim::Transport) seam, so every existing
//! [`Process`](ba_sim::Process) implementation (AEBA, the tournament
//! stack's message-level phases, all four baselines) runs unchanged over
//! latency and fault models.
//!
//! ## The event model
//!
//! Time is measured in abstract **ticks**; protocol round `r` occupies
//! ticks `[r·delta, (r+1)·delta)`. A message emitted in round `r` leaves
//! at tick `r·delta`, spends a latency sampled from its
//! [`LatencyModel`] on the wire, and sits in an [`EventQueue`] — a
//! calendar of per-tick buckets, each in push order — until the
//! first round boundary at or past its arrival, where the synchrony
//! adapter ([`NetTransport`]) delivers it. (What sits there is four
//! bytes: the slot of the `send` / `send_many` call the message belongs
//! to, which is stored once and walks its own arrival-sorted recipient
//! list as its entries come due.) Delivery is never earlier
//! than round `r + 1`, so the synchronous round abstraction survives;
//! latency beyond `delta` makes the message **late** relative to the
//! protocol's timetable, which the transport counts (per
//! [`Schedule`](ba_sim::Schedule) phase of the sending round) rather
//! than hides — through the [`PhaseLedger`], which every carrier shares.
//! Fault injectors compose on top: independent message
//! drops, bidirectional [`Partition`]s with heal times, [`Crash`]-stop
//! processors, and periodic [`Churn`].
//!
//! ## The determinism contract
//!
//! Runs are byte-identical per seed at any worker-thread count:
//!
//! * every random decision (latency samples, random drops) comes from a
//!   single stream, `derive_rng(seed, NET_LABEL)`, consumed in the
//!   engine's global emission order — which is itself deterministic
//!   (processors in id order, adversary injections after);
//! * partitions, crashes, and churn windows are pure functions of
//!   `(round, processor id)` — they consume no randomness at all;
//! * delivery order is `(arrival, emission order)`, emission order being
//!   push order: the transport pushes as the engine emits, and the event
//!   queue pops `(time, tie)` keys in order with equal keys in push
//!   order — so it is a pure function of the sampled arrival times and
//!   the emission order, independent of the queue's layout (for keyed
//!   pushes, of their interleaving too: the root `tests/invariants.rs`
//!   proptests `event_queue_pop_order_is_insertion_invariant` and
//!   `fifo_policy_is_byte_identical_to_plain_drain` pin this, and
//!   `event::tests::model` checks the queue against a sorted vector).
//!
//! Parallelism in this workspace is across *trials* (see `ba-par`);
//! each trial owns its own transport and stream, so fan-out width never
//! leaks into results.
//!
//! ## Zero-latency equivalence
//!
//! With [`NetConfig::synchronous`] (constant-0 latency, no faults) a run
//! is **byte-identical** to the same run on the lockstep engine: same
//! outputs, same round counts, same bit accounting. The root
//! `net_equivalence` integration tests assert this for AEBA, the
//! Algorithm-3/4 stack, and all four baselines on the integration-test
//! seeds. That equivalence is what makes the fault injectors meaningful
//! as *perturbations* of the paper's model.
//!
//! ## Scenarios
//!
//! [`ScenarioSpec`] parses declarative `key = value` scenario files
//! (topology size, latency model, fault schedule, adversary, protocol,
//! trial count). The `scenario` binary in `ba-bench` executes them and
//! emits JSON metric rows; the starter library lives in `scenarios/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod fault;
mod latency;
mod ledger;
mod scenario;
mod transport;

pub use event::{DeliveryPolicy, EventQueue};
pub use fault::{Churn, Crash, DropCause, FaultPlan, Partition};
pub use latency::LatencyModel;
pub use ledger::{NetStats, PhaseLedger, PhaseNetStats};
pub use scenario::{InputPattern, ScenarioSpec};
pub use transport::{NetConfig, NetTransport, NET_LABEL, ORDER_LABEL};
