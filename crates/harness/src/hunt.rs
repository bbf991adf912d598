//! `ba-hunt` — adversary search engine: hunt for agreement violations,
//! shrink them to pinned regression scenarios.
//!
//! The hunt walks the RunSpec adversary × network space looking for
//! trials that break a protocol's contract: an exhaustive grid over the
//! small discrete axes (protocol, adversary roster, delivery ordering,
//! population size) followed by derived-RNG random sampling of the fault
//! space (drops, partitions, churn) until the trial budget runs out.
//! Every trial is judged by the violation oracles ([`Violation`]); each
//! *novel* failure signature is greedily delta-debugged down to a
//! minimal [`RunSpec`] ([`shrink_spec`]) that still violates the same
//! oracle, ready to render (`scenario::render`) and pin under
//! `scenarios/regressions/`, where the scenario smoke runs it forever
//! after.
//!
//! Everything is a pure function of [`HuntConfig::seed`]: candidate
//! enumeration is deterministic, the sampler draws from
//! `derive_rng(seed, HUNT_LABEL)`, trial execution is the same
//! thread-count-independent [`run`] the experiments use, and
//! the report carries no wall-clock — so the same seed yields a
//! byte-identical report at any `BA_PAR_THREADS`.

use crate::runner::{round_cap, run, TrialOutcome};
use crate::scenario::{Scenario, FORGED_VALUE};
use crate::spec::{AdversarySpec, InputPattern, MessageAdversary, Protocol, RunSpec, TreeAttack};
use ba_baselines::{PhaseKingConfig, RabinConfig};
use ba_core::aeba::CommitteeAttack;
use ba_net::{Churn, DeliveryPolicy, LatencyModel, Partition};
use ba_sim::{derive_rng, SimRng};
use proptest::shrink;
use rand::Rng;
use std::fmt;

/// Derivation label of the hunt's sampling stream (disjoint from the
/// transport's `NET_LABEL`/`ORDER_LABEL` and every protocol label).
const HUNT_LABEL: u64 = 0x4855_4E54; // "HUNT"

/// Hunt parameters. Defaults give the CI smoke: a budget that covers the
/// whole grid plus a sampling tail, in well under a minute.
#[derive(Clone, Copy, Debug)]
pub struct HuntConfig {
    /// Base seed: drives candidate trial seeds and the fault sampler.
    pub seed: u64,
    /// Maximum trials to execute across all candidate specs.
    pub budget: usize,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            seed: 7,
            budget: 220,
        }
    }
}

/// A violated protocol contract, as judged by the per-trial oracles.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Good processors disagreed beyond the protocol's floor.
    Agreement {
        /// Observed plurality-agreement fraction.
        agreement: f64,
        /// The floor it fell through.
        floor: f64,
    },
    /// The decided bit was nobody's input (protocols defining validity).
    Validity,
    /// The run outlasted its designed round budget. It cannot fire
    /// today: the budget is the cap the engine runs to
    /// (`runner::round_cap`), and `Sim::run_parts` stops there
    /// (`while self.round < max_rounds`), so a trial never reports more
    /// rounds than its bound.
    RoundBlowup {
        /// Observed rounds.
        rounds: usize,
        /// The designed budget (cap included).
        bound: usize,
    },
    /// Too few good processors decided at all.
    Stall {
        /// Observed decided fraction.
        decided: f64,
        /// The floor it fell through.
        floor: f64,
    },
    /// Good processors decided a value nobody knowledgeable held
    /// (Algorithm 3's Lemma 7(2) allows none).
    WrongDecision {
        /// How many did.
        wrong: usize,
    },
}

impl Violation {
    /// Stable oracle name, used in failure signatures and pin names.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Violation::Agreement { .. } => "agreement",
            Violation::Validity => "validity",
            Violation::RoundBlowup { .. } => "round-blowup",
            Violation::Stall { .. } => "stall",
            Violation::WrongDecision { .. } => "wrong-decision",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { agreement, floor } => {
                write!(f, "agreement {agreement:.3} < floor {floor:.3}")
            }
            Violation::Validity => write!(f, "decided bit was nobody's input"),
            Violation::RoundBlowup { rounds, bound } => {
                write!(f, "ran {rounds} rounds > designed bound {bound}")
            }
            Violation::Stall { decided, floor } => {
                write!(f, "only {decided:.3} decided < floor {floor:.3}")
            }
            Violation::WrongDecision { wrong } => {
                write!(f, "{wrong} good processor(s) decided a forged value")
            }
        }
    }
}

/// Agreement / decided floors for a spec. Clean-net baselines promise
/// exact agreement; a lossy wire excuses some spread (the hunt then
/// reports only collapses, not noise); the almost-everywhere stack
/// promises agreement among most good processors by design.
fn floors(spec: &RunSpec) -> (f64, f64) {
    if matches!(
        spec.protocol,
        Protocol::Tournament(_) | Protocol::Everywhere
    ) {
        (0.70, 0.70)
    } else if spec.net.faults.is_trivial() {
        (0.999, 0.999)
    } else {
        (0.60, 0.60)
    }
}

/// Judges one trial against every oracle; the most damning verdict wins
/// (wrong decision > agreement > validity > stall > round blowup).
pub(crate) fn judge(spec: &RunSpec, outcome: &TrialOutcome) -> Option<Violation> {
    let (agree_floor, decided_floor) = floors(spec);
    if outcome.wrong > 0 {
        return Some(Violation::WrongDecision {
            wrong: outcome.wrong,
        });
    }
    if outcome.agreement < agree_floor {
        return Some(Violation::Agreement {
            agreement: outcome.agreement,
            floor: agree_floor,
        });
    }
    if outcome.valid == Some(false) {
        return Some(Violation::Validity);
    }
    if outcome.decided < decided_floor {
        return Some(Violation::Stall {
            decided: outcome.decided,
            floor: decided_floor,
        });
    }
    // The designed round budget is the cap the engine runs to; the
    // structured executors have none (their rounds are an output).
    if let Some(bound) = round_cap(spec) {
        if outcome.rounds > bound {
            return Some(Violation::RoundBlowup {
                rounds: outcome.rounds,
                bound,
            });
        }
    }
    None
}

/// One hunted-down violation: its minimized form, and where it failed.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Deduplication key: `protocol-adversary-oracle`.
    pub signature: String,
    /// The delta-debugged minimal spec still violating the same oracle,
    /// rebased onto the violating trial's seed. Its pin is named
    /// `hunt-<signature>`.
    pub shrunk: RunSpec,
    /// The violation observed on the original candidate.
    pub violation: Violation,
    /// Seed of the violating trial.
    pub trial_seed: u64,
}

/// The hunt's deterministic report (no wall-clock: same seed, same
/// bytes, at any thread count).
#[derive(Clone, Debug, Default)]
pub struct HuntReport {
    /// Candidate specs executed.
    pub specs_tried: usize,
    /// Trials executed (the budget currency).
    pub trials_run: usize,
    /// One finding per novel failure signature, in discovery order.
    pub findings: Vec<Finding>,
    /// Candidates the runner refused (bad combinations), with reasons.
    pub skipped: Vec<String>,
}

impl HuntReport {
    /// Renders the report as deterministic text.
    pub fn render(&self, config: &HuntConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hunt seed={} budget={}: {} specs, {} trials, {} finding(s)",
            config.seed,
            config.budget,
            self.specs_tried,
            self.trials_run,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  [{}] {} (trial seed {})",
                f.signature, f.violation, f.trial_seed
            );
            let _ = writeln!(
                out,
                "    shrunk to: protocol={} n={} adversary={} corrupt={} tree={} \
                 ordering={} drop={} partitions={} crashes={} churn={}",
                f.shrunk.protocol.name(),
                f.shrunk.n,
                f.shrunk.adversary.message.name(),
                f.shrunk.adversary.message.count(),
                f.shrunk.adversary.tree.name(),
                f.shrunk.net.ordering.name(),
                f.shrunk.net.faults.drop_prob,
                f.shrunk.net.faults.partitions.len(),
                f.shrunk.net.faults.crashes.len(),
                f.shrunk.net.faults.churn.is_some(),
            );
        }
        for s in &self.skipped {
            let _ = writeln!(out, "  skipped: {s}");
        }
        out
    }

    /// Renders the report as one JSON object (same determinism contract).
    pub fn render_json(&self, config: &HuntConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seed\": {}, \"budget\": {}, \"specs_tried\": {}, \"trials_run\": {}, \
             \"findings\": [",
            config.seed, config.budget, self.specs_tried, self.trials_run
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"signature\": \"{}\", \"oracle\": \"{}\", \"violation\": \"{}\", \
                 \"trial_seed\": {}, \"protocol\": \"{}\", \"n\": {}}}",
                f.signature,
                f.violation.kind(),
                f.violation,
                f.trial_seed,
                f.shrunk.protocol.name(),
                f.shrunk.n
            );
        }
        let _ = write!(out, "]}}");
        out
    }
}

/// The failure signature a finding dedups on: protocol, the adversary
/// that caused it (message- or tree-level), and the oracle it tripped.
fn signature(spec: &RunSpec, v: &Violation) -> String {
    let adv = match spec.adversary.tree {
        TreeAttack::None => spec.adversary.message.name(),
        tree => tree.name(),
    };
    format!("{}-{}-{}", spec.protocol.name(), adv, v.kind())
}

/// The baselines the grid and the sampler search.
const BASELINES: [Protocol; 4] = [
    Protocol::Flood,
    Protocol::PhaseKing,
    Protocol::BenOr,
    Protocol::Rabin,
];

/// A clean-net candidate: `base` for two trials from `seed`, `message`
/// corrupting its count, same-instant delivery under `ordering`.
fn candidate(
    base: RunSpec,
    seed: u64,
    message: MessageAdversary,
    ordering: DeliveryPolicy,
) -> RunSpec {
    let mut spec = base
        .trials(2)
        .seeds(seed)
        .adversary(AdversarySpec::none().with_message(message));
    spec.net.ordering = ordering;
    spec
}

/// The exhaustive grid over the small discrete axes: every baseline ×
/// its adversary roster × delivery ordering × two population sizes, then
/// Algorithm 3 against response forgery, then the committee stack × tree
/// adversaries × ordering. Clean networks
/// throughout — the sampler owns the fault axes — so grid findings
/// isolate *adversary* breaks (the coordinator equivocation above the
/// design tolerance) from wire damage.
fn grid(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for &n in &[24usize, 40] {
        for proto in &BASELINES {
            let mut advs = vec![
                MessageAdversary::None,
                MessageAdversary::Crash { count: n / 5 },
            ];
            let t = match proto {
                Protocol::PhaseKing => Some(PhaseKingConfig::for_n(n).t),
                Protocol::Rabin => Some(RabinConfig::for_n(n).t),
                _ => None,
            };
            if let Some(t) = t {
                // The tolerance boundary from both sides: held at the
                // design t, broken at n/3.
                advs.push(MessageAdversary::Equivocate { count: t });
                advs.push(MessageAdversary::Equivocate { count: n / 3 });
            }
            for adv in advs {
                for ord in DeliveryPolicy::ALL {
                    out.push(Scenario {
                        name: format!(
                            "grid-{}-{}{}-{}-n{n}",
                            proto.name(),
                            adv.name(),
                            adv.count(),
                            ord.name()
                        ),
                        spec: candidate(RunSpec::new(proto.clone(), n), seed, adv, ord),
                    });
                }
            }
        }
    }
    // Algorithm 3 inside its precondition (nine in ten knowledgeable,
    // so well over half stay good and knowledgeable) against forged
    // answers, from both sides of the corruption tolerance.
    for &n in &[24usize, 40] {
        for count in [0, n / 5, n / 3] {
            let adv = match count {
                0 => MessageAdversary::None,
                count => MessageAdversary::Forge {
                    count,
                    fake: FORGED_VALUE,
                },
            };
            for ord in DeliveryPolicy::ALL {
                let base = RunSpec::ae_to_e(n).input(InputPattern::Lopsided);
                out.push(Scenario {
                    name: format!("grid-ae_to_e-{}{count}-{}-n{n}", adv.name(), ord.name()),
                    spec: candidate(base, seed, adv, ord),
                });
            }
        }
    }
    for base in [RunSpec::tournament(64), RunSpec::everywhere(64)] {
        for tree in [
            TreeAttack::None,
            TreeAttack::StaticThird {
                attack: CommitteeAttack::Oppose,
            },
            TreeAttack::WinnerHunter,
            TreeAttack::CustodyBuster {
                aggressiveness: 0.6,
            },
        ] {
            for ord in DeliveryPolicy::ALL {
                let name = format!(
                    "grid-{}-{}-{}-n64",
                    base.protocol.name(),
                    tree.name(),
                    ord.name()
                );
                // One trial: structured executions dominate runtime.
                let mut spec = candidate(base.clone(), seed, MessageAdversary::None, ord).trials(1);
                spec.adversary.tree = tree;
                out.push(Scenario { name, spec });
            }
        }
    }
    out
}

/// Draws one random fault-space candidate (baselines only: the sampler
/// explores wire damage, which the grid deliberately leaves out).
fn sample(rng: &mut SimRng, seed: u64, index: usize) -> Scenario {
    let proto = BASELINES[rng.gen_range(0..BASELINES.len())].clone();
    let ns = [16usize, 24, 32, 40];
    let n = ns[rng.gen_range(0..ns.len())];
    let name = format!("sample-{index}-{}-n{n}", proto.name());
    let leader = matches!(proto, Protocol::PhaseKing | Protocol::Rabin);
    let base_seed = seed.wrapping_add(rng.gen_range(0..1u64 << 16));
    let ordering = DeliveryPolicy::ALL[rng.gen_range(0..3)];
    let message = match rng.gen_range(0..3) {
        0 => MessageAdversary::None,
        1 => MessageAdversary::Crash {
            count: rng.gen_range(1..=n / 4),
        },
        _ if leader => MessageAdversary::Equivocate {
            count: rng.gen_range(1..=n / 3),
        },
        _ => MessageAdversary::None,
    };
    let mut s = candidate(RunSpec::new(proto, n), base_seed, message, ordering).trials(1);
    let faults = &mut s.net.faults;
    faults.drop_prob = [0.0, 0.05, 0.1, 0.2][rng.gen_range(0..4)];
    if rng.gen_bool(0.3) {
        let from_round = rng.gen_range(0..4);
        faults.partitions.push(Partition {
            boundary: n / 2,
            from_round,
            heal_round: from_round + rng.gen_range(2..30),
        });
    }
    if rng.gen_bool(0.2) {
        faults.churn = Some(Churn {
            period: rng.gen_range(4..12),
            down: 1,
            stagger: rng.gen_range(0..3),
        });
    }
    Scenario { name, spec: s }
}

/// Whether any trial of `spec` trips an oracle; returns the first
/// violating `(violation, trial_seed)`.
fn first_violation(spec: &RunSpec) -> Result<Option<(Violation, u64)>, String> {
    let report = run(spec)?;
    for t in &report.trials {
        if let Some(v) = judge(spec, t) {
            return Ok(Some((v, t.seed)));
        }
    }
    Ok(None)
}

/// Structural then numeric shrink candidates for one greedy pass,
/// most-aggressive first. Every candidate keeps the spec valid (fault
/// coordinates stay in range when `n` shrinks).
fn shrink_candidates(spec: &RunSpec) -> Vec<RunSpec> {
    fn with(spec: &RunSpec, f: impl FnOnce(&mut RunSpec)) -> RunSpec {
        let mut s = spec.clone();
        f(&mut s);
        s
    }
    let (net, faults) = (&spec.net, &spec.net.faults);
    let corrupt = spec.adversary.message.count();
    let mut out = Vec::new();
    // Structural removals first.
    if net.schedule.is_some() {
        out.push(with(spec, |s| s.net.schedule = None));
    }
    if spec.output.rounds_cap.is_some() {
        out.push(with(spec, |s| s.output.rounds_cap = None));
    }
    if faults.churn.is_some() {
        out.push(with(spec, |s| s.net.faults.churn = None));
    }
    for cand in shrink::remove_each(&faults.partitions) {
        out.push(with(spec, |s| s.net.faults.partitions = cand));
    }
    for cand in shrink::remove_each(&faults.crashes) {
        out.push(with(spec, |s| s.net.faults.crashes = cand));
    }
    if net.ordering != DeliveryPolicy::Fifo {
        out.push(with(spec, |s| s.net.ordering = DeliveryPolicy::Fifo));
    }
    if net.latency != LatencyModel::Constant(0) {
        out.push(with(spec, |s| s.net.latency = LatencyModel::Constant(0)));
    }
    if let TreeAttack::StaticThird { attack } = spec.adversary.tree {
        if attack != CommitteeAttack::Oppose {
            out.push(with(spec, |s| {
                s.adversary.tree = TreeAttack::StaticThird {
                    attack: CommitteeAttack::Oppose,
                }
            }));
        }
    }
    // Numeric halving.
    for p in shrink::halve_prob(faults.drop_prob) {
        out.push(with(spec, |s| s.net.faults.drop_prob = p));
    }
    for c in shrink::halve_usize(corrupt, 0) {
        out.push(with(spec, |s| {
            s.adversary.message = s.adversary.message.with_count(c)
        }));
    }
    if spec.trials > 1 {
        out.push(with(spec, |s| s.trials = 1));
    }
    for n in shrink::halve_usize(spec.n, 8) {
        if n < 8 || corrupt >= n {
            continue;
        }
        let fits = faults.crashes.iter().all(|c| c.proc < n)
            && faults
                .partitions
                .iter()
                .all(|p| p.boundary > 0 && p.boundary < n);
        if fits {
            out.push(with(spec, |s| s.n = n));
        }
    }
    out
}

/// Greedy delta debugging: repeatedly applies the first shrink candidate
/// that still satisfies `violates`, until none does. The predicate is a
/// closure so the soundness proptests can drive the shrinker with
/// synthetic oracles.
pub fn shrink_spec(spec: &RunSpec, violates: &mut dyn FnMut(&RunSpec) -> bool) -> RunSpec {
    let mut cur = spec.clone();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&cur) {
            if violates(&cand) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Runs the hunt: grid first, then sampled fault candidates, judging
/// every trial and shrinking each novel failure signature. Deterministic
/// in `config.seed` at any worker-thread count.
pub fn hunt(config: &HuntConfig) -> HuntReport {
    let mut report = HuntReport::default();
    let mut seen: Vec<String> = Vec::new();
    let mut rng = derive_rng(config.seed, HUNT_LABEL);
    let mut sample_index = 0usize;
    let mut queue = grid(config.seed).into_iter();
    loop {
        let Scenario { name, spec } = queue.next().unwrap_or_else(|| {
            sample_index += 1;
            sample(&mut rng, config.seed, sample_index - 1)
        });
        if report.trials_run + spec.trials as usize > config.budget {
            break;
        }
        report.specs_tried += 1;
        report.trials_run += spec.trials as usize;
        let hit = match first_violation(&spec) {
            Ok(h) => h,
            Err(e) => {
                report.skipped.push(format!("{name}: {e}"));
                continue;
            }
        };
        let Some((violation, trial_seed)) = hit else {
            continue;
        };
        let sig = signature(&spec, &violation);
        if seen.contains(&sig) {
            continue;
        }
        seen.push(sig.clone());
        // Rebase onto the violating trial alone, then minimize. The
        // shrinker's own runs don't count against the budget: they are a
        // bounded refinement of an already-paid-for finding.
        let pinned = spec.trials(1).seeds(trial_seed);
        let kind = violation.kind();
        let shrunk = shrink_spec(&pinned, &mut |cand| {
            matches!(
                first_violation(cand),
                Ok(Some((v, _))) if v.kind() == kind
            )
        });
        report.findings.push(Finding {
            signature: sig,
            shrunk,
            violation,
            trial_seed,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{parse_one, render};
    use ba_net::NetConfig;
    use ba_sim::BitStats;

    /// Phase King at `n` with `count` coordinators equivocating.
    fn equivocating(n: usize, count: usize) -> RunSpec {
        clean_spec(Protocol::PhaseKing, n)
            .adversary(AdversarySpec::none().with_message(MessageAdversary::Equivocate { count }))
    }

    fn outcome(agreement: f64, decided: f64, valid: Option<bool>, rounds: usize) -> TrialOutcome {
        TrialOutcome {
            agreement,
            decided,
            valid,
            rounds,
            bits: BitStats::default(),
            ..TrialOutcome::base(1)
        }
    }

    fn clean_spec(protocol: Protocol, n: usize) -> RunSpec {
        RunSpec::new(protocol, n).trials(2).seeds(1)
    }

    #[test]
    fn agreement_oracle_fires_below_floor() {
        let spec = clean_spec(Protocol::PhaseKing, 24);
        let v = judge(&spec, &outcome(0.5, 1.0, None, 10)).expect("violation");
        assert_eq!(v.kind(), "agreement");
        assert!(judge(&spec, &outcome(1.0, 1.0, None, 10)).is_none());
        // The tree floor is the almost-everywhere one.
        let tree = RunSpec::tournament(64);
        assert!(judge(&tree, &outcome(0.9, 1.0, Some(true), 100)).is_none());
        assert!(judge(&tree, &outcome(0.5, 1.0, Some(true), 100)).is_some());
    }

    #[test]
    fn validity_oracle_fires_on_explicit_false() {
        let spec = RunSpec::tournament(64);
        let v = judge(&spec, &outcome(1.0, 1.0, Some(false), 100)).expect("violation");
        assert_eq!(v.kind(), "validity");
        assert!(judge(&spec, &outcome(1.0, 1.0, Some(true), 100)).is_none());
        assert!(judge(&spec, &outcome(1.0, 1.0, None, 100)).is_none());
    }

    #[test]
    fn stall_oracle_fires_on_undecided() {
        let spec = clean_spec(Protocol::BenOr, 24);
        let v = judge(&spec, &outcome(1.0, 0.4, None, 10)).expect("violation");
        assert_eq!(v.kind(), "stall");
    }

    #[test]
    fn round_blowup_oracle_uses_the_designed_bound() {
        let spec = clean_spec(Protocol::Rabin, 24);
        let bound = round_cap(&spec).expect("bounded");
        let v = judge(&spec, &outcome(1.0, 1.0, None, bound + 1)).expect("violation");
        assert_eq!(v.kind(), "round-blowup");
        assert!(judge(&spec, &outcome(1.0, 1.0, None, bound)).is_none());
        // Structured executors are unbounded: rounds are an output.
        assert!(round_cap(&RunSpec::tournament(64)).is_none());
    }

    #[test]
    fn lossy_nets_get_slack_floors() {
        let mut spec = clean_spec(Protocol::PhaseKing, 24);
        spec.net.faults.drop_prob = 0.1;
        // 0.9 agreement is noise under loss, a violation on a clean wire.
        assert!(judge(&spec, &outcome(0.9, 1.0, None, 10)).is_none());
        let clean = clean_spec(Protocol::PhaseKing, 24);
        assert!(judge(&clean, &outcome(0.9, 1.0, None, 10)).is_some());
    }

    #[test]
    fn shrinker_reaches_the_minimal_cause() {
        // Synthetic oracle: violation iff corrupt >= 5 and n >= 16. The
        // shrinker must land exactly on the boundary and strip the
        // irrelevant fault plan.
        let mut messy = equivocating(40, 13);
        messy.net.ordering = DeliveryPolicy::Shuffle;
        messy.net.faults.drop_prob = 0.2;
        messy.net.faults.churn = Some(Churn {
            period: 8,
            down: 1,
            stagger: 0,
        });
        messy.net.faults.partitions.push(Partition {
            boundary: 20,
            from_round: 0,
            heal_round: 5,
        });
        let shrunk = shrink_spec(&messy, &mut |s| {
            s.adversary.message.count() >= 5 && s.n >= 16
        });
        assert_eq!(
            shrunk.adversary.message,
            MessageAdversary::Equivocate { count: 5 }
        );
        assert!(shrunk.n >= 16 && shrunk.n < 40, "n = {}", shrunk.n);
        assert_eq!(shrunk.net, NetConfig::synchronous());
    }

    #[test]
    fn shrunk_specs_stay_lowerable() {
        let messy = equivocating(40, 13);
        let shrunk = shrink_spec(&messy, &mut |s| s.adversary.message.count() >= 13);
        assert_eq!(shrunk.validate(), Ok(()));
        // And survive the grammar round trip for pinning.
        let row = Scenario {
            name: "hunt-pin".to_owned(),
            spec: shrunk,
        };
        let text = render(&row).expect("render");
        assert_eq!(parse_one(&text), Ok(row));
    }

    #[test]
    fn grid_is_deterministic_and_lowerable() {
        let a = grid(7);
        let b = grid(7);
        assert_eq!(a, b);
        for s in &a {
            let text = render(s).unwrap_or_else(|e| panic!("grid spec {}: {e}", s.name));
            assert_eq!(parse_one(&text).as_ref(), Ok(s), "{text}");
        }
        // The tolerance-boundary rows are present.
        let adversaries = |s: &Scenario| (s.spec.adversary.message.name(), s.spec.adversary.tree);
        assert!(a.iter().any(|s| adversaries(s).0 == "equivocate"));
        assert!(a.iter().any(|s| adversaries(s).0 == "forge"));
        assert!(a
            .iter()
            .any(|s| matches!(adversaries(s).1, TreeAttack::CustodyBuster { .. })));
    }

    #[test]
    fn wrong_decision_oracle_outranks_the_rest() {
        let spec = RunSpec::ae_to_e(24);
        let forged = TrialOutcome {
            wrong: 2,
            ..outcome(0.5, 0.4, Some(false), 10)
        };
        let v = judge(&spec, &forged).expect("violation");
        assert_eq!(v, Violation::WrongDecision { wrong: 2 });
        assert_eq!(v.kind(), "wrong-decision");
    }

    #[test]
    fn pinned_regressions_still_trip_the_oracle_they_are_named_for() {
        // `hunt-<protocol>-<adversary>-<oracle>.scn`: a pin that stops
        // violating (a fixed protocol, a moved stream) is re-hunted or
        // retired, not left to rot as a smoke test.
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/regressions");
        let mut pins = 0;
        for entry in std::fs::read_dir(&dir).expect("scenarios/regressions exists") {
            let path = entry.expect("readable entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if !stem.starts_with("hunt-") || path.extension().is_none_or(|x| x != "scn") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable pin");
            let row = parse_one(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
            let hit = first_violation(&row.spec).unwrap_or_else(|e| panic!("{stem}: {e}"));
            let (violation, _) = hit.unwrap_or_else(|| panic!("{stem} no longer violates"));
            assert!(stem.ends_with(violation.kind()), "{stem}: {violation}");
            pins += 1;
        }
        assert!(pins >= 4, "only {pins} pins found under {}", dir.display());
    }

    #[test]
    fn tiny_hunt_finds_the_equivocation_break() {
        // Budget covers just the first grid rows up to the phase-king
        // equivocation entries — enough to rediscover the break.
        let config = HuntConfig {
            seed: 7,
            budget: 60,
        };
        let report = hunt(&config);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.signature.contains("equivocate")),
            "report: {}",
            report.render(&config)
        );
        for f in &report.findings {
            // Every pinned spec still violates its oracle when rerun.
            let (v, _) = first_violation(&f.shrunk)
                .expect("runs")
                .expect("still violates");
            assert_eq!(v.kind(), f.violation.kind());
        }
    }
}
