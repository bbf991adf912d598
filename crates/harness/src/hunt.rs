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
//! minimal [`ScenarioSpec`] ([`shrink_spec`]) that still violates the
//! same oracle, ready to pin under `scenarios/regressions/` where the
//! scenario smoke runs it forever after.
//!
//! Everything is a pure function of [`HuntConfig::seed`]: candidate
//! enumeration is deterministic, the sampler draws from
//! `derive_rng(seed, HUNT_LABEL)`, trial execution is the same
//! thread-count-independent [`run`] the experiments use, and
//! the report carries no wall-clock — so the same seed yields a
//! byte-identical report at any `BA_PAR_THREADS`.

use crate::runner::{round_cap, run, TrialOutcome};
use crate::scenario::lower;
use ba_baselines::{PhaseKingConfig, RabinConfig};
use ba_net::InputPattern;
use ba_net::{Churn, DeliveryPolicy, FaultPlan, LatencyModel, Partition, ScenarioSpec};
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

/// The designed round budget: the cap the engine runs the lowered spec
/// to (`round_cap`); `None` for the structured executors, whose round
/// count is an output, not a budget, and for a spec that does not lower.
fn round_bound(spec: &ScenarioSpec) -> Option<usize> {
    round_cap(&lower(spec).ok()?)
}

/// Agreement / decided floors for a spec. Clean-net baselines promise
/// exact agreement; a lossy wire excuses some spread (the hunt then
/// reports only collapses, not noise); the almost-everywhere stack
/// promises agreement among most good processors by design.
fn floors(spec: &ScenarioSpec) -> (f64, f64) {
    let tree_level = matches!(spec.protocol.as_str(), "tournament" | "everywhere");
    if tree_level {
        (0.70, 0.70)
    } else if spec.faults.is_trivial() {
        (0.999, 0.999)
    } else {
        (0.60, 0.60)
    }
}

/// Judges one trial against every oracle; the most damning verdict wins
/// (wrong decision > agreement > validity > stall > round blowup).
pub(crate) fn judge(spec: &ScenarioSpec, outcome: &TrialOutcome) -> Option<Violation> {
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
    if let Some(bound) = round_bound(spec) {
        if outcome.rounds > bound {
            return Some(Violation::RoundBlowup {
                rounds: outcome.rounds,
                bound,
            });
        }
    }
    None
}

/// One hunted-down violation: the candidate that failed, its minimized
/// form, and where it failed.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Deduplication key: `protocol-adversary-oracle`.
    pub signature: String,
    /// The candidate spec that first hit this signature.
    pub spec: ScenarioSpec,
    /// The delta-debugged minimal spec still violating the same oracle.
    pub shrunk: ScenarioSpec,
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
                f.shrunk.protocol,
                f.shrunk.n,
                f.shrunk.adversary,
                f.shrunk.corrupt,
                f.shrunk.tree_adversary,
                f.shrunk.ordering.name(),
                f.shrunk.faults.drop_prob,
                f.shrunk.faults.partitions.len(),
                f.shrunk.faults.crashes.len(),
                f.shrunk.faults.churn.is_some(),
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
                f.shrunk.protocol,
                f.shrunk.n
            );
        }
        let _ = write!(out, "]}}");
        out
    }
}

/// A fresh spec with clean defaults at `(protocol, n, seed)`.
fn base_spec(name: String, protocol: &str, n: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name,
        protocol: protocol.to_owned(),
        n,
        sweep_n: Vec::new(),
        trials: 2,
        seed,
        input: InputPattern::Split,
        rounds: None,
        delta: 1_000,
        latency: LatencyModel::Constant(0),
        faults: FaultPlan::default(),
        corrupt: 0,
        adversary: "none".to_owned(),
        tree_adversary: "none".to_owned(),
        tree_aggressiveness: 1.0,
        tree_attack: "oppose".to_owned(),
        phases: Vec::new(),
        coin_success: 0.8,
        coin_blind: 0.02,
        ordering: DeliveryPolicy::Fifo,
    }
}

/// The failure signature a finding dedups on: protocol, the adversary
/// that caused it (message- or tree-level), and the oracle it tripped.
fn signature(spec: &ScenarioSpec, v: &Violation) -> String {
    let adv = if spec.tree_adversary != "none" {
        &spec.tree_adversary
    } else {
        &spec.adversary
    };
    format!("{}-{}-{}", spec.protocol, adv, v.kind())
}

/// The exhaustive grid over the small discrete axes: every baseline ×
/// its adversary roster × delivery ordering × two population sizes, then
/// Algorithm 3 against response forgery, then the committee stack × tree
/// adversaries × ordering. Clean networks
/// throughout — the sampler owns the fault axes — so grid findings
/// isolate *adversary* breaks (the coordinator equivocation above the
/// design tolerance) from wire damage.
fn grid(seed: u64) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let orderings = [
        DeliveryPolicy::Fifo,
        DeliveryPolicy::AdversarialLifo,
        DeliveryPolicy::Shuffle,
    ];
    for &n in &[24usize, 40] {
        for proto in ["flood", "phase_king", "ben_or", "rabin"] {
            let mut advs: Vec<(&str, usize)> = vec![("none", 0), ("crash", n / 5)];
            if matches!(proto, "phase_king" | "rabin") {
                let t = match proto {
                    "phase_king" => PhaseKingConfig::for_n(n).t,
                    _ => RabinConfig::for_n(n).t,
                };
                // The tolerance boundary from both sides: held at the
                // design t, broken at n/3.
                advs.push(("equivocate", t));
                advs.push(("equivocate", n / 3));
            }
            for (adv, corrupt) in advs {
                for ord in orderings {
                    let name = format!("grid-{proto}-{adv}{corrupt}-{}-n{n}", ord.name());
                    let mut s = base_spec(name, proto, n, seed);
                    s.adversary = adv.to_owned();
                    s.corrupt = corrupt;
                    s.ordering = ord;
                    out.push(s);
                }
            }
        }
    }
    // Algorithm 3 inside its precondition (nine in ten knowledgeable,
    // so well over half stay good and knowledgeable) against forged
    // answers, from both sides of the corruption tolerance.
    for &n in &[24usize, 40] {
        for (adv, corrupt) in [("none", 0), ("forge", n / 5), ("forge", n / 3)] {
            for ord in orderings {
                let name = format!("grid-ae_to_e-{adv}{corrupt}-{}-n{n}", ord.name());
                let mut s = base_spec(name, "ae_to_e", n, seed);
                s.input = InputPattern::Lopsided;
                s.adversary = adv.to_owned();
                s.corrupt = corrupt;
                s.ordering = ord;
                out.push(s);
            }
        }
    }
    for proto in ["tournament", "everywhere"] {
        for tree in ["none", "static-third", "winner-hunter", "custody-buster"] {
            for ord in orderings {
                let name = format!("grid-{proto}-{tree}-{}-n64", ord.name());
                let mut s = base_spec(name, proto, 64, seed);
                s.trials = 1; // structured executions dominate runtime
                s.tree_adversary = tree.to_owned();
                if tree == "custody-buster" {
                    s.tree_aggressiveness = 0.6;
                }
                s.ordering = ord;
                out.push(s);
            }
        }
    }
    out
}

/// Draws one random fault-space candidate (baselines only: the sampler
/// explores wire damage, which the grid deliberately leaves out).
fn sample(rng: &mut SimRng, seed: u64, index: usize) -> ScenarioSpec {
    let protos = ["flood", "phase_king", "ben_or", "rabin"];
    let proto = protos[rng.gen_range(0..protos.len())];
    let ns = [16usize, 24, 32, 40];
    let n = ns[rng.gen_range(0..ns.len())];
    let mut s = base_spec(format!("sample-{index}-{proto}-n{n}"), proto, n, seed);
    s.trials = 1;
    s.seed = seed.wrapping_add(rng.gen_range(0..1u64 << 16));
    s.ordering = [
        DeliveryPolicy::Fifo,
        DeliveryPolicy::AdversarialLifo,
        DeliveryPolicy::Shuffle,
    ][rng.gen_range(0..3)];
    match rng.gen_range(0..3) {
        0 => {}
        1 => {
            s.adversary = "crash".to_owned();
            s.corrupt = rng.gen_range(1..=n / 4);
        }
        _ => {
            if matches!(proto, "phase_king" | "rabin") {
                s.adversary = "equivocate".to_owned();
                s.corrupt = rng.gen_range(1..=n / 3);
            }
        }
    }
    s.faults.drop_prob = [0.0, 0.05, 0.1, 0.2][rng.gen_range(0..4)];
    if rng.gen_bool(0.3) {
        let from_round = rng.gen_range(0..4);
        s.faults.partitions.push(Partition {
            boundary: n / 2,
            from_round,
            heal_round: from_round + rng.gen_range(2..30),
        });
    }
    if rng.gen_bool(0.2) {
        s.faults.churn = Some(Churn {
            period: rng.gen_range(4..12),
            down: 1,
            stagger: rng.gen_range(0..3),
        });
    }
    s
}

/// Whether any trial of `spec` trips an oracle; returns the first
/// violating `(violation, trial_seed)`.
fn first_violation(spec: &ScenarioSpec) -> Result<Option<(Violation, u64)>, String> {
    let run_spec = lower(spec)?;
    let report = run(&run_spec)?;
    for t in &report.trials {
        if let Some(v) = judge(spec, t) {
            return Ok(Some((v, t.seed)));
        }
    }
    Ok(None)
}

/// Structural then numeric shrink candidates for one greedy pass,
/// most-aggressive first. Every candidate keeps the spec lowerable
/// (fault coordinates stay in range when `n` shrinks).
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    fn with(spec: &ScenarioSpec, f: impl FnOnce(&mut ScenarioSpec)) -> ScenarioSpec {
        let mut s = spec.clone();
        f(&mut s);
        s
    }
    let mut out = Vec::new();
    // Structural removals first.
    if !spec.phases.is_empty() {
        out.push(with(spec, |s| s.phases.clear()));
    }
    if spec.rounds.is_some() {
        out.push(with(spec, |s| s.rounds = None));
    }
    if spec.faults.churn.is_some() {
        out.push(with(spec, |s| s.faults.churn = None));
    }
    for cand in shrink::remove_each(&spec.faults.partitions) {
        out.push(with(spec, |s| s.faults.partitions = cand));
    }
    for cand in shrink::remove_each(&spec.faults.crashes) {
        out.push(with(spec, |s| s.faults.crashes = cand));
    }
    if spec.ordering != DeliveryPolicy::Fifo {
        out.push(with(spec, |s| s.ordering = DeliveryPolicy::Fifo));
    }
    if spec.latency != LatencyModel::Constant(0) {
        out.push(with(spec, |s| s.latency = LatencyModel::Constant(0)));
    }
    if spec.tree_adversary != "none" && spec.tree_attack != "oppose" {
        out.push(with(spec, |s| s.tree_attack = "oppose".to_owned()));
    }
    // Numeric halving.
    for p in shrink::halve_prob(spec.faults.drop_prob) {
        out.push(with(spec, |s| s.faults.drop_prob = p));
    }
    for c in shrink::halve_usize(spec.corrupt, 0) {
        out.push(with(spec, |s| s.corrupt = c));
    }
    if spec.trials > 1 {
        out.push(with(spec, |s| s.trials = 1));
    }
    for n in shrink::halve_usize(spec.n, 8) {
        if n < 8 || spec.corrupt >= n {
            continue;
        }
        let fits = spec.faults.crashes.iter().all(|c| c.proc < n)
            && spec
                .faults
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
pub fn shrink_spec(
    spec: &ScenarioSpec,
    violates: &mut dyn FnMut(&ScenarioSpec) -> bool,
) -> ScenarioSpec {
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
    let grid_specs = grid(config.seed);
    let mut sample_index = 0usize;
    let mut queue = grid_specs.into_iter();
    loop {
        let spec = match queue.next() {
            Some(s) => s,
            None => {
                let s = sample(&mut rng, config.seed, sample_index);
                sample_index += 1;
                s
            }
        };
        if report.trials_run + spec.trials as usize > config.budget {
            break;
        }
        report.specs_tried += 1;
        report.trials_run += spec.trials as usize;
        let hit = match first_violation(&spec) {
            Ok(h) => h,
            Err(e) => {
                report.skipped.push(format!("{}: {e}", spec.name));
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
        let mut pinned = spec.clone();
        pinned.trials = 1;
        pinned.seed = trial_seed;
        pinned.name = format!("hunt-{sig}");
        let kind = violation.kind();
        let shrunk = shrink_spec(&pinned, &mut |cand| {
            matches!(
                first_violation(cand),
                Ok(Some((v, _))) if v.kind() == kind
            )
        });
        report.findings.push(Finding {
            signature: sig,
            spec,
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
    use ba_sim::BitStats;

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

    fn clean_spec(proto: &str, n: usize) -> ScenarioSpec {
        base_spec(format!("t-{proto}"), proto, n, 1)
    }

    #[test]
    fn agreement_oracle_fires_below_floor() {
        let spec = clean_spec("phase_king", 24);
        let v = judge(&spec, &outcome(0.5, 1.0, None, 10)).expect("violation");
        assert_eq!(v.kind(), "agreement");
        assert!(judge(&spec, &outcome(1.0, 1.0, None, 10)).is_none());
        // The tree floor is the almost-everywhere one.
        let tree = clean_spec("tournament", 64);
        assert!(judge(&tree, &outcome(0.9, 1.0, Some(true), 100)).is_none());
        assert!(judge(&tree, &outcome(0.5, 1.0, Some(true), 100)).is_some());
    }

    #[test]
    fn validity_oracle_fires_on_explicit_false() {
        let spec = clean_spec("tournament", 64);
        let v = judge(&spec, &outcome(1.0, 1.0, Some(false), 100)).expect("violation");
        assert_eq!(v.kind(), "validity");
        assert!(judge(&spec, &outcome(1.0, 1.0, Some(true), 100)).is_none());
        assert!(judge(&spec, &outcome(1.0, 1.0, None, 100)).is_none());
    }

    #[test]
    fn stall_oracle_fires_on_undecided() {
        let spec = clean_spec("ben_or", 24);
        let v = judge(&spec, &outcome(1.0, 0.4, None, 10)).expect("violation");
        assert_eq!(v.kind(), "stall");
    }

    #[test]
    fn round_blowup_oracle_uses_the_designed_bound() {
        let spec = clean_spec("rabin", 24);
        let bound = round_bound(&spec).expect("bounded");
        let v = judge(&spec, &outcome(1.0, 1.0, None, bound + 1)).expect("violation");
        assert_eq!(v.kind(), "round-blowup");
        assert!(judge(&spec, &outcome(1.0, 1.0, None, bound)).is_none());
        // Structured executors are unbounded: rounds are an output.
        assert!(round_bound(&clean_spec("tournament", 64)).is_none());
    }

    #[test]
    fn lossy_nets_get_slack_floors() {
        let mut spec = clean_spec("phase_king", 24);
        spec.faults.drop_prob = 0.1;
        // 0.9 agreement is noise under loss, a violation on a clean wire.
        assert!(judge(&spec, &outcome(0.9, 1.0, None, 10)).is_none());
        assert!(judge(&clean_spec("phase_king", 24), &outcome(0.9, 1.0, None, 10)).is_some());
    }

    #[test]
    fn shrinker_reaches_the_minimal_cause() {
        // Synthetic oracle: violation iff corrupt >= 5 and n >= 16. The
        // shrinker must land exactly on the boundary and strip the
        // irrelevant fault plan.
        let mut messy = clean_spec("phase_king", 40);
        messy.corrupt = 13;
        messy.adversary = "equivocate".to_owned();
        messy.ordering = DeliveryPolicy::Shuffle;
        messy.faults.drop_prob = 0.2;
        messy.faults.churn = Some(Churn {
            period: 8,
            down: 1,
            stagger: 0,
        });
        messy.faults.partitions.push(Partition {
            boundary: 20,
            from_round: 0,
            heal_round: 5,
        });
        let shrunk = shrink_spec(&messy, &mut |s| s.corrupt >= 5 && s.n >= 16);
        assert_eq!(shrunk.corrupt, 5);
        assert!(shrunk.n >= 16 && shrunk.n < 40, "n = {}", shrunk.n);
        assert_eq!(shrunk.ordering, DeliveryPolicy::Fifo);
        assert_eq!(shrunk.faults.drop_prob, 0.0);
        assert!(shrunk.faults.churn.is_none());
        assert!(shrunk.faults.partitions.is_empty());
    }

    #[test]
    fn shrunk_specs_stay_lowerable() {
        let mut messy = clean_spec("phase_king", 40);
        messy.corrupt = 13;
        messy.adversary = "equivocate".to_owned();
        let shrunk = shrink_spec(&messy, &mut |s| s.corrupt >= 13);
        assert!(lower(&shrunk).is_ok(), "{:?}", lower(&shrunk));
        // And survive the grammar round trip for pinning.
        let text = shrunk.render();
        assert_eq!(ScenarioSpec::parse(&text).expect("parse"), shrunk);
    }

    #[test]
    fn grid_is_deterministic_and_lowerable() {
        let a = grid(7);
        let b = grid(7);
        assert_eq!(a, b);
        for s in &a {
            lower(s).unwrap_or_else(|e| panic!("grid spec {} must lower: {e}", s.name));
        }
        // The tolerance-boundary rows are present.
        assert!(a.iter().any(|s| s.adversary == "equivocate"));
        assert!(a.iter().any(|s| s.tree_adversary == "custody-buster"));
        assert!(a.iter().any(|s| s.adversary == "forge"));
    }

    #[test]
    fn wrong_decision_oracle_outranks_the_rest() {
        let spec = clean_spec("ae_to_e", 24);
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
            let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
            let hit = first_violation(&spec).unwrap_or_else(|e| panic!("{stem}: {e}"));
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
