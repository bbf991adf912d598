//! The tracing-is-an-observer contract: attaching a tracer to a run
//! must not change one byte of its outcome, for any protocol, seed, or
//! network damage. The tracer consumes no randomness and every
//! instrumentation site is read-only, so traced and untraced trials are
//! the same pure function of the seed.

use ba_exp::{run, run_traced, RunSpec, TrialOutcome};
use ba_net::{FaultPlan, NetConfig};
use ba_obs::Trace;
use proptest::prelude::*;

/// Byte-level equality of everything a trial reports (f64s compared by
/// bits: the traced run must be the *same* computation, not a close
/// one).
fn assert_trials_identical(a: &TrialOutcome, b: &TrialOutcome) {
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.agreement.to_bits(), b.agreement.to_bits());
    assert_eq!(a.decided.to_bits(), b.decided.to_bits());
    assert_eq!(a.valid, b.valid);
    assert_eq!(a.decided_bit, b.decided_bit);
    assert_eq!(a.wrong, b.wrong);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.total_bits, b.total_bits);
    assert_eq!(a.corrupt, b.corrupt);
    assert_eq!(a.bits.max, b.bits.max);
    assert_eq!(a.bits.p99, b.bits.p99);
    assert_eq!(a.phase_bits, b.phase_bits);
    let (an, bn) = (a.net.as_ref().unwrap(), b.net.as_ref().unwrap());
    assert_eq!(an.sent, bn.sent);
    assert_eq!(an.delivered, bn.delivered);
    assert_eq!(an.dropped_random, bn.dropped_random);
    assert_eq!(an.dead_letters, bn.dead_letters);
}

fn spec_for(proto: usize, n: usize, seed: u64, drop: f64) -> RunSpec {
    let spec = match proto {
        0 => RunSpec::flood(n),
        1 => RunSpec::phase_king(n),
        2 => RunSpec::ben_or(n),
        3 => RunSpec::rabin(n),
        _ => RunSpec::aeba(n.max(24)),
    };
    spec.trials(2)
        .seeds(seed)
        .net(NetConfig::synchronous().with_faults(FaultPlan {
            drop_prob: drop,
            ..FaultPlan::default()
        }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Traced trials equal untraced trials bit-for-bit, across the
    /// engine-hosted protocol roster and lossy wires.
    #[test]
    fn traced_outcomes_equal_untraced(
        proto in 0usize..5,
        n in 16usize..40,
        seed in 0u64..1000,
        drop_idx in 0usize..2,
    ) {
        let spec = spec_for(proto, n, seed, [0.0, 0.1][drop_idx]);
        let untraced = run(&spec).expect("untraced run");
        let trace = Trace::memory();
        let traced = run_traced(&spec, &trace).expect("traced run");
        prop_assert_eq!(untraced.trials.len(), traced.trials.len());
        for (a, b) in untraced.trials.iter().zip(&traced.trials) {
            assert_trials_identical(a, b);
        }
        // And the trace is not empty: every trial logged its frame.
        let lines = trace.take_lines();
        let starts = lines.iter().filter(|l| l.contains("\"trial:start\"")).count();
        prop_assert_eq!(starts, traced.trials.len());
    }
}

/// The structured executors (tournament / everywhere) run under the
/// same contract; checked directly since they dominate runtime.
#[test]
fn traced_structured_runs_equal_untraced() {
    for spec in [
        RunSpec::tournament(64).trials(1).seeds(9),
        RunSpec::everywhere(64).trials(1).seeds(9),
    ] {
        let untraced = run(&spec).expect("untraced");
        let trace = Trace::memory();
        let traced = run_traced(&spec, &trace).expect("traced");
        for (a, b) in untraced.trials.iter().zip(&traced.trials) {
            assert_trials_identical(a, b);
            // Attribution is exact for the structured executors.
            let attributed: u64 = b.phase_bits.iter().map(|(_, bits)| *bits).sum();
            assert_eq!(attributed, b.total_bits);
        }
        assert!(!trace.take_lines().is_empty());
    }
}

/// A repeat run of the same spec builds its gossip graphs again — no
/// graph outlives its trial — and the process-level `sampler:cache`
/// event counts both builds and no hit.
#[test]
fn sampler_cache_event_counts_a_rerun_as_builds() {
    let spec = RunSpec::tournament(64).trials(1).seeds(41);
    let before = ba_sampler::cache::stats();
    let first = run(&spec).expect("first run");
    let second = run(&spec).expect("rerun");
    assert_eq!(first.trials[0].total_bits, second.trials[0].total_bits);

    let trace = Trace::memory();
    ba_exp::trace_sampler_cache(&trace, before);
    let lines = trace.take_lines();
    let line = lines
        .iter()
        .find(|l| l.contains("\"sampler:cache\""))
        .expect("cache summary event");
    let field = |name: &str| -> u64 {
        line.split(&format!("\"{name}\": "))
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("parse {name}: {line}"))
    };
    // Tests of this binary run on parallel threads and build too, so the
    // count is at least this test's: a graph a committee shape a run.
    assert!(field("misses") >= 2, "both runs build: {line}");
    assert_eq!(field("hits"), 0, "nothing is served twice: {line}");
}

/// Trial traces merge in trial order whatever the pool does: two runs
/// of the same spec produce byte-identical in-memory traces.
#[test]
fn merged_traces_are_reproducible() {
    let spec = RunSpec::phase_king(24).trials(4).seeds(3);
    let (ta, tb) = (Trace::memory(), Trace::memory());
    run_traced(&spec, &ta).expect("run a");
    run_traced(&spec, &tb).expect("run b");
    assert_eq!(ta.take_lines(), tb.take_lines());
}
