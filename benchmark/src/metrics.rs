//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; `tests/smoke.rs` holds the two
//! lists equal.

/// A metric of the whole system, as a user of a workload sees it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// A count that is a function of `--seed` alone: two runs at one seed
    /// must print it identically, at any `BA_PAR_THREADS`.
    pub exact: bool,
}

/// The gated end-to-end metrics, printed by every workload with
/// `--trace 0`: the ones that repeat within a bound on a shared machine.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        exact: false,
    },
    EndToEnd {
        name: "bits_good_max",
        unit: "bits",
        higher_is_better: false,
        exact: true,
    },
];

/// The wall-clock metrics of the window. They are end-to-end metrics by
/// nature, but on this machine they do not repeat within any bound the
/// contract allows (see README, "Why wall-clock is not gated"), so the
/// driver sees them as the per-layer metrics `op.*`, while `run.sh` and
/// `benchmark compare` report them beside the gated ones.
pub const TIMING: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        higher_is_better: false,
        exact: false,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        higher_is_better: false,
        exact: false,
    },
    EndToEnd {
        name: "trials_per_s",
        unit: "1/s",
        higher_is_better: true,
        exact: false,
    },
];

/// The share by which `benchmark compare` lets a [`TIMING`] metric
/// worsen: the widest bound the contract has.
pub const TIMING_BOUND: f64 = 0.25;

/// The per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not exercise reports 0. `loc.<crate>` counts
/// the lines under `crates/<crate>/src`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.p50_ms", "ms"),
    ("op.p90_ms", "ms"),
    ("op.trials_per_s", "1/s"),
    ("topology.tree_generate_s", "s"),
    ("topology.tree_nodes", "count"),
    ("sampler.build_cold_s", "s"),
    ("sampler.cache_hits", "count"),
    ("sampler.cache_misses", "count"),
    ("crypto.gf16_mul_ns", "ns"),
    ("crypto.shamir_share_ns_per_point", "ns"),
    ("crypto.shamir_reconstruct_ns_per_share", "ns"),
    ("crypto.deal_replay_s", "s"),
    ("crypto.deal_count", "count"),
    ("crypto.recover_replay_s", "s"),
    ("core.tournament_s", "s"),
    ("core.ae_s", "s"),
    ("core.tournament_self_s", "s"),
    ("core.bits.deal", "bits"),
    ("core.bits.expose", "bits"),
    ("core.bits.agree", "bits"),
    ("core.bits.winners", "bits"),
    ("core.bits.root_coin", "bits"),
    ("core.bits.coin_open", "bits"),
    ("core.bits.ae", "bits"),
    ("core.transport_rounds", "rounds"),
    ("core.rounds", "rounds"),
    ("sim.deliver_s", "s"),
    ("sim.procs_s", "s"),
    ("sim.adversary_s", "s"),
    ("sim.send_s", "s"),
    ("sim.lockstep_multicast_ns", "ns"),
    ("sim.envelopes", "count"),
    ("net.sent", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("net.late", "count"),
    ("net.dead_letters", "count"),
    ("net.overhead_s", "s"),
    ("net.ns_per_envelope", "ns"),
    ("net.queue_ns_per_event", "ns"),
    ("harness.trial_s", "s"),
    ("harness.fanout_efficiency", "ratio"),
    ("par.threads", "count"),
    ("par.speedup", "ratio"),
    ("baselines.trials_per_s.flood", "1/s"),
    ("baselines.trials_per_s.phase_king", "1/s"),
    ("baselines.trials_per_s.ben_or", "1/s"),
    ("baselines.trials_per_s.rabin", "1/s"),
    ("harness.trials_per_s.aeba", "1/s"),
    ("harness.trials_per_s.ae_to_e", "1/s"),
    ("harness.trials_per_s.tournament", "1/s"),
    ("harness.trials_per_s.everywhere", "1/s"),
    ("serve.session_s", "s"),
    ("serve.executor_s", "s"),
    ("serve.wire_share", "ratio"),
    ("serve.frame_encode_ns", "ns"),
    ("serve.frame_decode_ns", "ns"),
    ("serve.frames_per_session", "count"),
    ("serve.bytes_per_session", "B"),
    ("serve.busy_retries", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.events", "count"),
    ("loc.baselines", "lines"),
    ("loc.bench", "lines"),
    ("loc.core", "lines"),
    ("loc.crypto", "lines"),
    ("loc.harness", "lines"),
    ("loc.net", "lines"),
    ("loc.obs", "lines"),
    ("loc.par", "lines"),
    ("loc.sampler", "lines"),
    ("loc.serve", "lines"),
    ("loc.sim", "lines"),
    ("loc.topology", "lines"),
];

/// The workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] = &[
    "stack-scale-4096",
    "stack-jitter-256",
    "trials-mixed-small",
    "serve-loopback-64",
];
