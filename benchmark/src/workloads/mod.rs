//! The four workloads and the loops they share.
//!
//! One *operation* is what a user of the workload asks for: a full-stack
//! trial (`stack-*`), one `ba_exp::run` of a spec (`trials-mixed-small`)
//! or one served session (`serve-loopback-64`). Every workload is a
//! closed loop: the next operation starts when the previous one ends.

pub mod serve_loopback;
pub mod stack_jitter;
pub mod stack_scale;
pub mod trials_mixed;

use crate::span::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// Share of `--seconds` the traced pass gives its window; the rest of
/// that pass goes to layer replays and kernel probes.
const TRACED_WINDOW_SHARE: f64 = 0.6;

/// Wall-clock budget for repeating a workload's set-up.
const SETUP_BUDGET_S: f64 = 6.0;

/// What the command line asked of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed window; 0 runs the counted operations only.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Reduced sizes, for tests.
    pub smoke: bool,
    /// When the process started (set-up time counts from here).
    pub started: Instant,
}

/// One timed operation.
#[derive(Clone, Debug)]
pub struct OpSample {
    /// Operation index (also the span identifier).
    pub op: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Trials the operation ran.
    pub trials: u64,
    /// Trials that failed (see each workload for what failing means).
    pub failed: u64,
    /// Sum over the operation's trials of the most bits any good
    /// processor sent.
    pub bits_good_max_sum: u64,
    /// FNV-1a of the outcome's `Debug` rendering: equal digests mean
    /// equal decisions, bits and network statistics.
    pub digest: u64,
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Seconds each set-up repetition took.
    pub setup_s: Vec<f64>,
    /// Untraced operations, in index order.
    pub plain: Vec<OpSample>,
    /// Traced twins of the first `traced.len()` plain operations (the
    /// counted ones, in the traced pass).
    pub traced: Vec<OpSample>,
    /// Wall-clock seconds from the first timed operation to the last.
    pub window_s: f64,
    /// Operations (from index 0) whose counters feed the exact metrics.
    pub counted: u64,
    /// Per-layer metrics the workload measured (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl RunOut {
    /// Median wall-clock seconds of the untraced operations.
    pub fn median_wall_s(&self) -> f64 {
        crate::stats::median(&self.plain.iter().map(|s| s.wall_s).collect::<Vec<_>>())
    }
}

/// The sampler cache's traffic over the counted operations: the totals
/// are a function of the seed only while the set of operations is.
pub struct CacheMeter {
    before: ba_sampler::CacheStats,
    after: ba_sampler::CacheStats,
}

impl CacheMeter {
    /// Starts metering at the registry's present counters.
    pub fn start() -> Self {
        let now = ba_sampler::cache::stats();
        CacheMeter {
            before: now,
            after: now,
        }
    }

    /// Call after every twin of a counted operation: the last call marks
    /// the end of the metered stretch.
    pub fn note(&mut self) {
        self.after = ba_sampler::cache::stats();
    }

    /// Copies hits and misses into a layer-metric map.
    pub fn export(&self, layers: &mut BTreeMap<&'static str, f64>) {
        let delta = self.after.since(self.before);
        layers.insert("sampler.cache_hits", delta.hits as f64);
        layers.insert("sampler.cache_misses", delta.misses as f64);
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: spreads `--seed` so neighbouring seeds share no stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A base for per-trial seeds `base + t`: 48 bits, so adding a trial
/// index never wraps.
pub fn seed_base(seed: u64, tag: u64) -> u64 {
    mix(seed, tag) >> 16
}

/// Builds the workload's state `build(rep)` repeatedly — every repetition
/// from scratch, on inputs no earlier repetition has warmed — until the
/// set-up budget is spent or `max_reps` are done, and returns the last
/// state with every repetition's seconds. The first repetition is timed
/// from process start. `discard` releases a state that is not kept.
pub fn repeat_setup<S>(
    opts: &RunOpts,
    max_reps: u64,
    mut build: impl FnMut(u64) -> S,
    mut discard: impl FnMut(S),
) -> (S, Vec<f64>) {
    let max_reps = if opts.smoke {
        max_reps.min(2)
    } else {
        max_reps
    };
    let mut times = Vec::new();
    let mut spent = 0.0;
    let mut rep = 0u64;
    loop {
        let start = if rep == 0 {
            opts.started
        } else {
            Instant::now()
        };
        let state = build(rep);
        let took = start.elapsed().as_secs_f64();
        times.push(took);
        spent += took;
        rep += 1;
        if rep >= max_reps || spent + took > SETUP_BUDGET_S {
            return (state, times);
        }
        discard(state);
    }
}

/// The stop rule every window shares: at a cycle boundary, once the
/// counted operations are done and the time is up.
pub fn window_done(opts: &RunOpts, done: u64, cycle: u64, counted: u64, since: Instant) -> bool {
    let budget = if opts.trace {
        opts.seconds * TRACED_WINDOW_SHARE
    } else {
        opts.seconds
    };
    done.is_multiple_of(cycle) && done >= counted && since.elapsed().as_secs_f64() >= budget
}

/// Which twins of operation `op` run, and in what order (`true` is the
/// traced one). The untraced pass runs plain operations only. The traced
/// pass runs each *counted* operation twice on the same inputs — once
/// plain, once traced, alternating which goes first so neither side is
/// always the cache-warm one — which gives the tracing overhead and lets
/// the caller compare outcome digests; past the counted operations it
/// runs plain ones, for the window's wall-clock numbers.
pub fn twins(opts: &RunOpts, op: u64, counted: u64) -> &'static [bool] {
    match (opts.trace && op < counted, op.is_multiple_of(2)) {
        (false, _) => &[false],
        (true, true) => &[false, true],
        (true, false) => &[true, false],
    }
}

/// Runs a sequential closed loop of `run_op(index, traced)` until
/// [`window_done`], and returns the plain samples, the traced samples
/// and the window's wall-clock seconds.
pub fn run_window(
    opts: &RunOpts,
    cycle: u64,
    counted: u64,
    rec: &mut Recorder,
    mut run_op: impl FnMut(u64, bool) -> OpSample,
) -> (Vec<OpSample>, Vec<OpSample>, f64) {
    let since = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut op = 0u64;
    loop {
        for &on in twins(opts, op, counted) {
            let name = if on { "op.traced" } else { "op.plain" };
            let (sample, _, _) = rec.time(name, op, None, || run_op(op, on));
            if on { &mut traced } else { &mut plain }.push(sample);
        }
        op += 1;
        if window_done(opts, op, cycle, counted, since) {
            return (plain, traced, since.elapsed().as_secs_f64());
        }
    }
}

/// Checks the exact bit ledger of one outcome: the per-phase attribution
/// must sum to the total. A mismatch is a broken invariant of the program
/// under test, so the run is abandoned rather than reported.
pub fn check_phase_ledger(phase_bits: &[(String, u64)], total_bits: u64, what: &str) {
    let sum: u64 = phase_bits.iter().map(|(_, b)| b).sum();
    assert_eq!(
        sum, total_bits,
        "{what}: per-phase bits sum to {sum}, total_bits is {total_bits}"
    );
}

/// Per-phase bit totals of the committee stack, levels summed, keyed by
/// the `core.bits.*` metric they feed.
#[derive(Clone, Debug, Default)]
pub struct PhaseLedger {
    bits: BTreeMap<&'static str, u64>,
}

impl PhaseLedger {
    /// Adds one outcome's `phase_bits`. Phases of engine-hosted protocols
    /// (timetable names, the catch-all bucket) belong to no stack phase
    /// and are left out.
    pub fn add(&mut self, phase_bits: &[(String, u64)]) {
        for (name, bits) in phase_bits {
            let key = match name.as_str() {
                "deal" => "core.bits.deal",
                "root:coin" => "core.bits.root_coin",
                "coin:open" => "core.bits.coin_open",
                "ae" => "core.bits.ae",
                n if n.ends_with(":expose") => "core.bits.expose",
                n if n.ends_with(":agree") => "core.bits.agree",
                n if n.ends_with(":winners") => "core.bits.winners",
                _ => continue,
            };
            *self.bits.entry(key).or_default() += bits;
        }
    }

    /// Copies the totals into a layer-metric map.
    pub fn export(&self, layers: &mut BTreeMap<&'static str, f64>) {
        for (k, v) in &self.bits {
            layers.insert(k, *v as f64);
        }
    }
}

/// Network counters summed over counted trials.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetLedger {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub late: u64,
    pub dead_letters: u64,
}

impl NetLedger {
    /// Adds one trial's network statistics.
    pub fn add(&mut self, net: &ba_net::NetStats) {
        self.sent += net.sent;
        self.delivered += net.delivered;
        self.dropped += net.dropped();
        self.late += net.late;
        self.dead_letters += net.dead_letters;
    }

    /// Copies the totals into a layer-metric map. Every envelope the
    /// engine hands over reaches the transport, so `net.sent` is also the
    /// engine's envelope count.
    pub fn export(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("net.sent", self.sent as f64);
        layers.insert("net.delivered", self.delivered as f64);
        layers.insert("net.dropped", self.dropped as f64);
        layers.insert("net.late", self.late as f64);
        layers.insert("net.dead_letters", self.dead_letters as f64);
        layers.insert("sim.envelopes", self.sent as f64);
    }
}

/// Copies the `sim:*` and `harness:trial` profile timers of the traced
/// operations into layer metrics, as seconds per traced operation.
pub fn export_profile(
    profile: &ba_obs::ProfileAcc,
    traced_ops: usize,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let per_op = |name: &str| {
        profile
            .entries()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, e)| e.secs)
            / traced_ops.max(1) as f64
    };
    layers.insert("sim.deliver_s", per_op("sim:deliver"));
    layers.insert("sim.procs_s", per_op("sim:procs"));
    layers.insert("sim.adversary_s", per_op("sim:adversary"));
    layers.insert("sim.send_s", per_op("sim:send"));
    layers.insert("harness.trial_s", per_op("harness:trial"));
}
