//! `stack-scale-4096`: the full Algorithm-4 stack on the paper's
//! synchronous network at the largest size that repeats in seconds.
//!
//! It runs `ba_core::everywhere::run` under the *scale profile* the
//! 2^17 headline row uses (`k1 = 2 log2 n`, AEBA degree `4 log2 n`,
//! `3/4 log2 n` AEBA rounds, at most 8 extra coin words, Algorithm 3 at
//! `per_label <= 4`, `loops <= 2`), no adversary, `Lockstep` transport.
//! `core::tournament` (committee agreement, tree and gossip-graph
//! builds) does almost all the work; `net` does none.
//!
//! A trial fails when the good processors do not all decide one bit, or
//! decide a bit no good processor held.

use super::{
    fnv1a, repeat_setup, run_window, seed_base, CacheMeter, OpSample, PhaseLedger, RunOpts, RunOut,
};
use crate::layers::{self, Counting, Traffic};
use crate::span::Recorder;
use ba_core::everywhere::{self, EverywhereConfig, EverywhereOutcome};
use ba_core::tournament::{self, NoTreeAdversary};
use ba_sim::{Lockstep, NullAdversary};
use ba_topology::Params;
use rand::Rng;

/// The scale profile at `n`: the constants `exp_scale` runs the 2^17
/// headline under. Structure is unchanged — every phase still executes.
pub fn scale_config(n: usize, seed: u64) -> EverywhereConfig {
    let log_n = (n as f64).log2().max(1.0);
    let degree = ((4.0 * log_n).ceil() as usize).max(8).min(n - 1);
    let mut config = EverywhereConfig::for_n(n).with_seed(seed);
    config.tournament.params = Params::practical(n)
        .with_k1((2.0 * log_n).ceil() as usize)
        .with_aeba_degree(degree)
        .with_aeba_rounds(((0.75 * log_n).ceil() as usize).max(6));
    config.tournament.extra_words = config.tournament.extra_words.min(8);
    config.ae.per_label = config.ae.per_label.clamp(2, 4);
    config.ae.loops = config.ae.loops.clamp(1, 2);
    config
}

struct State {
    n: usize,
    inputs: Vec<bool>,
    /// Trial `i` runs at seed `base + i`.
    base: u64,
}

fn sample(op: u64, wall_s: f64, out: &EverywhereOutcome) -> OpSample {
    let total: u64 = out.bits_per_proc.iter().sum();
    super::check_phase_ledger(&out.phase_bits, total, "stack-scale trial");
    OpSample {
        op,
        wall_s,
        trials: 1,
        failed: u64::from(!(out.everywhere_agreement && out.valid)),
        bits_good_max_sum: out.good_bit_stats().max,
        digest: fnv1a(format!("{out:?}").as_bytes()),
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> RunOut {
    let n = if opts.smoke { 64 } else { 4096 };
    let (state, setup_s) = repeat_setup(
        opts,
        5,
        |rep| {
            // Input bits: two thirds ones, placed by the seed.
            let mut rng = ba_sim::derive_rng(opts.seed, 0x1ABE_1000 + rep);
            let inputs: Vec<bool> = (0..n).map(|_| rng.gen_range(0..3u8) != 0).collect();
            let base = seed_base(opts.seed, 1);
            // Warm-up trial on a seed no timed trial (and no other
            // repetition) uses: first-touch of the allocator and the
            // `ba-par` pool, not of the sampler cache.
            let warm = scale_config(n, base + (1 << 40) + rep);
            let out = everywhere::run(&warm, &inputs, &mut NoTreeAdversary, NullAdversary);
            assert!(out.everywhere_agreement, "warm-up trial must agree");
            State { n, inputs, base }
        },
        drop,
    );

    let counted = if opts.trace || opts.smoke { 1 } else { 4 };
    let mut cache = CacheMeter::start();
    let mut ledger = PhaseLedger::default();
    let mut traffic = Traffic::default();
    let (mut rounds, mut transport_rounds, mut tournament_bits) = (0u64, 0u64, 0u64);
    let (plain, traced, window_s) = run_window(opts, 1, counted, rec, |op, on| {
        let config = scale_config(state.n, state.base + op);
        let t = std::time::Instant::now();
        if !on {
            let out = everywhere::run(&config, &state.inputs, &mut NoTreeAdversary, NullAdversary);
            let wall_s = t.elapsed().as_secs_f64();
            if op < counted {
                cache.note();
            }
            return sample(op, wall_s, &out);
        }
        // The executors carry no `ba-obs` hooks, so the traced twin is
        // the same call with the benchmark's counting transport around
        // `Lockstep`.
        let (out, transport) = everywhere::run_with_transport(
            &config,
            &state.inputs,
            &mut NoTreeAdversary,
            NullAdversary,
            Counting::new(Lockstep::default()),
        );
        let wall_s = t.elapsed().as_secs_f64();
        if op < counted {
            cache.note();
            ledger.add(&out.phase_bits);
            traffic = transport.seen;
            rounds = rounds.max(out.rounds as u64);
            transport_rounds = transport_rounds.max(out.tournament.transport_rounds as u64);
            if op == 0 {
                tournament_bits = out.tournament.bits_per_proc.iter().sum();
            }
        }
        sample(op, wall_s, &out)
    });

    let mut out = RunOut {
        setup_s,
        plain,
        traced,
        window_s,
        counted,
        ..RunOut::default()
    };
    if !opts.trace {
        return out;
    }

    let layers = &mut out.layers;
    cache.export(layers);
    ledger.export(layers);
    layers.insert("core.rounds", rounds as f64);
    layers.insert("core.transport_rounds", transport_rounds as f64);
    layers.insert("sim.envelopes", traffic.envelopes as f64);

    // Layer replays at trial 0's config, which both twins of trial 0 have
    // already run: the sampler cache is as warm as it was for the traced
    // twin the tournament's share is compared with.
    let config = scale_config(state.n, state.base);
    let (t_out, tour, tournament_s) = rec.time("core.tournament", 0, None, || {
        tournament::run(&config.tournament, &state.inputs, &mut NoTreeAdversary)
    });
    assert_eq!(
        t_out.bits_per_proc.iter().sum::<u64>(),
        tournament_bits,
        "the tournament replay must redo trial 0's phase 1 bit for bit"
    );
    let params = &config.tournament.params;
    layers::topology(params, config.tournament.seed, rec, Some(tour), layers);
    layers::sampler_cold(params, config.tournament.seed, rec, Some(tour), layers);
    layers.insert("core.tournament_s", tournament_s);
    layers.insert("core.tournament_self_s", rec.self_s("core.tournament"));
    // Phase 2 is what a whole trial takes beyond phase 1. Every trial of
    // the pass, twin or not, is a sample of the former; the difference of
    // two multi-second timings resolves to a few tenths of a second.
    let trials: Vec<f64> = out
        .plain
        .iter()
        .chain(&out.traced)
        .map(|s| s.wall_s)
        .collect();
    layers.insert(
        "core.ae_s",
        (crate::stats::median(&trials) - tournament_s).max(0.0),
    );
    layers::crypto(params, opts.seed, layers);
    layers::lockstep_multicast(traffic, state.n, layers);
    out
}
