//! E-scale: the full everywhere stack (Algorithm 4) at n up to 2^17,
//! pinning that the batched-envelope / flat-graph / arena-share-tree
//! paths keep a 10^5-processor run feasible on one core.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ba-bench --bin exp_scale -- \
//!     [--max-n N] [--seed S] [--net lockstep|jitter] \
//!     [--trace OUT.jsonl] [--json OUT.json]
//! ```
//!
//! Each row carries its wall time and the process's peak resident set
//! (`VmHWM`) after it, in the table and in `--json`.
//!
//! Each size runs one seed of [`ba_core::everywhere::run`] under a
//! *scale profile*: `Params::practical(n)` with the AEBA gossip degree
//! capped at `4·log₂n` (the default `6·√n` term alone would cost a
//! ~2 GB root graph at n = 2^17) and Algorithm 3 trimmed to a few
//! samples per label. The profile changes constants only — every path
//! (tournament, election, AEBA, iterated secret sharing, Algorithm 3
//! hand-off) still executes, so a completed row is an end-to-end run.
//!
//! `--net jitter` runs the same profile through
//! [`ba_core::everywhere::run_with_transport`] over a [`NetTransport`]
//! with `stack-jitter-256`'s net ([`jitter_net`]: 1 % loss,
//! `Uniform{0,900}` latency, the net's seed the run's) at n = 512 and 1024, the sizes above the
//! benchmark's that a faulty net still fits (≈ 5 and ≈ 20 s; memory is
//! the busiest round's queue, see `docs/performance.md` "What is left"),
//! and prints each row's `NetStats` totals under it.
//!
//! With `--trace` the bin emits the harness's `trial:start` /
//! `trial:phase` / `trial:end` event schema so `trace-report` can
//! aggregate bits/good-proc per n and print the fitted
//! `c · √n · log₂^k(n)` curve, plus one process-level `sampler:cache`
//! event counting the gossip graphs the rows built.

use std::time::Instant;

use ba_bench::jitter_net;
use ba_core::everywhere::{run, run_with_transport, EverywhereConfig};
use ba_core::tournament::NoTreeAdversary;
use ba_net::NetTransport;
use ba_obs::Trace;
use ba_sim::NullAdversary;
use ba_topology::Params;

/// One completed scale row.
struct Row {
    n: usize,
    wall_seconds: f64,
    peak_rss_mb: f64,
    bits_good_max: u64,
    bits_good_mean: f64,
    rounds: usize,
    agreement: bool,
    aeba_degree: usize,
}

/// The scale profile for size `n`: structure-preserving constants that
/// keep graph memory and gossip volume near-linear in n.
fn scale_config(n: usize, seed: u64) -> EverywhereConfig {
    let log_n = (n as f64).log2().max(1.0);
    let degree = ((4.0 * log_n).ceil() as usize).max(8).min(n - 1);
    let mut config = EverywhereConfig::for_n(n).with_seed(seed);
    // k₁ = 2·log₂n, a 4·log₂n gossip degree, and ~¾·log₂n AEBA rounds
    // keep the committee-agreement margins (checked by the agreement
    // assert below) while shedding the dominant L*:agree volume that
    // would otherwise make 2^17 a multi-hour run.
    config.tournament.params = Params::practical(n)
        .with_k1((2.0 * log_n).ceil() as usize)
        .with_aeba_degree(degree)
        .with_aeba_rounds(((0.75 * log_n).ceil() as usize).max(6));
    // Coin-word redundancy beyond 8 extra words buys adversarial
    // robustness this unattacked profile doesn't spend.
    config.tournament.extra_words = config.tournament.extra_words.min(8);
    // Algorithm 3 at a few samples per label: still Θ(√n) labels, so
    // the √n·polylog(n) shape survives with smaller constants.
    config.ae.per_label = config.ae.per_label.clamp(2, 4);
    config.ae.loops = config.ae.loops.clamp(1, 2);
    config
}

/// The process's peak resident set so far (`VmHWM`), in MB; 0 where
/// `/proc` does not say. Rows run in ascending n, so read after a row it
/// is that row's peak. Like wall time it goes to the table and the JSON,
/// never into the trace stream.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_n = 131_072usize;
    let mut seed = 7u64;
    let mut jitter = false;
    let mut trace_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-n" => {
                max_n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--max-n needs a number"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--seed needs a number"));
            }
            "--net" => {
                jitter = match it.next().map(String::as_str) {
                    Some("jitter") => true,
                    Some("lockstep") => false,
                    other => panic!("--net is lockstep or jitter, not {other:?}"),
                };
            }
            "--trace" => trace_out = it.next().cloned(),
            "--json" => json_out = it.next().cloned(),
            other => panic!("unknown arg {other}"),
        }
    }

    let trace = match &trace_out {
        Some(path) => Trace::to_file(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}")),
        None => Trace::off(),
    };
    let cache_before = ba_sampler::cache::stats();

    // 2¹², 2¹⁴, 2¹⁷: three decades for the trace-report fit with one
    // two-digit-minute headline row (2¹⁶ adds ~10 min for little fit
    // information, so the default sweep skips it).
    let sizes: &[usize] = if jitter {
        &[512, 1024]
    } else {
        &[4096, 16384, 131_072]
    };
    println!(
        "E-scale: everywhere stack under the scale profile (seed {seed}){}",
        if jitter {
            ", over 1 % loss and Uniform{0,900}"
        } else {
            ""
        }
    );
    println!(
        "{:>8} {:>7} {:>10} {:>9} {:>12} {:>12} {:>7} {:>6}",
        "n", "aeba_d", "wall_s", "rss_mb", "bits_good_mx", "bits_good_mu", "rounds", "agree"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (trial, &n) in sizes.iter().filter(|&&n| n <= max_n).enumerate() {
        let trial = trial as u64;
        let config = scale_config(n, seed);
        let degree = config.tournament.params.aeba_degree;
        if trace.is_on() {
            trace.event(
                "trial:start",
                0,
                "",
                &[
                    ("trial", trial.into()),
                    ("seed", seed.into()),
                    ("protocol", "everywhere-scale".into()),
                    ("n", (n as u64).into()),
                ],
            );
        }
        let inputs = vec![true; n];
        let start = Instant::now();
        let (out, net) = if jitter {
            let wire = NetTransport::new(n, jitter_net(seed));
            let (out, wire) =
                run_with_transport(&config, &inputs, &mut NoTreeAdversary, NullAdversary, wire);
            (out, Some(wire.into_stats()))
        } else {
            let out = run(&config, &inputs, &mut NoTreeAdversary, NullAdversary);
            (out, None)
        };
        let wall = start.elapsed().as_secs_f64();
        let rss = peak_rss_mb();

        let stats = out.good_bit_stats();
        let round = out.rounds as u64;
        if trace.is_on() {
            for (phase, bits) in &out.phase_bits {
                trace.event(
                    "trial:phase",
                    round,
                    phase,
                    &[("trial", trial.into()), ("bits", (*bits).into())],
                );
            }
            let good = out.corrupt.iter().filter(|&&c| !c).count();
            let decided = out.decisions.iter().filter(|d| d.is_some()).count();
            trace.event(
                "trial:end",
                round,
                "",
                &[
                    ("trial", trial.into()),
                    ("seed", seed.into()),
                    ("n", (n as u64).into()),
                    ("good", (good as u64).into()),
                    ("agreement", f64::from(out.everywhere_agreement).into()),
                    ("decided", (decided as u64).into()),
                    ("total_bits", stats.total.into()),
                ],
            );
        }
        println!(
            "{:>8} {:>7} {:>10.2} {:>9.1} {:>12} {:>12.1} {:>7} {:>6}",
            n, degree, wall, rss, stats.max, stats.mean, out.rounds, out.everywhere_agreement
        );
        if let Some(net) = net {
            println!(
                "{:>8} net: {} sent, {} delivered, {} dropped, {} late, {} in flight at the end",
                "",
                net.sent,
                net.delivered,
                net.dropped(),
                net.late,
                net.in_flight_at_end
            );
        }
        assert!(
            out.everywhere_agreement,
            "everywhere agreement failed at n={n}"
        );
        rows.push(Row {
            n,
            wall_seconds: wall,
            peak_rss_mb: rss,
            bits_good_max: stats.max,
            bits_good_mean: stats.mean,
            rounds: out.rounds,
            agreement: out.everywhere_agreement,
            aeba_degree: degree,
        });
    }

    ba_exp::trace_sampler_cache(&trace, cache_before);
    trace.finish();

    if let Some(path) = json_out {
        let mut body = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            body.push_str(&format!(
                "  {{\"n\": {}, \"aeba_degree\": {}, \"wall_seconds\": {:.2}, \
                 \"peak_rss_mb\": {:.1}, \
                 \"bits_good_max\": {}, \"bits_good_mean\": {:.1}, \
                 \"rounds\": {}, \"agreement\": {}}}{}\n",
                r.n,
                r.aeba_degree,
                r.wall_seconds,
                r.peak_rss_mb,
                r.bits_good_max,
                r.bits_good_mean,
                r.rounds,
                r.agreement,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        body.push_str("]\n");
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
}
