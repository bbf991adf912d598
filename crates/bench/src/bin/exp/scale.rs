//! E-scale: the full everywhere stack (Algorithm 4) at n up to 2^17,
//! pinning that the batched-envelope / flat-graph / arena-share-tree
//! paths keep a 10^5-processor run feasible on one core.
//!
//! Each size runs seed 7 of [`ba_core::everywhere::run`] under
//! [`EverywhereConfig::scale_profile`]: paper structure, reduced
//! constants, every phase executed. `scale` runs n = 4096 and 16384
//! (`scripts/pins.env` pins their bits and rounds), `scale-131072` adds
//! 2¹⁷. `scale-jitter` runs n = 512 and 1024 through
//! [`ba_core::everywhere::run_with_transport`] over a [`NetTransport`]
//! with `stack-jitter-256`'s net ([`jitter_net`]) and prints each row's
//! `NetStats` totals under it.
//!
//! Each row carries its wall time and the process's peak resident set
//! (`VmHWM`) after it. With `--trace` each row is a trial in the
//! harness's `trial:*` schema (so `trace-report` fits bits/good-proc per
//! n to `c · √n · log₂^k(n)`), plus one process-level `sampler:cache`
//! event counting the gossip graphs the rows built.

use std::convert::Infallible;
use std::time::Instant;

use ba_bench::jitter_net;
use ba_core::everywhere::{self, run_with_transport, EverywhereConfig};
use ba_core::tournament::NoTreeAdversary;
use ba_exp::{everywhere_outcome, f1, f3, traced_trial, Experiment};
use ba_net::NetTransport;
use ba_sim::NullAdversary;

/// The one seed every row runs at.
const SEED: u64 = 7;

/// `scale`: n = 4096 and 16384.
pub fn run(args: &[String]) {
    sweep(args, &[4096, 16384], false);
}

/// `scale-131072`: `scale` plus the 2¹⁷ row. 2¹², 2¹⁴, 2¹⁷ give the
/// trace-report fit three decades with one two-digit-minute headline row
/// (2¹⁶ adds ~10 min for little fit information).
pub fn run_131072(args: &[String]) {
    sweep(args, &[4096, 16384, 131_072], false);
}

/// `scale-jitter`: n = 512 and 1024 over [`jitter_net`], the sizes above
/// the benchmark's that a faulty net still fits (memory is the busiest
/// round's queue, see `docs/performance.md` "What is left").
pub fn run_jitter(args: &[String]) {
    sweep(args, &[512, 1024], true);
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

fn sweep(args: &[String], sizes: &[usize], jitter: bool) {
    let net = if jitter {
        ", over 1 % loss and Uniform{0,900}"
    } else {
        ""
    };
    let mut e = Experiment::one_seed(
        args,
        "E-scale",
        &format!("everywhere stack under the scale profile (seed {SEED}){net}"),
    );
    let cache_before = ba_sampler::cache::stats();
    e.section(
        "E-scale: one seed a row",
        &[
            "n",
            "aeba_degree",
            "wall_s",
            "peak_rss_mb",
            "bits_good_max",
            "bits_good_mean",
            "rounds",
            "agreement",
        ],
    );
    for (trial, &n) in sizes.iter().enumerate() {
        let config = EverywhereConfig::scale_profile(n).with_seed(SEED);
        let degree = config.tournament.params.aeba_degree as f64;
        let inputs = vec![true; n];
        let start = Instant::now();
        let framed = traced_trial(e.trace(), trial as u64, SEED, "everywhere-scale", n, || {
            let mut adversary = NoTreeAdversary;
            let (out, net) = if jitter {
                let wire = NetTransport::new(n, jitter_net(SEED));
                let (out, wire) =
                    run_with_transport(&config, &inputs, &mut adversary, NullAdversary, wire);
                (out, Some(wire.into_stats()))
            } else {
                let out = everywhere::run(&config, &inputs, &mut adversary, NullAdversary);
                (out, None)
            };
            Ok::<_, Infallible>(everywhere_outcome(SEED, out, net))
        });
        let Ok(t) = framed;
        let wall = start.elapsed().as_secs_f64();
        let rss = peak_rss_mb();
        let values = [
            degree,
            wall,
            rss,
            t.bits.max as f64,
            t.bits.mean,
            t.rounds as f64,
            t.agreement,
        ];
        let cells = [
            format!("{degree:.0}"),
            format!("{wall:.2}"),
            f1(rss),
            t.bits.max.to_string(),
            f1(t.bits.mean),
            t.rounds.to_string(),
            f3(t.agreement),
        ];
        e.case_cells(&[n.to_string()], &cells, &values);
        if let Some(net) = &t.net {
            e.note(&format!(
                "{:>8} net: {} sent, {} delivered, {} dropped, {} late, {} in flight at the end",
                "",
                net.sent,
                net.delivered,
                net.dropped(),
                net.late,
                net.in_flight_at_end
            ));
        }
        assert!(t.agreement == 1.0, "everywhere agreement failed at n={n}");
    }
    ba_exp::trace_sampler_cache(e.trace(), cache_before);
    e.finish();
}
