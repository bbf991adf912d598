//! # ba-bench — the experiment binaries
//!
//! One binary per experiment in DESIGN.md §4 (`cargo run --release -p
//! ba-bench --bin exp_*`), each a **thin preset over
//! [`ba_exp::RunSpec`]**: the binary names its experiment cells; the
//! `ba-exp` harness owns the arg parsing (`--json PATH`, `--trials N`),
//! the parallel trial loop, the table printing, and the JSON emission.
//!
//! The declarative scenario runner (`--bin scenario`) executes
//! `scenarios/*.scn` specs by lowering them onto the same `RunSpec`
//! surface ([`ba_exp::scenario::lower`]).
//!
//! Criterion micro-benchmarks for the hot primitives live in
//! `benches/micro.rs`. The statistics/table helpers moved to `ba-exp`
//! and are re-exported here unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ba_exp::{f1, f3, loglog_slope, mean, par_trials, stddev, Table};

use ba_net::{FaultPlan, LatencyModel, NetConfig};

/// The net of the benchmark's `stack-jitter-256` workload — 1 % loss and
/// `Uniform{0,900}` latency in a 1000-tick round — for the rows that
/// measure the same path elsewhere (`exp_scale --net jitter`, the `net`
/// criterion group).
pub fn jitter_net(seed: u64) -> NetConfig {
    NetConfig::synchronous()
        .with_seed(seed)
        .with_latency(LatencyModel::Uniform { lo: 0, hi: 900 })
        .with_faults(FaultPlan {
            drop_prob: 0.01,
            ..FaultPlan::default()
        })
}
