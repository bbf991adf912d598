//! # ba-bench — the experiment, scenario, hunt and trace-report programs
//!
//! Four binaries: `exp <preset>` runs one of the paper's experiments,
//! each a **thin preset over [`ba_exp::RunSpec`]** that names its cells
//! while the [`ba_exp::Experiment`] harness owns the flags (`--json PATH`,
//! `--trials N`, `--trace PATH`), the parallel trial loop, the tables and
//! the JSON; `scenario` runs `scenarios/*.scn` specs lowered onto the
//! same surface ([`ba_exp::scenario::lower`]); `hunt` searches the
//! adversary space; `trace-report` digests a trace.
//!
//! Criterion micro-benchmarks for the hot primitives live in
//! `benches/micro.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ba_net::{FaultPlan, LatencyModel, NetConfig};

/// The net of the benchmark's `stack-jitter-256` workload — 1 % loss and
/// `Uniform{0,900}` latency in a 1000-tick round — for the rows that
/// measure the same path elsewhere (`exp scale-jitter`, the `net`
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
