//! The King–Saia stack's benchmark, as a library: the workloads, the
//! layer probes, the span recorder and the result-file tools. The
//! `benchmark` binary (`src/main.rs`) is the command line over it, and
//! `tests/smoke.rs` drives that binary.
//!
//! `BENCHMARK.json` at the repository root names the command, the
//! workloads and the metrics; `README.md` beside this package explains
//! why each was chosen.

pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workloads;
