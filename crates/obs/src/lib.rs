//! `ba-obs` — deterministic observability for the King–Saia stack.
//!
//! One handle, [`Trace`], threaded through the engine, the transports
//! and the harness:
//!
//! - [`Trace::event`] renders one JSONL line keyed by sim-time round and
//!   phase label **at record time**, from deterministic quantities only
//!   (rounds, counts, bits, seeds), so a trace is byte-identical per
//!   seed at any `BA_PAR_THREADS`. [`Trace::off`] is a `None`: protocol
//!   code pays one branch and no allocation when tracing is off, and
//!   consumes **no randomness** either way.
//! - [`Trace::timer`] returns a scoped [`ProfileTimer`] that charges
//!   wall-clock time to a [`ProfileAcc`]. Wall times are *quarantined*:
//!   they never enter event payloads, only the separate `"profile"`
//!   section emitted by [`Trace::finish`], which pinning tests strip
//!   before comparing.
//!
//! [`json_escape`] is the one JSON string escaper of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profile;
mod tracer;

pub use profile::{ProfileAcc, ProfileEntry, ProfileTimer};
pub use tracer::{json_escape, Field, Trace};
