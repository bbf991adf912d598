//! # ba-serve — Byzantine agreement as a long-lived TCP service
//!
//! Every prior entry point in this workspace runs a trial and exits.
//! This crate turns the harness into a **daemon**: a TCP server hosting
//! many concurrent agreement sessions, each an unmodified harness trial
//! whose transport is a real socket instead of the simulated `ba-net`
//! carrier.
//!
//! The moving parts:
//!
//! * [`frame`] — the length-prefixed wire codec. Protocol messages
//!   travel as their [`WireMsg`](ba_sim::WireMsg) bytes inside framed
//!   envelopes — one frame per envelope, or one per committee multicast
//!   with its recipient list; the codec errors (never panics) on torn,
//!   oversized, or malformed input.
//! * [`SocketTransport`] / [`SocketFactory`] — the harness
//!   [`TransportFactory`](ba_exp::TransportFactory) seam over TCP, paid
//!   per transport call as the in-process transports are. The client is
//!   a dumb synchronous switch that echoes the bytes it was sent, so for
//!   synchronous configs a served trial's outcome is **identical per
//!   seed** to the in-process run (pinned by the loopback and
//!   equivalence tests).
//! * [`Server`] — the accept loop: sessions multiplex onto a bounded
//!   [`ba_par::Pool`]; a full pool answers [`Frame::Busy`] (explicit
//!   backpressure), a crashed session answers [`Frame::Error`] without
//!   taking the daemon down, and [`Frame::Shutdown`] drains gracefully.
//! * [`client`] — the switch loop plus a load-generator-facing API
//!   ([`client::run_session_retrying`], [`client::shutdown`]).
//!
//! Binaries: `serve` (the daemon) and `load` (N concurrent sessions,
//! latency percentiles, throughput, bytes on the wire). See
//! `docs/serve.md` for the wire format and operational contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
mod server;
mod session;
mod transport;

pub use client::{ClientError, SessionOutcome};
pub use frame::{
    Frame, FrameError, FrameReader, FrameWriter, OutcomeWire, DATA_FRAME_OVERHEAD,
    FAN_FRAME_OVERHEAD, MAX_FRAME,
};
pub use server::{ServeSummary, Server, ServerOpts};
pub use transport::{SocketFactory, SocketTransport, WireCounters};
