//! One served session: parse the spec, run the trial over a
//! [`SocketFactory`](crate::transport::SocketFactory), report the
//! outcome.

use crate::frame::{Frame, FrameWriter, OutcomeWire};
use crate::transport::SocketFactory;
use ba_exp::{run_trial_with_factory, scenario, TrialOutcome};
use ba_obs::Trace;
use std::net::TcpStream;
use std::sync::atomic::Ordering;

/// Runs one session on the worker thread: `spec_text` is the scenario
/// (key=value grammar), `trial` the trial index whose seed the harness
/// derives exactly as it would in-process. Returns the wire-ready
/// outcome; the caller writes the terminal frame.
pub(crate) fn run(
    stream: &TcpStream,
    conn: u64,
    trial: u64,
    spec_text: &str,
    trace: &Trace,
) -> Result<OutcomeWire, String> {
    let _t = trace.timer("serve:session");
    let scn = scenario::parse_one(spec_text).map_err(|e| format!("bad scenario spec: {e}"))?;
    let mut factory = SocketFactory::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning session stream: {e}"))?,
    );
    let counters = factory.counters();
    let outcome = run_trial_with_factory(&scn.spec, trial, trace, &mut factory)?;
    let wire = to_wire(&outcome, counters.frames(), counters.bytes());
    if trace.is_on() {
        trace.event(
            "serve:session",
            trial,
            &scn.name,
            &[
                ("conn", conn.into()),
                ("seed", wire.seed.into()),
                ("agreement", wire.agreement.into()),
                ("rounds", wire.rounds.into()),
                ("total_bits", wire.total_bits.into()),
                ("wire_frames", wire.wire_frames.into()),
                ("wire_bytes", wire.wire_bytes.into()),
            ],
        );
        trace.event(
            "serve:frame",
            trial,
            &scn.name,
            &[
                ("conn", conn.into()),
                (
                    "frames_in",
                    counters.frames_in.load(Ordering::Relaxed).into(),
                ),
                (
                    "frames_out",
                    counters.frames_out.load(Ordering::Relaxed).into(),
                ),
                ("bytes_in", counters.bytes_in.load(Ordering::Relaxed).into()),
                (
                    "bytes_out",
                    counters.bytes_out.load(Ordering::Relaxed).into(),
                ),
            ],
        );
    }
    Ok(wire)
}

/// Projects the harness outcome onto the wire struct.
pub(crate) fn to_wire(outcome: &TrialOutcome, wire_frames: u64, wire_bytes: u64) -> OutcomeWire {
    OutcomeWire {
        seed: outcome.seed,
        agreement: outcome.agreement,
        decided: outcome.decided,
        rounds: outcome.rounds as u64,
        total_bits: outcome.total_bits,
        decided_bit: outcome.decided_bit,
        valid: outcome.valid,
        corrupt: outcome.corrupt.iter().filter(|&&c| c).count() as u64,
        wire_frames,
        wire_bytes,
    }
}

/// Best-effort terminal frame on the session stream (used for both the
/// success and error paths; failures to report are swallowed — the
/// client sees the close).
pub(crate) fn send_terminal(stream: &TcpStream, frame: &Frame) {
    let mut w = FrameWriter::new(stream);
    let _ = w.write_frame(frame);
}
