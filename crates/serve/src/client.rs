//! The client side of a served session: a *dumb synchronous switch*.
//!
//! The daemon hosts the executor; the client holds no protocol logic at
//! all, and decodes nothing it only has to hand back. Every data frame
//! the server emits ([`Frame::Send`], [`Frame::SendMany`]) is read as
//! raw bytes into one per-session arena, checked and re-tagged in place
//! as the [`Frame::Deliver`] / [`Frame::DeliverMany`] it will return as;
//! on [`Frame::Collect`]`{round}` the switch writes back the arena's
//! frames whose sending round precedes `round` — sending rounds arrive
//! in non-decreasing order, so they are a prefix, in the exact order
//! the server sent them, and leave in one write — then closes the round
//! with [`Frame::RoundDone`]. TCP's ordering plus the engine's lockstep
//! round structure make this equivalent to the in-process synchronous
//! `NetTransport`, which is what pins served outcomes byte-identical to
//! in-process runs per seed.

use crate::frame::{self, DataRef, Frame, FrameError, FrameReader, FrameWriter, OutcomeWire};
use crate::transport::SOCKET_BUF;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Errors from driving one session.
#[derive(Debug)]
pub enum ClientError {
    /// The daemon is at capacity; retry after the suggested backoff.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The daemon reported a session failure.
    Remote(String),
    /// The wire protocol broke down.
    Frame(FrameError),
    /// Connecting failed.
    Io(std::io::Error),
    /// The daemon sent a frame the switch cannot accept here.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms} ms)")
            }
            ClientError::Remote(m) => write!(f, "server error: {m}"),
            ClientError::Frame(e) => write!(f, "wire error: {e}"),
            ClientError::Io(e) => write!(f, "connect error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One completed session, as observed from the client.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The server's reported outcome.
    pub outcome: OutcomeWire,
    /// Bytes the client wrote (Open, Deliver, RoundDone frames).
    pub bytes_out: u64,
    /// Bytes the client read (Send, Collect, Outcome frames).
    pub bytes_in: u64,
    /// Frames the client wrote.
    pub frames_out: u64,
    /// Frames the client read.
    pub frames_in: u64,
    /// Sum of the model-bit annotations on every envelope the server
    /// sent (a fan's `bits` once per recipient) — the client-side view
    /// of the run's total sent bits.
    pub payload_bits: u64,
    /// [`Frame::SendMany`] frames among the frames the client read.
    pub fan_frames: u64,
    /// Payload bytes the server sent, a fan's counted once — with
    /// `fan_frames` and the in-process `NetStats`, everything the exact
    /// byte pin of a fanned session needs (see `docs/serve.md`).
    pub payload_bytes: u64,
    /// Wall-clock session latency, connect to outcome.
    pub wall: Duration,
}

/// Opens one session against `addr`: trial `trial` of `spec_text`
/// (scenario key=value grammar). Blocks until the outcome or a terminal
/// error; [`ClientError::Busy`] is the retryable case.
pub fn run_session(addr: &str, spec_text: &str, trial: u64) -> Result<SessionOutcome, ClientError> {
    let started = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new(BufReader::with_capacity(SOCKET_BUF, stream.try_clone()?));
    // Unbuffered: the switch writes whole rounds.
    let mut writer = FrameWriter::new(stream);
    writer.write_frame(&Frame::Open {
        trial,
        spec: spec_text.to_owned(),
    })?;
    switch(&mut reader, &mut writer, started)
}

/// The switch loop, from just after `Open` to the terminal frame.
pub(crate) fn switch<R: Read, W: Write>(
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
    started: Instant,
) -> Result<SessionOutcome, ClientError> {
    // The switch state: the frames sent but not yet collected, already
    // in the bytes they go back as, in arrival (= send) order.
    let mut arena: Vec<u8> = Vec::new();
    let mut last_round = 0u32;
    let (mut payload_bits, mut fan_frames, mut payload_bytes) = (0u64, 0u64, 0u64);
    loop {
        let start = arena.len();
        reader.read_raw(&mut arena)?;
        let body = &arena[start + 4..];
        if let Some(data) = DataRef::parse(body)? {
            let echo = match data.tag {
                frame::TAG_SEND => frame::TAG_DELIVER,
                frame::TAG_SEND_MANY => frame::TAG_DELIVER_MANY,
                _ => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame from server: {:?}",
                        Frame::decode(body)?
                    )));
                }
            };
            if data.round < last_round {
                return Err(ClientError::Protocol(format!(
                    "a frame sent in round {} follows one sent in round {last_round}",
                    data.round
                )));
            }
            last_round = data.round;
            let count = data.recipients().len() as u64;
            payload_bits = payload_bits.saturating_add(data.bits.saturating_mul(count));
            fan_frames += u64::from(data.tag == frame::TAG_SEND_MANY);
            payload_bytes += data.payload.len() as u64;
            arena[start + 4] = echo;
            continue;
        }
        let control = Frame::decode(body);
        arena.truncate(start);
        match control? {
            Frame::Collect { round } => {
                let (due, frames) = due_prefix(&arena, round);
                writer.write_raw(&arena[..due], frames)?;
                arena.drain(..due);
                writer.write_frame(&Frame::RoundDone { round })?;
                writer.flush()?;
            }
            Frame::Outcome(outcome) => {
                return Ok(SessionOutcome {
                    outcome,
                    bytes_out: writer.bytes,
                    bytes_in: reader.bytes,
                    frames_out: writer.frames,
                    frames_in: reader.frames,
                    payload_bits,
                    fan_frames,
                    payload_bytes,
                    wall: started.elapsed(),
                });
            }
            Frame::Busy { retry_after_ms } => {
                return Err(ClientError::Busy { retry_after_ms });
            }
            Frame::Error { message } => return Err(ClientError::Remote(message)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected frame from server: {other:?}"
                )));
            }
        }
    }
}

/// Length in bytes, and in frames, of the prefix of `arena` whose frames
/// were sent before `round`. The arena holds whole checked data frames,
/// `[len: u32][tag][round: u32]…` each, in non-decreasing round order.
fn due_prefix(arena: &[u8], round: u32) -> (usize, u64) {
    let word = |at: usize| u32::from_le_bytes(arena[at..at + 4].try_into().expect("4 bytes"));
    let (mut end, mut frames) = (0, 0);
    while end < arena.len() && word(end + 5) < round {
        end += 4 + word(end) as usize;
        frames += 1;
    }
    (end, frames)
}

/// [`run_session`] with retry-on-[`Busy`](ClientError::Busy): sleeps the
/// server-suggested backoff between attempts, up to `max_retries`
/// retries.
pub fn run_session_retrying(
    addr: &str,
    spec_text: &str,
    trial: u64,
    max_retries: u32,
) -> Result<SessionOutcome, ClientError> {
    let mut attempt = 0;
    loop {
        match run_session(addr, spec_text, trial) {
            Err(ClientError::Busy { retry_after_ms }) if attempt < max_retries => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
            }
            other => return other,
        }
    }
}

/// Asks the daemon at `addr` to drain and exit.
pub fn shutdown(addr: &str) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = FrameWriter::new(&stream);
    writer.write_frame(&Frame::Shutdown)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What the switch does with the stream `input`: the bytes it wrote
    /// before the stream ended cleanly, or why it gave up.
    fn switched(input: &[u8]) -> Result<Vec<u8>, ClientError> {
        let mut out = Vec::new();
        let mut reader = FrameReader::new(input);
        let mut writer = FrameWriter::new(&mut out);
        match switch(&mut reader, &mut writer, Instant::now()) {
            // A clean close is the switch having taken everything.
            Err(ClientError::Frame(FrameError::Closed)) => Ok(out),
            Err(e) => Err(e),
            Ok(done) => panic!("no outcome frame was sent: {done:?}"),
        }
    }

    /// [`switched`] on `wire` followed by a `Collect` of everything.
    fn echoed(wire: &[u8]) -> Result<Vec<u8>, ClientError> {
        let mut input = wire.to_vec();
        Frame::Collect { round: u32::MAX }.encode_into(&mut input);
        switched(&input)
    }

    fn round_done() -> Vec<u8> {
        Frame::RoundDone { round: u32::MAX }.to_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The raw echo and `Frame::decode` accept and reject the same
        /// bytes: over data frames with bytes flipped anywhere — length
        /// prefix, tag, count, recipients — the switch echoes exactly
        /// the frames the decoder reads as `Send` / `SendMany` (as the
        /// `Deliver` / `DeliverMany` of the same fields) and fails with
        /// the decoder's own error on the ones it rejects.
        #[test]
        fn switch_and_decoder_agree_on_mutated_frames(
            fan in any::<bool>(),
            to in proptest::collection::vec(any::<u32>(), 0..12),
            payload in proptest::collection::vec(any::<u8>(), 0..12),
            flips in proptest::collection::vec((0usize..96, any::<u8>()), 0..4),
        ) {
            let (round, from, bits) = (7, 3, 16);
            let mut wire = if fan {
                Frame::SendMany { round, from, bits, to, payload }
            } else {
                Frame::Send { round, from, to: to.len() as u32, bits, payload }
            }
            .to_bytes();
            for (at, with) in flips {
                let at = at % wire.len();
                wire[at] ^= with;
            }
            // One frame, possibly torn: a length prefix flipped shorter
            // must not leave a tail to be read as a second frame.
            let len = u32::from_le_bytes(wire[..4].try_into().expect("4 bytes")) as usize;
            wire.truncate(len.saturating_add(4));
            let decoded = FrameReader::new(wire.as_slice()).read_frame();
            let echoed = echoed(&wire);
            match decoded {
                Ok(Frame::Send { round, from, to, bits, payload }) => {
                    let mut want = Frame::Deliver { round, from, to, bits, payload }.to_bytes();
                    want.extend(round_done());
                    prop_assert_eq!(echoed.expect("a valid single is echoed"), want);
                }
                Ok(Frame::SendMany { round, from, bits, to, payload }) => {
                    let mut want = Frame::DeliverMany { round, from, bits, to, payload }.to_bytes();
                    want.extend(round_done());
                    prop_assert_eq!(echoed.expect("a valid fan is echoed"), want);
                }
                // A flipped tag can spell a control frame: an empty round
                // is answered, anything else ends the session or is one
                // no server sends; either way nothing is echoed.
                Ok(Frame::Collect { round }) => {
                    let mut want = Frame::RoundDone { round }.to_bytes();
                    want.extend(round_done());
                    prop_assert_eq!(echoed.expect("a collect is answered"), want);
                }
                Ok(other) => prop_assert!(
                    matches!(
                        echoed,
                        Err(ClientError::Protocol(_) | ClientError::Busy { .. } | ClientError::Remote(_))
                    ),
                    "{other:?} passed the switch"
                ),
                // (A torn frame would swallow the `Collect` behind it:
                // the rejections are compared on the frame alone.)
                Err(e) => match switched(&wire) {
                    Err(ClientError::Frame(got)) => prop_assert_eq!(got.to_string(), e.to_string()),
                    other => prop_assert!(false, "decoder said {e}, switch said {other:?}"),
                },
            }
        }
    }

    /// Frames leave in arrival order, singles and fans interleaved, and
    /// only those sent before the collecting round.
    #[test]
    fn collect_returns_the_due_prefix_in_arrival_order() {
        let single = |round, to| Frame::Send {
            round,
            from: 1,
            to,
            bits: 8,
            payload: vec![to as u8],
        };
        let fan = |round| Frame::SendMany {
            round,
            from: 2,
            bits: 8,
            to: vec![4, 5],
            payload: vec![9],
        };
        let mut wire = Vec::new();
        for f in [single(0, 1), fan(0), single(0, 2), single(1, 3)] {
            f.encode_into(&mut wire);
        }
        Frame::Collect { round: 1 }.encode_into(&mut wire);
        let mut want = Vec::new();
        for f in [
            Frame::Deliver {
                round: 0,
                from: 1,
                to: 1,
                bits: 8,
                payload: vec![1],
            },
            Frame::DeliverMany {
                round: 0,
                from: 2,
                bits: 8,
                to: vec![4, 5],
                payload: vec![9],
            },
            Frame::Deliver {
                round: 0,
                from: 1,
                to: 2,
                bits: 8,
                payload: vec![2],
            },
            Frame::RoundDone { round: 1 },
            // The closing collect-everything of `echoed`.
            Frame::Deliver {
                round: 1,
                from: 1,
                to: 3,
                bits: 8,
                payload: vec![3],
            },
        ] {
            f.encode_into(&mut want);
        }
        want.extend(round_done());
        assert_eq!(echoed(&wire).expect("valid stream"), want);

        // Sending rounds may not go backwards: the due frames would no
        // longer be a prefix.
        let mut wire = Vec::new();
        single(2, 1).encode_into(&mut wire);
        single(1, 1).encode_into(&mut wire);
        assert!(matches!(echoed(&wire), Err(ClientError::Protocol(_))));
    }
}
