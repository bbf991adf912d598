//! Length-prefixed framing for the ba-serve session protocol.
//!
//! Every frame on the wire is `[len: u32 LE][tag: u8][body]` where `len`
//! counts the tag byte plus the body. Bodies reuse the `ba-sim` wire
//! codec primitives (little-endian scalars, explicit enum tags), so a
//! protocol message travels as the exact bytes its
//! [`WireMsg`](ba_sim::WireMsg) impl produces, carried opaquely inside a
//! data frame: [`Frame::Send`] / [`Frame::Deliver`] for one recipient,
//! [`Frame::SendMany`] / [`Frame::DeliverMany`] for one payload fanned
//! to a list.
//!
//! There is one encoder and one decoder. Every frame is laid out by
//! `encode_into` — [`Frame::to_bytes`], [`FrameWriter`] and the
//! transport's allocation-free data path all go through it — and every
//! data frame is read through `DataRef`, a borrowed view that
//! [`Frame::decode`] copies out of and that the transport and the
//! client's switch read in place.
//!
//! The codec is defensive in both directions: a frame longer than
//! [`MAX_FRAME`] is rejected before any allocation, truncated input
//! errors (never panics), and a clean EOF *between* frames is
//! distinguished from one *inside* a frame ([`FrameError::Closed`] vs
//! [`FrameError::Truncated`]).

use ba_sim::wire::{put_u32, put_u64, put_u8, take_u32, take_u64, take_u8};
use ba_sim::WireError;
use std::io::{Read, Write};

/// Hard cap on one frame's `tag + body` length. Generous for every
/// message the workspace protocols send (tens of bytes), tight enough
/// that a corrupt or hostile length prefix cannot trigger a huge
/// allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Fixed wire cost of one [`Frame::Send`] / [`Frame::Deliver`] beyond its
/// payload bytes: 4 (length prefix) + 1 (tag) + 4 (round) + 4 (from) +
/// 4 (to) + 8 (bits) = 25 bytes. The loopback tests use this to bound
/// observed socket bytes against the model's [`Payload::bit_len`]
/// accounting.
///
/// [`Payload::bit_len`]: ba_sim::Payload::bit_len
pub const DATA_FRAME_OVERHEAD: u64 = 25;

/// Fixed wire cost of one [`Frame::SendMany`] / [`Frame::DeliverMany`]
/// beyond its payload bytes **and 4 bytes a recipient**: 4 (length
/// prefix) + 1 (tag) + 4 (round) + 4 (from) + 8 (bits) + 4 (count) = 25
/// bytes. A fan to `k` recipients costs `FAN_FRAME_OVERHEAD + 4·k +
/// payload` once, where `k` single frames cost
/// `k·(DATA_FRAME_OVERHEAD + payload)`.
pub const FAN_FRAME_OVERHEAD: u64 = 25;

/// Most recipients one fan frame names; a longer fan leaves as
/// consecutive frames of this many. Half a [`MAX_FRAME`] of recipient
/// ids leaves the other half to the payload, and being a constant keeps
/// frame boundaries a function of the executor's calls alone.
pub(crate) const FAN_CAP: usize = MAX_FRAME as usize / 8;

const TAG_OPEN: u8 = 0;
pub(crate) const TAG_SEND: u8 = 1;
const TAG_COLLECT: u8 = 2;
pub(crate) const TAG_DELIVER: u8 = 3;
const TAG_ROUND_DONE: u8 = 4;
const TAG_OUTCOME: u8 = 5;
const TAG_BUSY: u8 = 6;
const TAG_ERROR: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
pub(crate) const TAG_SEND_MANY: u8 = 9;
pub(crate) const TAG_DELIVER_MANY: u8 = 10;

/// Errors from reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The connection ended in the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The advertised `tag + body` length.
        len: u32,
    },
    /// The frame body failed to decode.
    Malformed(WireError),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection ended mid-frame"),
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Malformed(e) => write!(f, "malformed frame body: {e}"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Malformed(e)
    }
}

/// The serialized outcome of one served session: the fields of the
/// harness `TrialOutcome` that cross the wire (floats travel as IEEE
/// bit patterns, so the round trip is exact).
#[derive(Clone, Debug, PartialEq)]
pub struct OutcomeWire {
    /// The trial's seed.
    pub seed: u64,
    /// Plurality-agreement fraction among live good processors.
    pub agreement: f64,
    /// Fraction of live good processors that decided at all.
    pub decided: f64,
    /// Synchronous rounds executed.
    pub rounds: u64,
    /// Bits sent by everyone (the model's accounting, not socket bytes).
    pub total_bits: u64,
    /// The decided bit, where the protocol defines one.
    pub decided_bit: Option<bool>,
    /// Whether the decision was valid, where the protocol defines it.
    pub valid: Option<bool>,
    /// Number of processors corrupted by the end of the run.
    pub corrupt: u64,
    /// Data frames the server put on / took off the wire for this
    /// session (Send/Collect/Deliver/RoundDone; excludes Open/Outcome).
    pub wire_frames: u64,
    /// Socket bytes for those data frames, as counted by the server.
    pub wire_bytes: u64,
}

impl OutcomeWire {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.seed);
        put_u64(out, self.agreement.to_bits());
        put_u64(out, self.decided.to_bits());
        put_u64(out, self.rounds);
        put_u64(out, self.total_bits);
        put_opt_bool(out, self.decided_bit);
        put_opt_bool(out, self.valid);
        put_u64(out, self.corrupt);
        put_u64(out, self.wire_frames);
        put_u64(out, self.wire_bytes);
    }

    fn decode(buf: &mut &[u8]) -> Result<OutcomeWire, FrameError> {
        Ok(OutcomeWire {
            seed: take_u64(buf)?,
            agreement: f64::from_bits(take_u64(buf)?),
            decided: f64::from_bits(take_u64(buf)?),
            rounds: take_u64(buf)?,
            total_bits: take_u64(buf)?,
            decided_bit: take_opt_bool(buf)?,
            valid: take_opt_bool(buf)?,
            corrupt: take_u64(buf)?,
            wire_frames: take_u64(buf)?,
            wire_bytes: take_u64(buf)?,
        })
    }
}

fn put_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    match v {
        Some(false) => put_u8(out, 0),
        Some(true) => put_u8(out, 1),
        None => put_u8(out, 2),
    }
}

fn take_opt_bool(buf: &mut &[u8]) -> Result<Option<bool>, WireError> {
    match take_u8(buf)? {
        0 => Ok(Some(false)),
        1 => Ok(Some(true)),
        2 => Ok(None),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take_string(buf: &mut &[u8]) -> Result<String, FrameError> {
    let len = take_u32(buf)? as usize;
    let head = take_bytes(buf, Some(len))?;
    let s = std::str::from_utf8(head).map_err(|_| FrameError::BadUtf8)?;
    Ok(s.to_owned())
}

/// Takes `len` bytes off the front of `buf` without copying them. A
/// `len` beyond what is left (or `None`: one that overflowed on the way
/// here) is [`WireError::Truncated`] — a length field is checked against
/// the bytes that are there before anything is sized by it.
fn take_bytes<'a>(buf: &mut &'a [u8], len: Option<usize>) -> Result<&'a [u8], WireError> {
    let (head, rest) = len
        .and_then(|len| buf.split_at_checked(len))
        .ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(head)
}

/// One frame of the session protocol.
///
/// The lifecycle: the client sends [`Frame::Open`]; the server either
/// admits the session or answers [`Frame::Busy`] / [`Frame::Error`].
/// While the session runs, the *server* drives: each [`Frame::Send`] is
/// an envelope the executor handed its transport and each
/// [`Frame::SendMany`] a whole multicast, each [`Frame::Collect`] asks
/// the client to return every buffered frame sent before the named
/// round, in arrival order ([`Frame::Deliver`] / [`Frame::DeliverMany`]*,
/// then [`Frame::RoundDone`]). The session ends with [`Frame::Outcome`]
/// (or [`Frame::Error`]).
/// [`Frame::Shutdown`] on a fresh connection drains the whole daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: open a session running `spec` at trial index
    /// `trial` (the per-trial seed derives as the spec's base seed plus
    /// `trial`, exactly as the in-process harness derives it).
    Open {
        /// Trial index within the spec.
        trial: u64,
        /// The scenario spec, in the `scenarios/*.scn` key=value grammar.
        spec: String,
    },
    /// Server → client: an envelope sent during `round`, to be buffered
    /// and returned at the first `Collect` of a later round.
    Send {
        /// The sending round.
        round: u32,
        /// Sender processor id.
        from: u32,
        /// Recipient processor id.
        to: u32,
        /// The payload's model cost in bits ([`Payload::bit_len`]).
        ///
        /// [`Payload::bit_len`]: ba_sim::Payload::bit_len
        bits: u64,
        /// The payload's [`WireMsg`](ba_sim::WireMsg) encoding.
        payload: Vec<u8>,
    },
    /// Server → client: deliver everything sent before `round`.
    Collect {
        /// The collecting round.
        round: u32,
    },
    /// Client → server: one buffered envelope, echoed back verbatim
    /// (same shape as [`Frame::Send`]; `round` is the *sending* round).
    Deliver {
        /// The round the envelope was originally sent in.
        round: u32,
        /// Sender processor id.
        from: u32,
        /// Recipient processor id.
        to: u32,
        /// The payload's model cost in bits.
        bits: u64,
        /// The payload's [`WireMsg`](ba_sim::WireMsg) encoding.
        payload: Vec<u8>,
    },
    /// Client → server: no more deliveries for this `Collect`.
    RoundDone {
        /// The collecting round being answered.
        round: u32,
    },
    /// Server → client: the session finished; terminal.
    Outcome(OutcomeWire),
    /// Server → client: the session pool is at capacity; terminal.
    Busy {
        /// Suggested client backoff before retrying.
        retry_after_ms: u32,
    },
    /// Either direction: the session failed; terminal.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Client → server: stop accepting sessions, drain, and exit.
    Shutdown,
    /// Server → client: one payload sent during `round` to every
    /// processor in `to` — a committee multicast as one frame, buffered
    /// and returned whole like a [`Frame::Send`].
    SendMany {
        /// The sending round.
        round: u32,
        /// Sender processor id.
        from: u32,
        /// The payload's model cost in bits, **per recipient** (as on
        /// [`Frame::Send`]).
        bits: u64,
        /// Recipient processor ids, in delivery order.
        to: Vec<u32>,
        /// The payload's [`WireMsg`](ba_sim::WireMsg) encoding, once.
        payload: Vec<u8>,
    },
    /// Client → server: one buffered multicast, echoed back verbatim
    /// (same shape as [`Frame::SendMany`]).
    DeliverMany {
        /// The round the multicast was originally sent in.
        round: u32,
        /// Sender processor id.
        from: u32,
        /// The payload's model cost in bits, per recipient.
        bits: u64,
        /// Recipient processor ids, in delivery order.
        to: Vec<u32>,
        /// The payload's [`WireMsg`](ba_sim::WireMsg) encoding, once.
        payload: Vec<u8>,
    },
}

impl Frame {
    /// Serializes the frame as `[len][tag][body]`, ready to write.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Room for any control frame and the usual data frame at once.
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame's `[len][tag][body]` to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        fn bytes(payload: &[u8]) -> impl FnOnce(&mut Vec<u8>) + '_ {
            move |out| out.extend_from_slice(payload)
        }
        match self {
            Frame::Open { trial, spec } => encode_into(out, TAG_OPEN, |out| {
                put_u64(out, *trial);
                put_string(out, spec);
            }),
            Frame::Send {
                round,
                from,
                to,
                bits,
                payload,
            } => encode_single(out, TAG_SEND, *round, *from, *to, *bits, bytes(payload)),
            Frame::Collect { round } => encode_into(out, TAG_COLLECT, |out| put_u32(out, *round)),
            Frame::Deliver {
                round,
                from,
                to,
                bits,
                payload,
            } => encode_single(out, TAG_DELIVER, *round, *from, *to, *bits, bytes(payload)),
            Frame::RoundDone { round } => {
                encode_into(out, TAG_ROUND_DONE, |out| put_u32(out, *round))
            }
            Frame::Outcome(ow) => encode_into(out, TAG_OUTCOME, |out| ow.encode(out)),
            Frame::Busy { retry_after_ms } => {
                encode_into(out, TAG_BUSY, |out| put_u32(out, *retry_after_ms))
            }
            Frame::Error { message } => encode_into(out, TAG_ERROR, |out| put_string(out, message)),
            Frame::Shutdown => encode_into(out, TAG_SHUTDOWN, |_| {}),
            Frame::SendMany {
                round,
                from,
                bits,
                to,
                payload,
            } => {
                let to = to.iter().copied();
                encode_fan(out, TAG_SEND_MANY, *round, *from, *bits, to, bytes(payload))
            }
            Frame::DeliverMany {
                round,
                from,
                bits,
                to,
                payload,
            } => {
                let to = to.iter().copied();
                encode_fan(
                    out,
                    TAG_DELIVER_MANY,
                    *round,
                    *from,
                    *bits,
                    to,
                    bytes(payload),
                )
            }
        }
    }

    /// Decodes a frame from its `tag + body` bytes (the length prefix
    /// already stripped). Fixed-width frames must consume the body
    /// exactly; data frames treat the remainder as the payload.
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        if let Some(data) = DataRef::parse(body)? {
            return Ok(data.to_frame());
        }
        let mut buf = body;
        let frame = match take_u8(&mut buf)? {
            TAG_OPEN => {
                let trial = take_u64(&mut buf)?;
                let spec = take_string(&mut buf)?;
                Frame::Open { trial, spec }
            }
            TAG_COLLECT => Frame::Collect {
                round: take_u32(&mut buf)?,
            },
            TAG_ROUND_DONE => Frame::RoundDone {
                round: take_u32(&mut buf)?,
            },
            TAG_OUTCOME => Frame::Outcome(OutcomeWire::decode(&mut buf)?),
            TAG_BUSY => Frame::Busy {
                retry_after_ms: take_u32(&mut buf)?,
            },
            TAG_ERROR => Frame::Error {
                message: take_string(&mut buf)?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            t => return Err(FrameError::Malformed(WireError::BadTag(t))),
        };
        if !buf.is_empty() {
            return Err(FrameError::Malformed(WireError::TrailingBytes(buf.len())));
        }
        Ok(frame)
    }
}

/// The one frame encoder: appends `[len][tag]` and whatever `body`
/// appends to `out`, patching the length prefix once the body is there
/// — so a frame is laid out in place, in a buffer the caller reuses.
pub(crate) fn encode_into(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    put_u8(out, tag);
    body(out);
    let len = out.len() - at - 4;
    debug_assert!(len <= MAX_FRAME as usize);
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends a `Send` / `Deliver` frame; `payload` appends the payload's
/// bytes.
pub(crate) fn encode_single(
    out: &mut Vec<u8>,
    tag: u8,
    round: u32,
    from: u32,
    to: u32,
    bits: u64,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    encode_into(out, tag, |out| {
        put_u32(out, round);
        put_u32(out, from);
        put_u32(out, to);
        put_u64(out, bits);
        payload(out);
    });
}

/// Appends a `SendMany` / `DeliverMany` frame naming the recipients
/// `to`; `payload` appends the payload's bytes, once.
pub(crate) fn encode_fan(
    out: &mut Vec<u8>,
    tag: u8,
    round: u32,
    from: u32,
    bits: u64,
    to: impl ExactSizeIterator<Item = u32>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    encode_into(out, tag, |out| {
        put_u32(out, round);
        put_u32(out, from);
        put_u64(out, bits);
        put_u32(out, to.len() as u32);
        for id in to {
            put_u32(out, id);
        }
        payload(out);
    });
}

/// A data frame read in place: the fields of a `Send` / `Deliver` (one
/// recipient) or a `SendMany` / `DeliverMany` (a list), borrowed from
/// the frame's `tag + body` bytes. The one decoder of data frames —
/// [`Frame::decode`] copies out of it, the transport and the client's
/// switch read through it — so all three accept and reject the same
/// bytes.
pub(crate) struct DataRef<'a> {
    /// The frame's tag: one of the four data tags.
    pub tag: u8,
    /// The sending round.
    pub round: u32,
    /// Sender processor id.
    pub from: u32,
    /// Model cost in bits, per recipient.
    pub bits: u64,
    /// Recipient ids, 4 little-endian bytes each.
    pub to: &'a [u8],
    /// The payload's bytes.
    pub payload: &'a [u8],
}

impl<'a> DataRef<'a> {
    /// Reads `body` (`tag + body`, no length prefix) as a data frame;
    /// `Ok(None)` when its tag is not a data frame's.
    pub(crate) fn parse(body: &'a [u8]) -> Result<Option<DataRef<'a>>, FrameError> {
        let mut buf = body;
        let tag = take_u8(&mut buf)?;
        let fan = match tag {
            TAG_SEND | TAG_DELIVER => false,
            TAG_SEND_MANY | TAG_DELIVER_MANY => true,
            _ => return Ok(None),
        };
        let round = take_u32(&mut buf)?;
        let from = take_u32(&mut buf)?;
        let (bits, to) = if fan {
            let bits = take_u64(&mut buf)?;
            let count = take_u32(&mut buf)? as usize;
            (bits, take_bytes(&mut buf, count.checked_mul(4))?)
        } else {
            let to = take_bytes(&mut buf, Some(4))?;
            (take_u64(&mut buf)?, to)
        };
        Ok(Some(DataRef {
            tag,
            round,
            from,
            bits,
            to,
            payload: buf,
        }))
    }

    /// The recipient ids, in frame order.
    pub(crate) fn recipients(&self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        self.to
            .chunks_exact(4)
            .map(|id| u32::from_le_bytes(id.try_into().expect("chunks of 4")))
    }

    fn to_frame(&self) -> Frame {
        let (round, from, bits) = (self.round, self.from, self.bits);
        let payload = self.payload.to_vec();
        let mut ids = self.recipients();
        let mut one = || ids.next().expect("a single names one recipient");
        match self.tag {
            TAG_SEND => Frame::Send {
                round,
                from,
                to: one(),
                bits,
                payload,
            },
            TAG_DELIVER => Frame::Deliver {
                round,
                from,
                to: one(),
                bits,
                payload,
            },
            TAG_SEND_MANY => Frame::SendMany {
                round,
                from,
                bits,
                to: ids.collect(),
                payload,
            },
            _ => Frame::DeliverMany {
                round,
                from,
                bits,
                to: ids.collect(),
                payload,
            },
        }
    }
}

/// Reads `buf.len()` bytes exactly. `Ok(false)` means the stream ended
/// cleanly *before the first byte* (only meaningful at a frame
/// boundary); EOF after at least one byte is [`FrameError::Truncated`].
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// A counting frame reader over any [`Read`].
pub struct FrameReader<R> {
    inner: R,
    /// Frames successfully read.
    pub frames: u64,
    /// Bytes consumed, length prefixes included.
    pub bytes: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            frames: 0,
            bytes: 0,
        }
    }

    /// Reads one frame. [`FrameError::Closed`] signals a clean EOF at a
    /// frame boundary; every other error is a protocol or I/O failure.
    pub fn read_frame(&mut self) -> Result<Frame, FrameError> {
        let mut raw = Vec::new();
        self.read_raw(&mut raw)?;
        Frame::decode(&raw[4..])
    }

    /// Appends one frame's `[len][tag][body]` to `into` undecoded (a
    /// buffer the caller reuses, or an arena of frames to echo); the
    /// frame's `tag + body` is `into[start + 4..]`, `start` being
    /// `into.len()` before the call. Errors as [`Self::read_frame`]
    /// does, short of decoding the body.
    pub(crate) fn read_raw(&mut self, into: &mut Vec<u8>) -> Result<(), FrameError> {
        let mut len_buf = [0u8; 4];
        if !fill(&mut self.inner, &mut len_buf)? {
            return Err(FrameError::Closed);
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 {
            return Err(FrameError::Malformed(WireError::Truncated));
        }
        if len > MAX_FRAME {
            return Err(FrameError::Oversized { len });
        }
        into.extend_from_slice(&len_buf);
        let body = into.len();
        into.resize(body + len as usize, 0);
        if !fill(&mut self.inner, &mut into[body..])? {
            return Err(FrameError::Truncated);
        }
        self.frames += 1;
        self.bytes += 4 + u64::from(len);
        Ok(())
    }
}

/// A counting frame writer over any [`Write`].
pub struct FrameWriter<W> {
    inner: W,
    /// The frame being encoded; reused, so writing allocates nothing.
    scratch: Vec<u8>,
    /// Frames written.
    pub frames: u64,
    /// Bytes written, length prefixes included.
    pub bytes: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            scratch: Vec::new(),
            frames: 0,
            bytes: 0,
        }
    }

    /// Serializes and writes one frame (buffered; call [`flush`] before
    /// expecting the peer to react).
    ///
    /// [`flush`]: FrameWriter::flush
    pub fn write_frame(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.write_with(|out| frame.encode_into(out))
    }

    /// Writes the one frame `encode` appends to the buffer it is handed
    /// (through `encode_into` and its helpers: a data frame goes from
    /// the executor's values to the wire without an owned [`Frame`]).
    pub(crate) fn write_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        self.scratch.clear();
        encode(&mut self.scratch);
        self.inner.write_all(&self.scratch)?;
        self.frames += 1;
        self.bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Writes `raw`, the concatenated bytes of `frames` encoded frames,
    /// in one `write_all`.
    pub(crate) fn write_raw(&mut self, raw: &[u8], frames: u64) -> std::io::Result<()> {
        self.inner.write_all(raw)?;
        self.frames += frames;
        self.bytes += raw.len() as u64;
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &Frame) {
        let bytes = f.to_bytes();
        let mut reader = FrameReader::new(bytes.as_slice());
        let back = reader.read_frame().expect("decode");
        assert_eq!(&back, f);
        assert_eq!(reader.bytes, bytes.len() as u64);
        assert!(matches!(reader.read_frame(), Err(FrameError::Closed)));
    }

    #[test]
    fn frames_round_trip() {
        round_trip(&Frame::Open {
            trial: 7,
            spec: "name = x\nprotocol = flood\nn = 8".to_owned(),
        });
        round_trip(&Frame::Send {
            round: 3,
            from: 1,
            to: 2,
            bits: 40,
            payload: vec![1, 2, 3, 4, 5],
        });
        round_trip(&Frame::Collect { round: 9 });
        round_trip(&Frame::Deliver {
            round: 3,
            from: 2,
            to: 1,
            bits: 1,
            payload: vec![0],
        });
        round_trip(&Frame::RoundDone { round: 9 });
        round_trip(&Frame::Outcome(OutcomeWire {
            seed: 42,
            agreement: 1.0,
            decided: 0.5,
            rounds: 12,
            total_bits: 99_000,
            decided_bit: Some(true),
            valid: None,
            corrupt: 3,
            wire_frames: 1000,
            wire_bytes: 31_415,
        }));
        round_trip(&Frame::Busy { retry_after_ms: 50 });
        round_trip(&Frame::Error {
            message: "bad spec".to_owned(),
        });
        round_trip(&Frame::Shutdown);
        round_trip(&Frame::SendMany {
            round: 3,
            from: 1,
            bits: 40,
            to: vec![2, 5, 8],
            payload: vec![1, 2, 3, 4, 5],
        });
        round_trip(&Frame::DeliverMany {
            round: 3,
            from: 1,
            bits: 40,
            to: Vec::new(),
            payload: Vec::new(),
        });
    }

    #[test]
    fn send_data_frame_overhead_matches_constant() {
        let payload = vec![9u8; 17];
        let f = Frame::Send {
            round: 1,
            from: 0,
            to: 1,
            bits: 8,
            payload: payload.clone(),
        };
        assert_eq!(
            f.to_bytes().len() as u64,
            DATA_FRAME_OVERHEAD + payload.len() as u64
        );
    }

    #[test]
    fn fan_frame_overhead_matches_constant() {
        let payload = vec![9u8; 17];
        for recipients in [0u64, 1, 64] {
            let f = Frame::SendMany {
                round: 1,
                from: 0,
                bits: 8,
                to: (0..recipients as u32).collect(),
                payload: payload.clone(),
            };
            assert_eq!(
                f.to_bytes().len() as u64,
                FAN_FRAME_OVERHEAD + 4 * recipients + payload.len() as u64
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME + 1);
        let mut reader = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            reader.read_frame(),
            Err(FrameError::Oversized { len }) if len == MAX_FRAME + 1
        ));
    }

    #[test]
    fn zero_length_frame_is_malformed() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0);
        let mut reader = FrameReader::new(bytes.as_slice());
        assert!(matches!(reader.read_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn torn_frame_is_truncated_not_closed() {
        let full = Frame::Collect { round: 4 }.to_bytes();
        for cut in 1..full.len() {
            let mut reader = FrameReader::new(&full[..cut]);
            assert!(
                matches!(reader.read_frame(), Err(FrameError::Truncated)),
                "cut at {cut} must read as truncated"
            );
        }
    }

    #[test]
    fn bad_utf8_in_string_field() {
        let mut body = vec![TAG_ERROR];
        put_u32(&mut body, 2);
        body.extend_from_slice(&[0xff, 0xfe]);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, body.len() as u32);
        bytes.extend_from_slice(&body);
        let mut reader = FrameReader::new(bytes.as_slice());
        assert!(matches!(reader.read_frame(), Err(FrameError::BadUtf8)));
    }

    #[test]
    fn trailing_bytes_on_fixed_width_frame() {
        let mut body = vec![TAG_COLLECT];
        put_u32(&mut body, 5);
        put_u8(&mut body, 0xaa);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, body.len() as u32);
        bytes.extend_from_slice(&body);
        let mut reader = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            reader.read_frame(),
            Err(FrameError::Malformed(WireError::TrailingBytes(1)))
        ));
    }
}
