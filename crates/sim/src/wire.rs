//! Byte codec for protocol messages that cross a real wire.
//!
//! The simulated transports move [`Envelope`](crate::Envelope)s as Rust
//! values and charge the paper's *model* cost through
//! [`Payload::bit_len`]. A socket transport additionally needs a concrete
//! byte representation. [`WireMsg`] is that seam: a compact, deterministic
//! little-endian encoding with an explicit tag byte per enum variant.
//!
//! Two costs exist on purpose and are both kept:
//!
//! * **model bits** — [`Payload::bit_len`], the paper's accounting (e.g. a
//!   tournament bin choice is 16 bits no matter how it is framed);
//! * **wire bytes** — what [`WireMsg::encode`] actually produces, plus
//!   whatever framing the socket layer adds.
//!
//! Decoders never panic on malformed input: every failure is a
//! [`WireError`]. Framed decoders go through [`WireMsg::from_wire`], so
//! trailing garbage is rejected rather than silently ignored.

use crate::payload::Payload;
use std::fmt;

/// A decoding failure. Encoding is infallible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A discriminant byte had no meaning for the target type.
    BadTag(u8),
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-value"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A message that can cross a real wire: [`Payload`] (model bit cost) plus
/// an exact, deterministic byte codec.
///
/// Law: `decode(&mut encode(m).as_slice()) == Ok(m)` for every value, and
/// `decode` consumes exactly the bytes `encode` produced.
pub trait WireMsg: Payload + Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// The encoding as a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must occupy the whole of `buf`.
    fn from_wire(mut buf: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(v)
        } else {
            Err(WireError::TrailingBytes(buf.len()))
        }
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a bool as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    if buf.len() < N {
        return Err(WireError::Truncated);
    }
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    Ok(head.try_into().expect("split_at returned N bytes"))
}

/// Takes one byte.
pub fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take::<1>(buf)?[0])
}

/// Takes a little-endian `u16`.
pub fn take_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    Ok(u16::from_le_bytes(take::<2>(buf)?))
}

/// Takes a little-endian `u32`.
pub fn take_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(take::<4>(buf)?))
}

/// Takes a little-endian `u64`.
pub fn take_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(take::<8>(buf)?))
}

/// Takes a bool byte; anything other than 0/1 is a [`WireError::BadTag`].
pub fn take_bool(buf: &mut &[u8]) -> Result<bool, WireError> {
    match take_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

impl WireMsg for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        take_bool(buf)
    }
}

impl WireMsg for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        take_u8(buf)
    }
}

impl WireMsg for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        take_u16(buf)
    }
}

impl WireMsg for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        take_u32(buf)
    }
}

impl WireMsg for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        take_u64(buf)
    }
}

impl WireMsg for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl WireMsg for Option<bool> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u8(out, 2),
            Some(v) => put_bool(out, *v),
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match take_u8(buf)? {
            0 => Ok(Some(false)),
            1 => Ok(Some(true)),
            2 => Ok(None),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: WireMsg + PartialEq + std::fmt::Debug>(m: M) {
        let bytes = m.to_wire();
        assert_eq!(M::from_wire(&bytes), Ok(m));
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(true);
        round_trip(false);
        round_trip(0xAAu8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(0x0123_4567_89AB_CDEFu64);
        round_trip(());
        round_trip(Some(true));
        round_trip(Some(false));
        round_trip(None::<bool>);
    }

    #[test]
    fn truncated_input_errors() {
        assert_eq!(u32::from_wire(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(bool::from_wire(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_byte_errors() {
        assert_eq!(bool::from_wire(&[7]), Err(WireError::BadTag(7)));
        assert_eq!(<Option<bool>>::from_wire(&[9]), Err(WireError::BadTag(9)));
    }

    #[test]
    fn trailing_bytes_error() {
        assert_eq!(u16::from_wire(&[1, 2, 3]), Err(WireError::TrailingBytes(1)));
    }
}
