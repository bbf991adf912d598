//! Message envelopes.

use crate::ids::ProcId;
use crate::payload::Payload;

/// A message in flight: sender, recipient, and typed payload.
///
/// The communication model guarantees that "whenever a processor sends a
/// message directly to another, the identity of the sender is known to the
/// recipient" (§1.1), so `from` is unforgeable: the engine validates that
/// adversary-injected envelopes originate from corrupted processors.
///
/// ```rust
/// use ba_sim::{Envelope, ProcId};
/// let e = Envelope::new(ProcId::new(0), ProcId::new(1), 42u16);
/// assert_eq!(e.from, ProcId::new(0));
/// assert_eq!(e.bit_len(), 16);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The (authenticated) sender.
    pub from: ProcId,
    /// The recipient.
    pub to: ProcId,
    /// The message contents.
    pub payload: M,
}

impl<M: Payload> Envelope<M> {
    /// Creates an envelope.
    pub fn new(from: ProcId, to: ProcId, payload: M) -> Self {
        Envelope { from, to, payload }
    }

    /// Wire size of the payload in bits (addressing is free; see [`Payload`]).
    pub fn bit_len(&self) -> u64 {
        self.payload.bit_len()
    }
}

/// A transport-level message type that can carry a protocol's messages
/// `M` among others: what lets the engine keep a round's traffic in the
/// type its transport speaks (see
/// [`SimBuilder::build_carried`](crate::SimBuilder::build_carried)), so a
/// protocol sharing a transport with other traffic needs no per-envelope
/// conversion on the way in or out. Every message type carries itself.
pub trait Carrier<M>: Sized {
    /// Wraps a protocol message for the transport.
    fn wrap(msg: M) -> Self;

    /// The protocol message inside, or `None` when this value carries
    /// something foreign (another protocol's traffic on a shared
    /// transport).
    fn open(&self) -> Option<&M>;
}

impl<M> Carrier<M> for M {
    fn wrap(msg: M) -> Self {
        msg
    }

    fn open(&self) -> Option<&M> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_size() {
        let e = Envelope::new(ProcId::new(3), ProcId::new(9), vec![1u32, 2]);
        assert_eq!(e.from.index(), 3);
        assert_eq!(e.to.index(), 9);
        assert_eq!(e.bit_len(), 64);
    }

    #[test]
    fn equality_is_structural() {
        let a = Envelope::new(ProcId::new(0), ProcId::new(1), true);
        let b = Envelope::new(ProcId::new(0), ProcId::new(1), true);
        assert_eq!(a, b);
        let c = Envelope::new(ProcId::new(0), ProcId::new(1), false);
        assert_ne!(a, c);
    }
}
