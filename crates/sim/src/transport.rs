//! Pluggable message delivery: the engine's delivery path as a trait.
//!
//! The synchronous engine models *what* processors and the adversary say;
//! a [`Transport`] models *how* (and whether, and when) those envelopes
//! reach their recipients. The default [`Lockstep`] transport reproduces
//! the paper's §1.1 model exactly: every envelope emitted in round `r` is
//! delivered at the start of round `r + 1`, in emission order. The
//! `ba-net` crate layers latency and fault models behind this same trait
//! without touching any `Process` implementation.

use crate::ids::ProcId;
use crate::message::Envelope;
use std::sync::Arc;

/// One payload fanned out from a single sender to a shared recipient
/// list — the batched form of a committee broadcast.
///
/// Structured executors emit most of their traffic as identical copies
/// of one value to every member of a committee. Carrying the whole fan
/// as one `Multicast` instead of `to.len()` envelopes keeps transport
/// queue volume proportional to the number of *logical* exchanges, not
/// the committee size, while all accounting (`NetStats`, bit charges,
/// trace events) still counts per recipient. The recipient list is
/// `Arc`-shared so repeated fans to the same committee cost one clone.
#[derive(Clone, Debug)]
pub struct Multicast<M> {
    /// The sending processor.
    pub from: ProcId,
    /// Recipients, in delivery order (committee lists are sorted).
    pub to: Arc<[ProcId]>,
    /// The payload every recipient gets a copy of.
    pub payload: M,
}

/// Where the engine hands off outgoing traffic and asks for deliveries.
///
/// Contract (all of it is what keeps runs deterministic and replayable):
///
/// * The engine hands over a round's surviving traffic whole, through
///   [`Transport::send_round`], after the adversary has acted: the
///   envelopes are in global emission order (good processors in id
///   order, then adversary injections), and the call means one
///   [`Transport::send`] per envelope in that order. It leaves the buffer
///   empty; the engine clears it regardless, so that nothing is
///   delivered twice.
/// * The engine asks for a round's deliveries whole, through
///   [`Transport::collect_round`], exactly once at the start of each round
///   `r` and before any processor runs: it means one
///   [`Transport::collect`], which must yield every envelope due at `r`
///   in a deterministic order. An envelope sent in round `r` must not be
///   delivered before round `r + 1`.
/// * [`Transport::is_online`] gates *benign* availability (crash-stop,
///   churn): an offline processor neither executes its round logic nor
///   reads its inbox. Byzantine corruption stays the engine's business.
/// * [`Transport::is_faulty`] marks processors that are permanently gone;
///   the engine's termination check stops waiting for their outputs.
pub trait Transport<M> {
    /// Accepts one envelope emitted during `round` (post-adversary), in
    /// global emission order. The transport decides its fate: deliver on
    /// time, deliver late, or drop.
    fn send(&mut self, round: usize, env: Envelope<M>);

    /// Delivers every envelope due at the start of `round` through
    /// `deliver`, in the transport's deterministic delivery order.
    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>));

    /// Accepts a whole round of envelopes at once. Semantically this IS
    /// one [`Transport::send`] per envelope, in order — the same
    /// accounting, the same fault and latency decisions from the same
    /// stream in the same order, the same delivery schedule — and the
    /// default does exactly that. A transport that can keep a round as
    /// the `Vec` it came in overrides it to take the buffer instead of
    /// copying it: [`Lockstep`], and `ba-net`'s `NetTransport` as one
    /// flight for the whole round.
    ///
    /// An override must leave `envs` empty, with whatever allocation it
    /// likes: the caller reuses the buffer for its next round, and
    /// anything left in it would be sent again.
    fn send_round(&mut self, round: usize, envs: &mut Vec<Envelope<M>>) {
        for env in envs.drain(..) {
            self.send(round, env);
        }
    }

    /// Appends every envelope due at the start of `round` to `into`, in
    /// the order [`Transport::collect`] would deliver them (the default
    /// pushes each one). An override may trade allocations with an empty
    /// `into` instead of copying — what was sent through
    /// [`Transport::send_round`] then comes back in the allocation it
    /// went out in. The whole-round and the per-envelope calls may be
    /// mixed freely, on either side.
    fn collect_round(&mut self, round: usize, into: &mut Vec<Envelope<M>>) {
        self.collect(round, &mut |env| into.push(env));
    }

    /// Whether processor `p` executes its round logic in `round`. Offline
    /// processors skip the round and lose whatever was delivered to them.
    fn is_online(&self, round: usize, p: ProcId) -> bool {
        let _ = (round, p);
        true
    }

    /// Whether `p` is permanently failed as of `round` (crash-stop). The
    /// engine excludes faulty processors from "has everyone decided".
    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        let _ = (round, p);
        false
    }

    /// Accepts one multicast batch emitted during `round`: the same
    /// payload bound for every processor in `mc.to`, in slice order.
    ///
    /// It counts as `mc.to.len()` consecutive [`Transport::send`] calls —
    /// same per-recipient accounting, same fault and latency decisions in
    /// the same order, same arrivals — and the default does exactly that
    /// expansion. A transport that understands batches keeps one queue
    /// entry per fan instead, and delivers the recipients that arrive
    /// together as one unit, which a same-instant reordering (`ba-net`'s
    /// `lifo`, `shuffle`) moves whole where it would move envelopes singly.
    fn send_many(&mut self, round: usize, mc: Multicast<M>)
    where
        M: Clone,
    {
        for &to in mc.to.iter() {
            self.send(
                round,
                Envelope {
                    from: mc.from,
                    to,
                    payload: mc.payload.clone(),
                },
            );
        }
    }

    /// Delivers everything due at the start of `round` as multicast
    /// batches, in the same deterministic order [`Transport::collect`]
    /// would use. A batch's recipient list holds exactly the recipients
    /// the per-envelope path would have delivered to, in that order; the
    /// default wraps each collected envelope as a singleton batch.
    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<M>))
    where
        M: Clone,
    {
        self.collect(round, &mut |e| {
            deliver(Multicast {
                from: e.from,
                to: Arc::from([e.to].as_slice()),
                payload: e.payload,
            })
        });
    }

    /// Announces that the phase named `name` begins at `round` on this
    /// transport's timeline. Structured executors (the election
    /// tournament, the full stack) call this at every routed exchange so
    /// a stats-keeping transport can derive a [`Schedule`](crate::Schedule)
    /// it was never configured with. Marks carry no randomness and no
    /// payload; the default is a no-op, so plain transports and the
    /// lockstep engine are unaffected.
    fn mark_phase(&mut self, round: usize, name: &str) {
        let _ = (round, name);
    }
}

/// The paper's synchronous network: everything sent in round `r` arrives
/// at the start of round `r + 1`, in emission order, lossless.
///
/// A round's single envelopes sit in one plain `Vec`, so the engine's
/// whole-round hand-off ([`Transport::send_round`] /
/// [`Transport::collect_round`]) swaps buffers with it instead of
/// copying envelopes; multicasts sit beside them, kept whole so batches
/// survive the round trip intact.
///
/// ```rust
/// use ba_sim::{Envelope, Lockstep, ProcId, Transport};
/// let mut t: Lockstep<bool> = Lockstep::default();
/// t.send(0, Envelope::new(ProcId::new(0), ProcId::new(1), true));
/// let mut got = Vec::new();
/// t.collect(1, &mut |e| got.push(e));
/// assert_eq!(got.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Lockstep<M> {
    /// Single envelopes, in emission order.
    singles: Vec<Envelope<M>>,
    /// Multicasts in emission order, each tagged with the number of
    /// singles emitted before it: its place in the mixed order.
    fans: Vec<(usize, Multicast<M>)>,
}

impl<M> Default for Lockstep<M> {
    fn default() -> Self {
        Lockstep {
            singles: Vec::new(),
            fans: Vec::new(),
        }
    }
}

impl<M> Lockstep<M> {
    /// Drains the buffer in emission order — everything in it was sent
    /// last round, so all of it is due — handing singles to `single` and
    /// multicasts to `fan`. Both allocations stay at their high-water
    /// capacity.
    fn drain_ordered<S: ?Sized>(
        &mut self,
        sink: &mut S,
        single: impl Fn(&mut S, Envelope<M>),
        fan: impl Fn(&mut S, Multicast<M>),
    ) {
        let mut singles = self.singles.drain(..);
        let mut taken = 0;
        for (before, mc) in self.fans.drain(..) {
            for env in singles.by_ref().take(before - taken) {
                single(sink, env);
            }
            taken = before;
            fan(sink, mc);
        }
        for env in singles {
            single(sink, env);
        }
    }
}

impl<M: Clone> Transport<M> for Lockstep<M> {
    fn send(&mut self, _round: usize, env: Envelope<M>) {
        self.singles.push(env);
    }

    fn send_many(&mut self, _round: usize, mc: Multicast<M>) {
        self.fans.push((self.singles.len(), mc));
    }

    fn send_round(&mut self, _round: usize, envs: &mut Vec<Envelope<M>>) {
        if self.singles.is_empty() {
            std::mem::swap(&mut self.singles, envs);
        } else {
            self.singles.append(envs);
        }
    }

    fn collect(&mut self, _round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        // Batches expand to their per-recipient envelopes in place.
        self.drain_ordered(
            deliver,
            |deliver, env| deliver(env),
            |deliver, mc| {
                for &to in mc.to.iter() {
                    deliver(Envelope {
                        from: mc.from,
                        to,
                        payload: mc.payload.clone(),
                    });
                }
            },
        );
    }

    fn collect_many(&mut self, _round: usize, deliver: &mut dyn FnMut(Multicast<M>)) {
        self.drain_ordered(
            deliver,
            |deliver, env| {
                deliver(Multicast {
                    from: env.from,
                    to: Arc::from([env.to].as_slice()),
                    payload: env.payload,
                })
            },
            |deliver, mc| deliver(mc),
        );
    }

    fn collect_round(&mut self, round: usize, into: &mut Vec<Envelope<M>>) {
        if self.fans.is_empty() && into.is_empty() {
            std::mem::swap(&mut self.singles, into);
        } else {
            self.collect(round, &mut |env| into.push(env));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_delivers_in_emission_order() {
        let mut t: Lockstep<u16> = Lockstep::default();
        for i in 0..5u16 {
            t.send(3, Envelope::new(ProcId::new(i as usize), ProcId::new(0), i));
        }
        let mut got = Vec::new();
        t.collect(4, &mut |e| got.push(e.payload));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // Buffer is drained.
        let mut again = Vec::new();
        t.collect(5, &mut |e| again.push(e.payload));
        assert!(again.is_empty());
    }

    #[test]
    fn multicast_expands_in_recipient_order_through_either_collect() {
        let to: Arc<[ProcId]> = (1..4).map(ProcId::new).collect();
        let mc = Multicast {
            from: ProcId::new(0),
            to,
            payload: 7u16,
        };

        // send_many + collect: the batch expands to per-recipient
        // envelopes, interleaved with singles in emission order.
        let mut t: Lockstep<u16> = Lockstep::default();
        t.send(0, Envelope::new(ProcId::new(9), ProcId::new(0), 1));
        t.send_many(0, mc.clone());
        t.send(0, Envelope::new(ProcId::new(9), ProcId::new(0), 2));
        let mut got = Vec::new();
        t.collect(1, &mut |e| got.push((e.to.index(), e.payload)));
        assert_eq!(got, vec![(0, 1), (1, 7), (2, 7), (3, 7), (0, 2)]);

        // send_many + collect_many: the batch survives intact and the
        // singles arrive as singleton batches, same order.
        let mut t: Lockstep<u16> = Lockstep::default();
        t.send(0, Envelope::new(ProcId::new(9), ProcId::new(0), 1));
        t.send_many(0, mc);
        let mut got = Vec::new();
        t.collect_many(1, &mut |b| got.push((b.to.len(), b.payload)));
        assert_eq!(got, vec![(1, 1), (3, 7)]);
    }

    #[test]
    fn whole_rounds_trade_buffers_and_keep_mixed_order() {
        let single = |v: u16| Envelope::new(ProcId::new(9), ProcId::new(0), v);
        // Nothing but one whole round: the buffer itself travels, in
        // both directions (the allocation that comes back is the one
        // that went in).
        let mut t: Lockstep<u16> = Lockstep::default();
        let mut round = Vec::with_capacity(64);
        round.extend([single(1), single(2)]);
        let sent_at = round.as_ptr();
        t.send_round(0, &mut round);
        assert!(round.is_empty());
        t.collect_round(1, &mut round);
        assert_eq!(round, vec![single(1), single(2)]);
        assert_eq!(round.as_ptr(), sent_at);

        // Mixed with singles and a fan, a whole round keeps its place.
        let mc = Multicast {
            from: ProcId::new(0),
            to: (1..3).map(ProcId::new).collect(),
            payload: 7u16,
        };
        let mut t: Lockstep<u16> = Lockstep::default();
        t.send(0, single(1));
        t.send_many(0, mc);
        t.send_round(0, &mut vec![single(2), single(3)]);
        t.send(0, single(4));
        let mut got = Vec::new();
        t.collect_round(1, &mut got);
        let got: Vec<_> = got.iter().map(|e| (e.to.index(), e.payload)).collect();
        assert_eq!(got, vec![(0, 1), (1, 7), (2, 7), (0, 2), (0, 3), (0, 4)]);
    }

    #[test]
    fn default_send_many_expands_and_default_collect_many_wraps() {
        // A transport that only implements the per-envelope pair still
        // accepts batches through the trait defaults.
        struct Tap(Vec<Envelope<u16>>);
        impl Transport<u16> for Tap {
            fn send(&mut self, _r: usize, env: Envelope<u16>) {
                self.0.push(env);
            }
            fn collect(&mut self, _r: usize, deliver: &mut dyn FnMut(Envelope<u16>)) {
                for env in self.0.drain(..) {
                    deliver(env);
                }
            }
        }
        let mut t = Tap(Vec::new());
        let to: Arc<[ProcId]> = (0..3).map(ProcId::new).collect();
        t.send_many(
            0,
            Multicast {
                from: ProcId::new(5),
                to,
                payload: 9u16,
            },
        );
        assert_eq!(t.0.len(), 3);
        let mut got = Vec::new();
        t.collect_many(1, &mut |b| got.push((b.to.len(), b.to[0].index())));
        assert_eq!(got, vec![(1, 0), (1, 1), (1, 2)]);

        // Whole rounds too: one `send` per envelope, in order, and one
        // push per collected envelope.
        let mut round: Vec<_> = (0..3u16)
            .map(|v| Envelope::new(ProcId::new(5), ProcId::new(0), v))
            .collect();
        t.send_round(1, &mut round);
        assert!(round.is_empty());
        t.collect_round(2, &mut round);
        assert_eq!(
            round.iter().map(|e| e.payload).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    #[test]
    fn lockstep_defaults_keep_everyone_up() {
        let t: Lockstep<bool> = Lockstep::default();
        assert!(t.is_online(0, ProcId::new(0)));
        assert!(!t.is_faulty(1000, ProcId::new(3)));
    }
}
