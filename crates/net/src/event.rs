//! The deterministic discrete-event queue at the heart of `ba-net`.
//!
//! Events pop in ascending `(time, tie)` order, equal keys in the order
//! they were pushed:
//!
//! * `time` — the simulated instant the event fires (abstract ticks);
//! * `tie` — a caller-supplied tie-break key (any `K: Ord + Copy`,
//!   `u64` by default) for events at the same instant. Callers that
//!   derive `tie` deterministically from the event itself get a delivery
//!   order that is independent of queue internals;
//! * push order — the final disambiguator. It is never stored: an
//!   instant's events sit in push order, and the sort that puts them in
//!   `tie` order is *stable*.
//!
//! So the pop order is a pure function of the multiset of `(time, tie)`
//! keys plus the push order of exact duplicates — *not* of the
//! interleaving in which distinct keys were pushed
//! (`tests/invariants.rs::event_queue_pop_order_is_insertion_invariant`
//! pins this down; `fifo_policy_is_byte_identical_to_plain_drain` beside
//! it pins the policy-free drain). A caller whose push order already
//! *is* its delivery order within every instant — the network transport:
//! it pushes in emission order — takes `K = ()` and stores no key at all.
//!
//! ## Layout: a calendar of chunked buckets
//!
//! A queued event costs its `(tie, value)` pair and nothing else. The
//! calendar is a [`BTreeMap`] from firing time to that instant's
//! **bucket**: a list of fixed-capacity chunks (≈ 2 KiB each) filled in
//! push order. Only a bucket's first chunk is ever smaller — it starts at
//! a few entries and doubles up to the chunk size, so a one-event instant
//! stays cheap — and the slack is at most one partial chunk an instant,
//! where one growing buffer rounds a whole instant up to a power of two.
//! A drain hands the chunks over one by one, each freed as it empties.
//! Whether the pushes came in `tie` order is tracked as they arrive; the
//! stable sort at drain time runs only when they did not.
//!
//! The `event_queue` criterion group in `ba-bench` measures both the
//! dense regime (thousands of events a tick) and the sparse one.

use ba_sim::SimRng;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// How events scheduled for the **same instant** are ordered at drain
/// time. The `time` of an event decides *when* it fires; the policy
/// decides the order of a same-time batch handed to the consumer.
///
/// Every policy is deterministic per seed: [`DeliveryPolicy::Fifo`]
/// consumes no randomness at all (byte-identical to the historical
/// queue), [`DeliveryPolicy::AdversarialLifo`] is a pure reversal, and
/// [`DeliveryPolicy::Shuffle`] draws a Fisher–Yates permutation from the
/// dedicated ordering stream the caller supplies — never from the
/// latency/drop stream, so switching policies cannot perturb which
/// messages are dropped or how long they fly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeliveryPolicy {
    /// `tie` order, equal ties in push order — the emission order the
    /// engine produced.
    #[default]
    Fifo,
    /// Reversed emission order: the freshest message of each instant is
    /// heard first. A classic scheduler attack surface for protocols
    /// that fold their inbox asymmetrically.
    AdversarialLifo,
    /// A seeded uniform permutation per same-instant batch.
    Shuffle,
}

impl DeliveryPolicy {
    /// Canonical lowercase name (the scenario grammar's `net.ordering`
    /// values).
    pub fn name(self) -> &'static str {
        match self {
            DeliveryPolicy::Fifo => "fifo",
            DeliveryPolicy::AdversarialLifo => "lifo",
            DeliveryPolicy::Shuffle => "shuffle",
        }
    }

    /// Parses a canonical name back into a policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(DeliveryPolicy::Fifo),
            "lifo" => Some(DeliveryPolicy::AdversarialLifo),
            "shuffle" => Some(DeliveryPolicy::Shuffle),
            _ => None,
        }
    }

    /// All policies, in grammar order.
    pub const ALL: [DeliveryPolicy; 3] = [
        DeliveryPolicy::Fifo,
        DeliveryPolicy::AdversarialLifo,
        DeliveryPolicy::Shuffle,
    ];
}

/// A throwaway stream for policy-free drains. [`DeliveryPolicy::Fifo`]
/// never draws from its stream, so any seed works here.
fn no_ordering_rng() -> SimRng {
    ba_sim::derive_rng(0, 0)
}

/// Bytes in one full chunk of a bucket. Small enough that a freed chunk
/// goes back to the allocator's bins (a chunk of 128 KiB or more would be
/// its own `mmap`), large enough that a chunk's header is noise.
const CHUNK_BYTES: usize = 2048;

/// The events at one firing instant, in push order, with an
/// incrementally-maintained sortedness flag: pushes that arrive in `tie`
/// order make the sort at drain time a no-op check on the flag.
#[derive(Debug)]
struct Bucket<T, K> {
    /// Never holds an empty chunk.
    chunks: VecDeque<VecDeque<(K, T)>>,
    sorted: bool,
}

impl<T, K> Default for Bucket<T, K> {
    fn default() -> Self {
        Bucket {
            chunks: VecDeque::new(),
            sorted: true,
        }
    }
}

impl<T, K: Ord + Copy> Bucket<T, K> {
    /// Entries in a full chunk.
    const CHUNK: usize = match CHUNK_BYTES.checked_div(std::mem::size_of::<(K, T)>()) {
        Some(0) => 1,
        Some(fit) => fit,
        None => CHUNK_BYTES,
    };
    /// Entries the first chunk of a bucket starts with.
    const FIRST: usize = if Self::CHUNK < 4 { Self::CHUNK } else { 4 };

    fn push(&mut self, tie: K, value: T) {
        let Some(chunk) = self.chunks.back_mut() else {
            let mut chunk = VecDeque::with_capacity(Self::FIRST);
            chunk.push_back((tie, value));
            self.chunks.reserve_exact(1);
            self.chunks.push_back(chunk);
            return;
        };
        self.sorted = self.sorted && chunk.back().is_none_or(|last| last.0 <= tie);
        if chunk.len() < Self::CHUNK {
            // Only a first chunk can be full below `CHUNK`: it doubles.
            if chunk.len() == chunk.capacity() {
                chunk.reserve_exact(chunk.len().min(Self::CHUNK - chunk.len()));
            }
            chunk.push_back((tie, value));
        } else {
            let mut chunk = VecDeque::with_capacity(Self::CHUNK);
            chunk.push_back((tie, value));
            self.chunks.push_back(chunk);
        }
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(VecDeque::len).sum()
    }

    /// Puts the entries in `tie` order, equal ties in push order, for
    /// [`Bucket::pop_front`]. (A drain sorts the instant it has flattened
    /// anyway and never re-chunks it.)
    fn ensure_sorted(&mut self, scratch: &mut Vec<(K, T)>) {
        if self.sorted {
            return;
        }
        scratch.extend(std::mem::take(&mut self.chunks).into_iter().flatten());
        scratch.sort_by_key(|e| e.0);
        self.sorted = true;
        for (tie, value) in scratch.drain(..) {
            self.push(tie, value);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let chunk = self.chunks.front_mut()?;
        let (_, value) = chunk.pop_front()?;
        if chunk.is_empty() {
            self.chunks.pop_front();
        }
        Some(value)
    }
}

/// A deterministic future-event queue keyed by `(time, tie)`, equal keys
/// in push order.
///
/// ```rust
/// use ba_net::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, 0, "late");
/// q.push(10, 1, "early-b");
/// q.push(10, 0, "early-a");
/// assert_eq!(q.pop_due(10), Some((10, "early-a")));
/// assert_eq!(q.pop_due(10), Some((10, "early-b")));
/// assert_eq!(q.pop_due(10), None); // "late" not due yet
/// assert_eq!(q.pop_due(25), Some((20, "late")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T, K = u64> {
    /// Firing time → the events at that instant; never an empty bucket.
    buckets: BTreeMap<u64, Bucket<T, K>>,
    len: usize,
    /// One instant flattened, for a sort or a shuffle.
    scratch: Vec<(K, T)>,
}

impl<T, K: Ord + Copy> Default for EventQueue<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, K: Ord + Copy> EventQueue<T, K> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Schedules `value` at `time` with tie-break key `tie`.
    pub fn push(&mut self, time: u64, tie: K, value: T) {
        self.len += 1;
        self.buckets.entry(time).or_default().push(tie, value);
    }

    /// The firing time of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Pops the earliest event if it fires at or before `now`. (One
    /// bucket sort amortizes over all of its pops; prefer
    /// [`EventQueue::drain_due`] when everything due is wanted anyway.)
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        let mut first = self.buckets.first_entry()?;
        let time = *first.key();
        if time > now {
            return None;
        }
        let bucket = first.get_mut();
        bucket.ensure_sorted(&mut self.scratch);
        let value = bucket.pop_front().expect("bucket is non-empty");
        if bucket.chunks.is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some((time, value))
    }

    /// Drains **every** event firing at or before `now` into `f`, in
    /// `(time, tie)` order, equal keys in push order — one tree operation
    /// per distinct firing time instead of one pop per event.
    pub fn drain_due(&mut self, now: u64, f: &mut dyn FnMut(u64, T)) {
        self.drain_due_policy(now, DeliveryPolicy::Fifo, &mut no_ordering_rng(), f);
    }

    /// [`EventQueue::drain_due`] with a same-instant [`DeliveryPolicy`].
    ///
    /// The policy reorders each same-time batch *after* the `tie` sort,
    /// so *which* events are due and *when* they fire never depend on
    /// it. `rng` is the caller's dedicated ordering stream:
    /// [`DeliveryPolicy::Shuffle`] draws one Fisher–Yates permutation per
    /// batch from it; the other policies leave it untouched, which is
    /// what keeps [`DeliveryPolicy::Fifo`] byte-identical to the
    /// plain [`EventQueue::drain_due`].
    pub fn drain_due_policy(
        &mut self,
        now: u64,
        policy: DeliveryPolicy,
        rng: &mut SimRng,
        f: &mut dyn FnMut(u64, T),
    ) {
        let lifo = policy == DeliveryPolicy::AdversarialLifo;
        while let Some(first) = self.buckets.first_entry() {
            let time = *first.key();
            if time > now {
                return;
            }
            let bucket = first.remove();
            self.len -= bucket.len();
            // Chunk by chunk, each freed as it empties.
            let entries = bucket.chunks.into_iter().flatten();
            if bucket.sorted && policy != DeliveryPolicy::Shuffle {
                emit(time, lifo, entries, f);
                continue;
            }
            // An instant to reorder is flattened once, and leaves from
            // where it was reordered.
            let batch = &mut self.scratch;
            batch.extend(entries);
            if !bucket.sorted {
                batch.sort_by_key(|e| e.0);
            }
            if policy == DeliveryPolicy::Shuffle {
                for i in (1..batch.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    batch.swap(i, j);
                }
            }
            emit(time, lifo, batch.drain(..), f);
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Hands one instant's events to `f`, front to back or back to front.
fn emit<K, T>(
    time: u64,
    lifo: bool,
    entries: impl DoubleEndedIterator<Item = (K, T)>,
    f: &mut dyn FnMut(u64, T),
) {
    if lifo {
        entries.rev().for_each(|(_, value)| f(time, value));
    } else {
        entries.for_each(|(_, value)| f(time, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_tie_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(5, 7, 'c');
        q.push(5, 2, 'b');
        q.push(1, 9, 'a');
        q.push(5, 7, 'd'); // duplicate key: insertion order decides
        let mut got = Vec::new();
        while let Some((_, v)) = q.pop_due(u64::MAX) {
            got.push(v);
        }
        assert_eq!(got, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(10, 0, ());
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.peek_time(), Some(10));
        assert!(q.pop_due(10).is_some());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn insertion_interleaving_does_not_change_order() {
        // Two different push interleavings of the same key set.
        let keys = [(3u64, 0u64), (1, 1), (2, 0), (1, 0), (3, 1)];
        let mut a = EventQueue::new();
        for &(t, tie) in &keys {
            a.push(t, tie, (t, tie));
        }
        let mut b = EventQueue::new();
        for &(t, tie) in keys.iter().rev() {
            b.push(t, tie, (t, tie));
        }
        let drain = |mut q: EventQueue<(u64, u64)>| {
            let mut v = Vec::new();
            while let Some((_, x)) = q.pop_due(u64::MAX) {
                v.push(x);
            }
            v
        };
        assert_eq!(drain(a), drain(b));
    }

    #[test]
    fn drain_due_matches_repeated_pops() {
        let keys = [(4u64, 1u64), (2, 9), (4, 0), (2, 9), (7, 3), (2, 1)];
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, &(t, tie)) in keys.iter().enumerate() {
            a.push(t, tie, i);
            b.push(t, tie, i);
        }
        let mut drained = Vec::new();
        a.drain_due(4, &mut |t, v| drained.push((t, v)));
        let mut popped = Vec::new();
        while let Some((t, v)) = b.pop_due(4) {
            popped.push((t, v));
        }
        assert_eq!(drained, popped);
        assert_eq!(a.len(), 1, "the t=7 event stays queued");
        a.drain_due(u64::MAX, &mut |t, v| drained.push((t, v)));
        assert_eq!(drained.last(), Some(&(7, 4)));
        assert!(a.is_empty());
    }

    /// Builds the standard two-instant fixture and drains it under a
    /// policy; returns the delivered values in order.
    fn drain_policy(policy: DeliveryPolicy, seed: u64) -> Vec<u32> {
        let mut q = EventQueue::new();
        for (i, &(t, tie)) in [(5u64, 2u64), (5, 0), (5, 1), (9, 1), (9, 0)]
            .iter()
            .enumerate()
        {
            q.push(t, tie, i as u32);
        }
        let mut rng = ba_sim::derive_rng(seed, 7);
        let mut got = Vec::new();
        q.drain_due_policy(u64::MAX, policy, &mut rng, &mut |_, v| got.push(v));
        got
    }

    #[test]
    fn fifo_policy_is_byte_identical_to_plain_drain() {
        assert_eq!(drain_policy(DeliveryPolicy::Fifo, 1), vec![1, 2, 0, 4, 3]);
        let mut q = EventQueue::new();
        for (i, &(t, tie)) in [(5u64, 2u64), (5, 0), (5, 1), (9, 1), (9, 0)]
            .iter()
            .enumerate()
        {
            q.push(t, tie, i as u32);
        }
        let mut plain = Vec::new();
        q.drain_due(u64::MAX, &mut |_, v| plain.push(v));
        assert_eq!(plain, drain_policy(DeliveryPolicy::Fifo, 99));
    }

    #[test]
    fn lifo_policy_reverses_each_instant_batch() {
        // Per-batch reversal of the fifo order, never across instants.
        assert_eq!(
            drain_policy(DeliveryPolicy::AdversarialLifo, 1),
            vec![0, 2, 1, 3, 4]
        );
    }

    #[test]
    fn shuffle_policy_permutes_within_instants_deterministically() {
        let a = drain_policy(DeliveryPolicy::Shuffle, 42);
        let b = drain_policy(DeliveryPolicy::Shuffle, 42);
        assert_eq!(a, b, "same ordering seed, same permutation");
        // Each instant's batch stays intact as a set.
        let first: std::collections::BTreeSet<u32> = a[..3].iter().copied().collect();
        assert_eq!(first, [0u32, 1, 2].into_iter().collect());
        let second: std::collections::BTreeSet<u32> = a[3..].iter().copied().collect();
        assert_eq!(second, [3u32, 4].into_iter().collect());
        // Some seed produces a non-fifo order (the permutation is real).
        let fifo = drain_policy(DeliveryPolicy::Fifo, 0);
        assert!(
            (0..20u64).any(|s| drain_policy(DeliveryPolicy::Shuffle, s) != fifo),
            "shuffle never deviated from fifo over 20 seeds"
        );
    }

    #[test]
    fn policy_names_round_trip() {
        for p in DeliveryPolicy::ALL {
            assert_eq!(DeliveryPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(DeliveryPolicy::parse("random"), None);
        assert_eq!(DeliveryPolicy::default(), DeliveryPolicy::Fifo);
    }

    #[test]
    fn drain_due_same_instant_batch_keeps_tie_order() {
        let mut q = EventQueue::new();
        // All at one instant, pushed out of tie order.
        for &(tie, v) in &[
            (5u64, 'e'),
            (1, 'b'),
            (9, 'f'),
            (0, 'a'),
            (3, 'c'),
            (3, 'd'),
        ] {
            q.push(42, tie, v);
        }
        let mut got = Vec::new();
        q.drain_due(42, &mut |_, v| got.push(v));
        assert_eq!(got, vec!['a', 'b', 'c', 'd', 'e', 'f']);
    }

    #[test]
    fn equal_ties_keep_push_order_in_an_instant_of_many_chunks() {
        // The push number is not stored: an unstable sort of an instant
        // this large would lose it.
        let ties = |i: u32| u64::from(i * 7 % 5);
        let mut popped = EventQueue::new();
        let mut drained = EventQueue::new();
        for i in 0..1000 {
            popped.push(3, ties(i), i);
            drained.push(3, ties(i), i);
        }
        let mut want: Vec<u32> = (0..1000).collect();
        want.sort_by_key(|&i| (ties(i), i));
        let got: Vec<u32> = std::iter::from_fn(|| popped.pop_due(3).map(|(_, v)| v)).collect();
        assert_eq!(got, want);
        let mut got = Vec::new();
        drained.drain_due(3, &mut |_, v| got.push(v));
        assert_eq!(got, want);
    }

    #[test]
    fn an_inversion_across_a_chunk_boundary_is_sorted_out() {
        // The only out-of-order pair is the last entry of a full chunk
        // and the first of the next.
        let full = Bucket::<u32, u64>::CHUNK as u32;
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..full {
            q.push(9, 1, i);
        }
        q.push(9, 0, full);
        let mut got = Vec::new();
        q.drain_due(9, &mut |_, v| got.push(v));
        assert_eq!(got[0], full);
        assert!(got[1..].iter().copied().eq(0..full));
    }

    /// The queue against a sorted vector.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;
        use std::fmt::Debug;

        /// The reference: every queued event as `(time, tie, push number)`
        /// — the key the queue promises to pop by — and its value, which
        /// is the push number again.
        struct Model<K>(Vec<(u64, K, u32)>);

        /// What the queue under test holds: the push number in 240 bytes,
        /// so that a chunk is eight entries and a busy instant is several
        /// chunks.
        type Fat = [u32; 60];

        impl<K: Ord + Copy> Model<K> {
            /// Everything due at `now` in key order, removed.
            fn take_due(&mut self, now: u64) -> Vec<(u64, K, u32)> {
                let mut due: Vec<_> = self.0.iter().copied().filter(|e| e.0 <= now).collect();
                self.0.retain(|e| e.0 > now);
                due.sort_unstable();
                due
            }

            fn pop_due(&mut self, now: u64) -> Option<(u64, u32)> {
                let first = *self.0.iter().filter(|e| e.0 <= now).min()?;
                self.0.retain(|e| *e != first);
                Some((first.0, first.2))
            }

            fn drain(
                &mut self,
                now: u64,
                policy: DeliveryPolicy,
                rng: &mut SimRng,
            ) -> Vec<(u64, u32)> {
                let mut out = Vec::new();
                for instant in self.take_due(now).chunk_by_mut(|a, b| a.0 == b.0) {
                    match policy {
                        DeliveryPolicy::Fifo => {}
                        DeliveryPolicy::AdversarialLifo => instant.reverse(),
                        DeliveryPolicy::Shuffle => {
                            for i in (1..instant.len()).rev() {
                                instant.swap(i, rng.gen_range(0..=i));
                            }
                        }
                    }
                    out.extend(instant.iter().map(|e| (e.0, e.2)));
                }
                out
            }
        }

        /// No empty bucket, no empty or overfull chunk, and the length says
        /// what the buckets hold.
        fn check_layout<K: Ord + Copy>(q: &EventQueue<Fat, K>) -> TestCaseResult {
            let chunks = q.buckets.values().flat_map(|b| &b.chunks);
            let full = Bucket::<Fat, K>::CHUNK;
            prop_assert!(chunks.clone().all(|c| (1..=full).contains(&c.len())));
            prop_assert!(q.buckets.values().all(|b| !b.chunks.is_empty()));
            prop_assert_eq!(chunks.map(VecDeque::len).sum::<usize>(), q.len());
            Ok(())
        }

        /// Drives `ops` — `(what, where, salt)` each — through a queue and
        /// the model, comparing everything either hands back.
        fn run<K: Ord + Copy + Debug>(
            ops: &[(u8, u64, u64)],
            policy: DeliveryPolicy,
            tie_of: impl Fn(u64) -> K,
        ) -> TestCaseResult {
            assert_eq!((Bucket::<Fat, K>::FIRST, Bucket::<Fat, K>::CHUNK), (4, 8));
            let mut q: EventQueue<Fat, K> = EventQueue::new();
            let mut model = Model(Vec::new());
            let (mut rng, mut rng_twin) = (ba_sim::derive_rng(3, 5), ba_sim::derive_rng(3, 5));
            let mut pushed: Vec<u64> = Vec::new();
            // Where the last drain or pop stood.
            let mut clock = 0u64;
            for &(what, place, salt) in ops {
                // A few busy instants around the clock (an instant is
                // several chunks, and is pushed into again after part of
                // it was popped), instants already passed, the end of
                // time, and a wide scatter of lone events.
                let time = match place % 8 {
                    0 | 1 => clock.saturating_add(salt % 4),
                    2 => clock.saturating_sub(1 + salt % 4),
                    3 => u64::MAX,
                    4 if !pushed.is_empty() => pushed[(salt % pushed.len() as u64) as usize],
                    5 => clock.saturating_add(salt % 5000),
                    6 => salt,
                    _ => salt % 50,
                };
                match what % 32 {
                    // A clock that mostly advances, sometimes stands still
                    // or runs backwards, and once in a while jumps to the
                    // end of time.
                    28..=31 => {
                        let now = match (place / 8) % 64 {
                            0 => u64::MAX,
                            1..=12 => clock.saturating_sub(salt % 5),
                            13..=24 => time,
                            _ => clock.saturating_add(salt % 3000),
                        };
                        if now != u64::MAX {
                            clock = now;
                        }
                        if what % 32 < 30 {
                            for _ in 0..1 + salt % 6 {
                                let got = q.pop_due(now).map(|(t, v)| (t, v[0]));
                                prop_assert_eq!(got, model.pop_due(now));
                            }
                        } else {
                            let mut got = Vec::new();
                            q.drain_due_policy(now, policy, &mut rng, &mut |t, v| {
                                got.push((t, v[0]))
                            });
                            prop_assert_eq!(got, model.drain(now, policy, &mut rng_twin));
                        }
                    }
                    _ => {
                        // Few distinct ties, so equal keys are common and
                        // arrive out of tie order.
                        let tie = tie_of((salt >> 8) % 4);
                        let value = pushed.len() as u32;
                        q.push(time, tie, [value; 60]);
                        model.0.push((time, tie, value));
                        pushed.push(time);
                    }
                }
                prop_assert_eq!(q.len(), model.0.len());
                prop_assert_eq!(q.is_empty(), model.0.is_empty());
                prop_assert_eq!(q.peek_time(), model.0.iter().map(|e| e.0).min());
                check_layout(&q)?;
            }
            // Whatever is left comes out in order too, and the ordering
            // streams drew the same number of times.
            let mut got = Vec::new();
            q.drain_due_policy(u64::MAX, policy, &mut rng, &mut |t, v| got.push((t, v[0])));
            prop_assert_eq!(got, model.drain(u64::MAX, policy, &mut rng_twin));
            prop_assert!(q.is_empty());
            prop_assert_eq!(rng.next_u64(), rng_twin.next_u64());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn queue_matches_the_sorted_reference_under_every_policy(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..300),
                policy in 0usize..3,
            ) {
                run(&ops, DeliveryPolicy::ALL[policy], |tie| tie)?;
            }

            /// Without a key, an instant pops in the order it was pushed.
            #[test]
            fn keyless_queue_pops_each_instant_in_push_order(
                ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..300),
                policy in 0usize..3,
            ) {
                run(&ops, DeliveryPolicy::ALL[policy], |_| ())?;
            }
        }
    }
}
