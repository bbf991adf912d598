//! The synchrony adapter: a [`Transport`] that runs round-based
//! protocols over a timed, faulty network.
//!
//! Round `r` of the protocol occupies ticks `[r·delta, (r+1)·delta)`.
//! A message emitted in round `r` leaves at tick `r·delta`, spends a
//! sampled latency on the wire, and is delivered at the start of the
//! first round whose opening tick is at or past its arrival — never
//! earlier than round `r + 1`, so the synchronous abstraction survives:
//! with zero-latency links every delivery lands exactly where the
//! lockstep engine puts it, byte-identically. Latency beyond `delta`
//! makes the message *late* (it arrives in a later round than the
//! protocol's timetable assumes); the transport counts lateness and loss
//! per phase of the sending round, in its [`PhaseLedger`].
//!
//! ## What a message in the air costs
//!
//! A *flight* is one `send_many` call (a fan: sender, sending round,
//! payload, the caller's recipient list) or one `send_round` call (a
//! round: its own `Vec<Envelope>`, swapped out of the caller's hands; a
//! `send` is a round of one), stored once however many arrival ticks it
//! spreads over. The event queue is the only sort: a fan that loses no
//! one and flies a constant latency is one 8-byte entry, and any other
//! fan one `(slot, recipient)` entry per survivor, pushed straight into
//! its arrival tick in recipient order. A round is sorted by `(arrival, emission order)` in its own
//! buffer and queued once per arrival, each entry saying where its group
//! ends. A recipient of a jittered fan in the air is its 8-byte entry, an
//! envelope of a round itself (`tests/net_memory.rs`).
//!
//! The drain rebuilds an instant's groups in calendar order — emission
//! order: a fan's group is its run of consecutive entries, since one call
//! puts at most one run in any instant — and hands out its *units* in the
//! order of [`NetConfig::ordering`]: a fan's group is one unit, and so is
//! a round's under [`DeliveryPolicy::Fifo`]; the policies that reorder
//! take a round envelope by envelope, the units one `send` each would
//! make.

use crate::event::{DeliveryPolicy, EventQueue};
use crate::fault::{Churn, DropCause, FaultPlan};
use crate::latency::LatencyModel;
use crate::ledger::{NetStats, PhaseLedger};
use ba_obs::Trace;
use ba_sim::{derive_env_rng, EnvRng, Envelope, Multicast, Payload, ProcId, Schedule, Transport};
use std::sync::Arc;

type Range = std::ops::Range<usize>;

/// A queue entry: a flight's slot ([`ROUND`] set for a round) and, for a
/// fan, the recipient it carries or [`WHOLE`]; for a round, where its
/// group in the buffer ends.
type Entry = (u32, u32);

/// What an instant hands out as one.
#[derive(Clone, Copy)]
enum Unit {
    /// Every recipient of fan `slot`, in the caller's list.
    Whole(u32),
    /// Recipients `start..end` of the instant's gathered groups, of fan
    /// `slot`.
    Group(u32, u32, u32),
    /// Envelopes `start..end` of round `slot` ([`ROUND`] set).
    Singles(u32, u32, u32),
}

/// Label of the network transport's environment stream,
/// `derive_env_rng(seed, NET_LABEL)` (labels `0..n` are processor coins,
/// `1 << 40` the adversary, `1 << 41` sampler construction — see
/// `ba_sim::derive_rng`).
pub const NET_LABEL: u64 = 1 << 42;

/// The most processors a [`NetTransport`] carries: a queued recipient is
/// a `u32` with bit 31 clear, which set stands for a fan's whole list.
pub const MAX_PROCS: usize = WHOLE as usize;

/// Label of the *ordering* stream: [`DeliveryPolicy::Shuffle`] draws its
/// same-instant permutations here, never from [`NET_LABEL`], so changing
/// the delivery policy can never perturb which messages are dropped or
/// how long they fly.
pub const ORDER_LABEL: u64 = 1 << 43;

/// Configuration of one [`NetTransport`].
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Ticks per protocol round (the delivery deadline: latency beyond
    /// this makes a message late).
    pub delta: u64,
    /// Per-message wire latency.
    pub latency: LatencyModel,
    /// Fault injectors.
    pub faults: FaultPlan,
    /// Master seed; the transport draws from `derive_env_rng(seed, NET_LABEL)`.
    pub seed: u64,
    /// Optional protocol timetable for per-phase stats breakdowns.
    /// When absent, the [`PhaseLedger`] derives one from
    /// [`Transport::mark_phase`] announcements instead.
    pub schedule: Option<Schedule>,
    /// Same-instant delivery ordering ([`DeliveryPolicy::Fifo`] is the
    /// historical byte-identical behaviour).
    pub ordering: DeliveryPolicy,
}

impl NetConfig {
    /// The paper's network: zero latency, no faults. Runs byte-identical
    /// to the lockstep engine.
    pub fn synchronous() -> Self {
        NetConfig {
            delta: 1_000,
            latency: LatencyModel::Constant(0),
            faults: FaultPlan::default(),
            seed: 0,
            schedule: None,
            ordering: DeliveryPolicy::Fifo,
        }
    }

    /// Whether this config is semantically the paper's synchronous
    /// network: zero constant latency, a trivial fault plan, and FIFO
    /// same-instant ordering. Such a config consumes no transport
    /// randomness, so *any* faithful synchronous carrier (the lockstep
    /// engine, [`NetTransport`], a socket transport) produces the same
    /// outcome for the same seed. The seed, delta, and stats schedule do
    /// not affect delivery and are ignored.
    pub fn is_synchronous(&self) -> bool {
        self.latency == LatencyModel::Constant(0)
            && self.faults.is_trivial()
            && self.ordering == DeliveryPolicy::Fifo
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the master seed of the transport's derived stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a protocol timetable for per-phase breakdowns.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the same-instant delivery ordering policy.
    pub fn with_ordering(mut self, ordering: DeliveryPolicy) -> Self {
        self.ordering = ordering;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::synchronous()
    }
}

/// One `send_many` call in flight, stored once however many arrival ticks
/// its recipients spread over. The event queue holds its slot, once for
/// a fast-path fan and once per survivor otherwise.
#[derive(Debug)]
struct Flight<M> {
    /// Narrow (checked at [`NetTransport::launch`]) so that the count
    /// beside it fits in the same word.
    sent_round: u32,
    /// Recipients still in the air; the slot is recycled at zero.
    left: u32,
    from: ProcId,
    /// The caller's list, never written to.
    to: Arc<[ProcId]>,
    payload: M,
}

/// One `send_round` or `send` call in flight: the buffer the round came
/// in, in the slab beside the fans' (a [`Flight`] is one sender and one
/// payload, and pays for neither a `Vec` nor a second kind). Queued once
/// per arrival tick, each entry naming the end of its group.
#[derive(Debug)]
struct RoundFlight<M> {
    sent_round: u32,
    /// Where the first undelivered group starts.
    next: u32,
    /// The survivors, sorted by `(arrival, emission order)`. Empty while
    /// the slot is free — with an allocation worth handing to the next
    /// `send_round` in exchange for its buffer.
    envs: Vec<Envelope<M>>,
}

/// The bit of a queued slot that says it indexes `rounds`, not `flights`.
const ROUND: u32 = 1 << 31;

/// What a fan's one queue entry carries for all of its list: a fast-path
/// fan, which lands whole on one tick. Every recipient is below it.
const WHOLE: u32 = 1 << 31;

/// What a queued slot of `flights` holds.
const LIVE: &str = "a queued slot holds a live flight";

/// Bits of arrival a pass of [`sort_by_arrival`] sorts on: 2¹¹ 4-byte
/// counters, 8 KiB, stay in the L1 cache, and one pass covers a span of
/// 2048 ticks (`Uniform{0,900}`'s 901 in one, 2²² in two).
const DIGIT_BITS: u32 = 11;

/// Sorts `landed` by `(arrival, index)`, what `sort_unstable` gives, for
/// pairs pushed in ascending index: a stable sort on arrival alone keeps
/// that order among equal arrivals. An LSD radix sort on arrival minus
/// the round's earliest, [`DIGIT_BITS`] at a time: a pass counts, sums
/// and scatters, with no comparison, and a jittered round of the
/// engine's spans one pass. A round with fewer than an eighth as many
/// pairs as a pass has counters is sorted by comparison instead: there
/// clearing and summing the counters costs more than the pairs.
fn sort_by_arrival(landed: &mut Vec<(u64, u32)>) {
    let Some(&(first, _)) = landed.first() else {
        return;
    };
    let (lo, hi) = landed
        .iter()
        .fold((first, first), |(lo, hi), &(a, _)| (lo.min(a), hi.max(a)));
    let bits = u64::BITS - (hi - lo).leading_zeros();
    if bits == 0 {
        return; // one arrival: already in index order
    }
    let radix = 1usize << DIGIT_BITS.min(bits);
    if landed.len() < radix / 8 {
        landed.sort_unstable();
        return;
    }
    let mut to = vec![(0, 0); landed.len()];
    let mut counts = vec![0u32; radix];
    for shift in (0..bits).step_by(DIGIT_BITS as usize) {
        let digit = |a: u64| ((a - lo) >> shift) as usize & (radix - 1);
        counts.fill(0);
        for &(a, _) in landed.iter() {
            counts[digit(a)] += 1;
        }
        let mut at = 0;
        for count in &mut counts {
            (*count, at) = (at, at + *count);
        }
        for &pair in landed.iter() {
            let slot = &mut counts[digit(pair.0)];
            to[*slot as usize] = pair;
            *slot += 1;
        }
        std::mem::swap(landed, &mut to);
    }
}

/// Puts `envs` in the order of `landed`, whose indices are a permutation
/// of `0..envs.len()`: `envs[k]` becomes what stood at `landed[k].1`. In
/// place, each cycle followed once; `landed[k].1` is left at `k`.
fn permute<T>(envs: &mut [T], landed: &mut [(u64, u32)]) {
    for first in 0..landed.len() {
        let mut k = first;
        loop {
            let from = landed[k].1 as usize;
            landed[k].1 = k as u32;
            if from == first {
                break;
            }
            envs.swap(k, from);
            k = from;
        }
    }
}

/// Deliveries handed out but not yet charged to the ledger: their
/// sending round, how many, how many of them dead letters. The counters
/// are sums, so one charge for a run of units sent in the same round is
/// the units' charges.
type Run = (u32, u64, u64);

/// What [`NetTransport::drain_round`] hands its sink: one unit of an
/// instant, due now.
enum Due<'a, M> {
    /// Of a fan: the sender, the fan's own list when the group is all of
    /// it, the group, the payload.
    Fan(ProcId, Option<&'a Arc<[ProcId]>>, &'a [ProcId], &'a M),
    /// Of a round: the flight's buffer and the unit's place in it. A sink
    /// may swap the buffer for another when the unit is all of it, and
    /// must otherwise leave it as it is.
    Singles(&'a mut Vec<Envelope<M>>, Range),
}

// The per-recipient cost of a jittered fan is one queue entry, and a
// queue entry is the flight's slot and the recipient and nothing else; a
// field added to it shows up here, not in a memory profile. A fan is 40
// bytes around a `u16`, 56 around a 24-byte message such as `StackMsg`,
// for which `[u64; 3]` stands in here.
const _: () = assert!(std::mem::size_of::<((), Entry)>() == 8);
const _: () = assert!(std::mem::size_of::<Flight<u16>>() <= 40);
const _: () = assert!(std::mem::size_of::<Flight<[u64; 3]>>() <= 56);

/// The timed, faulty network behind the synchronous engine.
///
/// Determinism contract: every random decision (latency samples, random
/// drops) is drawn from one environment stream (xoshiro256++, not a
/// processor's ChaCha12 coin: the net is the test harness, not a party)
/// derived as `derive_env_rng(seed, NET_LABEL)`, consumed in the engine's
/// global emission order — a recipient takes one `u64` for its drop when
/// `drop_prob > 0` and one for its latency unless it is `Constant`;
/// partitions, crashes, and churn are pure functions of `(round,
/// processor ids)`; delivery order is `(arrival, emission order)`,
/// emission order being push order. Runs are therefore
/// byte-identical per seed regardless of how many worker threads run
/// *other* trials around them.
#[derive(Debug)]
pub struct NetTransport<M> {
    cfg: NetConfig,
    /// Per-processor crash round (precomputed from the plan), `usize::MAX`
    /// when the processor never crashes.
    crash_round: Vec<usize>,
    /// Fans with undelivered recipients; `free` lists the empty slots.
    flights: Vec<Option<Flight<M>>>,
    free: Vec<u32>,
    /// Rounds with undelivered envelopes, and the slots whose round is
    /// delivered (their buffers empty).
    rounds: Vec<RoundFlight<M>>,
    free_rounds: Vec<u32>,
    /// [`Entry`]s by arrival tick: a fast-path fan's slot once, any other
    /// fan's once per survivor with the recipient; a round's slot once
    /// per arrival. The queue keeps one instant's events in push
    /// order, and pushes happen in emission order — `send`, `send_many`
    /// and `send_round` run one after another on `&mut self`, a fan's
    /// survivors are pushed in recipient order, and one call puts at most
    /// one run of entries in any instant — so an instant drains in
    /// emission order without a tie key, and a fan's group is a run.
    queue: EventQueue<Entry, ()>,
    rng: EnvRng,
    /// The dedicated ordering stream ([`ORDER_LABEL`]); only the
    /// `Shuffle` policy ever draws from it, once a unit past an instant's
    /// first.
    order_rng: EnvRng,
    /// Every counter, per phase of the sending round. A multicast counts
    /// one per recipient, so batching never changes what it holds.
    ledger: PhaseLedger,
    /// The recipients of an instant's spread-fan groups, gathered from
    /// their runs of entries while the instant drains.
    gathered: Vec<ProcId>,
    /// One-element recipient lists, one per processor, made on first use.
    singles: Vec<Option<Arc<[ProcId]>>>,
    /// Observability handle (attached via [`NetTransport::with_trace`],
    /// never part of [`NetConfig`] so configs stay comparable). Events
    /// aggregate per round; tracing consumes no randomness.
    trace: Trace,
    /// Send-side counters of the round currently being sent — round, its
    /// bucket as they were counted, envelopes, bits, drops — flushed as
    /// one `net:send` event at the next collect or opening phase (or at
    /// `into_ledger`).
    pend: (usize, Option<usize>, u64, u64, u64),
    /// Whether any processor can ever be offline (a crash in the plan or
    /// a churn model); when false, delivered batches skip the
    /// per-recipient dead-letter scan.
    has_offline: bool,
}

impl<M> NetTransport<M> {
    /// Builds the transport for `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.delta == 0`, or if `n` exceeds [`MAX_PROCS`]: bit 31
    /// of a queued recipient marks the entry of a fan's whole list.
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        assert!(cfg.delta > 0, "delta must be at least one tick per round");
        assert!(
            n <= MAX_PROCS,
            "{n} processors: bit 31 of a queued recipient marks a fan's whole list, \
             and a value too wide panics instead of folding"
        );
        let crash_round: Vec<usize> = (0..n)
            .map(|p| cfg.faults.crash_round(p).unwrap_or(usize::MAX))
            .collect();
        let rng = derive_env_rng(cfg.seed, NET_LABEL);
        let order_rng = derive_env_rng(cfg.seed, ORDER_LABEL);
        let ledger = PhaseLedger::new(&cfg);
        let has_offline =
            crash_round.iter().any(|&c| c != usize::MAX) || cfg.faults.churn.is_some();
        NetTransport {
            cfg,
            crash_round,
            flights: Vec::new(),
            free: Vec::new(),
            rounds: Vec::new(),
            free_rounds: Vec::new(),
            queue: EventQueue::new(),
            rng,
            order_rng,
            ledger,
            gathered: Vec::new(),
            singles: Vec::new(),
            trace: Trace::off(),
            pend: (0, None, 0, 0, 0),
            has_offline,
        }
    }

    /// Attaches an observability handle. Lives on the transport, not on
    /// [`NetConfig`], so configs stay `PartialEq`-comparable and trace
    /// wiring can never change which runs compare equal.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        self.ledger.stats()
    }

    /// Flushes the pending send-side counters as one `net:send` event.
    fn flush_send_event(&mut self) {
        let (round, phase, sent, bits, dropped) = self.pend;
        if sent == 0 {
            return;
        }
        self.pend = (0, None, 0, 0, 0);
        let per_phase = &self.ledger.stats().per_phase;
        let phase = phase.map_or("", |b| per_phase[b].name.as_str());
        self.trace.event(
            "net:send",
            round as u64,
            phase,
            &[
                ("sent", sent.into()),
                ("bits", bits.into()),
                ("dropped", dropped.into()),
            ],
        );
    }

    /// Consumes the transport, returning its ledger (the last round's
    /// `net:send` event flushed first).
    pub fn into_ledger(mut self) -> PhaseLedger {
        self.flush_send_event();
        self.ledger
    }

    /// Consumes the transport, returning its statistics.
    pub fn into_stats(self) -> NetStats {
        self.into_ledger().into_stats()
    }

    /// The send-side accounting shared by every `send*` call: `count`
    /// envelopes of `bits` in all enter the wire in `round`.
    fn count_sent(&mut self, round: usize, count: u64, bits: u64) {
        self.ledger.sent(round, count, bits);
        if self.trace.is_on() {
            if self.pend.0 != round {
                self.flush_send_event();
            }
            self.pend.0 = round;
            self.pend.1 = self.ledger.bucket(round);
            self.pend.2 += count;
            self.pend.3 += bits;
        }
    }

    /// Counts one envelope sent in `round` lost on the wire.
    fn count_dropped(&mut self, round: usize, cause: DropCause) {
        self.ledger.dropped(round, cause);
        if self.trace.is_on() {
            self.pend.4 += 1;
        }
    }

    /// Stores a fan with `left` recipients in the air; returns its slot,
    /// which is what the queue holds.
    fn launch(&mut self, round: usize, mc: Multicast<M>, left: u32) -> u32 {
        let flight = Flight {
            sent_round: u32::try_from(round).expect("fewer than 2^32 rounds"),
            left,
            from: mc.from,
            to: mc.to,
            payload: mc.payload,
        };
        match self.free.pop() {
            Some(slot) => {
                let old = self.flights[slot as usize].replace(flight);
                debug_assert!(old.is_none(), "a free slot is empty");
                slot
            }
            None => {
                let slot = Self::fresh_slot(self.flights.len());
                self.flights.push(Some(flight));
                slot
            }
        }
    }

    /// The queue's name for slot `len` of a slab that is about to grow.
    fn fresh_slot(len: usize) -> u32 {
        u32::try_from(len)
            .ok()
            .filter(|slot| slot & ROUND == 0)
            .expect("fewer than 2^31 flights")
    }

    /// Stores a round to deliver, trading `envs` for the slot's spare
    /// buffer; returns what the queue holds for it.
    fn launch_round(&mut self, round: usize, envs: &mut Vec<Envelope<M>>) -> u32 {
        let slot = self.free_rounds.pop().unwrap_or_else(|| {
            let slot = Self::fresh_slot(self.rounds.len());
            self.rounds.push(RoundFlight {
                sent_round: 0,
                next: 0,
                envs: Vec::new(),
            });
            slot
        });
        let flight = &mut self.rounds[slot as usize];
        debug_assert!(flight.envs.is_empty() && flight.next == 0, "a free slot");
        flight.sent_round = u32::try_from(round).expect("fewer than 2^32 rounds");
        std::mem::swap(&mut flight.envs, envs);
        slot | ROUND
    }

    /// The shared one-element recipient list of processor `p`.
    fn single(singles: &mut Vec<Option<Arc<[ProcId]>>>, p: ProcId) -> Arc<[ProcId]> {
        let i = p.index();
        if singles.len() <= i {
            singles.resize(i + 1, None);
        }
        singles[i]
            .get_or_insert_with(|| Arc::from([p].as_slice()))
            .clone()
    }

    /// [`Transport::is_online`] over the fields it reads, and without the
    /// trait's payload bound.
    fn up(crash_round: &[usize], churn: Option<Churn>, round: usize, p: ProcId) -> bool {
        let i = p.index();
        if crash_round.get(i).is_some_and(|&c| round >= c) {
            return false;
        }
        !churn.is_some_and(|c| c.is_down(round, i))
    }

    /// Hands `unit` to `sink`, counted delivered once per recipient, like
    /// one `send` per recipient. The count joins `run`, which is charged
    /// to the ledger when a unit sent in another round comes along (and
    /// once more at the end of the drain). `gathered` is the instant's
    /// spread-fan recipients.
    fn hand_out(
        &mut self,
        round: usize,
        unit: Unit,
        gathered: &[ProcId],
        run: &mut Run,
        sink: &mut impl FnMut(Due<'_, M>),
    ) {
        let fan = |id: u32| self.flights[id as usize].as_ref().expect(LIVE);
        let (sent, due) = match unit {
            Unit::Whole(id) => {
                let flight = fan(id);
                let due = Due::Fan(
                    flight.from,
                    Some(&flight.to),
                    &flight.to[..],
                    &flight.payload,
                );
                (flight.sent_round, due)
            }
            Unit::Group(id, start, end) => {
                let flight = fan(id);
                let group = &gathered[start as usize..end as usize];
                // All of the caller's list on one tick: the list itself.
                let whole = (group.len() == flight.to.len()).then_some(&flight.to);
                (
                    flight.sent_round,
                    Due::Fan(flight.from, whole, group, &flight.payload),
                )
            }
            Unit::Singles(id, start, end) => {
                let flight = &mut self.rounds[(id & !ROUND) as usize];
                let due = Due::Singles(&mut flight.envs, start as usize..end as usize);
                (flight.sent_round, due)
            }
        };
        // The wire did its job, but a recipient that is dead or churned
        // out this round will never read the message.
        let (crash_round, churn) = (&self.crash_round, self.cfg.faults.churn);
        let down = |p: ProcId| !Self::up(crash_round, churn, round, p);
        let dead = match &due {
            _ if !self.has_offline => 0,
            Due::Fan(_, _, group, _) => group.iter().filter(|&&p| down(p)).count(),
            Due::Singles(envs, unit) => envs[unit.clone()].iter().filter(|e| down(e.to)).count(),
        };
        let count = match &due {
            Due::Fan(_, _, group, _) => group.len(),
            Due::Singles(_, unit) => unit.len(),
        };
        if run.0 != sent {
            Self::charge(&mut self.ledger, round, run);
        }
        *run = (sent, run.1 + count as u64, run.2 + dead as u64);
        sink(due);
    }

    /// Charges `run`'s deliveries to the ledger and empties it.
    fn charge(ledger: &mut PhaseLedger, round: usize, run: &mut Run) {
        let (sent, count, dead) = std::mem::take(run);
        if count > 0 {
            ledger.delivered(round, sent as usize, count, dead);
        }
    }

    /// Puts the slot of a flight whose last group has been handed out back
    /// on its free list; a round's keeps its buffer's allocation.
    fn recycle(&mut self, id: u32) {
        if id & ROUND != 0 {
            let flight = &mut self.rounds[(id & !ROUND) as usize];
            flight.envs.clear();
            flight.next = 0;
            self.free_rounds.push(id & !ROUND);
        } else {
            self.flights[id as usize] = None;
            self.free.push(id);
        }
    }

    /// The shared body of the `collect*` calls: drains everything due at
    /// `round`, does all per-recipient accounting, and hands each unit to
    /// `sink` in delivery order.
    fn drain_round(&mut self, round: usize, mut sink: impl FnMut(Due<'_, M>)) {
        // Everything that arrived by this round's opening tick is due.
        // (Nothing sent in round r can arrive before r·delta, and collect
        // for round r runs before round r's sends, so the r+1 floor is
        // structural.) Batched: a whole same-arrival bucket detaches at
        // once instead of one pop per envelope.
        let now = (round as u64).saturating_mul(self.cfg.delta);
        // Close out the previous round's send-side counters first, so
        // the trace reads send → deliver in timeline order.
        if self.trace.is_on() {
            self.flush_send_event();
        }
        let stats = self.ledger.stats();
        let before = (stats.delivered, stats.late, stats.dead_letters);
        let ordering = self.cfg.ordering;
        // An instant's units where a policy reorders them, the flights
        // whose last group the instant holds, and its fans' groups.
        let (mut units, mut spent) = (Vec::new(), Vec::new());
        let mut gathered = std::mem::take(&mut self.gathered);
        let mut run = Run::default();
        while let Some((_, entries)) = self.queue.pop_instant(now) {
            // Every group due now, rebuilt in calendar order.
            let mut entries = entries.peekable();
            while let Some((id, arg)) = entries.next() {
                let unit = if id & ROUND != 0 {
                    let flight = &mut self.rounds[(id & !ROUND) as usize];
                    let start = std::mem::replace(&mut flight.next, arg);
                    if arg as usize == flight.envs.len() {
                        spent.push(id);
                    }
                    Unit::Singles(id, start, arg)
                } else if arg == WHOLE {
                    spent.push(id);
                    Unit::Whole(id)
                } else {
                    // The fan's run of entries in this instant.
                    let start = gathered.len();
                    gathered.push(ProcId::new(arg as usize));
                    while let Some((_, p)) = entries.next_if(|&(next, _)| next == id) {
                        gathered.push(ProcId::new(p as usize));
                    }
                    let flight = self.flights[id as usize].as_mut().expect(LIVE);
                    flight.left -= (gathered.len() - start) as u32;
                    if flight.left == 0 {
                        spent.push(id);
                    }
                    Unit::Group(id, start as u32, gathered.len() as u32)
                };
                match unit {
                    // The calendar's order: a group leaves once rebuilt.
                    _ if ordering == DeliveryPolicy::Fifo => {
                        self.hand_out(round, unit, &gathered, &mut run, &mut sink)
                    }
                    Unit::Singles(id, start, end) => {
                        units.extend((start..end).map(|k| Unit::Singles(id, k, k + 1)))
                    }
                    _ => units.push(unit),
                }
            }
            ordering.order(&mut units, &mut self.order_rng);
            for unit in units.drain(..) {
                self.hand_out(round, unit, &gathered, &mut run, &mut sink);
            }
            gathered.clear();
            for id in spent.drain(..) {
                self.recycle(id);
            }
        }
        self.gathered = gathered;
        // The last run, before `net:recv` reads what was delivered.
        Self::charge(&mut self.ledger, round, &mut run);
        if self.trace.is_on() {
            let stats = self.ledger.stats();
            let delivered = stats.delivered - before.0;
            if delivered > 0 {
                self.trace.event(
                    "net:recv",
                    round as u64,
                    "",
                    &[
                        ("delivered", delivered.into()),
                        ("late", (stats.late - before.1).into()),
                        ("dead_letters", (stats.dead_letters - before.2).into()),
                    ],
                );
            }
        }
    }
}

impl<M: Payload> Transport<M> for NetTransport<M> {
    /// A round of one.
    fn send(&mut self, round: usize, env: Envelope<M>) {
        self.send_round(round, &mut vec![env]);
    }

    /// Accepts a whole fan as one call, byte-identical to its unbatched
    /// expansion in every counter and RNG draw, and delivered at the same
    /// ticks — but the fan is stored once, and queue volume is one 4-byte
    /// slot per same-arrival group instead of one payload copy per
    /// recipient. A group is one unit of its instant, which a reordering
    /// policy moves whole.
    fn send_many(&mut self, round: usize, mc: Multicast<M>) {
        if mc.to.is_empty() {
            return;
        }
        let len = u32::try_from(mc.to.len()).expect("fewer than 2^32 recipients");
        let count = u64::from(len);
        self.count_sent(round, count, count * mc.payload.bit_len());
        let sent = (round as u64).saturating_mul(self.cfg.delta);
        // Fast path: a wire that loses nothing this round and constant
        // latency make every per-recipient decision identical without
        // touching the RNG (partition checks are pure, drops only draw
        // when drop_prob > 0, Constant sampling is draw-free), so the
        // whole fan stays one queue entry, at its place in emission
        // order. Crashed and churned-out recipients are dead letters at
        // delivery, on every path.
        if self.cfg.faults.is_lossless_in(round) {
            if let LatencyModel::Constant(d) = self.cfg.latency {
                let flight = self.launch(round, mc, len);
                self.queue.push(sent.saturating_add(d), (), (flight, WHOLE));
                return;
            }
        }
        // Slow path: replay the exact per-recipient decisions of the
        // unbatched expansion — the same drop and latency draws, from
        // the same stream, in recipient order — and push each survivor
        // straight into its arrival tick. A tick's survivors of this fan
        // are one run of entries there, in recipient order, after every
        // earlier send's and before any later one's: the expansion's
        // same-instant FIFO order, with no sort.
        let (from, to) = (mc.from.index(), Arc::clone(&mc.to));
        let flight = self.launch(round, mc, 0);
        let mut left = 0;
        for &p in to.iter() {
            if let Some(cause) = self
                .cfg
                .faults
                .dropped(round, from, p.index(), &mut self.rng)
            {
                self.count_dropped(round, cause);
                continue;
            }
            let latency = self.cfg.latency.sample(&mut self.rng);
            assert!(p.index() < MAX_PROCS, "{p} would read as a whole fan");
            let arg = p.index() as u32;
            self.queue
                .push(sent.saturating_add(latency), (), (flight, arg));
            left += 1;
        }
        match left {
            0 => self.recycle(flight),
            _ => self.flights[flight as usize].as_mut().expect(LIVE).left = left,
        }
    }

    /// Accepts a whole round as one flight, byte-identical to one `send`
    /// per envelope: the same counters, the same RNG draws in the same
    /// order, the same delivery schedule under every policy — but the
    /// round stays in the buffer it came in, queued once per distinct
    /// arrival tick, and `envs` comes back empty with the allocation of a
    /// round already delivered.
    fn send_round(&mut self, round: usize, envs: &mut Vec<Envelope<M>>) {
        if envs.is_empty() {
            return;
        }
        let bits = envs.iter().map(Envelope::bit_len).sum();
        self.count_sent(round, envs.len() as u64, bits);
        let sent = (round as u64).saturating_mul(self.cfg.delta);
        // Constant latency lands the whole round on one tick, in the
        // order it came in: nothing to sort, nothing to note per envelope.
        let one_tick = match self.cfg.latency {
            LatencyModel::Constant(d) => Some(sent.saturating_add(d)),
            _ => None,
        };
        // The drop and latency draws of one `send` per envelope, in
        // emission order (`retain` visits in order, each envelope once).
        // The `(arrival, index)` pairs to sort by are as many as the
        // round and are not kept past it: a round in the air costs its
        // envelopes, not half as much again in scratch.
        let pairs = if one_tick.is_some() { 0 } else { envs.len() };
        let mut landed: Vec<(u64, u32)> = Vec::with_capacity(pairs);
        if one_tick.is_none() || !self.cfg.faults.is_lossless_in(round) {
            envs.retain(|e| {
                let (from, to) = (e.from.index(), e.to.index());
                if let Some(cause) = self.cfg.faults.dropped(round, from, to, &mut self.rng) {
                    self.count_dropped(round, cause);
                    return false;
                }
                if one_tick.is_none() {
                    let latency = self.cfg.latency.sample(&mut self.rng);
                    landed.push((sent.saturating_add(latency), landed.len() as u32));
                }
                true
            });
        }
        if let Some(last) = envs.len().checked_sub(1) {
            let len = u32::try_from(envs.len()).expect("fewer than 2^32 envelopes a round");
            // Survivors sharing an arrival keep emission order: the index
            // breaks ties. The round moves once, within its own buffer.
            sort_by_arrival(&mut landed);
            permute(envs, &mut landed);
            let flight = self.launch_round(round, envs);
            // One queue entry per distinct arrival, in ascending arrival,
            // each saying where its group ends.
            match one_tick {
                Some(arrival) => self.queue.push(arrival, (), (flight, len)),
                None => (0..=last)
                    .filter(|&k| k == last || landed[k + 1].0 != landed[k].0)
                    .for_each(|k| self.queue.push(landed[k].0, (), (flight, k as u32 + 1))),
            }
        }
    }

    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        self.drain_round(round, |due| match due {
            Due::Fan(from, _, group, payload) => {
                for &p in group {
                    deliver(Envelope::new(from, p, payload.clone()));
                }
            }
            Due::Singles(envs, group) => envs[group].iter().cloned().for_each(&mut *deliver),
        });
    }

    /// Lends each unit as it leaves the drain: a fan's group is the
    /// slice it was gathered in (or the caller's list, when whole), an
    /// envelope of a round its own recipient.
    fn collect_lent(&mut self, round: usize, deliver: &mut dyn FnMut(ProcId, &[ProcId], &M)) {
        self.drain_round(round, |due| match due {
            Due::Fan(from, _, group, payload) => deliver(from, group, payload),
            Due::Singles(envs, group) => {
                for e in &envs[group] {
                    deliver(e.from, std::slice::from_ref(&e.to), &e.payload);
                }
            }
        });
    }

    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<M>)) {
        let mut singles = std::mem::take(&mut self.singles);
        self.drain_round(round, |due| match due {
            Due::Fan(from, whole, group, payload) => {
                // A whole fan keeps its own list; a lone recipient shares
                // its processor's; only a partial group of several
                // allocates.
                let to = match (whole, group) {
                    (Some(list), _) => list.clone(),
                    (None, &[p]) => Self::single(&mut singles, p),
                    (None, group) => group.into(),
                };
                let payload = payload.clone();
                deliver(Multicast { from, to, payload });
            }
            Due::Singles(envs, group) => {
                for e in &envs[group] {
                    deliver(Multicast {
                        from: e.from,
                        to: Self::single(&mut singles, e.to),
                        payload: e.payload.clone(),
                    });
                }
            }
        });
        self.singles = singles;
    }

    /// Appends what is due, and trades buffers instead when there is
    /// nothing to append to and a round of singles comes back whole: the
    /// allocation the engine sent a round in is the one it reads it from.
    fn collect_round(&mut self, round: usize, into: &mut Vec<Envelope<M>>) {
        self.drain_round(round, |due| match due {
            Due::Fan(from, _, group, payload) => {
                into.extend(
                    group
                        .iter()
                        .map(|&p| Envelope::new(from, p, payload.clone())),
                );
            }
            Due::Singles(envs, group) if into.is_empty() && group.len() == envs.len() => {
                std::mem::swap(envs, into);
            }
            Due::Singles(envs, group) => into.extend_from_slice(&envs[group]),
        });
    }

    fn is_online(&self, round: usize, p: ProcId) -> bool {
        Self::up(&self.crash_round, self.cfg.faults.churn, round, p)
    }

    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.crash_round.get(p.index()).is_some_and(|&c| round >= c)
    }

    /// Hands the announcement to the [`PhaseLedger`] (a configured
    /// schedule wins; a repeat of the running phase coalesces). Marks
    /// consume no randomness: stats bucketing can never perturb delivery.
    fn mark_phase(&mut self, round: usize, name: &str) {
        if self.ledger.mark(round, name) {
            // Flush the previous phase's send counters before the span
            // event so trace lines stay in timeline order.
            if self.trace.is_on() {
                self.flush_send_event();
            }
            self.trace.event("net:phase", round as u64, name, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Churn, Crash, Partition};

    fn env(from: usize, to: usize, v: u16) -> Envelope<u16> {
        Envelope::new(ProcId::new(from), ProcId::new(to), v)
    }

    fn drain(t: &mut NetTransport<u16>, round: usize) -> Vec<u16> {
        let mut got = Vec::new();
        t.collect(round, &mut |e| got.push(e.payload));
        got
    }

    /// Envelopes in the air: sent, and neither dropped nor delivered.
    fn in_flight<M>(t: &NetTransport<M>) -> u64 {
        let s = t.stats();
        s.sent - s.dropped() - s.delivered
    }

    #[test]
    fn zero_latency_is_next_round_in_emission_order() {
        let mut t = NetTransport::new(4, NetConfig::synchronous());
        // Engine call order: collect for round r, then round r's sends.
        assert!(drain(&mut t, 0).is_empty());
        t.send(0, env(0, 1, 10));
        t.send(0, env(1, 1, 11));
        t.send(0, env(2, 1, 12));
        assert_eq!(drain(&mut t, 1), vec![10, 11, 12]);
        assert_eq!(t.stats().late, 0);
        assert_eq!(t.stats().delivered, 3);
    }

    #[test]
    fn latency_beyond_delta_is_late() {
        let cfg = NetConfig::synchronous().with_latency(LatencyModel::Constant(2_500));
        let mut t = NetTransport::new(2, cfg);
        t.send(0, env(0, 1, 7));
        assert!(drain(&mut t, 1).is_empty());
        assert!(drain(&mut t, 2).is_empty());
        assert_eq!(drain(&mut t, 3), vec![7]); // arrival 2500 ≤ 3000
        assert_eq!(t.stats().late, 1);
        assert_eq!(t.stats().late_rounds, 2);
        assert!((t.stats().late_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_drops_cross_traffic_and_heals() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            partitions: vec![Partition {
                boundary: 1,
                from_round: 0,
                heal_round: 2,
            }],
            ..FaultPlan::default()
        });
        let mut t = NetTransport::new(2, cfg);
        t.send(0, env(0, 1, 1)); // severed
        t.send(0, env(1, 1, 2)); // same side, survives
        assert_eq!(drain(&mut t, 1), vec![2]);
        t.send(2, env(0, 1, 3)); // healed
        assert_eq!(drain(&mut t, 3), vec![3]);
        assert_eq!(t.stats().dropped_partition, 1);
        assert_eq!(t.stats().dropped(), 1);
    }

    #[test]
    fn crash_and_churn_drive_online_and_faulty() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            crashes: vec![Crash { proc: 0, round: 5 }],
            churn: Some(Churn {
                period: 4,
                down: 1,
                stagger: 0,
            }),
            ..FaultPlan::default()
        });
        let t: NetTransport<u16> = NetTransport::new(3, cfg);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        assert!(t.is_online(4, p0));
        assert!(!t.is_online(5, p0), "crashed");
        assert!(t.is_faulty(5, p0));
        assert!(!t.is_faulty(4, p0));
        // Churn: down when round % 4 == 3, back afterwards.
        assert!(!t.is_online(3, p1));
        assert!(t.is_online(4, p1));
        assert!(!t.is_faulty(3, p1), "churn is not a permanent fault");
    }

    #[test]
    fn per_phase_buckets_key_on_sending_round() {
        let mut schedule = Schedule::new();
        schedule.push("first", 2);
        schedule.push("second", 2);
        let cfg = NetConfig::synchronous()
            .with_schedule(schedule)
            .with_latency(LatencyModel::Constant(1_500));
        let mut t = NetTransport::new(2, cfg);
        t.send(1, env(0, 1, 1)); // "first", will be late (arrival 2500 → round 3)
        t.send(2, env(0, 1, 2)); // "second"
        t.send(9, env(0, 1, 3)); // past the timetable
        let _ = drain(&mut t, 3);
        let _ = drain(&mut t, 4);
        let _ = drain(&mut t, 11);
        let stats = t.into_stats();
        assert_eq!(stats.per_phase.len(), 3);
        assert_eq!(stats.per_phase[0].name, "first");
        assert_eq!(stats.per_phase[0].sent, 1);
        assert_eq!(stats.per_phase[0].late, 1);
        assert_eq!(stats.per_phase[1].sent, 1);
        assert_eq!(stats.per_phase[2].name, "(past-schedule)");
        assert_eq!(stats.per_phase[2].sent, 1);
        assert_eq!(stats.sent, 3);
        assert_eq!(stats.in_flight_at_end, 0);
    }

    #[test]
    fn mark_phase_derives_a_timetable() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            partitions: vec![Partition {
                boundary: 1,
                from_round: 2,
                heal_round: 4,
            }],
            ..FaultPlan::default()
        });
        let mut t = NetTransport::new(2, cfg);
        t.mark_phase(0, "expose");
        t.send(0, env(0, 1, 1));
        let _ = drain(&mut t, 1);
        t.mark_phase(1, "winners");
        t.send(1, env(0, 1, 2));
        let _ = drain(&mut t, 2);
        t.mark_phase(2, "coin");
        t.mark_phase(3, "coin"); // repeated announcement coalesces
        t.send(2, env(0, 1, 3)); // severed: partition active in rounds 2..4
        t.send(3, env(0, 1, 4)); // severed
        let _ = drain(&mut t, 4);
        let stats = t.into_stats();
        let names: Vec<&str> = stats.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["expose", "winners", "coin"]);
        assert_eq!(stats.per_phase[0].sent, 1);
        assert_eq!(stats.per_phase[1].sent, 1);
        assert_eq!(stats.per_phase[2].sent, 2);
        assert_eq!(stats.per_phase[2].dropped_partition, 2);
        assert_eq!(stats.per_phase[0].dropped_partition, 0);
    }

    #[test]
    fn configured_schedule_wins_over_marks() {
        let mut schedule = Schedule::new();
        schedule.push("configured", 4);
        let cfg = NetConfig::synchronous().with_schedule(schedule);
        let mut t = NetTransport::new(2, cfg);
        t.mark_phase(0, "derived");
        t.send(0, env(0, 1, 1));
        let stats = t.into_stats();
        let names: Vec<&str> = stats.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["configured", "(past-schedule)"]);
        assert_eq!(stats.per_phase[0].sent, 1);
    }

    #[test]
    fn ordering_policies_only_permute_same_instant_batches() {
        let run = |ordering: DeliveryPolicy| {
            let mut t = NetTransport::new(4, NetConfig::synchronous().with_ordering(ordering));
            for i in 0..4 {
                t.send(0, env(i, 0, i as u16));
            }
            drain(&mut t, 1)
        };
        assert_eq!(run(DeliveryPolicy::Fifo), vec![0, 1, 2, 3]);
        assert_eq!(run(DeliveryPolicy::AdversarialLifo), vec![3, 2, 1, 0]);
        let shuffled = run(DeliveryPolicy::Shuffle);
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "shuffle is a permutation");
        assert_eq!(shuffled, run(DeliveryPolicy::Shuffle), "seeded");
    }

    #[test]
    fn ordering_stream_is_independent_of_drops_and_latency() {
        // Switching the policy must not change which messages drop:
        // the ordering stream is dedicated, not shared with NET_LABEL.
        let lossy = |ordering: DeliveryPolicy| {
            let cfg = NetConfig::synchronous()
                .with_ordering(ordering)
                .with_faults(FaultPlan {
                    drop_prob: 0.4,
                    ..FaultPlan::default()
                });
            let mut t = NetTransport::new(8, cfg);
            for r in 0..4usize {
                for i in 0..8 {
                    t.send(r, env(i, (i + 1) % 8, (r * 8 + i) as u16));
                }
                let _ = drain(&mut t, r + 1);
            }
            let stats = t.into_stats();
            (stats.dropped_random, stats.delivered)
        };
        let fifo = lossy(DeliveryPolicy::Fifo);
        assert_eq!(fifo, lossy(DeliveryPolicy::AdversarialLifo));
        assert_eq!(fifo, lossy(DeliveryPolicy::Shuffle));
        assert!(fifo.0 > 0, "drops must fire for the test to mean anything");
    }

    #[test]
    fn deliveries_to_crashed_receivers_are_dead_letters() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            crashes: vec![Crash { proc: 1, round: 2 }],
            ..FaultPlan::default()
        });
        let mut t = NetTransport::new(3, cfg);
        t.send(0, env(2, 1, 1)); // arrives round 1: receiver still up
        assert_eq!(drain(&mut t, 1), vec![1]);
        t.send(1, env(2, 1, 2)); // arrives round 2: receiver crashed
        assert_eq!(drain(&mut t, 2), vec![2], "wire still delivers");
        assert_eq!(t.stats().dead_letters, 1);
        assert_eq!(t.stats().delivered, 2);
        // Dead letters count as loss for reporting purposes.
        assert!((t.stats().loss_rate() - 0.5).abs() < 1e-12);
    }

    /// Crash faults flow through to `RunOutcome::faulty`, so the
    /// engine's agreement helpers exclude crashed processors without
    /// callers re-deriving liveness from the fault plan.
    #[test]
    fn run_outcome_reports_crashed_processors_as_faulty() {
        use ba_sim::{NullAdversary, Process, RoundCtx, SimBuilder};

        /// Broadcast-once / majority-decide toy protocol.
        struct Echo(bool, Option<bool>);
        impl Process for Echo {
            type Msg = bool;
            type Output = bool;
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, bool>, inbox: &[Envelope<bool>]) {
                match ctx.round() {
                    0 => {
                        for p in ctx.all_procs() {
                            ctx.send(p, self.0);
                        }
                    }
                    1 => {
                        self.1 = Some(inbox.iter().filter(|e| e.payload).count() * 2 > inbox.len())
                    }
                    _ => {}
                }
            }
            fn output(&self) -> Option<bool> {
                self.1
            }
        }

        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            crashes: vec![Crash { proc: 0, round: 0 }],
            ..FaultPlan::default()
        });
        let outcome = SimBuilder::new(4)
            .build_with_transport(
                |_, _| Echo(true, None),
                NullAdversary,
                NetTransport::new(4, cfg),
            )
            .run(5);
        assert_eq!(outcome.faulty, vec![true, false, false, false]);
        assert!(
            outcome.outputs[0].is_none(),
            "crashed at round 0, never ran"
        );
        // The agreement helpers hold the three live processors to
        // agreement — and only them.
        assert_eq!(outcome.good_count(), 3);
        assert!(outcome.all_good_agree_on(&true));
        assert_eq!(outcome.good_agreement_fraction(), 1.0);
    }

    #[test]
    fn per_phase_sent_bits_cover_every_send() {
        let mut t = NetTransport::new(2, NetConfig::synchronous());
        t.mark_phase(0, "a");
        t.send(0, env(0, 1, 1)); // u16 payload: 16 bits
        t.send(0, env(1, 0, 2));
        t.mark_phase(1, "b");
        t.send(1, env(0, 1, 3));
        let _ = drain(&mut t, 1);
        let _ = drain(&mut t, 2);
        let ledger = t.into_ledger();
        assert_eq!(
            ledger.phase_marks(),
            vec![("a".to_string(), 0), ("b".to_string(), 1)],
            "derived timetable exposed for bit attribution"
        );
        let stats = ledger.into_stats();
        assert_eq!(stats.per_phase[0].sent_bits, 32);
        assert_eq!(stats.per_phase[1].sent_bits, 16);
        let phase_total: u64 = stats.per_phase.iter().map(|p| p.sent_bits).sum();
        assert_eq!(phase_total, 48, "phase bits sum to everything sent");
    }

    #[test]
    fn traced_transport_emits_aggregated_events_and_changes_nothing() {
        use ba_obs::Trace;
        let run = |trace: Trace| {
            let cfg = NetConfig::synchronous()
                .with_seed(5)
                .with_faults(FaultPlan {
                    drop_prob: 0.3,
                    ..FaultPlan::default()
                });
            let mut t = NetTransport::new(4, cfg).with_trace(trace);
            t.mark_phase(0, "x");
            let mut got = Vec::new();
            for r in 0..3usize {
                for i in 0..4 {
                    t.send(r, env(i, (i + 1) % 4, (r * 4 + i) as u16));
                }
                t.collect(r + 1, &mut |e| got.push(e.payload));
            }
            (got, t.into_stats())
        };
        let (plain, plain_stats) = run(Trace::off());
        let trace = Trace::memory();
        let (traced, traced_stats) = run(trace.clone());
        assert_eq!(plain, traced, "tracing must not perturb delivery");
        assert_eq!(plain_stats.dropped_random, traced_stats.dropped_random);
        let lines = trace.take_lines();
        assert!(lines[0].starts_with("{\"kind\": \"net:phase\""));
        let sends: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("{\"kind\": \"net:send\""))
            .collect();
        assert_eq!(sends.len(), 3, "one aggregated event per sending round");
        assert!(sends[0].contains("\"sent\": 4"));
        assert!(sends[0].contains("\"phase\": \"x\""));
        let recvs = lines
            .iter()
            .filter(|l| l.starts_with("{\"kind\": \"net:recv\""))
            .count();
        assert!(recvs >= 1, "deliveries must be summarized");
    }

    #[test]
    fn phase_marks_reflect_configured_schedule() {
        let mut schedule = Schedule::new();
        schedule.push("one", 2);
        schedule.push("two", 3);
        let t: NetTransport<u16> =
            NetTransport::new(2, NetConfig::synchronous().with_schedule(schedule));
        assert_eq!(
            t.into_ledger().phase_marks(),
            vec![
                ("one".to_string(), 0),
                ("two".to_string(), 2),
                ("(past-schedule)".to_string(), 5),
            ]
        );
    }

    #[test]
    fn send_many_is_byte_identical_to_its_expansion() {
        // Lossy links, jittery latency, a partition, and a crash all at
        // once: the batched path must make the same per-recipient
        // decisions from the same RNG stream as the per-envelope loop,
        // so delivery sequences and every stats field coincide.
        let cfg = || {
            NetConfig::synchronous()
                .with_seed(11)
                .with_latency(LatencyModel::Uniform { lo: 0, hi: 2_200 })
                .with_faults(FaultPlan {
                    drop_prob: 0.25,
                    partitions: vec![Partition {
                        boundary: 3,
                        from_round: 1,
                        heal_round: 3,
                    }],
                    crashes: vec![Crash { proc: 2, round: 2 }],
                    ..FaultPlan::default()
                })
        };
        let recipients: Arc<[ProcId]> = (0..6).map(ProcId::new).collect();
        let run = |batched: bool| {
            let mut t: NetTransport<u16> = NetTransport::new(6, cfg());
            t.mark_phase(0, "x");
            let mut got = Vec::new();
            for r in 0..8usize {
                t.collect(r, &mut |e| {
                    got.push((r, e.from.index(), e.to.index(), e.payload))
                });
                if r >= 4 {
                    continue;
                }
                let mc = Multicast {
                    from: ProcId::new(r % 6),
                    to: recipients.clone(),
                    payload: (r * 10) as u16,
                };
                if batched {
                    t.send_many(r, mc);
                } else {
                    for &to in mc.to.iter() {
                        t.send(r, Envelope::new(mc.from, to, mc.payload));
                    }
                }
            }
            (got, t.into_stats())
        };
        let (a, sa) = run(true);
        let (b, sb) = run(false);
        assert_eq!(a, b, "delivery sequence must match the expansion");
        assert!(
            sa.dropped() > 0 && sa.late > 0 && sa.dead_letters > 0,
            "config must exercise every counter: {sa:?}"
        );
        assert_eq!(
            format!("{sa:?}"),
            format!("{sb:?}"),
            "stats must match field for field"
        );
    }

    #[test]
    fn synchronous_send_many_stays_one_batch_through_collect_many() {
        let mut t: NetTransport<u16> = NetTransport::new(4, NetConfig::synchronous());
        let to: Arc<[ProcId]> = (0..4).map(ProcId::new).collect();
        t.send_many(
            0,
            Multicast {
                from: ProcId::new(0),
                to,
                payload: 5,
            },
        );
        assert_eq!(t.stats().sent, 4, "counts stay per recipient");
        let mut batches = Vec::new();
        t.collect_many(1, &mut |b| batches.push((b.to.len(), b.payload)));
        assert_eq!(batches, vec![(4, 5)], "the fan survives as one batch");
        let stats = t.into_stats();
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.in_flight_at_end, 0);
    }

    /// The golden mix's net: two ticks a round, latencies a few ticks
    /// wide so recipients of one fan share arrival ticks, collide with
    /// other fans and straddle rounds, and a fifth of the recipients lost.
    fn mix_config(ordering: DeliveryPolicy) -> NetConfig {
        NetConfig {
            delta: 2,
            ..NetConfig::synchronous()
        }
        .with_seed(29)
        .with_ordering(ordering)
        .with_latency(LatencyModel::Uniform { lo: 0, hi: 5 })
        .with_faults(FaultPlan {
            drop_prob: 0.2,
            ..FaultPlan::default()
        })
    }

    /// Round `r`'s sends in the golden mix (rounds 0 to 3): two fans with
    /// a single send between and after them. The payload `100·k + r` is
    /// the round's `k`-th send, so it names the send's emission order.
    fn send_mix(t: &mut NetTransport<u16>, r: usize) {
        let ids = |v: &[usize]| -> Arc<[ProcId]> { v.iter().map(|&i| ProcId::new(i)).collect() };
        let fan = |from: usize, to: Arc<[ProcId]>, payload: usize| Multicast {
            from: ProcId::new(from % 6),
            to,
            payload: payload as u16,
        };
        t.send_many(r, fan(r, ids(&[0, 1, 2, 3, 4, 5]), 100 + r));
        t.send(r, env((r + 1) % 6, (r + 2) % 6, 200 + r as u16));
        t.send_many(r, fan(r + 3, ids(&[1, 3, 5]), 300 + r));
        t.send(r, env((r + 4) % 6, r % 6, 400 + r as u16));
    }

    /// One line per delivered batch, `round:from>recipients=payload`, of
    /// the golden mix, collected every round.
    fn golden_mix(ordering: DeliveryPolicy) -> Vec<String> {
        let run = |batches: bool| {
            let mut t: NetTransport<u16> = NetTransport::new(6, mix_config(ordering));
            let mut lines = Vec::new();
            for r in 0..8usize {
                let mut line = |from: ProcId, to: &[ProcId], payload: u16| {
                    let to: Vec<String> = to.iter().map(|p| p.index().to_string()).collect();
                    lines.push(format!("{r}:{}>{}={payload}", from.index(), to.join(",")));
                };
                if batches {
                    t.collect_many(r, &mut |b| line(b.from, &b.to, b.payload));
                } else {
                    t.collect(r, &mut |e| line(e.from, &[e.to], e.payload));
                }
                if r < 4 {
                    send_mix(&mut t, r);
                }
            }
            assert_eq!(t.into_stats().in_flight_at_end, 0);
            lines
        };
        // The per-envelope view is the batch view, recipient by recipient.
        let batches = run(true);
        let unbatched: Vec<String> = batches
            .iter()
            .flat_map(|line| {
                let (head, payload) = line.split_once('=').expect("a payload");
                let (head, to) = head.split_once('>').expect("recipients");
                to.split(',').map(move |p| format!("{head}>{p}={payload}"))
            })
            .collect();
        assert_eq!(run(false), unbatched);
        batches
    }

    /// The golden mix's calendar, read off a twin that sends every round
    /// and never collects: what each drain pops, in drain order, as the
    /// units it holds in queue order — a fan's group or a single, each
    /// written as the line it is delivered as. A tick falls due in the
    /// first round whose opening tick reaches it, but never in the round
    /// it was sent in (that round's collect ran first), so a tick on a
    /// round boundary is popped twice: what earlier rounds sent to it,
    /// then what its own round sent.
    fn mix_calendar() -> Vec<Vec<String>> {
        let cfg = mix_config(DeliveryPolicy::Fifo);
        let delta = cfg.delta;
        let mut t: NetTransport<u16> = NetTransport::new(6, cfg);
        (0..4).for_each(|r| send_mix(&mut t, r));
        let mut pops: Vec<((u64, u64), Vec<String>)> = Vec::new();
        while let Some((tick, entries)) = t.queue.pop_instant(u64::MAX) {
            let mut entries = entries.peekable();
            while let Some((id, arg)) = entries.next() {
                let (sent, from, to, payload) = if id & ROUND != 0 {
                    let flight = &mut t.rounds[(id & !ROUND) as usize];
                    let start = std::mem::replace(&mut flight.next, arg) as usize;
                    let [e] = &flight.envs[start..arg as usize] else {
                        panic!("every round of the mix is one single")
                    };
                    (flight.sent_round, e.from, vec![e.to], e.payload)
                } else {
                    let mut to = vec![ProcId::new(arg as usize)];
                    while let Some((_, p)) = entries.next_if(|&(next, _)| next == id) {
                        to.push(ProcId::new(p as usize));
                    }
                    let flight = t.flights[id as usize].as_ref().expect(LIVE);
                    (flight.sent_round, flight.from, to, flight.payload)
                };
                let due = tick.div_ceil(delta).max(u64::from(sent) + 1);
                let to: Vec<String> = to.iter().map(|p| p.index().to_string()).collect();
                let line = format!("{due}:{}>{}={payload}", from.index(), to.join(","));
                match pops.last_mut() {
                    Some((at, units)) if *at == (due, tick) => units.push(line),
                    _ => pops.push(((due, tick), vec![line])),
                }
            }
        }
        // Stable: a tick's two pops keep their order.
        pops.sort_by_key(|&(at, _)| at);
        pops.into_iter().map(|(_, units)| units).collect()
    }

    /// Delivery order under every policy, recorded on the environment
    /// streams (the layout itself was first recorded before flights and
    /// handles, 9d84651): which recipients of a fan travel together, where
    /// the groups fall among other traffic of the same tick, and that
    /// `AdversarialLifo` and `Shuffle` move a group as a unit — with the
    /// `ORDER_LABEL` draws `Shuffle` makes for them. A change of stream
    /// re-records the strings; the calendar checks after them hold on any.
    #[test]
    fn delivery_order_is_pinned_under_every_policy() {
        let golden = [
            (
                DeliveryPolicy::Fifo,
                "1:1>2=200 1:3>1,3=300 1:0>0,5=100 1:4>0=400 2:1>2,5=101 2:0>2,3=100 \
                 2:0>1,4=100 2:1>0=101 2:2>3=201 3:2>0=102 3:3>4=202 3:5>1,3=302 \
                 3:3>5=300 3:4>3=301 3:2>5=102 3:1>1,3=101 3:4>5=301 3:5>1=401 \
                 4:3>1=103 4:1>4=101 4:2>1=102 4:0>2=402 4:3>2=103 4:3>3,5=103 \
                 4:4>5=203 5:0>3=303 5:1>3=403 5:0>5=303 6:3>0=103 6:0>1=303",
            ),
            (
                DeliveryPolicy::AdversarialLifo,
                "1:3>1,3=300 1:1>2=200 1:4>0=400 1:0>0,5=100 2:1>2,5=101 2:0>2,3=100 \
                 2:2>3=201 2:1>0=101 2:0>1,4=100 3:5>1,3=302 3:3>4=202 3:2>0=102 \
                 3:2>5=102 3:4>3=301 3:3>5=300 3:5>1=401 3:4>5=301 3:1>1,3=101 \
                 4:3>1=103 4:3>2=103 4:0>2=402 4:2>1=102 4:1>4=101 4:4>5=203 \
                 4:3>3,5=103 5:1>3=403 5:0>3=303 5:0>5=303 6:0>1=303 6:3>0=103",
            ),
            (
                DeliveryPolicy::Shuffle,
                "1:3>1,3=300 1:1>2=200 1:0>0,5=100 1:4>0=400 2:1>2,5=101 2:0>2,3=100 \
                 2:0>1,4=100 2:1>0=101 2:2>3=201 3:2>0=102 3:5>1,3=302 3:3>4=202 \
                 3:4>3=301 3:2>5=102 3:3>5=300 3:4>5=301 3:5>1=401 3:1>1,3=101 \
                 4:3>1=103 4:0>2=402 4:3>2=103 4:2>1=102 4:1>4=101 4:3>3,5=103 \
                 4:4>5=203 5:1>3=403 5:0>3=303 5:0>5=303 6:3>0=103 6:0>1=303",
            ),
        ];
        for (policy, expected) in golden {
            let expected: Vec<&str> = expected.split_whitespace().collect();
            assert_eq!(golden_mix(policy), expected, "{policy:?}");
        }
        // What holds whatever the streams draw. Every pop is in emission
        // order (the payload's round, then its place in the round), a
        // fan's group is one unit and one line, and each policy hands out
        // a pop's units whole: `Fifo` as queued, `AdversarialLifo`
        // reversed, `Shuffle` in some order of the same units.
        let calendar = mix_calendar();
        let emitted = |line: &String| {
            let payload: u16 = line.split_once('=').expect("a payload").1.parse().unwrap();
            (payload % 100, payload / 100)
        };
        for units in &calendar {
            let order: Vec<_> = units.iter().map(emitted).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{units:?}");
        }
        assert!(calendar.iter().any(|units| units.len() > 2));
        for policy in DeliveryPolicy::ALL {
            let got = golden_mix(policy);
            let mut lines = got.iter();
            for units in &calendar {
                let mut popped: Vec<&String> = lines.by_ref().take(units.len()).collect();
                let mut units: Vec<&String> = units.iter().collect();
                match policy {
                    DeliveryPolicy::Fifo => {}
                    DeliveryPolicy::AdversarialLifo => units.reverse(),
                    DeliveryPolicy::Shuffle => {
                        popped.sort_unstable();
                        units.sort_unstable();
                    }
                }
                assert_eq!(popped, units, "{policy:?}");
            }
            assert_eq!(lines.next(), None, "{policy:?}: a line no pop holds");
        }
    }

    /// The network's stream is xoshiro256++ keyed by the first 32 bytes
    /// of the ChaCha12 stream of the same `(seed, label)`, and its first
    /// words at seed 7 are pinned: a change of generator, keying or label
    /// shows here before it moves every lossy scenario.
    #[test]
    fn the_net_stream_is_pinned() {
        use rand::{RngCore, SeedableRng};
        let mut key = [0u8; 32];
        ba_sim::derive_rng(7, NET_LABEL).fill_bytes(&mut key);
        let mut keyed = EnvRng::from_seed(key);
        let mut net = derive_env_rng(7, NET_LABEL);
        let words: Vec<u64> = (0..4).map(|_| net.next_u64()).collect();
        assert_eq!(words, (0..4).map(|_| keyed.next_u64()).collect::<Vec<_>>());
        assert_eq!(
            words,
            [
                10_740_032_844_205_587_188,
                8_820_552_889_910_241_273,
                17_104_697_736_180_217_310,
                14_653_062_480_698_308_971,
            ]
        );
    }

    /// How many words `rng` has drawn since `derive_env_rng(seed, label)`.
    fn draws_taken(rng: &EnvRng, seed: u64, label: u64) -> usize {
        use rand::RngCore;
        let next = rng.clone().next_u64();
        let mut fresh = derive_env_rng(seed, label);
        (0..=4_096)
            .find(|_| fresh.next_u64() == next)
            .expect("within 4 096 draws")
    }

    /// `vendor/README.md`'s "conditional draws are part of the contract",
    /// counted: a recipient takes one `NET_LABEL` word for its drop when
    /// `drop_prob > 0` and one for its latency when it survives and the
    /// model is not `Constant`, in a fan and in a round alike; nothing
    /// else draws, and sending never touches the ordering stream. So a
    /// jittered fan that loses nobody takes 2R draws, a `Constant` one R,
    /// and a lossless `Constant` fan none.
    #[test]
    fn a_recipient_draws_for_its_drop_and_its_latency_and_nothing_else() {
        let r = 256;
        let jitter = LatencyModel::Uniform { lo: 0, hi: 900 };
        let constant = LatencyModel::Constant(5);
        for (drop_prob, latency) in [
            (1e-12, jitter.clone()),
            (0.05, jitter.clone()),
            (0.05, constant.clone()),
            (0.0, jitter),
            (0.0, constant),
        ] {
            for round in [false, true] {
                let jittered = !matches!(latency, LatencyModel::Constant(_));
                let cfg = NetConfig::synchronous()
                    .with_seed(11)
                    .with_latency(latency.clone())
                    .with_faults(FaultPlan {
                        drop_prob,
                        ..FaultPlan::default()
                    });
                let mut t: NetTransport<u16> = NetTransport::new(r, cfg);
                if round {
                    let mut envs: Vec<_> = (0..r).map(|p| env(0, p, 1)).collect();
                    t.send_round(0, &mut envs);
                } else {
                    let to: Arc<[ProcId]> = (0..r).map(ProcId::new).collect();
                    let (from, payload) = (ProcId::new(0), 1);
                    t.send_many(0, Multicast { from, to, payload });
                }
                let lost = t.stats().dropped_random as usize;
                let drop_draws = if drop_prob > 0.0 { r } else { 0 };
                let draws = drop_draws + if jittered { r - lost } else { 0 };
                let case = format!("drop {drop_prob}, {latency:?}, round {round}");
                assert_eq!(draws_taken(&t.rng, 11, NET_LABEL), draws, "{case}");
                assert_eq!(draws_taken(&t.order_rng, 11, ORDER_LABEL), 0, "{case}");
                match drop_prob {
                    0.05 => assert!(lost > 0, "{case}: the case drops somebody"),
                    _ => assert_eq!(lost, 0, "{case}"),
                }
                if drop_prob == 1e-12 && jittered {
                    assert_eq!(draws, 2 * r);
                }
            }
        }
    }

    /// The stream's draws have the distributions the fault plan and the
    /// latency model promise, over 10⁶ recipients of one transport: the
    /// drops at p = 0.01 lie within 5σ of the binomial mean (10 000 ±
    /// 497), and the arrival ticks of `Uniform{0,900}` pass a χ² test over
    /// ten bins of 90 or 91 ticks, below 33.72 (9 degrees of freedom, the
    /// 10⁻⁴ tail).
    #[test]
    fn drops_and_latencies_have_the_distributions_they_promise() {
        let (n, fans) = (1_000usize, 1_000usize);
        let cfg = NetConfig {
            delta: 1_000,
            ..NetConfig::synchronous()
        }
        .with_seed(7)
        .with_latency(LatencyModel::Uniform { lo: 0, hi: 900 })
        .with_faults(FaultPlan {
            drop_prob: 0.01,
            ..FaultPlan::default()
        });
        let mut t: NetTransport<u16> = NetTransport::new(n, cfg);
        let to: Arc<[ProcId]> = (0..n).map(ProcId::new).collect();
        for f in 0..fans {
            let (from, to) = (ProcId::new(f), to.clone());
            t.send_many(
                0,
                Multicast {
                    from,
                    to,
                    payload: 0,
                },
            );
        }
        let total = (n * fans) as f64;
        let dropped = t.stats().dropped_random as f64;
        let (mean, sigma) = (total * 0.01, (total * 0.01 * 0.99).sqrt());
        assert!(
            (dropped - mean).abs() <= 5.0 * sigma,
            "{dropped} drops against {mean} ± {sigma}"
        );
        let bin = |tick: u64| (tick * 10 / 901) as usize;
        let mut ticks = [0u64; 10];
        (0..=900).for_each(|tick| ticks[bin(tick)] += 1);
        let mut seen = [0u64; 10];
        while let Some((tick, entries)) = t.queue.pop_instant(u64::MAX) {
            seen[bin(tick)] += entries.count() as u64;
        }
        let arrived: u64 = seen.iter().sum();
        assert_eq!(arrived as f64, total - dropped);
        let chi2: f64 = seen
            .iter()
            .zip(ticks)
            .map(|(&o, w)| {
                let e = arrived as f64 * w as f64 / 901.0;
                (o as f64 - e).powi(2) / e
            })
            .sum();
        assert!(chi2 < 33.72, "χ² = {chi2} over {seen:?}");
    }

    /// The wire is empty: every slot of both slabs went back to its free
    /// list, exactly once.
    fn assert_all_recycled<M>(t: &NetTransport<M>) {
        assert!(t.queue.is_empty());
        assert!(t.flights.iter().all(Option::is_none), "a flight leaked");
        let spent = |f: &RoundFlight<M>| f.envs.is_empty() && f.next == 0;
        assert!(t.rounds.iter().all(spent), "a round flight leaked");
        for (free, slots) in [(&t.free, t.flights.len()), (&t.free_rounds, t.rounds.len())] {
            let mut free = free.clone();
            free.sort_unstable();
            free.dedup();
            assert_eq!(free.len(), slots, "a slot was freed twice, or never");
        }
    }

    /// One fan whose groups leave over several rounds, a collect between
    /// every two of them: every survivor is handed out exactly once and
    /// in calendar order whatever the policy (a group is one unit), the
    /// last group recycles the slot and no earlier one does, and a run
    /// that stops mid-flight reports what is still in the air.
    #[test]
    fn a_spread_fan_leaves_group_by_group_across_rounds_under_every_policy() {
        // One tick a round and one to eight rounds on the wire: a fan's
        // groups are its distinct arrival rounds.
        let cfg = |ordering| {
            NetConfig {
                delta: 1,
                ..NetConfig::synchronous()
            }
            .with_seed(3)
            .with_ordering(ordering)
            .with_latency(LatencyModel::Uniform { lo: 1, hi: 8 })
            .with_faults(FaultPlan {
                drop_prob: 0.2,
                ..FaultPlan::default()
            })
        };
        let to: Arc<[ProcId]> = (0..24).map(ProcId::new).collect();
        let launched = |ordering| {
            let mut t: NetTransport<u16> = NetTransport::new(24, cfg(ordering));
            t.send_many(
                0,
                Multicast {
                    from: ProcId::new(5),
                    to: to.clone(),
                    payload: 9,
                },
            );
            t
        };
        let walk = |ordering: DeliveryPolicy, many: bool, rounds: usize| {
            // The groups, read straight off a twin's calendar: one fan's
            // entries, an instant each.
            let mut twin = launched(ordering);
            let mut groups: Vec<Vec<usize>> = Vec::new();
            while let Some((_, entries)) = twin.queue.pop_instant(u64::MAX) {
                groups.push(
                    entries
                        .map(|(slot, p)| (slot == 0).then_some(p as usize))
                        .collect::<Option<_>>()
                        .expect("one flight"),
                );
            }
            let expected = groups.concat();
            assert!(groups.len() >= 4 && groups.len() < expected.len());
            assert!(expected.len() < to.len(), "some of the fan was lost");
            let mut t = launched(ordering);
            let mut got = Vec::new();
            let mut units = 0;
            for r in 1..=rounds {
                if many {
                    t.collect_many(r, &mut |b| {
                        units += 1;
                        got.extend(b.to.iter().map(|p| p.index()));
                    });
                } else {
                    t.collect(r, &mut |e| got.push(e.to.index()));
                }
                assert_eq!(got, expected[..got.len()], "round {r} under {ordering:?}");
                assert_eq!(in_flight(&t), (expected.len() - got.len()) as u64);
                let live = got.len() < expected.len();
                assert_eq!(t.flights[0].is_some(), live, "recycled by the last group");
                assert_eq!(t.free, if live { vec![] } else { vec![0] });
            }
            (
                expected.len() - got.len(),
                units,
                groups.len(),
                t.into_stats(),
            )
        };
        for ordering in DeliveryPolicy::ALL {
            for many in [false, true] {
                let (left, units, groups, stats) = walk(ordering, many, 8);
                assert_eq!((left, stats.in_flight_at_end), (0, 0));
                assert_eq!(units, if many { groups } else { 0 }, "one batch a group");
                assert!(stats.late > 0 && stats.dropped_random > 0, "{stats:?}");
                let (left, _, _, stats) = walk(ordering, many, 3);
                assert!(left > 0 && stats.delivered > 0, "stopped mid-flight");
                assert_eq!(stats.in_flight_at_end, left as u64);
            }
        }
    }

    /// Arrivals that happen to be non-decreasing in the caller's own
    /// order, over more than one tick, nothing dropped: the flight shares
    /// the caller's list — as does every other fan to that committee —
    /// never writes to it, and lets go of it with its last group.
    #[test]
    fn a_spread_fan_in_the_callers_order_leaves_the_callers_list_alone() {
        let to: Arc<[ProcId]> = (0..3).map(ProcId::new).collect();
        let mut met = 0;
        for seed in 0..64 {
            let cfg = NetConfig {
                delta: 1,
                ..NetConfig::synchronous()
            }
            .with_seed(seed)
            .with_latency(LatencyModel::Uniform { lo: 1, hi: 3 });
            let mut t: NetTransport<u16> = NetTransport::new(3, cfg);
            t.send_many(
                0,
                Multicast {
                    from: ProcId::new(0),
                    to: to.clone(),
                    payload: 1,
                },
            );
            assert_eq!(Arc::strong_count(&to), 2, "the flight shares the list");
            let mut got = Vec::new();
            for r in 1..=3 {
                t.collect_many(r, &mut |b| {
                    got.push(b.to.iter().map(|p| p.index()).collect::<Vec<_>>())
                });
                assert!(
                    to.iter().map(|p| p.index()).eq(0..3),
                    "written to in round {r}"
                );
            }
            assert_eq!(Arc::strong_count(&to), 1, "the flight let go of the list");
            assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 3);
            if got.len() > 1 && got.concat() == [0, 1, 2] {
                met += 1;
            }
        }
        assert!(met > 0, "no seed drew a spread fan in the caller's order");
    }

    /// The widest index `new` admits, 2^31 - 1, differs from [`WHOLE`],
    /// the entry of a fan's whole list, in bit 31 alone: as every
    /// recipient of a spread fan it is queued as itself and delivered
    /// unmarked. (Two ticks for twelve copies, so no group is a lone
    /// recipient: `collect_many` would size its table of one-element
    /// lists by that index.)
    #[test]
    fn the_widest_recipient_index_is_delivered_unmarked() {
        let widest = ProcId::new(MAX_PROCS - 1);
        let to: Arc<[ProcId]> = [widest; 12].into();
        for many in [false, true] {
            let cfg = NetConfig {
                delta: 1,
                ..NetConfig::synchronous()
            }
            .with_seed(1)
            .with_latency(LatencyModel::Uniform { lo: 1, hi: 2 });
            let mut t: NetTransport<u16> = NetTransport::new(2, cfg);
            t.send_many(
                0,
                Multicast {
                    from: ProcId::new(0),
                    to: to.clone(),
                    payload: 1,
                },
            );
            let mut got = Vec::new();
            let mut rounds_with_traffic = 0;
            for r in 1..=2 {
                let before = got.len();
                if many {
                    t.collect_many(r, &mut |b| got.extend(b.to.iter().copied()));
                } else {
                    t.collect(r, &mut |e| got.push(e.to));
                }
                rounds_with_traffic += usize::from(got.len() > before);
            }
            assert_eq!(rounds_with_traffic, 2, "two groups");
            assert_eq!(got, [widest; 12]);
            assert_eq!(t.into_stats().in_flight_at_end, 0);
        }
    }

    /// [`WHOLE`] marks the entry of a fan's whole group: a processor
    /// index that would equal it is refused up front.
    #[test]
    #[should_panic(expected = "a value too wide panics instead of folding")]
    fn more_processors_than_the_group_mark_leaves_room_for_are_refused() {
        let _ = NetTransport::<u16>::new(MAX_PROCS + 1, NetConfig::synchronous());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// What one run delivered, envelope by envelope, and its stats.
        type Delivered = (Vec<(usize, usize, usize, u16)>, String);

        /// Three rounds of traffic — per round two fans over every
        /// `stride`-th processor and a single send between them — then
        /// rounds until the wire is empty. `batched` sends the fans
        /// through `send_many`, otherwise as their expansion; `many`
        /// drains through `collect_many`, otherwise `collect`.
        fn run(cfg: &NetConfig, n: usize, stride: usize, batched: bool, many: bool) -> Delivered {
            let to: Arc<[ProcId]> = (0..n).step_by(stride).map(ProcId::new).collect();
            let mut t: NetTransport<u16> = NetTransport::new(n, cfg.clone());
            t.mark_phase(0, "x");
            let mut got = Vec::new();
            let mut r = 0;
            while r < 3 || in_flight(&t) > 0 {
                assert!(r < 200, "the wire never emptied");
                // Whole, single and partial-group batches and every
                // envelope pass through here: each names a processor.
                let mut note = |from: ProcId, to: ProcId, payload| {
                    assert!(to.index() < n, "{to} is not a processor");
                    got.push((r, from.index(), to.index(), payload))
                };
                if many {
                    t.collect_many(r, &mut |b| {
                        b.to.iter().for_each(|&p| note(b.from, p, b.payload))
                    });
                } else {
                    t.collect(r, &mut |e| note(e.from, e.to, e.payload));
                }
                if r < 3 {
                    for k in 0..2 {
                        let mc = Multicast {
                            from: ProcId::new((r + 5 * k) % n),
                            to: to.clone(),
                            payload: (10 * r + k) as u16,
                        };
                        if batched {
                            t.send_many(r, mc);
                        } else {
                            for &p in mc.to.iter() {
                                t.send(r, Envelope::new(mc.from, p, mc.payload));
                            }
                        }
                        t.send(r, env((r + k) % n, (r + 2 * k + 1) % n, 7));
                    }
                }
                r += 1;
            }
            assert_all_recycled(&t);
            let stats = t.into_stats();
            assert_eq!(stats.in_flight_at_end, 0);
            (got, format!("{stats:?}"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// `send_many` is its expansion, and `collect_many` is
            /// `collect`, envelope for envelope and counter for counter —
            /// whatever the wire does to a fan: drops some of it, spreads
            /// it over many rounds (latency up to eight deltas), cuts it
            /// with a partition, lands it on a crashed recipient.
            #[test]
            fn send_many_and_collect_many_match_the_per_envelope_path(
                n in 2usize..14,
                stride in 1usize..4,
                drop_pct in 0u32..70,
                latency_ix in 0usize..4,
                spread in 0u64..81,
                cut in 0usize..3,
                crash in 0usize..3,
                seed in any::<u64>(),
            ) {
                let latency = match latency_ix {
                    0 => LatencyModel::Constant(spread),
                    1 => LatencyModel::Uniform { lo: 0, hi: spread },
                    2 => LatencyModel::Uniform { lo: spread / 2, hi: spread },
                    _ => LatencyModel::HeavyTail { floor: 1, scale: 6.0, alpha: 1.1, cap: spread + 1 },
                };
                let cfg = NetConfig { delta: 10, ..NetConfig::synchronous() }
                    .with_seed(seed)
                    .with_latency(latency)
                    .with_faults(FaultPlan {
                        drop_prob: f64::from(drop_pct) / 100.0,
                        partitions: (cut > 0)
                            .then(|| Partition { boundary: n / 2, from_round: cut - 1, heal_round: cut + 1 })
                            .into_iter()
                            .collect(),
                        crashes: (crash > 0)
                            .then(|| Crash { proc: n - 1, round: crash })
                            .into_iter()
                            .collect(),
                        ..FaultPlan::default()
                    });
                let reference = run(&cfg, n, stride, false, false);
                prop_assert_eq!(&run(&cfg, n, stride, true, false), &reference);
                prop_assert_eq!(&run(&cfg, n, stride, true, true), &reference);
                prop_assert_eq!(&run(&cfg, n, stride, false, true), &reference);
            }

            /// The radix sort of a jittered round orders its
            /// `(arrival, index)` pairs as `sort_unstable` does: over one
            /// arrival, `Uniform{0,900}` (one pass), a span past 2¹⁶ (two
            /// passes) and a heavy tail's cap, from any sending tick up to
            /// where arrivals saturate, in rounds on both sides of the
            /// cut-over to a comparison sort.
            #[test]
            fn radix_sort_matches_sort_unstable(
                len in 0usize..6000,
                latency_ix in 0usize..4,
                sent_ix in 0usize..3,
                seed in any::<u64>(),
            ) {
                let latency = match latency_ix {
                    0 => LatencyModel::Constant(0),
                    1 => LatencyModel::Uniform { lo: 0, hi: 900 },
                    2 => LatencyModel::Uniform { lo: 3, hi: 3 << 16 },
                    _ => LatencyModel::HeavyTail { floor: 1, scale: 40.0, alpha: 0.6, cap: 1 << 40 },
                };
                let sent = [0, 7 * 1000, u64::MAX - 5000][sent_ix];
                let mut rng = ba_sim::derive_rng(seed, 0x5027);
                let mut landed: Vec<(u64, u32)> = (0..len as u32)
                    .map(|i| (sent.saturating_add(latency.sample(&mut rng)), i))
                    .collect();
                let mut want = landed.clone();
                want.sort_unstable();
                sort_by_arrival(&mut landed);
                prop_assert_eq!(landed, want);
            }
        }
    }

    mod whole_round {
        use super::*;
        use ba_sim::Lockstep;
        use proptest::prelude::*;

        /// One emission of a round, as the engine or an executor makes it.
        #[derive(Clone, Debug)]
        enum Emit {
            One(Envelope<u16>),
            Many(Multicast<u16>),
            Round(Vec<Envelope<u16>>),
        }

        /// Emission `i` of a round among `n` processors: `kind` picks the
        /// call, `i` the sender, the payload and the recipients.
        fn emit(kind: u8, i: usize, n: usize) -> Emit {
            let to = |j: usize| (i + 3 * j + 1) % n;
            match kind {
                0 => Emit::One(env(i % n, to(0), i as u16)),
                1 => Emit::Many(Multicast {
                    from: ProcId::new(i % n),
                    to: (0..1 + i % 4).map(|j| ProcId::new(to(j))).collect(),
                    payload: i as u16,
                }),
                _ => Emit::Round(
                    (0..(3 * i) % 13)
                        .map(|j| env((i + j) % n, to(j), (i + j) as u16))
                        .collect(),
                ),
            }
        }

        /// What `emits` means: one `(from, to, payload)` per logical
        /// envelope, in emission order.
        fn expansion(emits: &[Emit]) -> Vec<(usize, usize, u16)> {
            let mut all = Vec::new();
            for e in emits {
                match e {
                    Emit::One(e) => all.push((e.from.index(), e.to.index(), e.payload)),
                    Emit::Many(mc) => all.extend(
                        mc.to
                            .iter()
                            .map(|to| (mc.from.index(), to.index(), mc.payload)),
                    ),
                    Emit::Round(envs) => all.extend(
                        envs.iter()
                            .map(|e| (e.from.index(), e.to.index(), e.payload)),
                    ),
                }
            }
            all
        }

        /// Hands `emits` to `t`. `whole` passes a `Round` through
        /// `send_round`; otherwise it goes envelope by envelope.
        fn send_all<T: Transport<u16>>(t: &mut T, round: usize, emits: &[Emit], whole: bool) {
            for e in emits.iter().cloned() {
                match e {
                    Emit::One(e) => t.send(round, e),
                    Emit::Many(mc) => t.send_many(round, mc),
                    Emit::Round(mut envs) if whole => {
                        t.send_round(round, &mut envs);
                        assert!(envs.is_empty(), "send_round leaves its buffer empty");
                    }
                    Emit::Round(envs) => envs.into_iter().for_each(|e| t.send(round, e)),
                }
            }
        }

        /// How a run drains a round.
        #[derive(Clone, Copy, Debug)]
        enum Drain {
            Collect,
            Many,
            Lent,
            Round,
        }

        /// Three rounds of `kinds` over a faulty wire, a phase announced
        /// at rounds 0 and 2, then rounds until the wire is empty: every
        /// delivery and the final statistics.
        fn net_run(
            cfg: &NetConfig,
            n: usize,
            kinds: &[u8],
            whole: bool,
            drain: Drain,
        ) -> (Vec<String>, String) {
            let mut t: NetTransport<u16> = NetTransport::new(n, cfg.clone());
            let mut got = Vec::new();
            let mut r = 0;
            while r < 3 || in_flight(&t) > 0 {
                assert!(r < 400, "the wire never emptied");
                let mut round = Vec::new();
                match drain {
                    Drain::Collect => t.collect(r, &mut |e| round.push(e)),
                    Drain::Many => t.collect_many(r, &mut |mc| {
                        round.extend(mc.to.iter().map(|&p| Envelope::new(mc.from, p, mc.payload)))
                    }),
                    Drain::Lent => t.collect_lent(r, &mut |from, to, &payload| {
                        round.extend(to.iter().map(|&p| Envelope::new(from, p, payload)))
                    }),
                    Drain::Round => t.collect_round(r, &mut round),
                }
                for e in &round {
                    assert!(e.to.index() < n, "{} is not a processor", e.to);
                }
                got.extend(round.iter().map(|e| format!("{r}:{e:?}")));
                if r < 3 {
                    match r {
                        0 => t.mark_phase(r, "a"),
                        2 => t.mark_phase(r, "b"),
                        _ => {}
                    }
                    let emits: Vec<Emit> = kinds
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| emit(k, i + r, n))
                        .collect();
                    send_all(&mut t, r, &emits, whole);
                }
                r += 1;
            }
            assert_all_recycled(&t);
            (got, format!("{:?}", t.into_stats()))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// However `send`, `send_many` and `send_round` interleave,
            /// `Lockstep` hands the round back in emission order through
            /// `collect`, `collect_many`, `collect_lent` and
            /// `collect_round` alike — whether `collect_round` swaps
            /// buffers (no fans, an empty `into`) or copies — and
            /// `collect_lent` lends the very batches `collect_many` hands
            /// out.
            #[test]
            fn lockstep_keeps_emission_order_through_every_collect(
                n in 2usize..9,
                kinds in proptest::collection::vec(0u8..3, 0..14),
            ) {
                let emits: Vec<Emit> =
                    kinds.iter().enumerate().map(|(i, &k)| emit(k, i, n)).collect();
                let expected = expansion(&emits);
                let sent = || {
                    let mut t: Lockstep<u16> = Lockstep::default();
                    send_all(&mut t, 0, &emits, true);
                    t
                };
                let tuple = |e: &Envelope<u16>| (e.from.index(), e.to.index(), e.payload);

                let mut got = Vec::new();
                sent().collect(1, &mut |e| got.push(tuple(&e)));
                prop_assert_eq!(&got, &expected);

                let mut got = Vec::new();
                sent().collect_many(1, &mut |mc| {
                    got.extend(mc.to.iter().map(|to| (mc.from.index(), to.index(), mc.payload)))
                });
                prop_assert_eq!(&got, &expected);

                // Lent: the batches `collect_many` hands out, borrowed.
                let mut batches = Vec::new();
                sent().collect_many(1, &mut |mc| batches.push((mc.from, mc.to.to_vec(), mc.payload)));
                let mut lent = Vec::new();
                sent().collect_lent(1, &mut |from, to, &payload| lent.push((from, to.to_vec(), payload)));
                prop_assert_eq!(&lent, &batches);

                let mut t = sent();
                let mut into = Vec::new();
                t.collect_round(1, &mut into);
                prop_assert_eq!(&into.iter().map(tuple).collect::<Vec<_>>(), &expected);
                into.clear();
                t.collect_round(2, &mut into);
                prop_assert!(into.is_empty(), "a round is delivered once");

                // Into a buffer that already holds something: appended.
                let mut into = vec![env(0, 1, 999)];
                sent().collect_round(1, &mut into);
                prop_assert_eq!(tuple(&into[0]), (0, 1, 999));
                prop_assert_eq!(&into[1..].iter().map(tuple).collect::<Vec<_>>(), &expected);
            }

            /// On `NetTransport` the whole-round calls are the
            /// per-envelope calls in sequence: the same deliveries in the
            /// same rounds and order, and the same statistics per phase —
            /// so the same `NET_LABEL` draws — whatever the wire does to a
            /// round (loses some of it, cuts it with a partition, lands
            /// it on a crashed or churned-out recipient, spreads it over
            /// many rounds so that collects fall between its groups),
            /// under every policy, and through every `collect*`, the
            /// lending one included.
            #[test]
            fn net_whole_round_calls_match_the_per_envelope_calls(
                n in 2usize..9,
                kinds in proptest::collection::vec(0u8..3, 0..10),
                drop_pct in 0u32..40,
                latency_ix in 0usize..3,
                spread in 0u64..41,
                cut in 0usize..3,
                crash in 0usize..3,
                churn in 0usize..3,
                policy in 0usize..3,
                seed in any::<u64>(),
            ) {
                let latency = match latency_ix {
                    0 => LatencyModel::Constant(spread),
                    1 => LatencyModel::Uniform { lo: 0, hi: spread },
                    _ => LatencyModel::HeavyTail { floor: 1, scale: 6.0, alpha: 1.1, cap: 2 * spread + 1 },
                };
                let cfg = NetConfig { delta: 10, ..NetConfig::synchronous() }
                    .with_seed(seed)
                    .with_ordering(DeliveryPolicy::ALL[policy])
                    .with_latency(latency)
                    .with_faults(FaultPlan {
                        drop_prob: f64::from(drop_pct) / 100.0,
                        partitions: (cut > 0)
                            .then(|| Partition { boundary: n / 2, from_round: cut - 1, heal_round: cut + 1 })
                            .into_iter()
                            .collect(),
                        crashes: (crash > 0)
                            .then(|| Crash { proc: n - 1, round: crash })
                            .into_iter()
                            .collect(),
                        churn: (churn > 0).then_some(Churn { period: 3, down: churn, stagger: 1 }),
                    });
                let reference = net_run(&cfg, n, &kinds, false, Drain::Collect);
                for drain in [Drain::Collect, Drain::Many, Drain::Lent, Drain::Round] {
                    prop_assert_eq!(&net_run(&cfg, n, &kinds, true, drain), &reference, "{:?}", drain);
                }
                prop_assert_eq!(&net_run(&cfg, n, &kinds, false, Drain::Round), &reference);
                prop_assert_eq!(&net_run(&cfg, n, &kinds, false, Drain::Lent), &reference);
            }
        }

        /// An all-to-all round among `n` processors, in emission order.
        fn all_to_all(n: usize) -> Vec<Envelope<u16>> {
            (0..n * n).map(|i| env(i / n, i % n, i as u16)).collect()
        }

        /// A synchronous round is one queue entry and one live flight,
        /// whatever its size, and comes back in the allocation it went
        /// out in; under a policy that reorders an instant envelope by
        /// envelope it is still one entry and one flight.
        #[test]
        fn a_synchronous_round_is_one_queue_entry_and_trades_its_buffer() {
            let n = 64;
            let mut t: NetTransport<u16> = NetTransport::new(n, NetConfig::synchronous());
            let mut round = all_to_all(n);
            let expected = round.clone();
            let sent_at = round.as_ptr();
            t.send_round(0, &mut round);
            assert!(round.is_empty());
            assert_eq!((t.queue.len(), t.rounds.len(), t.flights.len()), (1, 1, 0));
            assert!(t.free_rounds.is_empty());
            assert_eq!(in_flight(&t), (n * n) as u64);
            t.collect_round(1, &mut round);
            assert_eq!(round.as_ptr(), sent_at, "the same allocation comes back");
            assert_eq!(round, expected);
            assert_eq!((t.queue.len(), &t.free_rounds[..]), (0, &[0][..]));
            // Into a buffer that holds something, a round is appended.
            let mut into = vec![env(0, 1, 999)];
            t.send_round(1, &mut round);
            t.collect_round(2, &mut into);
            assert_eq!(into[1..], expected);
            assert_eq!((t.rounds.len(), &t.free_rounds[..]), (1, &[0][..]));
            assert_eq!(t.stats().delivered, 2 * (n * n) as u64);

            let lifo = NetConfig::synchronous().with_ordering(DeliveryPolicy::AdversarialLifo);
            let mut t: NetTransport<u16> = NetTransport::new(n, lifo);
            t.send_round(0, &mut all_to_all(n));
            assert_eq!((t.queue.len(), t.rounds.len(), t.flights.len()), (1, 1, 0));
        }

        /// A jittered round is one flight and at most one queue entry a
        /// tick of the latency range, or an envelope when those are fewer.
        #[test]
        fn a_jittered_round_queues_one_entry_a_tick() {
            let (n, lo, hi) = (64, 100, 131);
            let cfg = NetConfig::synchronous()
                .with_seed(5)
                .with_latency(LatencyModel::Uniform { lo, hi });
            let mut t: NetTransport<u16> = NetTransport::new(n, cfg);
            t.send_round(0, &mut all_to_all(n));
            assert_eq!((t.rounds.len(), t.flights.len()), (1, 0));
            assert_eq!(
                t.queue.len() as u64,
                hi - lo + 1,
                "every tick drew an envelope"
            );
            let mut few = all_to_all(3);
            t.send_round(0, &mut few);
            assert_eq!(t.rounds.len(), 2);
            let entries = t.queue.len() as u64 - (hi - lo + 1);
            assert!(
                (1..=9).contains(&entries),
                "{entries} entries for 9 envelopes"
            );
            let mut got = Vec::new();
            t.collect_round(1, &mut got);
            assert_eq!(got.len(), n * n + 9);
            assert!(got.iter().all(|e| e.to.index() < n), "not a processor");
            assert_eq!((t.queue.len(), t.free_rounds.len()), (0, 2));
        }
    }

    #[test]
    fn into_stats_counts_undelivered() {
        let mut t = NetTransport::new(2, NetConfig::synchronous());
        t.send(0, env(0, 1, 1));
        let stats = t.into_stats();
        assert_eq!(stats.in_flight_at_end, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.loss_rate(), 0.0);
    }
}
