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
//! One `send` / `send_many` call is one *flight* — sender, sending round,
//! payload, recipients — stored once in a slab however many arrival ticks
//! its recipients spread over. The event queue holds nothing but the
//! flight's 4-byte slot, once per same-arrival group of its recipients.
//! Which group an entry stands for is not written down: a jittered fan
//! keeps its survivors sorted by `(arrival, emission order)`, its groups
//! therefore leave the calendar in list order, and the flight walks the
//! list with a cursor — the last member of each group carries bit 31 of
//! its id, cleared in place as the group is handed out. A recipient in
//! the air is thus 4 bytes of queue and 4 of survivor list
//! (`tests/net_memory.rs` budgets the sum); a fan that lands on one tick
//! keeps the caller's list untouched and is handed back by `Arc::clone`.
//!
//! One `send_round` call is one flight too: the round's own
//! `Vec<Envelope>`, swapped out of the caller's hands, its survivors in
//! `(arrival, emission order)` and walked by the same cursor and the same
//! mark (on an envelope's `to`). An envelope in the air is then itself
//! and nothing else, its group one 4-byte slot; a round that lands on one
//! tick is neither sorted nor copied, and `collect_round` swaps it back.

use crate::event::{DeliveryPolicy, EventQueue};
use crate::fault::{Churn, DropCause, FaultPlan};
use crate::latency::LatencyModel;
use crate::ledger::{NetStats, PhaseLedger};
use ba_obs::Trace;
use ba_sim::{derive_rng, Envelope, Multicast, Payload, ProcId, Schedule, SimRng, Transport};
use std::sync::Arc;

/// Label space for the network transport's RNG stream (labels `0..n` are
/// processor coins, `1 << 40` the adversary, `1 << 41` sampler
/// construction — see `ba_sim::derive_rng`).
pub const NET_LABEL: u64 = 1 << 42;

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
    /// Master seed; the transport draws from `derive_rng(seed, NET_LABEL)`.
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

/// One `send` / `send_many` call in flight, stored once however many
/// arrival ticks its recipients spread over. The event queue holds only
/// the slab slot of one of these, once per same-arrival group: the flight
/// itself knows which of its recipients leave next.
#[derive(Debug)]
struct Flight<M> {
    /// Narrow (checked at [`NetTransport::launch`]) so that `Dest`'s tag
    /// and cursor fit where a count of undelivered recipients stood.
    sent_round: u32,
    from: ProcId,
    to: Dest,
    payload: M,
}

/// Recipients of one flight, in delivery order.
#[derive(Debug)]
enum Dest {
    /// A single envelope.
    One(ProcId),
    /// A fan that lands on one tick — a fast-path fan, or a slow-path
    /// one whose survivors drew one arrival: the caller's own list when
    /// nothing was dropped, else one shared list of the survivors. It is
    /// queued once, delivered whole and never written to.
    Whole(Arc<[ProcId]>),
    /// A slow-path fan spread over several ticks: the survivors sorted by
    /// `(arrival, emission order)`, the last member of every same-arrival
    /// group carrying [`GROUP_END`]. The flight is queued once per group,
    /// its groups leave the calendar in list order, and `next` is where
    /// the first undelivered one starts; the slot is recycled when `next`
    /// reaches the end of the list.
    Groups { list: Box<[ProcId]>, next: u32 },
}

/// One `send_round` call in flight: the buffer the round came in, in the
/// slab beside the flights' (a [`Flight`] is one sender and one payload,
/// and pays for neither a `Vec` nor a second kind). Queued once per
/// same-arrival group like a [`Dest::Groups`] fan, and walked the same
/// way.
#[derive(Debug)]
struct RoundFlight<M> {
    sent_round: u32,
    /// Where the first undelivered group starts.
    next: u32,
    /// The survivors, sorted by `(arrival, emission order)`, the `to` of
    /// every same-arrival group's last envelope carrying [`GROUP_END`].
    /// Empty while the slot is free — with an allocation worth handing to
    /// the next `send_round` in exchange for its buffer.
    envs: Vec<Envelope<M>>,
}

/// The bit of a queued slot that says it indexes `rounds`, not `flights`.
const ROUND: u32 = 1 << 31;

/// The bit of a [`ProcId`] — in a [`Dest::Groups`] list, or the `to` of
/// an envelope of a [`RoundFlight`] — that marks the last member of a
/// same-arrival group. It is cleared in place before the group is handed
/// out, so no recipient ever leaves the transport marked;
/// [`NetTransport::new`] keeps every real index below it.
const GROUP_END: usize = 1 << 31;

/// `p` as the last member of its group.
fn marked(p: ProcId) -> ProcId {
    ProcId::new(p.index() | GROUP_END)
}

/// Closes the group `list` starts with — finds its marked member and
/// clears the mark — and returns its length. `to` is where an entry keeps
/// its recipient.
fn close_group<T>(list: &mut [T], to: impl Fn(&mut T) -> &mut ProcId) -> usize {
    let last = list
        .iter_mut()
        .position(|entry| to(entry).index() & GROUP_END != 0)
        .expect("a queued group ends at a marked recipient");
    let p = to(&mut list[last]);
    *p = ProcId::new(p.index() & !GROUP_END);
    last + 1
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

/// What [`NetTransport::drain_round`] hands its sink: one same-arrival
/// group, due now.
enum Due<'a, M> {
    /// Of a fan: the sender, the fan's own list when the group is all of
    /// it, the group, the payload.
    Fan(ProcId, Option<&'a Arc<[ProcId]>>, &'a [ProcId], &'a M),
    /// Of a round of singles: the flight's buffer and the group's place
    /// in it. A sink may swap the buffer for another when the group is
    /// all of it, and must otherwise leave it as it is.
    Singles(&'a mut Vec<Envelope<M>>, std::ops::Range<usize>),
}

// The per-envelope cost of a jittered fan is one queue entry and one
// survivor-list entry, and a queue entry is the flight's slot and nothing
// else; a field added to it shows up here, not in a memory profile. Nor
// may the cursor cost a single send anything: it sits beside `Dest`'s
// tag, and a flight is no larger than when it counted recipients down
// (40 bytes around a `u16`, 56 around a 24-byte message such as
// `StackMsg`, for which `[u64; 3]` stands in here).
const _: () = assert!(std::mem::size_of::<((), u32)>() == 4);
const _: () = assert!(std::mem::size_of::<Flight<u16>>() <= 40);
const _: () = assert!(std::mem::size_of::<Flight<[u64; 3]>>() <= 56);

/// The timed, faulty network behind the synchronous engine.
///
/// Determinism contract: every random decision (latency samples, random
/// drops) is drawn from one stream derived as
/// `derive_rng(seed, NET_LABEL)`, consumed in the engine's global
/// emission order; partitions, crashes, and churn are pure functions of
/// `(round, processor ids)`; delivery order is `(arrival, emission
/// order)`, emission order being push order. Runs are therefore
/// byte-identical per seed regardless of how many worker threads run
/// *other* trials around them.
#[derive(Debug)]
pub struct NetTransport<M> {
    cfg: NetConfig,
    /// Per-processor crash round (precomputed from the plan), `usize::MAX`
    /// when the processor never crashes.
    crash_round: Vec<usize>,
    /// Flights with undelivered recipients; `free` lists the empty slots.
    flights: Vec<Option<Flight<M>>>,
    free: Vec<u32>,
    /// Whole rounds with undelivered envelopes, and the slots whose round
    /// is delivered (their buffers empty).
    rounds: Vec<RoundFlight<M>>,
    free_rounds: Vec<u32>,
    /// Flight slots by arrival tick ([`ROUND`] set on a slot of `rounds`),
    /// one entry per same-arrival group. The queue keeps one instant's
    /// events in push order, and pushes happen in emission order —
    /// `send`, `send_many` and `send_round` run one after another on
    /// `&mut self`, and one `send_many` or `send_round` puts at most one
    /// group in any instant (its groups are the distinct arrivals of
    /// `landed`, pushed in ascending arrival, which is why an entry need
    /// not say *which* group it is) — so no tie key is needed for
    /// delivery order to be `(arrival, emission order)`. A group of a
    /// round of singles is its envelopes in emission order, which is
    /// where the per-envelope path puts them only under
    /// [`DeliveryPolicy::Fifo`]: the other policies reorder an instant
    /// unit by unit, so under them `send_round` makes every envelope a
    /// unit of its own.
    queue: EventQueue<u32, ()>,
    rng: SimRng,
    /// The dedicated ordering stream ([`ORDER_LABEL`]); only the
    /// `Shuffle` policy ever draws from it.
    order_rng: SimRng,
    /// Every counter, per phase of the sending round. A multicast counts
    /// one per recipient, so batching never changes what it holds.
    ledger: PhaseLedger,
    /// Scratch for `send_many`'s surviving `(arrival, index)` pairs.
    landed: Vec<(u64, u32)>,
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
    /// Panics if `cfg.delta == 0`, or if `n` exceeds 2³¹: bit 31 of a
    /// queued recipient marks the end of a same-arrival group.
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        assert!(cfg.delta > 0, "delta must be at least one tick per round");
        assert!(
            n <= GROUP_END,
            "{n} processors: bit 31 of a queued recipient marks the end of its group, \
             and a value too wide panics instead of folding"
        );
        let crash_round: Vec<usize> = (0..n)
            .map(|p| cfg.faults.crash_round(p).unwrap_or(usize::MAX))
            .collect();
        let rng = derive_rng(cfg.seed, NET_LABEL);
        let order_rng = derive_rng(cfg.seed, ORDER_LABEL);
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
            landed: Vec::new(),
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

    /// Stores a flight; returns its slot, which is what the queue holds.
    fn launch(&mut self, round: usize, from: ProcId, to: Dest, payload: M) -> u32 {
        let flight = Flight {
            sent_round: u32::try_from(round).expect("fewer than 2^32 rounds"),
            from,
            to,
            payload,
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

    /// Stores a round of singles to deliver, trading `envs` for the
    /// slot's spare buffer; returns what the queue holds for it.
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

    /// [`Transport::is_online`] over the fields it reads, for the drain
    /// closure, and without the trait's payload bound.
    fn up(crash_round: &[usize], churn: Option<Churn>, round: usize, p: ProcId) -> bool {
        let i = p.index();
        if crash_round.get(i).is_some_and(|&c| round >= c) {
            return false;
        }
        !churn.is_some_and(|c| c.is_down(round, i))
    }

    /// The shared body of the `collect*` calls: drains everything due at
    /// `round`, does all per-recipient accounting (a multicast counts
    /// once per recipient, exactly like its unbatched expansion would),
    /// and hands each due group to `sink` in delivery order.
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
        let churn = self.cfg.faults.churn;
        // The closures name fields, never `self`, so they can account
        // while the queue being drained is borrowed.
        //
        // The wire did its job, but a recipient that is dead or churned
        // out this round will never read the message.
        let down = |p: ProcId| !Self::up(&self.crash_round, churn, round, p);
        self.queue
            .drain_due_policy(now, self.cfg.ordering, &mut self.order_rng, &mut |_, id| {
                if id & ROUND != 0 {
                    let id = id & !ROUND;
                    let flight = &mut self.rounds[id as usize];
                    let start = flight.next as usize;
                    let end = start + close_group(&mut flight.envs[start..], |e| &mut e.to);
                    let group = &flight.envs[start..end];
                    let dead = if self.has_offline {
                        group.iter().filter(|e| down(e.to)).count() as u64
                    } else {
                        0
                    };
                    let (sent_round, count) = (flight.sent_round as usize, group.len() as u64);
                    self.ledger.delivered(round, sent_round, count, dead);
                    let more = end < flight.envs.len();
                    flight.next = end as u32;
                    sink(Due::Singles(&mut flight.envs, start..end));
                    if !more {
                        flight.envs.clear();
                        flight.next = 0;
                        self.free_rounds.push(id);
                    }
                    return;
                }
                let slot = &mut self.flights[id as usize];
                let flight = slot.as_mut().expect("a queued slot holds a live flight");
                // The flight's next group, the list it is all of (if it
                // is), and whether the flight has more to deliver.
                let (group, whole, more) = match &mut flight.to {
                    Dest::One(p) => (std::slice::from_ref(&*p), None, false),
                    Dest::Whole(list) => (&list[..], Some(&*list), false),
                    Dest::Groups { list, next } => {
                        let start = *next as usize;
                        let end = start + close_group(&mut list[start..], |p| p);
                        *next = end as u32;
                        (&list[start..end], None, end < list.len())
                    }
                };
                let dead = if self.has_offline {
                    group.iter().filter(|&&p| down(p)).count() as u64
                } else {
                    0
                };
                let (sent_round, count) = (flight.sent_round as usize, group.len() as u64);
                self.ledger.delivered(round, sent_round, count, dead);
                sink(Due::Fan(flight.from, whole, group, &flight.payload));
                if !more {
                    *slot = None;
                    self.free.push(id);
                }
            });
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
    fn send(&mut self, round: usize, env: Envelope<M>) {
        self.count_sent(round, 1, env.bit_len());
        if let Some(cause) =
            self.cfg
                .faults
                .dropped(round, env.from.index(), env.to.index(), &mut self.rng)
        {
            self.count_dropped(round, cause);
            return;
        }
        let latency = self.cfg.latency.sample(&mut self.rng);
        let arrival = (round as u64)
            .saturating_mul(self.cfg.delta)
            .saturating_add(latency);
        let flight = self.launch(round, env.from, Dest::One(env.to), env.payload);
        self.queue.push(arrival, (), flight);
    }

    /// Accepts a whole fan as one call, byte-identical to its unbatched
    /// expansion: the same per-recipient counters, the same RNG draws in
    /// the same order, and the same delivery schedule — but the fan is
    /// stored once, and queue volume is one 4-byte slot per same-arrival
    /// group instead of one payload copy per recipient.
    fn send_many(&mut self, round: usize, mc: Multicast<M>) {
        if mc.to.is_empty() {
            return;
        }
        let len = u32::try_from(mc.to.len()).expect("fewer than 2^32 recipients");
        let count = u64::from(len);
        self.count_sent(round, count, count * mc.payload.bit_len());
        let sent = (round as u64).saturating_mul(self.cfg.delta);
        // Fast path: a trivial fault plan and constant latency make
        // every per-recipient decision identical without touching the
        // RNG (partition checks are pure, drops only draw when
        // drop_prob > 0, Constant sampling is draw-free), so the whole
        // fan stays one queue entry, at its place in emission order.
        if self.cfg.faults.is_trivial() {
            if let LatencyModel::Constant(d) = self.cfg.latency {
                let flight = self.launch(round, mc.from, Dest::Whole(mc.to), mc.payload);
                self.queue.push(sent.saturating_add(d), (), flight);
                return;
            }
        }
        // Slow path: replay the exact per-recipient decisions of the
        // unbatched expansion — the same drop and latency draws, from
        // the same stream, in recipient order — then regroup survivors
        // by arrival tick. A group is this fan's only entry in its
        // instant, pushed after every earlier send's and before any
        // later one's, so same-instant FIFO order is the expansion's.
        let mut landed = std::mem::take(&mut self.landed);
        debug_assert!(landed.is_empty());
        for (i, to) in mc.to.iter().enumerate() {
            if let Some(cause) =
                self.cfg
                    .faults
                    .dropped(round, mc.from.index(), to.index(), &mut self.rng)
            {
                self.count_dropped(round, cause);
                continue;
            }
            let latency = self.cfg.latency.sample(&mut self.rng);
            landed.push((sent.saturating_add(latency), i as u32));
        }
        if !landed.is_empty() {
            // Recipients sharing an arrival keep slice order: the index
            // breaks ties.
            landed.sort_unstable();
            let last = landed.len() - 1;
            let to = if landed[0].0 == landed[last].0 {
                // One tick: a whole list, the caller's own if it all
                // survived (the sort then left it in index order).
                if last + 1 == mc.to.len() {
                    Dest::Whole(mc.to)
                } else {
                    Dest::Whole(landed.iter().map(|&(_, i)| mc.to[i as usize]).collect())
                }
            } else {
                // Several: the flight's own list, each group's last
                // member marked — never the caller's, which is shared.
                let list = landed.iter().enumerate().map(|(k, &(arrival, i))| {
                    let p = mc.to[i as usize];
                    assert!(p.index() < GROUP_END, "{p} would read as marked");
                    if k < last && landed[k + 1].0 == arrival {
                        p
                    } else {
                        marked(p)
                    }
                });
                Dest::Groups {
                    list: list.collect(),
                    next: 0,
                }
            };
            let flight = self.launch(round, mc.from, to, mc.payload);
            for group in landed.chunk_by(|a, b| a.0 == b.0) {
                self.queue.push(group[0].0, (), flight);
            }
            landed.clear();
        }
        self.landed = landed;
    }

    /// Accepts a whole round as one flight, byte-identical to one `send`
    /// per envelope: the same counters, the same RNG draws in the same
    /// order, the same delivery schedule — but the round stays in the
    /// buffer it came in, queued once per distinct arrival tick, and
    /// `envs` comes back empty with the allocation of a round already
    /// delivered.
    fn send_round(&mut self, round: usize, envs: &mut Vec<Envelope<M>>) {
        // A flight's group is one unit of its instant, handed out in
        // emission order. `Fifo` keeps units in push order, so that is
        // the per-envelope order; `AdversarialLifo` and `Shuffle` reorder
        // an instant unit by unit (`Shuffle` with one `ORDER_LABEL` draw
        // a unit), and there every envelope has to be a unit of its own.
        if self.cfg.ordering != DeliveryPolicy::Fifo {
            for env in envs.drain(..) {
                self.send(round, env);
            }
            return;
        }
        if envs.is_empty() {
            return;
        }
        let widest = envs.iter().fold(0, |all, e| all | e.to.index());
        assert!(widest < GROUP_END, "a recipient would read as marked");
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
        if one_tick.is_none() || !self.cfg.faults.is_lossless() {
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
            // Survivors sharing an arrival keep emission order: the index
            // breaks ties. The round moves once, within its own buffer.
            landed.sort_unstable();
            permute(envs, &mut landed);
            let flight = self.launch_round(round, envs);
            let list = &mut self.rounds[(flight & !ROUND) as usize].envs;
            // One queue entry per distinct arrival, in ascending arrival,
            // the last envelope of each marked.
            let mut close = |k: usize, arrival| {
                list[k].to = marked(list[k].to);
                self.queue.push(arrival, (), flight);
            };
            match one_tick {
                Some(arrival) => close(last, arrival),
                None => (0..=last)
                    .filter(|&k| k == last || landed[k + 1].0 != landed[k].0)
                    .for_each(|k| close(k, landed[k].0)),
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

    /// One line per delivered batch, `round:from>recipients=payload`, of
    /// a jittered, lossy mix: per round two fans with a single send
    /// between and after them, latencies a few ticks wide so recipients
    /// of one fan share arrival ticks, collide with other fans and
    /// straddle rounds.
    fn golden_mix(ordering: DeliveryPolicy) -> Vec<String> {
        let cfg = NetConfig {
            delta: 2,
            ..NetConfig::synchronous()
        }
        .with_seed(29)
        .with_ordering(ordering)
        .with_latency(LatencyModel::Uniform { lo: 0, hi: 5 })
        .with_faults(FaultPlan {
            drop_prob: 0.2,
            ..FaultPlan::default()
        });
        let ids = |v: &[usize]| -> Arc<[ProcId]> { v.iter().map(|&i| ProcId::new(i)).collect() };
        let (all, odd) = (ids(&[0, 1, 2, 3, 4, 5]), ids(&[1, 3, 5]));
        let fan = |from: usize, to: &Arc<[ProcId]>, payload: usize| Multicast {
            from: ProcId::new(from % 6),
            to: to.clone(),
            payload: payload as u16,
        };
        let run = |batches: bool| {
            let mut t: NetTransport<u16> = NetTransport::new(6, cfg.clone());
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
                    t.send_many(r, fan(r, &all, 100 + r));
                    t.send(r, env((r + 1) % 6, (r + 2) % 6, 200 + r as u16));
                    t.send_many(r, fan(r + 3, &odd, 300 + r));
                    t.send(r, env((r + 4) % 6, r % 6, 400 + r as u16));
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

    /// Delivery order under every policy, recorded from the commit before
    /// flights and handles (9d84651): which recipients of a fan travel
    /// together, where the groups fall among other traffic of the same
    /// tick, and that `AdversarialLifo` and `Shuffle` move a group as a
    /// unit — with the `ORDER_LABEL` draws `Shuffle` makes for them.
    #[test]
    fn delivery_order_is_pinned_under_every_policy() {
        let golden = [
            (
                DeliveryPolicy::Fifo,
                "1:3>1=300 1:0>1,3=100 1:3>5=300 1:0>4,5=100 1:3>3=300 2:1>2=200 \
                 2:5>1=401 2:0>0,2=100 2:4>0=400 2:1>0=101 2:2>3=201 2:4>1=301 \
                 3:2>3,4=102 3:5>5=302 3:0>2=402 3:4>5=301 3:1>3=101 3:3>4=202 \
                 4:3>4=103 4:0>1=303 4:1>3=403 4:1>1,2=101 4:4>3=301 4:3>1,3=103 \
                 4:5>1=302 4:3>2=103 4:0>5=303 5:2>2=102 5:5>3=302 5:4>5=203 \
                 5:0>3=303 6:3>0=103",
            ),
            (
                DeliveryPolicy::AdversarialLifo,
                "1:3>1=300 1:3>5=300 1:0>1,3=100 1:3>3=300 1:0>4,5=100 2:5>1=401 \
                 2:1>2=200 2:4>1=301 2:2>3=201 2:1>0=101 2:4>0=400 2:0>0,2=100 \
                 3:0>2=402 3:5>5=302 3:2>3,4=102 3:4>5=301 3:3>4=202 3:1>3=101 \
                 4:1>3=403 4:0>1=303 4:3>4=103 4:3>1,3=103 4:4>3=301 4:1>1,2=101 \
                 4:0>5=303 4:3>2=103 4:5>1=302 5:4>5=203 5:5>3=302 5:2>2=102 \
                 5:0>3=303 6:3>0=103",
            ),
            (
                DeliveryPolicy::Shuffle,
                "1:3>1=300 1:3>5=300 1:0>1,3=100 1:3>3=300 1:0>4,5=100 2:5>1=401 \
                 2:1>2=200 2:0>0,2=100 2:1>0=101 2:4>1=301 2:2>3=201 2:4>0=400 \
                 3:5>5=302 3:2>3,4=102 3:0>2=402 3:4>5=301 3:3>4=202 3:1>3=101 \
                 4:0>1=303 4:1>3=403 4:3>4=103 4:1>1,2=101 4:4>3=301 4:3>1,3=103 \
                 4:0>5=303 4:3>2=103 4:5>1=302 5:2>2=102 5:4>5=203 5:5>3=302 \
                 5:0>3=303 6:3>0=103",
            ),
        ];
        for (policy, expected) in golden {
            let expected: Vec<&str> = expected.split_whitespace().collect();
            assert_eq!(golden_mix(policy), expected, "{policy:?}");
        }
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

    /// The recipients of a [`Dest::Groups`] list, marks cleared.
    fn unmarked(list: &[ProcId]) -> Vec<usize> {
        list.iter().map(|p| p.index() & !GROUP_END).collect()
    }

    /// One fan whose groups leave over several rounds, a collect between
    /// every two of them: the cursor hands every survivor out exactly
    /// once and in list order whatever the policy (a group is one unit),
    /// the last group recycles the slot and no earlier one does, and a
    /// run that stops mid-flight reports what is still in the air.
    #[test]
    fn a_flight_walks_its_survivor_list_across_rounds_under_every_policy() {
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
        let walk = |ordering: DeliveryPolicy, many: bool, rounds: usize| {
            let mut t: NetTransport<u16> = NetTransport::new(24, cfg(ordering));
            t.send_many(
                0,
                Multicast {
                    from: ProcId::new(5),
                    to: to.clone(),
                    payload: 9,
                },
            );
            let Some(Flight {
                to: Dest::Groups { list, next: 0 },
                ..
            }) = &t.flights[0]
            else {
                panic!("the fan spreads over several ticks");
            };
            let expected = unmarked(list);
            let groups = list.iter().filter(|p| p.index() >= GROUP_END).count();
            assert!(groups >= 4 && groups < expected.len() && expected.len() < to.len());
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
            (expected.len() - got.len(), units, groups, t.into_stats())
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
    /// order, over more than one tick, nothing dropped: the survivor list
    /// *is* the caller's, and still the flight marks a copy — the
    /// caller's `Arc` is shared with every other fan to that committee.
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
            match &t.flights[0] {
                Some(Flight {
                    to: Dest::Groups { list, .. },
                    ..
                }) if unmarked(list) == [0, 1, 2] => met += 1,
                _ => continue,
            }
            assert_eq!(Arc::strong_count(&to), 1, "the flight holds its own list");
            let mut got = Vec::new();
            for r in 1..=3 {
                t.collect_many(r, &mut |b| got.push(unmarked(&b.to)));
                assert!(
                    to.iter().map(|p| p.index()).eq(0..3),
                    "written to in round {r}"
                );
            }
            assert!(got.len() > 1, "several groups");
            assert_eq!(got.concat(), [0, 1, 2]);
        }
        assert!(met > 0, "no seed drew the shared-list case");
    }

    /// The widest index `new` admits, 2^31 - 1, differs from a marked
    /// recipient in bit 31 alone: at the end of every group of a spread
    /// fan it is marked, and delivered without the mark. (Two ticks for
    /// twelve copies, so no group is a lone recipient: `collect_many`
    /// would size its table of one-element lists by that index.)
    #[test]
    fn the_widest_recipient_index_is_delivered_unmarked() {
        let widest = ProcId::new(GROUP_END - 1);
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

    #[test]
    #[should_panic(expected = "a value too wide panics instead of folding")]
    fn more_processors_than_the_group_mark_leaves_room_for_are_refused() {
        let _ = NetTransport::<u16>::new(GROUP_END + 1, NetConfig::synchronous());
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
                // envelope pass through here: none may carry the mark.
                let mut note = |from: ProcId, to: ProcId, payload| {
                    assert!(to.index() < n, "{to} left the transport marked");
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
                    Drain::Round => t.collect_round(r, &mut round),
                }
                for e in &round {
                    assert!(e.to.index() < n, "{} left the transport marked", e.to);
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
            /// `collect`, `collect_many` and `collect_round` alike —
            /// whether `collect_round` swaps buffers (no fans, an empty
            /// `into`) or copies.
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
            /// under every policy, and through every `collect*`.
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
                for drain in [Drain::Collect, Drain::Many, Drain::Round] {
                    prop_assert_eq!(&net_run(&cfg, n, &kinds, true, drain), &reference, "{:?}", drain);
                }
                prop_assert_eq!(&net_run(&cfg, n, &kinds, false, Drain::Round), &reference);
            }
        }

        /// An all-to-all round among `n` processors, in emission order.
        fn all_to_all(n: usize) -> Vec<Envelope<u16>> {
            (0..n * n).map(|i| env(i / n, i % n, i as u16)).collect()
        }

        /// A synchronous round is one queue entry and one live flight,
        /// whatever its size, and comes back in the allocation it went
        /// out in; under a policy that reorders an instant envelope by
        /// envelope it is a flight an envelope.
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
            assert_eq!(
                (t.queue.len(), t.rounds.len(), t.flights.len()),
                (n * n, 0, n * n)
            );
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
            assert!(got.iter().all(|e| e.to.index() < n), "delivered marked");
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
