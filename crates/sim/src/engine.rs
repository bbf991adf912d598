//! The synchronous execution engine.

use crate::adversary::{AdvView, Adversary};
use crate::ids::ProcId;
use crate::message::{Carrier, Envelope};
use crate::metrics::Metrics;
use crate::payload::Payload;
use crate::process::{Process, RoundCtx};
use crate::rng::{derive_rng, SimRng, ADVERSARY_LABEL};
use crate::transport::{Lockstep, Transport};
use ba_obs::Trace;

/// Builder for a [`Sim`]: number of processors, randomness seed,
/// corruption budget, and flood cap.
///
/// ```rust
/// use ba_sim::{NullAdversary, SimBuilder};
/// # use ba_sim::{Envelope, Process, RoundCtx};
/// # struct Noop;
/// # impl Process for Noop {
/// #     type Msg = (); type Output = ();
/// #     fn on_round(&mut self, _: &mut RoundCtx<'_, ()>, _: &[Envelope<()>]) {}
/// #     fn output(&self) -> Option<()> { Some(()) }
/// # }
/// let sim = SimBuilder::new(16)
///     .seed(1)
///     .max_corruptions(5)
///     .build(|_, _| Noop, NullAdversary);
/// let outcome = sim.run(4);
/// // Noop decides immediately, so the run ends before any round executes.
/// assert_eq!(outcome.rounds, 0);
/// ```
#[derive(Clone, Debug)]
pub struct SimBuilder {
    n: usize,
    seed: u64,
    max_corruptions: usize,
    flood_cap: usize,
    trace: Trace,
}

impl SimBuilder {
    /// Starts configuring a simulation of `n` processors.
    ///
    /// Defaults: seed 0, corruption budget `⌊(1/3 − 0.05)·n⌋` (just under
    /// the paper's `1/3 − ε` bound), flood cap `64·n²` envelopes per round.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "simulation needs at least one processor");
        SimBuilder {
            n,
            seed: 0,
            max_corruptions: ((n as f64) * (1.0 / 3.0 - 0.05)).floor() as usize,
            flood_cap: 64 * n * n,
            trace: Trace::off(),
        }
    }

    /// Sets the master randomness seed (replays are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the adversary's total corruption budget.
    pub fn max_corruptions(mut self, t: usize) -> Self {
        self.max_corruptions = t.min(self.n);
        self
    }

    /// Caps adversary injections per round (simulator memory protection
    /// only; does not model a network limit).
    pub fn flood_cap(mut self, cap: usize) -> Self {
        self.flood_cap = cap;
        self
    }

    /// Attaches an observability handle (see `ba-obs`). The engine
    /// emits deterministic run events and quarantined wall-clock stage
    /// profiles through it; the default [`Trace::off`] keeps the
    /// pre-observability behaviour bit-for-bit (tracing consumes no
    /// randomness either way).
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Instantiates processors via `make(proc_id, n)` and couples them with
    /// `adversary`, on the default [`Lockstep`] transport (the paper's
    /// synchronous network).
    pub fn build<P, A, F>(self, make: F, adversary: A) -> Sim<P, A>
    where
        P: Process,
        A: Adversary<P>,
        F: FnMut(ProcId, usize) -> P,
    {
        self.build_with_transport(make, adversary, Lockstep::default())
    }

    /// Like [`SimBuilder::build`], but routes every envelope through
    /// `transport` — latency, loss, partitions, crash and churn models all
    /// plug in here (see the `ba-net` crate) without any change to the
    /// `Process` implementations.
    pub fn build_with_transport<P, A, T, F>(
        self,
        make: F,
        adversary: A,
        transport: T,
    ) -> Sim<P, A, T>
    where
        P: Process,
        A: Adversary<P>,
        T: Transport<P::Msg>,
        F: FnMut(ProcId, usize) -> P,
    {
        self.build_carried(make, adversary, transport)
    }

    /// Like [`SimBuilder::build_with_transport`], for a transport that
    /// speaks a wider message type `W` than the protocol's: the engine
    /// keeps each round's traffic as `Envelope<W>`, wrapping what the
    /// processors and the adversary emit and opening deliveries by
    /// reference. A delivered `W` that does not open (another protocol's
    /// leftover on a shared transport) reaches nobody and is charged to
    /// nobody.
    pub fn build_carried<P, A, T, W, F>(
        self,
        mut make: F,
        adversary: A,
        transport: T,
    ) -> Sim<P, A, T, W>
    where
        P: Process,
        A: Adversary<P>,
        W: Carrier<P::Msg>,
        T: Transport<W>,
        F: FnMut(ProcId, usize) -> P,
    {
        let procs: Vec<P> = (0..self.n).map(|i| make(ProcId::new(i), self.n)).collect();
        let rngs: Vec<SimRng> = (0..self.n)
            .map(|i| derive_rng(self.seed, i as u64))
            .collect();
        let adv_rng = derive_rng(self.seed, ADVERSARY_LABEL);
        Sim {
            n: self.n,
            procs,
            rngs,
            adversary,
            adv_rng,
            transport,
            corrupt: vec![false; self.n],
            budget_left: self.max_corruptions,
            flood_cap: self.flood_cap,
            arrivals: Vec::new(),
            offsets: vec![0; self.n + 1],
            order: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            pending: Vec::new(),
            intercepted: Vec::new(),
            metrics: Metrics::new(self.n),
            round: 0,
            trace: self.trace,
        }
    }
}

/// A configured simulation, ready to run.
///
/// Drive it with [`Sim::run`] (to completion or a round limit) or
/// [`Sim::step`] (one round at a time, for tests that inspect
/// intermediate state).
///
/// A round's traffic exists once, as `Envelope<W>` in the transport's
/// own message type `W` (the protocol's, unless built through
/// [`SimBuilder::build_carried`]): processors emit into a private outbox
/// that is wrapped into `pending`, `pending` goes to the transport whole,
/// and deliveries come back whole into `arrivals`, which processors read
/// through an index instead of owning an inbox each.
#[derive(Debug)]
pub struct Sim<P: Process, A, T = Lockstep<<P as Process>::Msg>, W = <P as Process>::Msg> {
    n: usize,
    procs: Vec<P>,
    rngs: Vec<SimRng>,
    adversary: A,
    adv_rng: SimRng,
    transport: T,
    corrupt: Vec<bool>,
    budget_left: usize,
    flood_cap: usize,
    /// This round's deliveries, in the transport's delivery order.
    arrivals: Vec<Envelope<W>>,
    /// Stable counting sort of `arrivals` by recipient: processor `i`'s
    /// inbox is `order[offsets[i]..offsets[i + 1]]`, positions in
    /// `arrivals` in delivery order. Arrivals that do not open as the
    /// protocol's message are left out.
    offsets: Vec<u32>,
    order: Vec<u32>,
    /// Scratch: the inbox of the processor being stepped, gathered
    /// through the index.
    inbox: Vec<Envelope<P::Msg>>,
    /// Scratch: what the processor being stepped emits.
    outbox: Vec<Envelope<P::Msg>>,
    /// This round's outgoing traffic. Trades allocations with `arrivals`
    /// every round, so the buffer that carried a round's emissions is the
    /// one their deliveries land in.
    pending: Vec<Envelope<W>>,
    /// Scratch: traffic visible to the rushing adversary (reused).
    intercepted: Vec<Envelope<P::Msg>>,
    metrics: Metrics,
    round: usize,
    trace: Trace,
}

/// Re-types an envelope's payload, keeping its addressing.
fn wrapped<M, W: Carrier<M>>(e: Envelope<M>) -> Envelope<W> {
    Envelope {
        from: e.from,
        to: e.to,
        payload: W::wrap(e.payload),
    }
}

/// A copy of `e` in the protocol's message type, if it carries one.
fn opened<M: Clone, W: Carrier<M>>(e: &Envelope<W>) -> Option<Envelope<M>> {
    e.payload.open().map(|m| Envelope {
        from: e.from,
        to: e.to,
        payload: m.clone(),
    })
}

impl<P, A, T, W> Sim<P, A, T, W>
where
    P: Process,
    A: Adversary<P>,
    W: Carrier<P::Msg>,
    T: Transport<W>,
{
    /// Runs until every good processor has an output, or `max_rounds`
    /// rounds have executed. Returns the outcome.
    pub fn run(self, max_rounds: usize) -> RunOutcome<P::Output> {
        self.run_parts(max_rounds).0
    }

    /// Like [`Sim::run`], but also hands back the transport so callers can
    /// read the statistics it accumulated (lateness, loss, partitions).
    pub fn run_parts(mut self, max_rounds: usize) -> (RunOutcome<P::Output>, T) {
        while self.round < max_rounds && !self.all_good_decided() {
            self.step();
        }
        self.finish_parts()
    }

    /// Executes a single synchronous round:
    /// 1. the transport delivers every envelope due at the start of the
    ///    round, whole, and the engine indexes the arrivals by recipient;
    /// 2. good, online processors consume their inboxes and emit messages;
    /// 3. the (rushing) adversary sees traffic touching corrupt processors,
    ///    corrupts adaptively within budget, and injects its own messages;
    /// 4. surviving traffic is handed to the transport, whole, for future
    ///    delivery.
    pub fn step(&mut self) {
        let round = self.round;
        // Open this round's bit-attribution bucket before any send is
        // charged (pure accounting: no randomness, no trace needed).
        self.metrics.begin_round();
        // Every round buffer is reused at its high-water capacity.
        // `pending` is empty since last round's hand-off; it takes over
        // from `arrivals`.
        self.intercepted.clear();
        self.arrivals.clear();
        std::mem::swap(&mut self.arrivals, &mut self.pending);

        // (1) Deliver everything due at the start of this round.
        {
            let _t = self.trace.timer("sim:deliver");
            self.transport.collect_round(round, &mut self.arrivals);
            self.index_arrivals();
        }

        // (2) Good, online processors act on this round's inbox, each
        // emitting into the outbox scratch (RoundCtx::send only pushes),
        // which joins the shared pending buffer in processor order.
        // Offline (crashed / churned-out) processors skip the round;
        // whatever was just delivered to them is lost.
        let step_timer = self.trace.timer("sim:procs");
        for i in 0..self.n {
            if self.corrupt[i] || !self.transport.is_online(round, ProcId::new(i)) {
                continue;
            }
            let mine = self.offsets[i] as usize..self.offsets[i + 1] as usize;
            self.inbox.clear();
            self.inbox.extend(
                self.order[mine]
                    .iter()
                    .filter_map(|&at| opened(&self.arrivals[at as usize])),
            );
            let mut ctx = RoundCtx {
                me: ProcId::new(i),
                n: self.n,
                round,
                rng: &mut self.rngs[i],
                outbox: &mut self.outbox,
            };
            self.procs[i].on_round(&mut ctx, &self.inbox);
            self.pending.extend(self.outbox.drain(..).map(wrapped));
        }
        drop(step_timer);

        // (3) Rushing adversary: sees messages touching corrupt processors.
        let adv_timer = self.trace.timer("sim:adversary");
        self.intercepted.extend(
            self.pending
                .iter()
                .filter(|e| self.corrupt[e.from.index()] || self.corrupt[e.to.index()])
                .filter_map(opened),
        );
        let view = AdvView {
            round,
            n: self.n,
            corrupt: &self.corrupt,
            intercepted: &self.intercepted,
        };
        let action = self.adversary.act(&view, &mut self.adv_rng);

        // Apply corruptions within budget.
        let mut newly_corrupt = Vec::new();
        for p in action.corrupt {
            let i = p.index();
            if !self.corrupt[i] && self.budget_left > 0 {
                self.corrupt[i] = true;
                self.budget_left -= 1;
                newly_corrupt.push(i);
                // Corruption decisions are a deterministic function of
                // the seed, so this event is trace-stable.
                self.trace.event(
                    "sim:corrupt",
                    round as u64,
                    "",
                    &[
                        ("proc", (i as u64).into()),
                        ("budget_left", (self.budget_left as u64).into()),
                    ],
                );
            }
        }
        // Drop pending messages of processors corrupted mid-round if asked.
        if !action.drop_pending_from.is_empty() {
            let droppable: Vec<usize> = action
                .drop_pending_from
                .iter()
                .map(|p| p.index())
                .filter(|i| newly_corrupt.contains(i))
                .collect();
            self.pending
                .retain(|e| !droppable.contains(&e.from.index()));
        }
        // Inject adversary traffic: only authenticated (corrupt) senders.
        let mut injected = 0usize;
        for e in action.inject {
            if injected >= self.flood_cap {
                break;
            }
            if self.corrupt[e.from.index()] {
                self.pending.push(wrapped(e));
                injected += 1;
            }
        }
        drop(adv_timer);

        // (4) Account sends and hand this round's traffic to the
        // transport; receive charges happen on delivery, so dropped or
        // still-in-flight envelopes are never charged to their recipient.
        let _t = self.trace.timer("sim:send");
        for e in &self.pending {
            if let Some(m) = e.payload.open() {
                self.metrics.charge_send(e.from, m.bit_len());
            }
        }
        self.transport.send_round(round, &mut self.pending);
        // By contract the transport left nothing behind, and then this is
        // free; a leftover would be swapped into `arrivals` and delivered
        // a second time next round.
        self.pending.clear();
        self.round += 1;
    }

    /// Charges this round's arrivals to their recipients and rebuilds the
    /// by-recipient index over them (a stable counting sort, so every
    /// inbox keeps the transport's delivery order).
    fn index_arrivals(&mut self) {
        assert!(
            u32::try_from(self.arrivals.len()).is_ok(),
            "a round's arrivals must number fewer than 2^32"
        );
        // Count into the slot after each recipient's, then sum: offsets[i]
        // becomes where processor i's run starts.
        self.offsets.fill(0);
        for e in &self.arrivals {
            if let Some(m) = e.payload.open() {
                self.metrics.charge_receive(e.to, m.bit_len());
                self.offsets[e.to.index() + 1] += 1;
            }
        }
        for i in 0..self.n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.order.clear();
        self.order.resize(self.offsets[self.n] as usize, 0);
        // Placing advances each run's start to its end, i.e. to the next
        // run's start: shifting the table up one slot restores it.
        for (at, e) in self.arrivals.iter().enumerate() {
            if e.payload.open().is_some() {
                let slot = &mut self.offsets[e.to.index()];
                self.order[*slot as usize] = at as u32;
                *slot += 1;
            }
        }
        self.offsets.rotate_right(1);
        self.offsets[0] = 0;
    }

    /// Whether every good processor has decided (permanently failed —
    /// crash-stopped — processors are not waited for).
    fn all_good_decided(&self) -> bool {
        (0..self.n).all(|i| {
            self.corrupt[i]
                || self.procs[i].output().is_some()
                || self.transport.is_faulty(self.round, ProcId::new(i))
        })
    }

    /// Read access to a processor's state (for tests and experiments; the
    /// *adversary*'s [`AdvView`] carries no processor's state).
    pub fn process(&self, p: ProcId) -> &P {
        &self.procs[p.index()]
    }

    /// Finalizes the run and extracts outputs and metrics.
    pub fn finish(self) -> RunOutcome<P::Output> {
        self.finish_parts().0
    }

    /// Like [`Sim::finish`], but also returns the transport (for reading
    /// accumulated network statistics).
    fn finish_parts(self) -> (RunOutcome<P::Output>, T) {
        let outputs: Vec<Option<P::Output>> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| if self.corrupt[i] { None } else { p.output() })
            .collect();
        let faulty: Vec<bool> = (0..self.n)
            .map(|i| self.transport.is_faulty(self.round, ProcId::new(i)))
            .collect();
        self.trace.event(
            "sim:end",
            self.round as u64,
            "",
            &[
                (
                    "decided",
                    outputs.iter().filter(|o| o.is_some()).count().into(),
                ),
                (
                    "corrupt",
                    self.corrupt.iter().filter(|&&c| c).count().into(),
                ),
                ("faulty", faulty.iter().filter(|&&f| f).count().into()),
                ("total_bits", self.metrics.total_bits().into()),
                ("total_msgs", self.metrics.total_msgs().into()),
            ],
        );
        (
            RunOutcome {
                rounds: self.round,
                corrupt: self.corrupt,
                faulty,
                outputs,
                metrics: self.metrics,
            },
            self.transport,
        )
    }
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct RunOutcome<O> {
    /// Rounds executed.
    pub rounds: usize,
    /// Which processors ended corrupted.
    pub corrupt: Vec<bool>,
    /// Which processors ended permanently failed at the transport level
    /// (crash-stop faults — the benign counterpart of `corrupt`). All
    /// `false` on the lockstep transport. Crashed processors are not
    /// "good" for the agreement helpers below: agreement is a property
    /// of *correct* processors, and a crashed one may have halted
    /// undecided (its pre-crash output, if any, is still in `outputs`).
    pub faulty: Vec<bool>,
    /// Per-processor outputs; `None` for corrupted or undecided processors.
    pub outputs: Vec<Option<O>>,
    /// Communication accounting.
    pub metrics: Metrics,
}

impl<O: PartialEq> RunOutcome<O> {
    /// Whether every good processor decided and they all agree on `v`.
    pub fn all_good_agree_on(&self, v: &O) -> bool {
        self.good_indices()
            .all(|i| self.outputs[i].as_ref() == Some(v))
    }

    /// Whether every good processor decided on one common value (any value).
    pub fn all_good_agree(&self) -> bool {
        let mut goods = self.good_indices();
        let Some(first) = goods.next() else {
            return true;
        };
        let Some(v) = self.outputs[first].as_ref() else {
            return false;
        };
        self.good_indices()
            .all(|i| self.outputs[i].as_ref() == Some(v))
    }

    /// Fraction of good processors whose output equals the plurality output
    /// among good processors; 1.0 when all good processors agree.
    pub fn good_agreement_fraction(&self) -> f64 {
        let goods: Vec<usize> = self.good_indices().collect();
        if goods.is_empty() {
            return 1.0;
        }
        let best = goods
            .iter()
            .map(|&i| {
                goods
                    .iter()
                    .filter(|&&j| self.outputs[j].is_some() && self.outputs[j] == self.outputs[i])
                    .count()
            })
            .max()
            .unwrap_or(0);
        best as f64 / goods.len() as f64
    }

    fn good_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.corrupt.len()).filter(|&i| !self.corrupt[i] && !self.faulty[i])
    }

    /// Number of good (neither corrupted nor crash-stopped) processors.
    pub fn good_count(&self) -> usize {
        self.good_indices().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdvAction, NullAdversary, StaticAdversary};

    /// Echo protocol: round 0 everyone sends its input bit to everyone;
    /// round 1 everyone outputs the majority bit received.
    struct Echo {
        input: bool,
        out: Option<bool>,
    }

    impl Process for Echo {
        type Msg = bool;
        type Output = bool;

        fn on_round(&mut self, ctx: &mut RoundCtx<'_, bool>, inbox: &[Envelope<bool>]) {
            match ctx.round() {
                0 => {
                    for p in ctx.all_procs() {
                        ctx.send(p, self.input);
                    }
                }
                1 => {
                    let ones = inbox.iter().filter(|e| e.payload).count();
                    self.out = Some(2 * ones > inbox.len());
                }
                _ => {}
            }
        }

        fn output(&self) -> Option<bool> {
            self.out
        }
    }

    #[test]
    fn echo_agrees_without_adversary() {
        let outcome = SimBuilder::new(9)
            .seed(3)
            .build(
                |p, _| Echo {
                    input: p.index() % 3 != 0,
                    out: None,
                },
                NullAdversary,
            )
            .run(5);
        // 6 of 9 inputs are `true`.
        assert!(outcome.all_good_agree_on(&true));
        assert_eq!(outcome.rounds, 2);
        assert!(outcome.all_good_agree());
        assert_eq!(outcome.good_agreement_fraction(), 1.0);
    }

    #[test]
    fn bit_accounting_exact() {
        let outcome = SimBuilder::new(4)
            .build(
                |_, _| Echo {
                    input: true,
                    out: None,
                },
                NullAdversary,
            )
            .run(5);
        // Each of 4 processors sends 4 one-bit messages in round 0.
        assert_eq!(outcome.metrics.total_bits(), 16);
        assert_eq!(outcome.metrics.total_msgs(), 16);
        for i in 0..4 {
            assert_eq!(outcome.metrics.bits_sent_by(ProcId::new(i)), 4);
        }
    }

    #[test]
    fn static_crash_faults_silence_targets() {
        // 3 of 10 crash before sending. The 7 good `true` inputs win.
        let outcome = SimBuilder::new(10)
            .max_corruptions(3)
            .build(
                |p, _| Echo {
                    input: p.index() >= 3,
                    out: None,
                },
                StaticAdversary::first_k(3),
            )
            .run(5);
        assert_eq!(outcome.good_count(), 7);
        assert!(outcome.all_good_agree_on(&true));
        // Crashed processors sent nothing (messages dropped mid-round 0).
        for i in 0..3 {
            assert_eq!(outcome.metrics.bits_sent_by(ProcId::new(i)), 0);
        }
    }

    /// Adversary that equivocates: corrupts p0 at round 0, drops its honest
    /// messages, and sends `true` to even processors, `false` to odd ones.
    struct Equivocator;

    impl Adversary<Echo> for Equivocator {
        fn act(&mut self, view: &AdvView<'_, Echo>, _rng: &mut SimRng) -> AdvAction<bool> {
            if view.round() != 0 {
                return AdvAction::none();
            }
            let p0 = ProcId::new(0);
            let inject = (0..view.n())
                .map(|i| Envelope::new(p0, ProcId::new(i), i % 2 == 0))
                .collect();
            AdvAction {
                corrupt: vec![p0],
                drop_pending_from: vec![p0],
                inject,
            }
        }
    }

    #[test]
    fn equivocation_reaches_only_intended_recipients() {
        // n=3: p0 corrupt; p1,p2 have inputs true,false. p1 hears
        // [false(p0), true, false] -> majority false; p2 hears
        // [true(p0), true, false] -> majority true (tie broken strictly >).
        let outcome = SimBuilder::new(3)
            .max_corruptions(1)
            .build(
                |p, _| Echo {
                    input: p.index() == 1,
                    out: None,
                },
                Equivocator,
            )
            .run(5);
        assert_eq!(outcome.outputs[1], Some(false));
        assert_eq!(outcome.outputs[2], Some(true));
        assert!(!outcome.all_good_agree());
        assert!((outcome.good_agreement_fraction() - 0.5).abs() < 1e-12);
    }

    /// Adversary that tries to exceed its budget.
    struct Greedy;
    impl Adversary<Echo> for Greedy {
        fn act(&mut self, view: &AdvView<'_, Echo>, _rng: &mut SimRng) -> AdvAction<bool> {
            AdvAction {
                corrupt: (0..view.n()).map(ProcId::new).collect(),
                drop_pending_from: Vec::new(),
                inject: Vec::new(),
            }
        }
    }

    #[test]
    fn corruption_budget_enforced() {
        let outcome = SimBuilder::new(9)
            .max_corruptions(2)
            .build(
                |_, _| Echo {
                    input: true,
                    out: None,
                },
                Greedy,
            )
            .run(5);
        assert_eq!(outcome.corrupt.iter().filter(|&&c| c).count(), 2);
        assert_eq!(outcome.good_count(), 7);
    }

    /// Adversary that floods from a corrupted node.
    struct Flooder;
    impl Adversary<Echo> for Flooder {
        fn act(&mut self, view: &AdvView<'_, Echo>, _rng: &mut SimRng) -> AdvAction<bool> {
            let p0 = ProcId::new(0);
            let inject = (0..10_000)
                .map(|i| Envelope::new(p0, ProcId::new(i % view.n()), true))
                .collect();
            AdvAction {
                corrupt: vec![p0],
                drop_pending_from: vec![],
                inject,
            }
        }
    }

    #[test]
    fn flood_cap_limits_injections() {
        let outcome = SimBuilder::new(4)
            .max_corruptions(1)
            .flood_cap(100)
            .build(
                |_, _| Echo {
                    input: true,
                    out: None,
                },
                Flooder,
            )
            .run(2);
        // Round 0: 4 procs × 4 sends (p0 corrupted after emitting, messages
        // kept) + ≤100 injected; round 1: ≤100 injected.
        assert!(outcome.metrics.total_msgs() <= 16 + 200);
    }

    #[test]
    fn injection_from_good_sender_rejected() {
        struct Forger;
        impl Adversary<Echo> for Forger {
            fn act(&mut self, view: &AdvView<'_, Echo>, _rng: &mut SimRng) -> AdvAction<bool> {
                // Try to forge a message from good processor 1.
                let _ = view;
                AdvAction {
                    corrupt: vec![],
                    drop_pending_from: vec![],
                    inject: vec![Envelope::new(ProcId::new(1), ProcId::new(2), false)],
                }
            }
        }
        let outcome = SimBuilder::new(3)
            .build(
                |_, _| Echo {
                    input: true,
                    out: None,
                },
                Forger,
            )
            .run(3);
        // Forged envelopes never delivered: totals match the honest run.
        assert_eq!(outcome.metrics.total_msgs(), 9);
        assert!(outcome.all_good_agree_on(&true));
    }

    #[test]
    fn deterministic_replay_same_seed() {
        let run = |seed| {
            SimBuilder::new(8)
                .seed(seed)
                .build(
                    |p, _| Echo {
                        input: p.index() % 2 == 0,
                        out: None,
                    },
                    NullAdversary,
                )
                .run(5)
                .metrics
                .total_bits()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_events() {
        let build = |trace: Trace| {
            SimBuilder::new(9)
                .seed(3)
                .max_corruptions(2)
                .trace(trace)
                .build(
                    |p, _| Echo {
                        input: p.index() % 3 != 0,
                        out: None,
                    },
                    StaticAdversary::first_k(2),
                )
                .run(5)
        };
        let plain = build(Trace::off());
        let trace = Trace::memory();
        let traced = build(trace.clone());
        assert_eq!(plain.rounds, traced.rounds);
        assert_eq!(plain.corrupt, traced.corrupt);
        assert!(plain.outputs == traced.outputs);
        assert_eq!(plain.metrics.total_bits(), traced.metrics.total_bits());
        let lines = trace.take_lines();
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.starts_with("{\"kind\": \"sim:corrupt\""))
                .count(),
            2,
            "one event per corruption"
        );
        assert!(
            lines.last().unwrap().starts_with("{\"kind\": \"sim:end\""),
            "run summary event closes the trace"
        );
        // Wall times are quarantined: no event payload carries seconds.
        assert!(lines.iter().all(|l| !l.contains("secs")));
        assert!(!trace.profile_snapshot().is_empty(), "stage timers ran");
    }

    #[test]
    fn per_round_bits_sum_to_total() {
        let outcome = SimBuilder::new(4)
            .build(
                |_, _| Echo {
                    input: true,
                    out: None,
                },
                NullAdversary,
            )
            .run(5);
        let by_round: u64 = (0..outcome.rounds)
            .map(|r| outcome.metrics.bits_in_round(r))
            .sum();
        assert_eq!(by_round, outcome.metrics.total_bits());
        assert_eq!(outcome.metrics.bits_in_round(0), 16, "all sends in round 0");
    }

    /// A transport whose `send_round` breaks the contract and leaves the
    /// round in the buffer: the engine must not deliver it a second time.
    #[test]
    fn a_round_left_in_the_buffer_is_not_delivered_twice() {
        struct Copies(Lockstep<bool>);
        impl Transport<bool> for Copies {
            fn send(&mut self, round: usize, env: Envelope<bool>) {
                self.0.send(round, env);
            }
            fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<bool>)) {
                self.0.collect(round, deliver);
            }
            fn send_round(&mut self, round: usize, envs: &mut Vec<Envelope<bool>>) {
                envs.iter().for_each(|e| self.0.send(round, e.clone()));
            }
        }
        let outcome = SimBuilder::new(4)
            .build_with_transport(
                |_, _| Echo {
                    input: true,
                    out: None,
                },
                NullAdversary,
                Copies(Lockstep::default()),
            )
            .run(5);
        assert!(outcome.all_good_agree_on(&true));
        for i in 0..4 {
            let p = ProcId::new(i);
            assert_eq!(outcome.metrics.bits_received_by(p), 4, "{p} heard twice");
        }
    }

    #[test]
    fn run_respects_round_limit() {
        struct Forever;
        impl Process for Forever {
            type Msg = ();
            type Output = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>, _: &[Envelope<()>]) {}
            fn output(&self) -> Option<()> {
                None
            }
        }
        let outcome = SimBuilder::new(2)
            .build(|_, _| Forever, NullAdversary)
            .run(7);
        assert_eq!(outcome.rounds, 7);
        assert!(outcome.outputs.iter().all(|o| o.is_none()));
    }
}
