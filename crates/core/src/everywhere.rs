//! Algorithm 4: everywhere Byzantine agreement in `Õ(√n)` bits per
//! processor (paper §5, Theorem 1).
//!
//! The composition:
//!
//! 1. run the tournament (Algorithm 2 + §3.5): almost all good processors
//!    agree on a bit and on a global coin subsequence;
//! 2. run Algorithm 3 (`Θ(log n)` loops), with each loop's global label
//!    drawn by `GenerateSecretNumber` from the coin subsequence, spreading
//!    the bit from the knowledgeable majority to *every* good processor.
//!
//! The `Õ(√n)`-bit Algorithm-3 phase dominates the per-processor cost
//! (§5: "each execution of AlmostEverywhereToEverywhere takes Õ(√n) bits
//! per processor, which dominates the cost").
//!
//! Both phases run over one [`Transport`] of [`StackMsg`], the
//! [`Carrier`] of each phase's messages: the tournament and the engine
//! each wrap their own and open only their own; `AeLens` continues phase
//! 2's rounds where phase 1's stopped.

use crate::ae_to_e::{AeMsg, AeToEConfig, AeToEOutcome, AeToEProcess};
use crate::coin::CoinSequence;
use crate::scale::{impl_scale_builders, StackParams};
use crate::tournament::{self, TourMsg, TournamentConfig, TournamentOutcome, TreeAdversary};
use ba_sim::{
    Adversary, BitStats, Carrier, Envelope, Lockstep, Payload, ProcId, SimBuilder, Transport,
};
use ba_topology::Params;

/// Configuration for the full Algorithm 4 stack.
#[derive(Clone, Debug)]
pub struct EverywhereConfig {
    /// Tournament (Algorithm 2 + §3.5) configuration.
    pub tournament: TournamentConfig,
    /// Algorithm 3 configuration.
    pub ae: AeToEConfig,
    /// Engine seed for the Algorithm-3 phase.
    pub sim_seed: u64,
}

impl EverywhereConfig {
    /// Paper-shaped defaults for `n` processors at `sp.seed`.
    pub(crate) fn from_params(sp: &StackParams) -> Self {
        let tournament = TournamentConfig::from_params(sp);
        let eps = tournament.params.eps;
        EverywhereConfig {
            tournament,
            ae: AeToEConfig::for_n(sp.n, eps),
            sim_seed: if sp.seed == 0 { 1 } else { sp.engine_seed() },
        }
    }

    fn apply_seed(&mut self, seed: u64) {
        let sp = StackParams {
            n: self.tournament.params.n,
            seed,
        };
        self.tournament.seed = sp.tournament_seed();
        self.sim_seed = sp.engine_seed();
    }

    /// The *scale profile* at `n`: structure-preserving constants that
    /// keep graph memory and gossip volume near-linear in n, so the whole
    /// stack runs at n = 2¹⁷ on one box. `Params::practical(n)` with
    /// k₁ = 2·log₂n, the AEBA gossip degree capped at `4·log₂n` (the
    /// default `6·√n` term alone would cost a ~2 GB root graph at 2¹⁷) and
    /// ~¾·log₂n AEBA rounds, at most 8 extra coin words, and Algorithm 3
    /// trimmed to a few samples per label. Only constants change: every
    /// path still executes, so a completed run is an end-to-end run.
    pub fn scale_profile(n: usize) -> Self {
        let log_n = (n as f64).log2().max(1.0);
        let degree = ((4.0 * log_n).ceil() as usize).max(8).min(n - 1);
        let mut config = EverywhereConfig::for_n(n);
        // These keep the committee-agreement margins while shedding the
        // dominant L*:agree volume that would otherwise make 2^17 a
        // multi-hour run.
        config.tournament.params = Params::practical(n)
            .with_k1((2.0 * log_n).ceil() as usize)
            .with_aeba_degree(degree)
            .with_aeba_rounds(((0.75 * log_n).ceil() as usize).max(6));
        // Coin-word redundancy beyond 8 extra words buys adversarial
        // robustness this unattacked profile doesn't spend.
        config.tournament.extra_words = config.tournament.extra_words.min(8);
        // Still Θ(√n) labels, so the √n·polylog(n) shape survives with
        // smaller constants.
        config.ae.per_label = config.ae.per_label.clamp(2, 4);
        config.ae.loops = config.ae.loops.clamp(1, 2);
        config
    }
}

impl_scale_builders!(EverywhereConfig);

/// The message type of the full stack over one shared [`Transport`]:
/// phase-1 committee traffic and phase-2 Algorithm-3 traffic flow
/// through the *same* transport object, on one continuous round
/// timeline, so a partition that opens during the tournament and heals
/// during Algorithm 3 cuts both phases exactly where it should.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackMsg {
    /// Tournament committee traffic (phase 1).
    Tour(TourMsg),
    /// Algorithm-3 traffic (phase 2).
    Ae(AeMsg),
}

impl Payload for StackMsg {
    fn bit_len(&self) -> u64 {
        match self {
            StackMsg::Tour(m) => m.bit_len(),
            StackMsg::Ae(m) => m.bit_len(),
        }
    }
}

/// The tournament's routed fans travel as `StackMsg::Tour`.
impl Carrier<TourMsg> for StackMsg {
    fn wrap(msg: TourMsg) -> Self {
        StackMsg::Tour(msg)
    }

    fn open(&self) -> Option<&TourMsg> {
        match self {
            StackMsg::Tour(m) => Some(m),
            StackMsg::Ae(_) => None,
        }
    }
}

/// Algorithm 3 runs in the engine directly on `StackMsg` envelopes: the
/// engine wraps what the processors emit and opens deliveries by
/// reference, so phase 2 converts no envelope on the way in or out.
impl Carrier<AeMsg> for StackMsg {
    fn wrap(msg: AeMsg) -> Self {
        StackMsg::Ae(msg)
    }

    fn open(&self) -> Option<&AeMsg> {
        match self {
            StackMsg::Ae(m) => Some(m),
            StackMsg::Tour(_) => None,
        }
    }
}

// Algorithm 3 holds `n·√n·a·log n` of these at once; the engine's memory
// per envelope is this size plus a 4-byte index entry.
const _: () = assert!(std::mem::size_of::<Envelope<StackMsg>>() <= 32);

impl ba_sim::WireMsg for StackMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use ba_sim::wire::put_u8;
        match self {
            StackMsg::Tour(m) => {
                put_u8(out, 0);
                m.encode(out);
            }
            StackMsg::Ae(m) => {
                put_u8(out, 1);
                m.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        use ba_sim::wire::take_u8;
        match take_u8(buf)? {
            0 => Ok(StackMsg::Tour(ba_sim::WireMsg::decode(buf)?)),
            1 => Ok(StackMsg::Ae(ba_sim::WireMsg::decode(buf)?)),
            t => Err(ba_sim::WireError::BadTag(t)),
        }
    }
}

/// Continues a `Transport<StackMsg>`'s round timeline where phase 1
/// stopped: the engine counts Algorithm 3's rounds from 0 and speaks
/// `StackMsg` itself (see [`Carrier`]), so the shift is all there is.
struct AeLens<Tr> {
    inner: Tr,
    base: usize,
}

impl<Tr: Transport<StackMsg>> Transport<StackMsg> for AeLens<Tr> {
    fn send(&mut self, round: usize, env: Envelope<StackMsg>) {
        self.inner.send(self.base + round, env);
    }

    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<StackMsg>)) {
        self.inner.collect(self.base + round, deliver);
    }

    fn send_round(&mut self, round: usize, envs: &mut Vec<Envelope<StackMsg>>) {
        self.inner.send_round(self.base + round, envs);
    }

    fn collect_round(&mut self, round: usize, into: &mut Vec<Envelope<StackMsg>>) {
        self.inner.collect_round(self.base + round, into);
    }

    fn is_online(&self, round: usize, p: ProcId) -> bool {
        self.inner.is_online(self.base + round, p)
    }

    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.inner.is_faulty(self.base + round, p)
    }

    fn mark_phase(&mut self, round: usize, name: &str) {
        self.inner.mark_phase(self.base + round, name);
    }
}

/// Result of a full everywhere-agreement execution.
#[derive(Clone, Debug)]
pub struct EverywhereOutcome {
    /// Phase-1 result (kept whole for experiment drill-down).
    pub tournament: TournamentOutcome,
    /// Phase-2 tally.
    pub ae: AeToEOutcome,
    /// Final per-processor decisions (`None` = corrupted or undecided).
    pub decisions: Vec<Option<bool>>,
    /// Whether every good processor decided the same bit.
    pub everywhere_agreement: bool,
    /// Whether the decided bit was a good processor's input.
    pub valid: bool,
    /// Total bits sent per processor across both phases.
    pub bits_per_proc: Vec<u64>,
    /// Total synchronous rounds across both phases.
    pub rounds: usize,
    /// Final corruption flags.
    pub corrupt: Vec<bool>,
    /// Per-phase bit attribution: the tournament's phases followed by
    /// one `ae` entry for the Algorithm 3 handoff. Sums exactly to
    /// `bits_per_proc.iter().sum()`.
    pub phase_bits: Vec<(String, u64)>,
}

impl EverywhereOutcome {
    /// Bit statistics over good processors (the Theorem 1 metric).
    pub fn good_bit_stats(&self) -> BitStats {
        let sel: Vec<u64> = self
            .bits_per_proc
            .iter()
            .zip(&self.corrupt)
            .filter(|(_, &c)| !c)
            .map(|(&b, _)| b)
            .collect();
        BitStats::from_samples(&sel)
    }
}

/// Runs Algorithm 4: tournament, then coin-driven Algorithm 3. The tree
/// adversary acts during phase 1; `ae_adversary` acts during phase 2
/// (pass [`ba_sim::NullAdversary`] for none). Corruptions persist across
/// the phase boundary.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the configured `n`.
pub fn run<T, A>(
    config: &EverywhereConfig,
    inputs: &[bool],
    tree_adversary: &mut T,
    ae_adversary: A,
) -> EverywhereOutcome
where
    T: TreeAdversary,
    A: Adversary<AeToEProcess>,
{
    run_with_transport(
        config,
        inputs,
        tree_adversary,
        ae_adversary,
        Lockstep::default(),
    )
    .0
}

/// [`run`] with **both** phases routed through one explicit
/// [`Transport`] over [`StackMsg`]: the tournament's committee
/// exchanges (phase 1) and Algorithm 3's request/response traffic
/// (phase 2) share the transport object and its round timeline, so
/// `ba-net` latency and fault models — partitions during elections
/// included — govern the whole stack. Returns the outcome together with
/// the transport so callers can read the statistics it accumulated.
pub fn run_with_transport<T, A, Tr>(
    config: &EverywhereConfig,
    inputs: &[bool],
    tree_adversary: &mut T,
    ae_adversary: A,
    mut transport: Tr,
) -> (EverywhereOutcome, Tr)
where
    T: TreeAdversary,
    A: Adversary<AeToEProcess>,
    Tr: Transport<StackMsg>,
{
    let n = config.tournament.params.n;
    assert_eq!(inputs.len(), n, "inputs must cover all processors");

    // ---- Phase 1: Algorithm 2 + §3.5, over the shared transport ----
    let t_out =
        tournament::run_with_transport(&config.tournament, inputs, tree_adversary, &mut transport);
    let coins = CoinSequence::from_tournament(&t_out);
    let m: u64 = u64::from(t_out.decided);

    // ---- Phase 2: Algorithm 3, labels from GenerateSecretNumber ----
    let ae_cfg = {
        let mut c = config.ae.clone();
        if !coins.is_empty() {
            c = c.with_label_schedule(coins.values());
        }
        c
    };
    let rounds = ae_cfg.total_rounds();
    // Knowledgeable = good processors holding the plurality bit after
    // phase 1 (§4: "knowledgeable if it is good and agrees on m").
    let knowledgeable: Vec<bool> = t_out
        .decisions
        .iter()
        .map(|d| *d == Some(t_out.decided))
        .collect();
    let budget_left = config
        .tournament
        .params
        .corruption_budget()
        .saturating_sub(t_out.corrupt.iter().filter(|&&c| c).count());
    // The engine-driven phase 2 never announces exchanges itself; one
    // explicit mark closes the tournament's last derived phase and
    // attributes everything after the handoff to "ae".
    transport.mark_phase(t_out.transport_rounds, "ae");
    let (sim_outcome, lens) = {
        let pre_corrupt = t_out.corrupt.clone();
        let sim = SimBuilder::new(n)
            .seed(config.sim_seed)
            .max_corruptions(pre_corrupt.iter().filter(|&&c| c).count() + budget_left)
            .build_carried(
                |p, _| {
                    let k = knowledgeable[p.index()].then_some(m);
                    AeToEProcess::new(ae_cfg.clone(), k)
                },
                PreCorrupted {
                    targets: pre_corrupt,
                    inner: ae_adversary,
                },
                // Phase 2 continues the transport timeline where the
                // tournament's routed exchanges stopped.
                AeLens {
                    inner: transport,
                    base: t_out.transport_rounds,
                },
            );
        sim.run_parts(rounds + 1)
    };
    let transport = lens.inner;

    let ae = AeToEOutcome::from_outputs(&sim_outcome.outputs, &sim_outcome.corrupt, m);
    let decisions: Vec<Option<bool>> = sim_outcome
        .outputs
        .iter()
        .zip(&sim_outcome.corrupt)
        .map(|(o, &c)| if c { None } else { o.map(|v| v != 0) })
        .collect();
    let everywhere_agreement = decisions
        .iter()
        .zip(&sim_outcome.corrupt)
        .filter(|(_, &c)| !c)
        .all(|(d, _)| *d == Some(t_out.decided));
    let bits_per_proc: Vec<u64> = (0..n)
        .map(|i| t_out.bits_per_proc[i] + sim_outcome.metrics.bits_sent_by(ProcId::new(i)))
        .collect();
    // Phase attribution: everything phase 2 charged is the "ae" phase,
    // by the same total the bits_per_proc sum folds in.
    let mut phase_bits = t_out.phase_bits.clone();
    phase_bits.push(("ae".to_owned(), sim_outcome.metrics.total_bits()));
    (
        EverywhereOutcome {
            valid: t_out.valid,
            rounds: t_out.rounds + sim_outcome.rounds,
            corrupt: sim_outcome.corrupt.clone(),
            tournament: t_out,
            ae,
            decisions,
            everywhere_agreement,
            bits_per_proc,
            phase_bits,
        },
        transport,
    )
}

/// Adapter that re-applies phase-1 corruptions at round 0 of phase 2 and
/// then delegates to the wrapped phase-2 adversary.
struct PreCorrupted<A> {
    targets: Vec<bool>,
    inner: A,
}

impl<A: Adversary<AeToEProcess>> Adversary<AeToEProcess> for PreCorrupted<A> {
    fn act(
        &mut self,
        view: &ba_sim::AdvView<'_, AeToEProcess>,
        rng: &mut ba_sim::SimRng,
    ) -> ba_sim::AdvAction<crate::ae_to_e::AeMsg> {
        let mut action = self.inner.act(view, rng);
        if view.round() == 0 {
            let mut carried: Vec<ProcId> = self
                .targets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c)
                .map(|(i, _)| ProcId::new(i))
                .collect();
            carried.extend(action.corrupt);
            action.corrupt = carried;
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tournament::NoTreeAdversary;
    use ba_sim::NullAdversary;

    #[test]
    fn clean_run_reaches_everywhere_agreement() {
        let n = 64;
        let config = EverywhereConfig::for_n(n).with_seed(3);
        let out = run(&config, &vec![true; n], &mut NoTreeAdversary, NullAdversary);
        assert!(out.valid);
        assert!(out.everywhere_agreement, "ae tally: {:?}", out.ae);
        assert_eq!(out.ae.wrong, 0);
        assert!(out.decisions.iter().all(|d| *d == Some(true)));
    }

    #[test]
    fn split_inputs_agree_on_some_input() {
        let n = 64;
        let config = EverywhereConfig::for_n(n).with_seed(4);
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let out = run(&config, &inputs, &mut NoTreeAdversary, NullAdversary);
        assert!(out.valid);
        assert!(out.everywhere_agreement);
    }

    #[test]
    fn bits_combine_both_phases() {
        let n = 64;
        let config = EverywhereConfig::for_n(n).with_seed(5);
        let out = run(
            &config,
            &vec![false; n],
            &mut NoTreeAdversary,
            NullAdversary,
        );
        for i in 0..n {
            assert!(
                out.bits_per_proc[i] >= out.tournament.bits_per_proc[i],
                "phase-2 bits must add on"
            );
        }
        assert!(out.rounds > out.tournament.rounds);
        let stats = out.good_bit_stats();
        assert!(stats.min > 0);
    }

    #[test]
    fn phase_bits_cover_both_phases_exactly() {
        let n = 64;
        let config = EverywhereConfig::for_n(n).with_seed(9);
        let out = run(&config, &vec![true; n], &mut NoTreeAdversary, NullAdversary);
        let total: u64 = out.bits_per_proc.iter().sum();
        let attributed: u64 = out.phase_bits.iter().map(|(_, b)| *b).sum();
        assert_eq!(attributed, total, "phases: {:?}", out.phase_bits);
        // Trailing entry is the Algorithm 3 handoff and it is non-trivial.
        let (last, ae_bits) = out.phase_bits.last().expect("non-empty attribution");
        assert_eq!(last, "ae");
        assert!(*ae_bits > 0);
    }

    /// Hears: how many envelopes each round delivered. Round 0: one
    /// request to everybody.
    struct Probe(Vec<usize>);

    impl ba_sim::Process for Probe {
        type Msg = AeMsg;
        type Output = ();

        fn on_round(&mut self, ctx: &mut ba_sim::RoundCtx<'_, AeMsg>, inbox: &[Envelope<AeMsg>]) {
            self.0.push(inbox.len());
            if ctx.round() == 0 {
                for p in ctx.all_procs() {
                    ctx.send(p, AeMsg::Request { label: 1 });
                }
            }
        }

        fn output(&self) -> Option<()> {
            None
        }
    }

    /// `Lockstep` with processor 3 offline from transport round 6 on.
    struct ThreeDown(Lockstep<StackMsg>);

    impl Transport<StackMsg> for ThreeDown {
        fn send(&mut self, round: usize, env: Envelope<StackMsg>) {
            self.0.send(round, env);
        }
        fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<StackMsg>)) {
            self.0.collect(round, deliver);
        }
        fn is_online(&self, round: usize, p: ProcId) -> bool {
            round < 6 || p.index() != 3
        }
    }

    #[test]
    fn carried_phase_two_drops_tour_leftovers_and_charges_lost_deliveries() {
        // What phase 1 can leave in the shared transport at the boundary
        // (transport round 5 here): a tournament envelope nobody will
        // read, next to an Algorithm 3 one.
        let p = ProcId::new;
        let mut wire = ThreeDown(Lockstep::default());
        let tour = StackMsg::Tour(TourMsg::RootCoin { j: 0 });
        let answer = AeMsg::Response { label: 1, value: 9 };
        wire.send(4, Envelope::new(p(2), p(1), tour));
        wire.send(4, Envelope::new(p(2), p(1), StackMsg::Ae(answer)));
        let mut sim = SimBuilder::new(4).max_corruptions(1).build_carried(
            |_, _| Probe(Vec::new()),
            ba_sim::StaticAdversary::first_k(1),
            AeLens {
                inner: wire,
                base: 5,
            },
        );
        sim.step();
        sim.step();
        // The leftover reached nobody: processor 1 heard the answer only,
        // then the three requests of round 0 (processor 0 was corrupted
        // before its own left).
        assert_eq!(sim.process(p(1)).0, [1, 3]);
        assert_eq!(sim.process(p(2)).0, [0, 3]);
        // Corrupt (0) and offline (3) processors were not stepped in
        // round 1 ...
        assert_eq!(sim.process(p(0)).0, [0]);
        assert_eq!(sim.process(p(3)).0, [0]);
        let metrics = sim.finish().metrics;
        // ... but what was delivered to them is charged, and lost; the
        // tournament leftover is charged to nobody.
        let requests = 3 * AeMsg::Request { label: 1 }.bit_len();
        assert_eq!(metrics.bits_received_by(p(0)), requests);
        assert_eq!(metrics.bits_received_by(p(3)), requests);
        assert_eq!(metrics.bits_received_by(p(2)), requests);
        assert_eq!(metrics.bits_received_by(p(1)), answer.bit_len() + requests);
        assert_eq!(metrics.total_bits(), 4 * requests);
    }

    #[test]
    fn coin_schedule_feeds_labels() {
        let n = 64;
        let config = EverywhereConfig::for_n(n).with_seed(6);
        let out = run(&config, &vec![true; n], &mut NoTreeAdversary, NullAdversary);
        // The tournament produced coins, so Algorithm 3 ran on them.
        assert!(!out.tournament.coin_words.is_empty());
        assert!(out.everywhere_agreement);
    }
}
