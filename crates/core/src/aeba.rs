//! Algorithm 5: almost-everywhere Byzantine agreement with unreliable
//! global coins (paper §A.2, Theorem 3/Theorem 5).
//!
//! Every processor holds a vote bit and gossips it to its neighbors in a
//! sparse random regular graph `G` each round. If a processor sees a
//! super-majority (`fraction ≥ (1−ε₀)(2/3 + ε/2)`) for the majority bit it
//! adopts it; otherwise it adopts the round's *global coin*. The coin
//! source is unreliable: some rounds fail entirely (the adversary knows
//! and controls them) and even in successful rounds a small fraction of
//! processors sees the wrong value — exactly the guarantee the tournament
//! (§3.5) can provide. Lemmas 11–13: one successful coin round puts all
//! but `O(n/log n)` good processors on a common bit with probability 1/2,
//! and super-majorities are sticky ever after.
//!
//! This module runs the algorithm two ways:
//!
//! * [`AebaProcess`] — a per-processor state machine exchanging real vote
//!   messages through the `ba-sim` engine (used by experiment E4 and the
//!   standalone examples);
//! * [`run_committee`] — an in-memory execution among the members of one
//!   tree committee, used by the tournament executor where thousands of
//!   committee-level agreements run per protocol execution.

use ba_sampler::RegularGraph;
use ba_sim::{derive_rng, Envelope, Payload, ProcId, Process, RoundCtx};
use rand::Rng;
use std::sync::Arc;

/// Configuration for one AEBA execution.
#[derive(Clone, Debug)]
pub struct AebaConfig {
    /// Number of gossip rounds.
    pub rounds: usize,
    /// ε₀: the slack in the super-majority threshold (paper Lemma 11;
    /// any small positive constant).
    pub eps0: f64,
    /// ε: the adversary-tolerance slack (`< 1/3 − ε` corrupt).
    pub eps: f64,
}

impl Default for AebaConfig {
    fn default() -> Self {
        AebaConfig {
            rounds: 30,
            // The supermajority threshold (1−ε₀)(2/3 + ε/2) must sit
            // inside the window (bad + good/2, good·(1−noise)): above it
            // equivocators manufacture fake supermajorities that trap
            // split committees in oscillation; below it sampling noise
            // knocks informed processors onto the coin and erodes
            // validity (Lemma 12). ε = 0.1, ε₀ = 0.04 centres it:
            // T ≈ 0.688 vs. manufactured ≤ 0.617 and unanimity ≈ 0.767.
            eps0: 0.04,
            eps: 0.1,
        }
    }
}

impl AebaConfig {
    /// The vote-adoption threshold `(1−ε₀)(2/3 + ε/2)` from Algorithm 5
    /// step 6.
    pub fn supermajority(&self) -> f64 {
        (1.0 - self.eps0) * (2.0 / 3.0 + self.eps / 2.0)
    }
}

/// The unreliable global coin of Theorem 3: a schedule of rounds, each
/// either *successful* (a uniform bit almost all good processors learn) or
/// *failed* (the adversary dictates what every processor sees).
///
/// ```rust
/// use ba_core::aeba::UnreliableCoin;
/// let coin = UnreliableCoin::generate(10, 0.7, 0.02, 99);
/// assert_eq!(coin.rounds(), 10);
/// // Views are deterministic per (processor, round).
/// assert_eq!(coin.view(3, 0, false), coin.view(3, 0, false));
/// ```
#[derive(Clone, Debug)]
pub struct UnreliableCoin {
    /// `Some(bit)` = successful round; `None` = failed round.
    schedule: Vec<Option<bool>>,
    /// Fraction of good processors that see a garbage value even in a
    /// successful round (paper: `O(1/log n)`).
    blind_fraction: f64,
    seed: u64,
}

impl UnreliableCoin {
    /// Generates a schedule of `rounds` coins where each round succeeds
    /// independently with probability `success_rate`, and successful
    /// values are uniform. `blind_fraction` of processors mis-see each
    /// successful coin.
    pub fn generate(rounds: usize, success_rate: f64, blind_fraction: f64, seed: u64) -> Self {
        let mut rng = derive_rng(seed, 0x0C01);
        let schedule = (0..rounds)
            .map(|_| {
                if rng.gen_bool(success_rate.clamp(0.0, 1.0)) {
                    Some(rng.gen_bool(0.5))
                } else {
                    None
                }
            })
            .collect();
        UnreliableCoin {
            schedule,
            blind_fraction,
            seed,
        }
    }

    /// A fully reliable coin (every round succeeds, everyone sees it):
    /// the baseline regime where Rabin's argument gives expected O(1)
    /// rounds to agreement.
    pub fn perfect(rounds: usize, seed: u64) -> Self {
        Self::generate(rounds, 1.0, 0.0, seed)
    }

    /// Builds a schedule directly (tests and the tournament, which opens
    /// coin words from candidate arrays).
    pub fn from_schedule(schedule: Vec<Option<bool>>, blind_fraction: f64, seed: u64) -> Self {
        UnreliableCoin {
            schedule,
            blind_fraction,
            seed,
        }
    }

    /// Number of scheduled rounds.
    pub fn rounds(&self) -> usize {
        self.schedule.len()
    }

    /// Whether round `r` is a successful coin.
    pub fn is_success(&self, r: usize) -> bool {
        self.schedule.get(r).copied().flatten().is_some()
    }

    /// Number of successful rounds in the schedule.
    pub fn successes(&self) -> usize {
        self.schedule.iter().filter(|s| s.is_some()).count()
    }

    /// What processor `who` sees for round `r`. In a failed round every
    /// processor sees `adversary_bit`; in a successful round a
    /// `blind_fraction` of processors (pseudo-randomly per `(who, r)`)
    /// sees a private random bit instead of the true coin.
    pub fn view(&self, who: usize, r: usize, adversary_bit: bool) -> bool {
        match self.schedule.get(r).copied().flatten() {
            None => adversary_bit,
            Some(bit) => {
                let mut rng = derive_rng(self.seed, 0xB11D ^ ((who as u64) << 24) ^ r as u64);
                if rng.gen_bool(self.blind_fraction.clamp(0.0, 1.0)) {
                    rng.gen_bool(0.5)
                } else {
                    bit
                }
            }
        }
    }
}

/// Vote message: the current vote bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoteMsg(pub bool);

impl Payload for VoteMsg {
    fn bit_len(&self) -> u64 {
        1
    }
}

impl ba_sim::WireMsg for VoteMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        ba_sim::wire::put_bool(out, self.0);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        Ok(VoteMsg(ba_sim::wire::take_bool(buf)?))
    }
}

/// Per-processor state machine for Algorithm 5 over the `ba-sim` engine.
///
/// Round structure: in round `r` the processor first digests the votes
/// delivered from round `r−1` (majority / fraction / coin / update), then
/// broadcasts its (possibly updated) vote to its graph neighbors. After
/// `config.rounds` full rounds it commits to its vote.
#[derive(Debug)]
pub struct AebaProcess {
    me: usize,
    vote: bool,
    committed: Option<bool>,
    graph: Arc<RegularGraph>,
    coin: Arc<UnreliableCoin>,
    config: AebaConfig,
    /// What this processor would see in failed coin rounds — the engine's
    /// adversary cannot reach inside [`UnreliableCoin`], so the worst-case
    /// bit is fixed at construction by the experiment (e.g. the minority
    /// input bit).
    adversary_coin_bit: bool,
}

impl AebaProcess {
    /// Creates the processor with its input vote.
    pub fn new(
        me: ProcId,
        input: bool,
        graph: Arc<RegularGraph>,
        coin: Arc<UnreliableCoin>,
        config: AebaConfig,
        adversary_coin_bit: bool,
    ) -> Self {
        AebaProcess {
            me: me.index(),
            vote: input,
            committed: None,
            graph,
            coin,
            config,
            adversary_coin_bit,
        }
    }

    /// The current (not yet committed) vote — visible to the adversary
    /// once the processor is corrupted, and to experiments for
    /// convergence traces.
    pub fn current_vote(&self) -> bool {
        self.vote
    }

    fn digest(&mut self, inbox: &[Envelope<VoteMsg>], coin_round: usize) {
        // Count one vote per neighbor sender (flood defence: duplicates
        // from the same sender beyond its edge multiplicity are ignored).
        let mut allowed: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for &u in self.graph.neighbors(self.me) {
            *allowed.entry(u as usize).or_insert(0) += 1;
        }
        let mut ones = 0usize;
        let mut total = 0usize;
        for e in inbox {
            let from = e.from.index();
            if let Some(quota) = allowed.get_mut(&from) {
                if *quota > 0 {
                    *quota -= 1;
                    total += 1;
                    if e.payload.0 {
                        ones += 1;
                    }
                }
            }
        }
        if total == 0 {
            return; // isolated this round; keep current vote
        }
        let maj = 2 * ones >= total;
        let maj_count = if maj { ones } else { total - ones };
        let fraction = maj_count as f64 / total as f64;
        if fraction >= self.config.supermajority() {
            self.vote = maj;
        } else {
            self.vote = self.coin.view(self.me, coin_round, self.adversary_coin_bit);
        }
    }
}

impl Process for AebaProcess {
    type Msg = VoteMsg;
    type Output = bool;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, VoteMsg>, inbox: &[Envelope<VoteMsg>]) {
        let r = ctx.round();
        if r > 0 {
            self.digest(inbox, r - 1);
        }
        if r < self.config.rounds {
            let vote = self.vote;
            let neighbors: Vec<u32> = self.graph.neighbors(self.me).to_vec();
            for u in neighbors {
                ctx.send(ProcId::new(u as usize), VoteMsg(vote));
            }
        } else if self.committed.is_none() {
            self.committed = Some(self.vote);
        }
    }

    fn output(&self) -> Option<bool> {
        self.committed
    }
}

/// Lemma 11 diagnostics: the fraction of good members that are *informed*
/// for a voting configuration — their neighborhood estimate of the
/// majority-bit fraction lies within the window
/// `[(1−ε₀)·f′, (1+ε₀)·(f′ + 1/3 − ε)]`, where `f′` is the true fraction
/// of good members voting the good-majority bit. Lemma 11 proves all but
/// `O(k/log k)` members are informed w.h.p. for `k·log n`-degree graphs;
/// this measures it for concrete graphs (experiment E4 and the
/// threshold-window analysis in the module docs).
///
/// Corrupt neighbors are counted as voting against the good majority —
/// the adversary's strongest uniform play.
///
/// # Panics
///
/// Panics if slice lengths disagree with the graph.
pub fn informed_fraction(
    good: &[bool],
    votes: &[bool],
    graph: &RegularGraph,
    config: &AebaConfig,
) -> f64 {
    let k = good.len();
    assert_eq!(votes.len(), k, "votes/good length mismatch");
    assert_eq!(graph.len(), k, "graph size mismatch");
    let good_total = good.iter().filter(|&&g| g).count().max(1);
    let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
    let maj = 2 * good_ones >= good_total;
    // Paper: "let S′ be the set of good processors that will vote for b′
    // and let f′ = |S′|/n" — relative to the whole committee, not to the
    // good members.
    let f_prime = if maj {
        good_ones as f64 / k as f64
    } else {
        (good_total - good_ones) as f64 / k as f64
    };
    let lo = (1.0 - config.eps0) * f_prime;
    let hi = (1.0 + config.eps0) * (f_prime + 1.0 / 3.0 - config.eps);
    let mut informed = 0usize;
    for i in 0..k {
        if !good[i] {
            continue;
        }
        let mut maj_votes = 0usize;
        let mut total = 0usize;
        for &u in graph.neighbors(i) {
            let u = u as usize;
            total += 1;
            if good[u] && votes[u] == maj {
                maj_votes += 1;
            }
        }
        if total == 0 {
            continue;
        }
        let fraction = maj_votes as f64 / total as f64;
        if fraction >= lo && fraction <= hi {
            informed += 1;
        }
    }
    informed as f64 / good_total as f64
}

/// Behaviour of corrupt members inside an in-memory committee execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CommitteeAttack {
    /// Corrupt members vote like good ones (crash-quiet would weaken them
    /// more): baseline.
    #[default]
    Passive,
    /// Corrupt members always vote the given fixed bit.
    Fixed(bool),
    /// Corrupt members tell each good member the *opposite* of that
    /// member's current vote, maximizing disagreement (rushing: they see
    /// good votes first).
    Oppose,
    /// Corrupt members split: half vote 0, half vote 1, keeping the
    /// committee near the threshold.
    Split,
}

/// Result of an in-memory committee agreement.
#[derive(Clone, Debug)]
pub struct CommitteeOutcome {
    /// Final vote of every member (corrupt members' slots hold their last
    /// declared vote).
    pub votes: Vec<bool>,
    /// Fraction of *good* members on the plurality bit.
    pub agreement: f64,
    /// The plurality bit among good members.
    pub decided: bool,
}

/// Runs Algorithm 5 among `k` committee members entirely in memory (the
/// tournament runs thousands of these). `good[i]` flags honest members;
/// `inputs[i]` are initial votes; `coins[r]` is what member `i` sees via
/// `coin_view(i, r)`; corrupt members follow `attack` with full rushing
/// knowledge. One [`Committee`], used once.
///
/// # Panics
///
/// Panics if input slices disagree in length or the graph size differs.
#[allow(clippy::too_many_arguments)]
pub fn run_committee<R: Rng + ?Sized>(
    good: &[bool],
    inputs: &[bool],
    graph: &RegularGraph,
    coin_view: impl Fn(usize, usize) -> bool,
    rounds: usize,
    config: &AebaConfig,
    attack: CommitteeAttack,
    rng: &mut R,
) -> CommitteeOutcome {
    run_committee_traced(good, inputs, graph, coin_view, rounds, config, attack, rng).0
}

/// [`run_committee`] plus the per-round convergence trace: element `r` of
/// the returned vector is the fraction of good members on the good
/// plurality bit *after* round `r` — the series Lemmas 12/13 describe and
/// experiment E4a plots.
#[allow(clippy::too_many_arguments)]
pub fn run_committee_traced<R: Rng + ?Sized>(
    good: &[bool],
    inputs: &[bool],
    graph: &RegularGraph,
    coin_view: impl Fn(usize, usize) -> bool,
    rounds: usize,
    config: &AebaConfig,
    attack: CommitteeAttack,
    rng: &mut R,
) -> (CommitteeOutcome, Vec<f64>) {
    Committee::new(good, graph, attack).run_traced(inputs, coin_view, rounds, config, rng)
}

/// The bit corrupt member `u` shows every receiver alike under `attack`
/// (`vote` is its bookkeeping vote), or `None` when what it shows depends
/// on the receiver.
fn shown(attack: CommitteeAttack, u: usize, vote: bool, good_majority: bool) -> Option<bool> {
    match attack {
        CommitteeAttack::Passive => Some(vote),
        CommitteeAttack::Fixed(b) => Some(b),
        CommitteeAttack::Oppose => None,
        // Deterministic half/half split by member id.
        CommitteeAttack::Split => u.is_multiple_of(2).then_some(!good_majority),
    }
}

/// One committee prepared for Algorithm 5: what an in-memory agreement
/// needs that depends only on (graph, good, attack), plus a round's
/// scratch. The tournament runs `r·bin_bits` agreements per node on one
/// of these; [`run_committee`] builds one per call.
///
/// A round does not read every member's neighbourhood. A member either
/// shows every receiver the same bit (*uniform*: good members, and
/// corrupt ones under `Passive`, `Fixed` and the even half of `Split`) or
/// a bit that depends on the receiver (*swayed*: `Oppose` and the odd
/// half of `Split`). [`RegularGraph`] rows are symmetric with
/// multiplicity, so "how many entries of row `i` show `b`" is counted by
/// walking the rows of the members that show `b` — and a round walks
/// whichever uniform side has fewer members and takes the other side as
/// the complement. A committee that nearly agrees (the regime Lemmas
/// 12–13 keep it in) pays per dissenter.
#[derive(Debug)]
pub struct Committee<'a> {
    good: &'a [bool],
    graph: &'a RegularGraph,
    attack: CommitteeAttack,
    good_total: usize,
    /// `swayed[i]`: how many entries of row `i` are swayed members.
    swayed: Vec<u32>,
    /// Scratch, all-zero between rounds: row `i`'s entries on the pushed
    /// side.
    cnt: Vec<u32>,
    /// Scratch: the votes a round leaves.
    next: Vec<bool>,
    /// Rows walked by each round of the latest run.
    #[cfg(test)]
    rows_pushed: Vec<usize>,
}

impl<'a> Committee<'a> {
    /// Prepares the committee: `good[i]` flags honest members; corrupt
    /// ones follow `attack` with full rushing knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `good` and the graph disagree in size.
    pub fn new(good: &'a [bool], graph: &'a RegularGraph, attack: CommitteeAttack) -> Self {
        let k = good.len();
        assert_eq!(graph.len(), k, "graph size mismatch");
        let mut swayed = vec![0u32; k];
        // Whether a corrupt member is swayed depends on neither of the two
        // bits `shown` takes.
        for u in (0..k).filter(|&u| !good[u] && shown(attack, u, false, false).is_none()) {
            for &i in graph.neighbors(u) {
                swayed[i as usize] += 1;
            }
        }
        Committee {
            good,
            graph,
            attack,
            good_total: good.iter().filter(|&&g| g).count().max(1),
            swayed,
            cnt: vec![0; k],
            next: vec![false; k],
            #[cfg(test)]
            rows_pushed: Vec::new(),
        }
    }

    /// Runs one agreement: `inputs[i]` are the initial votes and
    /// `coin_view(i, r)` is what member `i` sees of round `r`'s coin.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and the committee disagree in length.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &[bool],
        coin_view: impl Fn(usize, usize) -> bool,
        rounds: usize,
        config: &AebaConfig,
        rng: &mut R,
    ) -> CommitteeOutcome {
        self.run_traced(inputs, coin_view, rounds, config, rng).0
    }

    /// [`Committee::run`] plus the per-round convergence trace (see
    /// [`run_committee_traced`]).
    pub fn run_traced<R: Rng + ?Sized>(
        &mut self,
        inputs: &[bool],
        coin_view: impl Fn(usize, usize) -> bool,
        rounds: usize,
        config: &AebaConfig,
        rng: &mut R,
    ) -> (CommitteeOutcome, Vec<f64>) {
        let (good, graph, attack, good_total) =
            (self.good, self.graph, self.attack, self.good_total);
        let k = good.len();
        assert_eq!(inputs.len(), k, "inputs/good length mismatch");
        let mut votes: Vec<bool> = inputs.to_vec();
        let threshold = config.supermajority();
        let mut trace = Vec::with_capacity(rounds);
        let count_good_ones = |votes: &[bool]| (0..k).filter(|&i| good[i] && votes[i]).count();
        let mut good_ones = count_good_ones(&votes);
        #[cfg(test)]
        self.rows_pushed.clear();

        for r in 0..rounds {
            // Rushing: good votes for this round are the current `votes`;
            // corrupt members choose their outgoing votes knowing them.
            let good_majority = 2 * good_ones >= good_total;
            let shows = |u: usize| {
                if good[u] {
                    Some(votes[u])
                } else {
                    shown(attack, u, votes[u], good_majority)
                }
            };
            // Push from the smaller uniform side; a tie costs and counts
            // the same either way.
            let (mut zeros, mut ones) = (0usize, 0usize);
            for u in 0..k {
                match shows(u) {
                    Some(true) => ones += 1,
                    Some(false) => zeros += 1,
                    None => {}
                }
            }
            let pushed = ones <= zeros;
            #[cfg(test)]
            self.rows_pushed.push(0);
            for u in (0..k).filter(|&u| shows(u) == Some(pushed)) {
                #[cfg(test)]
                {
                    *self.rows_pushed.last_mut().expect("pushed above") += 1;
                }
                for &i in graph.neighbors(u) {
                    self.cnt[i as usize] += 1;
                }
            }

            // Whether this round read anything but `votes`: a coin (varies
            // with `r`) or an `rng` draw.
            let mut fresh_input = false;
            for (i, nv) in self.next.iter_mut().enumerate() {
                let total = graph.degree(i);
                if !good[i] {
                    // Corrupt members' declared votes for bookkeeping.
                    *nv = match attack {
                        CommitteeAttack::Passive => votes[i],
                        CommitteeAttack::Fixed(b) => b,
                        CommitteeAttack::Oppose => !good_majority,
                        CommitteeAttack::Split => i % 2 == 0,
                    };
                    continue;
                }
                if total == 0 {
                    *nv = votes[i];
                    continue;
                }
                let swayed = self.swayed[i] as usize;
                let cnt = self.cnt[i] as usize;
                let mut ones = if pushed { cnt } else { total - swayed - cnt };
                if swayed > 0 {
                    match attack {
                        CommitteeAttack::Oppose => ones += if votes[i] { 0 } else { swayed },
                        // The pull loop took one fair draw at each swayed
                        // entry of row `i`, receivers in this order, and
                        // only ever summed a row's draws: as many draws
                        // here are the same stretch of the stream and the
                        // same sum.
                        CommitteeAttack::Split => {
                            fresh_input = true;
                            ones += (0..swayed).filter(|_| rng.gen_bool(0.5)).count();
                        }
                        CommitteeAttack::Passive | CommitteeAttack::Fixed(_) => {
                            unreachable!("every member is uniform under {attack:?}")
                        }
                    }
                }
                let maj = 2 * ones >= total;
                let maj_count = if maj { ones } else { total - ones };
                let fraction = maj_count as f64 / total as f64;
                *nv = if fraction >= threshold {
                    maj
                } else {
                    fresh_input = true;
                    coin_view(i, r)
                };
            }
            self.cnt.fill(0);
            let settled = !fresh_input && self.next == votes;
            std::mem::swap(&mut votes, &mut self.next);
            // Trace: plurality agreement among good members after this round.
            good_ones = count_good_ones(&votes);
            let plurality = good_ones.max(good_total - good_ones) as f64 / good_total as f64;
            trace.push(plurality);
            if settled {
                // Fixed point (the stability of Lemmas 12/13): the round was
                // a function of `votes` alone and reproduced them, so every
                // later round does the same and draws nothing.
                trace.resize(rounds, plurality);
                break;
            }
        }

        let decided = 2 * good_ones >= good_total;
        let agreeing = (0..k).filter(|&i| good[i] && votes[i] == decided).count();
        (
            CommitteeOutcome {
                votes,
                agreement: agreeing as f64 / good_total as f64,
                decided,
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{NullAdversary, SimBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn graph(n: usize, seed: u64) -> Arc<RegularGraph> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let degree = (3.0 * (n as f64).log2()).ceil() as usize;
        Arc::new(RegularGraph::random_out_degree(n, degree, &mut rng))
    }

    #[test]
    fn unanimous_inputs_stay_valid() {
        // Validity (Lemma 12): all good processors start with 1 → all end 1,
        // regardless of coin quality.
        let n = 120;
        let g = graph(n, 1);
        let coin = Arc::new(UnreliableCoin::generate(30, 0.2, 0.1, 7));
        let cfg = AebaConfig::default();
        let outcome = SimBuilder::new(n)
            .seed(5)
            .build(
                |p, _| AebaProcess::new(p, true, g.clone(), coin.clone(), cfg.clone(), false),
                NullAdversary,
            )
            .run(cfg.rounds + 2);
        assert!(outcome.all_good_agree_on(&true));
    }

    #[test]
    fn split_inputs_converge_with_good_coins() {
        let n = 150;
        let g = graph(n, 2);
        let coin = Arc::new(UnreliableCoin::generate(30, 0.8, 0.02, 11));
        let cfg = AebaConfig::default();
        let outcome = SimBuilder::new(n)
            .seed(6)
            .build(
                |p, _| {
                    AebaProcess::new(
                        p,
                        p.index() % 2 == 0,
                        g.clone(),
                        coin.clone(),
                        cfg.clone(),
                        false,
                    )
                },
                NullAdversary,
            )
            .run(cfg.rounds + 2);
        assert!(
            outcome.good_agreement_fraction() > 0.95,
            "agreement fraction {}",
            outcome.good_agreement_fraction()
        );
    }

    #[test]
    fn bit_cost_is_degree_times_rounds() {
        let n = 64;
        let g = graph(n, 3);
        let coin = Arc::new(UnreliableCoin::perfect(10, 1));
        let cfg = AebaConfig {
            rounds: 10,
            ..AebaConfig::default()
        };
        let outcome = SimBuilder::new(n)
            .seed(7)
            .build(
                |p, _| AebaProcess::new(p, true, g.clone(), coin.clone(), cfg.clone(), false),
                NullAdversary,
            )
            .run(cfg.rounds + 2);
        // Each processor sends deg(v) one-bit votes per round for 10 rounds.
        for v in 0..n {
            let expect = (g.degree(v) * 10) as u64;
            assert_eq!(outcome.metrics.bits_sent_by(ProcId::new(v)), expect);
        }
    }

    #[test]
    fn coin_views_respect_schedule() {
        let coin = UnreliableCoin::from_schedule(vec![Some(true), None, Some(false)], 0.0, 3);
        assert!(coin.is_success(0));
        assert!(!coin.is_success(1));
        assert_eq!(coin.successes(), 2);
        // Successful rounds: everyone (blind_fraction 0) sees the bit.
        for who in 0..20 {
            assert!(coin.view(who, 0, false));
            assert!(!coin.view(who, 2, true));
            // Failed round: adversary bit.
            assert!(coin.view(who, 1, true));
            assert!(!coin.view(who, 1, false));
        }
    }

    #[test]
    fn blind_fraction_blinds_roughly_that_many() {
        let coin = UnreliableCoin::from_schedule(vec![Some(true)], 0.3, 9);
        let wrong = (0..2000).filter(|&who| !coin.view(who, 0, false)).count();
        // Blind processors see a *random* bit, so ~15% end up wrong.
        let frac = wrong as f64 / 2000.0;
        assert!((0.08..0.25).contains(&frac), "wrong fraction {frac}");
    }

    #[test]
    fn committee_unanimity_is_sticky() {
        let k = 60;
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let g = RegularGraph::random_out_degree(k, 12, &mut rng);
        let good = vec![true; k];
        let inputs = vec![true; k];
        let out = run_committee(
            &good,
            &inputs,
            &g,
            |_, _| false, // coin always says false; must not matter
            12,
            &AebaConfig::default(),
            CommitteeAttack::Passive,
            &mut rng,
        );
        assert!(out.decided);
        assert_eq!(out.agreement, 1.0);
        assert!(out.votes.iter().all(|&v| v));
    }

    #[test]
    fn committee_converges_under_oppose_attack() {
        let k = 90;
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        // Degree ≈ 6√k: the practical-scale concentration the threshold
        // window needs (see Params::practical).
        let g = RegularGraph::random_out_degree(k, 57, &mut rng);
        // 25% corrupt.
        let good: Vec<bool> = (0..k).map(|i| i % 4 != 0).collect();
        let inputs: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
        let coin = UnreliableCoin::generate(25, 0.9, 0.02, 13);
        let out = run_committee(
            &good,
            &inputs,
            &g,
            |i, r| coin.view(i, r, false),
            25,
            &AebaConfig::default(),
            CommitteeAttack::Oppose,
            &mut rng,
        );
        assert!(
            out.agreement > 0.9,
            "committee agreement {} too low",
            out.agreement
        );
    }

    #[test]
    fn committee_validity_under_all_attacks() {
        let k = 80;
        for attack in [
            CommitteeAttack::Passive,
            CommitteeAttack::Fixed(false),
            CommitteeAttack::Oppose,
            CommitteeAttack::Split,
        ] {
            let mut rng = ChaCha12Rng::seed_from_u64(6);
            let g = RegularGraph::random_out_degree(k, 54, &mut rng);
            // 20% corrupt: with an adversarial coin that is *permanently*
            // wrong (harsher than any (s, 2s/3) coin sequence), validity
            // needs the full concentration margin; the 1/3 − ε budget is
            // exercised with realistic coins in the tests above.
            let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
            let inputs = vec![true; k]; // all good start at 1
            let out = run_committee(
                &good,
                &inputs,
                &g,
                |_, _| false,
                12,
                &AebaConfig::default(),
                attack,
                &mut rng,
            );
            assert!(out.decided, "validity broken by {attack:?}");
            assert!(
                out.agreement > 0.9,
                "{attack:?}: agreement {}",
                out.agreement
            );
        }
    }

    #[test]
    fn trace_is_monotone_to_unanimity_on_clean_unanimous_input() {
        let k = 40;
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let g = RegularGraph::random_out_degree(k, 16, &mut rng);
        let good = vec![true; k];
        let inputs = vec![true; k];
        let (out, trace) = run_committee_traced(
            &good,
            &inputs,
            &g,
            |_, _| false,
            10,
            &AebaConfig::default(),
            CommitteeAttack::Passive,
            &mut rng,
        );
        assert_eq!(trace.len(), 10);
        assert!(trace.iter().all(|&f| (f - 1.0).abs() < 1e-12));
        assert_eq!(out.agreement, 1.0);
    }

    #[test]
    fn trace_shows_convergence_from_split() {
        let k = 80;
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let g = RegularGraph::random_out_degree(k, 40, &mut rng);
        let good = vec![true; k];
        let inputs: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
        let coin = UnreliableCoin::perfect(12, 3);
        let (_, trace) = run_committee_traced(
            &good,
            &inputs,
            &g,
            |i, r| coin.view(i, r, false),
            12,
            &AebaConfig::default(),
            CommitteeAttack::Passive,
            &mut rng,
        );
        assert!(trace[0] >= 0.5);
        assert!(
            *trace.last().unwrap() > 0.95,
            "no convergence in trace {trace:?}"
        );
        let _ = trace;
    }

    #[test]
    fn informed_fraction_high_on_dense_graph() {
        // Lemma 11: with a dense enough graph, nearly all good members'
        // neighborhood estimates land in the informedness window.
        let k = 200;
        let mut rng = ChaCha12Rng::seed_from_u64(21);
        let g = RegularGraph::random_out_degree(k, 90, &mut rng);
        let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
        let votes: Vec<bool> = (0..k).map(|i| i % 3 != 0).collect();
        // ε₀ sets the window width; at k = 200 the window needs ε₀ ≈ 0.12
        // for the noise to fit (the same laptop-scale arithmetic as the
        // threshold discussion in the module docs).
        let cfg = AebaConfig {
            eps0: 0.12,
            ..AebaConfig::default()
        };
        let f = informed_fraction(&good, &votes, &g, &cfg);
        assert!(f > 0.9, "informed fraction {f}");
    }

    #[test]
    fn informed_fraction_degrades_on_sparse_graph() {
        // The measurement must be able to fail: degree 4 neighborhoods
        // cannot estimate f' within ε₀.
        let k = 200;
        let mut rng = ChaCha12Rng::seed_from_u64(22);
        let g = RegularGraph::random_out_degree(k, 4, &mut rng);
        let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
        let votes: Vec<bool> = (0..k).map(|i| i % 3 != 0).collect();
        let sparse = informed_fraction(&good, &votes, &g, &AebaConfig::default());
        let mut rng = ChaCha12Rng::seed_from_u64(22);
        let g = RegularGraph::random_out_degree(k, 90, &mut rng);
        let dense = informed_fraction(&good, &votes, &g, &AebaConfig::default());
        assert!(
            sparse < dense,
            "sparse {sparse} should inform fewer than dense {dense}"
        );
    }

    #[test]
    fn supermajority_threshold_formula() {
        let cfg = AebaConfig {
            rounds: 1,
            eps0: 0.1,
            eps: 0.06,
        };
        let want = 0.9 * (2.0 / 3.0 + 0.03);
        assert!((cfg.supermajority() - want).abs() < 1e-12);
    }

    /// The loop [`Committee::run_traced`] replaced: every member pulls its
    /// whole neighbourhood, every round replayed, fixed point or not.
    /// Reference for the proptests below.
    #[allow(clippy::too_many_arguments)]
    fn run_committee_full_rounds<R: Rng + ?Sized>(
        good: &[bool],
        inputs: &[bool],
        graph: &RegularGraph,
        coin_view: impl Fn(usize, usize) -> bool,
        rounds: usize,
        config: &AebaConfig,
        attack: CommitteeAttack,
        rng: &mut R,
    ) -> (CommitteeOutcome, Vec<f64>) {
        let k = good.len();
        let mut votes: Vec<bool> = inputs.to_vec();
        let threshold = config.supermajority();
        let mut trace = Vec::with_capacity(rounds);
        for r in 0..rounds {
            let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
            let good_total = good.iter().filter(|&&g| g).count().max(1);
            let good_majority = 2 * good_ones >= good_total;
            let mut next = votes.clone();
            for (i, nv) in next.iter_mut().enumerate() {
                if !good[i] {
                    continue;
                }
                let mut ones = 0usize;
                let mut total = 0usize;
                for &u in graph.neighbors(i) {
                    let u = u as usize;
                    let v = if good[u] {
                        votes[u]
                    } else {
                        match attack {
                            CommitteeAttack::Passive => votes[u],
                            CommitteeAttack::Fixed(b) => b,
                            CommitteeAttack::Oppose => !votes[i],
                            CommitteeAttack::Split => {
                                if u.is_multiple_of(2) {
                                    !good_majority
                                } else {
                                    rng.gen_bool(0.5)
                                }
                            }
                        }
                    };
                    total += 1;
                    if v {
                        ones += 1;
                    }
                }
                if total == 0 {
                    continue;
                }
                let maj = 2 * ones >= total;
                let maj_count = if maj { ones } else { total - ones };
                let fraction = maj_count as f64 / total as f64;
                *nv = if fraction >= threshold {
                    maj
                } else {
                    coin_view(i, r)
                };
            }
            for (i, nv) in next.iter_mut().enumerate() {
                if !good[i] {
                    *nv = match attack {
                        CommitteeAttack::Passive => votes[i],
                        CommitteeAttack::Fixed(b) => b,
                        CommitteeAttack::Oppose => !good_majority,
                        CommitteeAttack::Split => i % 2 == 0,
                    };
                }
            }
            votes = next;
            let ones = (0..k).filter(|&i| good[i] && votes[i]).count();
            let total = good.iter().filter(|&&g| g).count().max(1);
            let plur = ones.max(total - ones);
            trace.push(plur as f64 / total as f64);
        }
        let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
        let good_total = good.iter().filter(|&&g| g).count().max(1);
        let decided = 2 * good_ones >= good_total;
        let agreeing = (0..k).filter(|&i| good[i] && votes[i] == decided).count();
        (
            CommitteeOutcome {
                votes,
                agreement: agreeing as f64 / good_total as f64,
                decided,
            },
            trace,
        )
    }

    const ATTACKS: [CommitteeAttack; 5] = [
        CommitteeAttack::Passive,
        CommitteeAttack::Fixed(false),
        CommitteeAttack::Fixed(true),
        CommitteeAttack::Oppose,
        CommitteeAttack::Split,
    ];

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// The fixed-point exit leaves exactly what the full loop
            /// leaves: votes, agreement, decision, the whole trace and
            /// the caller's RNG position.
            #[test]
            fn fixed_point_exit_matches_full_rounds(
                k in 2usize..48,
                degree in 1usize..14,
                rounds in 0usize..24,
                attack_ix in 0usize..5,
                corrupt_pct in 0u64..50,
                ones_pct in 0u64..101,
                coin_period in 1usize..5,
                seed in any::<u64>(),
            ) {
                let mut setup = ChaCha12Rng::seed_from_u64(seed);
                let g = RegularGraph::random_out_degree(k, degree, &mut setup);
                let good: Vec<bool> = (0..k).map(|_| setup.gen_range(0..100) >= corrupt_pct).collect();
                let inputs: Vec<bool> = (0..k).map(|_| setup.gen_range(0..100) < ones_pct).collect();
                let attack = [
                    CommitteeAttack::Passive,
                    CommitteeAttack::Fixed(false),
                    CommitteeAttack::Fixed(true),
                    CommitteeAttack::Oppose,
                    CommitteeAttack::Split,
                ][attack_ix];
                // A coin that depends on the round, so a round that
                // consulted it must not count as settled.
                let coin = |i: usize, r: usize| (r / coin_period + i).is_multiple_of(2);
                let cfg = AebaConfig::default();
                let mut rng_a = ChaCha12Rng::seed_from_u64(seed ^ 0xA5A5);
                let mut rng_b = rng_a.clone();
                let (out, trace) =
                    run_committee_traced(&good, &inputs, &g, coin, rounds, &cfg, attack, &mut rng_a);
                let (want, want_trace) =
                    run_committee_full_rounds(&good, &inputs, &g, coin, rounds, &cfg, attack, &mut rng_b);
                prop_assert_eq!(&out.votes, &want.votes);
                prop_assert_eq!(out.agreement.to_bits(), want.agreement.to_bits());
                prop_assert_eq!(out.decided, want.decided);
                prop_assert_eq!(trace.len(), rounds);
                prop_assert_eq!(
                    trace.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    want_trace.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
                );
                prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }
        }

        /// How many members show every receiver 0 and how many 1.
        fn uniform_sides(good: &[bool], votes: &[bool], attack: CommitteeAttack) -> [usize; 2] {
            let k = good.len();
            let good_total = good.iter().filter(|&&g| g).count().max(1);
            let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
            let mut sides = [0; 2];
            for u in 0..k {
                let bit = if good[u] {
                    Some(votes[u])
                } else {
                    shown(attack, u, votes[u], 2 * good_ones >= good_total)
                };
                if let Some(b) = bit {
                    sides[b as usize] += 1;
                }
            }
            sides
        }

        /// The input shapes the tournament's committees meet: unanimous,
        /// 1–3 % dissent, 50/50, and a round-1 tie of the two uniform
        /// sides (exact where parity allows, else off by one).
        fn shaped_inputs(
            shape: usize,
            good: &[bool],
            attack: CommitteeAttack,
            rng: &mut ChaCha12Rng,
        ) -> Vec<bool> {
            let k = good.len();
            let bit = rng.gen_bool(0.5);
            match shape {
                0 => vec![bit; k],
                1 => {
                    let pct = rng.gen_range(1..=3);
                    (0..k)
                        .map(|_| bit ^ (rng.gen_range(0..100) < pct))
                        .collect()
                }
                2 => (0..k).map(|_| rng.gen_bool(0.5)).collect(),
                _ => {
                    let mut inputs = vec![bit; k];
                    for i in 0..k {
                        let sides = uniform_sides(good, &inputs, attack);
                        if sides[bit as usize] <= sides[!bit as usize] {
                            break;
                        }
                        inputs[i] = !bit;
                    }
                    inputs
                }
            }
        }

        fn same(
            got: &(CommitteeOutcome, Vec<f64>),
            want: &(CommitteeOutcome, Vec<f64>),
        ) -> TestCaseResult {
            let bits = |t: &[f64]| t.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(&got.0.votes, &want.0.votes);
            prop_assert_eq!(got.0.agreement.to_bits(), want.0.agreement.to_bits());
            prop_assert_eq!(got.0.decided, want.0.decided);
            prop_assert_eq!(bits(&got.1), bits(&want.1));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The push kernel against the pull loop at the sizes and in
            /// the input regimes the tournament runs it.
            #[test]
            fn push_matches_pull_at_election_shapes(
                k in 2usize..401,
                degree in 1usize..49,
                rounds in 0usize..16,
                attack_ix in 0usize..5,
                corrupt_pct in 0u64..50,
                shape in 0usize..4,
                coin_period in 1usize..5,
                seed in any::<u64>(),
            ) {
                let mut setup = ChaCha12Rng::seed_from_u64(seed);
                let g = RegularGraph::random_out_degree(k, degree.min(k - 1), &mut setup);
                let good: Vec<bool> = (0..k).map(|_| setup.gen_range(0..100) >= corrupt_pct).collect();
                let attack = ATTACKS[attack_ix];
                let inputs = shaped_inputs(shape, &good, attack, &mut setup);
                let coin = |i: usize, r: usize| (r / coin_period + i).is_multiple_of(2);
                let cfg = AebaConfig::default();
                let mut rng_a = ChaCha12Rng::seed_from_u64(seed ^ 0xA5A5);
                let mut rng_b = rng_a.clone();
                let got =
                    run_committee_traced(&good, &inputs, &g, coin, rounds, &cfg, attack, &mut rng_a);
                let want =
                    run_committee_full_rounds(&good, &inputs, &g, coin, rounds, &cfg, attack, &mut rng_b);
                same(&got, &want)?;
                prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }

            /// What `run_node_election` does: one `Committee`, one rng, 16
            /// agreements back to back. Scratch that leaks from one into
            /// the next, or a `swayed` built for another attack, shows.
            #[test]
            fn back_to_back_agreements_on_one_committee_match_fresh_pulls(
                k in 2usize..161,
                degree in 1usize..25,
                rounds in 1usize..10,
                attack_ix in 0usize..5,
                corrupt_pct in 0u64..50,
                seed in any::<u64>(),
            ) {
                let mut setup = ChaCha12Rng::seed_from_u64(seed);
                let g = RegularGraph::random_out_degree(k, degree.min(k - 1), &mut setup);
                let good: Vec<bool> = (0..k).map(|_| setup.gen_range(0..100) >= corrupt_pct).collect();
                let attack = ATTACKS[attack_ix];
                let cfg = AebaConfig::default();
                let mut committee = Committee::new(&good, &g, attack);
                let mut rng_a = ChaCha12Rng::seed_from_u64(seed ^ 0xA5A5);
                let mut rng_b = rng_a.clone();
                for call in 0..16 {
                    let inputs = shaped_inputs(call % 4, &good, attack, &mut setup);
                    let coin = |i: usize, r: usize| (r + i + call).is_multiple_of(2);
                    let got = committee.run_traced(&inputs, coin, rounds, &cfg, &mut rng_a);
                    let want = run_committee_full_rounds(
                        &good, &inputs, &g, coin, rounds, &cfg, attack, &mut rng_b,
                    );
                    same(&got, &want)?;
                }
                prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }
        }
    }

    /// The cost claim as counts: a round walks the rows of the smaller
    /// uniform side and no others (the pull loop read all `k`).
    mod rows_pushed {
        use super::*;

        const K: usize = 512;
        const ROUNDS: usize = 12;

        /// Rows walked per executed round, for an all-good committee.
        fn rows(inputs: &[bool], attack: CommitteeAttack) -> Vec<usize> {
            let mut rng = ChaCha12Rng::seed_from_u64(31);
            let g = RegularGraph::random_out_degree(K, 24, &mut rng);
            let good = vec![true; K];
            let mut committee = Committee::new(&good, &g, attack);
            // An adversarial coin: whoever falls below the threshold leaves
            // the majority.
            let coin = |i: usize, _: usize| !inputs[i];
            committee.run(inputs, coin, ROUNDS, &AebaConfig::default(), &mut rng);
            committee.rows_pushed.clone()
        }

        #[test]
        fn unanimous_input_walks_no_row_and_exits_after_one_round() {
            // Under every attack: with nobody corrupt none may keep the
            // round from settling (`Split` draws nothing here).
            for attack in ATTACKS {
                assert_eq!(rows(&[true; K], attack), [0], "{attack:?}");
                assert_eq!(rows(&[false; K], attack), [0], "{attack:?}");
            }
        }

        #[test]
        fn one_dissenter_costs_its_own_row_once() {
            let mut inputs = vec![true; K];
            inputs[77] = false;
            // Round 1 walks the dissenter's row and converts it; round 2
            // walks nothing and settles.
            assert_eq!(rows(&inputs, CommitteeAttack::Passive), [1, 0]);
        }

        #[test]
        fn an_even_split_walks_at_most_half_the_rows_a_round() {
            let inputs: Vec<bool> = (0..K).map(|i| i % 2 == 0).collect();
            let rows = rows(&inputs, CommitteeAttack::Passive);
            assert_eq!(rows[0], K / 2);
            assert!(rows.iter().all(|&r| r <= K.div_ceil(2)), "{rows:?}");
        }
    }
}
