//! Algorithm 2: the election tournament for almost-everywhere Byzantine
//! agreement (paper §3.4), plus the global-coin-subsequence extension
//! (§3.5).
//!
//! Each processor deals a [`CandidateArray`] of secret random words to its
//! level-1 committee. Arrays then compete up the tree: at every node, the
//! current level's block of each candidate array is *exposed*
//! (`sendDown` + `sendOpen`), its bin choice agreed on by per-candidate
//! committee agreement (Algorithm 5 with coins opened from the candidate
//! arrays themselves), and Feige's lightest bin selects the winners whose
//! remaining blocks are re-shared one level up (`sendSecretUp`, iterated
//! sharing). At the root, the surviving arrays' final blocks drive one
//! more agreement over *all* processors — producing a bit almost every
//! good processor agrees on (Theorem 2) — and their extra words become
//! the global coin subsequence (§3.5).
//!
//! ## Execution model
//!
//! This module is a *structured executor*: protocol values (shares'
//! custody, compromise status, exposures, per-member views, committee
//! agreement dynamics, elections, adversarial corruption between phases)
//! are computed faithfully step by step, while transport bits/rounds are
//! charged through [`CostModel`], whose per-operation formulas transcribe
//! §3.6/Lemma 5. See the crate-level fidelity note; what each phase costs
//! in time and memory is in `docs/performance.md`.
//!
//! Secrecy bookkeeping follows Lemma 3: an array's words stay hidden from
//! the adversary while every committee on its route keeps a good majority
//! of share holders; a committee whose corrupt fraction reaches the
//! sharing threshold `t/n = 1/2` while custodian surrenders them
//! (`compromised`). Experiment E8 cross-validates this rule against the
//! exact [`ba_crypto::iterated::ShareTree`] recovery model.

use crate::aeba::{AebaConfig, Committee, CommitteeAttack};
use crate::block::CandidateArray;
use crate::election::{lightest_bin, ElectionResult};
use crate::scale::{impl_scale_builders, StackParams};
use crate::stream::{Kind, Label};
use ba_sampler::RegularGraph;
use ba_sim::{
    derive_rng, BitStats, Carrier, Lockstep, Multicast, Payload, ProcId, SimRng, Transport,
};
use ba_topology::{Goodness, NodeAddr, Params, Tree};
use rand::Rng;
use std::sync::Arc;

/// One logical committee-level message of the tournament, routed over
/// the engine's [`Transport`] seam.
///
/// The tournament is a structured executor (see the module docs): most
/// of its traffic is *priced* through [`CostModel`] rather than
/// materialized. The exchanges that cross committee boundaries — and
/// therefore cross network partitions — are materialized as envelopes so
/// latency and fault models reach elections:
///
/// * [`TourMsg::Expose`] — a candidate's declared bin choice traveling
///   from its owner to a committee member (Alg. 2 step 2(a));
/// * [`TourMsg::WinnerShare`] — one custodian's sub-share of a winning
///   array traveling to a parent-committee member (`sendSecretUp`,
///   step 2(c));
/// * [`TourMsg::RootCoin`] — the coin word opened for one root-agreement
///   round, traveling from its supplier to every processor (step 3).
///
/// Intra-committee gossip stays in-memory (and CostModel-priced): it
/// never crosses a partition boundary that the committee's own members
/// do not already straddle via the exposure exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TourMsg {
    /// Candidate `cand`'s declared bin choice at `(level, node)`.
    Expose {
        /// Tree level of the election.
        level: u32,
        /// Node index within the level.
        node: u32,
        /// Candidate position within the node's holdings.
        cand: u32,
        /// The declared bin.
        bin: u16,
    },
    /// A sub-share of winning array `array` re-shared up from `(level,
    /// node)` to a parent-committee member.
    WinnerShare {
        /// Tree level the winner was elected at.
        level: u32,
        /// Node index within the level.
        node: u32,
        /// The winning array's id (its owner's processor index).
        array: u32,
        /// Words still packed in the array (payload sizing).
        words: u32,
    },
    /// The coin word opened for root-agreement round `j`.
    RootCoin {
        /// Root agreement round index.
        j: u32,
    },
}

impl Payload for TourMsg {
    fn bit_len(&self) -> u64 {
        match self {
            TourMsg::Expose { .. } => 16,
            TourMsg::WinnerShare { words, .. } => 16 * u64::from(*words),
            TourMsg::RootCoin { .. } => 16,
        }
    }
}

impl ba_sim::WireMsg for TourMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use ba_sim::wire::{put_u16, put_u32, put_u8};
        match self {
            TourMsg::Expose {
                level,
                node,
                cand,
                bin,
            } => {
                put_u8(out, 0);
                put_u32(out, *level);
                put_u32(out, *node);
                put_u32(out, *cand);
                put_u16(out, *bin);
            }
            TourMsg::WinnerShare {
                level,
                node,
                array,
                words,
            } => {
                put_u8(out, 1);
                put_u32(out, *level);
                put_u32(out, *node);
                put_u32(out, *array);
                put_u32(out, *words);
            }
            TourMsg::RootCoin { j } => {
                put_u8(out, 2);
                put_u32(out, *j);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        use ba_sim::wire::{take_u16, take_u32, take_u8};
        match take_u8(buf)? {
            0 => Ok(TourMsg::Expose {
                level: take_u32(buf)?,
                node: take_u32(buf)?,
                cand: take_u32(buf)?,
                bin: take_u16(buf)?,
            }),
            1 => Ok(TourMsg::WinnerShare {
                level: take_u32(buf)?,
                node: take_u32(buf)?,
                array: take_u32(buf)?,
                words: take_u32(buf)?,
            }),
            2 => Ok(TourMsg::RootCoin { j: take_u32(buf)? }),
            t => Err(ba_sim::WireError::BadTag(t)),
        }
    }
}

/// Configuration for one tournament execution.
#[derive(Clone, Debug)]
pub struct TournamentConfig {
    /// Tree and election parameters.
    pub params: Params,
    /// Public seed (tree generation, array dealing, committee graphs).
    pub seed: u64,
    /// Extra words per finalist array for the coin subsequence (§3.5).
    pub extra_words: usize,
    /// Committee-agreement tuning.
    pub aeba: AebaConfig,
    /// Fraction of good committee members that mis-see an exposed value
    /// (the paper's `1/log n` exposure noise; set 0 for a noiseless run).
    pub exposure_blindness: f64,
}

impl TournamentConfig {
    /// Defaults for `n` processors at `sp.seed`: practical parameters,
    /// exposure noise `1/log₂ n`, `⌈log₂ n⌉` extra coin words per
    /// finalist.
    pub fn from_params(sp: &StackParams) -> Self {
        let params = Params::practical(sp.n);
        let log_n = (sp.n as f64).log2().max(2.0);
        TournamentConfig {
            params,
            seed: sp.tournament_seed(),
            extra_words: log_n.ceil() as usize,
            aeba: AebaConfig::default(),
            // The paper's 1/log n exposure noise at astronomic n; a
            // quarter of that at laptop log₂ n keeps the modeled noise
            // from swamping log-sized committees.
            exposure_blindness: 0.25 / log_n,
        }
    }

    fn apply_seed(&mut self, seed: u64) {
        self.seed = seed;
    }
}

impl_scale_builders!(TournamentConfig);

/// Public state handed to a [`TreeAdversary`] between phases.
pub struct TreeView<'a> {
    /// The (public) communication tree.
    pub tree: &'a Tree,
    /// Current corruption flags.
    pub corrupt: &'a [bool],
    /// Remaining corruption budget.
    pub budget_left: usize,
    /// Level about to be processed (2..=levels; 0 during dealing).
    pub level: usize,
    /// Owners of the arrays still alive at each node of `level`
    /// (public information: candidacies are announced).
    pub candidates_by_node: &'a [Vec<usize>],
}

/// Protocol phase markers for adversary callbacks and bit breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Initial dealing of arrays to level-1 committees.
    Deal,
    /// Bin-choice exposure at a level.
    Expose,
    /// Per-candidate agreement at a level.
    Agree,
    /// Winner shares forwarded to the parent level.
    SendWinners,
    /// Final agreement at the root.
    RootAgreement,
}

/// An adaptive adversary over the tournament: chooses corruptions between
/// phases and bad candidates' bin choices (with rushing knowledge of the
/// good choices).
pub trait TreeAdversary {
    /// Processors to corrupt before `phase` runs at `view.level`.
    /// Requests beyond the budget are truncated in order.
    fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize>;

    /// Bin choice declared for a bad (bad-owner or compromised) candidate,
    /// after seeing all good candidates' choices (rushing). Default:
    /// crowd the bin that currently holds the fewest good candidates, the
    /// greedy play for seating bad winners.
    fn bad_bin_choice(&mut self, good_choices: &[Option<u16>], num_bins: usize) -> u16 {
        let mut counts = vec![0usize; num_bins];
        for c in good_choices.iter().flatten() {
            counts[*c as usize] += 1;
        }
        (0..num_bins).min_by_key(|&b| counts[b]).unwrap_or(0) as u16
    }

    /// How corrupt members behave inside committee agreements.
    fn committee_attack(&self) -> CommitteeAttack {
        CommitteeAttack::Oppose
    }
}

impl<T: TreeAdversary + ?Sized> TreeAdversary for Box<T> {
    fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize> {
        (**self).corrupt(phase, view)
    }

    fn bad_bin_choice(&mut self, good_choices: &[Option<u16>], num_bins: usize) -> u16 {
        (**self).bad_bin_choice(good_choices, num_bins)
    }

    fn committee_attack(&self) -> CommitteeAttack {
        (**self).committee_attack()
    }
}

/// The null adversary: corrupts nobody.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTreeAdversary;

impl TreeAdversary for NoTreeAdversary {
    fn corrupt(&mut self, _phase: PhaseKind, _view: &TreeView<'_>) -> Vec<usize> {
        Vec::new()
    }

    fn committee_attack(&self) -> CommitteeAttack {
        CommitteeAttack::Passive
    }
}

/// Per-level statistics (experiments E6 and E10).
#[derive(Clone, Debug, Default)]
pub struct LevelStats {
    /// Tree level.
    pub level: usize,
    /// Arrays competing across all elections at this level.
    pub candidates: usize,
    /// Of those, dealt by then-good owners and never compromised.
    pub good_candidates: usize,
    /// Winners advancing to the next level.
    pub winners: usize,
    /// Good winners advancing.
    pub good_winners: usize,
    /// Elections at bad nodes (outcome adversary-controlled).
    pub bad_elections: usize,
    /// Elections total.
    pub elections: usize,
    /// Bits charged during bin exposure at this level.
    pub expose_bits: u64,
    /// Bits charged during agreement (coin exposure + gossip).
    pub agree_bits: u64,
    /// Bits charged forwarding winner shares upward.
    pub winner_bits: u64,
    /// Mean good-member agreement fraction over this level's committees.
    pub mean_agreement: f64,
}

/// One word of the output coin subsequence (§3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoinWord {
    /// The opened word value.
    pub value: u16,
    /// Whether the word is a genuine uniform secret (good, uncompromised
    /// source array) — the subsequence property requires ≥ 2/3 of these.
    pub good: bool,
}

/// The result of a tournament run.
#[derive(Clone, Debug)]
pub struct TournamentOutcome {
    /// Per-processor almost-everywhere decision (`None` for corrupted).
    pub decisions: Vec<Option<bool>>,
    /// Fraction of good processors agreeing on the plurality bit.
    pub agreement_fraction: f64,
    /// The plurality bit among good processors.
    pub decided: bool,
    /// Whether the decided bit was some good processor's input (validity).
    pub valid: bool,
    /// Global coin subsequence opened at the root.
    pub coin_words: Vec<CoinWord>,
    /// Synchronous rounds consumed.
    pub rounds: usize,
    /// Bits sent per processor.
    pub bits_per_proc: Vec<u64>,
    /// Final corruption flags.
    pub corrupt: Vec<bool>,
    /// Per-level tournament statistics.
    pub level_stats: Vec<LevelStats>,
    /// Transport rounds consumed by the routed committee exchanges (the
    /// timeline [`ba_net` fault schedules](Transport) act on, and the
    /// round offset a following engine phase starts at).
    pub transport_rounds: usize,
    /// Per-phase bit attribution, in execution order: `deal`, then
    /// `L<k>:expose` / `L<k>:agree` / `L<k>:winners` per level, then
    /// `root:coin` and `coin:open`. Totals are exact by construction —
    /// they sum to `bits_per_proc.iter().sum()` (every charge site lands
    /// in exactly one window).
    pub phase_bits: Vec<(String, u64)>,
}

impl TournamentOutcome {
    /// Summary statistics of bits sent by good processors.
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

    /// Fraction of coin-subsequence words that are genuine random secrets
    /// (§3.5 targets ≥ 2/3).
    pub fn good_coin_fraction(&self) -> f64 {
        if self.coin_words.is_empty() {
            return 0.0;
        }
        self.coin_words.iter().filter(|w| w.good).count() as f64 / self.coin_words.len() as f64
    }
}

/// Transcription of §3.6 / Lemma 5's per-operation communication costs,
/// charged to the concrete processors involved.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Uplink degree `d` (shares per re-sharing hop).
    pub uplink_degree: u64,
    /// Level-1 committee size `k₁` (intra-leaf exchanges).
    pub k1: u64,
    /// ℓ-link fan (sendOpen messages per leaf member).
    pub llink_degree: u64,
}

impl CostModel {
    fn from_params(p: &Params) -> Self {
        CostModel {
            uplink_degree: p.uplink_degree as u64,
            k1: p.k1 as u64,
            llink_degree: p.llink_degree as u64,
        }
    }

    /// Bits a dealer pays to share `words` words with its level-1 node.
    pub fn deal_bits(&self, words: u64) -> u64 {
        self.k1 * words * 16
    }

    /// Bits one committee member pays re-sharing a `words`-word secret up
    /// one level (`sendSecretUp`: `d` sub-shares, each secret-sized).
    pub fn reshare_bits(&self, words: u64) -> u64 {
        self.uplink_degree * words * 16
    }

    /// Bits one inner-committee member pays per `sendDown` hop (its held
    /// shares flow down the uplinks they arrived on, plus those of its
    /// node's other children — fan ≈ `d`).
    pub fn send_down_bits(&self, words: u64) -> u64 {
        self.uplink_degree * words * 16
    }

    /// Bits one leaf member pays finishing a reveal: intra-node share
    /// exchange (`k₁` peers) plus `sendOpen` up the ℓ-links.
    pub fn leaf_open_bits(&self, words: u64) -> u64 {
        (self.k1 + self.llink_degree) * words * 16
    }
}

/// The most processors the tournament deals candidate arrays for. Owner
/// `i`'s array draws from the stream labelled `0xA44A_0000 | i`, whose
/// constant already sets bit 17, so owner `2^17` would draw owner 0's
/// array. Moving the deal onto `stream::Label` lifts the limit, and
/// moves every pinned draw (ROADMAP 1(e)).
pub const MAX_DEAL_OWNERS: usize = 1 << 17;

/// The stream label of owner `i`'s candidate array: distinct for every
/// owner below [`MAX_DEAL_OWNERS`].
fn deal_label(owner: usize) -> u64 {
    0xA44A_0000 | owner as u64
}

/// Runs Algorithm 2 (+§3.5) with the given inputs and adversary on the
/// paper's synchronous network ([`Lockstep`]).
///
/// `inputs[i]` is processor `i`'s Byzantine-agreement input bit.
///
/// # Panics
///
/// Panics if `inputs.len() != params.n`, parameters are invalid or
/// `params.n` is past [`MAX_DEAL_OWNERS`].
pub fn run<A: TreeAdversary>(
    config: &TournamentConfig,
    inputs: &[bool],
    adversary: &mut A,
) -> TournamentOutcome {
    let mut lockstep = Lockstep::<TourMsg>::default();
    run_with_transport(config, inputs, adversary, &mut lockstep)
}

/// [`run`] with the committee-level exchanges routed through an explicit
/// [`Transport`] — partitions, drops, latency, crash-stop, and churn from
/// `ba-net` finally reach elections at the tree level.
///
/// The routed exchanges consume one transport round each, in a fixed
/// order: per tree level an exposure exchange then a winner-share
/// exchange, then one exchange per root-agreement round (the consumed
/// total is reported as [`TournamentOutcome::transport_rounds`]). Fault
/// schedules are expressed against this timeline. A member that misses an
/// exposure treats the candidate's bin declaration as unknown (a blind
/// guess); a winning array advances only if a strict majority of its
/// custodian→parent share deliveries arrive; a processor that misses a
/// root coin opening is thrown onto the adversarial coin for that round;
/// offline members sit out their committee's election entirely.
///
/// With a lossless zero-latency transport every exchange delivers in
/// full and the run is byte-identical to [`run`] (pinned by the root
/// `net_equivalence` tests).
///
/// # Panics
///
/// Panics if `inputs.len() != params.n`, parameters are invalid or
/// `params.n` is past [`MAX_DEAL_OWNERS`] (two owners would deal the same
/// array).
pub fn run_with_transport<A, W, Tr>(
    config: &TournamentConfig,
    inputs: &[bool],
    adversary: &mut A,
    net: &mut Tr,
) -> TournamentOutcome
where
    A: TreeAdversary,
    W: Carrier<TourMsg> + Clone,
    Tr: Transport<W> + ?Sized,
{
    let p = &config.params;
    assert_eq!(inputs.len(), p.n, "inputs must cover all processors");
    p.validate().expect("invalid parameters");
    assert!(
        p.n <= MAX_DEAL_OWNERS,
        "n = {} is past the {MAX_DEAL_OWNERS} owners whose deal streams are distinct",
        p.n
    );
    let tree = Tree::generate(p, config.seed);
    let cost = CostModel::from_params(p);
    let mut rng = derive_rng(config.seed, 0x7030_0001);

    let n = p.n;
    let mut corrupt = vec![false; n];
    let mut budget = p.corruption_budget();
    let mut bits = vec![0u64; n];
    let mut rounds = 0usize;
    let mut level_stats: Vec<LevelStats> = Vec::new();
    // The transport clock: every routed committee exchange sends at the
    // current round and collects (one round later) what survived the
    // wire. Distinct from `rounds`, which keeps the paper's §3.6
    // synchronous-round accounting.
    let mut net_round = 0usize;

    // ---- Phase: Deal -----------------------------------------------------
    // (adversary may pre-corrupt before any secrets exist)
    let empty_candidates: Vec<Vec<usize>> = Vec::new();
    apply_corruptions(
        adversary.corrupt(
            PhaseKind::Deal,
            &TreeView {
                tree: &tree,
                corrupt: &corrupt,
                budget_left: budget,
                level: 0,
                candidates_by_node: &empty_candidates,
            },
        ),
        &mut corrupt,
        &mut budget,
    );

    // Every processor deals its array to its level-1 node; the node
    // re-shares it up to the parent immediately (Alg. 2 step 1).
    let mut arrays: Vec<ArrayState> = (0..n)
        .map(|i| {
            let mut arng = derive_rng(config.seed, deal_label(i));
            ArrayState {
                array: CandidateArray::generate(i, p, config.extra_words, &mut arng),
                bad: corrupt[i],
                compromised: false,
                alive: true,
            }
        })
        .collect();
    for i in 0..n {
        let words = arrays[i].array.word_count() as u64;
        bits[i] += cost.deal_bits(words);
        for &m in tree.members(NodeAddr::new(1, i)) {
            bits[m as usize] += cost.reshare_bits(words);
        }
    }
    rounds += 2; // deal + sendSecretUp

    // Per-phase bit attribution: windows are delimited by snapshots of
    // the total charge, so the phase totals sum to the run total exactly
    // no matter which code path charged inside a window.
    let mut phase_bits: Vec<(String, u64)> = Vec::new();
    let mut charged_mark: u64 = bits.iter().sum();
    phase_bits.push(("deal".to_owned(), charged_mark));

    // Custody: after step 1, array i is held by the level-2 committee of
    // leaf i's parent. Secrecy check for the passage through level 1:
    let goodness = Goodness::classify(&tree, &corrupt, 0.5);
    for (i, a) in arrays.iter_mut().enumerate() {
        if !goodness.is_good(NodeAddr::new(1, i)) {
            a.compromised = true;
        }
    }

    // ---- Tournament levels ----------------------------------------------
    // `holdings[node]` = array ids now held at each node of `level`.
    let mut level = 2usize;
    let mut holdings: Vec<Vec<usize>> = {
        let count = p.node_count(2);
        let mut h: Vec<Vec<usize>> = vec![Vec::new(); count];
        for i in 0..n {
            let parent = tree.parent(NodeAddr::new(1, i));
            h[parent.index].push(i);
        }
        h
    };

    // Committee member lists converted to Arc-shared recipient slices
    // once per (level, node), reused by every fan to that committee.
    let mut member_lists = MemberLists::default();

    while level < p.levels {
        let node_count = p.node_count(level);
        debug_assert_eq!(holdings.len(), node_count);
        let mut stats = LevelStats {
            level,
            ..LevelStats::default()
        };

        // Adversary acts before exposure (it can see candidacies).
        let owners_by_node: Vec<Vec<usize>> = holdings
            .iter()
            .map(|h| h.iter().map(|&a| arrays[a].array.owner).collect())
            .collect();
        apply_corruptions(
            adversary.corrupt(
                PhaseKind::Expose,
                &TreeView {
                    tree: &tree,
                    corrupt: &corrupt,
                    budget_left: budget,
                    level,
                    candidates_by_node: &owners_by_node,
                },
            ),
            &mut corrupt,
            &mut budget,
        );

        // Custody secrecy check: current committees may have decayed.
        let goodness = Goodness::classify(&tree, &corrupt, 0.5);
        for (node, held) in holdings.iter().enumerate() {
            if !goodness.is_good(NodeAddr::new(level, node)) {
                for &a in held {
                    arrays[a].compromised = true;
                }
            }
        }
        // Election-goodness per Definition 3 (2/3 + ε/2).
        let def3 = Goodness::classify(&tree, &corrupt, Goodness::paper_threshold(p.eps));

        let mut next_holdings: Vec<Vec<usize>> = vec![Vec::new(); p.node_count(level + 1)];
        let mut agreement_sum = 0.0;
        let mut agreement_count = 0usize;

        // Elections at one level are independent (Alg. 2: "for each node C
        // on level ℓ" runs simultaneously), so they fan out across
        // threads. The only sequential protocol state is the adversary:
        // its rushing bin choices are collected in a prepass (same node
        // order as before), the heavy committee agreements run in
        // parallel on pure derived-RNG streams, and results — bit
        // charges, stats, winners — merge back in node order so runs stay
        // deterministic per seed regardless of thread scheduling.
        let num_bins = p.num_bins_at(level);
        let attack = adversary.committee_attack();

        // -- Prepass: expose bin choices (Alg. 2 step 2(a)) and let the
        // rushing adversary fix its candidates' declarations.
        let mut plans: Vec<ElectionPlan> = Vec::new();
        for (node, held) in holdings.iter().enumerate() {
            if held.is_empty() {
                continue;
            }
            // Good candidates' true bin choices (rushing adversary sees
            // them before fixing its own).
            let good_choices: Vec<Option<u16>> = held
                .iter()
                .map(|&a| {
                    let st = &arrays[a];
                    if st.bad || st.compromised {
                        None
                    } else {
                        Some(st.array.block_for_level(level).bin_choice.raw())
                    }
                })
                .collect();
            let declared: Vec<u16> = held
                .iter()
                .zip(&good_choices)
                .map(|(_, gc)| match gc {
                    Some(c) => *c % num_bins as u16,
                    None => adversary.bad_bin_choice(&good_choices, num_bins),
                })
                .collect();
            plans.push(ElectionPlan { node, declared });
        }

        // -- Routed exchange: each declared bin choice travels from the
        // candidate's owner to every committee member, one batch per
        // candidate. What the wire drops, the member never sees.
        let mut outbox: Vec<Multicast<TourMsg>> = Vec::new();
        for plan in &plans {
            let at = NodeAddr::new(level, plan.node);
            let members = member_lists.get(&tree, at);
            let held = &holdings[plan.node];
            for (ci, _) in held.iter().enumerate() {
                let owner = arrays[held[ci]].array.owner;
                outbox.push(Multicast {
                    from: ProcId::new(owner),
                    to: members.clone(),
                    payload: TourMsg::Expose {
                        level: level as u32,
                        node: plan.node as u32,
                        cand: ci as u32,
                        bin: plan.declared[ci],
                    },
                });
            }
        }
        let committee: Vec<usize> = (0..node_count)
            .map(|node| tree.members(NodeAddr::new(level, node)).len())
            .collect();
        let mut exposed = Exposure::new(&holdings, &committee);
        route(
            net,
            &mut net_round,
            &format!("L{level}:expose"),
            outbox,
            |to, msg| {
                if let TourMsg::Expose {
                    level: l,
                    node,
                    cand,
                    ..
                } = *msg
                {
                    if l as usize == level {
                        exposed.insert(node, cand, to);
                    }
                }
            },
        );
        let online = online_at(net, net_round, n);

        // -- Parallel phase: per-committee agreement + election.
        let outcomes: Vec<ElectionOutcome> = ba_par::par_map(&plans, |plan| {
            run_node_election(
                plan, level, num_bins, attack, &tree, &holdings, &arrays, &corrupt, &def3, &cost,
                config, &exposed, &online,
            )
        });

        // -- Merge in node order: charges, stats, elected winners.
        let mut elected: Vec<(usize, usize)> = Vec::new();
        for (plan, out) in plans.iter().zip(&outcomes) {
            let held = &holdings[plan.node];
            stats.elections += 1;
            stats.candidates += held.len();
            stats.good_candidates += held
                .iter()
                .filter(|&&a| !arrays[a].bad && !arrays[a].compromised)
                .count();
            for &(m, b) in &out.charges {
                bits[m] += b;
            }
            stats.expose_bits += out.expose_bits;
            stats.agree_bits += out.agree_bits;
            stats.winner_bits += out.winner_bits;
            agreement_sum += out.agreement_sum;
            agreement_count += out.agreement_count;
            // Nodes below the Definition 3 threshold are still *counted*
            // as bad elections for the Lemma 6 bookkeeping.
            if out.bad_election {
                stats.bad_elections += 1;
            }
            for &wi in &out.winners {
                elected.push((plan.node, held[wi]));
            }
            for (i, &aid) in held.iter().enumerate() {
                if !out.winners.contains(&i) {
                    arrays[aid].alive = false;
                }
            }
        }

        // -- Routed exchange: winner shares travel up one level
        // (`sendSecretUp`). Every current custodian sends a sub-share to
        // every parent-committee member; the array advances only if a
        // strict majority of those deliveries arrive, otherwise its
        // shares are lost on the wire and it drops out.
        let mut outbox: Vec<Multicast<TourMsg>> = Vec::new();
        let mut expected: Vec<(usize, usize, usize)> = Vec::new();
        for &(node, aid) in &elected {
            let at = NodeAddr::new(level, node);
            let senders = tree.members(at);
            let recips = member_lists.get(&tree, tree.parent(at));
            let words = arrays[aid].array.words_from_level(level + 1) as u32;
            let payload = TourMsg::WinnerShare {
                level: level as u32,
                node: node as u32,
                array: aid as u32,
                words,
            };
            for &s in senders {
                outbox.push(Multicast {
                    from: ProcId::new(s as usize),
                    to: recips.clone(),
                    payload,
                });
            }
            expected.push((node, aid, senders.len() * recips.len()));
        }
        let online = online_at(net, net_round + 1, n);
        let parents = parent_committees(&tree, level, &online);
        let mut receipts = WinnerReceipts::new(level, &online, parents, n);
        route(
            net,
            &mut net_round,
            &format!("L{level}:winners"),
            outbox,
            |to, msg| receipts.count(to, msg),
        );
        for &(node, aid, pairs) in &expected {
            if 2 * receipts.of(aid) > pairs {
                stats.winners += 1;
                if !arrays[aid].bad && !arrays[aid].compromised {
                    stats.good_winners += 1;
                }
                let parent = tree.parent(NodeAddr::new(level, node));
                next_holdings[parent.index].push(aid);
            } else {
                arrays[aid].alive = false;
            }
        }

        // Rounds accrue once per level — every node's election runs in
        // parallel (Alg. 2 "for each node C on level ℓ" is simultaneous):
        // expose bins (ℓ+1 hops), coin_rounds agreement rounds each
        // needing a coin exposure (ℓ+1) plus one gossip round, and one
        // sendSecretUp round for the winners.
        let coin_rounds = p.candidates_at(level).max(4);
        rounds += (level + 1) + coin_rounds * (level + 2) + 1;

        stats.mean_agreement = if agreement_count > 0 {
            agreement_sum / agreement_count as f64
        } else {
            1.0
        };
        // This level's charges are exactly the merged per-node expose /
        // agree / winner totals (the snapshot delta proves it), so the
        // attribution splits the window without double counting.
        let charged_now: u64 = bits.iter().sum();
        debug_assert_eq!(
            charged_now - charged_mark,
            stats.expose_bits + stats.agree_bits + stats.winner_bits,
            "level {level} charges must equal the LevelStats split"
        );
        phase_bits.push((format!("L{level}:expose"), stats.expose_bits));
        phase_bits.push((format!("L{level}:agree"), stats.agree_bits));
        phase_bits.push((format!("L{level}:winners"), stats.winner_bits));
        charged_mark = charged_now;
        level_stats.push(stats);
        holdings = next_holdings;
        level += 1;
    }

    // ---- Root agreement (Alg. 2 step 3) -----------------------------------
    let owners_by_node: Vec<Vec<usize>> = holdings
        .iter()
        .map(|h| h.iter().map(|&a| arrays[a].array.owner).collect())
        .collect();
    apply_corruptions(
        adversary.corrupt(
            PhaseKind::RootAgreement,
            &TreeView {
                tree: &tree,
                corrupt: &corrupt,
                budget_left: budget,
                level: p.levels,
                candidates_by_node: &owners_by_node,
            },
        ),
        &mut corrupt,
        &mut budget,
    );
    let finalists: Vec<usize> = holdings.first().cloned().unwrap_or_default();
    let goodness = Goodness::classify(&tree, &corrupt, 0.5);
    let root = NodeAddr::new(p.levels, 0);
    if !goodness.is_good(root) {
        for &a in &finalists {
            arrays[a].compromised = true;
        }
    }

    // Gossip graph over all processors.
    let degree = p.aeba_degree.min(n - 1).max(1);
    let graph = ba_sampler::cache::regular_graph(n, degree, (config.seed, 0x6007), || {
        let mut grng = derive_rng(config.seed, 0x6007);
        RegularGraph::random_out_degree(n, degree, &mut grng)
    });
    let root_rounds = finalists.len().max(config.aeba.rounds).max(8);

    // -- Routed exchange: one coin opening per root-agreement round,
    // from the round's supplier to every processor. A processor the wire
    // fails lands on the adversarial coin for that round; a processor
    // offline for a majority of the window sits the root agreement out.
    let mut coin_recv = vec![false; root_rounds * n];
    let mut offline_rounds = vec![0usize; n];
    let everyone: Arc<[ProcId]> = (0..n).map(ProcId::new).collect();
    for j in 0..root_rounds {
        let mut outbox: Vec<Multicast<TourMsg>> = Vec::new();
        if !finalists.is_empty() {
            let owner = arrays[finalists[j % finalists.len()]].array.owner;
            outbox.push(Multicast {
                from: ProcId::new(owner),
                to: everyone.clone(),
                payload: TourMsg::RootCoin { j: j as u32 },
            });
        }
        let online = online_at(net, net_round + 1, n);
        route(net, &mut net_round, "root:coin", outbox, |to, msg| {
            if let TourMsg::RootCoin { j: jj } = *msg {
                // Count only on-time openings received by a live
                // processor: a word arriving after its agreement
                // round — or at a crashed recipient — is useless to
                // the voter.
                if jj as usize == j {
                    for t in to {
                        if online[t.index()] {
                            coin_recv[j * n + t.index()] = true;
                        }
                    }
                }
            }
        });
        for (m, miss) in offline_rounds.iter_mut().enumerate() {
            if !online[m] {
                *miss += 1;
            }
        }
    }

    let member_good: Vec<bool> = (0..n)
        .map(|i| !corrupt[i] && 2 * offline_rounds[i] <= root_rounds)
        .collect();
    let good_inputs: Vec<bool> = inputs.to_vec();
    // The bit the adversarial fallback coin fights: the majority input
    // among non-corrupt processors. Numerator and denominator use the
    // same population on purpose — the offline filter above must not
    // skew which bit counts as "the good majority".
    let good_majority_input = {
        let ones = (0..n).filter(|&i| !corrupt[i] && inputs[i]).count();
        let good = (0..n).filter(|&i| !corrupt[i]).count();
        2 * ones >= good
    };
    let coin_view = |m: usize, j: usize| -> bool {
        if finalists.is_empty() {
            return false;
        }
        let st = &arrays[finalists[j % finalists.len()]];
        if !st.bad && !st.compromised && coin_recv[j * n + m] {
            let block = st.array.blocks.last().expect("arrays have blocks");
            // Round j draws supplier j mod f and that supplier's next
            // unopened word, so successive rounds never reuse a word.
            let w = block.coins[(j / finalists.len()) % block.coins.len().max(1)];
            let mut vrng = Label::new(Kind::RootCoinView)
                .round(j)
                .member(m)
                .rng(config.seed);
            if vrng.gen_bool(config.exposure_blindness.clamp(0.0, 0.49)) {
                vrng.gen_bool(0.5)
            } else {
                w.raw() & 1 == 1
            }
        } else {
            !good_majority_input
        }
    };
    let out = Committee::new(&member_good, &graph, adversary.committee_attack()).run(
        &good_inputs,
        coin_view,
        root_rounds,
        &config.aeba,
        &mut rng,
    );
    for (v, b) in bits.iter_mut().enumerate() {
        *b += (graph.degree(v) * root_rounds) as u64;
    }
    // Coin words opened per root round travel the whole tree.
    charge_expose(&tree, root, root_rounds as u64, &cost, &mut bits);
    rounds += root_rounds * (p.levels + 1);
    let charged_now: u64 = bits.iter().sum();
    phase_bits.push(("root:coin".to_owned(), charged_now - charged_mark));
    charged_mark = charged_now;

    // ---- Coin subsequence (§3.5) ------------------------------------------
    let mut coin_words = Vec::new();
    for &aid in &finalists {
        let st = &arrays[aid];
        let genuine = !st.bad && !st.compromised;
        for &wv in &st.array.extra {
            coin_words.push(CoinWord {
                value: wv.raw(),
                good: genuine,
            });
        }
    }
    if !finalists.is_empty() {
        charge_expose(&tree, root, coin_words.len() as u64, &cost, &mut bits);
        rounds += p.levels + 1;
    }
    let charged_now: u64 = bits.iter().sum();
    phase_bits.push(("coin:open".to_owned(), charged_now - charged_mark));
    debug_assert_eq!(
        phase_bits.iter().map(|(_, b)| b).sum::<u64>(),
        charged_now,
        "phase attribution must cover every charged bit"
    );

    // ---- Outcome ----------------------------------------------------------
    let decisions: Vec<Option<bool>> = (0..n)
        .map(|i| (!corrupt[i]).then_some(out.votes[i]))
        .collect();
    let good_total = member_good.iter().filter(|&&g| g).count().max(1);
    let ones = decisions.iter().flatten().filter(|&&b| b).count();
    let decided = 2 * ones >= good_total;
    let agreeing = decisions
        .iter()
        .flatten()
        .filter(|&&b| b == decided)
        .count();
    let valid = (0..n).any(|i| !corrupt[i] && inputs[i] == decided);
    TournamentOutcome {
        decisions,
        agreement_fraction: agreeing as f64 / good_total as f64,
        decided,
        valid,
        coin_words,
        rounds,
        bits_per_proc: bits,
        corrupt,
        level_stats,
        transport_rounds: net_round,
        phase_bits,
    }
}

/// Runs one committee exchange over the transport: all of `outbox`
/// leaves in the current transport round (senders that are offline say
/// nothing), the clock advances, and whatever the wire delivers by the
/// new round streams through `deliver` as lent `(recipients, message)`
/// batches ([`Transport::collect_lent`]) — a round's deliveries are
/// folded as they arrive, never materialised or copied. Late traffic from
/// earlier exchanges surfaces here too — callers filter by the message
/// keys they are waiting for, and skip recipients offline at the delivery
/// round, so stale or dead-letter deliveries fall on the floor exactly as
/// they would in a round-based protocol.
///
/// Each fan leaves as one [`Multicast`]: a transport that keeps batches
/// whole holds one entry per (sender, committee, exchange), and one that
/// does not expands it through the trait's default `send_many`. Fans are
/// wrapped into the transport's [`Carrier`] type `W` and opened on
/// delivery; one that does not open is another phase's and reaches nobody.
fn route<W: Carrier<TourMsg> + Clone, Tr: Transport<W> + ?Sized>(
    net: &mut Tr,
    net_round: &mut usize,
    label: &str,
    outbox: Vec<Multicast<TourMsg>>,
    mut deliver: impl FnMut(&[ProcId], &TourMsg),
) {
    let r = *net_round;
    // Announce the exchange so a stats-keeping transport can attribute
    // this round's traffic to it (successive same-label exchanges
    // coalesce into one derived phase).
    net.mark_phase(r, label);
    for mc in outbox {
        if net.is_online(r, mc.from) {
            net.send_many(
                r,
                Multicast {
                    from: mc.from,
                    to: mc.to,
                    payload: W::wrap(mc.payload),
                },
            );
        }
    }
    *net_round += 1;
    net.collect_lent(*net_round, &mut |_, to, payload| {
        if let Some(msg) = payload.open() {
            deliver(to, msg);
        }
    });
}

/// Which processors are up at transport round `round` — a pure function
/// of the round, so an exchange's fold can have it before the collect.
fn online_at<W, Tr: Transport<W> + ?Sized>(net: &Tr, round: usize, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| net.is_online(round, ProcId::new(i)))
        .collect()
}

/// Each node of `level`'s parent committee: its size and how many of its
/// members are online — what a winner share sent up from the node counts
/// when all of the committee's list arrives at once. Computed once per
/// parent (a parent's children are consecutive).
fn parent_committees(tree: &Tree, level: usize, online: &[bool]) -> Vec<(usize, usize)> {
    let mut last: Option<(NodeAddr, (usize, usize))> = None;
    (0..tree.params().node_count(level))
        .map(|node| {
            let parent = tree.parent(NodeAddr::new(level, node));
            match last {
                Some((at, committee)) if at == parent => committee,
                _ => {
                    let members = tree.members(parent);
                    let up = members.iter().filter(|&&m| online[m as usize]).count();
                    last = Some((parent, (members.len(), up)));
                    (members.len(), up)
                }
            }
        })
        .collect()
}

/// Winner-share deliveries of one level that reached an online
/// recipient, summed per array id as the batches stream past. A share
/// is sent to its node's parent committee, whose members are distinct,
/// so a delivered group as long as that committee *is* the committee
/// and counts from the `parents` table; a partial group is scanned. A
/// share naming a node or an array outside the tables is ignored.
struct WinnerReceipts<'a> {
    level: usize,
    online: &'a [bool],
    /// By node of the level: its parent committee's size and online
    /// count ([`parent_committees`]).
    parents: Vec<(usize, usize)>,
    /// By array id.
    received: Vec<usize>,
}

impl<'a> WinnerReceipts<'a> {
    fn new(level: usize, online: &'a [bool], parents: Vec<(usize, usize)>, arrays: usize) -> Self {
        WinnerReceipts {
            level,
            online,
            parents,
            received: vec![0; arrays],
        }
    }

    fn count(&mut self, to: &[ProcId], msg: &TourMsg) {
        let TourMsg::WinnerShare {
            level: l,
            node,
            array,
            ..
        } = *msg
        else {
            return;
        };
        if l as usize != self.level {
            return;
        }
        let (Some(&(size, up)), Some(got)) = (
            self.parents.get(node as usize),
            self.received.get_mut(array as usize),
        ) else {
            return;
        };
        *got += if to.len() == size {
            up
        } else {
            to.iter().filter(|t| self.online[t.index()]).count()
        };
    }

    /// Deliveries counted for array `aid`.
    fn of(&self, aid: usize) -> usize {
        self.received.get(aid).copied().unwrap_or(0)
    }
}

/// Committee member lists as Arc-shared [`ProcId`] slices, converted
/// once per (level, node) on first use and cloned per fan.
#[derive(Default)]
struct MemberLists {
    /// By level, then node index.
    levels: Vec<Vec<Option<Arc<[ProcId]>>>>,
}

impl MemberLists {
    fn get(&mut self, tree: &Tree, at: NodeAddr) -> Arc<[ProcId]> {
        if self.levels.len() <= at.level {
            self.levels.resize_with(at.level + 1, Vec::new);
        }
        let nodes = &mut self.levels[at.level];
        if nodes.is_empty() {
            nodes.resize(tree.params().node_count(at.level), None);
        }
        nodes[at.index]
            .get_or_insert_with(|| {
                tree.members(at)
                    .iter()
                    .map(|&m| ProcId::new(m as usize))
                    .collect()
            })
            .clone()
    }
}

/// Exposure receipts that survived the routed exchange: for each (node,
/// candidate) of the level, the recipients the declaration reached, as
/// one sorted list however the wire grouped them — so an election reads
/// a candidate's receipts in one merge walk against its (sorted) member
/// list on any transport. Candidate `c` of node `v` is list
/// `offsets[v] + c`, a segment of one flat buffer as long as `v`'s
/// committee (a declaration reaches each member at most once); a
/// declaration naming a node or a candidate outside the level's
/// holdings is ignored.
struct Exposure {
    /// Where each node's candidates start in `lists`: prefix sums of the
    /// holdings' lengths, one more entry than nodes.
    offsets: Vec<usize>,
    /// Per candidate: its segment of `reached` and how much of it is
    /// filled.
    lists: Vec<(std::ops::Range<usize>, usize)>,
    reached: Vec<ProcId>,
}

impl Exposure {
    /// Empty lists for the candidates `holdings` holds, node by node,
    /// each with room for its node's `committee[v]` members.
    fn new(holdings: &[Vec<usize>], committee: &[usize]) -> Self {
        let (mut offsets, mut lists) = (vec![0], Vec::new());
        let mut end = 0;
        for (held, &size) in holdings.iter().zip(committee) {
            for _ in held {
                lists.push((end..end + size, 0));
                end += size;
            }
            offsets.push(lists.len());
        }
        Exposure {
            offsets,
            lists,
            reached: vec![ProcId::new(0); end],
        }
    }

    /// The list of candidate `cand` at `node`, if the level holds it.
    fn slot(&self, node: usize, cand: usize) -> Option<usize> {
        let (&start, &end) = (self.offsets.get(node)?, self.offsets.get(node + 1)?);
        (cand < end - start).then_some(start + cand)
    }

    /// Merges one delivered group (sorted, like the committee list it is
    /// a part of; a recipient arrives once per candidate, so a list never
    /// outgrows its committee).
    fn insert(&mut self, node: u32, cand: u32, to: &[ProcId]) {
        debug_assert!(
            to.windows(2).all(|w| w[0] < w[1]),
            "recipient groups must stay sorted for the membership search"
        );
        let Some(k) = self.slot(node as usize, cand as usize) else {
            return;
        };
        let (segment, len) = &mut self.lists[k];
        let list = &mut self.reached[segment.clone()];
        debug_assert!(*len + to.len() <= list.len(), "a member reached twice");
        let to = &to[..to.len().min(list.len() - *len)];
        // `None < Some(_)`: an empty list takes the whole group.
        if list[..*len].last() < to.first() {
            list[*len..*len + to.len()].copy_from_slice(to);
            *len += to.len();
        } else {
            for &p in to {
                let at = list[..*len].partition_point(|&q| q < p);
                list.copy_within(at..*len, at + 1);
                list[at] = p;
                *len += 1;
            }
        }
    }

    /// The recipients candidate `cand`'s declaration reached at `node`,
    /// sorted.
    fn list(&self, node: usize, cand: usize) -> &[ProcId] {
        self.slot(node, cand).map_or(&[], |k| {
            let (segment, len) = &self.lists[k];
            &self.reached[segment.start..segment.start + len]
        })
    }

    /// Which of `members` (sorted processor ids) received candidate
    /// `cand`'s declaration at `node`. Asked only about members online at
    /// the delivery round, so dead-letter recipients never count.
    fn saw(&self, node: usize, cand: usize, members: &[u32]) -> Vec<bool> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let mut reached = self.list(node, cand).iter().peekable();
        members
            .iter()
            .map(|&m| {
                let m = m as usize;
                while reached.next_if(|p| p.index() < m).is_some() {}
                reached.next_if(|p| p.index() == m).is_some()
            })
            .collect()
    }
}

/// Internal per-array protocol state.
#[derive(Clone, Debug)]
struct ArrayState {
    array: CandidateArray,
    /// Dealt by a corrupt owner: contents adversarial from the start.
    bad: bool,
    /// Adversary reconstructed the words before their scheduled opening.
    compromised: bool,
    /// Still competing.
    alive: bool,
}

/// Sequentially-prepared inputs for one node's election: the node index
/// and the bin choices declared for every held candidate (the adversary's
/// rushing choices are fixed here, before any parallel work starts).
struct ElectionPlan {
    node: usize,
    declared: Vec<u16>,
}

/// Everything one node's election produced, accumulated privately by a
/// worker and merged into the executor's state in node order.
struct ElectionOutcome {
    /// Per-processor bit charges `(processor, bits)`, in charge order.
    charges: Vec<(usize, u64)>,
    expose_bits: u64,
    agree_bits: u64,
    winner_bits: u64,
    agreement_sum: f64,
    agreement_count: usize,
    /// Whether this election counts as bad for the Lemma 6 bookkeeping.
    bad_election: bool,
    /// Winner positions (indices into the node's `held` list).
    winners: Vec<usize>,
}

/// The committee members' views of one candidate's declared bin choice
/// (Alg. 2 step 2(a)): the votes they bring to the choice's bit-by-bit
/// agreement.
///
/// One stream per `(seed, level, node, candidate)`, walked bit-major then
/// member-minor by successive [`InputViews::next_bit`] calls, so every
/// word of a generator block is a draw somebody reads. Which draws a
/// member takes is part of the stream's layout: a blindness draw only if
/// the declaration reached it over a good path, a fair draw only if it
/// then has nothing to go by.
#[derive(Debug)]
pub struct InputViews {
    rng: SimRng,
    blindness: f64,
}

impl InputViews {
    /// The views of candidate `candidate` (its position in the node's
    /// holdings) at `(level, node)`; `exposure_blindness` as in
    /// [`TournamentConfig::exposure_blindness`].
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is wider than its field of the stream's
    /// label (`level` 8 bits, `node` 32, `candidate` 16).
    pub fn new(
        seed: u64,
        level: usize,
        node: usize,
        candidate: usize,
        exposure_blindness: f64,
    ) -> Self {
        InputViews {
            rng: Label::new(Kind::InputViews)
                .at(level, node)
                .candidate(candidate)
                .rng(seed),
            blindness: exposure_blindness.clamp(0.0, 0.49),
        }
    }

    /// Every member's view of the choice's next bit, whose declared
    /// value is `truth`. `saw[m]` is whether the declaration reached
    /// member `m` at all; `good_path` whether the exposure path to this
    /// committee is mostly good. A member that saw it over a good path
    /// holds `truth` unless exposure noise blinds it; every other member
    /// guesses.
    pub fn next_bit(&mut self, truth: bool, saw: &[bool], good_path: bool) -> Vec<bool> {
        saw.iter()
            .map(|&reached| {
                if reached && good_path && !self.rng.gen_bool(self.blindness) {
                    truth
                } else {
                    self.rng.gen_bool(0.5)
                }
            })
            .collect()
    }
}

/// Runs one node's bin-choice agreement and lightest-bin election
/// (Alg. 2 steps 2(a)–2(c) minus the adversary prepass). Pure with
/// respect to executor state: reads shares/corruption/goodness, draws
/// randomness only from streams derived from `(seed, level, node, …)`,
/// and reports all side effects through the returned [`ElectionOutcome`].
///
/// `exposed` holds the `(node, candidate, processor)` exposure receipts
/// that survived the routed exchange; `online` flags the processors that
/// were up at its delivery round. Offline members sit the election out
/// entirely — they cast no votes, pay no bits, and shrink the committee.
#[allow(clippy::too_many_arguments)]
fn run_node_election(
    plan: &ElectionPlan,
    level: usize,
    num_bins: usize,
    attack: CommitteeAttack,
    tree: &Tree,
    holdings: &[Vec<usize>],
    arrays: &[ArrayState],
    corrupt: &[bool],
    def3: &Goodness,
    cost: &CostModel,
    config: &TournamentConfig,
    exposed: &Exposure,
    online: &[bool],
) -> ElectionOutcome {
    let p = &config.params;
    let node = plan.node;
    let held = &holdings[node];
    let at = NodeAddr::new(level, node);
    let r_cands = held.len();
    let members: Vec<u32> = tree
        .members(at)
        .iter()
        .copied()
        .filter(|&m| online[m as usize])
        .collect();
    let k = members.len();
    if k < 2 {
        // The committee is (all but) gone — churned or crashed out. No
        // agreement can run; every candidate it held dies with it.
        return ElectionOutcome {
            charges: Vec::new(),
            expose_bits: 0,
            agree_bits: 0,
            winner_bits: 0,
            agreement_sum: 0.0,
            agreement_count: 0,
            bad_election: true,
            winners: Vec::new(),
        };
    }
    let member_good: Vec<bool> = members.iter().map(|&m| !corrupt[m as usize]).collect();
    let node_good = def3.is_good(at);
    let path_frac = def3.good_path_fraction(tree, at);

    let mut charges: Vec<(usize, u64)> = Vec::new();
    // Committee members are charged r_cands·bin_bits times in the gossip
    // loop below; aggregate those into one slot per member instead of one
    // charge tuple per (candidate, bit, member).
    let mut member_acc: Vec<u64> = vec![0; k];

    // Bin-choice exposure: one word per candidate travels down the
    // subtree and opens.
    let expose_bits = charge_expose_sink(tree, at, r_cands as u64, cost, &mut charges);

    // -- Agree on bin choices (Alg. 2 step 2(b)) --
    // r rounds of committee agreement decide all candidates' choices in
    // parallel, bit by bit; round j's coin for candidate i opens word
    // B_j(i).
    let mut agree_bits = 0u64;
    let degree = p.aeba_degree.min(k.saturating_sub(1)).max(1);
    // Built, used and dropped here: the graph is this committee's alone
    // (keyed by seed, level and node), so no other election or trial can
    // ask for it, and a registry that kept it would only keep it alive.
    let mut grng = Label::new(Kind::Graph).at(level, node).rng(config.seed);
    let graph = RegularGraph::random_out_degree(k, degree, &mut grng);
    let mut committee = Committee::new(&member_good, &graph, attack);
    let bin_bits = (num_bins as f64).log2().ceil().max(1.0) as usize;
    let mut agreed: Vec<u16> = Vec::with_capacity(r_cands);
    // Committee-internal vote randomness: an independent stream per
    // (seed, level, node), so elections stay deterministic per seed no
    // matter how the level's nodes are scheduled across threads.
    let mut crng = Label::new(Kind::Votes).at(level, node).rng(config.seed);
    // Coin schedule per agreement round j: supplied by candidate
    // j (mod r); genuine iff that array is good and hidden.
    let coin_rounds = r_cands.max(4);
    agree_bits += charge_expose_sink(tree, at, (coin_rounds * r_cands) as u64, cost, &mut charges);
    let mut agreement_sum = 0.0;
    let mut agreement_count = 0usize;
    for ci in 0..r_cands {
        let mut word = 0u16;
        // Which members the candidate's declaration reached.
        let saw = exposed.saw(node, ci, &members);
        let mut views = InputViews::new(config.seed, level, node, ci, config.exposure_blindness);
        for bit in 0..bin_bits {
            let truth = (plan.declared[ci] >> bit) & 1 == 1;
            let inputs = views.next_bit(truth, &saw, path_frac > 0.5);
            let coin_stream = Label::new(Kind::CoinView)
                .at(level, node)
                .candidate(ci)
                .bit(bit);
            let coin_view = |m: usize, j: usize| -> bool {
                let supplier = held[j % r_cands];
                let st = &arrays[supplier];
                let genuine = !st.bad && !st.compromised;
                if genuine {
                    let w = st.array.block_for_level(level).coins[ci % {
                        let c = st.array.block_for_level(level).coins.len();
                        c.max(1)
                    }];
                    let mut vrng = coin_stream.round(j).member(m).rng(config.seed);
                    if vrng.gen_bool(config.exposure_blindness.clamp(0.0, 0.49)) {
                        vrng.gen_bool(0.5)
                    } else {
                        (w.raw() >> bit) & 1 == 1
                    }
                } else {
                    // Failed coin: adversary pushes the minority bit.
                    !truth
                }
            };
            let out = committee.run(&inputs, coin_view, coin_rounds, &config.aeba, &mut crng);
            // Gossip bits: one bit per neighbor per round.
            for (mi, acc) in member_acc.iter_mut().enumerate() {
                let b = (graph.degree(mi) * coin_rounds) as u64;
                *acc += b;
                agree_bits += b;
            }
            agreement_sum += out.agreement;
            agreement_count += 1;
            if out.decided {
                word |= 1 << bit;
            }
        }
        agreed.push(word % num_bins as u16);
    }

    // -- Elect (lightest bin) --
    // The election always runs on the *agreed* bin choices: the
    // adversary's influence flows through the mechanisms already modeled
    // (its members' committee votes, its candidates' declared bins,
    // degraded exposure at bad-path nodes).
    let target = p.w.min(r_cands);
    let result: ElectionResult = lightest_bin(&agreed, num_bins, target);

    // -- Send winner shares up (Alg. 2 step 2(c)) --
    let mut winner_bits = 0u64;
    for &wi in &result.winners {
        let aid = held[wi];
        let words = arrays[aid].array.words_from_level(level + 1) as u64;
        let b = cost.reshare_bits(words);
        for acc in &mut member_acc {
            *acc += b;
        }
        winner_bits += b * k as u64;
    }
    charges.extend(
        members
            .iter()
            .zip(&member_acc)
            .filter(|(_, &b)| b > 0)
            .map(|(&m, &b)| (m as usize, b)),
    );

    ElectionOutcome {
        charges,
        expose_bits,
        agree_bits,
        winner_bits,
        agreement_sum,
        agreement_count,
        bad_election: !node_good || path_frac <= 0.5,
        winners: result.winners,
    }
}

fn apply_corruptions(req: Vec<usize>, corrupt: &mut [bool], budget: &mut usize) {
    for i in req {
        if i < corrupt.len() && !corrupt[i] && *budget > 0 {
            corrupt[i] = true;
            *budget -= 1;
        }
    }
}

/// Charges the §3.6 costs for exposing `words` words from node `at` down
/// to the leaves and back up the ℓ-links (sendDown + sendOpen).
fn charge_expose(tree: &Tree, at: NodeAddr, words: u64, cost: &CostModel, bits: &mut [u64]) {
    let mut sink = Vec::new();
    charge_expose_sink(tree, at, words, cost, &mut sink);
    for (m, b) in sink {
        bits[m] += b;
    }
}

/// [`charge_expose`] into a `(processor, bits)` charge list instead of a
/// dense array, so per-committee election workers can accumulate charges
/// privately and the executor can merge them deterministically afterwards.
/// Returns the total bits charged.
fn charge_expose_sink(
    tree: &Tree,
    at: NodeAddr,
    words: u64,
    cost: &CostModel,
    out: &mut Vec<(usize, u64)>,
) -> u64 {
    if words == 0 {
        return 0;
    }
    let mut total = 0u64;
    // Inner hops: members of every committee strictly between `at` and
    // the leaves forward shares down (approximate the subtree sweep by
    // charging each node on each level of the subtree once — exactly the
    // per-appearance accounting of Lemma 5).
    for level in (2..=at.level).rev() {
        let span = tree.leaf_range(at);
        // Nodes at `level` whose leaf range intersects `at`'s span.
        // Node i there covers leaves [i·width, (i+1)·width) (clamped to
        // n), so the intersecting indices are the contiguous run
        // span.start/width .. ⌈span.end/width⌉ — same nodes, same
        // ascending order as a full-level intersection scan, without
        // touching the O(node_count) non-overlapping nodes.
        let width = tree.leaf_range(NodeAddr::new(level, 0)).end.max(1);
        let lo = span.start / width;
        let hi = span
            .end
            .div_ceil(width)
            .min(tree.params().node_count(level));
        for i in lo..hi {
            for &m in tree.members(NodeAddr::new(level, i)) {
                let b = cost.send_down_bits(words);
                out.push((m as usize, b));
                total += b;
            }
        }
    }
    // Leaf members: intra-node exchange + sendOpen back to `at`.
    for leaf in tree.leaf_range(at) {
        for &m in tree.members(NodeAddr::new(1, leaf)) {
            let b = cost.leaf_open_bits(words);
            out.push((m as usize, b));
            total += b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_clean(n: usize, seed: u64, inputs: &[bool]) -> TournamentOutcome {
        let config = TournamentConfig::for_n(n).with_seed(seed);
        run(&config, inputs, &mut NoTreeAdversary)
    }

    /// The deal label has room for 2^17 owners and no more: owner 2^17
    /// draws owner 0's array, so the tournament refuses a larger run
    /// before it deals.
    #[test]
    fn owner_two_to_the_seventeen_would_deal_owner_zeros_array() {
        assert_eq!(deal_label(MAX_DEAL_OWNERS), deal_label(0));
        let mut labels: Vec<u64> = (0..MAX_DEAL_OWNERS).map(deal_label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MAX_DEAL_OWNERS);
    }

    #[test]
    #[should_panic(expected = "owners whose deal streams are distinct")]
    fn more_owners_than_deal_streams_are_refused() {
        let n = MAX_DEAL_OWNERS + 1;
        run_clean(n, 1, &vec![true; n]);
    }

    /// Replays one candidate's stream against both truths and reads off,
    /// per draw, whether the member was blinded and what it then guessed:
    /// a sighted member echoes the truth both times, a blinded one shows
    /// its guess both times.
    fn blinded_guesses(views: impl Fn() -> InputViews, k: usize, bits: usize) -> Vec<Option<bool>> {
        let saw = vec![true; k];
        let (mut against_false, mut against_true) = (views(), views());
        (0..bits)
            .flat_map(|_| {
                let lo = against_false.next_bit(false, &saw, true);
                let hi = against_true.next_bit(true, &saw, true);
                lo.into_iter()
                    .zip(hi)
                    .map(|(lo, hi)| (lo == hi).then_some(lo))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn input_views_blind_the_configured_share_and_blinded_views_are_fair() {
        // 10⁵ draws of one stream: 25 bits of a 4000-member committee.
        let blindness = 0.2;
        let draws = blinded_guesses(|| InputViews::new(7, 3, 5, 2, blindness), 4000, 25);
        let total = draws.len() as f64;
        assert_eq!(total, 1e5);
        let blinded = draws.iter().flatten().count() as f64;
        let sigma = (total * blindness * (1.0 - blindness)).sqrt();
        assert!(
            (blinded - total * blindness).abs() < 3.0 * sigma,
            "{blinded} of {total} draws blinded at blindness {blindness}"
        );
        let ones = draws.iter().flatten().filter(|&&g| g).count() as f64;
        assert!(
            (ones - blinded / 2.0).abs() < 3.0 * (blinded / 4.0).sqrt(),
            "{ones} of {blinded} blinded views guessed 1"
        );
        // A member the declaration never reached, or reached over a bad
        // path, only guesses — one fair draw, whatever the truth.
        for (saw, good_path) in [(false, true), (true, false)] {
            let mut views = InputViews::new(7, 3, 5, 2, blindness);
            let guesses = views.next_bit(true, &vec![saw; 4000], good_path);
            let ones = guesses.iter().filter(|&&g| g).count() as f64;
            assert!(
                (ones - 2000.0).abs() < 3.0 * 1000f64.sqrt(),
                "{ones} of 4000"
            );
        }
    }

    #[test]
    fn input_view_noise_no_longer_aliases_across_the_bit_field_above_256_members() {
        // The shifted-XOR label gave member m's bit-1 noise to member
        // m ^ 0x100 on bit 0 in every committee above 256 members.
        let k = 512;
        let draws = blinded_guesses(|| InputViews::new(9, 4, 1, 0, 0.49), k, 2);
        let (bit0, bit1) = draws.split_at(k);
        let differing = (0..k).filter(|&m| bit1[m] != bit0[m ^ 0x100]).count();
        // Independent draws differ in 1 − (0.51² + 2·0.245²) ≈ 62 % of
        // the members; aliased ones in none.
        assert!(differing > k / 2, "{differing} of {k} members differ");
    }

    #[test]
    fn input_views_walk_one_stream_bit_major_then_member_minor() {
        use rand::RngCore;
        // Two bits of k members are the 2k-member walk cut in two.
        let views = || InputViews::new(3, 2, 8, 1, 0.3);
        let saw = vec![true; 64];
        let mut two_bits = views();
        let mut walk = two_bits.next_bit(true, &saw, true);
        walk.extend(two_bits.next_bit(true, &saw, true));
        assert_eq!(walk, views().next_bit(true, &[true; 128], true));
        // The conditional draws: a sighted member takes the blindness
        // draw and, only if blinded, the fair one; an unsighted member
        // takes the fair one alone. So a bit advances the stream by one
        // 64-bit draw a member plus one a blinded member.
        let blinded = blinded_guesses(views, 64, 1).iter().flatten().count();
        assert!(
            blinded > 0,
            "nobody blinded: the second draw went unchecked"
        );
        for (saw, draws) in [(true, 64 + blinded), (false, 64)] {
            let mut after = views();
            after.next_bit(true, &[saw; 64], true);
            let mut skipped = views().rng;
            for _ in 0..draws {
                skipped.next_u64();
            }
            assert_eq!(after.rng.next_u64(), skipped.next_u64(), "saw = {saw}");
        }
    }

    #[test]
    fn unanimous_inputs_decide_that_bit() {
        let n = 64;
        let out = run_clean(n, 1, &vec![true; n]);
        assert!(out.decided);
        assert!(out.valid);
        assert!(
            out.agreement_fraction > 0.95,
            "agreement {}",
            out.agreement_fraction
        );
    }

    #[test]
    fn split_inputs_still_agree() {
        let n = 64;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let out = run_clean(n, 2, &inputs);
        assert!(out.valid, "decided bit must be some good input");
        assert!(
            out.agreement_fraction > 0.9,
            "agreement {}",
            out.agreement_fraction
        );
    }

    #[test]
    fn phase_bits_sum_to_total_bits() {
        for n in [32, 64, 128] {
            let out = run_clean(n, 11, &vec![true; n]);
            let total: u64 = out.bits_per_proc.iter().sum();
            let attributed: u64 = out.phase_bits.iter().map(|(_, b)| *b).sum();
            assert_eq!(attributed, total, "n={n} phases: {:?}", out.phase_bits);
            // Every level contributes its three phases plus deal/root/coin.
            assert!(out.phase_bits.iter().any(|(p, _)| p == "deal"));
            assert!(out.phase_bits.iter().any(|(p, _)| p == "root:coin"));
            assert!(out.phase_bits.iter().any(|(p, _)| p == "coin:open"));
            assert!(out.phase_bits.iter().any(|(p, _)| p.ends_with(":expose")));
        }
    }

    #[test]
    fn level_stats_track_survivors() {
        let n = 256;
        let out = run_clean(n, 3, &vec![false; n]);
        assert!(!out.level_stats.is_empty());
        for s in &out.level_stats {
            assert!(s.winners <= s.candidates);
            assert!(s.good_winners <= s.winners);
            // Clean run: everything good, no bad elections.
            assert_eq!(s.bad_elections, 0);
            assert_eq!(s.good_candidates, s.candidates);
        }
        // Candidate counts shrink as levels rise.
        let counts: Vec<usize> = out.level_stats.iter().map(|s| s.candidates).collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "candidates grew: {counts:?}");
        }
    }

    #[test]
    fn coin_subsequence_mostly_good_when_clean() {
        let n = 64;
        let out = run_clean(n, 4, &vec![true; n]);
        assert!(!out.coin_words.is_empty());
        assert!(
            out.good_coin_fraction() > 0.9,
            "good coin fraction {}",
            out.good_coin_fraction()
        );
    }

    #[test]
    fn bits_are_charged_to_everyone() {
        let n = 64;
        let out = run_clean(n, 5, &vec![true; n]);
        let stats = out.good_bit_stats();
        assert!(stats.min > 0, "every processor communicates");
        assert!(stats.max < 10 * stats.mean as u64 + 1_000_000);
    }

    #[test]
    fn deterministic_per_seed() {
        let n = 64;
        let a = run_clean(n, 7, &vec![true; n]);
        let b = run_clean(n, 7, &vec![true; n]);
        assert_eq!(a.decided, b.decided);
        assert_eq!(a.bits_per_proc, b.bits_per_proc);
        assert_eq!(a.rounds, b.rounds);
    }

    /// A static adversary corrupting the first (1/3 − ε)n processors at
    /// the deal: validity and agreement must survive.
    struct StaticTree;
    impl TreeAdversary for StaticTree {
        fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize> {
            if phase == PhaseKind::Deal {
                (0..view.budget_left).collect()
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn static_third_does_not_break_agreement() {
        let n = 128;
        let config = TournamentConfig::for_n(n).with_seed(8);
        // Good processors all start with `true`.
        let out = run(&config, &vec![true; n], &mut StaticTree);
        assert!(out.valid);
        assert!(
            out.agreement_fraction > 0.8,
            "agreement {} under static third",
            out.agreement_fraction
        );
        // Bad arrays exist but good ones keep a healthy share of wins.
        let last = out.level_stats.last().expect("levels ran");
        assert!(
            last.good_winners * 2 >= last.winners,
            "good winners {} of {}",
            last.good_winners,
            last.winners
        );
    }

    #[test]
    #[should_panic(expected = "inputs must cover")]
    fn wrong_input_len_panics() {
        let config = TournamentConfig::for_n(64);
        let _ = run(&config, &[true; 3], &mut NoTreeAdversary);
    }

    /// The dense count against the per-pair one, batch by batch as a
    /// transport lends them: every sender of an array fans to its node's
    /// parent committee, which the wire hands over whole, regrouped or a
    /// recipient at a time.
    #[test]
    fn winner_receipts_match_the_per_pair_count() {
        use std::collections::HashMap;
        let ids = |v: &[usize]| -> Vec<ProcId> { v.iter().map(|&i| ProcId::new(i)).collect() };
        let share = |level: u32, node: u32, array: u32| TourMsg::WinnerShare {
            level,
            node,
            array,
            words: 3,
        };
        let online: Vec<bool> = (0..10).map(|i| i != 2 && i != 7).collect();
        // Node 0 sends up to committee a, node 1 to committee b: their
        // sizes and online counts are the table.
        let committee_a = ids(&[1, 2, 3, 4]);
        let committee_b = ids(&[5, 6, 7]);
        let parents = vec![(4, 3), (3, 2)];
        let stream = [
            (committee_a.clone(), share(3, 0, 11)),
            (committee_a.clone(), share(3, 0, 11)),
            (committee_a.clone(), share(3, 0, 12)), // same list, next array
            (committee_b.clone(), share(3, 1, 12)),
            (committee_a.clone(), share(3, 0, 11)), // back to the first list
            (ids(&[2]), share(3, 0, 11)),           // singletons, one offline
            (ids(&[4]), share(3, 0, 11)),
            (ids(&[1, 3]), share(3, 0, 13)), // regrouped: partial lists
            (ids(&[2, 4]), share(3, 0, 13)),
            (committee_a.clone(), share(2, 0, 11)), // stale level: ignored
            (committee_b.clone(), TourMsg::RootCoin { j: 0 }), // foreign
            (committee_b.clone(), share(3, 1, 13)),
            (ids(&[]), share(3, 1, 13)),
        ];
        let mut per_pair: HashMap<usize, usize> = HashMap::new();
        for (to, msg) in &stream {
            if let TourMsg::WinnerShare {
                level: 3, array, ..
            } = *msg
            {
                *per_pair.entry(array as usize).or_insert(0) +=
                    to.iter().filter(|t| online[t.index()]).count();
            }
        }
        let mut receipts = WinnerReceipts::new(3, &online, parents, 20);
        for (to, msg) in &stream {
            receipts.count(to, msg);
        }
        for aid in 0..20 {
            let want = per_pair.get(&aid).copied().unwrap_or(0);
            assert_eq!(receipts.of(aid), want, "array {aid}");
        }
        assert_eq!(receipts.of(11), 3 + 3 + 3 + 1);
        assert_eq!(receipts.of(99), 0, "an array nobody heard of");

        // A payload outside the tables is ignored.
        let before = receipts.received.clone();
        receipts.count(&committee_a, &share(3, 2, 11)); // a node the level lacks
        receipts.count(&committee_a, &share(3, 0, 20)); // an array past the ids
        assert_eq!(receipts.received, before);

        // A whole parent list counts from the table, a partial one by a
        // scan: a table that disagrees with the scan shows which did.
        let mut doctored = WinnerReceipts::new(3, &online, vec![(4, 40)], 3);
        doctored.count(&committee_a, &share(3, 0, 1));
        doctored.count(&ids(&[1, 2, 3]), &share(3, 0, 2));
        assert_eq!((doctored.of(1), doctored.of(2)), (40, 2));

        // The table is each node's parent committee, online or not.
        let params = TournamentConfig::for_n(64).params;
        let tree = Tree::generate(&params, 1);
        let online: Vec<bool> = (0..64).map(|i| i % 3 != 0).collect();
        for level in 2..params.levels {
            let table = parent_committees(&tree, level, &online);
            assert_eq!(table.len(), params.node_count(level));
            for (node, &committee) in table.iter().enumerate() {
                let members = tree.members(tree.parent(NodeAddr::new(level, node)));
                let up = members.iter().filter(|&&m| online[m as usize]).count();
                assert_eq!(committee, (members.len(), up), "level {level} node {node}");
            }
        }
    }

    #[test]
    fn exposure_is_one_sorted_list_however_the_wire_grouped_it() {
        let ids = |v: &[usize]| -> Vec<ProcId> { v.iter().map(|&i| ProcId::new(i)).collect() };
        // Node 0 holds two candidates, node 1 one, node 2 none.
        let mut exposed = Exposure::new(&[vec![7, 9], vec![3], vec![]], &[12, 12, 12]);
        assert_eq!(exposed.offsets, [0, 2, 3, 3]);
        exposed.insert(0, 0, &ids(&[2, 3, 5, 8])); // a whole committee
        for group in [&[8][..], &[2], &[5, 6], &[3], &[], &[9, 11]] {
            exposed.insert(0, 1, &ids(group)); // jittered: any arrival order
        }
        exposed.insert(1, 0, &ids(&[4]));
        // A payload outside the tables is ignored: a candidate its node
        // does not hold, a node that holds none, a node past the level.
        exposed.insert(1, 1, &ids(&[5]));
        exposed.insert(2, 0, &ids(&[5]));
        exposed.insert(3, 0, &ids(&[5]));
        assert_eq!(exposed.list(0, 0), ids(&[2, 3, 5, 8]));
        assert_eq!(exposed.list(0, 1), ids(&[2, 3, 5, 6, 8, 9, 11]));
        assert_eq!(exposed.list(1, 0), ids(&[4]));
        assert_eq!(exposed.reached.len(), 3 * 12, "a segment a candidate");
        // The merge walk against a member list: every id, then one with
        // gaps on both sides (members nothing reached, receipts of
        // processors that are not — online — members).
        let all: Vec<u32> = (0..12).collect();
        let among = |set: &[u32]| -> Vec<bool> { all.iter().map(|m| set.contains(m)).collect() };
        assert_eq!(exposed.saw(0, 0, &all), among(&[2, 3, 5, 8]));
        assert_eq!(exposed.saw(0, 1, &all), among(&[2, 3, 5, 6, 8, 9, 11]));
        assert_eq!(exposed.saw(1, 0, &all), among(&[4]));
        assert_eq!(exposed.saw(1, 1, &all), among(&[]), "nothing arrived");
        assert_eq!(exposed.saw(3, 0, &all), among(&[]), "no such node");
        assert_eq!(
            exposed.saw(0, 1, &[0, 3, 4, 9, 10, 11, 12]),
            [false, true, false, true, false, true, false]
        );
    }
}
