//! The typed run specification: `RunSpec { protocol, adversary, net,
//! trials, seeds, output }` with a fluent builder.
//!
//! A `RunSpec` is a plain (serde-free) value describing one experiment
//! cell: which protocol, at what scale, with which inputs, against which
//! adversaries, over what network, for how many trials. The runner
//! (`ba_exp::run`) owns everything else — trial fan-out, per-trial
//! seeding, transports, metric extraction.

use crate::runner::TrialOutcome;
use ba_core::aeba::CommitteeAttack;
use ba_core::attacks::{CustodyBuster, StaticFraction, StaticThird, WinnerHunter};
use ba_core::everywhere::EverywhereConfig;
use ba_core::tournament::{NoTreeAdversary, TreeAdversary};
use ba_net::{NetConfig, MAX_PROCS};
use ba_topology::Params;

/// The most a run's gossip graph over all processors may take: past it
/// [`RunSpec::validate`] refuses the spec rather than try.
const GOSSIP_GRAPH_MAX_BYTES: u64 = 1 << 30;

/// The most a run's trial outcomes may take, one
/// `size_of::<TrialOutcome>()` slot a trial (the runner holds every
/// trial's outcome until the report is built): past it
/// [`RunSpec::validate`] refuses the spec rather than try.
const TRIAL_OUTCOMES_MAX_BYTES: u64 = 1 << 30;

/// How processor inputs are assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputPattern {
    /// Every processor starts with `true`.
    UnanimousTrue,
    /// Every processor starts with `false`.
    UnanimousFalse,
    /// Alternating inputs (worst-case split).
    Split,
    /// 90% `true`, 10% `false`.
    Lopsided,
}

impl InputPattern {
    /// Every pattern, in grammar order.
    pub(crate) const ALL: [InputPattern; 4] = [
        InputPattern::UnanimousTrue,
        InputPattern::UnanimousFalse,
        InputPattern::Split,
        InputPattern::Lopsided,
    ];

    /// Processor `i`'s input bit under this pattern.
    pub fn bit(self, i: usize) -> bool {
        match self {
            InputPattern::UnanimousTrue => true,
            InputPattern::UnanimousFalse => false,
            InputPattern::Split => i.is_multiple_of(2),
            InputPattern::Lopsided => !i.is_multiple_of(10),
        }
    }

    /// The pattern's `.scn` name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            InputPattern::UnanimousTrue => "unanimous-true",
            InputPattern::UnanimousFalse => "unanimous-false",
            InputPattern::Split => "split",
            InputPattern::Lopsided => "lopsided",
        }
    }
}

/// Which protocol a run executes.
#[derive(Clone, Debug, PartialEq)]
pub enum Protocol {
    /// Algorithm 5: AEBA with unreliable global coins, on the engine.
    Aeba(AebaSpec),
    /// Algorithm 3: almost-everywhere → everywhere, on the engine.
    AeToE(AeToESpec),
    /// Algorithm 2 + §3.5: the election tournament, committee traffic
    /// over the `Transport` seam.
    Tournament(TournamentTuning),
    /// Algorithm 4: the full everywhere stack (tournament + Algorithm 3)
    /// over one shared transport.
    Everywhere,
    /// Baseline: full-information flooding majority.
    Flood,
    /// Baseline: Phase King.
    PhaseKing,
    /// Baseline: Ben-Or.
    BenOr,
    /// Baseline: Rabin (shared beacon).
    Rabin,
}

impl Protocol {
    /// Short lowercase name (matches the scenario grammar).
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Aeba(_) => "aeba",
            Protocol::AeToE(_) => "ae_to_e",
            Protocol::Tournament(_) => "tournament",
            Protocol::Everywhere => "everywhere",
            Protocol::Flood => "flood",
            Protocol::PhaseKing => "phase_king",
            Protocol::BenOr => "ben_or",
            Protocol::Rabin => "rabin",
        }
    }

    /// The fewest processors the protocol runs on: AEBA's gossip graph
    /// needs two vertices and the tree-level executors' `Params::practical`
    /// four; every other protocol runs on one.
    fn min_n(&self) -> usize {
        match self {
            Protocol::Aeba(_) => 2,
            Protocol::Tournament(_) | Protocol::Everywhere => 4,
            _ => 1,
        }
    }
}

/// Gossip-graph degree policy for AEBA runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GossipDegree {
    /// `mult · √n` neighbors (the tournament-root regime).
    SqrtTimes(f64),
    /// `mult · log₂ n` neighbors (the sparse Theorem-5 regime).
    LogTimes(f64),
}

impl GossipDegree {
    /// The concrete out-degree at `n` processors (clamped to `n − 1`).
    pub(crate) fn for_n(&self, n: usize) -> usize {
        let d = match self {
            GossipDegree::SqrtTimes(m) => m * (n as f64).sqrt(),
            GossipDegree::LogTimes(m) => m * (n as f64).log2(),
        };
        (d.ceil() as usize).clamp(1, n.saturating_sub(1).max(1))
    }
}

/// AEBA (Algorithm 5) parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct AebaSpec {
    /// Gossip rounds.
    pub rounds: usize,
    /// Probability each global-coin round succeeds.
    pub coin_success: f64,
    /// Fraction of processors mis-seeing successful coins.
    pub coin_blind: f64,
    /// Gossip-graph degree policy.
    pub degree: GossipDegree,
    /// When set, failed coin rounds show each processor the
    /// adversarially *split* bit (its own parity) — the worst case
    /// Theorem 3 prices in — instead of a common `false`.
    pub split_failed_coins: bool,
}

impl Default for AebaSpec {
    fn default() -> Self {
        AebaSpec {
            rounds: 30,
            coin_success: 0.8,
            coin_blind: 0.02,
            degree: GossipDegree::SqrtTimes(6.0),
            split_failed_coins: false,
        }
    }
}

/// Who starts knowledgeable in an Algorithm-3 run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Knowledgeable {
    /// Processors whose [`InputPattern`] bit is `true`.
    Input,
    /// The first `⌊frac·n⌋` processors.
    Fraction(f64),
}

/// Algorithm 3 parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct AeToESpec {
    /// Adversary-tolerance slack `ε`.
    pub eps: f64,
    /// Who holds the message at the start.
    pub knowledgeable: Knowledgeable,
    /// The message value `M` being spread.
    pub message: u64,
    /// Engine flood cap override (flooding adversaries need headroom).
    pub flood_cap: Option<usize>,
}

impl Default for AeToESpec {
    fn default() -> Self {
        AeToESpec {
            eps: 0.1,
            knowledgeable: Knowledgeable::Input,
            message: 77,
            flood_cap: None,
        }
    }
}

/// Tournament parameter overrides (the E13 ablation knobs); `None`
/// keeps the `Params::practical` default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TournamentTuning {
    /// Tree arity override.
    pub q: Option<usize>,
    /// Leaf committee size override.
    pub k1: Option<usize>,
    /// AEBA gossip degree override.
    pub aeba_degree: Option<usize>,
}

impl TournamentTuning {
    /// `Params::practical(n)` with the overrides applied, refused when
    /// they fail [`Params::validate`]. `n` must be at least 4.
    pub(crate) fn params(&self, n: usize) -> Result<Params, String> {
        let mut p = Params::practical(n);
        if let Some(q) = self.q {
            // `with_q` sizes the tree by dividing by the arity.
            if q < 2 {
                return Err(format!("tournament arity q = {q} must be at least 2"));
            }
            p = p.with_q(q);
        }
        if let Some(k1) = self.k1 {
            p = p.with_k1(k1);
        }
        if let Some(d) = self.aeba_degree {
            p = p.with_aeba_degree(d);
        }
        p.validate().map_err(|e| e.to_string())?;
        Ok(p)
    }
}

/// Message-level (engine) adversary selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MessageAdversary {
    /// No adversary.
    #[default]
    None,
    /// Corrupt the first `count` processors at round 0 and silence them.
    Crash {
        /// Processors corrupted.
        count: usize,
    },
    /// AEBA vote splitting ([`ba_core::attacks::SplitVoter`]).
    SplitVotes {
        /// Processors corrupted.
        count: usize,
    },
    /// Coordinator equivocation ([`ba_baselines::CoordEquivocator`]):
    /// corrupt processors tell each recipient what its parity wants to
    /// hear. Targets the leader-based baselines (phase_king, rabin).
    Equivocate {
        /// Processors corrupted.
        count: usize,
    },
    /// Algorithm-3 response forgery ([`ba_core::attacks::ResponseForger`]).
    Forge {
        /// Processors corrupted.
        count: usize,
        /// The forged value.
        fake: u64,
    },
    /// Algorithm-3 request flooding ([`ba_core::attacks::Overloader`]).
    Overload {
        /// Processors corrupted.
        count: usize,
        /// Requests per corrupted processor per round.
        copies: usize,
    },
    /// Algorithm-3 concentrated label guessing
    /// ([`ba_core::attacks::LabelGuesser`]).
    GuessLabels {
        /// Processors corrupted.
        count: usize,
        /// Requests per corrupted processor per round.
        copies: usize,
    },
}

impl MessageAdversary {
    /// The adversary's `.scn` name (and the hunt's). The grammar names
    /// the first five; `overload` and `guess-labels` are built in code.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            MessageAdversary::None => "none",
            MessageAdversary::Crash { .. } => "crash",
            MessageAdversary::SplitVotes { .. } => "split",
            MessageAdversary::Equivocate { .. } => "equivocate",
            MessageAdversary::Forge { .. } => "forge",
            MessageAdversary::Overload { .. } => "overload",
            MessageAdversary::GuessLabels { .. } => "guess-labels",
        }
    }

    /// The same adversary corrupting `count` processors (`None` stays
    /// `None`).
    pub(crate) fn with_count(mut self, count: usize) -> Self {
        match &mut self {
            MessageAdversary::None => {}
            MessageAdversary::Crash { count: c }
            | MessageAdversary::SplitVotes { count: c }
            | MessageAdversary::Equivocate { count: c }
            | MessageAdversary::Forge { count: c, .. }
            | MessageAdversary::Overload { count: c, .. }
            | MessageAdversary::GuessLabels { count: c, .. } => *c = count,
        }
        self
    }

    /// Processors this adversary corrupts (0 for none).
    pub(crate) fn count(&self) -> usize {
        match *self {
            MessageAdversary::None => 0,
            MessageAdversary::Crash { count }
            | MessageAdversary::SplitVotes { count }
            | MessageAdversary::Equivocate { count }
            | MessageAdversary::Forge { count, .. }
            | MessageAdversary::Overload { count, .. }
            | MessageAdversary::GuessLabels { count, .. } => count,
        }
    }
}

/// Tree-level (tournament) adversary selection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum TreeAttack {
    /// No adversary.
    #[default]
    None,
    /// Full budget corrupted at the deal, spread over the id space.
    StaticThird {
        /// Committee behaviour of corrupted members.
        attack: CommitteeAttack,
    },
    /// An exact fraction corrupted at the deal.
    StaticFraction {
        /// Fraction of the population corrupted.
        frac: f64,
        /// Committee behaviour of corrupted members.
        attack: CommitteeAttack,
    },
    /// Adaptive owner hunting (futile against array elections).
    WinnerHunter,
    /// Adaptive custody attacks on share-holding committees.
    CustodyBuster {
        /// Budget fraction spent per opportunity.
        aggressiveness: f64,
    },
}

impl TreeAttack {
    /// The adversary's `.scn` name (and the hunt's). The grammar names
    /// all but `static-fraction`, which is built in code.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TreeAttack::None => "none",
            TreeAttack::StaticThird { .. } => "static-third",
            TreeAttack::StaticFraction { .. } => "static-fraction",
            TreeAttack::WinnerHunter => "winner-hunter",
            TreeAttack::CustodyBuster { .. } => "custody-buster",
        }
    }

    /// Instantiates the concrete adversary.
    pub fn instantiate(&self) -> Box<dyn TreeAdversary + Send> {
        match *self {
            TreeAttack::None => Box::new(NoTreeAdversary),
            TreeAttack::StaticThird { attack } => Box::new(StaticThird { attack }),
            TreeAttack::StaticFraction { frac, attack } => {
                Box::new(StaticFraction { frac, attack })
            }
            TreeAttack::WinnerHunter => Box::new(WinnerHunter),
            TreeAttack::CustodyBuster { aggressiveness } => {
                Box::new(CustodyBuster { aggressiveness })
            }
        }
    }
}

/// Composable adversary specification: a message-level adversary for the
/// engine phases **and** a tree-level adversary for the tournament may
/// act in the same run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdversarySpec {
    /// Message-level adversary.
    pub message: MessageAdversary,
    /// Tree-level adversary.
    pub tree: TreeAttack,
}

impl AdversarySpec {
    /// No adversary at any level.
    pub fn none() -> Self {
        AdversarySpec::default()
    }

    /// Crash-style static corruption of the first `count` processors.
    pub fn crash(count: usize) -> Self {
        AdversarySpec {
            message: MessageAdversary::Crash { count },
            ..AdversarySpec::default()
        }
    }

    /// AEBA vote splitting.
    pub fn split(count: usize) -> Self {
        AdversarySpec {
            message: MessageAdversary::SplitVotes { count },
            ..AdversarySpec::default()
        }
    }

    /// Sets the message-level adversary.
    pub fn with_message(mut self, message: MessageAdversary) -> Self {
        self.message = message;
        self
    }

    /// Sets the tree-level adversary.
    pub fn with_tree(mut self, tree: TreeAttack) -> Self {
        self.tree = tree;
        self
    }

    /// The engine corruption budget to configure: the message
    /// adversary's count, or the engine's default without one.
    pub(crate) fn engine_budget(&self) -> Option<usize> {
        match self.message {
            MessageAdversary::None => None,
            m => Some(m.count()),
        }
    }
}

/// Per-trial seeding: trial `t` runs at seed `base + t`, and every
/// component of a trial (engine streams, transport stream, tree
/// generation) derives from that one seed. `RunSpec` owns seeding — the
/// per-phase configs no longer carry their own conventions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeedPlan {
    /// Seed of trial 0.
    pub base: u64,
}

impl SeedPlan {
    /// A plan starting at `base`.
    pub(crate) fn base(base: u64) -> Self {
        SeedPlan { base }
    }

    /// The seed of trial `t`.
    pub fn seed(&self, trial: u64) -> u64 {
        self.base.wrapping_add(trial)
    }
}

/// Output-side knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutputSpec {
    /// Override for the engine round cap (`None` = protocol default plus
    /// slack).
    pub rounds_cap: Option<usize>,
}

/// One experiment cell: everything needed to run `trials` deterministic
/// trials of a protocol against an adversary over a network.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Number of processors.
    pub n: usize,
    /// Input-bit assignment.
    pub input: InputPattern,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Adversary composition.
    pub adversary: AdversarySpec,
    /// Network model, with the optional phase timetable for per-phase
    /// network statistics. The per-trial transport seed is derived from
    /// [`RunSpec::seeds`]; the `seed` field here is ignored.
    pub net: NetConfig,
    /// Independent trials.
    pub trials: u64,
    /// Seeding plan.
    pub seeds: SeedPlan,
    /// Output knobs.
    pub output: OutputSpec,
}

impl RunSpec {
    /// A spec with library defaults: split inputs, no adversary,
    /// synchronous lossless network, 4 trials, seeds from 0.
    pub fn new(protocol: Protocol, n: usize) -> Self {
        RunSpec {
            n,
            input: InputPattern::Split,
            protocol,
            adversary: AdversarySpec::default(),
            net: NetConfig::synchronous(),
            trials: 4,
            seeds: SeedPlan::default(),
            output: OutputSpec::default(),
        }
    }

    /// AEBA (Algorithm 5) with default tuning.
    pub fn aeba(n: usize) -> Self {
        Self::new(Protocol::Aeba(AebaSpec::default()), n)
    }

    /// Algorithm 3 with default tuning.
    pub fn ae_to_e(n: usize) -> Self {
        Self::new(Protocol::AeToE(AeToESpec::default()), n)
    }

    /// The election tournament (Algorithm 2 + §3.5).
    pub fn tournament(n: usize) -> Self {
        Self::new(Protocol::Tournament(TournamentTuning::default()), n)
    }

    /// The full everywhere stack (Algorithm 4).
    pub fn everywhere(n: usize) -> Self {
        Self::new(Protocol::Everywhere, n)
    }

    /// Flooding-majority baseline.
    pub fn flood(n: usize) -> Self {
        Self::new(Protocol::Flood, n)
    }

    /// Phase King baseline.
    pub fn phase_king(n: usize) -> Self {
        Self::new(Protocol::PhaseKing, n)
    }

    /// Ben-Or baseline.
    pub fn ben_or(n: usize) -> Self {
        Self::new(Protocol::BenOr, n)
    }

    /// Rabin baseline.
    pub fn rabin(n: usize) -> Self {
        Self::new(Protocol::Rabin, n)
    }

    /// Expands this spec into one row per population size — the same
    /// `n`-sweep axis the scenario grammar spells `n = 64,128,256` (see
    /// [`scenario::parse`](crate::scenario::parse)), so `exp` preset loops
    /// and `.scn` sweeps share one mechanism instead of hand-rolling
    /// `for n in`.
    pub fn sweep_n(&self, sizes: &[usize]) -> Vec<RunSpec> {
        sizes
            .iter()
            .map(|&n| {
                let mut row = self.clone();
                row.n = n;
                row
            })
            .collect()
    }

    /// Sets the trial count.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed (trial `t` runs at `base + t`).
    pub fn seeds(mut self, base: u64) -> Self {
        self.seeds = SeedPlan::base(base);
        self
    }

    /// Sets the input pattern.
    pub fn input(mut self, input: InputPattern) -> Self {
        self.input = input;
        self
    }

    /// Sets the adversary composition.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// The fully-derived network config for one trial.
    pub(crate) fn trial_net(&self, trial: u64) -> NetConfig {
        let mut cfg = self.net.clone();
        cfg.seed = self.seeds.seed(trial);
        cfg
    }

    /// Judges the spec's cross-field rules — the one place a combination
    /// of protocol, adversaries and knobs is accepted or refused, so a
    /// knob the run would silently drop is an error instead, and so is a
    /// gossip graph over all processors past 1 GiB (sized from the spec
    /// alone, before anything is built), trials whose outcome slots
    /// alone are past 1 GiB, an `n` below the protocol's
    /// minimum, a tournament tuning `Params::validate` refuses and a
    /// message adversary that corrupts more than n processors. Every
    /// trial entry point calls it, and so does `scenario::parse` for each
    /// row it yields. Which
    /// message adversary an engine-hosted protocol can field is its
    /// roster's answer, given when the trial resolves it.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".to_owned());
        }
        let slot = std::mem::size_of::<TrialOutcome>() as u64;
        if self.trials.saturating_mul(slot) > TRIAL_OUTCOMES_MAX_BYTES {
            return Err(format!(
                "trials = {} at {slot} B of outcome each is over the \
                 {TRIAL_OUTCOMES_MAX_BYTES} B limit",
                self.trials
            ));
        }
        let name = self.protocol.name();
        if self.n < self.protocol.min_n() {
            return Err(format!(
                "protocol `{name}` needs at least {} processors, got n = {}",
                self.protocol.min_n(),
                self.n
            ));
        }
        if self.n > MAX_PROCS {
            return Err(format!(
                "n = {} is past the {MAX_PROCS} processors a transport carries",
                self.n
            ));
        }
        // `NetTransport::new` would panic.
        if self.net.delta == 0 {
            return Err("delta must be positive".to_owned());
        }
        // `NetTransport` reads processors `0..n` only: a crash past them,
        // or a partition with an empty side, would silently never fire.
        for c in &self.net.faults.crashes {
            if c.proc >= self.n {
                return Err(format!(
                    "crash processor {} out of range (n = {})",
                    c.proc, self.n
                ));
            }
        }
        for p in &self.net.faults.partitions {
            if p.boundary == 0 || p.boundary >= self.n {
                return Err(format!(
                    "partition boundary {} leaves a side empty (n = {})",
                    p.boundary, self.n
                ));
            }
        }
        // `StaticAdversary::first_k` hands the engine ids `0..count`.
        let count = self.adversary.message.count();
        if count > self.n {
            return Err(format!(
                "message adversary corrupts {count} processors of n = {}",
                self.n
            ));
        }
        let tree_level = matches!(
            self.protocol,
            Protocol::Tournament(_) | Protocol::Everywhere
        );
        if self.adversary.tree != TreeAttack::None && !tree_level {
            return Err(format!(
                "tree adversary {:?} needs a tree-level protocol (tournament|everywhere), \
                 got `{name}`",
                self.adversary.tree
            ));
        }
        if matches!(self.protocol, Protocol::Tournament(_))
            && self.adversary.message != MessageAdversary::None
        {
            return Err(format!(
                "protocol `tournament` takes only tree adversaries, not {:?}",
                self.adversary.message
            ));
        }
        if tree_level && self.output.rounds_cap.is_some() {
            return Err(format!(
                "a rounds cap has no effect on protocol `{name}` \
                 (its length is parameter-determined)"
            ));
        }
        if let Some(degree) = self.gossip_degree()? {
            // Both directions of `n·degree` edges, a `u32` each.
            let bytes = 8 * self.n as u64 * degree as u64;
            if bytes > GOSSIP_GRAPH_MAX_BYTES {
                return Err(format!(
                    "the gossip graph over all {} processors at degree {degree} alone is \
                     {bytes} B, over the {GOSSIP_GRAPH_MAX_BYTES} B limit",
                    self.n
                ));
            }
        }
        Ok(())
    }

    /// The out-degree of the gossip graph over all processors the run
    /// builds, or `None` for a protocol that builds none; an error for a
    /// tournament tuning whose parameters are invalid. Needs `n` at least
    /// the protocol's minimum.
    fn gossip_degree(&self) -> Result<Option<usize>, String> {
        let n = self.n;
        let root = |p: Params| p.aeba_degree.min(n - 1).max(1);
        Ok(match &self.protocol {
            Protocol::Aeba(aeba) => Some(aeba.degree.for_n(n)),
            Protocol::Tournament(tuning) => Some(root(tuning.params(n)?)),
            Protocol::Everywhere => Some(root(EverywhereConfig::for_n(n).tournament.params)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let spec = RunSpec::aeba(96)
            .trials(8)
            .seeds(42)
            .input(InputPattern::Lopsided)
            .adversary(AdversarySpec::split(12));
        assert_eq!(spec.n, 96);
        assert_eq!(spec.trials, 8);
        assert_eq!(spec.seeds.seed(3), 45);
        assert_eq!(spec.adversary.engine_budget(), Some(12));
        assert_eq!(spec.protocol.name(), "aeba");
    }

    /// `Params::with_q` divides by the arity and the executors need
    /// valid parameters: a tuning `Params::validate` refuses is an error.
    #[test]
    fn an_invalid_tournament_tuning_is_refused() {
        let tuned = |q, k1, aeba_degree| {
            RunSpec::new(
                Protocol::Tournament(TournamentTuning { q, k1, aeba_degree }),
                64,
            )
        };
        for (spec, says) in [
            (tuned(Some(1), None, None), "arity"),
            (tuned(None, Some(0), None), "k1"),
            (tuned(None, None, Some(0)), "degrees"),
        ] {
            let err = spec.validate().expect_err("invalid params");
            assert!(err.contains(says), "{err}");
        }
        assert_eq!(tuned(Some(8), Some(12), Some(20)).validate(), Ok(()));
    }

    /// Every owner deals from its own stream, so a committee stack past
    /// 2^17 processors is admitted with a tuning near the scale profile's,
    /// whose gossip graph fits.
    #[test]
    fn committee_stacks_past_two_to_the_seventeen_are_admitted() {
        let tuning = TournamentTuning {
            aeba_degree: Some(68),
            ..TournamentTuning::default()
        };
        for n in [1 << 17, (1 << 17) + 1, 1 << 18] {
            assert_eq!(
                RunSpec::new(Protocol::Tournament(tuning), n).validate(),
                Ok(())
            );
        }
    }

    /// Every trial's outcome is held until the report is built: a
    /// trial count whose outcome slots alone pass 1 GiB is refused
    /// before any is allocated.
    #[test]
    fn trials_past_the_outcome_budget_are_refused() {
        let slot = std::mem::size_of::<TrialOutcome>() as u64;
        let most = TRIAL_OUTCOMES_MAX_BYTES / slot;
        assert_eq!(RunSpec::flood(16).trials(most).validate(), Ok(()));
        for trials in [most + 1, 1_000_000_000, u64::MAX] {
            let err = RunSpec::flood(16)
                .trials(trials)
                .validate()
                .expect_err("too many");
            assert!(err.contains("outcome"), "{err}");
        }
    }

    #[test]
    fn trial_net_owns_seeding() {
        let spec = RunSpec::flood(16).seeds(10);
        assert_eq!(spec.trial_net(0).seed, 10);
        assert_eq!(spec.trial_net(5).seed, 15);
    }

    #[test]
    fn engine_budget_defaults_to_adversary_count() {
        assert_eq!(AdversarySpec::none().engine_budget(), None);
        assert_eq!(AdversarySpec::crash(7).engine_budget(), Some(7));
    }

    #[test]
    fn degree_policies_scale() {
        assert_eq!(GossipDegree::SqrtTimes(6.0).for_n(100), 60);
        assert_eq!(GossipDegree::LogTimes(5.0).for_n(256), 40);
        // Clamped to n−1.
        assert_eq!(GossipDegree::SqrtTimes(100.0).for_n(16), 15);
    }
}
