//! The typed run specification: `RunSpec { protocol, adversary, net,
//! trials, seeds, output }` with a fluent builder.
//!
//! A `RunSpec` is a plain (serde-free) value describing one experiment
//! cell: which protocol, at what scale, with which inputs, against which
//! adversaries, over what network, for how many trials. The runner
//! (`ba_exp::run`) owns everything else — trial fan-out, per-trial
//! seeding, transports, metric extraction.

use ba_core::aeba::CommitteeAttack;
use ba_core::attacks::{CustodyBuster, StaticFraction, StaticThird, WinnerHunter};
use ba_core::everywhere::EverywhereConfig;
use ba_core::tournament::{NoTreeAdversary, TreeAdversary};
use ba_net::{InputPattern, NetConfig};
use ba_topology::Params;

/// The most a run's gossip graph over all processors may take: past it
/// [`RunSpec::validate`] refuses the spec rather than try.
const GOSSIP_GRAPH_MAX_BYTES: u64 = 1 << 30;

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
    pub fn for_n(&self, n: usize) -> usize {
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
    /// `Params::practical(n)` with the overrides applied.
    pub(crate) fn params(&self, n: usize) -> Params {
        let mut p = Params::practical(n);
        if let Some(q) = self.q {
            p = p.with_q(q);
        }
        if let Some(k1) = self.k1 {
            p = p.with_k1(k1);
        }
        if let Some(d) = self.aeba_degree {
            p = p.with_aeba_degree(d);
        }
        p
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
    /// Processors this adversary corrupts (0 for none).
    pub fn count(&self) -> usize {
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
    /// Corruption-budget override for the engine phase (`None` = the
    /// message adversary's own count, or the builder default).
    pub budget: Option<usize>,
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

    /// Overrides the engine corruption budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The engine corruption budget to configure.
    pub fn engine_budget(&self) -> Option<usize> {
        self.budget.or(match self.message {
            MessageAdversary::None => None,
            m => Some(m.count()),
        })
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
    pub fn base(base: u64) -> Self {
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
    /// `ScenarioSpec::expand_n`), so `exp` preset loops and hunt sweeps built
    /// in code share one mechanism instead of hand-rolling `for n in`.
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

    /// Overrides the engine round cap.
    pub fn rounds_cap(mut self, cap: usize) -> Self {
        self.output.rounds_cap = Some(cap);
        self
    }

    /// The fully-derived network config for one trial.
    pub fn trial_net(&self, trial: u64) -> NetConfig {
        let mut cfg = self.net.clone();
        cfg.seed = self.seeds.seed(trial);
        cfg
    }

    /// Judges the spec's cross-field rules — the one place a combination
    /// of protocol, adversaries and knobs is accepted or refused, so a
    /// knob the run would silently drop is an error instead, and so is a
    /// gossip graph over all processors past 1 GiB (sized from the spec
    /// alone, before anything is built). Every trial entry point calls
    /// it, and so does `scenario::lower`. Which message
    /// adversary an engine-hosted protocol can field is its roster's
    /// answer, given when the trial resolves it.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".to_owned());
        }
        // The `.scn` parser says the same; `NetTransport::new` would panic.
        if self.net.delta == 0 {
            return Err("delta must be positive".to_owned());
        }
        let name = self.protocol.name();
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
        if let Some(degree) = self.gossip_degree() {
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
    /// builds, or `None` for a protocol that builds none.
    fn gossip_degree(&self) -> Option<usize> {
        let n = self.n;
        let root = |p: Params| p.aeba_degree.min(n - 1).max(1);
        match &self.protocol {
            Protocol::Aeba(aeba) => Some(aeba.degree.for_n(n)),
            // `Params::practical` needs n ≥ 4, and so do the executors.
            Protocol::Tournament(_) | Protocol::Everywhere if n < 4 => None,
            Protocol::Tournament(tuning) => Some(root(tuning.params(n))),
            Protocol::Everywhere => Some(root(EverywhereConfig::for_n(n).tournament.params)),
            _ => None,
        }
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
            .adversary(AdversarySpec::split(12).with_budget(20))
            .rounds_cap(50);
        assert_eq!(spec.n, 96);
        assert_eq!(spec.trials, 8);
        assert_eq!(spec.seeds.seed(3), 45);
        assert_eq!(spec.adversary.engine_budget(), Some(20));
        assert_eq!(spec.output.rounds_cap, Some(50));
        assert_eq!(spec.protocol.name(), "aeba");
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
        assert_eq!(
            AdversarySpec::crash(7).with_budget(3).engine_budget(),
            Some(3)
        );
    }

    #[test]
    fn degree_policies_scale() {
        assert_eq!(GossipDegree::SqrtTimes(6.0).for_n(100), 60);
        assert_eq!(GossipDegree::LogTimes(5.0).for_n(256), 40);
        // Clamped to n−1.
        assert_eq!(GossipDegree::SqrtTimes(100.0).for_n(16), 15);
    }
}
