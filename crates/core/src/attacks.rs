//! Adversary strategy library (experiments E4, E7, E12).
//!
//! The paper's central claim is resilience to an *adaptive* adversary —
//! one that picks its victims mid-protocol, after seeing where the
//! protocol concentrates trust. These strategies exercise exactly that:
//!
//! * [`StaticThird`] — the non-adaptive baseline: grab `(1/3 − ε)n`
//!   processors before the protocol starts.
//! * [`WinnerHunter`] — the attack that kills election-of-*processors*
//!   protocols (§1.3: "the adversary … can simply wait until a small set
//!   is elected and then take over all processors in that set"): corrupt
//!   the owners of surviving candidate arrays as they advance. Against
//!   King–Saia it is futile — the arrays' words are already dealt and the
//!   owner's later corruption reveals nothing.
//! * [`CustodyBuster`] — the correct adaptive play against King–Saia:
//!   concentrate the budget on the *committee members currently holding*
//!   the finalists' shares, racing the `t = 1/2` reconstruction
//!   threshold. Iterated sharing grows the custodian set each level, so
//!   the race is lost for all but tiny committees.
//! * [`SplitVoter`] / [`ResponseForger`] / [`Overloader`] — engine-level
//!   adversaries for the message-level protocols (Algorithm 5 vote
//!   splitting, Algorithm 3 response forgery and request flooding).

use crate::ae_to_e::{AeMsg, AeToEProcess};
use crate::aeba::{AebaProcess, CommitteeAttack, VoteMsg};
use crate::tournament::{PhaseKind, TreeAdversary, TreeView};
use ba_sim::{AdvAction, AdvView, Adversary, Envelope, ProcId, SimRng};
use ba_topology::NodeAddr;
use rand::Rng;

// ---------------------------------------------------------------------------
// Tree (tournament) adversaries
// ---------------------------------------------------------------------------

/// `k` *distinct* targets spread over the id space `0..n` (contiguous
/// prefixes would cluster in leaf committees and waste budget on
/// overlap). The stride is the smallest value ≥ 7 coprime to `n`, so
/// the walk visits every id before repeating — a fixed stride of 7
/// would collapse to `n/gcd(7, n)` ids whenever `7 | n`.
fn spread_targets(k: usize, n: usize) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let stride = (7..).find(|&s| gcd(s, n) == 1).unwrap_or(1);
    (0..k.min(n)).map(|i| (i * stride + 3) % n).collect()
}

/// Non-adaptive: corrupts the full budget at the deal, nothing after.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticThird {
    /// Committee behaviour of the corrupted members.
    pub attack: CommitteeAttack,
}

impl TreeAdversary for StaticThird {
    fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize> {
        if phase == PhaseKind::Deal {
            spread_targets(view.budget_left, view.corrupt.len())
        } else {
            Vec::new()
        }
    }

    fn committee_attack(&self) -> CommitteeAttack {
        self.attack
    }
}

/// Non-adaptive like [`StaticThird`], but at an arbitrary corruption
/// fraction of the population (clamped to the budget): the sweep knob
/// experiment E3 turns to find where the `1/3 − ε` guarantee dies.
#[derive(Clone, Copy, Debug)]
pub struct StaticFraction {
    /// Fraction of processors corrupted at the deal.
    pub frac: f64,
    /// Committee behaviour of the corrupted members.
    pub attack: CommitteeAttack,
}

impl TreeAdversary for StaticFraction {
    fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize> {
        if phase == PhaseKind::Deal {
            let n = view.corrupt.len();
            let k = ((n as f64) * self.frac.clamp(0.0, 1.0)) as usize;
            spread_targets(k, n)
        } else {
            Vec::new()
        }
    }

    fn committee_attack(&self) -> CommitteeAttack {
        self.attack
    }
}

/// Adaptive: corrupts the owners of arrays still alive at each level —
/// the strategy that defeats processor-election protocols and provably
/// does not defeat array elections.
#[derive(Clone, Copy, Debug, Default)]
pub struct WinnerHunter;

impl TreeAdversary for WinnerHunter {
    fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize> {
        if phase != PhaseKind::Expose && phase != PhaseKind::RootAgreement {
            return Vec::new();
        }
        // Owners of surviving candidates, fewest-candidates nodes first
        // (cheapest elections to dominate).
        let mut nodes: Vec<&Vec<usize>> = view.candidates_by_node.iter().collect();
        nodes.sort_by_key(|c| c.len());
        let mut targets = Vec::new();
        for owners in nodes {
            for &o in owners {
                if !view.corrupt[o] {
                    targets.push(o);
                    if targets.len() >= view.budget_left {
                        return targets;
                    }
                }
            }
        }
        targets
    }
}

/// Adaptive: spends the budget corrupting the committee members that
/// currently hold the surviving arrays' shares, trying to cross the
/// reconstruction threshold in one committee before the shares are
/// re-shared upward.
#[derive(Clone, Copy, Debug, Default)]
pub struct CustodyBuster {
    /// Spend at most this fraction of the remaining budget per level
    /// (1.0 = all-in on the first opportunity).
    pub aggressiveness: f64,
}

impl CustodyBuster {
    /// All-in variant.
    pub fn all_in() -> Self {
        CustodyBuster {
            aggressiveness: 1.0,
        }
    }
}

impl TreeAdversary for CustodyBuster {
    fn corrupt(&mut self, phase: PhaseKind, view: &TreeView<'_>) -> Vec<usize> {
        if phase != PhaseKind::Expose || view.level < 2 {
            return Vec::new();
        }
        // Target the node holding the most candidates: corrupting a
        // majority of its members compromises every array it holds.
        let Some((node, _)) = view
            .candidates_by_node
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.len())
        else {
            return Vec::new();
        };
        let members = view.tree.members(NodeAddr::new(view.level, node));
        let spend =
            ((view.budget_left as f64) * self.aggressiveness.clamp(0.0, 1.0)).floor() as usize;
        members
            .iter()
            .map(|&m| m as usize)
            .filter(|&m| !view.corrupt[m])
            .take(spend)
            .collect()
    }

    fn committee_attack(&self) -> CommitteeAttack {
        CommitteeAttack::Oppose
    }
}

// ---------------------------------------------------------------------------
// Engine-level adversaries (message-level protocols)
// ---------------------------------------------------------------------------

/// Algorithm 5 attack: corrupts `budget` processors at round 0 and has
/// each of them tell every neighbor-of-record a vote chosen to prolong
/// disagreement (alternating by recipient id — the classic split).
#[derive(Clone, Copy, Debug)]
pub struct SplitVoter {
    /// Processors to corrupt at round 0.
    pub count: usize,
}

impl Adversary<AebaProcess> for SplitVoter {
    fn act(&mut self, view: &AdvView<'_, AebaProcess>, _rng: &mut SimRng) -> AdvAction<VoteMsg> {
        let mut action = AdvAction::none();
        if view.round() == 0 {
            action.corrupt = (0..self.count.min(view.n())).map(ProcId::new).collect();
            action.drop_pending_from = action.corrupt.clone();
        }
        // Every round: corrupted processors send alternating votes to all.
        for c in view.corrupt_iter() {
            for to in 0..view.n() {
                action
                    .inject
                    .push(Envelope::new(c, ProcId::new(to), VoteMsg(to % 2 == 0)));
            }
        }
        if view.round() == 0 {
            // Round-0 targets are not yet corrupt when `inject` is
            // validated, so also emit for the processors being corrupted
            // this round.
            for &c in &action.corrupt {
                for to in 0..view.n() {
                    action
                        .inject
                        .push(Envelope::new(c, ProcId::new(to), VoteMsg(to % 2 == 0)));
                }
            }
        }
        action
    }
}

/// Algorithm 3 attack: corrupts `count` processors at round 0; each
/// corrupted processor answers *every* request it sees with a forged
/// message, trying to push confused processors to a wrong decision.
///
/// A forgery leaves one round after the request it answers — the round
/// honest answers leave in — so on a synchronous network it reaches the
/// requester's tally beside them. (Sent in the request round itself it
/// would arrive in the answer round, where nobody reads responses.)
#[derive(Clone, Debug)]
pub struct ResponseForger {
    count: usize,
    fake: u64,
    /// Forged answers to the requests intercepted last round.
    held: Vec<Envelope<AeMsg>>,
}

impl ResponseForger {
    /// Corrupts processors `0..count` at round 0 and forges `fake`.
    pub fn new(count: usize, fake: u64) -> Self {
        ResponseForger {
            count,
            fake,
            held: Vec::new(),
        }
    }
}

impl Adversary<AeToEProcess> for ResponseForger {
    fn act(&mut self, view: &AdvView<'_, AeToEProcess>, _rng: &mut SimRng) -> AdvAction<AeMsg> {
        let mut action = AdvAction::none();
        if view.round() == 0 {
            action.corrupt = (0..self.count.min(view.n())).map(ProcId::new).collect();
        }
        action.inject = std::mem::take(&mut self.held);
        // Answer every intercepted request next round, echoing its label
        // with the forged value.
        for e in view.intercepted() {
            if let AeMsg::Request { label } = e.payload {
                if view.is_corrupt(e.to) {
                    let value = self.fake;
                    let forged = AeMsg::Response { label, value };
                    self.held.push(Envelope::new(e.to, e.from, forged));
                }
            }
        }
        action
    }
}

/// Algorithm 3 attack: corrupted processors flood every processor with
/// requests on every label, trying to push knowledgeable responders over
/// the overload cap so they answer nobody (a denial-of-progress attempt
/// that Lemma 9 bounds).
#[derive(Clone, Copy, Debug)]
pub struct Overloader {
    /// Processors to corrupt at round 0.
    pub count: usize,
    /// Labels to flood (the adversary does not know `k`, so it sprays).
    pub labels: usize,
    /// Copies of each (label, target) request per round.
    pub copies: usize,
}

impl Adversary<AeToEProcess> for Overloader {
    fn act(&mut self, view: &AdvView<'_, AeToEProcess>, rng: &mut SimRng) -> AdvAction<AeMsg> {
        let mut action = AdvAction::none();
        if view.round() == 0 {
            action.corrupt = (0..self.count.min(view.n())).map(ProcId::new).collect();
        }
        for c in view.corrupt_iter() {
            for _ in 0..self.copies {
                let to = ProcId::new(rng.gen_range(0..view.n()));
                let label = rng.gen_range(0..self.labels.max(1)) as u16;
                action
                    .inject
                    .push(Envelope::new(c, to, AeMsg::Request { label }));
            }
        }
        action
    }
}

/// Algorithm 3 attack: the adversary *guesses* the loop's global label
/// and pours its entire flooding budget into overloading that one label.
/// A correct guess (probability `1/√n` per loop — the whole point of the
/// `√n` label space) silences that loop; wrong guesses waste the round.
/// Compare [`Overloader`], which sprays all labels thinly.
#[derive(Clone, Copy, Debug)]
pub struct LabelGuesser {
    /// Processors to corrupt at round 0.
    pub count: usize,
    /// Size of the label space being guessed over.
    pub labels: usize,
    /// Requests per corrupted processor per round, all on the guess.
    pub copies: usize,
}

impl Adversary<AeToEProcess> for LabelGuesser {
    fn act(&mut self, view: &AdvView<'_, AeToEProcess>, rng: &mut SimRng) -> AdvAction<AeMsg> {
        let mut action = AdvAction::none();
        if view.round() == 0 {
            action.corrupt = (0..self.count.min(view.n())).map(ProcId::new).collect();
        }
        // One fresh guess per loop (request rounds are even).
        let guess = rng.gen_range(0..self.labels.max(1)) as u16;
        for c in view.corrupt_iter() {
            for _ in 0..self.copies {
                let to = ProcId::new(rng.gen_range(0..view.n()));
                action
                    .inject
                    .push(Envelope::new(c, to, AeMsg::Request { label: guess }));
            }
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ae_to_e::{AeToEConfig, AeToEOutcome};
    use crate::aeba::{AebaConfig, UnreliableCoin};
    use crate::tournament::{self, TournamentConfig};
    use ba_sampler::RegularGraph;
    use ba_sim::SimBuilder;
    use rand::SeedableRng;
    use std::sync::Arc;

    const M: u64 = 77;

    #[test]
    fn winner_hunter_fails_against_arrays() {
        // The headline adaptive-security property: corrupting array owners
        // after dealing does not flip the outcome.
        let n = 128;
        let config = TournamentConfig::for_n(n).with_seed(21);
        let out = tournament::run(&config, &vec![true; n], &mut WinnerHunter);
        assert!(out.valid);
        assert!(
            out.agreement_fraction > 0.8,
            "agreement {} under WinnerHunter",
            out.agreement_fraction
        );
    }

    #[test]
    fn spread_targets_are_distinct_even_when_seven_divides_n() {
        // A fixed stride of 7 used to collapse to n/gcd(7, n) ids.
        for n in [63usize, 70, 77, 128] {
            for k in [n / 3, n / 2] {
                let targets = super::spread_targets(k, n);
                let distinct: std::collections::HashSet<usize> = targets.iter().copied().collect();
                assert_eq!(distinct.len(), k, "n={n} k={k}: {targets:?}");
                assert!(targets.iter().all(|&t| t < n));
            }
        }
    }

    #[test]
    fn static_third_spread_is_within_budget() {
        let n = 128;
        let config = TournamentConfig::for_n(n).with_seed(22);
        let out = tournament::run(
            &config,
            &vec![true; n],
            &mut StaticThird {
                attack: CommitteeAttack::Oppose,
            },
        );
        let corrupted = out.corrupt.iter().filter(|&&c| c).count();
        assert!(corrupted <= config.params.corruption_budget());
        assert!(out.valid);
    }

    #[test]
    fn custody_buster_compromises_some_arrays_but_not_agreement() {
        let n = 128;
        let config = TournamentConfig::for_n(n).with_seed(23);
        let out = tournament::run(&config, &vec![true; n], &mut CustodyBuster::all_in());
        // It may compromise arrays at one node, but validity holds.
        assert!(out.valid);
        assert!(
            out.agreement_fraction > 0.7,
            "agreement {} under CustodyBuster",
            out.agreement_fraction
        );
    }

    #[test]
    fn split_voter_slows_but_does_not_break_aeba() {
        let n = 120;
        let mut grng = rand_chacha::ChaCha12Rng::seed_from_u64(3);
        let degree = (6.0 * (n as f64).sqrt()).ceil() as usize;
        let g = Arc::new(RegularGraph::random_out_degree(n, degree, &mut grng));
        let coin = Arc::new(UnreliableCoin::generate(40, 0.8, 0.02, 5));
        let cfg = AebaConfig {
            rounds: 40,
            ..AebaConfig::default()
        };
        let outcome = SimBuilder::new(n)
            .seed(9)
            .max_corruptions(n / 4)
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
                SplitVoter { count: n / 4 },
            )
            .run(cfg.rounds + 2);
        assert!(
            outcome.good_agreement_fraction() > 0.85,
            "agreement {}",
            outcome.good_agreement_fraction()
        );
    }

    #[test]
    fn response_forger_cannot_flip_decisions() {
        // Corrupt responders lie, but the threshold needs a majority of
        // the per-label sample: no good processor decides the fake value.
        let n = 144;
        let cfg = AeToEConfig::for_n(n, 0.1);
        let rounds = cfg.total_rounds();
        let cutoff = (n as f64 * 0.66) as usize;
        let outcome = SimBuilder::new(n)
            .seed(10)
            .max_corruptions(n / 5)
            .build(
                |p, _| {
                    let k = (p.index() < cutoff).then_some(M);
                    AeToEProcess::new(cfg.clone(), k)
                },
                ResponseForger::new(n / 5, 666),
            )
            .run(rounds + 1);
        let tally = AeToEOutcome::from_outputs(&outcome.outputs, &outcome.corrupt, M);
        assert_eq!(tally.wrong, 0, "forged decisions: {tally:?}");
        assert!(
            tally.agreed > (outcome.good_count() * 9) / 10,
            "agreed {} of {}",
            tally.agreed,
            outcome.good_count()
        );
    }

    #[test]
    fn label_guesser_cannot_beat_sqrt_n_label_space() {
        // Concentrated overloading hits the right label only 1/√n of the
        // loops; Θ(log n) loops still spread M to everyone.
        let n = 100;
        let cfg = AeToEConfig::for_n(n, 0.1);
        let rounds = cfg.total_rounds();
        let cutoff = (n as f64 * 0.7) as usize;
        let outcome = SimBuilder::new(n)
            .seed(12)
            .max_corruptions(n / 5)
            .flood_cap(2_000_000)
            .build(
                |p, _| {
                    let k = (p.index() < cutoff).then_some(M);
                    AeToEProcess::new(cfg.clone(), k)
                },
                LabelGuesser {
                    count: n / 5,
                    labels: cfg.labels,
                    copies: 600,
                },
            )
            .run(rounds + 1);
        let tally = AeToEOutcome::from_outputs(&outcome.outputs, &outcome.corrupt, M);
        assert_eq!(tally.wrong, 0);
        assert!(
            tally.agreed * 10 > outcome.good_count() * 9,
            "agreed {} of {} under label guessing",
            tally.agreed,
            outcome.good_count()
        );
    }

    #[test]
    fn overloader_bounded_by_lemma9() {
        // Flooding can silence some responders (overload), but Θ(log n)
        // loops with fresh random labels still spread M to almost all.
        let n = 100;
        let cfg = AeToEConfig::for_n(n, 0.1);
        let rounds = cfg.total_rounds();
        let cutoff = (n as f64 * 0.7) as usize;
        let outcome = SimBuilder::new(n)
            .seed(11)
            .max_corruptions(n / 5)
            .flood_cap(1_000_000)
            .build(
                |p, _| {
                    let k = (p.index() < cutoff).then_some(M);
                    AeToEProcess::new(cfg.clone(), k)
                },
                Overloader {
                    count: n / 5,
                    labels: cfg.labels,
                    copies: 400,
                },
            )
            .run(rounds + 1);
        let tally = AeToEOutcome::from_outputs(&outcome.outputs, &outcome.corrupt, M);
        assert_eq!(tally.wrong, 0);
        assert!(
            tally.agreed + tally.undecided == outcome.good_count(),
            "tally accounting"
        );
        assert!(
            tally.agreed > outcome.good_count() / 2,
            "agreed {} of {} under flooding",
            tally.agreed,
            outcome.good_count()
        );
    }
}
