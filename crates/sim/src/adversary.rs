//! The adversary interface: adaptive, rushing, malicious, flooding.

use crate::ids::ProcId;
use crate::message::Envelope;
use crate::process::Process;
use crate::rng::SimRng;

/// What the adversary sees when it acts in a round (after the good
/// processors have emitted their messages — *rushing*).
///
/// Private channels (§1.1) are enforced here: messages between two good
/// processors are absent from [`AdvView::intercepted`], and the view
/// carries no processor's internal state. A takeover shows in what the
/// corrupted processor sends and receives from then on, not in its memory.
pub struct AdvView<'a, P: Process> {
    pub(crate) round: usize,
    pub(crate) n: usize,
    pub(crate) corrupt: &'a [bool],
    pub(crate) intercepted: &'a [Envelope<P::Msg>],
}

impl<'a, P: Process> AdvView<'a, P> {
    /// The current round.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Total number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether processor `p` is currently corrupted.
    pub fn is_corrupt(&self, p: ProcId) -> bool {
        self.corrupt[p.index()]
    }

    /// Iterates over the ids of all currently corrupted processors, in id
    /// order, without allocating.
    pub fn corrupt_iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.corrupt
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| ProcId::new(i))
    }

    /// Messages emitted *this round* whose sender or recipient is corrupt.
    /// This is the full rushing advantage: the adversary reads these before
    /// composing its own round-`r` messages.
    pub fn intercepted(&self) -> &[Envelope<P::Msg>] {
        self.intercepted
    }
}

/// What the adversary does in a round.
#[derive(Clone, Debug)]
pub struct AdvAction<M> {
    /// Processors to corrupt *now* (adaptive takeover). Silently truncated
    /// to the remaining budget by the engine, in order.
    pub corrupt: Vec<ProcId>,
    /// Suppress the messages already emitted this round by these processors
    /// (only honored for processors corrupted in this very action: a
    /// takeover mid-round catches the machine before its packets leave).
    pub drop_pending_from: Vec<ProcId>,
    /// Messages to inject this round. Envelopes whose `from` is not corrupt
    /// (after applying `corrupt`) are discarded: channels authenticate
    /// senders. No limit on count — flooding is allowed.
    pub inject: Vec<Envelope<M>>,
}

impl<M> Default for AdvAction<M> {
    fn default() -> Self {
        AdvAction {
            corrupt: Vec::new(),
            drop_pending_from: Vec::new(),
            inject: Vec::new(),
        }
    }
}

impl<M> AdvAction<M> {
    /// The do-nothing action.
    pub fn none() -> Self {
        Self::default()
    }
}

/// A Byzantine adversary strategy.
///
/// The engine calls [`Adversary::act`] once per round, after good
/// processors have produced their messages (rushing) and before delivery.
/// Implementations decide whom to corrupt (adaptive) and what the corrupted
/// processors say (malicious, flooding).
pub trait Adversary<P: Process> {
    /// Decide this round's corruptions and injected traffic.
    fn act(&mut self, view: &AdvView<'_, P>, rng: &mut SimRng) -> AdvAction<P::Msg>;
}

impl<P: Process, A: Adversary<P> + ?Sized> Adversary<P> for Box<A> {
    fn act(&mut self, view: &AdvView<'_, P>, rng: &mut SimRng) -> AdvAction<P::Msg> {
        (**self).act(view, rng)
    }
}

/// An adversary that corrupts no one and sends nothing.
///
/// ```rust
/// use ba_sim::NullAdversary;
/// let _a = NullAdversary; // unit struct, no configuration
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct NullAdversary;

impl<P: Process> Adversary<P> for NullAdversary {
    fn act(&mut self, _view: &AdvView<'_, P>, _rng: &mut SimRng) -> AdvAction<P::Msg> {
        AdvAction::none()
    }
}

/// A non-adaptive adversary that corrupts a fixed set at round 0 and then
/// stays silent (pure crash faults). Useful as the weakest baseline fault
/// model and for tests.
#[derive(Clone, Debug, Default)]
pub struct StaticAdversary {
    targets: Vec<ProcId>,
}

impl StaticAdversary {
    /// Crash-faults the first `k` processors.
    pub fn first_k(k: usize) -> Self {
        StaticAdversary {
            targets: (0..k).map(ProcId::new).collect(),
        }
    }
}

impl<P: Process> Adversary<P> for StaticAdversary {
    fn act(&mut self, view: &AdvView<'_, P>, _rng: &mut SimRng) -> AdvAction<P::Msg> {
        if view.round() == 0 {
            AdvAction {
                corrupt: self.targets.clone(),
                drop_pending_from: self.targets.clone(),
                inject: Vec::new(),
            }
        } else {
            AdvAction::none()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::RoundCtx;

    struct Dummy;
    impl Process for Dummy {
        type Msg = bool;
        type Output = ();
        fn on_round(&mut self, _ctx: &mut RoundCtx<'_, bool>, _inbox: &[Envelope<bool>]) {}
        fn output(&self) -> Option<()> {
            None
        }
    }

    fn view<'a>(corrupt: &'a [bool], intercepted: &'a [Envelope<bool>]) -> AdvView<'a, Dummy> {
        AdvView {
            round: 0,
            n: corrupt.len(),
            corrupt,
            intercepted,
        }
    }

    #[test]
    fn static_adversary_only_acts_in_round_zero() {
        let corrupt = vec![false, false];
        let mut a = StaticAdversary::first_k(1);
        let mut rng = crate::rng::derive_rng(0, 0);
        let v0 = view(&corrupt, &[]);
        let act0 = <StaticAdversary as Adversary<Dummy>>::act(&mut a, &v0, &mut rng);
        assert_eq!(act0.corrupt, vec![ProcId::new(0)]);
        let mut v1 = view(&corrupt, &[]);
        v1.round = 1;
        let act1 = <StaticAdversary as Adversary<Dummy>>::act(&mut a, &v1, &mut rng);
        assert!(act1.corrupt.is_empty());
    }
}
