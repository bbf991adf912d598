//! Composable fault injectors: message loss, partitions, crash-stop,
//! and node churn.
//!
//! Fault decisions are either pure functions of `(round, endpoint ids)`
//! (partitions, crashes, churn — no randomness, so they replay trivially)
//! or drawn from the transport's derived stream in emission order
//! (independent message drops).

use ba_sim::SimRng;
use rand::Rng;

/// Why a message never arrived (for statistics breakdowns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// Independent random loss on the link.
    Random,
    /// The message crossed an active partition cut.
    Partition,
}

/// A bidirectional network split: processors with id `< boundary` on one
/// side, the rest on the other. Messages crossing the cut during
/// `[from_round, heal_round)` are dropped; traffic within each side is
/// unaffected, and the cut heals (fully) at `heal_round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First processor id of the second group.
    pub boundary: usize,
    /// First round of the split (inclusive).
    pub from_round: usize,
    /// Round at which the split heals (exclusive end).
    pub heal_round: usize,
}

impl Partition {
    /// Whether this partition severs a `from → to` message sent in `round`.
    pub fn severs(&self, round: usize, from: usize, to: usize) -> bool {
        round >= self.from_round
            && round < self.heal_round
            && (from < self.boundary) != (to < self.boundary)
    }
}

/// A crash-stop fault: processor `proc` halts at the start of `round` and
/// never recovers. It executes no further round logic and whatever is
/// delivered to it afterwards is lost. (This is the *benign* failure
/// model; Byzantine takeover is the engine adversary's business.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crash {
    /// The crashing processor.
    pub proc: usize,
    /// The round it halts (inclusive).
    pub round: usize,
}

/// Periodic node churn: every processor cycles through a `period`-round
/// schedule and is offline for the last `down` rounds of its cycle.
/// `stagger` shifts each processor's cycle by `proc · stagger` rounds so
/// outages roll across the network instead of synchronizing.
///
/// Down windows are a pure function of `(round, proc)` — no randomness —
/// so churn replays identically per seed at any thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Churn {
    /// Cycle length in rounds.
    pub period: usize,
    /// Offline rounds at the end of each cycle.
    pub down: usize,
    /// Per-processor phase shift in rounds.
    pub stagger: usize,
}

impl Churn {
    /// Whether `proc` is churned out (offline) in `round`.
    pub fn is_down(&self, round: usize, proc: usize) -> bool {
        if self.period == 0 || self.down == 0 {
            return false;
        }
        let phase = (round + proc * self.stagger) % self.period;
        phase >= self.period.saturating_sub(self.down)
    }
}

/// The full fault configuration of one run. [`FaultPlan::default`] is the
/// fault-free network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Independent per-message drop probability (0.0 = lossless).
    pub drop_prob: f64,
    /// Scheduled partitions (may overlap).
    pub partitions: Vec<Partition>,
    /// Scheduled crash-stop faults.
    pub crashes: Vec<Crash>,
    /// Periodic churn, if any.
    pub churn: Option<Churn>,
}

impl FaultPlan {
    /// Whether anything in the plan can actually fire.
    pub fn is_trivial(&self) -> bool {
        self.is_lossless() && self.crashes.is_empty() && self.churn.is_none()
    }

    /// Whether the wire loses nothing: [`FaultPlan::dropped`] is `None`
    /// for every message (crashes and churn silence processors, not
    /// links).
    pub fn is_lossless(&self) -> bool {
        self.drop_prob <= 0.0 && self.partitions.is_empty()
    }

    /// Decides the fate of a `from → to` message sent in `round`.
    /// Deterministic checks run first; the random-drop draw is only taken
    /// when `drop_prob > 0`, so lossless plans consume no randomness.
    pub fn dropped(
        &self,
        round: usize,
        from: usize,
        to: usize,
        rng: &mut SimRng,
    ) -> Option<DropCause> {
        if self.partitions.iter().any(|p| p.severs(round, from, to)) {
            return Some(DropCause::Partition);
        }
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob.min(1.0)) {
            return Some(DropCause::Random);
        }
        None
    }

    /// The round `proc` crash-stops, if scheduled.
    pub fn crash_round(&self, proc: usize) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|c| c.proc == proc)
            .map(|c| c.round)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::derive_rng;

    #[test]
    fn partition_severs_only_cross_traffic_in_window() {
        let p = Partition {
            boundary: 4,
            from_round: 10,
            heal_round: 20,
        };
        assert!(p.severs(10, 0, 5));
        assert!(p.severs(19, 7, 3));
        assert!(!p.severs(9, 0, 5), "before the split");
        assert!(!p.severs(20, 0, 5), "after healing");
        assert!(!p.severs(15, 0, 3), "same side A");
        assert!(!p.severs(15, 5, 6), "same side B");
    }

    #[test]
    fn churn_windows_roll_with_stagger() {
        let c = Churn {
            period: 8,
            down: 2,
            stagger: 1,
        };
        // Processor 0: down in rounds 6, 7 (mod 8).
        assert!(!c.is_down(0, 0));
        assert!(!c.is_down(5, 0));
        assert!(c.is_down(6, 0));
        assert!(c.is_down(7, 0));
        assert!(!c.is_down(8, 0));
        // Processor 1 is shifted one round earlier.
        assert!(c.is_down(5, 1));
        assert!(c.is_down(6, 1));
        assert!(!c.is_down(7, 1));
        // Degenerate configs never fire.
        assert!(!Churn {
            period: 0,
            down: 2,
            stagger: 0
        }
        .is_down(3, 0));
        assert!(!Churn {
            period: 8,
            down: 0,
            stagger: 0
        }
        .is_down(7, 0));
    }

    #[test]
    fn lossless_plan_consumes_no_randomness() {
        let plan = FaultPlan::default();
        let mut rng = derive_rng(1, 0);
        let snapshot = rng.clone();
        for r in 0..10 {
            assert_eq!(plan.dropped(r, 0, 1, &mut rng), None);
        }
        use rand::RngCore;
        let mut snap = snapshot;
        assert_eq!(rng.next_u64(), snap.next_u64());
    }

    #[test]
    fn drop_prob_rate_tracks_config() {
        let plan = FaultPlan {
            drop_prob: 0.25,
            ..FaultPlan::default()
        };
        let mut rng = derive_rng(2, 0);
        let drops = (0..20_000)
            .filter(|_| plan.dropped(0, 0, 1, &mut rng).is_some())
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn partition_beats_random_drop_in_cause() {
        let plan = FaultPlan {
            drop_prob: 1.0,
            partitions: vec![Partition {
                boundary: 1,
                from_round: 0,
                heal_round: 100,
            }],
            ..FaultPlan::default()
        };
        let mut rng = derive_rng(3, 0);
        assert_eq!(plan.dropped(0, 0, 1, &mut rng), Some(DropCause::Partition));
        assert_eq!(plan.dropped(0, 1, 2, &mut rng), Some(DropCause::Random));
    }

    #[test]
    fn earliest_crash_wins() {
        let plan = FaultPlan {
            crashes: vec![
                Crash { proc: 3, round: 9 },
                Crash { proc: 3, round: 4 },
                Crash { proc: 5, round: 2 },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crash_round(3), Some(4));
        assert_eq!(plan.crash_round(5), Some(2));
        assert_eq!(plan.crash_round(0), None);
        assert!(!plan.is_trivial());
        assert!(FaultPlan::default().is_trivial());
    }
}
