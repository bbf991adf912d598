//! The phase ledger: a run's network counters and the phase timetable
//! they are bucketed by, in one place.
//!
//! Every transport counts through a [`PhaseLedger`] — [`NetTransport`]
//! in process, `ba-serve`'s `SocketTransport` over a socket — so an
//! envelope's sending round maps to one bucket by one rule, whichever
//! carrier it travelled on.
//!
//! The timetable is a list of marks, `(name, start round)`. A configured
//! [`Schedule`] becomes marks once, at construction: one per phase, then
//! the `"(past-schedule)"` catch-all at the schedule's total length; the
//! executor's announcements are then ignored. Without one, each
//! announcement of a new name is a mark. Either way a round's bucket is
//! the last mark starting at or before it. A zero-length phase shares its
//! start with the next mark and so is never chosen, exactly as
//! [`Schedule::locate`] skips it.
//!
//! [`NetTransport`]: crate::NetTransport
//! [`Schedule`]: ba_sim::Schedule
//! [`Schedule::locate`]: ba_sim::Schedule::locate

use crate::fault::DropCause;
use crate::transport::NetConfig;

/// Network counters for one phase of the sending timetable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseNetStats {
    /// Phase name (from the [`Schedule`](ba_sim::Schedule); the trailing
    /// catch-all bucket for rounds past the timetable is named
    /// `"(past-schedule)"`).
    pub name: String,
    /// Envelopes handed to the transport during this phase.
    pub sent: u64,
    /// Payload bits handed to the transport during this phase (counted
    /// before drop decisions, like the engine's send charges, so phase
    /// bit totals sum to the run's sent-bit total).
    pub sent_bits: u64,
    /// Envelopes delivered (whenever they arrived).
    pub delivered: u64,
    /// Envelopes delivered after their round deadline.
    pub late: u64,
    /// Total rounds of lateness over all late envelopes.
    pub late_rounds: u64,
    /// Envelopes lost to random link drops.
    pub dropped_random: u64,
    /// Envelopes lost to partition cuts.
    pub dropped_partition: u64,
    /// Envelopes delivered to an offline (crashed / churned-out)
    /// recipient, keyed — like every other counter — by the phase of the
    /// *sending* round.
    pub dead_letters: u64,
}

/// Aggregate network statistics for one run.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Envelopes handed to the transport (post-adversary).
    pub sent: u64,
    /// Envelopes delivered to an inbox.
    pub delivered: u64,
    /// Envelopes delivered after their round deadline.
    pub late: u64,
    /// Total rounds of lateness over all late envelopes.
    pub late_rounds: u64,
    /// Envelopes lost to random link drops.
    pub dropped_random: u64,
    /// Envelopes lost to partition cuts.
    pub dropped_partition: u64,
    /// Envelopes delivered to a processor that was offline (crashed or
    /// churned out) in the delivery round: the wire carried them, but
    /// the recipient never processed them.
    pub dead_letters: u64,
    /// Envelopes still in flight when the run ended.
    pub in_flight_at_end: u64,
    /// Per-phase breakdown, one bucket per mark of the [`PhaseLedger`]
    /// timetable (a configured [`Schedule`](ba_sim::Schedule)'s phases in
    /// order, then the catch-all; otherwise the announced phases).
    pub per_phase: Vec<PhaseNetStats>,
}

impl NetStats {
    /// Total envelopes lost to faults.
    pub fn dropped(&self) -> u64 {
        self.dropped_random + self.dropped_partition
    }

    /// Fraction of sent envelopes lost to faults (0.0 when nothing sent).
    /// Dead letters count as lost: they reached a dead recipient.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            (self.dropped() + self.dead_letters) as f64 / self.sent as f64
        }
    }

    /// Fraction of delivered envelopes that missed their deadline.
    pub fn late_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.late as f64 / self.delivered as f64
        }
    }

    /// Adds another run's counters to these. Buckets add by position; a
    /// sum without buckets yet takes `other`'s whole.
    pub fn accumulate(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.late += other.late;
        self.late_rounds += other.late_rounds;
        self.dropped_random += other.dropped_random;
        self.dropped_partition += other.dropped_partition;
        self.dead_letters += other.dead_letters;
        self.in_flight_at_end += other.in_flight_at_end;
        if self.per_phase.is_empty() {
            self.per_phase = other.per_phase.clone();
            return;
        }
        for (a, p) in self.per_phase.iter_mut().zip(&other.per_phase) {
            a.sent += p.sent;
            a.sent_bits += p.sent_bits;
            a.delivered += p.delivered;
            a.late += p.late;
            a.late_rounds += p.late_rounds;
            a.dropped_random += p.dropped_random;
            a.dropped_partition += p.dropped_partition;
            a.dead_letters += p.dead_letters;
        }
    }
}

/// A run's [`NetStats`] and the phase timetable its buckets follow (see
/// the module docs). Counting consumes no randomness and never touches
/// delivery.
#[derive(Debug)]
pub struct PhaseLedger {
    stats: NetStats,
    /// The start round of each bucket of `stats.per_phase`, in order.
    starts: Vec<usize>,
    /// Whether the marks came from a configured schedule.
    scheduled: bool,
}

impl PhaseLedger {
    /// An empty ledger; `cfg`'s schedule, when it carries one, is its
    /// whole timetable.
    pub fn new(cfg: &NetConfig) -> Self {
        let mut ledger = PhaseLedger {
            stats: NetStats::default(),
            starts: Vec::new(),
            scheduled: false,
        };
        if let Some(schedule) = &cfg.schedule {
            for phase in schedule.iter() {
                ledger.open(phase.start, &phase.name);
            }
            ledger.open(schedule.total_rounds(), "(past-schedule)");
            ledger.scheduled = true;
        }
        ledger
    }

    fn open(&mut self, start: usize, name: &str) {
        self.starts.push(start);
        self.stats.per_phase.push(PhaseNetStats {
            name: name.to_owned(),
            ..PhaseNetStats::default()
        });
    }

    /// The index into [`NetStats::per_phase`] of the bucket for a sending
    /// round: the last mark at or before it (`None` before the first).
    pub fn bucket(&self, sent_round: usize) -> Option<usize> {
        self.starts
            .partition_point(|&start| start <= sent_round)
            .checked_sub(1)
    }

    fn phase(&mut self, sent_round: usize) -> Option<&mut PhaseNetStats> {
        let b = self.bucket(sent_round)?;
        Some(&mut self.stats.per_phase[b])
    }

    /// The executor announces phase `name` at `round`: a new name opens a
    /// bucket there, a repeat of the running one coalesces (so a
    /// per-round coin exchange stays one phase), and with a configured
    /// schedule nothing changes. Returns whether a phase opened, for the
    /// caller's `net:phase` event.
    pub fn mark(&mut self, round: usize, name: &str) -> bool {
        if self.scheduled || self.stats.per_phase.last().is_some_and(|p| p.name == name) {
            return false;
        }
        self.open(round, name);
        true
    }

    /// `count` envelopes of `bits` in all enter the wire in `round`.
    pub fn sent(&mut self, round: usize, count: u64, bits: u64) {
        self.stats.sent += count;
        if let Some(b) = self.phase(round) {
            b.sent += count;
            b.sent_bits += bits;
        }
    }

    /// One envelope sent in `round` is lost on the wire.
    pub fn dropped(&mut self, round: usize, cause: DropCause) {
        let b = self.bucket(round).map(|b| &mut self.stats.per_phase[b]);
        match cause {
            DropCause::Random => {
                self.stats.dropped_random += 1;
                if let Some(b) = b {
                    b.dropped_random += 1;
                }
            }
            DropCause::Partition => {
                self.stats.dropped_partition += 1;
                if let Some(b) = b {
                    b.dropped_partition += 1;
                }
            }
        }
    }

    /// `count` envelopes sent in `sent_round` are delivered in `round`,
    /// `dead` of them to an offline recipient; those after round
    /// `sent_round + 1` are late.
    pub fn delivered(&mut self, round: usize, sent_round: usize, count: u64, dead: u64) {
        let lateness = round.saturating_sub(sent_round + 1) as u64;
        let late = if lateness > 0 { count } else { 0 };
        let s = &mut self.stats;
        s.delivered += count;
        s.dead_letters += dead;
        s.late += late;
        s.late_rounds += lateness * late;
        if let Some(b) = self.phase(sent_round) {
            b.delivered += count;
            b.dead_letters += dead;
            b.late += late;
            b.late_rounds += lateness * late;
        }
    }

    /// The timetable as `(name, start_round)` pairs, one per bucket —
    /// what `ba_sim::Metrics::phase_bits` attributes bits by.
    pub fn phase_marks(&self) -> Vec<(String, usize)> {
        let names = self.stats.per_phase.iter().map(|p| p.name.clone());
        names.zip(self.starts.iter().copied()).collect()
    }

    /// The counters so far ([`NetStats::in_flight_at_end`] is 0 until
    /// [`PhaseLedger::into_stats`]).
    pub(crate) fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The final counters: whatever was sent and neither dropped nor
    /// delivered was still in flight.
    pub fn into_stats(mut self) -> NetStats {
        let s = &mut self.stats;
        s.in_flight_at_end = s.sent - s.dropped() - s.delivered;
        self.stats
    }
}
