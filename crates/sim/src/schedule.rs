//! Round schedules for composed synchronous protocols.
//!
//! The King–Saia protocol composes many sub-protocols (share-up, expose,
//! per-candidate agreement, winner forwarding, per level; then the
//! almost-everywhere-to-everywhere loop). In a synchronous model the whole
//! timetable is common knowledge, so each processor derives "which phase am
//! I in and what is my offset into it" from the global round number alone.
//! [`Schedule`] centralizes that arithmetic.

/// A named contiguous span of rounds within a protocol timetable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Human-readable phase label (used in metrics breakdowns).
    pub name: String,
    /// First round of the phase (inclusive).
    pub start: usize,
    /// Number of rounds in the phase.
    pub len: usize,
}

impl Phase {
    /// Round after the last round of this phase.
    pub(crate) fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether `round` falls inside this phase.
    pub fn contains(&self, round: usize) -> bool {
        round >= self.start && round < self.end()
    }
}

/// An ordered, gap-free timetable of [`Phase`]s built by appending.
///
/// ```rust
/// use ba_sim::Schedule;
/// let mut s = Schedule::new();
/// let share = s.push("share", 2);
/// let agree = s.push("agree", 5);
/// assert_eq!(s.phase(share).start, 0);
/// assert_eq!(s.phase(agree).start, 2);
/// assert_eq!(s.total_rounds(), 7);
/// assert_eq!(s.locate(3), Some((agree, 1))); // round 3 = agree, offset 1
/// assert_eq!(s.locate(7), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    phases: Vec<Phase>,
}

/// Index of a phase within a [`Schedule`].
pub type PhaseId = usize;

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule { phases: Vec::new() }
    }

    /// Appends a phase of `len` rounds; returns its id.
    pub fn push(&mut self, name: &str, len: usize) -> PhaseId {
        let start = self.total_rounds();
        self.phases.push(Phase {
            name: name.to_owned(),
            start,
            len,
        });
        self.phases.len() - 1
    }

    /// The phase with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn phase(&self, id: PhaseId) -> &Phase {
        &self.phases[id]
    }

    /// Total number of rounds across all phases.
    pub fn total_rounds(&self) -> usize {
        self.phases.last().map_or(0, Phase::end)
    }

    /// Maps a global round to `(phase id, offset within phase)`, or `None`
    /// past the end of the timetable.
    pub fn locate(&self, round: usize) -> Option<(PhaseId, usize)> {
        // Phases are sorted by start; binary search the containing one.
        let idx = self.phases.partition_point(|p| p.end() <= round);
        let p = self.phases.get(idx)?;
        p.contains(round).then(|| (idx, round - p.start))
    }

    /// Iterates over the phases in order.
    pub fn iter(&self) -> impl Iterator<Item = &Phase> {
        self.phases.iter()
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the schedule has no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_locate() {
        let mut s = Schedule::new();
        let a = s.push("a", 3);
        let b = s.push("b", 1);
        let c = s.push("c", 2);
        assert_eq!(s.total_rounds(), 6);
        assert_eq!(s.locate(0), Some((a, 0)));
        assert_eq!(s.locate(2), Some((a, 2)));
        assert_eq!(s.locate(3), Some((b, 0)));
        assert_eq!(s.locate(4), Some((c, 0)));
        assert_eq!(s.locate(5), Some((c, 1)));
        assert_eq!(s.locate(6), None);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn zero_length_phase_is_skipped_by_locate() {
        let mut s = Schedule::new();
        let a = s.push("a", 0);
        let b = s.push("b", 2);
        assert_eq!(s.phase(a).len, 0);
        assert_eq!(s.locate(0), Some((b, 0)));
        assert_eq!(s.total_rounds(), 2);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.total_rounds(), 0);
        assert_eq!(s.locate(0), None);
    }

    #[test]
    fn phase_names_preserved() {
        let mut s = Schedule::new();
        s.push("expose bins", 4);
        let names: Vec<&str> = s.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["expose bins"]);
    }
}
