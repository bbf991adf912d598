//! Bit and message accounting.
//!
//! Theorem 1 of the paper is a bound on *bits of communication per
//! processor*, so the engine charges every sent envelope to its sender here.
//! Flooding by corrupt processors is charged to the corrupt senders and is
//! excluded from the "good processor" statistics that the experiments report.

use crate::ids::ProcId;

/// Per-processor communication accounting for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    bits_sent: Vec<u64>,
    msgs_sent: Vec<u64>,
    bits_received: Vec<u64>,
    /// Bits charged per engine round, in round order. Filled by the
    /// engine's per-round [`Metrics::begin_round`] hook; phase
    /// attribution slices this by the transport's phase-mark rounds.
    round_bits: Vec<u64>,
}

impl Metrics {
    /// Creates metrics for `n` processors.
    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            bits_sent: vec![0; n],
            msgs_sent: vec![0; n],
            bits_received: vec![0; n],
            round_bits: Vec::new(),
        }
    }

    pub(crate) fn charge_send(&mut self, from: ProcId, bits: u64) {
        self.bits_sent[from.index()] += bits;
        self.msgs_sent[from.index()] += 1;
        if let Some(bucket) = self.round_bits.last_mut() {
            *bucket += bits;
        }
    }

    /// Opens the next per-round attribution bucket. The engine calls
    /// this once per round *before* any send is charged.
    pub(crate) fn begin_round(&mut self) {
        self.round_bits.push(0);
    }

    pub(crate) fn charge_receive(&mut self, to: ProcId, bits: u64) {
        self.bits_received[to.index()] += bits;
    }

    /// Bits sent by one processor.
    pub fn bits_sent_by(&self, p: ProcId) -> u64 {
        self.bits_sent[p.index()]
    }

    /// Messages sent by one processor.
    pub fn msgs_sent_by(&self, p: ProcId) -> u64 {
        self.msgs_sent[p.index()]
    }

    /// Bits received by one processor (includes flood traffic; useful for
    /// measuring the load an adversary can impose).
    pub fn bits_received_by(&self, p: ProcId) -> u64 {
        self.bits_received[p.index()]
    }

    /// Total bits sent by all processors.
    pub fn total_bits(&self) -> u64 {
        self.bits_sent.iter().sum()
    }

    /// Total messages sent by all processors.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// Summary statistics over the processors selected by `include`
    /// (typically the good ones).
    pub fn bit_stats<F: Fn(ProcId) -> bool>(&self, include: F) -> BitStats {
        let sel: Vec<u64> = (0..self.bits_sent.len())
            .filter(|&i| include(ProcId::new(i)))
            .map(|i| self.bits_sent[i])
            .collect();
        BitStats::from_samples(&sel)
    }

    /// Bits charged during one engine round (0 if out of range or the
    /// run predates per-round accounting).
    pub fn bits_in_round(&self, round: usize) -> u64 {
        self.round_bits.get(round).copied().unwrap_or(0)
    }

    /// Attributes the per-round bit totals to phases. `marks` is the
    /// ordered `(name, start_round)` list a transport derives from
    /// [`crate::Transport::mark_phase`] (or a configured schedule);
    /// rounds before the first mark are clamped into the first phase.
    /// The returned totals sum to [`Metrics::total_bits`] exactly
    /// whenever every round was opened with the engine hook; with no
    /// marks everything lands in a single `"run"` phase.
    pub fn phase_bits(&self, marks: &[(String, usize)]) -> Vec<(String, u64)> {
        let total: u64 = self.round_bits.iter().sum();
        if marks.is_empty() {
            return vec![("run".to_string(), total)];
        }
        let mut out: Vec<(String, u64)> = marks.iter().map(|(n, _)| (n.clone(), 0)).collect();
        for (round, &bits) in self.round_bits.iter().enumerate() {
            let idx = marks
                .partition_point(|(_, start)| *start <= round)
                .saturating_sub(1);
            out[idx].1 += bits;
        }
        out
    }
}

/// Summary statistics of per-processor bit counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BitStats {
    /// Number of processors included.
    pub count: usize,
    /// Maximum bits sent by any included processor.
    pub max: u64,
    /// Minimum bits sent by any included processor.
    pub min: u64,
    /// Mean bits sent.
    pub mean: f64,
    /// Total bits sent by included processors.
    pub total: u64,
    /// Median bits sent (nearest-rank).
    pub p50: u64,
    /// 99th-percentile bits sent (nearest-rank).
    pub p99: u64,
}

impl BitStats {
    /// Computes statistics from raw samples. Empty input yields all zeros.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return BitStats::default();
        }
        let total: u64 = samples.iter().sum();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        // Nearest-rank: the smallest sample with at least p% of the
        // mass at or below it.
        let rank = |p: f64| -> u64 {
            let k = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[k.min(sorted.len()) - 1]
        };
        BitStats {
            count: samples.len(),
            max: *sorted.last().expect("non-empty"),
            min: sorted[0],
            mean: total as f64 / samples.len() as f64,
            total,
            p50: rank(50.0),
            p99: rank(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = Metrics::new(3);
        m.charge_send(ProcId::new(0), 10);
        m.charge_send(ProcId::new(0), 5);
        m.charge_send(ProcId::new(2), 7);
        m.charge_receive(ProcId::new(1), 10);
        assert_eq!(m.bits_sent_by(ProcId::new(0)), 15);
        assert_eq!(m.msgs_sent_by(ProcId::new(0)), 2);
        assert_eq!(m.bits_sent_by(ProcId::new(1)), 0);
        assert_eq!(m.bits_received_by(ProcId::new(1)), 10);
        assert_eq!(m.total_bits(), 22);
        assert_eq!(m.total_msgs(), 3);
    }

    #[test]
    fn stats_filter() {
        let mut m = Metrics::new(4);
        for (i, b) in [(0u32, 4u64), (1, 8), (2, 100), (3, 2)] {
            m.charge_send(ProcId::new(i as usize), b);
        }
        // Exclude processor 2 (say, corrupt).
        let s = m.bit_stats(|p| p.index() != 2);
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 8);
        assert_eq!(s.min, 2);
        assert_eq!(s.total, 14);
        assert!((s.mean - 14.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let m = Metrics::new(2);
        let s = m.bit_stats(|_| false);
        assert_eq!(s, BitStats::default());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = BitStats::from_samples(&[10, 20, 30, 40]);
        assert_eq!(s.p50, 20, "rank ceil(0.5*4)=2 -> second smallest");
        assert_eq!(s.p99, 40, "rank ceil(0.99*4)=4 -> max");
        let one = BitStats::from_samples(&[7]);
        assert_eq!((one.p50, one.p99), (7, 7));
    }

    #[test]
    fn phase_attribution_on_a_hand_built_run() {
        // Three phases: "a" starts at round 0, "b" at 2, "c" at 4.
        // Charges land in the bucket opened by the last begin_round.
        let mut m = Metrics::new(2);
        for round in 0..5usize {
            m.begin_round();
            m.charge_send(ProcId::new(0), 10 * (round as u64 + 1));
        }
        m.charge_receive(ProcId::new(1), 1); // receives never attribute
        let marks = vec![
            ("a".to_string(), 0),
            ("b".to_string(), 2),
            ("c".to_string(), 4),
        ];
        let phases = m.phase_bits(&marks);
        assert_eq!(
            phases,
            vec![
                ("a".to_string(), 10 + 20),
                ("b".to_string(), 30 + 40),
                ("c".to_string(), 50),
            ]
        );
        let sum: u64 = phases.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, m.total_bits(), "attribution must cover every bit");
        assert_eq!(m.bits_in_round(3), 40);
        assert_eq!(m.bits_in_round(99), 0);
    }

    #[test]
    fn phase_attribution_clamps_and_defaults() {
        let mut m = Metrics::new(1);
        m.begin_round();
        m.charge_send(ProcId::new(0), 5);
        // No marks: one synthetic "run" phase.
        assert_eq!(m.phase_bits(&[]), vec![("run".to_string(), 5)]);
        // First mark starts *after* round 0: the early round clamps
        // into the first phase rather than vanishing.
        let late = vec![("p".to_string(), 3)];
        assert_eq!(m.phase_bits(&late), vec![("p".to_string(), 5)]);
    }

    #[test]
    fn charges_without_begin_round_stay_untracked() {
        // Pre-observability callers never open buckets; totals still work.
        let mut m = Metrics::new(1);
        m.charge_send(ProcId::new(0), 9);
        assert_eq!(m.total_bits(), 9);
        assert_eq!(m.bits_in_round(0), 0);
        assert_eq!(m.phase_bits(&[]), vec![("run".to_string(), 0)]);
    }
}
