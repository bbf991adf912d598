//! The global coin subsequence (paper §1.1, §3.5, Theorem 2).
//!
//! The `(s, t)` *global coin subsequence* problem: output `s` words of
//! which `t` are uniform, independent, and agreed on by almost all good
//! processors — the adversary controls the rest and even knows which is
//! which, but the consumers (Rabin-style agreement, Algorithm 3's label
//! draw) only need *enough* genuine coins, not all of them. The modified
//! tournament (§3.5) solves `(s, 2s/3)`: each finalist array contributes
//! its extra block, and a `2/3 − O(1/log log n)` fraction of finalists is
//! good (Lemma 6).

use crate::tournament::{CoinWord, TournamentOutcome};

/// An ordered global coin subsequence, with per-word provenance.
///
/// `GenerateSecretNumber(i)` from Algorithm 4 is [`CoinSequence::number`];
/// Algorithm 3 reads the raw words as its label schedule.
#[derive(Clone, Debug, Default)]
pub struct CoinSequence {
    words: Vec<CoinWord>,
}

impl CoinSequence {
    /// Wraps raw words.
    pub fn new(words: Vec<CoinWord>) -> Self {
        CoinSequence { words }
    }

    /// Extracts the subsequence a tournament run produced.
    pub fn from_tournament(outcome: &TournamentOutcome) -> Self {
        CoinSequence {
            words: outcome.coin_words.clone(),
        }
    }

    /// Total length `s`.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of genuine random words `t`.
    pub fn good_count(&self) -> usize {
        self.words.iter().filter(|w| w.good).count()
    }

    /// `t/s`; the §3.5 construction targets ≥ 2/3.
    pub fn good_fraction(&self) -> f64 {
        if self.words.is_empty() {
            return 0.0;
        }
        self.good_count() as f64 / self.len() as f64
    }

    /// Whether this solves the `(s, t)` problem for the given `t`.
    pub fn satisfies(&self, t: usize) -> bool {
        self.good_count() >= t
    }

    /// `GenerateSecretNumber(i)` mapped into `[0, range)`, or `None` past
    /// the end.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    pub fn number(&self, i: usize, range: u16) -> Option<u16> {
        assert!(range > 0, "range must be positive");
        self.words.get(i).map(|w| w.value % range)
    }

    /// Whether word `i` is genuine (test/diagnostic oracle — processors
    /// in the real protocol cannot tell).
    pub fn is_good(&self, i: usize) -> Option<bool> {
        self.words.get(i).map(|w| w.good)
    }

    /// The raw word values (e.g. to feed Algorithm 3's label schedule).
    pub(crate) fn values(&self) -> Vec<u16> {
        self.words.iter().map(|w| w.value).collect()
    }
}

impl From<Vec<CoinWord>> for CoinSequence {
    fn from(words: Vec<CoinWord>) -> Self {
        CoinSequence::new(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(goods: &[(u16, bool)]) -> CoinSequence {
        CoinSequence::new(
            goods
                .iter()
                .map(|&(value, good)| CoinWord { value, good })
                .collect(),
        )
    }

    #[test]
    fn counting() {
        let s = seq(&[(1, true), (2, false), (3, true)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.good_count(), 2);
        assert!((s.good_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.satisfies(2));
        assert!(!s.satisfies(3));
    }

    #[test]
    fn number_access() {
        let s = seq(&[(7, true), (10, false)]);
        assert_eq!(s.number(0, 5), Some(2));
        assert_eq!(s.number(1, 4), Some(2));
        assert_eq!(s.number(2, 4), None);
        assert_eq!(s.is_good(0), Some(true));
        assert_eq!(s.is_good(1), Some(false));
        assert_eq!(s.values(), vec![7, 10]);
    }

    #[test]
    fn empty_sequence() {
        let s = CoinSequence::default();
        assert!(s.is_empty());
        assert_eq!(s.good_fraction(), 0.0);
        assert!(s.satisfies(0));
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let s = seq(&[(1, true)]);
        let _ = s.number(0, 0);
    }
}
