//! Protocol parameters: the paper's asymptotic formulas and a
//! structure-preserving practical scaling.
//!
//! The paper sets `k₁ = log³n`, `q = log^δ n` (δ > 4), tree height
//! `ℓ* = log_q(n/k₁)`, `w = 5c·log³n` winners per election and
//! `numBins = r/(5c·log³n)` bins (Def. 4). Those constants exceed n itself
//! at any simulable scale, so [`Params::practical`] keeps every *ratio and
//! growth rate* (logarithmic committee sizes and degrees, constant arity,
//! `Θ(log n)`-deep tree, `r/numBins ≈ w`) at constants that make n up to
//! ~16k simulable.

use std::fmt;

/// All tunable quantities of the King–Saia construction.
///
/// Use [`Params::practical`] for simulations; the arity, `k₁` and the
/// AEBA degree and rounds may then be overridden through the with-methods.
///
/// ```rust
/// use ba_topology::Params;
/// let p = Params::practical(1024).with_q(8);
/// assert_eq!(p.q, 8);
/// assert!(p.levels >= 2);
/// p.validate().unwrap();
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    /// Number of processors.
    pub n: usize,
    /// Adversary tolerance slack: the adversary controls `< (1/3 − ε)·n`.
    pub eps: f64,
    /// Tree arity.
    pub q: usize,
    /// Processors per level-1 node (paper: `log³n`).
    pub k1: usize,
    /// Tree height `ℓ*` (levels are numbered 1..=levels; level `levels`
    /// is the root).
    pub levels: usize,
    /// Winners per election (paper: `5c·log³n`).
    pub w: usize,
    /// Bins in Feige's lightest-bin election (Def. 4).
    pub num_bins: usize,
    /// Uplinks per processor toward the parent committee (paper:
    /// `q·log³n`).
    pub uplink_degree: usize,
    /// ℓ-links per processor toward level-1 descendants (paper:
    /// `O(log³n)`).
    pub llink_degree: usize,
    /// Gossip degree for AEBA with unreliable coins (paper: `k·log n`).
    pub aeba_degree: usize,
    /// Gossip rounds for one AEBA execution.
    pub aeba_rounds: usize,
}

impl Params {
    /// Structure-preserving laptop-scale parameters (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn practical(n: usize) -> Self {
        assert!(n >= 4, "need at least 4 processors");
        let log_n = (n as f64).log2().max(1.0);
        let q = 4;
        let k1 = (2.5 * log_n).ceil() as usize;
        let levels = Self::height_for(n, q);
        // Per Def. 4 the paper keeps w = |W| fixed across levels with
        // q ≫ w; at arity 4 that leaves w = 2 (elections filter 4→2 at
        // level 2 and 8→2 above).
        let w = 2;
        let r = q * w;
        // Base bin count (Def. 4: numBins = r/w); see `num_bins_at`.
        let num_bins = (r / w).max(2);
        let deg = (2.0 * log_n).ceil() as usize;
        Params {
            n,
            // ε = 0.1: the supermajority window (2/3 − ε/2, 2/3 + ε) must
            // be wide relative to neighborhood sampling noise at feasible
            // gossip degrees; the paper allows any positive constant.
            eps: 0.1,
            q,
            k1,
            levels,
            w,
            num_bins,
            uplink_degree: deg,
            llink_degree: deg,
            // Theorem 5 needs a `k·log n`-regular gossip graph for a
            // *large* constant k; at laptop scale the concentration margin
            // (supermajority threshold vs. neighborhood sampling noise)
            // needs ~max(5·log₂ n, 6·√n) outgoing edges.
            aeba_degree: (5.0 * log_n).max(6.0 * (n as f64).sqrt()).ceil() as usize,
            aeba_rounds: (2.0 * log_n).ceil() as usize,
        }
    }

    /// The number of levels needed so the root (level `height`) is a
    /// single node when level 1 has `n` nodes shrinking by a factor `q`
    /// per level.
    pub(crate) fn height_for(n: usize, q: usize) -> usize {
        assert!(q >= 2, "arity must be at least 2");
        let mut count = n;
        let mut levels = 1;
        while count > 1 {
            count = count.div_ceil(q);
            levels += 1;
        }
        levels.max(2)
    }

    /// Overrides the tree arity, recomputing the height.
    pub fn with_q(mut self, q: usize) -> Self {
        self.q = q;
        self.levels = Self::height_for(self.n, q);
        self
    }

    /// Overrides the level-1 committee size.
    pub fn with_k1(mut self, k1: usize) -> Self {
        self.k1 = k1;
        self
    }

    /// Overrides the AEBA gossip degree.
    pub fn with_aeba_degree(mut self, d: usize) -> Self {
        self.aeba_degree = d;
        self
    }

    /// Overrides the AEBA round count.
    pub fn with_aeba_rounds(mut self, r: usize) -> Self {
        self.aeba_rounds = r;
        self
    }

    /// Number of nodes at a level (level 1 has `n` nodes — one per
    /// processor, as in the paper — shrinking by `q` per level).
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `1..=levels`.
    pub fn node_count(&self, level: usize) -> usize {
        assert!(
            (1..=self.levels).contains(&level),
            "level {level} out of range 1..={}",
            self.levels
        );
        if level == self.levels {
            return 1;
        }
        let mut count = self.n;
        for _ in 1..level {
            count = count.div_ceil(self.q);
        }
        count
    }

    /// Committee size at a level: `k_ℓ = min(n, k₁·q^(ℓ−1))`; the root
    /// committee is all processors (paper: "the root node … contains all
    /// the processors").
    pub fn node_size(&self, level: usize) -> usize {
        if level == self.levels {
            return self.n;
        }
        let mut k = self.k1;
        for _ in 1..level {
            k = k.saturating_mul(self.q);
            if k >= self.n {
                return self.n;
            }
        }
        k.min(self.n)
    }

    /// Number of candidate arrays competing in an election at `level`
    /// (paper Alg. 2: `w` arrays from each of `q` children, with `w = 1`
    /// at level 2).
    pub fn candidates_at(&self, level: usize) -> usize {
        if level <= 2 {
            self.q
        } else {
            self.q * self.w
        }
    }

    /// Bins for the election at `level` (Definition 4: `numBins = r/w`,
    /// so the lightest bin holds ≈ `w` candidates), floored at 2.
    pub fn num_bins_at(&self, level: usize) -> usize {
        (self.candidates_at(level) / self.w.max(1)).max(2)
    }

    /// The adversary's corruption budget `⌊(1/3 − ε)·n⌋`.
    pub fn corruption_budget(&self) -> usize {
        ((self.n as f64) * (1.0 / 3.0 - self.eps)).floor() as usize
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.n < 4 {
            return Err(ParamsError("n must be at least 4".into()));
        }
        if self.q < 2 {
            return Err(ParamsError("q must be at least 2".into()));
        }
        if self.levels < 2 {
            return Err(ParamsError("tree must have at least 2 levels".into()));
        }
        if self.k1 == 0 || self.w == 0 || self.num_bins < 2 {
            return Err(ParamsError(
                "k1, w must be positive and num_bins at least 2".into(),
            ));
        }
        if !(0.0..1.0 / 3.0).contains(&self.eps) {
            return Err(ParamsError("eps must lie in [0, 1/3)".into()));
        }
        if self.uplink_degree == 0 || self.llink_degree == 0 || self.aeba_degree == 0 {
            return Err(ParamsError("link degrees must be positive".into()));
        }
        if self.node_count(self.levels) != 1 {
            return Err(ParamsError(
                "root level must contain exactly one node".into(),
            ));
        }
        Ok(())
    }
}

/// A violated parameter constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamsError(String);

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parameters: {}", self.0)
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn practical_is_valid_across_sizes() {
        for n in [4, 16, 64, 100, 1000, 4096, 10_000] {
            let p = Params::practical(n);
            p.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(p.node_count(1), n);
            assert_eq!(p.node_count(p.levels), 1);
            assert_eq!(p.node_size(p.levels), n);
        }
    }

    #[test]
    fn node_counts_shrink_by_q() {
        let p = Params::practical(256); // q = 4
        assert_eq!(p.node_count(1), 256);
        assert_eq!(p.node_count(2), 64);
        assert_eq!(p.node_count(3), 16);
        assert_eq!(p.node_count(4), 4);
        assert_eq!(p.node_count(5), 1);
        assert_eq!(p.levels, 5);
    }

    #[test]
    fn node_sizes_grow_but_cap_at_n() {
        let p = Params::practical(256);
        assert_eq!(p.node_size(1), p.k1);
        assert_eq!(p.node_size(2), p.k1 * 4);
        assert!(p.node_size(3) <= 256);
        assert_eq!(p.node_size(p.levels), 256);
        // Monotone non-decreasing.
        for l in 1..p.levels {
            assert!(p.node_size(l) <= p.node_size(l + 1));
        }
    }

    #[test]
    fn candidates_match_algorithm2() {
        let p = Params::practical(256);
        assert_eq!(p.candidates_at(2), p.q); // w = 1 at level 2
        assert_eq!(p.candidates_at(3), p.q * p.w);
    }

    #[test]
    fn corruption_budget_below_one_third() {
        for n in [10, 100, 1000] {
            let p = Params::practical(n);
            assert!(p.corruption_budget() < n / 3 + 1);
            assert!(p.corruption_budget() as f64 >= (n as f64) * 0.2);
        }
    }

    #[test]
    fn height_for_edge_cases() {
        assert_eq!(Params::height_for(1, 2), 2); // minimum height enforced
        assert_eq!(Params::height_for(2, 2), 2);
        assert_eq!(Params::height_for(4, 2), 3); // 4 -> 2 -> 1
        assert_eq!(Params::height_for(5, 4), 3); // 5 -> 2 -> 1
    }

    #[test]
    fn with_q_recomputes_height() {
        let p = Params::practical(256).with_q(16);
        assert_eq!(p.q, 16);
        assert_eq!(p.node_count(2), 16);
        assert_eq!(p.levels, 3);
        p.validate().unwrap();
    }

    #[test]
    fn invalid_params_detected() {
        let mut p = Params::practical(64);
        p.eps = 0.5;
        assert!(p.validate().is_err());
        let mut p = Params::practical(64);
        p.q = 1;
        assert!(p.validate().is_err());
        let mut p = Params::practical(64);
        p.num_bins = 1;
        assert!(p.validate().is_err());
        let mut p = Params::practical(64);
        p.uplink_degree = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_count_out_of_range_panics() {
        let p = Params::practical(64);
        let _ = p.node_count(0);
    }

    #[test]
    fn error_display() {
        let e = Params::practical(64).with_q(4); // valid
        assert!(e.validate().is_ok());
        let err = ParamsError("q must be at least 2".into());
        assert!(err.to_string().contains("q must be"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Practical parameters validate at every n and their level
            /// structure is internally consistent.
            #[test]
            fn practical_always_valid(n in 4usize..20_000) {
                let p = Params::practical(n);
                prop_assert!(p.validate().is_ok());
                prop_assert_eq!(p.node_count(1), n);
                prop_assert_eq!(p.node_count(p.levels), 1);
                // Counts shrink monotonically; sizes grow monotonically.
                for l in 1..p.levels {
                    prop_assert!(p.node_count(l) >= p.node_count(l + 1));
                    prop_assert!(p.node_size(l) <= p.node_size(l + 1));
                }
                prop_assert_eq!(p.node_size(p.levels), n);
            }

            /// The arity override preserves validity and the q-fold shrink.
            #[test]
            fn with_q_consistent(n in 8usize..4096, q in 2usize..12) {
                let p = Params::practical(n).with_q(q);
                prop_assert!(p.validate().is_ok());
                for l in 1..p.levels.saturating_sub(1) {
                    let a = p.node_count(l);
                    let b = p.node_count(l + 1);
                    prop_assert_eq!(b, a.div_ceil(q), "level {} of q={}", l, q);
                }
            }

            /// Corruption budget stays strictly below n/3.
            #[test]
            fn budget_below_third(n in 4usize..100_000) {
                let p = Params::practical(n);
                prop_assert!(3 * p.corruption_budget() < n);
            }

            /// Def. 4 bins: the lightest bin expects ≈ w candidates.
            #[test]
            fn bins_size_winners(n in 16usize..8192, level in 2usize..6) {
                let p = Params::practical(n);
                prop_assume!(level <= p.levels);
                let bins = p.num_bins_at(level);
                let cands = p.candidates_at(level);
                prop_assert!(bins >= 2);
                prop_assert!(cands / bins <= p.w.max(2));
            }
        }
    }
}
