//! Averaging samplers (paper Definition 2).

use rand::Rng;

/// An averaging sampler `H : [r] → [s]^d`: each of `r` inputs is assigned
/// a multiset of `d` elements of `[s]`.
///
/// Per Lemma 2 the paper instantiates these by the probabilistic method;
/// [`Sampler::random`] draws the assignment uniformly, which satisfies the
/// `(θ, δ)` averaging property with overwhelming probability for the
/// degrees the protocol uses (`d = Ω((s/r + 1)·log³ n)` in the paper,
/// `Ω(log n)` in the practically scaled parameters).
#[derive(Clone, Debug)]
pub struct Sampler {
    r: usize,
    s: usize,
    d: usize,
    assign: Vec<u32>, // row-major r × d
}

impl Sampler {
    /// Draws a uniformly random sampler with `r` inputs over `[s]` of
    /// degree `d` (sampling with replacement, i.e. multisets — exactly
    /// the model of Definition 2).
    ///
    /// # Panics
    ///
    /// Panics if any of `r`, `s`, `d` is zero or `s > u32::MAX`.
    pub fn random<R: Rng + ?Sized>(r: usize, s: usize, d: usize, rng: &mut R) -> Self {
        assert!(
            r > 0 && s > 0 && d > 0,
            "sampler dimensions must be positive"
        );
        assert!(u32::try_from(s).is_ok(), "element space too large");
        let assign = (0..r * d).map(|_| rng.gen_range(0..s) as u32).collect();
        Sampler { r, s, d, assign }
    }

    /// Builds a sampler from an explicit assignment table (row `x` lists
    /// the multiset `H(x)`).
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged, empty, or reference elements `≥ s`.
    #[cfg(test)]
    fn from_rows(s: usize, rows: Vec<Vec<u32>>) -> Self {
        assert!(!rows.is_empty(), "sampler needs at least one input");
        let d = rows[0].len();
        assert!(d > 0, "sampler degree must be positive");
        let r = rows.len();
        let mut assign = Vec::with_capacity(r * d);
        for row in &rows {
            assert_eq!(row.len(), d, "ragged sampler rows");
            for &e in row {
                assert!((e as usize) < s, "element out of range");
            }
            assign.extend_from_slice(row);
        }
        Sampler { r, s, d, assign }
    }

    /// The multiset `H(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ r`.
    pub fn sample(&self, x: usize) -> &[u32] {
        &self.assign[x * self.d..(x + 1) * self.d]
    }

    /// Fraction of `H(x)` that lands in the set marked by `bad`.
    ///
    /// # Panics
    ///
    /// Panics if `bad.len() != s`.
    pub(crate) fn bad_fraction(&self, x: usize, bad: &[bool]) -> f64 {
        assert_eq!(bad.len(), self.s);
        let hits = self.sample(x).iter().filter(|&&e| bad[e as usize]).count();
        hits as f64 / self.d as f64
    }

    /// Checks the averaging property against one concrete adversarial set:
    /// the fraction of inputs whose sample over-represents `bad` by more
    /// than `theta` (Definition 2 with `S = {e : bad[e]}`).
    ///
    /// The protocol's guarantees quantify over all sets `S`; experiments
    /// call this with the actual corrupt set, and
    /// [`Sampler::check_adversarial`] stress-tests with many random and
    /// structured sets.
    pub fn check(&self, bad: &[bool], theta: f64) -> CheckReport {
        assert_eq!(bad.len(), self.s);
        let base = bad.iter().filter(|&&b| b).count() as f64 / self.s as f64;
        let mut violating = 0usize;
        let mut worst = 0.0f64;
        for x in 0..self.r {
            let f = self.bad_fraction(x, bad);
            let excess = f - base;
            if excess > theta {
                violating += 1;
            }
            if excess > worst {
                worst = excess;
            }
        }
        CheckReport {
            base_fraction: base,
            violating_fraction: violating as f64 / self.r as f64,
            worst_excess: worst,
        }
    }

    /// Monte-Carlo stress test of the `(θ, δ)` property: draws `trials`
    /// random subsets of `[s]` of size `⌊β·s⌋` and returns the worst
    /// violating fraction observed. A valid `(θ, δ)` sampler keeps every
    /// entry at or below `δ`.
    pub fn check_adversarial<R: Rng + ?Sized>(
        &self,
        beta: f64,
        theta: f64,
        trials: usize,
        rng: &mut R,
    ) -> f64 {
        let k = ((self.s as f64) * beta).floor() as usize;
        let mut worst: f64 = 0.0;
        for _ in 0..trials {
            let mut bad = vec![false; self.s];
            // Floyd's algorithm for a uniform k-subset.
            for j in self.s - k..self.s {
                let t = rng.gen_range(0..=j);
                if bad[t] {
                    bad[j] = true;
                } else {
                    bad[t] = true;
                }
            }
            let rep = self.check(&bad, theta);
            worst = worst.max(rep.violating_fraction);
        }
        worst
    }
}

/// Result of checking a sampler against one adversarial set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckReport {
    /// `|S|/s`: the global fraction of bad elements.
    pub base_fraction: f64,
    /// Fraction of inputs whose sample exceeds `base_fraction + θ`.
    pub violating_fraction: f64,
    /// The largest observed excess over the base fraction.
    pub worst_excess: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn dimensions_and_samples() {
        let mut rng = rng(1);
        let h = Sampler::random(10, 100, 7, &mut rng);
        assert_eq!((h.r, h.s, h.d), (10, 100, 7));
        for x in 0..10 {
            assert_eq!(h.sample(x).len(), 7);
            assert!(h.sample(x).iter().all(|&e| (e as usize) < 100));
        }
    }

    #[test]
    fn from_rows_roundtrip() {
        let h = Sampler::from_rows(5, vec![vec![0, 1], vec![2, 2], vec![4, 3]]);
        assert_eq!(h.sample(1), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Sampler::from_rows(5, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = Sampler::from_rows(2, vec![vec![0, 5]]);
    }

    #[test]
    fn bad_fraction_exact() {
        let h = Sampler::from_rows(4, vec![vec![0, 1, 2, 3], vec![0, 0, 0, 0]]);
        let bad = vec![true, false, false, false];
        assert!((h.bad_fraction(0, &bad) - 0.25).abs() < 1e-12);
        assert!((h.bad_fraction(1, &bad) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_sampler_averages_well() {
        // 1/3 of 300 elements bad, degree 48: committees should rarely
        // exceed 1/3 + 0.15 bad.
        let mut rng = rng(2);
        let h = Sampler::random(200, 300, 48, &mut rng);
        let bad: Vec<bool> = (0..300).map(|i| i % 3 == 0).collect();
        let rep = h.check(&bad, 0.15);
        assert!((rep.base_fraction - 1.0 / 3.0).abs() < 0.01);
        assert!(
            rep.violating_fraction < 0.05,
            "violating fraction {} too high",
            rep.violating_fraction
        );
    }

    #[test]
    fn check_adversarial_is_small_for_decent_degree() {
        let mut rng = rng(3);
        let h = Sampler::random(100, 200, 64, &mut rng);
        let worst = h.check_adversarial(1.0 / 3.0, 0.2, 20, &mut rng);
        assert!(worst < 0.1, "worst violating fraction {worst}");
    }

    #[test]
    fn low_degree_sampler_violates_more() {
        // Sanity check the *measurement*: a degree-2 sampler cannot
        // concentrate, so violations are common. This guards against the
        // checker silently passing everything.
        let mut rng = rng(4);
        let h = Sampler::random(400, 100, 2, &mut rng);
        let bad: Vec<bool> = (0..100).map(|i| i < 33).collect();
        let rep = h.check(&bad, 0.15);
        assert!(
            rep.violating_fraction > 0.05,
            "checker failed to flag a weak sampler (violating {})",
            rep.violating_fraction
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Sampler::random(8, 16, 4, &mut rng(7));
        let b = Sampler::random(8, 16, 4, &mut rng(7));
        for x in 0..8 {
            assert_eq!(a.sample(x), b.sample(x));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn samples_in_range(
                r in 1usize..20,
                s in 1usize..50,
                d in 1usize..10,
                seed in any::<u64>(),
            ) {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let h = Sampler::random(r, s, d, &mut rng);
                for x in 0..r {
                    prop_assert!(h.sample(x).iter().all(|&e| (e as usize) < s));
                }
            }

            #[test]
            fn empty_bad_set_never_violates(
                r in 1usize..20,
                s in 2usize..50,
                d in 1usize..10,
                seed in any::<u64>(),
            ) {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let h = Sampler::random(r, s, d, &mut rng);
                let bad = vec![false; s];
                let rep = h.check(&bad, 0.0);
                prop_assert_eq!(rep.violating_fraction, 0.0);
                prop_assert_eq!(rep.base_fraction, 0.0);
            }

            #[test]
            fn full_bad_set_never_exceeds_base(
                r in 1usize..20,
                s in 2usize..50,
                d in 1usize..10,
                seed in any::<u64>(),
            ) {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let h = Sampler::random(r, s, d, &mut rng);
                let bad = vec![true; s];
                // base = 1.0 and every sample fraction is 1.0: excess 0.
                let rep = h.check(&bad, 1e-9);
                prop_assert_eq!(rep.violating_fraction, 0.0);
            }
        }
    }
}
