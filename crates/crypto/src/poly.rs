//! Polynomials over GF(2¹⁶).
//!
//! Shamir sharing is polynomial evaluation and Lagrange interpolation;
//! this module gives those operations a first-class, well-tested home
//! (and a place where the algebra the secrecy proofs lean on — degree
//! bounds, uniqueness of interpolation — is checked by property tests;
//! full interpolation is a test oracle, reconstruction only needs the
//! value at zero, [`crate::shamir::reconstruct`]).

use crate::gf::Gf16;
use rand::Rng;

/// A polynomial over GF(2¹⁶), dense coefficient form, lowest degree
/// first. The zero polynomial is the empty coefficient vector.
///
/// ```rust
/// use ba_crypto::poly::Poly;
/// use ba_crypto::Gf16;
/// // p(x) = 3 + x
/// let p = Poly::new(vec![Gf16::new(3), Gf16::new(1)]);
/// assert_eq!(p.eval(Gf16::new(2)), Gf16::new(1)); // 3 XOR 2
/// assert_eq!(p.degree(), Some(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Poly {
    coeffs: Vec<Gf16>,
}

impl Poly {
    /// Builds a polynomial from coefficients (lowest first); trailing
    /// zeros are trimmed so representations are canonical.
    pub fn new(mut coeffs: Vec<Gf16>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// A uniformly random polynomial of exactly the given degree bound:
    /// constant term `secret`, `degree` higher coefficients uniform.
    /// (The top coefficient may be zero — Shamir requires a degree
    /// *bound*, not exact degree.)
    pub fn random_with_secret<R: Rng + ?Sized>(secret: Gf16, degree: usize, rng: &mut R) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(secret);
        for _ in 0..degree {
            coeffs.push(Gf16::new(rng.gen()));
        }
        // No trim: canonicalization would change the distribution only by
        // dropping zero leading coefficients, which is harmless, but we
        // keep the dealer's view simple.
        Poly { coeffs }
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.iter().rposition(|c| !c.is_zero())
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: Gf16) -> Gf16 {
        self.coeffs
            .iter()
            .rev()
            .fold(Gf16::ZERO, |acc, &c| acc * x + c)
    }

    /// Evaluates at many points in chunks of 16: loop-interchanged
    /// Horner that streams the coefficients once per chunk into a bank
    /// of register accumulators, with each point's table log hoisted out
    /// of the coefficient loop (one log + one exp lookup per product
    /// instead of two logs + one exp). Produces exactly
    /// `xs.iter().map(|&x| self.eval(x))` — the scalar [`Poly::eval`]
    /// stays the property-test oracle for this kernel.
    pub fn eval_many(&self, xs: &[Gf16]) -> Vec<Gf16> {
        const LANES: usize = 16;
        // Points at zero evaluate to the constant term; prefill so the
        // packed lanes below only ever carry nonzero points.
        let mut out = vec![self.secret(); xs.len()];
        if self.coeffs.len() <= 1 {
            return out;
        }
        for (xc, oc) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let mut logs = [0u32; LANES];
            let mut slot = [0usize; LANES];
            let mut lanes = 0usize;
            for (i, &x) in xc.iter().enumerate() {
                if let Some(l) = x.log_raw() {
                    logs[lanes] = l;
                    slot[lanes] = i;
                    lanes += 1;
                }
            }
            let mut accs = [Gf16::ZERO; LANES];
            for &c in self.coeffs.iter().rev() {
                for j in 0..lanes {
                    accs[j] = accs[j].mul_by_log(logs[j]) + c;
                }
            }
            for j in 0..lanes {
                oc[slot[j]] = accs[j];
            }
        }
        out
    }

    /// Evaluation at zero — the Shamir secret slot.
    pub(crate) fn secret(&self) -> Gf16 {
        self.coeffs.first().copied().unwrap_or(Gf16::ZERO)
    }
}

/// The rest of the algebra: nothing in the protocol multiplies or
/// interpolates polynomials, so these serve the property tests below.
#[cfg(test)]
impl Poly {
    /// The zero polynomial.
    fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    fn constant(c: Gf16) -> Self {
        Poly::new(vec![c])
    }

    /// Polynomial addition (XOR of coefficients).
    fn add(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let coeffs = (0..n)
            .map(|i| {
                self.coeffs.get(i).copied().unwrap_or(Gf16::ZERO)
                    + other.coeffs.get(i).copied().unwrap_or(Gf16::ZERO)
            })
            .collect();
        Poly::new(coeffs)
    }

    /// Scalar multiplication.
    fn scale(&self, k: Gf16) -> Poly {
        Poly::new(self.coeffs.iter().map(|&c| c * k).collect())
    }

    /// Polynomial multiplication (schoolbook; degrees here are tiny).
    fn mul(&self, other: &Poly) -> Poly {
        if self.coeffs.is_empty() || other.coeffs.is_empty() {
            return Poly::zero();
        }
        let mut out = vec![Gf16::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }

    /// Lagrange interpolation: the unique polynomial of degree
    /// `< points.len()` through the given `(x, y)` pairs.
    ///
    /// All basis denominators `Π_{j≠i} (x_i − x_j)` are inverted together
    /// with a single field inversion ([`Gf16::batch_inv`]); the basis
    /// polynomial products remain the O(k²) part.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TooFewShares`] on empty input,
    /// [`CryptoError::DuplicateShareIndex`] on repeated x-coordinates.
    fn interpolate(points: &[(Gf16, Gf16)]) -> Result<Poly, crate::CryptoError> {
        if points.is_empty() {
            return Err(crate::CryptoError::TooFewShares { have: 0, need: 1 });
        }
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                if a.0 == b.0 {
                    return Err(crate::CryptoError::DuplicateShareIndex { x: a.0.raw() });
                }
            }
        }
        // Invert every basis denominator in one batched pass.
        let mut denoms: Vec<Gf16> = points
            .iter()
            .enumerate()
            .map(|(i, &(xi, _))| {
                points
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &(xj, _))| xi - xj)
                    .product()
            })
            .collect();
        Gf16::batch_inv(&mut denoms);
        let mut acc = Poly::zero();
        for (i, &(_, yi)) in points.iter().enumerate() {
            // Basis polynomial ℓ_i(x) = Π_{j≠i} (x − x_j)/(x_i − x_j).
            let mut basis = Poly::constant(Gf16::ONE);
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                basis = basis.mul(&Poly::new(vec![xj, Gf16::ONE])); // (x + x_j) = (x − x_j)
            }
            acc = acc.add(&basis.scale(denoms[i] * yi));
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CryptoError;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gf(x: u16) -> Gf16 {
        Gf16::new(x)
    }

    #[test]
    fn canonical_form_trims_zeros() {
        let p = Poly::new(vec![gf(1), gf(0), gf(0)]);
        assert_eq!(p.degree(), Some(0));
        assert_eq!(p.coeffs.len(), 1);
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::new(vec![]), Poly::zero());
    }

    #[test]
    fn eval_known_values() {
        // p(x) = 5 + 2x: over GF(2^16), p(0) = 5, p(1) = 5 XOR 2 = 7.
        let p = Poly::new(vec![gf(5), gf(2)]);
        assert_eq!(p.eval(Gf16::ZERO), gf(5));
        assert_eq!(p.eval(Gf16::ONE), gf(7));
        assert_eq!(p.secret(), gf(5));
    }

    #[test]
    fn add_and_scale() {
        let p = Poly::new(vec![gf(1), gf(2)]);
        let q = Poly::new(vec![gf(1), gf(0), gf(3)]);
        let s = p.add(&q);
        assert_eq!(s, Poly::new(vec![gf(0), gf(2), gf(3)]));
        // Characteristic 2: p + p = 0.
        assert_eq!(p.add(&p), Poly::zero());
        assert_eq!(p.scale(Gf16::ZERO), Poly::zero());
        assert_eq!(p.scale(Gf16::ONE), p);
    }

    #[test]
    fn mul_degree_adds() {
        let p = Poly::new(vec![gf(1), gf(1)]); // 1 + x
        let q = p.mul(&p); // 1 + x² over char 2
        assert_eq!(q, Poly::new(vec![gf(1), gf(0), gf(1)]));
        assert_eq!(p.mul(&Poly::zero()), Poly::zero());
    }

    #[test]
    fn interpolate_line() {
        // Through (1, 1) and (2, 2): recover p with p(1)=1, p(2)=2.
        let p = Poly::interpolate(&[(gf(1), gf(1)), (gf(2), gf(2))]).unwrap();
        assert_eq!(p.eval(gf(1)), gf(1));
        assert_eq!(p.eval(gf(2)), gf(2));
        assert!(p.degree().unwrap_or(0) <= 1);
    }

    #[test]
    fn interpolate_errors() {
        assert_eq!(
            Poly::interpolate(&[]).unwrap_err(),
            CryptoError::TooFewShares { have: 0, need: 1 }
        );
        assert_eq!(
            Poly::interpolate(&[(gf(1), gf(1)), (gf(1), gf(2))]).unwrap_err(),
            CryptoError::DuplicateShareIndex { x: 1 }
        );
    }

    #[test]
    fn random_with_secret_pins_constant_term() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = Poly::random_with_secret(gf(0xAAAA), 5, &mut rng);
        assert_eq!(p.secret(), gf(0xAAAA));
        assert_eq!(p.coeffs.len(), 6);
    }

    proptest! {
        /// Interpolating d+1 evaluations of a degree-≤d polynomial
        /// recovers it exactly (uniqueness of interpolation).
        #[test]
        fn interpolation_roundtrip(
            secret in any::<u16>(),
            degree in 0usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = Poly::random_with_secret(Gf16::new(secret), degree, &mut rng);
            let points: Vec<(Gf16, Gf16)> = (1..=degree as u16 + 1)
                .map(|x| (Gf16::new(x), p.eval(Gf16::new(x))))
                .collect();
            let q = Poly::interpolate(&points).unwrap();
            // Same evaluations everywhere we can cheaply check.
            for x in 0..20u16 {
                prop_assert_eq!(q.eval(Gf16::new(x)), p.eval(Gf16::new(x)));
            }
            prop_assert_eq!(q.secret(), Gf16::new(secret));
        }

        /// The chunked multi-point kernel equals the scalar Horner
        /// oracle at every point, including zeros, ragged tail chunks,
        /// and degenerate (zero/constant) polynomials.
        #[test]
        fn eval_many_matches_scalar_oracle(
            coeffs in proptest::collection::vec(any::<u16>(), 0..12),
            xs in proptest::collection::vec(any::<u16>(), 0..50),
            zero_every in 1usize..5,
        ) {
            let p = Poly::new(coeffs.into_iter().map(Gf16::new).collect());
            let xs: Vec<Gf16> = xs
                .into_iter()
                .enumerate()
                .map(|(i, x)| Gf16::new(if i % zero_every == 0 { 0 } else { x }))
                .collect();
            let expected: Vec<Gf16> = xs.iter().map(|&x| p.eval(x)).collect();
            prop_assert_eq!(p.eval_many(&xs), expected);
        }

        /// Evaluation is linear: (p + q)(x) = p(x) + q(x), (kp)(x) = k·p(x).
        #[test]
        fn eval_linear(
            a in proptest::collection::vec(any::<u16>(), 0..6),
            b in proptest::collection::vec(any::<u16>(), 0..6),
            x in any::<u16>(),
            k in any::<u16>(),
        ) {
            let p = Poly::new(a.into_iter().map(Gf16::new).collect());
            let q = Poly::new(b.into_iter().map(Gf16::new).collect());
            let x = Gf16::new(x);
            let k = Gf16::new(k);
            prop_assert_eq!(p.add(&q).eval(x), p.eval(x) + q.eval(x));
            prop_assert_eq!(p.scale(k).eval(x), p.eval(x) * k);
        }

        /// Multiplication evaluates pointwise.
        #[test]
        fn mul_evaluates_pointwise(
            a in proptest::collection::vec(any::<u16>(), 0..5),
            b in proptest::collection::vec(any::<u16>(), 0..5),
            x in any::<u16>(),
        ) {
            let p = Poly::new(a.into_iter().map(Gf16::new).collect());
            let q = Poly::new(b.into_iter().map(Gf16::new).collect());
            let x = Gf16::new(x);
            prop_assert_eq!(p.mul(&q).eval(x), p.eval(x) * q.eval(x));
        }

        /// deg(p·q) = deg p + deg q for nonzero polynomials (no zero
        /// divisors in a field).
        #[test]
        fn mul_degree_exact(
            a in proptest::collection::vec(any::<u16>(), 1..5),
            b in proptest::collection::vec(any::<u16>(), 1..5),
        ) {
            let p = Poly::new(a.into_iter().map(Gf16::new).collect());
            let q = Poly::new(b.into_iter().map(Gf16::new).collect());
            match (p.degree(), q.degree()) {
                (Some(dp), Some(dq)) => {
                    prop_assert_eq!(p.mul(&q).degree(), Some(dp + dq));
                }
                _ => prop_assert_eq!(p.mul(&q), Poly::zero()),
            }
        }
    }
}
