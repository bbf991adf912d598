//! Shamir `(n, t+1)` threshold secret sharing over GF(2¹⁶).
//!
//! The dealer embeds the secret as the constant term of a uniformly random
//! degree-`t` polynomial and hands processor `j` the evaluation at
//! `x = j+1`. Any `t+1` shares determine the polynomial (Lagrange) and
//! hence the secret; any `t` or fewer are jointly uniform and carry no
//! information (paper §3.1: "every message which is the size of M is
//! consistent with any subset of t or fewer shares").
//!
//! The paper fixes `t = n/2` for the tree protocol; [`threshold_for`]
//! computes that default.

use crate::error::CryptoError;
use crate::gf::Gf16;
use crate::poly::Poly;
use rand::Rng;

/// One Shamir share: the evaluation point and value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Share {
    /// The evaluation point `x ≠ 0`. Conventionally `x = holder index + 1`.
    pub x: Gf16,
    /// The polynomial value at `x`.
    pub y: Gf16,
}

impl Share {
    /// Creates a share.
    pub(crate) fn new(x: Gf16, y: Gf16) -> Self {
        Share { x, y }
    }
}

/// The paper's default threshold for committee size `n`: `t = n/2`
/// (§3.1 — "we assume secret sharing schemes with t = n/2").
///
/// Reconstruction then needs `t+1 = ⌊n/2⌋+1` shares, i.e. a strict
/// majority, which a good committee (≥ 2/3 good) always has while the
/// adversary (< 1/3 + sampler slack) never does.
pub fn threshold_for(n: usize) -> usize {
    n / 2
}

/// Splits `secret` into `n` shares requiring `t+1` to reconstruct.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidParams`] if `n == 0`, `t ≥ n`, or
/// `n ≥ 2¹⁶` (not enough evaluation points).
pub fn share<R: Rng + ?Sized>(
    secret: Gf16,
    n: usize,
    t: usize,
    rng: &mut R,
) -> Result<Vec<Share>, CryptoError> {
    if n == 0 || t >= n || n >= (1 << 16) {
        return Err(CryptoError::InvalidParams { n, t });
    }
    let poly = Poly::random_with_secret(secret, t, rng);
    // Chunked multi-point evaluation; `Poly::eval` is its proptest
    // oracle, so the share vector is unchanged bit-for-bit.
    let xs: Vec<Gf16> = (0..n).map(|j| Gf16::new((j + 1) as u16)).collect();
    Ok(xs
        .iter()
        .zip(poly.eval_many(&xs))
        .map(|(&x, y)| Share::new(x, y))
        .collect())
}

/// Shares every word of a sequence independently, returning one share
/// vector per holder: `result[j][w]` is holder `j`'s share of word `w`.
///
/// # Errors
///
/// Same conditions as [`share`].
pub fn share_words<R: Rng + ?Sized>(
    words: &[Gf16],
    n: usize,
    t: usize,
    rng: &mut R,
) -> Result<Vec<Vec<Share>>, CryptoError> {
    let mut per_holder: Vec<Vec<Share>> = vec![Vec::with_capacity(words.len()); n];
    for &w in words {
        let shares = share(w, n, t, rng)?;
        for (holder, s) in shares.into_iter().enumerate() {
            per_holder[holder].push(s);
        }
    }
    Ok(per_holder)
}

/// Reconstructs the secret from at least `deg+1` shares, where `deg` is
/// the degree of the sharing polynomial, via Lagrange interpolation at 0.
///
/// All provided shares are used; if more than `t+1` are given the result
/// is still correct when they are consistent. (This scheme is
/// non-verifiable, exactly as the paper assumes: corrupted shares yield a
/// wrong value, not an error. The protocol layers defend against that with
/// committee majorities, not share verification.)
///
/// # Errors
///
/// Returns [`CryptoError::TooFewShares`] on empty input and
/// [`CryptoError::DuplicateShareIndex`] if two shares have the same `x`.
pub fn reconstruct(shares: &[Share]) -> Result<Gf16, CryptoError> {
    let xs: Vec<Gf16> = shares.iter().map(|s| s.x).collect();
    let weights = lagrange_weights_at_zero(&xs)?;
    Ok(shares.iter().zip(&weights).map(|(s, &w)| s.y * w).sum())
}

/// The Lagrange basis weights at `x = 0` for evaluation points `xs`:
/// `λ_i = Π_{j≠i} x_j / (x_j − x_i)`, so a reconstruction is the dot
/// product `Σ_i λ_i·y_i`.
///
/// All `k` denominators are inverted with **one** field inversion
/// (Montgomery's trick via [`Gf16::batch_inv`]); the numerators reuse
/// prefix/suffix products instead of per-`i` scans. Callers holding many
/// words shared at the same evaluation points ([`reconstruct_words`])
/// compute the weights once and amortize them over every word.
///
/// # Errors
///
/// [`CryptoError::TooFewShares`] on empty input,
/// [`CryptoError::DuplicateShareIndex`] on repeated x-coordinates.
pub(crate) fn lagrange_weights_at_zero(xs: &[Gf16]) -> Result<Vec<Gf16>, CryptoError> {
    let k = xs.len();
    if k == 0 {
        return Err(CryptoError::TooFewShares { have: 0, need: 1 });
    }
    for (i, a) in xs.iter().enumerate() {
        for b in &xs[i + 1..] {
            if a == b {
                return Err(CryptoError::DuplicateShareIndex { x: a.raw() });
            }
        }
    }
    // num_i = Π_{j≠i} x_j via prefix/suffix products (no division).
    let mut prefix = vec![Gf16::ONE; k];
    for i in 1..k {
        prefix[i] = prefix[i - 1] * xs[i - 1];
    }
    let mut suffix = vec![Gf16::ONE; k];
    for i in (0..k - 1).rev() {
        suffix[i] = suffix[i + 1] * xs[i + 1];
    }
    // den_i = Π_{j≠i} (x_j − x_i); nonzero because the points are
    // distinct. The `Product` impl runs in the log domain, so each
    // denominator costs k table lookups, not 3k.
    let mut dens: Vec<Gf16> = (0..k)
        .map(|i| {
            xs.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &xj)| xj - xs[i])
                .product()
        })
        .collect();
    Gf16::batch_inv(&mut dens);
    Ok((0..k).map(|i| prefix[i] * suffix[i] * dens[i]).collect())
}

/// Reconstructs a word sequence from per-holder share vectors (the inverse
/// of [`share_words`]). `holders[j][w]` must be holder `j`'s share of word
/// `w`; all holders must provide equally long vectors.
///
/// When every holder uses one evaluation point for all its words (the
/// layout [`share_words`] produces), the Lagrange weights are computed
/// **once** and each word costs only a k-term dot product — O(k² + wk)
/// total instead of O(wk²) with one inversion instead of wk.
///
/// # Errors
///
/// [`CryptoError::LengthMismatch`] if holders disagree on sequence length,
/// plus the conditions of [`reconstruct`].
pub fn reconstruct_words(holders: &[Vec<Share>]) -> Result<Vec<Gf16>, CryptoError> {
    let Some(first) = holders.first() else {
        return Err(CryptoError::TooFewShares { have: 0, need: 1 });
    };
    let len = first.len();
    for h in holders {
        if h.len() != len {
            return Err(CryptoError::LengthMismatch {
                expected: len,
                actual: h.len(),
            });
        }
    }
    if len == 0 {
        return Ok(Vec::new());
    }
    // Fast path: each holder's shares sit at a single evaluation point.
    let uniform = holders.iter().all(|h| h.iter().all(|s| s.x == h[0].x));
    if uniform {
        let xs: Vec<Gf16> = holders.iter().map(|h| h[0].x).collect();
        let weights = lagrange_weights_at_zero(&xs)?;
        return Ok((0..len)
            .map(|w| {
                holders
                    .iter()
                    .zip(&weights)
                    .map(|(h, &wt)| h[w].y * wt)
                    .sum()
            })
            .collect());
    }
    (0..len)
        .map(|w| {
            let column: Vec<Share> = holders.iter().map(|h| h[w]).collect();
            reconstruct(&column)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn share_then_reconstruct() {
        let mut rng = rng();
        let secret = Gf16::new(0x1234);
        let shares = share(secret, 9, 4, &mut rng).unwrap();
        assert_eq!(shares.len(), 9);
        assert_eq!(reconstruct(&shares[..5]).unwrap(), secret);
        assert_eq!(reconstruct(&shares).unwrap(), secret);
    }

    #[test]
    fn any_subset_of_size_t_plus_1_works() {
        let mut rng = rng();
        let secret = Gf16::new(0xFEED);
        let shares = share(secret, 8, 3, &mut rng).unwrap();
        let mut idx: Vec<usize> = (0..8).collect();
        for _ in 0..20 {
            idx.shuffle(&mut rng);
            let subset: Vec<Share> = idx[..4].iter().map(|&i| shares[i]).collect();
            assert_eq!(reconstruct(&subset).unwrap(), secret);
        }
    }

    #[test]
    fn t_shares_are_uniform_over_runs() {
        // Secrecy smoke test: with t shares fixed, different secrets yield
        // identical distributions; equivalently, share t of a fixed secret
        // many times and observe the first share's value spreading over the
        // field. A full proof is information-theoretic; here we check the
        // first two moments roughly.
        let mut rng = rng();
        let secret = Gf16::new(0xAAAA);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..512 {
            let shares = share(secret, 4, 2, &mut rng).unwrap();
            seen.insert(shares[0].y.raw());
        }
        // 512 draws over 2^16 values: collisions are rare; expect >480 distinct.
        assert!(
            seen.len() > 480,
            "only {} distinct share values",
            seen.len()
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = rng();
        assert_eq!(
            share(Gf16::ZERO, 0, 0, &mut rng).unwrap_err(),
            CryptoError::InvalidParams { n: 0, t: 0 }
        );
        assert_eq!(
            share(Gf16::ZERO, 4, 4, &mut rng).unwrap_err(),
            CryptoError::InvalidParams { n: 4, t: 4 }
        );
        assert!(share(Gf16::ZERO, 1 << 16, 3, &mut rng).is_err());
    }

    #[test]
    fn duplicate_points_rejected() {
        let s = Share::new(Gf16::new(1), Gf16::new(7));
        assert_eq!(
            reconstruct(&[s, s]).unwrap_err(),
            CryptoError::DuplicateShareIndex { x: 1 }
        );
    }

    #[test]
    fn empty_reconstruct_rejected() {
        assert_eq!(
            reconstruct(&[]).unwrap_err(),
            CryptoError::TooFewShares { have: 0, need: 1 }
        );
    }

    #[test]
    fn single_share_t0() {
        // t = 0: the "polynomial" is constant; one share reveals the secret.
        let mut rng = rng();
        let shares = share(Gf16::new(0x42), 3, 0, &mut rng).unwrap();
        assert_eq!(reconstruct(&shares[..1]).unwrap(), Gf16::new(0x42));
    }

    #[test]
    fn word_sequences_roundtrip() {
        let mut rng = rng();
        let words: Vec<Gf16> = (0..10u16).map(|i| Gf16::new(i * 37)).collect();
        let holders = share_words(&words, 7, 3, &mut rng).unwrap();
        assert_eq!(holders.len(), 7);
        assert!(holders.iter().all(|h| h.len() == 10));
        let got = reconstruct_words(&holders[..4]).unwrap();
        assert_eq!(got, words);
    }

    #[test]
    fn word_sequence_length_mismatch() {
        let mut rng = rng();
        let words = vec![Gf16::new(1), Gf16::new(2)];
        let mut holders = share_words(&words, 3, 1, &mut rng).unwrap();
        holders[1].pop();
        assert_eq!(
            reconstruct_words(&holders).unwrap_err(),
            CryptoError::LengthMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    /// The batched-weight reconstruction agrees with a naive Lagrange
    /// loop that inverts every denominator separately.
    #[test]
    fn batched_reconstruct_matches_naive_lagrange() {
        let mut rng = rng();
        for n in [2usize, 3, 5, 9, 17] {
            let secret = Gf16::new(0x5A5A ^ n as u16);
            let t = threshold_for(n).min(n - 1);
            let shares = share(secret, n, t, &mut rng).unwrap();
            let naive: Gf16 = shares
                .iter()
                .enumerate()
                .map(|(i, si)| {
                    let mut num = Gf16::ONE;
                    let mut den = Gf16::ONE;
                    for (j, sj) in shares.iter().enumerate() {
                        if i != j {
                            num *= sj.x;
                            den *= sj.x - si.x;
                        }
                    }
                    si.y * num * den.inv().unwrap()
                })
                .sum();
            assert_eq!(reconstruct(&shares).unwrap(), naive);
            assert_eq!(naive, secret);
        }
    }

    #[test]
    fn lagrange_weights_error_cases() {
        assert_eq!(
            lagrange_weights_at_zero(&[]).unwrap_err(),
            CryptoError::TooFewShares { have: 0, need: 1 }
        );
        let x = Gf16::new(3);
        assert_eq!(
            lagrange_weights_at_zero(&[x, Gf16::new(5), x]).unwrap_err(),
            CryptoError::DuplicateShareIndex { x: 3 }
        );
        // Weights of a single point sum to 1 (partition of unity at 0).
        let w = lagrange_weights_at_zero(&[Gf16::new(7)]).unwrap();
        assert_eq!(w, vec![Gf16::ONE]);
    }

    /// Lagrange weights form a partition of unity: Σ λ_i = 1 (interpolating
    /// the constant-1 polynomial returns 1 at x = 0).
    #[test]
    fn lagrange_weights_sum_to_one() {
        for k in 1..12u16 {
            let xs: Vec<Gf16> = (1..=k).map(Gf16::new).collect();
            let w = lagrange_weights_at_zero(&xs).unwrap();
            assert_eq!(w.iter().copied().sum::<Gf16>(), Gf16::ONE, "k={k}");
        }
    }

    /// `reconstruct_words` takes the amortized single-weights path when
    /// holders use one x each, and falls back to per-column reconstruction
    /// when they do not; both agree with word-by-word reconstruct.
    #[test]
    fn reconstruct_words_fast_path_matches_columns() {
        let mut rng = rng();
        let words: Vec<Gf16> = (0..16u16)
            .map(|i| Gf16::new(i.wrapping_mul(0x1357)))
            .collect();
        let holders = share_words(&words, 9, 4, &mut rng).unwrap();
        let direct: Vec<Gf16> = (0..words.len())
            .map(|w| {
                let col: Vec<Share> = holders[..5].iter().map(|h| h[w]).collect();
                reconstruct(&col).unwrap()
            })
            .collect();
        assert_eq!(reconstruct_words(&holders[..5]).unwrap(), direct);
        assert_eq!(direct, words);

        // Break uniformity: swap two holders' shares for one word only.
        let mut mixed = holders[..5].to_vec();
        let w0 = mixed[0][3];
        mixed[0][3] = mixed[1][3];
        mixed[1][3] = w0;
        let expect: Vec<Gf16> = (0..words.len())
            .map(|w| {
                let col: Vec<Share> = mixed.iter().map(|h| h[w]).collect();
                reconstruct(&col).unwrap()
            })
            .collect();
        assert_eq!(reconstruct_words(&mixed).unwrap(), expect);
        assert_eq!(
            expect, words,
            "a swap permutes a column but keeps its points"
        );
    }

    #[test]
    fn reconstruct_words_empty_words() {
        let holders: Vec<Vec<Share>> = vec![Vec::new(), Vec::new()];
        assert_eq!(reconstruct_words(&holders).unwrap(), Vec::<Gf16>::new());
    }

    #[test]
    fn threshold_default_matches_paper() {
        assert_eq!(threshold_for(10), 5);
        assert_eq!(threshold_for(11), 5);
        assert_eq!(threshold_for(1), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Reconstructing from any (t+1)-subset returns the secret.
            #[test]
            fn subset_reconstruction(
                secret in any::<u16>(),
                n in 2usize..24,
                seed in any::<u64>(),
            ) {
                let t = threshold_for(n).min(n - 1);
                let mut rng = StdRng::seed_from_u64(seed);
                let secret = Gf16::new(secret);
                let shares = share(secret, n, t, &mut rng).unwrap();
                // deterministic subset: every other share, wrapped.
                let subset: Vec<Share> = (0..n)
                    .map(|i| shares[(i * 7) % n])
                    .scan(std::collections::HashSet::new(), |seen, s| {
                        Some(seen.insert(s.x.raw()).then_some(s))
                    })
                    .flatten()
                    .take(t + 1)
                    .collect();
                prop_assume!(subset.len() == t + 1);
                prop_assert_eq!(reconstruct(&subset).unwrap(), secret);
            }

            /// Tampering with one share in a minimal set changes the result
            /// (non-verifiable scheme: garbage in, garbage out — never the
            /// true secret unless the tamper is a no-op).
            #[test]
            fn tampering_changes_output(
                secret in any::<u16>(),
                delta in 1u16..,
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let secret = Gf16::new(secret);
                let mut shares = share(secret, 5, 2, &mut rng).unwrap();
                shares[0].y += Gf16::new(delta);
                let got = reconstruct(&shares[..3]).unwrap();
                prop_assert_ne!(got, secret);
            }

            /// Sharing is linear: share vectors of s1 and s2 sum to a valid
            /// sharing of s1+s2 (used implicitly by coin aggregation).
            #[test]
            fn sharing_is_linear(
                s1 in any::<u16>(),
                s2 in any::<u16>(),
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let a = share(Gf16::new(s1), 6, 2, &mut rng).unwrap();
                let b = share(Gf16::new(s2), 6, 2, &mut rng).unwrap();
                let sum: Vec<Share> = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| Share::new(x.x, x.y + y.y))
                    .collect();
                prop_assert_eq!(
                    reconstruct(&sum[..3]).unwrap(),
                    Gf16::new(s1) + Gf16::new(s2)
                );
            }
        }
    }
}
