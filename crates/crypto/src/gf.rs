//! The finite field GF(2¹⁶).
//!
//! Words in the protocol (bin choices, coin words, secret payloads) are
//! 16-bit quantities, so all secret sharing happens over GF(2¹⁶) with the
//! irreducible polynomial `x¹⁶ + x¹² + x³ + x + 1` (0x1100B).
//!
//! # Kernel
//!
//! Field multiplication, division, inversion, and exponentiation are
//! **table-driven**: a one-time [`OnceLock`]-initialized pair of log/exp
//! tables over a fixed generator of the multiplicative group makes every
//! operation O(1) — two lookups and one add for `mul`, a single lookup
//! for `inv`. [`Gf16::batch_inv`] layers Montgomery's trick on top so a
//! whole slice inverts with exactly **one** field inversion, which is what
//! lets Lagrange reconstruction in [`crate::shamir`] pay one inverse per
//! reconstruction instead of one per share.
//!
//! The original carry-less shift-and-xor multiply and Fermat inversion are
//! retained as [`Gf16::mul_ref`] / [`Gf16::inv_ref`] / [`Gf16::pow_ref`]:
//! they are the *reference oracle* against which the exhaustive
//! equivalence tests and the `gf16/*_ref` criterion baselines run.
//!
//! # Constant-time caveat
//!
//! The table kernel indexes ~384 KiB of lookup tables (128 KiB log +
//! 256 KiB doubled exp) with secret-dependent values, so it is **not**
//! constant-time: cache timing leaks operand
//! information. That is acceptable here — this repository is a protocol
//! *simulator* whose threat model (adaptive corruption of processors,
//! rushing message delivery) has no timing side channel; the adversary
//! sees protocol messages, not microarchitectural state. Code reused in a
//! real deployment against a co-located attacker should switch back to
//! the branch-free reference kernel (or a vectorized carry-less multiply).

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// The reduction polynomial `x¹⁶ + x¹² + x³ + x + 1` without its leading
/// term, i.e. the feedback mask applied when a product overflows 16 bits.
const POLY_LOW: u16 = 0x100B;

/// Order of the multiplicative group GF(2¹⁶)*.
const GROUP_ORDER: u32 = (1 << 16) - 1;

/// Log/exp tables over a fixed generator `g`:
/// `exp[i] = g^i` (doubled so `log a + log b` never needs a modulo) and
/// `log[g^i] = i` with `log[0]` unused.
struct Tables {
    log: Box<[u16; 1 << 16]>,
    exp: Box<[u16; 2 * GROUP_ORDER as usize]>,
}

static TABLES: OnceLock<Tables> = OnceLock::new();

#[inline]
fn tables() -> &'static Tables {
    TABLES.get_or_init(Tables::build)
}

impl Tables {
    fn build() -> Tables {
        let g = Tables::find_generator();
        let mut log = vec![0u16; 1 << 16];
        let mut exp = vec![0u16; 2 * GROUP_ORDER as usize];
        let mut acc: u16 = 1;
        for i in 0..GROUP_ORDER as usize {
            exp[i] = acc;
            exp[i + GROUP_ORDER as usize] = acc;
            log[acc as usize] = i as u16;
            acc = Gf16::mul_ref_raw(acc, g);
        }
        debug_assert_eq!(acc, 1, "generator order must be 65535");
        Tables {
            log: log.into_boxed_slice().try_into().expect("log table size"),
            exp: exp.into_boxed_slice().try_into().expect("exp table size"),
        }
    }

    /// Smallest generator of GF(2¹⁶)*, found with the reference kernel.
    /// `g` generates iff `g^(65535/p) ≠ 1` for every prime `p | 65535`
    /// (65535 = 3·5·17·257).
    fn find_generator() -> u16 {
        'cand: for g in 2u16.. {
            for p in [3u32, 5, 17, 257] {
                if Gf16::new(g).pow_ref(GROUP_ORDER / p) == Gf16::ONE {
                    continue 'cand;
                }
            }
            return g;
        }
        unreachable!("GF(2^16)* is cyclic; a generator exists")
    }
}

/// An element of GF(2¹⁶).
///
/// Addition is XOR (characteristic 2), multiplication is polynomial
/// multiplication modulo 0x1100B. The type is `Copy` and all operators are
/// overloaded, so field code reads like ordinary arithmetic:
///
/// ```rust
/// use ba_crypto::Gf16;
/// let a = Gf16::new(0x1234);
/// let b = Gf16::new(0x5678);
/// assert_eq!(a + b, b + a);
/// assert_eq!(a * b * b.inv().unwrap(), a);
/// assert_eq!(a - a, Gf16::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf16(u16);

impl Gf16 {
    /// The additive identity.
    pub const ZERO: Gf16 = Gf16(0);
    /// The multiplicative identity.
    pub const ONE: Gf16 = Gf16(1);
    /// Number of elements in the field.
    const ORDER: u32 = 1 << 16;

    /// Wraps a raw 16-bit word as a field element.
    pub fn new(raw: u16) -> Self {
        Gf16(raw)
    }

    /// The raw 16-bit representation.
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Whether this is the zero element.
    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Reference-kernel multiply on raw words (carry-less shift-and-xor,
    /// reduced modulo 0x1100B). Branch pattern depends only on operand
    /// bits, not on table state; used to build the tables and as the
    /// equivalence oracle.
    fn mul_ref_raw(a: u16, b: u16) -> u16 {
        let mut acc: u16 = 0;
        let mut a = a;
        let mut b = b;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            b >>= 1;
            let carry = a & 0x8000 != 0;
            a <<= 1;
            if carry {
                a ^= POLY_LOW;
            }
        }
        acc
    }

    /// Reference-kernel multiplication (shift-and-xor): the oracle the
    /// table kernel is validated against, and the "before" side of the
    /// `gf16/mul_ref` micro-benchmark.
    pub fn mul_ref(self, rhs: Gf16) -> Gf16 {
        Gf16(Self::mul_ref_raw(self.0, rhs.0))
    }

    /// Reference-kernel exponentiation (square-and-multiply over
    /// [`Gf16::mul_ref`]).
    pub fn pow_ref(self, mut e: u32) -> Gf16 {
        let mut base = self;
        let mut acc = Gf16::ONE;
        while e != 0 {
            if e & 1 != 0 {
                acc = acc.mul_ref(base);
            }
            base = base.mul_ref(base);
            e >>= 1;
        }
        acc
    }

    /// Reference-kernel inversion (Fermat: `a⁻¹ = a^(2¹⁶ − 2)`), or
    /// `None` for zero.
    pub fn inv_ref(self) -> Option<Gf16> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow_ref(Self::ORDER - 2))
        }
    }

    /// Raises to an arbitrary power.
    ///
    /// O(1): reduces the exponent modulo the group order 65535 and takes
    /// one exp-table lookup (`a^e = g^(log a · e mod 65535)`).
    pub fn pow(self, e: u32) -> Self {
        if self.is_zero() {
            // 0^0 = 1 by the empty-product convention; 0^e = 0 otherwise.
            return if e == 0 { Gf16::ONE } else { Gf16::ZERO };
        }
        let t = tables();
        let l = t.log[self.0 as usize] as u64;
        let idx = (l * (e % GROUP_ORDER) as u64) % GROUP_ORDER as u64;
        Gf16(t.exp[idx as usize])
    }

    /// Multiplicative-group log of a nonzero element (`None` for zero):
    /// the hoistable half of a table multiply. Multi-point evaluation
    /// takes each point's log once, then pays one log and one exp lookup
    /// per product instead of two logs and an exp.
    #[inline]
    pub(crate) fn log_raw(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(tables().log[self.0 as usize] as u32)
        }
    }

    /// `self * x` for the nonzero `x` whose [`Gf16::log_raw`] is `lx`.
    /// The doubled exp table absorbs the log sum without a modulo.
    #[inline]
    pub(crate) fn mul_by_log(self, lx: u32) -> Gf16 {
        if self.0 == 0 {
            return Gf16::ZERO;
        }
        let t = tables();
        Gf16(t.exp[(t.log[self.0 as usize] as u32 + lx) as usize])
    }

    /// The multiplicative inverse, or `None` for zero.
    ///
    /// O(1): `a⁻¹ = g^(65535 − log a)`, one table lookup.
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            let t = tables();
            Some(Gf16(
                t.exp[(GROUP_ORDER as usize) - t.log[self.0 as usize] as usize],
            ))
        }
    }

    /// Inverts every nonzero element of `xs` in place with **one** field
    /// inversion (Montgomery's trick); zero entries are left as zero.
    ///
    /// This is the primitive that lets a k-share Lagrange reconstruction
    /// pay a single inverse: collect the k basis denominators, batch
    /// invert, multiply through.
    ///
    /// ```rust
    /// use ba_crypto::Gf16;
    /// let mut xs = [Gf16::new(3), Gf16::ZERO, Gf16::new(0xABCD)];
    /// Gf16::batch_inv(&mut xs);
    /// assert_eq!(xs[0], Gf16::new(3).inv().unwrap());
    /// assert_eq!(xs[1], Gf16::ZERO);
    /// assert_eq!(xs[2], Gf16::new(0xABCD).inv().unwrap());
    /// ```
    pub fn batch_inv(xs: &mut [Gf16]) {
        // prefix[i] = product of nonzero xs[..i]; one running product up,
        // one inverted product back down.
        let mut prefix = Vec::with_capacity(xs.len());
        let mut acc = Gf16::ONE;
        for &x in xs.iter() {
            prefix.push(acc);
            if !x.is_zero() {
                acc *= x;
            }
        }
        let mut inv_acc = acc.inv().expect("product of nonzero elements is nonzero");
        for i in (0..xs.len()).rev() {
            if xs[i].is_zero() {
                continue;
            }
            let x = xs[i];
            xs[i] = inv_acc * prefix[i];
            inv_acc *= x;
        }
    }
}

impl fmt::Debug for Gf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf16({:#06x})", self.0)
    }
}

impl fmt::Display for Gf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

impl From<u16> for Gf16 {
    fn from(raw: u16) -> Self {
        Gf16(raw)
    }
}

impl From<Gf16> for u16 {
    fn from(x: Gf16) -> u16 {
        x.0
    }
}

#[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]
impl Add for Gf16 {
    type Output = Gf16;
    fn add(self, rhs: Gf16) -> Gf16 {
        Gf16(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]
impl AddAssign for Gf16 {
    fn add_assign(&mut self, rhs: Gf16) {
        self.0 ^= rhs.0;
    }
}

#[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]
impl Sub for Gf16 {
    type Output = Gf16;
    fn sub(self, rhs: Gf16) -> Gf16 {
        // Characteristic 2: subtraction is addition.
        self + rhs
    }
}

#[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]
impl SubAssign for Gf16 {
    fn sub_assign(&mut self, rhs: Gf16) {
        *self += rhs;
    }
}

impl Neg for Gf16 {
    type Output = Gf16;
    fn neg(self) -> Gf16 {
        self
    }
}

impl Mul for Gf16 {
    type Output = Gf16;
    /// O(1) table multiply: `a·b = g^(log a + log b)`.
    fn mul(self, rhs: Gf16) -> Gf16 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf16::ZERO;
        }
        let t = tables();
        Gf16(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

impl MulAssign for Gf16 {
    fn mul_assign(&mut self, rhs: Gf16) {
        *self = *self * rhs;
    }
}

#[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]
impl Div for Gf16 {
    type Output = Gf16;
    /// O(1) table divide.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: Gf16) -> Gf16 {
        assert!(rhs.0 != 0, "division by zero in GF(2^16)");
        if self.0 == 0 {
            return Gf16::ZERO;
        }
        let t = tables();
        let num = t.log[self.0 as usize] as usize;
        let den = t.log[rhs.0 as usize] as usize;
        Gf16(t.exp[num + GROUP_ORDER as usize - den])
    }
}

impl Sum for Gf16 {
    fn sum<I: Iterator<Item = Gf16>>(iter: I) -> Gf16 {
        iter.fold(Gf16::ZERO, Add::add)
    }
}

impl Product for Gf16 {
    /// Accumulates the product in the log domain: one table lookup per
    /// factor (plus a single final exp lookup) instead of three lookups
    /// per multiplication — the fast path for Lagrange numerator /
    /// denominator products.
    fn product<I: Iterator<Item = Gf16>>(iter: I) -> Gf16 {
        let t = tables();
        let mut acc: u64 = 0;
        for x in iter {
            if x.is_zero() {
                return Gf16::ZERO;
            }
            acc += t.log[x.0 as usize] as u64;
            // No intermediate reduction needed: 65534 per factor
            // overflows u64 only after ~2^48 factors.
        }
        Gf16(t.exp[(acc % GROUP_ORDER as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identities() {
        let a = Gf16::new(0xABCD);
        assert_eq!(a + Gf16::ZERO, a);
        assert_eq!(a * Gf16::ONE, a);
        assert_eq!(a * Gf16::ZERO, Gf16::ZERO);
        assert_eq!(a + a, Gf16::ZERO); // characteristic 2
        assert_eq!(-a, a);
    }

    #[test]
    fn reduction_polynomial_is_irreducible() {
        // Frobenius criterion: x^(2^16) == x and x^(2^8) != x in the field,
        // where "x" is the element represented by the polynomial x (0b10).
        let x = Gf16::new(2);
        let mut t = x;
        for _ in 0..8 {
            t *= t;
        }
        assert_ne!(t, x, "x^(2^8) must differ from x for irreducibility");
        for _ in 0..8 {
            t *= t;
        }
        assert_eq!(t, x, "x^(2^16) must equal x in a degree-16 field");
    }

    #[test]
    fn known_product() {
        // x * x = x^2.
        assert_eq!(Gf16::new(2) * Gf16::new(2), Gf16::new(4));
        // x^15 * x = x^16 = x^12 + x^3 + x + 1 (mod poly).
        assert_eq!(Gf16::new(1 << 15) * Gf16::new(2), Gf16::new(POLY_LOW));
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Gf16::ZERO.inv().is_none());
        assert!(Gf16::ZERO.inv_ref().is_none());
        assert_eq!(Gf16::ONE.inv(), Some(Gf16::ONE));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf16::ONE / Gf16::ZERO;
    }

    #[test]
    fn pow_edge_cases() {
        let a = Gf16::new(0x1234);
        assert_eq!(a.pow(0), Gf16::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a * a);
        assert_eq!(Gf16::ZERO.pow(0), Gf16::ONE);
        assert_eq!(Gf16::ZERO.pow(5), Gf16::ZERO);
        // Group-order periodicity: a^65535 = 1, a^65536 = a.
        assert_eq!(a.pow(GROUP_ORDER), Gf16::ONE);
        assert_eq!(a.pow(GROUP_ORDER + 1), a);
        assert_eq!(a.pow(u32::MAX), a.pow(u32::MAX % GROUP_ORDER));
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Gf16::new(1), Gf16::new(2), Gf16::new(3)];
        assert_eq!(xs.iter().copied().sum::<Gf16>(), Gf16::new(0));
        assert_eq!(xs.iter().copied().product::<Gf16>(), Gf16::new(6));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Gf16::new(0xab).to_string(), "0x00ab");
        assert_eq!(format!("{:?}", Gf16::new(0xab)), "Gf16(0x00ab)");
    }

    // ---- Table-kernel vs reference-kernel equivalence ------------------

    /// Every one of the 65535 nonzero inverses matches Fermat inversion
    /// over the shift-and-xor reference multiply, and round-trips:
    /// `a · a⁻¹ = 1` under both kernels.
    #[test]
    fn exhaustive_inverse_equivalence() {
        for raw in 1..=u16::MAX {
            let a = Gf16::new(raw);
            let table = a.inv().expect("nonzero inverts");
            let fermat = a.inv_ref().expect("nonzero inverts");
            assert_eq!(table, fermat, "inv mismatch at {raw:#06x}");
            assert_eq!(a * table, Gf16::ONE, "table roundtrip at {raw:#06x}");
            assert_eq!(a.mul_ref(table), Gf16::ONE, "ref roundtrip at {raw:#06x}");
        }
    }

    /// Structured multiplication sweep: every product with one operand in
    /// a small exhaustive band plus the boundary rows agrees with the
    /// reference kernel (the random proptest below covers the rest of the
    /// plane).
    #[test]
    fn multiplication_band_matches_reference() {
        let band: Vec<u16> = (0..64)
            .chain([0x00FF, 0x0100, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF])
            .collect();
        for &a in &band {
            for b in 0..=u16::MAX {
                let x = Gf16::new(a);
                let y = Gf16::new(b);
                assert_eq!(x * y, x.mul_ref(y), "mul mismatch at {a:#06x}·{b:#06x}");
            }
        }
    }

    /// Exhaustive pow spot: a^e agrees with square-and-multiply over the
    /// reference kernel for a sweep of bases and exponents including the
    /// group-order boundaries.
    #[test]
    fn pow_matches_reference_on_boundaries() {
        let exps = [0u32, 1, 2, 3, 16, 255, 65534, 65535, 65536, u32::MAX];
        for raw in (0..=u16::MAX).step_by(257) {
            let a = Gf16::new(raw);
            for &e in &exps {
                assert_eq!(a.pow(e), a.pow_ref(e), "pow mismatch at {raw:#06x}^{e}");
            }
        }
    }

    #[test]
    fn batch_inv_empty_and_all_zero() {
        let mut empty: [Gf16; 0] = [];
        Gf16::batch_inv(&mut empty);
        let mut zeros = [Gf16::ZERO; 4];
        Gf16::batch_inv(&mut zeros);
        assert_eq!(zeros, [Gf16::ZERO; 4]);
    }

    fn arb_gf() -> impl Strategy<Value = Gf16> {
        any::<u16>().prop_map(Gf16::new)
    }

    proptest! {
        #[test]
        fn add_commutative(a in arb_gf(), b in arb_gf()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn mul_commutative(a in arb_gf(), b in arb_gf()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn mul_associative(a in arb_gf(), b in arb_gf(), c in arb_gf()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributive(a in arb_gf(), b in arb_gf(), c in arb_gf()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn inverse_roundtrip(a in arb_gf()) {
            if let Some(ai) = a.inv() {
                prop_assert_eq!(a * ai, Gf16::ONE);
                prop_assert_eq!(a / a, Gf16::ONE);
            } else {
                prop_assert!(a.is_zero());
            }
        }

        #[test]
        fn sub_is_add(a in arb_gf(), b in arb_gf()) {
            prop_assert_eq!(a - b, a + b);
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn no_zero_divisors(a in arb_gf(), b in arb_gf()) {
            if (a * b).is_zero() {
                prop_assert!(a.is_zero() || b.is_zero());
            }
        }

        /// Random products agree between the table and reference kernels.
        #[test]
        fn mul_matches_reference(a in arb_gf(), b in arb_gf()) {
            prop_assert_eq!(a * b, a.mul_ref(b));
        }

        /// Random powers agree between the table and reference kernels.
        #[test]
        fn pow_matches_reference(a in arb_gf(), e in any::<u32>()) {
            prop_assert_eq!(a.pow(e), a.pow_ref(e));
        }

        /// Division agrees with multiply-by-inverse under both kernels.
        #[test]
        fn div_matches_reference(a in arb_gf(), b in arb_gf()) {
            prop_assume!(!b.is_zero());
            prop_assert_eq!(a / b, a.mul_ref(b.inv_ref().unwrap()));
        }

        /// Batch inversion matches element-wise `inv()` (zeros stay zero).
        #[test]
        fn batch_inv_matches_elementwise(
            raw in proptest::collection::vec(any::<u16>(), 0..40),
        ) {
            let mut xs: Vec<Gf16> = raw.iter().map(|&r| Gf16::new(r)).collect();
            let expected: Vec<Gf16> = xs
                .iter()
                .map(|x| x.inv().unwrap_or(Gf16::ZERO))
                .collect();
            Gf16::batch_inv(&mut xs);
            prop_assert_eq!(xs, expected);
        }
    }
}
