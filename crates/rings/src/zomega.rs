//! The cyclotomic ring `Z[ω]`, `ω = e^{iπ/4}`.

use crate::zroot2::ZRoot2;
use qmath::Complex64;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An element `a₀ + a₁ω + a₂ω² + a₃ω³` of `Z[ω]`, with `ω = e^{iπ/4}` and
/// `ω⁴ = −1`.
///
/// Useful identities: `ω² = i`, `√2 = ω − ω³`, `i√2 = ω + ω³`.
///
/// `Z[ω]` is norm-Euclidean; [`ZOmega::gcd`] implements the Euclidean
/// algorithm used when splitting rational primes for the Diophantine step
/// of `gridsynth`.
///
/// ```
/// use rings::ZOmega;
/// assert_eq!(ZOmega::sqrt2() * ZOmega::sqrt2(), ZOmega::from_int(2));
/// assert_eq!(ZOmega::i() * ZOmega::i(), ZOmega::from_int(-1));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ZOmega {
    /// Coefficient of `ω⁰ = 1`.
    pub a0: i128,
    /// Coefficient of `ω¹`.
    pub a1: i128,
    /// Coefficient of `ω² = i`.
    pub a2: i128,
    /// Coefficient of `ω³`.
    pub a3: i128,
}

impl ZOmega {
    /// Zero.
    pub const ZERO: ZOmega = ZOmega::new(0, 0, 0, 0);
    /// One.
    pub const ONE: ZOmega = ZOmega::new(1, 0, 0, 0);

    /// Creates `a₀ + a₁ω + a₂ω² + a₃ω³`.
    #[inline]
    pub const fn new(a0: i128, a1: i128, a2: i128, a3: i128) -> Self {
        ZOmega { a0, a1, a2, a3 }
    }

    /// Embeds a rational integer.
    #[inline]
    pub const fn from_int(n: i128) -> Self {
        ZOmega::new(n, 0, 0, 0)
    }

    /// The generator `ω`.
    #[inline]
    pub const fn omega() -> Self {
        ZOmega::new(0, 1, 0, 0)
    }

    /// The imaginary unit `i = ω²`.
    #[inline]
    pub const fn i() -> Self {
        ZOmega::new(0, 0, 1, 0)
    }

    /// `√2 = ω − ω³`.
    #[inline]
    pub const fn sqrt2() -> Self {
        ZOmega::new(0, 1, 0, -1)
    }

    /// Embeds a `Z[√2]` element (`a + b√2 = a + b(ω − ω³)`).
    #[inline]
    pub const fn from_zroot2(x: ZRoot2) -> Self {
        ZOmega::new(x.a, x.b, 0, -x.b)
    }

    /// Complex conjugate `z† = a₀ − a₃ω − a₂ω² − a₁ω³`.
    #[inline]
    pub const fn conj(self) -> Self {
        ZOmega::new(self.a0, -self.a3, -self.a2, -self.a1)
    }

    /// √2-conjugate (Galois `σ₅: ω ↦ ω⁵ = −ω`, fixing `i`):
    /// negates the odd coefficients.
    #[inline]
    pub const fn conj2(self) -> Self {
        ZOmega::new(self.a0, -self.a1, self.a2, -self.a3)
    }

    /// Relative norm `z†·z ∈ Z[√2]` — the squared complex modulus as an
    /// exact element of `Z[√2]`.
    pub fn norm_zroot2(self) -> ZRoot2 {
        let p = self.conj() * self;
        debug_assert_eq!(p.a2, 0, "z†z must be real");
        debug_assert_eq!(p.a1, -p.a3, "z†z must lie in Z[√2]");
        ZRoot2::new(p.a0, p.a1)
    }

    /// Absolute field norm `N(z) = (z†z)·(z†z)• ∈ Z`, always ≥ 0.
    pub fn norm(self) -> i128 {
        self.norm_zroot2().norm()
    }

    /// `true` iff this is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.a0 == 0 && self.a1 == 0 && self.a2 == 0 && self.a3 == 0
    }

    /// `true` iff this is a unit of `Z[ω]` (absolute norm 1).
    pub fn is_unit(self) -> bool {
        self.norm() == 1
    }

    /// Numerical embedding into the complex plane.
    pub fn to_complex(self) -> Complex64 {
        const H: f64 = std::f64::consts::FRAC_1_SQRT_2;
        Complex64::new(
            self.a0 as f64 + (self.a1 as f64 - self.a3 as f64) * H,
            self.a2 as f64 + (self.a1 as f64 + self.a3 as f64) * H,
        )
    }

    /// Multiplication by `ω^k` (k may be any integer; `ω⁸ = 1`).
    pub fn mul_omega_pow(self, k: i32) -> ZOmega {
        let mut z = self;
        let k = k.rem_euclid(8);
        for _ in 0..k {
            // Multiply by ω: coefficients shift up, ω⁴ = −1 wraps with sign.
            z = ZOmega::new(-z.a3, z.a0, z.a1, z.a2);
        }
        z
    }

    /// `true` iff `√2` divides this element.
    pub fn divisible_by_sqrt2(self) -> bool {
        // z/√2 = z·√2/2; z·√2 has coefficients (a1−a3, a0+a2, a1+a3, a2−a0)
        // — all must be even.
        (self.a1 - self.a3) % 2 == 0
            && (self.a0 + self.a2) % 2 == 0
            && (self.a1 + self.a3) % 2 == 0
            && (self.a2 - self.a0) % 2 == 0
    }

    /// Exact division by `√2`. Returns `None` when not divisible.
    pub fn div_sqrt2(self) -> Option<ZOmega> {
        if !self.divisible_by_sqrt2() {
            return None;
        }
        let z = self * ZOmega::sqrt2();
        Some(ZOmega::new(z.a0 / 2, z.a1 / 2, z.a2 / 2, z.a3 / 2))
    }

    /// Euclidean division: `(q, r)` with `self = q·other + r` and
    /// `N(r) < N(other)`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(self, other: ZOmega) -> (ZOmega, ZOmega) {
        assert!(!other.is_zero(), "division by zero in Z[ω]");
        // self/other = self·other'/N(other) where other' is the product of
        // the three nontrivial conjugates of `other`.
        let c1 = other.conj();
        let c2 = other.conj2();
        let c3 = other.conj().conj2();
        let num = self * c1 * c2 * c3;
        let n = other.norm();
        let q = ZOmega::new(
            round_div(num.a0, n),
            round_div(num.a1, n),
            round_div(num.a2, n),
            round_div(num.a3, n),
        );
        let r = self - q * other;
        (q, r)
    }

    /// Greatest common divisor (up to units).
    pub fn gcd(self, other: ZOmega) -> ZOmega {
        let (mut x, mut y) = (self, other);
        let mut steps = 0;
        while !y.is_zero() {
            let (_, r) = x.div_rem(y);
            x = y;
            y = r;
            steps += 1;
            assert!(steps < 10_000, "gcd failed to converge");
        }
        x
    }

    /// Exact division. Returns `None` when `other` does not divide `self`.
    pub fn exact_div(self, other: ZOmega) -> Option<ZOmega> {
        let (q, r) = self.div_rem(other);
        if r.is_zero() {
            Some(q)
        } else {
            None
        }
    }
}

/// Rounds `a / b` to nearest (ties toward +∞), exactly.
fn round_div(a: i128, b: i128) -> i128 {
    debug_assert!(b != 0);
    let (a, b) = if b < 0 { (-a, -b) } else { (a, b) };
    (2 * a + b).div_euclid(2 * b)
}

impl Add for ZOmega {
    type Output = ZOmega;
    #[inline]
    fn add(self, r: ZOmega) -> ZOmega {
        ZOmega::new(
            self.a0 + r.a0,
            self.a1 + r.a1,
            self.a2 + r.a2,
            self.a3 + r.a3,
        )
    }
}

impl Sub for ZOmega {
    type Output = ZOmega;
    #[inline]
    fn sub(self, r: ZOmega) -> ZOmega {
        ZOmega::new(
            self.a0 - r.a0,
            self.a1 - r.a1,
            self.a2 - r.a2,
            self.a3 - r.a3,
        )
    }
}

impl Mul for ZOmega {
    type Output = ZOmega;
    #[inline]
    fn mul(self, r: ZOmega) -> ZOmega {
        // (Σ aᵢωⁱ)(Σ bⱼωʲ) with ω⁴ = −1.
        let (a0, a1, a2, a3) = (self.a0, self.a1, self.a2, self.a3);
        let (b0, b1, b2, b3) = (r.a0, r.a1, r.a2, r.a3);
        ZOmega::new(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        )
    }
}

impl Neg for ZOmega {
    type Output = ZOmega;
    #[inline]
    fn neg(self) -> ZOmega {
        ZOmega::new(-self.a0, -self.a1, -self.a2, -self.a3)
    }
}

impl fmt::Display for ZOmega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({} + {}ω + {}ω² + {}ω³)",
            self.a0, self.a1, self.a2, self.a3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(a0: i128, a1: i128, a2: i128, a3: i128) -> ZOmega {
        ZOmega::new(a0, a1, a2, a3)
    }

    #[test]
    fn omega_has_order_eight() {
        let mut w = ZOmega::ONE;
        for _ in 0..8 {
            w = w * ZOmega::omega();
        }
        assert_eq!(w, ZOmega::ONE);
        assert_eq!(
            ZOmega::omega().mul_omega_pow(3),
            ZOmega::new(0, 0, 0, 0) - ZOmega::ONE * ZOmega::from_int(1)
        );
    }

    #[test]
    fn sqrt2_squares_to_two() {
        assert_eq!(ZOmega::sqrt2() * ZOmega::sqrt2(), ZOmega::from_int(2));
        // i√2 = ω + ω³.
        let i_sqrt2 = ZOmega::new(0, 1, 0, 1);
        assert_eq!(i_sqrt2 * i_sqrt2, ZOmega::from_int(-2));
    }

    #[test]
    fn complex_embedding_is_homomorphism() {
        let x = z(3, -1, 2, 5);
        let y = z(-2, 4, 1, -3);
        let lhs = (x * y).to_complex();
        let rhs = x.to_complex() * y.to_complex();
        assert!(lhs.approx_eq(rhs, 1e-9));
        let lhs = (x + y).to_complex();
        let rhs = x.to_complex() + y.to_complex();
        assert!(lhs.approx_eq(rhs, 1e-9));
    }

    #[test]
    fn conj_matches_complex_conjugation() {
        let x = z(3, -1, 2, 5);
        assert!(x
            .conj()
            .to_complex()
            .approx_eq(x.to_complex().conj(), 1e-9));
    }

    #[test]
    fn conj2_negates_sqrt2() {
        let s = ZOmega::sqrt2();
        assert_eq!(s.conj2(), -s);
        // conj2 fixes i:
        assert_eq!(ZOmega::i().conj2(), ZOmega::i());
        // and is a ring homomorphism:
        let x = z(3, -1, 2, 5);
        let y = z(-2, 4, 1, -3);
        assert_eq!((x * y).conj2(), x.conj2() * y.conj2());
    }

    #[test]
    fn norm_zroot2_matches_modulus() {
        let x = z(3, -1, 2, 5);
        let n = x.norm_zroot2().to_f64();
        let m = x.to_complex().norm_sqr();
        assert!((n - m).abs() < 1e-9);
    }

    #[test]
    fn norm_is_multiplicative() {
        let x = z(3, -1, 2, 5);
        let y = z(-2, 4, 1, -3);
        assert_eq!((x * y).norm(), x.norm() * y.norm());
        assert!(x.norm() >= 0);
    }

    #[test]
    fn div_rem_is_euclidean() {
        let cases = [
            (z(17, 5, -3, 2), z(3, 1, 0, -1)),
            (z(-23, 11, 7, -5), z(2, -3, 1, 0)),
            (z(100, -41, 13, 9), z(1, 1, 1, 1)),
        ];
        for (x, y) in cases {
            let (q, r) = x.div_rem(y);
            assert_eq!(q * y + r, x);
            assert!(r.norm() < y.norm(), "remainder norm too large");
        }
    }

    #[test]
    fn gcd_of_multiples() {
        let g0 = z(2, 1, 0, -1);
        let x = g0 * z(5, -2, 3, 1);
        let y = g0 * z(-1, 7, 2, 2);
        let g = x.gcd(y);
        assert!(x.exact_div(g).is_some());
        assert!(y.exact_div(g).is_some());
        assert!(g.exact_div(g0).is_some(), "gcd must contain g0");
    }

    #[test]
    fn div_sqrt2_roundtrip() {
        let x = z(3, -1, 2, 5) * ZOmega::sqrt2();
        let y = x.div_sqrt2().expect("divisible");
        assert_eq!(y * ZOmega::sqrt2(), x);
        assert_eq!(z(1, 0, 0, 0).div_sqrt2(), None);
    }

    #[test]
    fn from_zroot2_embedding() {
        let x = ZRoot2::new(3, -2);
        let e = ZOmega::from_zroot2(x);
        assert!((e.to_complex().re - x.to_f64()).abs() < 1e-9);
        assert!(e.to_complex().im.abs() < 1e-12);
        // Embedding respects multiplication.
        let y = ZRoot2::new(-1, 4);
        assert_eq!(
            ZOmega::from_zroot2(x * y),
            ZOmega::from_zroot2(x) * ZOmega::from_zroot2(y)
        );
    }
}
