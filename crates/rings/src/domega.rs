//! Dyadic cyclotomic numbers `z/√2^k` — entries of exactly synthesizable
//! Clifford+T unitaries.

use crate::zomega::ZOmega;
use qmath::Complex64;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An element of `Z[ω, 1/√2]`, stored as `num / √2^k` and kept reduced
/// (either `k = 0` or `num` not divisible by `√2`).
///
/// The reduced exponent `k` is the *smallest denominator exponent* (sde),
/// the quantity the Kliuchnikov–Maslov–Mosca exact-synthesis recursion
/// drives to zero.
///
/// ```
/// use rings::{DOmega, ZOmega};
/// let half = DOmega::new(ZOmega::from_int(1), 2); // 1/√2² = 1/2
/// assert_eq!((half + half), DOmega::from_int(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DOmega {
    num: ZOmega,
    k: u32,
}

impl DOmega {
    /// Zero.
    pub const ZERO: DOmega = DOmega {
        num: ZOmega::ZERO,
        k: 0,
    };
    /// One.
    pub const ONE: DOmega = DOmega {
        num: ZOmega::ONE,
        k: 0,
    };

    /// Creates `num/√2^k` and reduces.
    pub fn new(num: ZOmega, k: u32) -> Self {
        DOmega { num, k }.reduced()
    }

    /// Embeds an integer.
    pub fn from_int(n: i128) -> Self {
        DOmega {
            num: ZOmega::from_int(n),
            k: 0,
        }
    }

    /// Embeds a `Z[ω]` element.
    pub fn from_zomega(z: ZOmega) -> Self {
        DOmega { num: z, k: 0 }
    }

    /// Numerator after reduction.
    #[inline]
    pub fn num(&self) -> ZOmega {
        self.num
    }

    /// Reduced denominator exponent (the sde).
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    fn reduced(mut self) -> Self {
        if self.num.is_zero() {
            self.k = 0;
            return self;
        }
        while self.k > 0 {
            match self.num.div_sqrt2() {
                Some(q) => {
                    self.num = q;
                    self.k -= 1;
                }
                None => break,
            }
        }
        self
    }

    /// Rescales to the given (larger) denominator exponent, returning the
    /// numerator at that scale. Returns `None` if `k < self.k()`.
    pub fn num_at(&self, k: u32) -> Option<ZOmega> {
        if k < self.k {
            return None;
        }
        let mut z = self.num;
        for _ in 0..(k - self.k) {
            z = z * ZOmega::sqrt2();
        }
        Some(z)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        DOmega {
            num: self.num.conj(),
            k: self.k,
        }
    }

    /// √2-conjugate: also flips the sign of odd powers of the denominator
    /// (`(1/√2)• = −1/√2`).
    pub fn conj2(self) -> Self {
        let mut n = self.num.conj2();
        if self.k % 2 == 1 {
            n = -n;
        }
        DOmega { num: n, k: self.k }
    }

    /// `true` iff zero.
    pub fn is_zero(self) -> bool {
        self.num.is_zero()
    }

    /// Numerical value.
    pub fn to_complex(self) -> Complex64 {
        let scale = 2.0f64.powi(-(self.k as i32) / 2)
            * if self.k % 2 == 1 {
                std::f64::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
        self.num.to_complex().scale(scale)
    }

    /// Multiplication by `ω^j`.
    pub fn mul_omega_pow(self, j: i32) -> Self {
        DOmega {
            num: self.num.mul_omega_pow(j),
            k: self.k,
        }
    }
}

impl Add for DOmega {
    type Output = DOmega;
    fn add(self, r: DOmega) -> DOmega {
        let k = self.k.max(r.k);
        let a = self.num_at(k).expect("k >= self.k");
        let b = r.num_at(k).expect("k >= r.k");
        DOmega::new(a + b, k)
    }
}

impl Sub for DOmega {
    type Output = DOmega;
    fn sub(self, r: DOmega) -> DOmega {
        self + (-r)
    }
}

impl Mul for DOmega {
    type Output = DOmega;
    fn mul(self, r: DOmega) -> DOmega {
        DOmega::new(self.num * r.num, self.k + r.k)
    }
}

impl Neg for DOmega {
    type Output = DOmega;
    fn neg(self) -> DOmega {
        DOmega {
            num: -self.num,
            k: self.k,
        }
    }
}

impl fmt::Display for DOmega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/√2^{}", self.num, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_normalizes() {
        let two_over_two = DOmega::new(ZOmega::from_int(2), 2);
        assert_eq!(two_over_two, DOmega::from_int(1));
        assert_eq!(two_over_two.k(), 0);
    }

    #[test]
    fn arithmetic_matches_complex() {
        let x = DOmega::new(ZOmega::new(3, -1, 2, 5), 3);
        let y = DOmega::new(ZOmega::new(-2, 4, 1, -3), 5);
        assert!((x + y)
            .to_complex()
            .approx_eq(x.to_complex() + y.to_complex(), 1e-9));
        assert!((x * y)
            .to_complex()
            .approx_eq(x.to_complex() * y.to_complex(), 1e-9));
        assert!((x - y)
            .to_complex()
            .approx_eq(x.to_complex() - y.to_complex(), 1e-9));
    }

    #[test]
    fn conj2_handles_odd_k() {
        // (1/√2)• = -1/√2: real part negates.
        let x = DOmega::new(ZOmega::from_int(1), 1);
        let c = x.conj2();
        assert!((c.to_complex().re + x.to_complex().re).abs() < 1e-12);
    }

    #[test]
    fn conj_matches_complex() {
        let x = DOmega::new(ZOmega::new(3, -1, 2, 5), 3);
        assert!(x
            .conj()
            .to_complex()
            .approx_eq(x.to_complex().conj(), 1e-9));
    }

    #[test]
    fn sde_reduces_fully() {
        // (√2)³/√2³ = 1.
        let z = ZOmega::sqrt2() * ZOmega::sqrt2() * ZOmega::sqrt2();
        let x = DOmega::new(z, 3);
        assert_eq!(x, DOmega::ONE);
    }
}
