//! Euler-angle (`U3`) decomposition of single-qubit unitaries.
//!
//! The `U3` intermediate representation is central to the paper: any
//! single-qubit unitary equals `e^{iα}·U3(θ, φ, λ)`, and the Clifford+Rz
//! workflow lowers a `U3` to three `Rz` rotations interleaved with Hadamards
//! (paper Eq. 1):
//!
//! ```text
//! U3(θ, φ, λ) = Rz(φ + 5π/2) · H · Rz(θ) · H · Rz(λ − π/2)   (up to phase)
//! ```

use crate::complex::Complex64;
use crate::mat2::Mat2;
use std::f64::consts::PI;

/// Euler angles of a single-qubit unitary in the `U3` convention, plus the
/// global phase: `U = e^{iα} · U3(θ, φ, λ)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EulerAngles {
    /// Polar rotation angle `θ ∈ [0, π]`.
    pub theta: f64,
    /// First azimuthal angle `φ ∈ (-π, π]`.
    pub phi: f64,
    /// Second azimuthal angle `λ ∈ (-π, π]`.
    pub lambda: f64,
    /// Global phase `α`.
    pub alpha: f64,
}

impl EulerAngles {
    /// Reconstructs the full unitary `e^{iα}·U3(θ,φ,λ)`.
    pub fn to_matrix(self) -> Mat2 {
        Mat2::u3(self.theta, self.phi, self.lambda).scale(Complex64::cis(self.alpha))
    }
}

/// Extracts `U3` Euler angles (and global phase) from a unitary.
///
/// The result satisfies `u ≈ angles.to_matrix()` exactly (not just up to
/// phase).
///
/// ```
/// use qmath::{Mat2, euler::decompose_u3};
/// let u = Mat2::rz(0.4) * Mat2::rx(1.2) * Mat2::rz(-0.8);
/// let a = decompose_u3(&u);
/// assert!(a.to_matrix().approx_eq(&u, 1e-10));
/// ```
pub fn decompose_u3(u: &Mat2) -> EulerAngles {
    // Strip the determinant phase to work in SU(2):
    // det(U3) = e^{i(φ+λ)}; det(e^{iα} U3) = e^{i(2α+φ+λ)}.
    let m00 = u.e[0];
    let m10 = u.e[2];
    let c = m00.abs().clamp(0.0, 1.0);
    let s = m10.abs().clamp(0.0, 1.0);
    let theta = 2.0 * s.atan2(c);
    // Phases: m00 = e^{iα} cosθ/2, m10 = e^{i(α+φ)} sinθ/2,
    //         m01 = -e^{i(α+λ)} sinθ/2, m11 = e^{i(α+φ+λ)} cosθ/2.
    let (phi, lambda, alpha);
    const EPS: f64 = 1e-12;
    if s < EPS {
        // Diagonal-ish: λ absorbed into φ; pick λ = 0.
        alpha = m00.arg();
        lambda = 0.0;
        phi = (u.e[3] / m00).arg();
    } else if c < EPS {
        // Anti-diagonal: pick λ = 0.
        alpha = m10.arg();
        phi = 0.0;
        lambda = ((-u.e[1]) / m10).arg();
    } else {
        alpha = m00.arg();
        phi = m10.arg() - alpha;
        lambda = (-u.e[1]).arg() - alpha;
    }
    EulerAngles {
        theta,
        phi: wrap_angle(phi),
        lambda: wrap_angle(lambda),
        alpha: wrap_angle(alpha),
    }
}

/// Wraps an angle into `(-π, π]`.
#[inline]
pub fn wrap_angle(a: f64) -> f64 {
    let mut x = a % (2.0 * PI);
    if x <= -PI {
        x += 2.0 * PI;
    } else if x > PI {
        x -= 2.0 * PI;
    }
    x
}

/// Decomposes a unitary into the three Rz angles of the Clifford+Rz
/// workflow: `U ≈ Rz(β₁)·H·Rz(β₂)·H·Rz(β₃)` up to global phase
/// (paper Eq. 1 with `β₁ = φ + 5π/2`? — we verify numerically in tests).
///
/// Returns `(β₁, β₂, β₃)`.
pub fn u3_to_three_rz(theta: f64, phi: f64, lambda: f64) -> (f64, f64, f64) {
    // H·Rz(θ)·H = Rx(θ), and Y = S X S† gives Ry(θ) = Rz(π/2)·Rx(θ)·Rz(−π/2),
    // so U3(θ,φ,λ) ∝ Rz(φ)·Ry(θ)·Rz(λ)
    //             = Rz(φ + π/2)·H·Rz(θ)·H·Rz(λ − π/2),
    // which is the paper's Eq. 1 (5π/2 ≡ π/2 mod 2π).
    (
        wrap_angle(phi + PI / 2.0),
        wrap_angle(theta),
        wrap_angle(lambda - PI / 2.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::haar_mat2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reconstructs the unitary from three-Rz angles:
    /// `Rz(β₁)·H·Rz(β₂)·H·Rz(β₃)`.
    fn three_rz_to_matrix(b1: f64, b2: f64, b3: f64) -> Mat2 {
        Mat2::rz(b1) * Mat2::h() * Mat2::rz(b2) * Mat2::h() * Mat2::rz(b3)
    }

    #[test]
    fn roundtrip_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let u = haar_mat2(&mut rng);
            let a = decompose_u3(&u);
            assert!(a.to_matrix().approx_eq(&u, 1e-9), "{u}");
        }
    }

    #[test]
    fn roundtrip_diagonal() {
        let u = Mat2::rz(0.9);
        let a = decompose_u3(&u);
        assert!(a.to_matrix().approx_eq(&u, 1e-10));
        assert!(a.theta.abs() < 1e-10);
    }

    #[test]
    fn roundtrip_antidiagonal() {
        let u = Mat2::x();
        let a = decompose_u3(&u);
        assert!(a.to_matrix().approx_eq(&u, 1e-10));
        assert!((a.theta - PI).abs() < 1e-10);
    }

    #[test]
    fn three_rz_identity_matches_u3() {
        // The Eq.-1-style identity our pipeline uses.
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let u = haar_mat2(&mut rng);
            let a = decompose_u3(&u);
            let (b1, b2, b3) = u3_to_three_rz(a.theta, a.phi, a.lambda);
            let v = three_rz_to_matrix(b1, b2, b3);
            assert!(
                v.approx_eq_phase(&u, 1e-9),
                "mismatch: u={u} v={v}"
            );
        }
    }

    #[test]
    fn paper_eq1_variant_holds() {
        // Eq. 1 of the paper: U3(θ,φ,λ) = Rz(φ+5π/2)·H·Rz(θ)·H·Rz(λ−π/2)
        // up to global phase. 5π/2 ≡ π/2 mod 2π, so this is exactly our
        // three-Rz lowering.
        let (th, ph, la) = (0.8, 1.4, -0.6);
        let u3 = Mat2::u3(th, ph, la);
        let rhs = Mat2::rz(ph + 5.0 * PI / 2.0)
            * Mat2::h()
            * Mat2::rz(th)
            * Mat2::h()
            * Mat2::rz(la - PI / 2.0);
        assert!(rhs.approx_eq_phase(&u3, 1e-9));
    }

    #[test]
    fn wrap_angle_range() {
        for k in -10..=10 {
            let a = wrap_angle(k as f64 * 1.9);
            assert!(a > -PI - 1e-12 && a <= PI + 1e-12);
        }
    }
}
