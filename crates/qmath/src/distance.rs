//! The paper's synthesis-quality metrics.
//!
//! Synthesis quality is measured by the *trace value*
//! `|Tr(U†V)| / N` (Hilbert–Schmidt inner product, `N = 2` for qubits) and
//! the derived *unitary distance* (paper Eq. 2):
//!
//! ```text
//! D(U, V) = sqrt(1 − |Tr(U†V)|² / N²)
//! ```
//!
//! which for small errors is numerically very close to the operator norm
//! `‖U − V‖` up to global phase (the metric used by `gridsynth`).

use crate::complex::Complex64;
use crate::mat2::Mat2;

/// Hilbert–Schmidt trace value `|Tr(U†V)| / 2 ∈ [0, 1]`.
///
/// ```
/// use qmath::{Mat2, distance::trace_value};
/// assert!((trace_value(&Mat2::h(), &Mat2::h()) - 1.0).abs() < 1e-12);
/// ```
#[inline]
pub fn trace_value(u: &Mat2, v: &Mat2) -> f64 {
    trace_inner(u, v).abs() / 2.0
}

/// The raw complex inner product `Tr(U†V)`.
#[inline]
pub fn trace_inner(u: &Mat2, v: &Mat2) -> Complex64 {
    // Tr(U†V) = Σ_ij conj(U_ij) V_ij.
    let mut acc = Complex64::ZERO;
    for k in 0..4 {
        acc += u.e[k].conj() * v.e[k];
    }
    acc
}

/// Unitary distance `D(U,V) = sqrt(1 − |Tr(U†V)|²/4)` (paper Eq. 2).
///
/// Zero iff `U = V` up to global phase; invariant under global phases of
/// either argument.
///
/// ```
/// use qmath::{Mat2, distance::unitary_distance};
/// let d = unitary_distance(&Mat2::t(), &Mat2::s());
/// assert!(d > 0.1);
/// ```
#[inline]
pub fn unitary_distance(u: &Mat2, v: &Mat2) -> f64 {
    let t = trace_value(u, v).min(1.0);
    (1.0 - t * t).max(0.0).sqrt()
}

/// Operator-norm distance minimized over global phase:
/// `min_φ ‖U − e^{iφ}V‖`.
///
/// This is the error metric used by number-theoretic synthesis methods such
/// as `gridsynth`; the paper notes it is numerically close to
/// [`unitary_distance`] for small errors (§2.4, footnote 4).
pub fn operator_norm_distance(u: &Mat2, v: &Mat2) -> f64 {
    let t = trace_inner(u, v);
    let a = t.abs();
    if a < 1e-300 {
        return (*u - *v).operator_norm();
    }
    // The Frobenius-optimal multiplier for V is conj(t)/|t|: with
    // U = e^{iα}V, t = Tr(U†V) = 2e^{−iα}, and V must be scaled by
    // e^{+iα} to cancel the phase. (Scaling by t/|t| instead *doubles*
    // the phase error — a bug this module shipped with until the verify
    // subsystem's oracle caught it on phase-shifted compiles.)
    let phase = t.conj().scale(1.0 / a);
    (*u - v.scale(phase)).operator_norm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::haar_mat2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_is_zero_up_to_phase() {
        let u = Mat2::u3(0.7, 1.9, -0.3);
        let v = u.scale(Complex64::cis(2.2));
        assert!(unitary_distance(&u, &v) < 1e-10);
    }

    #[test]
    fn distance_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let u = haar_mat2(&mut rng);
            let v = haar_mat2(&mut rng);
            let d1 = unitary_distance(&u, &v);
            let d2 = unitary_distance(&v, &u);
            assert!((d1 - d2).abs() < 1e-12);
        }
    }

    #[test]
    fn distance_bounded_by_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let u = haar_mat2(&mut rng);
            let v = haar_mat2(&mut rng);
            let d = unitary_distance(&u, &v);
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn matches_operator_norm_for_small_errors() {
        // Paper §2.4 footnote 4: D(U,V) ≈ min_φ ‖U − e^{iφ}V‖ for small errors.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let u = haar_mat2(&mut rng);
            let v = u * Mat2::rz(1e-3); // small perturbation
            let d = unitary_distance(&u, &v);
            let o = operator_norm_distance(&u, &v);
            assert!(d <= o + 1e-9, "trace distance should lower-bound");
            assert!((d - o).abs() < 0.3 * o + 1e-9, "d={d}, o={o}");
        }
    }

    #[test]
    fn operator_norm_distance_is_zero_up_to_phase() {
        // Regression: the phase alignment used t/|t| instead of
        // conj(t)/|t|, so a pure global phase produced distance
        // 2·|sin φ| instead of 0.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let u = haar_mat2(&mut rng);
            for phi in [0.3f64, 1.2, -2.0, 3.0] {
                let v = u.scale(Complex64::cis(phi));
                let d = operator_norm_distance(&u, &v);
                assert!(d < 1e-9, "phi = {phi}: distance {d}");
            }
        }
    }

    #[test]
    fn operator_norm_distance_upper_bounds_phase_shifted_perturbations() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let u = haar_mat2(&mut rng);
            let v = (u * Mat2::rz(1e-3)).scale(Complex64::cis(0.9));
            let d = operator_norm_distance(&u, &v);
            assert!(d < 1e-3, "phase must not inflate the distance: {d}");
            assert!(d > 1e-5, "the perturbation itself must register: {d}");
        }
    }

    #[test]
    fn maximal_distance_for_orthogonal_unitaries() {
        // Tr(Z† X) = 0 ⇒ D = 1.
        assert!((unitary_distance(&Mat2::z(), &Mat2::x()) - 1.0).abs() < 1e-12);
    }
}
