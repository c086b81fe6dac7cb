//! Single-qubit channels in the Pauli transfer matrix picture.
//!
//! A channel `E` is represented by the real 4×4 matrix
//! `R_ij = ½·tr(Pᵢ·E(Pⱼ))` over the Pauli basis `{I, X, Y, Z}`. Unitary
//! conjugation, depolarizing noise, and composition are all exact matrix
//! operations here, which makes the RQ2 process-fidelity sweep exact
//! rather than sampled.

use qmath::Mat2;

/// A single-qubit Pauli transfer matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ptm {
    /// Row-major 4×4 entries over `{I, X, Y, Z}`.
    pub m: [[f64; 4]; 4],
}

impl Ptm {
    /// The identity channel.
    pub fn identity() -> Self {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        Ptm { m }
    }

    /// The PTM of unitary conjugation `ρ ↦ UρU†`.
    pub fn from_unitary(u: &Mat2) -> Self {
        let paulis = pauli_basis();
        let ud = u.adjoint();
        let mut m = [[0.0; 4]; 4];
        for (j, pj) in paulis.iter().enumerate() {
            let image = *u * *pj * ud;
            for (i, pi) in paulis.iter().enumerate() {
                let t = (*pi * image).trace();
                m[i][j] = t.re / 2.0;
            }
        }
        Ptm { m }
    }

    /// Depolarizing channel `E(ρ) = (1−λ)ρ + λ·I/2`.
    pub fn depolarizing(lambda: f64) -> Self {
        let mut p = Ptm::identity();
        for i in 1..4 {
            p.m[i][i] = 1.0 - lambda;
        }
        p
    }

    /// Channel composition: `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Ptm) -> Ptm {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += self.m[i][k] * other.m[k][j];
                }
                *cell = acc;
            }
        }
        Ptm { m }
    }

    /// Process (entanglement) fidelity against another channel:
    /// `F = tr(R₁ᵀ·R₂)/4`. For `R₁` unitary and `R₂` its noisy version
    /// this is the operational fidelity used by RQ2.
    pub fn process_fidelity(&self, other: &Ptm) -> f64 {
        let mut acc = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                acc += self.m[i][j] * other.m[i][j];
            }
        }
        acc / 4.0
    }

    /// Process infidelity `1 − F` (clamped at 0).
    pub fn process_infidelity(&self, other: &Ptm) -> f64 {
        (1.0 - self.process_fidelity(other)).max(0.0)
    }
}

/// The Pauli matrices `{I, X, Y, Z}`.
pub fn pauli_basis() -> [Mat2; 4] {
    [Mat2::identity(), Mat2::x(), Mat2::y(), Mat2::z()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::Complex64;

    #[test]
    fn identity_channel_is_identity_matrix() {
        let p = Ptm::from_unitary(&Mat2::identity());
        assert_eq!(p, Ptm::identity());
    }

    #[test]
    fn unitary_ptms_are_orthogonal_matrices() {
        for u in [Mat2::h(), Mat2::t(), Mat2::u3(0.3, 0.8, -0.2)] {
            let p = Ptm::from_unitary(&u);
            // First row/column: trace preservation + unitality.
            assert!((p.m[0][0] - 1.0).abs() < 1e-12);
            for i in 1..4 {
                assert!(p.m[0][i].abs() < 1e-12);
                assert!(p.m[i][0].abs() < 1e-12);
            }
            // The 3×3 block is orthogonal: PᵀP = I.
            for i in 1..4 {
                for j in 1..4 {
                    let dot: f64 = (1..4).map(|k| p.m[k][i] * p.m[k][j]).sum();
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn composition_matches_matrix_product_of_unitaries() {
        let a = Mat2::u3(0.3, 0.5, 0.7);
        let b = Mat2::u3(-0.4, 1.1, 0.2);
        let pa = Ptm::from_unitary(&a);
        let pb = Ptm::from_unitary(&b);
        let pab = Ptm::from_unitary(&(a * b));
        let comp = pa.compose(&pb);
        for i in 0..4 {
            for j in 0..4 {
                assert!((pab.m[i][j] - comp.m[i][j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn depolarizing_fidelity_closed_form() {
        // F(identity, depolarizing λ) = (1 + 3(1−λ))/4 = 1 − 3λ/4.
        let lam = 0.12;
        let f = Ptm::identity().process_fidelity(&Ptm::depolarizing(lam));
        assert!((f - (1.0 - 0.75 * lam)).abs() < 1e-12);
    }

    #[test]
    fn process_fidelity_of_equal_unitaries_is_one() {
        let u = Mat2::u3(1.3, -0.5, 0.9);
        let p = Ptm::from_unitary(&u);
        assert!((p.process_fidelity(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_phase_invisible_to_ptm() {
        let u = Mat2::u3(1.3, -0.5, 0.9);
        let v = u.scale(Complex64::cis(0.7));
        let pu = Ptm::from_unitary(&u);
        let pv = Ptm::from_unitary(&v);
        for i in 0..4 {
            for j in 0..4 {
                assert!((pu.m[i][j] - pv.m[i][j]).abs() < 1e-12);
            }
        }
    }
}
