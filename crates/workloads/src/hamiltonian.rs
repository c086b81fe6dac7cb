//! Trotterized Hamiltonian-simulation circuits.
//!
//! A Hamiltonian is a list of weighted Pauli strings; one first-order
//! Trotter step exponentiates each term via the standard basis-change +
//! CNOT-ladder + `Rz` construction. *Quantum* Hamiltonians (X/Y/Z mixes:
//! Heisenberg, TFIM, XY) produce `Rx`/`Ry`/`Rz` rotations after basis
//! changes — rich merge opportunities for the `U3` IR — while *classical*
//! Hamiltonians (Z-only Ising) produce only `Rz`, the paper's
//! low-headroom category (Figure 10).

use circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A single-qubit Pauli factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pauli {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

/// A weighted Pauli string: a list of `(qubit, Pauli)` factors and a
/// coefficient.
#[derive(Clone, Debug)]
pub struct PauliTerm {
    /// Non-identity factors, qubit-ascending.
    pub factors: Vec<(usize, Pauli)>,
    /// Coefficient (the rotation angle is `2·coeff·dt`).
    pub coeff: f64,
}

/// A Hamiltonian as a term list over `n` qubits.
#[derive(Clone, Debug)]
pub struct Hamiltonian {
    /// Number of qubits.
    pub n: usize,
    /// Weighted Pauli terms.
    pub terms: Vec<PauliTerm>,
}

/// Appends `exp(−i·angle/2·P)` for one Pauli string.
fn append_term(c: &mut Circuit, term: &PauliTerm, angle: f64) {
    if term.factors.is_empty() {
        return; // global phase
    }
    // Single-factor fast path: a bare axis rotation, no ladder.
    if term.factors.len() == 1 {
        let (q, p) = term.factors[0];
        match p {
            Pauli::X => c.rx(q, angle),
            Pauli::Y => c.ry(q, angle),
            Pauli::Z => c.rz(q, angle),
        }
        return;
    }
    // Basis changes into Z.
    for &(q, p) in &term.factors {
        match p {
            Pauli::X => c.h(q),
            Pauli::Y => {
                c.gate(q, gates::Gate::Sdg);
                c.h(q);
            }
            Pauli::Z => {}
        }
    }
    // CNOT ladder onto the last qubit.
    let qubits: Vec<usize> = term.factors.iter().map(|&(q, _)| q).collect();
    let last = *qubits.last().expect("non-empty");
    for w in qubits.windows(2) {
        c.cx(w[0], w[1]);
    }
    c.rz(last, angle);
    for w in qubits.windows(2).rev() {
        c.cx(w[0], w[1]);
    }
    // Undo basis changes.
    for &(q, p) in &term.factors {
        match p {
            Pauli::X => c.h(q),
            Pauli::Y => {
                c.h(q);
                c.gate(q, gates::Gate::S);
            }
            Pauli::Z => {}
        }
    }
}

/// First-order Trotter circuit: `steps` repetitions of all terms with
/// time step `dt`.
pub fn trotter_circuit(h: &Hamiltonian, steps: usize, dt: f64) -> Circuit {
    let mut c = Circuit::new(h.n);
    for _ in 0..steps {
        for term in &h.terms {
            append_term(&mut c, term, 2.0 * term.coeff * dt);
        }
    }
    c
}

/// Heisenberg XXZ chain: `Σ J(XᵢXᵢ₊₁ + YᵢYᵢ₊₁) + Δ·ZᵢZᵢ₊₁ + h·Zᵢ`.
pub fn heisenberg_chain(n: usize, j: f64, delta: f64, field: f64) -> Hamiltonian {
    let mut terms = Vec::new();
    for i in 0..n - 1 {
        for (p, w) in [(Pauli::X, j), (Pauli::Y, j), (Pauli::Z, delta)] {
            terms.push(PauliTerm {
                factors: vec![(i, p), (i + 1, p)],
                coeff: w,
            });
        }
    }
    for i in 0..n {
        terms.push(PauliTerm {
            factors: vec![(i, Pauli::Z)],
            coeff: field,
        });
    }
    Hamiltonian { n, terms }
}

/// Transverse-field Ising model: `Σ J·ZᵢZᵢ₊₁ + g·Xᵢ`.
pub fn tfim_chain(n: usize, j: f64, g: f64) -> Hamiltonian {
    let mut terms = Vec::new();
    for i in 0..n - 1 {
        terms.push(PauliTerm {
            factors: vec![(i, Pauli::Z), (i + 1, Pauli::Z)],
            coeff: j,
        });
    }
    for i in 0..n {
        terms.push(PauliTerm {
            factors: vec![(i, Pauli::X)],
            coeff: g,
        });
    }
    Hamiltonian { n, terms }
}

/// XY chain: `Σ J(XᵢXᵢ₊₁ + YᵢYᵢ₊₁)`.
pub fn xy_chain(n: usize, j: f64) -> Hamiltonian {
    let mut terms = Vec::new();
    for i in 0..n - 1 {
        for p in [Pauli::X, Pauli::Y] {
            terms.push(PauliTerm {
                factors: vec![(i, p), (i + 1, p)],
                coeff: j,
            });
        }
    }
    Hamiltonian { n, terms }
}

/// Random k-local Pauli Hamiltonian with X/Y/Z factors (a "quantum
/// Hamiltonian" in the paper's categorization).
pub fn random_pauli_hamiltonian(n: usize, terms: usize, k: usize, seed: u64) -> Hamiltonian {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(terms);
    for _ in 0..terms {
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in (1..qubits.len()).rev() {
            let j = rng.gen_range(0..=i);
            qubits.swap(i, j);
        }
        let mut factors: Vec<(usize, Pauli)> = qubits
            .into_iter()
            .take(k.max(1).min(n))
            .map(|q| {
                let p = match rng.gen_range(0..3) {
                    0 => Pauli::X,
                    1 => Pauli::Y,
                    _ => Pauli::Z,
                };
                (q, p)
            })
            .collect();
        factors.sort_by_key(|&(q, _)| q);
        out.push(PauliTerm {
            factors,
            coeff: rng.gen_range(-1.0..1.0),
        });
    }
    Hamiltonian { n, terms: out }
}

/// Random classical Ising Hamiltonian: `Σ J_{ij}·ZᵢZⱼ + hᵢ·Zᵢ` on a random
/// graph with edge density `density`.
pub fn random_ising(n: usize, density: f64, seed: u64) -> Hamiltonian {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut terms = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < density {
                terms.push(PauliTerm {
                    factors: vec![(i, Pauli::Z), (j, Pauli::Z)],
                    coeff: rng.gen_range(-1.0..1.0),
                });
            }
        }
        terms.push(PauliTerm {
            factors: vec![(i, Pauli::Z)],
            coeff: rng.gen_range(-1.0..1.0),
        });
    }
    Hamiltonian { n, terms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::metrics::{cx_count, rotation_count};

    #[test]
    fn trotter_rotation_count_matches_terms() {
        let h = tfim_chain(5, 1.0, 0.7);
        let c = trotter_circuit(&h, 2, 0.1);
        // Each term yields exactly one rotation per step (angles generic).
        assert_eq!(rotation_count(&c), 2 * h.terms.len());
    }

    #[test]
    fn two_qubit_terms_use_cnot_ladders() {
        let h = tfim_chain(4, 1.0, 0.0);
        // Drop the zero-coefficient X terms? coeff 0 still emits rotations;
        // count CNOTs instead: 3 ZZ terms × 2 CNOTs each.
        let c = trotter_circuit(&h, 1, 0.1);
        assert_eq!(cx_count(&c), 6);
    }

    #[test]
    fn trotter_step_approximates_evolution_on_two_qubits() {
        use qmath::CMatrix;
        use sim::State;
        // exp(-i dt Z⊗Z) on |++>: compare one fine-grained Trotter circuit
        // against the dense matrix exponential (diagonal, so exact).
        let h = Hamiltonian {
            n: 2,
            terms: vec![PauliTerm {
                factors: vec![(0, Pauli::Z), (1, Pauli::Z)],
                coeff: 1.0,
            }],
        };
        let dt = 0.3;
        let mut prep = Circuit::new(2);
        prep.h(0);
        prep.h(1);
        let mut trot = prep.clone();
        trot.extend_circuit(&trotter_circuit(&h, 1, dt));
        let mut s = State::zero(2);
        s.apply_circuit(&trot);
        // Exact: diag(e^{-i dt}, e^{i dt}, e^{i dt}, e^{-i dt}) on |++>.
        let mut exact = CMatrix::zeros(4, 1);
        for b in 0..4usize {
            let parity = ((b >> 1) ^ b) & 1;
            let phase = if parity == 0 { -dt } else { dt };
            exact[(b, 0)] = qmath::Complex64::cis(phase).scale(0.5);
        }
        let mut fid = qmath::Complex64::ZERO;
        for b in 0..4 {
            fid += exact[(b, 0)].conj() * s.amplitudes()[b];
        }
        assert!(
            (fid.norm_sqr() - 1.0).abs() < 1e-9,
            "single ZZ term must Trotterize exactly, fid² = {}",
            fid.norm_sqr()
        );
    }

    #[test]
    fn random_hamiltonians_are_reproducible() {
        let a = random_pauli_hamiltonian(6, 10, 2, 42);
        let b = random_pauli_hamiltonian(6, 10, 2, 42);
        assert_eq!(a.terms.len(), b.terms.len());
        for (x, y) in a.terms.iter().zip(b.terms.iter()) {
            assert_eq!(x.factors, y.factors);
            assert_eq!(x.coeff, y.coeff);
        }
    }
}
