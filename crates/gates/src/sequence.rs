//! Gate sequences with resource metrics and peephole simplification.

use crate::gate::Gate;
use qmath::Mat2;
use std::fmt;

/// A sequence of Clifford+T gates denoting the matrix product
/// `g₁·g₂·⋯·gₙ` (see the crate-level convention note).
///
/// ```
/// use gates::{Gate, GateSeq};
/// let mut s = GateSeq::new();
/// s.push(Gate::T);
/// s.push(Gate::T);
/// let t2 = s.simplified();
/// assert_eq!(t2.t_count(), 0); // TT = S
/// assert_eq!(t2.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct GateSeq {
    gates: Vec<Gate>,
}

impl GateSeq {
    /// Creates an empty sequence (the identity).
    pub fn new() -> Self {
        GateSeq::default()
    }

    /// Creates a sequence from a gate list.
    pub fn from_gates(gates: Vec<Gate>) -> Self {
        GateSeq { gates }
    }

    /// The gates, leftmost factor first.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the sequence is empty (identity).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate (as a new rightmost factor).
    pub fn push(&mut self, g: Gate) {
        self.gates.push(g);
    }

    /// Appends all gates of `other`.
    pub fn extend_seq(&mut self, other: &GateSeq) {
        self.gates.extend_from_slice(&other.gates);
    }

    /// Concatenation `self · other`.
    pub fn concat(&self, other: &GateSeq) -> GateSeq {
        let mut g = self.gates.clone();
        g.extend_from_slice(&other.gates);
        GateSeq { gates: g }
    }

    /// The numerical matrix product of the sequence.
    pub fn matrix(&self) -> Mat2 {
        let mut m = Mat2::identity();
        for g in &self.gates {
            m = m * g.matrix();
        }
        m
    }

    /// Number of T/T† gates — the paper's primary resource metric.
    pub fn t_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_t_like()).count()
    }

    /// Number of non-Pauli Clifford gates (`H`, `S`, `S†`); Pauli gates are
    /// free in error-corrected execution and are excluded, following §4.
    pub fn clifford_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.is_clifford() && !g.is_pauli())
            .count()
    }

    /// Number of `H` gates.
    pub fn h_count(&self) -> usize {
        self.gates.iter().filter(|&&g| g == Gate::H).count()
    }

    /// Number of `S`/`S†` gates.
    pub fn s_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|&&g| matches!(g, Gate::S | Gate::Sdg))
            .count()
    }

    /// The inverse sequence (reversed order, each gate inverted).
    pub fn inverse(&self) -> GateSeq {
        GateSeq {
            gates: self.gates.iter().rev().map(|g| g.inverse()).collect(),
        }
    }

    /// Lexicographic resource cost `(T, S+S†, H, total)` used to pick the
    /// "better" of two equivalent sequences (paper step 0).
    pub fn cost(&self) -> (usize, usize, usize, usize) {
        (self.t_count(), self.s_count(), self.h_count(), self.len())
    }

    /// Applies local algebraic rewrites until a fixed point:
    /// inverse-pair cancellation, `TT → S`, `T†T† → S†`, `SS → Z`,
    /// `S†S† → Z`, Pauli-pair cancellation and `XY → iZ`-style fusions
    /// (phases dropped — sequences denote operators up to global phase).
    ///
    /// The result has the same matrix up to a global phase and never more
    /// gates or T gates than the input.
    pub fn simplified(&self) -> GateSeq {
        let mut g = self.gates.clone();
        // Fixpoint on content, not just length: the diagonal-reordering
        // rules ((S,T) → (T,S), …) are length-preserving but monotonically
        // reduce the number of out-of-order diagonal pairs, so this
        // terminates. The fuel bound is a defensive backstop.
        let mut fuel = g.len() * g.len() + 8;
        loop {
            let next = simplify_pass(g.clone());
            let done = next == g;
            g = next;
            fuel = fuel.saturating_sub(1);
            if done || fuel == 0 {
                break;
            }
        }
        GateSeq { gates: g }
    }
}

/// One left-to-right rewriting pass over the gate list.
fn simplify_pass(gates: Vec<Gate>) -> Vec<Gate> {
    let mut out: Vec<Gate> = Vec::with_capacity(gates.len());
    for g in gates {
        let Some(&last) = out.last() else {
            out.push(g);
            continue;
        };
        match (last, g) {
            // Inverse pairs annihilate (H, Paulis are involutions).
            (a, b) if a.inverse() == b => {
                out.pop();
            }
            // Phase fusions: T·T = S, T†·T† = S†, S·S = Z, S†·S† = Z.
            (Gate::T, Gate::T) => {
                out.pop();
                out.push(Gate::S);
            }
            (Gate::Tdg, Gate::Tdg) => {
                out.pop();
                out.push(Gate::Sdg);
            }
            (Gate::S, Gate::S) | (Gate::Sdg, Gate::Sdg) => {
                out.pop();
                out.push(Gate::Z);
            }
            // S·T = T·S (diagonal commute): canonical order T before S so
            // fusions across them fire; also Z commutes with T/S.
            (Gate::S, Gate::T) => {
                out.pop();
                out.push(Gate::T);
                out.push(Gate::S);
            }
            (Gate::Sdg, Gate::Tdg) => {
                out.pop();
                out.push(Gate::Tdg);
                out.push(Gate::Sdg);
            }
            (Gate::Z, Gate::T | Gate::Tdg | Gate::S | Gate::Sdg) => {
                out.pop();
                out.push(g);
                out.push(Gate::Z);
            }
            // Pauli products up to phase: XY~Z, YZ~X, ZX~Y (any order).
            (a, b) if a.is_pauli() && b.is_pauli() => {
                out.pop();
                out.push(pauli_product(a, b));
            }
            // S·T† = T†·S etc. (keep diagonal gates sorted T-like first).
            (Gate::S, Gate::Tdg) => {
                out.pop();
                out.push(Gate::Tdg);
                out.push(Gate::S);
            }
            (Gate::Sdg, Gate::T) => {
                out.pop();
                out.push(Gate::T);
                out.push(Gate::Sdg);
            }
            _ => out.push(g),
        }
    }
    out
}

/// Product of two distinct Pauli gates, up to global phase.
fn pauli_product(a: Gate, b: Gate) -> Gate {
    debug_assert!(a.is_pauli() && b.is_pauli() && a != b);
    match (a, b) {
        (Gate::X, Gate::Y) | (Gate::Y, Gate::X) => Gate::Z,
        (Gate::Y, Gate::Z) | (Gate::Z, Gate::Y) => Gate::X,
        (Gate::Z, Gate::X) | (Gate::X, Gate::Z) => Gate::Y,
        _ => unreachable!("equal Paulis cancel earlier"),
    }
}

impl FromIterator<Gate> for GateSeq {
    fn from_iter<I: IntoIterator<Item = Gate>>(iter: I) -> Self {
        GateSeq {
            gates: iter.into_iter().collect(),
        }
    }
}

impl Extend<Gate> for GateSeq {
    fn extend<I: IntoIterator<Item = Gate>>(&mut self, iter: I) {
        self.gates.extend(iter);
    }
}

impl<'a> IntoIterator for &'a GateSeq {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl fmt::Display for GateSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gates.is_empty() {
            return f.write_str("I");
        }
        for g in &self.gates {
            f.write_str(g.symbol())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(gs: &[Gate]) -> GateSeq {
        GateSeq::from_gates(gs.to_vec())
    }

    #[test]
    fn matrix_product_order() {
        // [H, T] means H·T.
        let s = seq(&[Gate::H, Gate::T]);
        let want = Mat2::h() * Mat2::t();
        assert!(s.matrix().approx_eq(&want, 1e-12));
    }

    #[test]
    fn counts() {
        let s = seq(&[
            Gate::H,
            Gate::T,
            Gate::S,
            Gate::X,
            Gate::Tdg,
            Gate::Z,
            Gate::Sdg,
        ]);
        assert_eq!(s.t_count(), 2);
        assert_eq!(s.clifford_count(), 3); // H, S, Sdg
        assert_eq!(s.h_count(), 1);
        assert_eq!(s.s_count(), 2);
    }

    #[test]
    fn inverse_gives_identity() {
        let s = seq(&[Gate::H, Gate::T, Gate::S, Gate::H, Gate::Tdg]);
        let prod = s.matrix() * s.inverse().matrix();
        assert!(prod.approx_eq_phase(&Mat2::identity(), 1e-10));
    }

    #[test]
    fn simplify_preserves_matrix_up_to_phase() {
        let s = seq(&[
            Gate::T,
            Gate::T,
            Gate::H,
            Gate::H,
            Gate::S,
            Gate::S,
            Gate::X,
            Gate::Y,
            Gate::T,
            Gate::Tdg,
        ]);
        let t = s.simplified();
        assert!(t.matrix().approx_eq_phase(&s.matrix(), 1e-10));
        assert!(t.len() < s.len());
    }

    #[test]
    fn tt_fuses_to_s() {
        let s = seq(&[Gate::T, Gate::T]).simplified();
        assert_eq!(s.gates(), &[Gate::S]);
    }

    #[test]
    fn s_t_commute_enables_fusion() {
        // T S T: S commutes right, TT -> S, SS -> Z.
        let s = seq(&[Gate::T, Gate::S, Gate::T]).simplified();
        assert_eq!(s.t_count(), 0);
        assert!(s
            .matrix()
            .approx_eq_phase(&(Mat2::t() * Mat2::s() * Mat2::t()), 1e-10));
    }

    #[test]
    fn pauli_pair_fuses() {
        let s = seq(&[Gate::X, Gate::Y]).simplified();
        assert_eq!(s.gates(), &[Gate::Z]);
        let s = seq(&[Gate::X, Gate::X]).simplified();
        assert!(s.is_empty());
    }

    #[test]
    fn simplified_never_increases_t() {
        let s = seq(&[Gate::T, Gate::H, Gate::T, Gate::H, Gate::Tdg, Gate::T]);
        assert!(s.simplified().t_count() <= s.t_count());
    }

    #[test]
    fn display_roundtrip() {
        let s = seq(&[Gate::H, Gate::T, Gate::Sdg]);
        assert_eq!(s.to_string(), "HTs");
    }
}
