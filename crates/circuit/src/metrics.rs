//! Resource metrics for circuits (paper §4 "Metrics").

use crate::ir::{Circuit, Op};
use crate::trivial::is_nontrivial;

/// Number of *nontrivial* rotations — parametrized single-qubit ops whose
/// unitary needs more than one T gate (paper footnote 3).
pub fn rotation_count(c: &Circuit) -> usize {
    c.instrs()
        .iter()
        .filter(|i| i.op.is_rotation() && is_nontrivial(&i.op.matrix()))
        .count()
}

/// Number of T/T† gates among the discrete ops.
pub fn t_count(c: &Circuit) -> usize {
    c.instrs()
        .iter()
        .filter(|i| matches!(i.op, Op::Gate1(g) if g.is_t_like()))
        .count()
}

/// Number of non-Pauli Clifford gates (`H`, `S`, `S†`) among the discrete
/// ops. Pauli gates are free under Pauli-frame tracking and excluded,
/// following the paper.
pub fn clifford_count(c: &Circuit) -> usize {
    c.instrs()
        .iter()
        .filter(|i| matches!(i.op, Op::Gate1(g) if g.is_clifford() && !g.is_pauli()))
        .count()
}

/// Number of CNOTs.
pub fn cx_count(c: &Circuit) -> usize {
    c.instrs().iter().filter(|i| i.op == Op::Cx).count()
}

/// T depth: the T count along the critical path. Computed with per-qubit
/// depth counters; a CNOT synchronizes its two qubits.
pub fn t_depth(c: &Circuit) -> usize {
    let mut depth = vec![0usize; c.n_qubits()];
    for i in c.instrs() {
        match i.op {
            Op::Cx => {
                let t = i.q1.expect("cx target");
                let d = depth[i.q0].max(depth[t]);
                depth[i.q0] = d;
                depth[t] = d;
            }
            Op::Gate1(g) if g.is_t_like() => depth[i.q0] += 1,
            _ => {}
        }
    }
    depth.into_iter().max().unwrap_or(0)
}

/// Total discrete gate count (excluding rotations awaiting synthesis).
pub fn gate_count(c: &Circuit) -> usize {
    c.instrs()
        .iter()
        .filter(|i| matches!(i.op, Op::Gate1(_) | Op::Cx))
        .count()
}

/// Counts of every resource class at once, convenient for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceCounts {
    /// Nontrivial rotations (pre-synthesis).
    pub rotations: usize,
    /// T/T† gates.
    pub t: usize,
    /// T depth along the critical path.
    pub t_depth: usize,
    /// Non-Pauli Cliffords.
    pub clifford: usize,
    /// CNOTs.
    pub cx: usize,
}

/// Gathers [`ResourceCounts`] for a circuit.
pub fn count_resources(c: &Circuit) -> ResourceCounts {
    ResourceCounts {
        rotations: rotation_count(c),
        t: t_count(c),
        t_depth: t_depth(c),
        clifford: clifford_count(c),
        cx: cx_count(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates::Gate;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn rotation_count_skips_trivial() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3); // nontrivial
        c.rz(0, FRAC_PI_2); // trivial (S)
        c.rx(1, 0.9); // nontrivial
        assert_eq!(rotation_count(&c), 2);
    }

    #[test]
    fn t_depth_parallel_vs_serial() {
        // Two T gates on different qubits: depth 1. On the same: depth 2.
        let mut par = Circuit::new(2);
        par.gate(0, Gate::T);
        par.gate(1, Gate::T);
        assert_eq!(t_depth(&par), 1);
        assert_eq!(t_count(&par), 2);

        let mut ser = Circuit::new(2);
        ser.gate(0, Gate::T);
        ser.gate(0, Gate::T);
        assert_eq!(t_depth(&ser), 2);
    }

    #[test]
    fn cnot_synchronizes_depth() {
        let mut c = Circuit::new(2);
        c.gate(0, Gate::T); // depth q0 = 1
        c.cx(0, 1); // sync: both 1
        c.gate(1, Gate::T); // depth q1 = 2
        assert_eq!(t_depth(&c), 2);
    }

    #[test]
    fn clifford_count_excludes_paulis() {
        let mut c = Circuit::new(1);
        c.gate(0, Gate::H);
        c.gate(0, Gate::S);
        c.gate(0, Gate::X);
        c.gate(0, Gate::Z);
        c.gate(0, Gate::T);
        assert_eq!(clifford_count(&c), 2);
        assert_eq!(t_count(&c), 1);
    }

    #[test]
    fn resource_bundle() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3);
        c.cx(0, 1);
        c.gate(1, Gate::T);
        let r = count_resources(&c);
        assert_eq!(r.rotations, 1);
        assert_eq!(r.cx, 1);
        assert_eq!(r.t, 1);
        assert_eq!(r.t_depth, 1);
    }
}
