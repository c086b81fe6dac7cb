//! Circuit-wide application of a single-qubit synthesizer.
//!
//! Every remaining rotation in a lowered circuit is replaced by a discrete
//! Clifford+T sequence produced by a caller-supplied synthesizer (trasyn,
//! gridsynth, annealing, …). Identical rotations are synthesized once —
//! application circuits repeat angles heavily (QAOA uses one γ/β pair per
//! layer), mirroring how real compilation pipelines batch synthesis calls.
//!
//! Whoever resolves the rotations keys each one once with
//! [`quantize_unitary`] — [`synthesize_circuit`] in a per-call map, the
//! `engine` crate in its process-wide shared cache, so a key means the
//! same thing everywhere — and hands one entry per rotation to
//! [`splice`], the one function that builds the discrete circuit.

use crate::basis::push_seq;
use crate::ir::Circuit;
use gates::GateSeq;
use qmath::Mat2;
use std::collections::HashMap;
use std::sync::Arc;

/// A cached synthesis result: the Clifford+T sequence and its unitary
/// distance from the rotation it replaces.
///
/// Results are reference-counted so that circuits which repeat a rotation
/// many times (QAOA repeats one γ/β pair per layer) splice the sequence
/// from a shared allocation instead of cloning it per occurrence.
pub type CachedSynthesis = Arc<(GateSeq, f64)>;

/// Outcome of synthesizing all rotations of a circuit.
#[derive(Clone, Debug)]
pub struct SynthesizedCircuit {
    /// The fully discrete circuit (`Gate1` + `Cx` only).
    pub circuit: Circuit,
    /// Sum of per-rotation synthesis errors (additive upper bound on the
    /// circuit-level error, §4.3).
    pub total_error: f64,
    /// Number of rotations that were synthesized (cache hits included).
    pub rotations: usize,
    /// Number of distinct rotations in this circuit (quantized with
    /// [`quantize_unitary`]) — counted per circuit, independent of what
    /// any cache already held. For [`synthesize_circuit`] this equals
    /// the number of synthesizer invocations.
    pub distinct_rotations: usize,
}

/// Replaces every rotation with the sequence returned by `synth`, which
/// receives the rotation's 2×2 unitary and must return `(sequence, error)`.
///
/// The synthesizer is invoked once per *distinct* rotation matrix (see
/// [`quantize_unitary`]), in order of first appearance; repeats still
/// contribute their error to `total_error`.
pub fn synthesize_circuit(
    c: &Circuit,
    mut synth: impl FnMut(&Mat2) -> (GateSeq, f64),
) -> SynthesizedCircuit {
    let mut by_key: HashMap<[i64; 8], CachedSynthesis> = HashMap::new();
    let mut entries = Vec::new();
    for i in c.instrs().iter().filter(|i| i.op.is_rotation()) {
        let m = i.op.matrix();
        let e = by_key.entry(quantize_unitary(&m));
        entries.push(Arc::clone(e.or_insert_with(|| Arc::new(synth(&m)))));
    }
    splice(c, &entries, by_key.len())
}

/// Builds the discrete circuit: each rotation (`Op::is_rotation`) becomes
/// the next of `entries`, one per rotation in circuit order, spliced by
/// reference and summed into `total_error`; every other instruction is
/// copied. `distinct_rotations` is reported as the caller counted it.
///
/// # Panics
///
/// Panics if `entries` runs out before the circuit's rotations do.
pub fn splice<'a>(
    c: &Circuit,
    entries: impl IntoIterator<Item = &'a CachedSynthesis>,
    distinct_rotations: usize,
) -> SynthesizedCircuit {
    let mut entries = entries.into_iter();
    let mut out = Circuit::new(c.n_qubits());
    let (mut total_error, mut rotations) = (0.0f64, 0usize);
    for i in c.instrs() {
        if !i.op.is_rotation() {
            out.push(*i);
            continue;
        }
        let (seq, error) = &**entries.next().expect("splice needs one entry per rotation");
        rotations += 1;
        total_error += error;
        push_seq(&mut out, i.q0, seq);
    }
    SynthesizedCircuit {
        circuit: out,
        total_error,
        rotations,
        distinct_rotations,
    }
}

/// Quantizes a 2×2 unitary into the synthesis-cache key shared by this
/// module and the `engine` crate's `SynthCache`.
///
/// The matrix is first phase-canonicalized ([`Mat2::phase_canonical`]),
/// then each entry's real and imaginary part is rounded to the nearest
/// multiple of 1e-12 (round half away from zero).
///
/// # Contract
///
/// * Two matrices mapping to the same key are entrywise within 1e-12 of
///   each other (up to global phase), far below every synthesis-error
///   threshold this workspace uses — conflating them is always safe.
/// * The converse does **not** hold at rounding boundaries: a component
///   lying within float noise of an odd multiple of 5e-13 may round
///   either way, so two unitaries closer than 1e-13 can still split into
///   two distinct keys. That splits costs a redundant synthesis call
///   (both entries are valid), never a wrong result. See the
///   `boundary_angles_may_split` test, which pins this behavior.
pub fn quantize_unitary(m: &Mat2) -> [i64; 8] {
    let c = m.phase_canonical();
    let mut out = [0i64; 8];
    for (i, z) in c.e.iter().enumerate() {
        out[2 * i] = (z.re * 1e12).round() as i64;
        out[2 * i + 1] = (z.im * 1e12).round() as i64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Op;
    use crate::metrics::{rotation_count, t_count};
    use gates::Gate;

    /// A toy synthesizer: every rotation becomes T with error 0.25.
    fn toy(_m: &Mat2) -> (GateSeq, f64) {
        ([Gate::T].into_iter().collect(), 0.25)
    }

    #[test]
    fn replaces_all_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3);
        c.cx(0, 1);
        c.rx(1, 0.7);
        let s = synthesize_circuit(&c, toy);
        assert_eq!(rotation_count(&s.circuit), 0);
        assert_eq!(t_count(&s.circuit), 2);
        assert_eq!(s.rotations, 2);
        assert!((s.total_error - 0.5).abs() < 1e-12);
    }

    #[test]
    fn caches_repeated_angles() {
        let mut c = Circuit::new(1);
        for _ in 0..5 {
            c.rz(0, 0.31415);
        }
        let mut calls = 0usize;
        let s = synthesize_circuit(&c, |_m| {
            calls += 1;
            ([Gate::T].into_iter().collect(), 0.1)
        });
        assert_eq!(calls, 1, "identical rotations must hit the cache");
        assert_eq!(s.rotations, 5);
        assert_eq!(s.distinct_rotations, 1);
        assert!((s.total_error - 0.5).abs() < 1e-12, "errors still add up");
    }

    #[test]
    fn sequence_order_matches_circuit_time() {
        // Synthesizer returns [H, T] meaning operator H·T: in circuit time
        // T must come first.
        let mut c = Circuit::new(1);
        c.rz(0, 0.4);
        let s = synthesize_circuit(&c, |_m| ([Gate::H, Gate::T].into_iter().collect(), 0.0));
        let ops: Vec<Op> = s.circuit.instrs().iter().map(|i| i.op).collect();
        assert_eq!(ops, vec![Op::Gate1(Gate::T), Op::Gate1(Gate::H)]);
    }

    #[test]
    fn discrete_gates_pass_through() {
        let mut c = Circuit::new(1);
        c.gate(0, Gate::S);
        let s = synthesize_circuit(&c, toy);
        assert_eq!(s.circuit.instrs()[0].op, Op::Gate1(Gate::S));
        assert_eq!(s.rotations, 0);
    }

    #[test]
    #[should_panic(expected = "one entry per rotation")]
    fn splice_panics_when_entries_run_out() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.3);
        c.rz(0, 0.7);
        let one: CachedSynthesis = Arc::new(toy(&Mat2::rz(0.3)));
        let _ = splice(&c, [&one], 1);
    }

    #[test]
    fn quantize_is_phase_invariant() {
        let m = Mat2::u3(0.7, 0.3, -0.4);
        let shifted = m.scale(qmath::Complex64::cis(1.234));
        assert_eq!(quantize_unitary(&m), quantize_unitary(&shifted));
    }

    #[test]
    fn nearby_angles_share_a_key() {
        // Generic angles: a 1e-13 perturbation is far from the 5e-13
        // rounding boundary, so both land on the same key.
        for theta in [0.3f64, 0.7, -1.1, 2.5] {
            let a = Mat2::rz(theta);
            let b = Mat2::rz(theta + 1e-13);
            assert_eq!(
                quantize_unitary(&a),
                quantize_unitary(&b),
                "theta = {theta}"
            );
        }
    }

    #[test]
    fn boundary_angles_may_split() {
        // Pin the documented boundary behavior: a matrix component within
        // float noise of an odd multiple of 5e-13 (a rounding half-step)
        // can split angles differing by < 1e-13 into two keys. diag(1, z)
        // is already phase-canonical (first max-modulus entry is real
        // positive), so the key reads z directly.
        let z = |re: f64| {
            Mat2::new(
                qmath::Complex64::new(1.0, 0.0),
                qmath::Complex64::new(0.0, 0.0),
                qmath::Complex64::new(0.0, 0.0),
                qmath::Complex64::new(re, (1.0 - re * re).sqrt()),
            )
        };
        let just_below = z(4.999e-13); // rounds to 0
        let just_above = z(5.001e-13); // rounds to 1
        let ka = quantize_unitary(&just_below);
        let kb = quantize_unitary(&just_above);
        assert_eq!(ka[6], 0);
        assert_eq!(kb[6], 1);
        assert_ne!(ka, kb, "boundary-straddling inputs split; see contract");
        // Splitting is benign: both keys would map to valid syntheses.
    }
}
