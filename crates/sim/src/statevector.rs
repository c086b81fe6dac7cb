//! Ideal statevector simulation.

use circuit::{Circuit, Op};
use qmath::{Complex64, Mat2};
use std::fmt;

/// A gate-application failure with the instruction position that caused
/// it, mirroring the [`circuit::qasm::QasmError`] convention (position +
/// message) so front ends can report *what* failed instead of panicking
/// on a slice index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// 0-based index of the offending instruction inside the applied
    /// circuit, `None` for direct gate applications and whole-circuit
    /// failures (qubit-count mismatch).
    pub instr: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl SimError {
    fn new(instr: Option<usize>, message: impl Into<String>) -> SimError {
        SimError {
            instr,
            message: message.into(),
        }
    }

    /// Attaches an instruction index to a gate-level error.
    fn at(self, instr: usize) -> SimError {
        SimError {
            instr: Some(instr),
            ..self
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.instr {
            Some(i) => write!(f, "instruction {i}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for SimError {}

/// A pure state of `n` qubits.
///
/// Qubit 0 is the most significant bit of the basis index (big-endian):
/// basis state `|q₀ q₁ … q_{n−1}⟩` has index `Σ qᵢ·2^{n−1−i}`.
///
/// ```
/// use sim::State;
/// use qmath::Mat2;
/// let mut s = State::zero(2);
/// s.apply_1q(0, &Mat2::x());
/// assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct State {
    n: usize,
    amps: Vec<Complex64>,
}

impl State {
    /// The all-zeros computational basis state.
    pub fn zero(n: usize) -> Self {
        assert!(n <= 26, "statevector limited to 26 qubits");
        let mut amps = vec![Complex64::ZERO; 1 << n];
        amps[0] = Complex64::ONE;
        State { n, amps }
    }

    /// The computational basis state `|index⟩` (big-endian, like
    /// [`State::probability`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn basis(n: usize, index: usize) -> Self {
        assert!(n <= 26, "statevector limited to 26 qubits");
        assert!(index < (1usize << n), "basis index out of range");
        let mut amps = vec![Complex64::ZERO; 1 << n];
        amps[index] = Complex64::ONE;
        State { n, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Amplitudes in basis order.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Probability of a basis outcome.
    pub fn probability(&self, basis: usize) -> f64 {
        self.amps[basis].norm_sqr()
    }

    /// Applies a single-qubit unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range; use [`State::try_apply_1q`] for a
    /// clean error instead.
    pub fn apply_1q(&mut self, q: usize, m: &Mat2) {
        self.try_apply_1q(q, m)
            .unwrap_or_else(|e| panic!("apply_1q: {e}"));
    }

    /// [`State::apply_1q`] that reports an out-of-range qubit as a
    /// [`SimError`] instead of panicking.
    pub fn try_apply_1q(&mut self, q: usize, m: &Mat2) -> Result<(), SimError> {
        if q >= self.n {
            return Err(SimError::new(
                None,
                format!("qubit {q} out of range (state has {} qubits)", self.n),
            ));
        }
        let stride = 1usize << (self.n - 1 - q);
        let len = self.amps.len();
        let mut base = 0usize;
        while base < len {
            for off in base..base + stride {
                let i0 = off;
                let i1 = off + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m.e[0] * a0 + m.e[1] * a1;
                self.amps[i1] = m.e[2] * a0 + m.e[3] * a1;
            }
            base += stride * 2;
        }
        Ok(())
    }

    /// Applies a CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or equal qubits; use
    /// [`State::try_apply_cx`] for a clean error instead.
    pub fn apply_cx(&mut self, c: usize, t: usize) {
        self.try_apply_cx(c, t)
            .unwrap_or_else(|e| panic!("apply_cx: {e}"));
    }

    /// [`State::apply_cx`] that reports out-of-range or coincident qubits
    /// as a [`SimError`] instead of panicking.
    pub fn try_apply_cx(&mut self, c: usize, t: usize) -> Result<(), SimError> {
        if c >= self.n || t >= self.n {
            return Err(SimError::new(
                None,
                format!(
                    "cx qubit pair ({c}, {t}) out of range (state has {} qubits)",
                    self.n
                ),
            ));
        }
        if c == t {
            return Err(SimError::new(None, format!("cx control equals target ({c})")));
        }
        let cb = 1usize << (self.n - 1 - c);
        let tb = 1usize << (self.n - 1 - t);
        for i in 0..self.amps.len() {
            if i & cb != 0 && i & tb == 0 {
                self.amps.swap(i, i | tb);
            }
        }
        Ok(())
    }

    /// Applies a whole circuit (in circuit time).
    ///
    /// # Panics
    ///
    /// Panics on a qubit-count mismatch or an invalid instruction; use
    /// [`State::try_apply_circuit`] for a clean error instead.
    pub fn apply_circuit(&mut self, c: &Circuit) {
        self.try_apply_circuit(c)
            .unwrap_or_else(|e| panic!("apply_circuit: {e}"));
    }

    /// [`State::apply_circuit`] that reports qubit-count mismatches and
    /// invalid instructions (out-of-range targets, malformed CNOTs) as a
    /// [`SimError`] carrying the offending instruction index — hostile or
    /// hand-built circuits must produce an error, never a slice-index
    /// panic.
    pub fn try_apply_circuit(&mut self, c: &Circuit) -> Result<(), SimError> {
        if c.n_qubits() != self.n {
            return Err(SimError::new(
                None,
                format!(
                    "qubit count mismatch: circuit has {}, state has {}",
                    c.n_qubits(),
                    self.n
                ),
            ));
        }
        self.try_apply_instrs(c.instrs())
    }

    /// Instruction-level core of [`State::try_apply_circuit`]; separate so
    /// tests can exercise instruction lists [`Circuit::push`] would
    /// reject.
    fn try_apply_instrs(&mut self, instrs: &[circuit::Instr]) -> Result<(), SimError> {
        for (idx, i) in instrs.iter().enumerate() {
            match i.op {
                Op::Cx => {
                    let t = i.q1.ok_or_else(|| {
                        SimError::new(Some(idx), "cx instruction without a target qubit")
                    })?;
                    self.try_apply_cx(i.q0, t).map_err(|e| e.at(idx))?;
                }
                op => self
                    .try_apply_1q(i.q0, &op.matrix())
                    .map_err(|e| e.at(idx))?,
            }
        }
        Ok(())
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner(&self, other: &State) -> Complex64 {
        assert_eq!(self.n, other.n);
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &State) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Squared norm (should stay 1 under unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Instr;
    use gates::Gate;

    #[test]
    fn x_flips_the_addressed_qubit() {
        let mut s = State::zero(3);
        s.apply_1q(1, &Mat2::x());
        assert!((s.probability(0b010) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state() {
        let mut s = State::zero(2);
        s.apply_1q(0, &Mat2::h());
        s.apply_cx(0, 1);
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01) < 1e-12);
    }

    #[test]
    fn cx_control_sensitivity() {
        // Control 1 set: target flips.
        let mut s = State::zero(2);
        s.apply_1q(1, &Mat2::x()); // |01>
        s.apply_cx(1, 0); // control q1 = 1 -> flip q0: |11>
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circuit_matches_manual_application() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.7);
        let mut s1 = State::zero(2);
        s1.apply_circuit(&c);
        let mut s2 = State::zero(2);
        s2.apply_1q(0, &Mat2::h());
        s2.apply_cx(0, 1);
        s2.apply_1q(1, &Mat2::rz(0.7));
        assert!((s1.fidelity(&s2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.u3(1, 0.3, 0.9, -0.4);
        c.cx(0, 2);
        c.gate(2, Gate::T);
        c.cx(1, 2);
        let mut s = State::zero(3);
        s.apply_circuit(&c);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn basis_constructor_matches_x_preparation() {
        for idx in 0..8usize {
            let direct = State::basis(3, idx);
            let mut built = State::zero(3);
            for q in 0..3 {
                if (idx >> (2 - q)) & 1 == 1 {
                    built.apply_1q(q, &Mat2::x());
                }
            }
            assert!((direct.fidelity(&built) - 1.0).abs() < 1e-12, "index {idx}");
        }
    }

    #[test]
    fn out_of_range_qubits_are_errors_not_panics() {
        let mut s = State::zero(2);
        let err = s.try_apply_1q(2, &Mat2::h()).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(err.instr, None);
        // The boundary qubit itself is fine.
        assert!(s.try_apply_1q(1, &Mat2::h()).is_ok());

        let err = s.try_apply_cx(0, 5).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        let err = s.try_apply_cx(1, 1).unwrap_err();
        assert!(err.message.contains("control equals target"), "{err}");

        // A zero-qubit state must not underflow the stride shift.
        let mut empty = State::zero(0);
        let err = empty.try_apply_1q(0, &Mat2::h()).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn circuit_errors_carry_instruction_indices() {
        // A structurally valid circuit applied to the wrong-sized state.
        let mut c = Circuit::new(3);
        c.h(0);
        c.rz(2, 0.4);
        let mut s = State::zero(2);
        let err = s.try_apply_circuit(&c).unwrap_err();
        assert_eq!(err.instr, None, "whole-circuit failure has no index");
        assert!(err.message.contains("qubit count mismatch"), "{err}");
        assert!(err.to_string().contains("mismatch"));

        // Same circuit on a matching state succeeds; the error is not
        // sticky.
        let mut ok = State::zero(3);
        assert!(ok.try_apply_circuit(&c).is_ok());

        // An instruction-level failure names the offending instruction.
        // (`Circuit::push` rejects such instructions, so a hostile list
        // is the only way to produce one — exactly what this guards.)
        let mut s = State::zero(2);
        let mut good = Circuit::new(2);
        good.h(0);
        let bad = Instr {
            op: Op::Gate1(Gate::T),
            q0: 9,
            q1: None,
        };
        let err = s.try_apply_instrs(&[good.instrs()[0], bad]).unwrap_err();
        assert_eq!(err.instr, Some(1), "{err}");
        assert!(err.to_string().starts_with("instruction 1:"), "{err}");
    }

    #[test]
    fn panicking_wrappers_still_panic_with_context() {
        let r = std::panic::catch_unwind(|| {
            let mut s = State::zero(1);
            s.apply_1q(3, &Mat2::h());
        });
        let msg = *r.unwrap_err().downcast::<String>().expect("string payload");
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn ghz_probabilities() {
        let n = 4;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        let mut s = State::zero(n);
        s.apply_circuit(&c);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability((1 << n) - 1) - 0.5).abs() < 1e-12);
    }
}
