//! Pass contracts: the postconditions each pipeline pass declares, and
//! [`CheckedPipeline`], which verifies them between stages.
//!
//! | pass        | declared postconditions |
//! |-------------|-------------------------|
//! | `commute`   | instruction count unchanged, rotation count unchanged |
//! | `fuse`      | instruction count never increases; no adjacent single-qubit pair on the same qubit remains |
//! | `cx-cancel` | instruction count never increases, rotation count unchanged; no adjacent identical CNOT pair remains |
//! | `basis=rz`  | output alphabet is exactly {`rz`, discrete gates, `cx`} |
//! | `basis=u3`  | output alphabet is exactly {`u3`, discrete gates, `cx`} |
//! | *every pass* | qubit count preserved; no structural defect (bounds, self-CNOT, non-finite angle) introduced into a structurally clean circuit |
//!
//! Deliberately *not* contracts: `fuse` may **increase** rotation count
//! (a run of discrete gates can fuse into one nontrivial `U3`), and
//! `zx-fold` may increase T-count (phases folding onto π/4 multiples
//! emit `T`/`S` gates) — both are correct behaviour.
//!
//! Violations are reported with `L04xx` codes:
//!
//! | code    | contract broken |
//! |---------|-----------------|
//! | `L0401` | instruction-count contract |
//! | `L0402` | qubit count changed |
//! | `L0403` | `fuse` left an adjacent fusable pair |
//! | `L0404` | basis pass output violates its alphabet |
//! | `L0405` | rotation-count contract |
//! | `L0406` | structural defect introduced into a clean circuit |
//! | `L0407` | `cx-cancel` left an adjacent identical CNOT pair |

use crate::diag::{Diagnostic, Severity};
use crate::rules;
use circuit::{Circuit, Instr, Op, PassStats, Pipeline};

/// Error-severity structural findings (`L0101`/`L0102`/`L0103`) for a
/// raw instruction slice; warnings are dropped because passes may
/// legitimately leave a qubit unused or an angle small.
fn structural_errors(n_qubits: usize, instrs: &[Instr]) -> Vec<Diagnostic> {
    rules::lint_instrs(n_qubits, instrs)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// `true` when `i.q1` is absent and the op acts on one qubit (i.e. not
/// a CNOT) — the operand shape `fuse` is contracted to merge.
fn is_single_qubit(i: &Instr) -> bool {
    i.q1.is_none() && !matches!(i.op, Op::Cx)
}

/// Checks one pass's declared postconditions given the stats it
/// reported and the circuit it produced, appending violations to `out`.
/// `n_qubits_in` is the width the pass received. `clean` says whether
/// that input had no structural errors; when it did, structural findings
/// in the output are pre-existing and are *not* attributed to the pass.
/// On return it says the same of the output.
fn check_stage(
    n_qubits_in: usize,
    clean: &mut bool,
    stats: &PassStats,
    c: &Circuit,
    out: &mut Vec<Diagnostic>,
) {
    let name = stats.name;

    if c.n_qubits() != n_qubits_in {
        out.push(Diagnostic::error(
            "L0402",
            None,
            format!(
                "pass '{}' changed qubit count {} -> {} (every pass preserves width)",
                name,
                n_qubits_in,
                c.n_qubits()
            ),
        ));
    }

    match name {
        "commute" => {
            if stats.instrs_after != stats.instrs_before {
                out.push(Diagnostic::error(
                    "L0401",
                    None,
                    format!(
                        "pass 'commute' changed instruction count {} -> {} (contract: reorders \
                         only)",
                        stats.instrs_before, stats.instrs_after
                    ),
                ));
            }
            if stats.rotations_after != stats.rotations_before {
                out.push(Diagnostic::error(
                    "L0405",
                    None,
                    format!(
                        "pass 'commute' changed rotation count {} -> {} (contract: reorders \
                         only)",
                        stats.rotations_before, stats.rotations_after
                    ),
                ));
            }
        }
        "fuse" => {
            if stats.instrs_after > stats.instrs_before {
                out.push(Diagnostic::error(
                    "L0401",
                    None,
                    format!(
                        "pass 'fuse' increased instruction count {} -> {} (contract: merges or \
                         drops, never grows)",
                        stats.instrs_before, stats.instrs_after
                    ),
                ));
            }
            for (i, w) in c.instrs().windows(2).enumerate() {
                if is_single_qubit(&w[0]) && is_single_qubit(&w[1]) && w[0].q0 == w[1].q0 {
                    out.push(Diagnostic::error(
                        "L0403",
                        Some(i + 1),
                        format!(
                            "pass 'fuse' left an adjacent fusable single-qubit pair on qubit {}",
                            w[0].q0
                        ),
                    ));
                }
            }
        }
        "cx-cancel" => {
            if stats.instrs_after > stats.instrs_before {
                out.push(Diagnostic::error(
                    "L0401",
                    None,
                    format!(
                        "pass 'cx-cancel' increased instruction count {} -> {} (contract: only \
                         removes CNOT pairs)",
                        stats.instrs_before, stats.instrs_after
                    ),
                ));
            }
            if stats.rotations_after != stats.rotations_before {
                out.push(Diagnostic::error(
                    "L0405",
                    None,
                    format!(
                        "pass 'cx-cancel' changed rotation count {} -> {} (contract: touches \
                         only CNOTs)",
                        stats.rotations_before, stats.rotations_after
                    ),
                ));
            }
            for (i, w) in c.instrs().windows(2).enumerate() {
                if matches!(w[0].op, Op::Cx)
                    && matches!(w[1].op, Op::Cx)
                    && w[0].q0 == w[1].q0
                    && w[0].q1 == w[1].q1
                {
                    out.push(Diagnostic::error(
                        "L0407",
                        Some(i + 1),
                        format!(
                            "pass 'cx-cancel' left an adjacent identical CNOT pair on qubits \
                             ({}, {:?})",
                            w[0].q0, w[0].q1
                        ),
                    ));
                }
            }
        }
        "basis=rz" => {
            for (i, ins) in c.instrs().iter().enumerate() {
                if matches!(ins.op, Op::Rx(_) | Op::Ry(_) | Op::U3 { .. }) {
                    out.push(Diagnostic::error(
                        "L0404",
                        Some(i),
                        "pass 'basis=rz' output contains an op outside the Clifford+Rz \
                         alphabet"
                            .to_string(),
                    ));
                }
            }
        }
        "basis=u3" => {
            for (i, ins) in c.instrs().iter().enumerate() {
                if matches!(ins.op, Op::Rz(_) | Op::Rx(_) | Op::Ry(_)) {
                    out.push(Diagnostic::error(
                        "L0404",
                        Some(i),
                        "pass 'basis=u3' output contains a bare axis rotation outside the \
                         CNOT+U3 alphabet"
                            .to_string(),
                    ));
                }
            }
        }
        // `zx-fold` (and any future external pass) declares only the
        // universal width/structure contracts checked above and below.
        _ => {}
    }

    // A defect is attributed to the stage that introduced it, then
    // suppresses structural re-checks downstream.
    if *clean {
        let defects = structural_errors(c.n_qubits(), c.instrs());
        *clean = defects.is_empty();
        for d in defects {
            out.push(Diagnostic::error(
                "L0406",
                d.index,
                format!(
                    "pass '{}' introduced a structural defect: {}",
                    name, d.message
                ),
            ));
        }
    }
}

/// A [`Pipeline`] that verifies every pass's declared postconditions
/// between stages. Runs the exact same passes in the exact same order —
/// the observer cannot mutate the circuit, so output is bit-identical
/// to the unchecked pipeline — and accumulates violations as `L04xx`
/// diagnostics for the caller to collect with
/// [`CheckedPipeline::take_violations`].
///
/// The engine routes every compile through one of these and
/// `debug_assert!`s the violation list is empty, so in debug/test
/// builds the whole suite doubles as a contract check, while release
/// builds (the fuzzer) surface violations as ordinary diagnostics.
#[derive(Debug)]
pub struct CheckedPipeline {
    inner: Pipeline,
    violations: Vec<Diagnostic>,
}

impl CheckedPipeline {
    /// Wraps a built pipeline.
    pub fn new(inner: Pipeline) -> CheckedPipeline {
        CheckedPipeline {
            inner,
            violations: Vec::new(),
        }
    }

    /// Runs the pipeline, checking each pass's contract on its output.
    /// Violations from this run replace any from a previous run; fetch
    /// them with [`CheckedPipeline::violations`] or
    /// [`CheckedPipeline::take_violations`].
    pub fn run(&mut self, c: &mut Circuit) -> Vec<PassStats> {
        self.run_observed(c, |_, _| {})
    }

    /// Like [`CheckedPipeline::run`], but also invokes `observe` with
    /// each pass's stats and output circuit *before* the contract checks
    /// for that stage run — the seam the engine's tracing uses to absorb
    /// per-pass timing into spans without perturbing what is checked.
    /// The observer cannot mutate the circuit, so output stays
    /// bit-identical to the unobserved pipeline.
    pub fn run_observed(
        &mut self,
        c: &mut Circuit,
        mut observe: impl FnMut(&PassStats, &Circuit),
    ) -> Vec<PassStats> {
        self.violations.clear();
        let violations = &mut self.violations;
        let mut clean = structural_errors(c.n_qubits(), c.instrs()).is_empty();
        let mut n_prev = c.n_qubits();
        self.inner.run_observed(c, |stats, circ| {
            observe(stats, circ);
            check_stage(n_prev, &mut clean, stats, circ, violations);
            n_prev = circ.n_qubits();
        })
    }

    /// Contract violations from the most recent [`CheckedPipeline::run`].
    pub fn violations(&self) -> &[Diagnostic] {
        &self.violations
    }

    /// Drains the violations from the most recent run.
    pub fn take_violations(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{Basis, Pass, PipelineSpec};

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rz(0, 0.3);
        c.rx(0, 0.4);
        c.cx(0, 1);
        c.cx(0, 1);
        c.rz(1, 1.1);
        c.cx(1, 2);
        c.ry(2, 0.9);
        c.rz(2, std::f64::consts::FRAC_PI_4);
        c
    }

    #[test]
    fn builtin_pipelines_satisfy_their_contracts() {
        for spec in ["fast", "default", "aggressive", "commute,fuse,cx-cancel,basis=rz"] {
            let spec = PipelineSpec::parse(spec).unwrap();
            for basis in [Basis::U3, Basis::Rz] {
                let pipe = Pipeline::from_spec(&spec, basis).unwrap();
                let mut checked = CheckedPipeline::new(pipe);
                let mut c = sample();
                checked.run(&mut c);
                assert_eq!(checked.violations(), &[] as &[Diagnostic], "{spec} / {basis:?}");
            }
        }
    }

    /// An intentionally broken "cx-cancel": it *appends* a CNOT, so it
    /// violates the never-grows contract (`L0401`) and — because the
    /// appended CNOT duplicates the last one — the no-adjacent-pair
    /// contract (`L0407`).
    struct GrowingCxCancel;

    impl Pass for GrowingCxCancel {
        fn name(&self) -> &'static str {
            "cx-cancel"
        }

        fn apply(&mut self, c: &mut Circuit) {
            c.cx(0, 1);
            c.cx(0, 1);
        }
    }

    #[test]
    fn broken_postcondition_is_caught() {
        let mut checked = CheckedPipeline::new(Pipeline::new(vec![Box::new(GrowingCxCancel)]));
        let mut c = Circuit::new(2);
        c.rz(0, 0.5);
        checked.run(&mut c);
        let codes: Vec<&str> = checked.violations().iter().map(|d| d.code).collect();
        assert!(codes.contains(&"L0401"), "{:?}", checked.violations());
        assert!(codes.contains(&"L0407"), "{:?}", checked.violations());
    }

    /// A "basis=rz" impersonator that leaves an `Rx` behind.
    struct LeakyBasis;

    impl Pass for LeakyBasis {
        fn name(&self) -> &'static str {
            "basis=rz"
        }

        fn apply(&mut self, c: &mut Circuit) {
            c.rx(0, 0.25);
        }
    }

    #[test]
    fn alphabet_violation_is_caught() {
        let mut checked = CheckedPipeline::new(Pipeline::new(vec![Box::new(LeakyBasis)]));
        let mut c = Circuit::new(1);
        c.rz(0, 0.5);
        checked.run(&mut c);
        let codes: Vec<&str> = checked.violations().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["L0404"], "{:?}", checked.violations());
    }

    /// A pass that injects a NaN angle into a clean circuit.
    struct NanInjector;

    impl Pass for NanInjector {
        fn name(&self) -> &'static str {
            "commute"
        }

        fn apply(&mut self, c: &mut Circuit) {
            c.rz(0, f64::NAN);
        }
    }

    /// A pass that declares no contract of its own and changes nothing.
    struct PassThrough;

    impl Pass for PassThrough {
        fn name(&self) -> &'static str {
            "zx-fold"
        }

        fn apply(&mut self, _: &mut Circuit) {}
    }

    #[test]
    fn structural_defect_attributed_to_the_pass() {
        let mut checked = CheckedPipeline::new(Pipeline::new(vec![
            Box::new(NanInjector),
            Box::new(PassThrough),
        ]));
        let mut c = Circuit::new(1);
        c.rz(0, 0.5);
        checked.run(&mut c);
        let codes: Vec<&str> = checked.violations().iter().map(|d| d.code).collect();
        // The count contracts also trip (commute grew the circuit and its
        // rotation count). The defect is blamed on the stage that
        // introduced it, and on no later one.
        assert_eq!(
            codes,
            vec!["L0401", "L0405", "L0406"],
            "{:?}",
            checked.violations()
        );
    }

    #[test]
    fn preexisting_defect_is_not_blamed_on_passes() {
        let mut checked = CheckedPipeline::new(
            Pipeline::from_spec(&PipelineSpec::parse("commute").unwrap(), Basis::U3).unwrap(),
        );
        let mut c = Circuit::new(1);
        c.rz(0, f64::NAN); // dirty *input*
        checked.run(&mut c);
        assert_eq!(checked.violations(), &[] as &[Diagnostic]);
    }
}
