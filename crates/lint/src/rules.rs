//! The lint rules: circuit structure (`L01xx`), gate-set conformance
//! (`L02xx`), and pipeline-spec well-formedness (`L03xx`).
//!
//! | code    | severity | rule |
//! |---------|----------|------|
//! | `L0101` | error    | qubit index out of range for the declared width |
//! | `L0102` | error    | two-qubit gate with control == target |
//! | `L0103` | error    | non-finite (NaN/Inf) rotation angle |
//! | `L0104` | warning  | subnormal rotation angle |
//! | `L0105` | warning  | declared qubit never used |
//! | `L0201` | error    | op outside the Clifford+Rz alphabet after `basis=rz` |
//! | `L0202` | error    | bare axis rotation after `basis=u3` |
//! | `L0203` | error    | residual nontrivial rotation in Clifford+T output |
//! | `L0204` | warning  | trivially-representable rotation left symbolic |
//! | `L0301` | error    | unknown pass or preset token |
//! | `L0302` | error    | duplicate basis pass |
//! | `L0303` | error    | `fuse` after `basis=rz` (destroys the lowered form) |
//! | `L0304` | warning  | known non-convergent combination (oscillator class) |
//! | `L0305` | warning  | `zx-fold` without a preceding `basis=rz` |

use crate::diag::Diagnostic;
use circuit::pass::PipelineSpecError;
use circuit::{trivial, Basis, Circuit, Instr, Op, PassSpec, PipelineSpec};

/// Short stable token naming an op in messages.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Rz(_) => "rz",
        Op::Rx(_) => "rx",
        Op::Ry(_) => "ry",
        Op::U3 { .. } => "u3",
        Op::Gate1(_) => "gate",
        Op::Cx => "cx",
    }
}

/// The rotation angles an op carries (none for discrete gates / CNOT).
fn angles(op: &Op) -> impl Iterator<Item = f64> {
    let (angles, n) = match *op {
        Op::Rz(a) | Op::Rx(a) | Op::Ry(a) => ([a, 0.0, 0.0], 1),
        Op::U3 { theta, phi, lambda } => ([theta, phi, lambda], 3),
        Op::Gate1(_) | Op::Cx => ([0.0; 3], 0),
    };
    angles.into_iter().take(n)
}

/// Structural lint over a raw instruction slice against a declared
/// width. This is the entry point that can see ill-formed IR that
/// [`Circuit::push`] would reject by panicking — corpora of seeded
/// defects (see `workloads::lintcorpus`) are expressed as raw slices.
///
/// Rules: `L0101` bounds, `L0102` self-CNOT, `L0103` non-finite angle,
/// `L0104` subnormal angle, `L0105` unused qubit.
pub fn lint_instrs(n_qubits: usize, instrs: &[Instr]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut used = vec![false; n_qubits];
    for (i, ins) in instrs.iter().enumerate() {
        if ins.q0 >= n_qubits {
            out.push(Diagnostic::error(
                "L0101",
                Some(i),
                format!(
                    "qubit {} out of range for declared width {} ({} op)",
                    ins.q0,
                    n_qubits,
                    op_name(&ins.op)
                ),
            ));
        } else {
            used[ins.q0] = true;
        }
        if let Some(q1) = ins.q1 {
            if q1 >= n_qubits {
                out.push(Diagnostic::error(
                    "L0101",
                    Some(i),
                    format!(
                        "qubit {} out of range for declared width {} ({} op)",
                        q1,
                        n_qubits,
                        op_name(&ins.op)
                    ),
                ));
            } else {
                used[q1] = true;
            }
            if q1 == ins.q0 {
                out.push(Diagnostic::error(
                    "L0102",
                    Some(i),
                    format!("two-qubit {} op with control == target (qubit {})", op_name(&ins.op), q1),
                ));
            }
        }
        for a in angles(&ins.op) {
            if !a.is_finite() {
                out.push(Diagnostic::error(
                    "L0103",
                    Some(i),
                    format!("non-finite rotation angle {} in {} op", a, op_name(&ins.op)),
                ));
            } else if a != 0.0 && a.abs() < f64::MIN_POSITIVE {
                out.push(Diagnostic::warning(
                    "L0104",
                    Some(i),
                    format!(
                        "subnormal rotation angle {:e} in {} op (below gridsynth resolution)",
                        a,
                        op_name(&ins.op)
                    ),
                ));
            }
        }
    }
    let unused: Vec<String> = used
        .iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(q, _)| q.to_string())
        .collect();
    if !unused.is_empty() && n_qubits > 0 {
        out.push(Diagnostic::warning(
            "L0105",
            None,
            format!(
                "{} of {} declared qubit(s) never used: [{}]",
                unused.len(),
                n_qubits,
                unused.join(", ")
            ),
        ));
    }
    out
}

/// [`lint_instrs`] over a well-formed [`Circuit`]. Bounds/self-CNOT
/// rules cannot fire here (the IR constructor enforces them); angle and
/// usage rules can.
pub fn lint_circuit(c: &Circuit) -> Vec<Diagnostic> {
    lint_instrs(c.n_qubits(), c.instrs())
}

/// What gate-set a produced circuit is expected to conform to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Output of `basis=rz`: only `Rz`, discrete gates, and CNOT.
    RzBasis,
    /// Output of `basis=u3`: only `U3`, discrete gates, and CNOT.
    U3Basis,
    /// Fully synthesized Clifford+T: no symbolic rotations at all,
    /// except ones within `epsilon` of an exactly-representable gate.
    CliffordT,
}

impl Expectation {
    /// Stable label used by `trasyn-lint --expect`.
    pub fn label(self) -> &'static str {
        match self {
            Expectation::RzBasis => "rz",
            Expectation::U3Basis => "u3",
            Expectation::CliffordT => "clifford-t",
        }
    }

    /// Parses an `--expect` value.
    pub fn parse(s: &str) -> Option<Expectation> {
        match s {
            "rz" => Some(Expectation::RzBasis),
            "u3" => Some(Expectation::U3Basis),
            "clifford-t" => Some(Expectation::CliffordT),
            _ => None,
        }
    }
}

/// Gate-set conformance of a produced circuit (`L02xx`). `epsilon` only
/// matters for [`Expectation::CliffordT`], where a rotation within
/// `epsilon` of an exactly-representable Clifford+T gate is downgraded
/// to the `L0204` warning (`L0203` error otherwise).
pub fn lint_output(c: &Circuit, expect: Expectation, epsilon: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, ins) in c.instrs().iter().enumerate() {
        match expect {
            Expectation::RzBasis => {
                if matches!(ins.op, Op::Rx(_) | Op::Ry(_) | Op::U3 { .. }) {
                    out.push(Diagnostic::error(
                        "L0201",
                        Some(i),
                        format!(
                            "{} op outside the Clifford+Rz alphabet (basis=rz output may \
                             contain only rz, discrete gates, and cx)",
                            op_name(&ins.op)
                        ),
                    ));
                }
            }
            Expectation::U3Basis => {
                if matches!(ins.op, Op::Rz(_) | Op::Rx(_) | Op::Ry(_)) {
                    out.push(Diagnostic::error(
                        "L0202",
                        Some(i),
                        format!(
                            "bare {} rotation outside the CNOT+U3 alphabet (basis=u3 output \
                             may contain only u3, discrete gates, and cx)",
                            op_name(&ins.op)
                        ),
                    ));
                }
            }
            Expectation::CliffordT => {
                if ins.op.is_rotation() {
                    let m = ins.op.matrix();
                    if trivial::as_trivial(&m, 1e-9).is_some() {
                        out.push(Diagnostic::warning(
                            "L0204",
                            Some(i),
                            format!(
                                "{} op is exactly Clifford+T-representable but left symbolic",
                                op_name(&ins.op)
                            ),
                        ));
                    } else if trivial::as_trivial(&m, epsilon.max(1e-9)).is_some() {
                        out.push(Diagnostic::warning(
                            "L0204",
                            Some(i),
                            format!(
                                "{} op is within epsilon {:e} of a Clifford+T gate but left \
                                 symbolic",
                                op_name(&ins.op),
                                epsilon
                            ),
                        ));
                    } else {
                        out.push(Diagnostic::error(
                            "L0203",
                            Some(i),
                            format!(
                                "residual nontrivial {} rotation above epsilon {:e} in \
                                 Clifford+T output",
                                op_name(&ins.op),
                                epsilon
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Wraps a [`PipelineSpecError`] (an unparseable token) as the `L0301`
/// diagnostic, so parse failures travel the same structured channel as
/// semantic spec lints.
pub fn spec_error_diagnostic(err: &PipelineSpecError) -> Diagnostic {
    Diagnostic::error("L0301", None, err.to_string())
}

/// Pipeline-spec well-formedness beyond parse (`L0302`–`L0305`).
/// Indices refer to positions in the concrete pass list the spec means
/// for `basis` (presets are linted on their expansion — all five named
/// presets are clean by construction).
pub fn lint_spec(spec: &PipelineSpec, basis: Basis) -> Vec<Diagnostic> {
    let passes = spec.passes(basis);
    let mut out = Vec::new();
    let mut basis_seen: Option<(usize, Basis)> = None;
    let mut zx_folds = 0usize;
    for (i, p) in passes.iter().enumerate() {
        match p {
            PassSpec::Basis(b) => {
                if let Some((j, prev)) = basis_seen {
                    out.push(Diagnostic::error(
                        "L0302",
                        Some(i),
                        format!(
                            "duplicate basis pass '{}' (first basis '{}' at index {})",
                            p.token(),
                            PassSpec::Basis(prev).token(),
                            j
                        ),
                    ));
                }
                if zx_folds > 0 && *b == Basis::Rz && basis_seen.is_none() {
                    // Reachable only for odd hand-written orders like
                    // "zx-fold,basis=rz"; kept under the oscillator code.
                    out.push(Diagnostic::warning(
                        "L0304",
                        Some(i),
                        "basis=rz after zx-fold re-introduces foldable phases (known \
                         non-convergent combination)"
                            .to_string(),
                    ));
                }
                if basis_seen.is_none() {
                    basis_seen = Some((i, *b));
                }
            }
            PassSpec::Fuse => {
                if let Some((j, Basis::Rz)) = basis_seen {
                    out.push(Diagnostic::error(
                        "L0303",
                        Some(i),
                        format!(
                            "fuse after basis=rz (at index {j}) merges Rz runs back into U3, \
                             destroying the lowered form"
                        ),
                    ));
                }
            }
            PassSpec::ZxFold => {
                zx_folds += 1;
                if zx_folds == 2 {
                    out.push(Diagnostic::warning(
                        "L0304",
                        Some(i),
                        "zx-fold applied more than once: the fold/peephole pair is a known \
                         oscillator and repeated application does not converge"
                            .to_string(),
                    ));
                }
                if !matches!(basis_seen, Some((_, Basis::Rz))) {
                    out.push(Diagnostic::warning(
                        "L0305",
                        Some(i),
                        "zx-fold without a preceding basis=rz: phase folding only sees \
                         diagonal Rz phases, so this pass will mostly no-op"
                            .to_string(),
                    ));
                }
            }
            PassSpec::Commute | PassSpec::CxCancel => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Preset;

    fn codes(ds: &[Diagnostic]) -> Vec<&'static str> {
        ds.iter().map(|d| d.code).collect()
    }

    #[test]
    fn bounds_and_self_cx_fire() {
        let instrs = vec![
            Instr {
                op: Op::Rz(0.1),
                q0: 5,
                q1: None,
            },
            Instr {
                op: Op::Cx,
                q0: 1,
                q1: Some(1),
            },
        ];
        let ds = lint_instrs(2, &instrs);
        assert!(codes(&ds).contains(&"L0101"));
        assert!(codes(&ds).contains(&"L0102"));
    }

    #[test]
    fn angle_rules_fire() {
        let instrs = vec![
            Instr {
                op: Op::Rz(f64::NAN),
                q0: 0,
                q1: None,
            },
            Instr {
                op: Op::U3 {
                    theta: 0.1,
                    phi: f64::INFINITY,
                    lambda: 1e-310,
                },
                q0: 0,
                q1: None,
            },
        ];
        let ds = lint_instrs(1, &instrs);
        assert_eq!(
            codes(&ds),
            vec!["L0103", "L0103", "L0104"],
            "NaN, Inf, then the subnormal lambda: {ds:?}"
        );
    }

    #[test]
    fn unused_qubit_warns() {
        let mut c = Circuit::new(3);
        c.rz(0, 0.2);
        c.cx(0, 2);
        let ds = lint_circuit(&c);
        assert_eq!(codes(&ds), vec!["L0105"]);
        assert!(ds[0].message.contains("[1]"), "{}", ds[0].message);
    }

    #[test]
    fn clean_circuit_is_silent() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.7);
        assert!(lint_circuit(&c).is_empty());
    }

    #[test]
    fn gate_set_conformance() {
        let mut c = Circuit::new(1);
        c.rx(0, 0.3);
        assert_eq!(codes(&lint_output(&c, Expectation::RzBasis, 1e-10)), vec!["L0201"]);
        assert_eq!(codes(&lint_output(&c, Expectation::U3Basis, 1e-10)), vec!["L0202"]);
        assert_eq!(
            codes(&lint_output(&c, Expectation::CliffordT, 1e-10)),
            vec!["L0203"]
        );

        let mut t = Circuit::new(1);
        t.rz(0, std::f64::consts::FRAC_PI_4); // exactly a T gate
        assert_eq!(codes(&lint_output(&t, Expectation::CliffordT, 1e-10)), vec!["L0204"]);
        assert!(lint_output(&t, Expectation::RzBasis, 1e-10).is_empty());
    }

    #[test]
    fn presets_are_clean_specs() {
        for p in Preset::ALL {
            for basis in [Basis::U3, Basis::Rz] {
                let ds = lint_spec(&PipelineSpec::Preset(p), basis);
                assert!(ds.is_empty(), "preset {} for {basis:?}: {ds:?}", p.label());
            }
        }
    }

    #[test]
    fn spec_rules_fire() {
        let dup = PipelineSpec::parse("basis=u3,basis=rz").unwrap();
        assert_eq!(codes(&lint_spec(&dup, Basis::U3)), vec!["L0302"]);

        let fuse_after = PipelineSpec::parse("basis=rz,fuse").unwrap();
        assert_eq!(codes(&lint_spec(&fuse_after, Basis::U3)), vec!["L0303"]);

        let double_fold = PipelineSpec::parse("basis=rz,zx-fold,zx-fold").unwrap();
        assert_eq!(codes(&lint_spec(&double_fold, Basis::U3)), vec!["L0304"]);

        let bare_fold = PipelineSpec::parse("zx-fold").unwrap();
        assert_eq!(codes(&lint_spec(&bare_fold, Basis::U3)), vec!["L0305"]);

        let relower = PipelineSpec::parse("zx-fold,basis=rz").unwrap();
        let ds = lint_spec(&relower, Basis::U3);
        assert!(codes(&ds).contains(&"L0304"), "{ds:?}");
    }

    #[test]
    fn spec_parse_error_maps_to_l0301() {
        let err = PipelineSpec::parse("fuse,warp").unwrap_err();
        let d = spec_error_diagnostic(&err);
        assert_eq!(d.code, "L0301");
        assert!(d.message.contains("warp"));
    }
}
