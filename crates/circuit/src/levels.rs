//! The 16 transpile settings of Figure 6:
//! `{Rz, U3} × {level 0..3} × {± commutation}`.
//!
//! Since the pass-pipeline refactor this module is a thin veneer over
//! [`crate::pass`]: a [`TranspileSetting`] converts to a
//! [`PipelineSpec`] ([`TranspileSetting::spec`]) and [`transpile`] just
//! runs that pipeline, so the figure-6 search and the serving path go
//! through the same instrumented machinery.

use crate::ir::Circuit;
use crate::pass::{PassSpec, Pipeline, PipelineSpec};

/// Target intermediate representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Basis {
    /// `Clifford + Rz` (the `gridsynth` workflow).
    Rz,
    /// `CNOT + U3` (the trasyn workflow).
    U3,
}

/// One transpilation configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TranspileSetting {
    /// Target IR.
    pub basis: Basis,
    /// Optimization level 0–3 (mirroring the paper's Qiskit levels:
    /// 0 = direct lowering, 1 = +fusion, 2 = +CNOT-pair cancellation,
    /// 3 = +repeated fusion sweep).
    pub level: u8,
    /// Whether to run the §3.4 commutation pass first.
    pub commutation: bool,
}

impl TranspileSetting {
    /// All 16 settings, Rz first, then U3, level-major.
    pub fn all() -> Vec<TranspileSetting> {
        let mut out = Vec::with_capacity(16);
        for &basis in &[Basis::Rz, Basis::U3] {
            for level in 0..=3u8 {
                for &commutation in &[false, true] {
                    out.push(TranspileSetting {
                        basis,
                        level,
                        commutation,
                    });
                }
            }
        }
        out
    }
}

impl TranspileSetting {
    /// The pass-pipeline spec this setting means: the exact historic
    /// ladder (commute → fuse → cx-cancel → fuse → optional commute →
    /// fuse → basis), truncated by level. `transpile` runs this spec, so
    /// the two forms can never drift apart.
    pub fn spec(&self) -> PipelineSpec {
        let mut passes = Vec::new();
        if self.commutation {
            passes.push(PassSpec::Commute);
        }
        if self.level >= 1 {
            passes.push(PassSpec::Fuse);
        }
        if self.level >= 2 {
            passes.push(PassSpec::CxCancel);
            passes.push(PassSpec::Fuse);
        }
        if self.level >= 3 {
            if self.commutation {
                passes.push(PassSpec::Commute);
            }
            passes.push(PassSpec::Fuse);
        }
        passes.push(PassSpec::Basis(self.basis));
        PipelineSpec::Custom(passes)
    }
}

impl From<TranspileSetting> for PipelineSpec {
    fn from(s: TranspileSetting) -> PipelineSpec {
        s.spec()
    }
}

/// Transpiles `c` under a setting, returning the lowered circuit. Thin
/// wrapper over [`crate::pass::Pipeline`]: one clone up front, then every
/// stage runs in place.
pub fn transpile(c: &Circuit, setting: TranspileSetting) -> Circuit {
    let mut work = c.clone();
    Pipeline::from_spec(&setting.spec(), setting.basis)
        .expect("transpile settings use only built-in passes")
        .run(&mut work);
    work
}

/// Picks the setting minimizing the nontrivial-rotation count for a given
/// basis (the paper picks the best of the four levels per IR; Figure 6
/// counts which setting wins). Returns `(setting, rotations, circuit)`.
///
/// Settings are evaluated *streaming*: one work buffer is reused across
/// all eight candidates and only the current best circuit is retained, so
/// peak memory is two circuits, not eight. Ties keep the earliest setting
/// in [`TranspileSetting::all`] order (the historic behavior).
pub fn best_for_basis(c: &Circuit, basis: Basis) -> (TranspileSetting, usize, Circuit) {
    let mut work = Circuit::new(c.n_qubits());
    let mut best: Option<(TranspileSetting, usize, Circuit)> = None;
    for s in TranspileSetting::all().into_iter().filter(|s| s.basis == basis) {
        work.copy_from(c);
        let stats = Pipeline::from_spec(&s.spec(), s.basis)
            .expect("transpile settings use only built-in passes")
            .run(&mut work);
        let r = stats.last().expect("a basis pass ends every setting").rotations_after;
        if best.as_ref().is_none_or(|&(_, br, _)| r < br) {
            // Swap the candidate in and let `work` keep (and later
            // overwrite) the previous best's allocation.
            match best.as_mut() {
                Some(b) => {
                    b.0 = s;
                    b.1 = r;
                    std::mem::swap(&mut b.2, &mut work);
                }
                None => best = Some((s, r, std::mem::take(&mut work))),
            }
        }
    }
    best.expect("at least one setting per basis")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rotation_count;

    fn sample_circuit() -> Circuit {
        // Rz and Rx separated by a commuting CNOT — the motivating shape.
        let mut c = Circuit::new(2);
        c.rz(0, 0.3);
        c.rx(1, 0.7);
        c.cx(0, 1);
        c.rz(0, 0.4);
        c.rx(1, 0.2);
        c.cx(0, 1);
        c.cx(0, 1); // cancellable pair
        c
    }

    #[test]
    fn sixteen_settings() {
        assert_eq!(TranspileSetting::all().len(), 16);
    }

    #[test]
    fn u3_with_commutation_minimizes_rotations() {
        let c = sample_circuit();
        let plain = transpile(
            &c,
            TranspileSetting {
                basis: Basis::U3,
                level: 1,
                commutation: false,
            },
        );
        let commuted = transpile(
            &c,
            TranspileSetting {
                basis: Basis::U3,
                level: 3,
                commutation: true,
            },
        );
        assert!(
            rotation_count(&commuted) < rotation_count(&plain),
            "commutation must enable merges: {} vs {}",
            rotation_count(&commuted),
            rotation_count(&plain)
        );
    }

    #[test]
    fn rz_basis_never_beats_u3_on_mixed_axes() {
        let c = sample_circuit();
        let (_, rz_rot, _) = best_for_basis(&c, Basis::Rz);
        let (_, u3_rot, _) = best_for_basis(&c, Basis::U3);
        assert!(u3_rot <= rz_rot, "U3 {u3_rot} vs Rz {rz_rot}");
    }

    #[test]
    fn level_two_cancels_cx_pairs() {
        let c = sample_circuit();
        let t = transpile(
            &c,
            TranspileSetting {
                basis: Basis::U3,
                level: 2,
                commutation: false,
            },
        );
        // Of the three CNOTs, the adjacent identical pair cancels.
        assert_eq!(crate::metrics::cx_count(&t), 1, "{t}");
    }

    #[test]
    fn level_zero_is_direct_lowering() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.3);
        c.rx(0, 0.5);
        let t = transpile(
            &c,
            TranspileSetting {
                basis: Basis::U3,
                level: 0,
                commutation: false,
            },
        );
        // No fusion at level 0: both rotations survive.
        assert_eq!(rotation_count(&t), 2);
    }
}
