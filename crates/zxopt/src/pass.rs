//! The `zx-fold` pipeline adapter.
//!
//! Wraps this crate's [`crate::optimize`] (phase folding + per-wire
//! peephole, iterated) as a [`circuit::pass::Pass`], putting ZX-style
//! T-count optimization on the production lowering path for the first
//! time. The `circuit` crate cannot depend on `zxopt` (the dependency
//! points the other way), so the engine's pipeline builder injects this
//! adapter for [`circuit::pass::PassSpec::ZxFold`].

use circuit::pass::{Pass, PassSpec};
use circuit::Circuit;

/// The `zx-fold` pass: phase-polynomial folding plus algebraic peephole.
///
/// Best run *after* a `basis=rz` lowering — folding tracks diagonal
/// phases, which `U3` rotations interrupt — but it is semantics-preserving
/// (up to global phase) on any circuit.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZxFoldPass;

impl Pass for ZxFoldPass {
    fn name(&self) -> &'static str {
        PassSpec::ZxFold.token()
    }

    fn apply(&mut self, c: &mut Circuit) {
        *c = crate::optimize(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::metrics::t_count;
    use circuit::pass::Pipeline;
    use gates::Gate;

    #[test]
    fn pass_matches_optimize_and_reports_stats() {
        let mut c = Circuit::new(2);
        c.gate(1, Gate::T);
        c.cx(0, 1);
        c.cx(0, 1);
        c.gate(1, Gate::T);
        let expect = crate::optimize(&c);

        let mut work = c.clone();
        let stats = Pipeline::new(vec![Box::new(ZxFoldPass)]).run(&mut work);
        assert_eq!(stats.len(), 1);
        let stats = &stats[0];
        assert_eq!(work, expect);
        assert_eq!(stats.name, "zx-fold");
        assert_eq!(stats.instrs_before, c.len());
        assert_eq!(stats.instrs_after, work.len());
        assert_eq!(t_count(&work), 0, "the two T's fold into an S");
    }
}
