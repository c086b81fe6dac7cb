//! The lowering pass pipeline: named, instrumented, configurable.
//!
//! The paper's compilation study is a search over *sequences of transpile
//! passes* (fuse, commute, CX-pair cancellation, basis choice, ZX phase
//! folding). This module makes that sequence a first-class value instead
//! of a hard-coded ladder:
//!
//! * [`Pass`] — one in-place circuit transformation with a stable name;
//!   the [`Pipeline`] that sequences passes also measures them
//!   ([`PassStats`]: wall time, instruction and rotation counts before →
//!   after), counting each stage boundary once;
//! * [`PassSpec`] — the declarative identity of a pass (`fuse`,
//!   `commute`, `cx-cancel`, `zx-fold`, `basis=u3`, `basis=rz`);
//! * [`Preset`] — the five named pipelines (`none`, `fast`, `default`,
//!   `aggressive`, `zx`);
//! * [`PipelineSpec`] — a preset *or* a custom pass list, parsed from a
//!   spec string like `"commute,fuse,cx-cancel,basis=u3"`, with a
//!   canonical [`std::fmt::Display`] form;
//! * [`Pipeline`] — the runnable form: boxed passes with scratch buffers
//!   that are reused across stages, so lowering no longer allocates a
//!   fresh [`Circuit`] per stage.
//!
//! The `zx-fold` pass needs the `zxopt` crate, which depends on this one;
//! to keep the dependency graph acyclic, [`Pipeline::from_spec`] builds
//! only the built-in passes and [`Pipeline::from_spec_with`] accepts a
//! resolver for external adapters. The `engine` crate's `build_pipeline`
//! is the one resolver every production surface (CLI, server, repro)
//! shares, which is what makes equal specs produce bit-identical circuits
//! across all of them.

use crate::commute::commute_rotations_in_place;
use crate::fuse::fuse_into;
use crate::ir::{Circuit, Instr, Op};
use crate::levels::Basis;
use crate::metrics::rotation_count;
use qmath::Mat2;
use std::fmt;
use std::time::Instant;

/// Instrumentation for one pass execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PassStats {
    /// The pass's stable name (its [`PassSpec`] token).
    pub name: &'static str,
    /// Wall-clock milliseconds spent in the pass.
    pub wall_ms: f64,
    /// Instruction count entering the pass.
    pub instrs_before: usize,
    /// Instruction count leaving the pass.
    pub instrs_after: usize,
    /// Nontrivial-rotation count entering the pass.
    pub rotations_before: usize,
    /// Nontrivial-rotation count leaving the pass.
    pub rotations_after: usize,
}

/// One in-place circuit transformation; [`Pipeline::run_observed`]
/// measures it. Methods take `&mut self` so passes can own scratch
/// buffers and reuse them across invocations.
pub trait Pass {
    /// Stable name — the token [`PipelineSpec::parse`] accepts.
    fn name(&self) -> &'static str;

    /// Transforms the circuit in place.
    fn apply(&mut self, c: &mut Circuit);
}

/// The declarative identity of a pass: what a spec string names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassSpec {
    /// Push `Rz`/`Rx` through CNOTs toward merge partners
    /// ([`crate::commute::commute_rotations`]).
    Commute,
    /// Fuse adjacent single-qubit gates into one `U3`
    /// ([`crate::fuse::fuse_single_qubit`]).
    Fuse,
    /// Cancel immediately-adjacent identical CNOT pairs.
    CxCancel,
    /// ZX-style phase folding (`zxopt`); needs an external adapter, see
    /// [`Pipeline::from_spec_with`].
    ZxFold,
    /// Lower to one of the two intermediate representations
    /// ([`crate::basis`]).
    Basis(Basis),
}

impl PassSpec {
    /// The spec-string token for this pass.
    pub fn token(&self) -> &'static str {
        match self {
            PassSpec::Commute => "commute",
            PassSpec::Fuse => "fuse",
            PassSpec::CxCancel => "cx-cancel",
            PassSpec::ZxFold => "zx-fold",
            PassSpec::Basis(Basis::U3) => "basis=u3",
            PassSpec::Basis(Basis::Rz) => "basis=rz",
        }
    }

    /// Parses one spec-string token.
    pub fn parse(tok: &str) -> Option<PassSpec> {
        match tok {
            "commute" => Some(PassSpec::Commute),
            "fuse" => Some(PassSpec::Fuse),
            "cx-cancel" => Some(PassSpec::CxCancel),
            "zx-fold" => Some(PassSpec::ZxFold),
            "basis=u3" => Some(PassSpec::Basis(Basis::U3)),
            "basis=rz" => Some(PassSpec::Basis(Basis::Rz)),
            _ => None,
        }
    }
}

/// The named pipeline presets.
///
/// Presets are *basis-parametric*: `fast`, `default`, and `aggressive`
/// lower to whichever basis the consumer asks for (the synthesis
/// backend's preferred IR), while `zx` always lowers to `Clifford+Rz`
/// because phase folding tracks diagonal phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preset {
    /// No lowering at all: synthesize the circuit as-is.
    None,
    /// One fusion sweep, then the basis lowering.
    Fast,
    /// Commutation, fusion, CX-pair cancellation, re-fusion, basis
    /// lowering — the paper's level-2-with-commutation recipe.
    Default,
    /// [`Preset::Default`] plus a second commute+fuse round (level 3).
    Aggressive,
    /// [`Preset::Default`] lowered to `Clifford+Rz`, then ZX phase
    /// folding — the first time the `zxopt` optimizer sits on the
    /// production compile path.
    Zx,
}

impl Preset {
    /// All presets, in documentation order.
    pub const ALL: [Preset; 5] = [
        Preset::None,
        Preset::Fast,
        Preset::Default,
        Preset::Aggressive,
        Preset::Zx,
    ];

    /// Stable lowercase label (the spec string that names this preset).
    pub fn label(&self) -> &'static str {
        match self {
            Preset::None => "none",
            Preset::Fast => "fast",
            Preset::Default => "default",
            Preset::Aggressive => "aggressive",
            Preset::Zx => "zx",
        }
    }

    /// Parses a [`Preset::label`] string.
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "none" => Some(Preset::None),
            "fast" => Some(Preset::Fast),
            "default" => Some(Preset::Default),
            "aggressive" => Some(Preset::Aggressive),
            "zx" => Some(Preset::Zx),
            _ => None,
        }
    }

    /// Expands the preset into a concrete pass list for `basis`.
    pub fn expand(&self, basis: Basis) -> Vec<PassSpec> {
        use PassSpec::*;
        match self {
            Preset::None => vec![],
            Preset::Fast => vec![Fuse, Basis(basis)],
            Preset::Default => vec![Commute, Fuse, CxCancel, Fuse, Basis(basis)],
            Preset::Aggressive => {
                vec![Commute, Fuse, CxCancel, Fuse, Commute, Fuse, Basis(basis)]
            }
            Preset::Zx => vec![
                Commute,
                Fuse,
                CxCancel,
                Fuse,
                Basis(crate::levels::Basis::Rz),
                ZxFold,
            ],
        }
    }
}

/// A parsed pipeline description: a named preset or an explicit pass
/// list. This is the value that travels through `BatchItem`s, JSON
/// requests, and CLI flags; [`Pipeline`] is its runnable form.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PipelineSpec {
    /// One of the five named presets.
    Preset(Preset),
    /// An explicit, ordered pass list.
    Custom(Vec<PassSpec>),
}

impl Default for PipelineSpec {
    /// The `default` preset — what a bare compile request gets.
    fn default() -> Self {
        PipelineSpec::Preset(Preset::Default)
    }
}

/// A spec string that names no preset and no pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineSpecError {
    /// The offending token.
    pub token: String,
}

impl fmt::Display for PipelineSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown pipeline pass or preset '{}' (presets: none, fast, default, aggressive, \
             zx; passes: commute, fuse, cx-cancel, zx-fold, basis=u3, basis=rz)",
            self.token
        )
    }
}

impl std::error::Error for PipelineSpecError {}

impl PipelineSpec {
    /// The empty pipeline (`none` — compile as-is).
    pub fn none() -> Self {
        PipelineSpec::Preset(Preset::None)
    }

    /// Parses a spec string: a preset name, or a comma-separated pass
    /// list (e.g. `"commute,fuse,cx-cancel,basis=u3"`). Whitespace around
    /// tokens is ignored; the empty string is [`Preset::None`].
    pub fn parse(s: &str) -> Result<PipelineSpec, PipelineSpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(PipelineSpec::none());
        }
        if let Some(p) = Preset::parse(s) {
            return Ok(PipelineSpec::Preset(p));
        }
        let mut passes = Vec::new();
        for tok in s.split(',') {
            let tok = tok.trim();
            passes.push(PassSpec::parse(tok).ok_or_else(|| PipelineSpecError {
                token: tok.to_string(),
            })?);
        }
        Ok(PipelineSpec::Custom(passes))
    }

    /// The concrete pass list this spec means when lowering for `basis`.
    pub fn passes(&self, basis: Basis) -> Vec<PassSpec> {
        match self {
            PipelineSpec::Preset(p) => p.expand(basis),
            PipelineSpec::Custom(v) => v.clone(),
        }
    }

    /// `true` when the spec runs no passes at all for `basis`.
    pub fn is_empty(&self, basis: Basis) -> bool {
        self.passes(basis).is_empty()
    }
}

impl fmt::Display for PipelineSpec {
    /// The canonical spec string: a preset label, or the comma-joined
    /// pass tokens. `parse(x.to_string()) == x` for every value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineSpec::Preset(p) => f.write_str(p.label()),
            PipelineSpec::Custom(v) => {
                let toks: Vec<&str> = v.iter().map(|p| p.token()).collect();
                f.write_str(&toks.join(","))
            }
        }
    }
}

/// A [`PipelineSpec`] pass with no builder in scope (today: `zx-fold`
/// outside the engine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnresolvedPass {
    /// The pass that could not be built.
    pub pass: PassSpec,
}

impl fmt::Display for UnresolvedPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass '{}' needs an external adapter (build the pipeline through the engine)",
            self.pass.token()
        )
    }
}

impl std::error::Error for UnresolvedPass {}

/// The runnable pipeline: an ordered list of passes, each owning its
/// scratch buffers.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("Pipeline").field("passes", &names).finish()
    }
}

impl Pipeline {
    /// Wraps an explicit pass list.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        Pipeline { passes }
    }

    /// Builds the pipeline for `spec`, lowering for `basis`, using only
    /// this crate's built-in passes. Fails with [`UnresolvedPass`] on
    /// `zx-fold` (see [`Pipeline::from_spec_with`]).
    pub fn from_spec(spec: &PipelineSpec, basis: Basis) -> Result<Pipeline, UnresolvedPass> {
        Pipeline::from_spec_with(spec, basis, |_| None)
    }

    /// Builds the pipeline for `spec`, consulting `resolve` first for
    /// every pass so downstream crates can supply adapters (the engine
    /// maps [`PassSpec::ZxFold`] to `zxopt`); passes `resolve` declines
    /// fall back to the built-ins.
    pub fn from_spec_with(
        spec: &PipelineSpec,
        basis: Basis,
        mut resolve: impl FnMut(PassSpec) -> Option<Box<dyn Pass>>,
    ) -> Result<Pipeline, UnresolvedPass> {
        let mut passes: Vec<Box<dyn Pass>> = Vec::new();
        for p in spec.passes(basis) {
            match resolve(p).or_else(|| Self::builtin(p)) {
                Some(b) => passes.push(b),
                None => return Err(UnresolvedPass { pass: p }),
            }
        }
        Ok(Pipeline { passes })
    }

    /// The built-in implementation of a pass, `None` for passes that live
    /// outside this crate (`zx-fold`).
    pub fn builtin(spec: PassSpec) -> Option<Box<dyn Pass>> {
        match spec {
            PassSpec::Commute => Some(Box::new(CommutePass)),
            PassSpec::Fuse => Some(Box::<FusePass>::default()),
            PassSpec::CxCancel => Some(Box::new(CxCancelPass)),
            PassSpec::Basis(b) => Some(Box::new(BasisPass::new(b))),
            PassSpec::ZxFold => None,
        }
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// `true` for the empty (`none`) pipeline.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order, in place, returning one [`PassStats`]
    /// per pass.
    pub fn run(&mut self, c: &mut Circuit) -> Vec<PassStats> {
        self.run_observed(c, |_, _| {})
    }

    /// [`Pipeline::run`] with a between-stages hook: after each pass,
    /// `observe` sees that pass's [`PassStats`] and the circuit as the
    /// next stage will receive it. This is the seam static checkers hang
    /// off of (the `lint` crate's `CheckedPipeline` verifies each pass's
    /// declared postconditions here); the observer cannot mutate the
    /// circuit, so observed and unobserved runs are bit-identical.
    ///
    /// Every pass is measured here: `wall_ms` times `apply` alone, and
    /// each stage boundary is counted once (pass *i*'s "after" is pass
    /// *i + 1*'s "before").
    pub fn run_observed(
        &mut self,
        c: &mut Circuit,
        mut observe: impl FnMut(&PassStats, &Circuit),
    ) -> Vec<PassStats> {
        if self.passes.is_empty() {
            return Vec::new();
        }
        let (mut instrs, mut rotations) = (c.len(), rotation_count(c));
        self.passes
            .iter_mut()
            .map(|p| {
                let t0 = Instant::now();
                p.apply(c);
                let stats = PassStats {
                    name: p.name(),
                    wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    instrs_before: instrs,
                    instrs_after: c.len(),
                    rotations_before: rotations,
                    rotations_after: rotation_count(c),
                };
                (instrs, rotations) = (stats.instrs_after, stats.rotations_after);
                observe(&stats, c);
                stats
            })
            .collect()
    }
}

/// The `commute` pass: in-place swap sweeps, zero allocation.
struct CommutePass;

impl Pass for CommutePass {
    fn name(&self) -> &'static str {
        PassSpec::Commute.token()
    }

    fn apply(&mut self, c: &mut Circuit) {
        commute_rotations_in_place(c);
    }
}

/// The `fuse` pass; owns the output and per-qubit accumulator buffers and
/// reuses them across runs.
#[derive(Default)]
struct FusePass {
    out: Vec<Instr>,
    pending: Vec<Option<Mat2>>,
}

impl Pass for FusePass {
    fn name(&self) -> &'static str {
        PassSpec::Fuse.token()
    }

    fn apply(&mut self, c: &mut Circuit) {
        fuse_into(c, &mut self.out, &mut self.pending);
        // Swap the fused list in; next run reuses the old allocation.
        std::mem::swap(c.raw_instrs_mut(), &mut self.out);
    }
}

/// The `cx-cancel` pass: compacts the instruction list in place with a
/// read/write cursor pair, zero allocation.
struct CxCancelPass;

impl Pass for CxCancelPass {
    fn name(&self) -> &'static str {
        PassSpec::CxCancel.token()
    }

    fn apply(&mut self, c: &mut Circuit) {
        let instrs = c.raw_instrs_mut();
        let mut w = 0usize; // instrs[..w] is the compacted prefix
        for r in 0..instrs.len() {
            let i = instrs[r];
            if i.op == Op::Cx && w > 0 {
                let last = instrs[w - 1];
                if last.op == Op::Cx && last.q0 == i.q0 && last.q1 == i.q1 {
                    w -= 1; // the pair annihilates
                    continue;
                }
            }
            instrs[w] = i;
            w += 1;
        }
        instrs.truncate(w);
    }
}

/// A `basis=…` pass; owns a scratch circuit reused across runs.
struct BasisPass {
    basis: Basis,
    scratch: Circuit,
}

impl BasisPass {
    fn new(basis: Basis) -> Self {
        BasisPass {
            basis,
            scratch: Circuit::default(),
        }
    }
}

impl Pass for BasisPass {
    fn name(&self) -> &'static str {
        PassSpec::Basis(self.basis).token()
    }

    fn apply(&mut self, c: &mut Circuit) {
        self.scratch.reset(c.n_qubits());
        match self.basis {
            Basis::U3 => crate::basis::lower_u3_into(c, &mut self.scratch),
            Basis::Rz => crate::basis::lower_rz_into(c, &mut self.scratch),
        }
        // Same qubit count on both sides, so swapping the raw lists keeps
        // every invariant; the scratch keeps the old allocation.
        std::mem::swap(c.raw_instrs_mut(), self.scratch.raw_instrs_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{to_rz_basis, to_u3_basis};
    use crate::commute::commute_rotations;
    use crate::fuse::fuse_single_qubit;
    use crate::metrics::cx_count;

    fn sample() -> Circuit {
        let mut c = Circuit::new(2);
        c.rz(0, 0.3);
        c.rx(1, 0.7);
        c.cx(0, 1);
        c.rz(0, 0.4);
        c.rx(1, 0.2);
        c.cx(0, 1);
        c.cx(0, 1);
        c
    }

    #[test]
    fn spec_strings_roundtrip() {
        for s in [
            "none",
            "fast",
            "default",
            "aggressive",
            "zx",
            "fuse",
            "commute,fuse,cx-cancel,zx-fold,basis=u3",
            "basis=rz",
        ] {
            let spec = PipelineSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(PipelineSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        // Whitespace tolerated, canonicalized away.
        assert_eq!(
            PipelineSpec::parse(" fuse , basis=u3 ").unwrap().to_string(),
            "fuse,basis=u3"
        );
        assert_eq!(PipelineSpec::parse(""), Ok(PipelineSpec::none()));
    }

    #[test]
    fn unknown_tokens_are_errors() {
        let err = PipelineSpec::parse("fuse,frobnicate").unwrap_err();
        assert_eq!(err.token, "frobnicate");
        assert!(err.to_string().contains("frobnicate"));
        assert!(PipelineSpec::parse("Default").is_err(), "case-sensitive");
    }

    #[test]
    fn presets_expand_per_basis() {
        assert!(Preset::None.expand(Basis::U3).is_empty());
        assert_eq!(
            Preset::Fast.expand(Basis::Rz),
            vec![PassSpec::Fuse, PassSpec::Basis(Basis::Rz)]
        );
        let zx = Preset::Zx.expand(Basis::U3);
        assert_eq!(zx.last(), Some(&PassSpec::ZxFold));
        assert!(
            zx.contains(&PassSpec::Basis(Basis::Rz)),
            "zx folds diagonal phases, so it always lowers to Rz"
        );
    }

    #[test]
    fn passes_match_their_functional_forms() {
        let c = sample();

        let mut work = c.clone();
        Pipeline::from_spec(&PipelineSpec::parse("commute").unwrap(), Basis::U3)
            .unwrap()
            .run(&mut work);
        assert_eq!(work, commute_rotations(&c));

        let mut work = c.clone();
        Pipeline::from_spec(&PipelineSpec::parse("fuse").unwrap(), Basis::U3)
            .unwrap()
            .run(&mut work);
        assert_eq!(work, fuse_single_qubit(&c));

        let mut work = c.clone();
        Pipeline::from_spec(&PipelineSpec::parse("basis=u3").unwrap(), Basis::U3)
            .unwrap()
            .run(&mut work);
        assert_eq!(work, to_u3_basis(&c));

        let mut work = c.clone();
        Pipeline::from_spec(&PipelineSpec::parse("basis=rz").unwrap(), Basis::U3)
            .unwrap()
            .run(&mut work);
        assert_eq!(work, to_rz_basis(&c));
    }

    #[test]
    fn cx_cancel_compacts_in_place() {
        let c = sample();
        let mut work = c.clone();
        Pipeline::from_spec(&PipelineSpec::parse("cx-cancel").unwrap(), Basis::U3)
            .unwrap()
            .run(&mut work);
        assert_eq!(cx_count(&work), 1, "{work}");
        assert_eq!(work.len(), c.len() - 2);
        // Non-adjacent and non-identical CNOTs survive.
        let mut c2 = Circuit::new(3);
        c2.cx(0, 1);
        c2.cx(1, 0);
        c2.cx(0, 2);
        let mut w2 = c2.clone();
        Pipeline::from_spec(&PipelineSpec::parse("cx-cancel").unwrap(), Basis::U3)
            .unwrap()
            .run(&mut w2);
        assert_eq!(w2, c2);
    }

    #[test]
    fn stats_record_counts_and_names() {
        let c = sample();
        let mut work = c.clone();
        let spec = PipelineSpec::Preset(Preset::Default);
        let stats = Pipeline::from_spec(&spec, Basis::U3).unwrap().run(&mut work);
        assert_eq!(
            stats.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["commute", "fuse", "cx-cancel", "fuse", "basis=u3"]
        );
        assert_eq!(stats[0].instrs_before, c.len());
        for w in stats.windows(2) {
            assert_eq!(w[0].instrs_after, w[1].instrs_before, "stages chain");
            assert_eq!(w[0].rotations_after, w[1].rotations_before);
        }
        assert_eq!(stats.last().unwrap().instrs_after, work.len());
        assert_eq!(
            stats.last().unwrap().rotations_after,
            rotation_count(&work)
        );
    }

    #[test]
    fn zx_fold_is_unresolved_without_an_adapter() {
        let spec = PipelineSpec::parse("zx-fold").unwrap();
        let err = Pipeline::from_spec(&spec, Basis::U3).unwrap_err();
        assert_eq!(err.pass, PassSpec::ZxFold);
        assert!(err.to_string().contains("zx-fold"));
    }

    #[test]
    fn resolver_can_supply_external_passes() {
        struct Noop;
        impl Pass for Noop {
            fn name(&self) -> &'static str {
                "zx-fold"
            }
            fn apply(&mut self, _c: &mut Circuit) {}
        }
        let spec = PipelineSpec::parse("zx-fold").unwrap();
        let mut p = Pipeline::from_spec_with(&spec, Basis::U3, |s| match s {
            PassSpec::ZxFold => Some(Box::new(Noop)),
            _ => None,
        })
        .unwrap();
        let mut c = sample();
        let stats = p.run(&mut c);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "zx-fold");
    }

    #[test]
    fn pipeline_reuses_buffers_across_runs() {
        // Running the same pipeline twice must be idempotent on outputs
        // (the scratch-swap plumbing must not leak stale instructions).
        let spec = PipelineSpec::Preset(Preset::Aggressive);
        let mut p = Pipeline::from_spec(&spec, Basis::U3).unwrap();
        let mut a = sample();
        p.run(&mut a);
        let mut b = sample();
        p.run(&mut b);
        assert_eq!(a, b);
        // And on a circuit of a different size.
        let mut small = Circuit::new(1);
        small.rz(0, 0.2);
        small.rx(0, 0.1);
        p.run(&mut small);
        assert_eq!(small.n_qubits(), 1);
        assert_eq!(rotation_count(&small), 1);
    }
}
