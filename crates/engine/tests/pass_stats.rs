//! `PassStats` are measured by the pipeline, once per stage boundary.
//! They must equal what measuring each pass on its own gives: the
//! instruction and nontrivial-rotation counts of the circuit right
//! before and right after that pass's `apply`. Checked for every preset
//! on both bases over the serving circuit mix, through the bare pipeline
//! and the contract-checked one the engine runs, plus every one-pass
//! pipeline and the empty ones.

use circuit::metrics::rotation_count;
use circuit::pass::{Pass, PassSpec, PassStats, Pipeline, PipelineSpec, Preset};
use circuit::{Basis, Circuit};
use engine::build_pipeline;
use workloads::requests::{MixKind, RequestMix, RequestPayload};

/// The circuits of the serving mix's circuit population.
fn mix_circuits() -> Vec<Circuit> {
    let mut mix = RequestMix::new(MixKind::Circuits, 64, 7);
    (0..24)
        .map(|_| match mix.sample().payload {
            RequestPayload::Circuit(c) => c,
            RequestPayload::Rz(_) => unreachable!("the circuit mix draws circuits only"),
        })
        .collect()
}

/// Runs each pass on its own, counting both ends of every `apply`.
/// `wall_ms` is zero: it is the one field the reference cannot repeat.
fn reference(passes: &[PassSpec], c: &mut Circuit) -> Vec<PassStats> {
    passes
        .iter()
        .map(|&spec| {
            let mut pass: Box<dyn Pass> = match spec {
                PassSpec::ZxFold => Box::new(zxopt::ZxFoldPass),
                other => Pipeline::builtin(other).expect("every other pass is built in"),
            };
            let (instrs_before, rotations_before) = (c.len(), rotation_count(c));
            pass.apply(c);
            PassStats {
                name: pass.name(),
                wall_ms: 0.0,
                instrs_before,
                instrs_after: c.len(),
                rotations_before,
                rotations_after: rotation_count(c),
            }
        })
        .collect()
}

fn without_wall(stats: Vec<PassStats>) -> Vec<PassStats> {
    stats
        .into_iter()
        .map(|s| PassStats { wall_ms: 0.0, ..s })
        .collect()
}

/// Checks `spec` on `input` against the reference, through both the
/// bare and the contract-checked pipeline.
fn check(spec: &PipelineSpec, basis: Basis, input: &Circuit) {
    let mut want_c = input.clone();
    let want = reference(&spec.passes(basis), &mut want_c);

    let mut bare = input.clone();
    let got = build_pipeline(spec, basis).run(&mut bare);
    assert_eq!(without_wall(got), want, "{spec} / {basis:?}");
    assert_eq!(bare, want_c, "{spec} / {basis:?}: output moved");

    let mut checked = input.clone();
    let got = lint::CheckedPipeline::new(build_pipeline(spec, basis)).run(&mut checked);
    assert_eq!(without_wall(got), want, "{spec} / {basis:?} (checked)");
    assert_eq!(
        checked, want_c,
        "{spec} / {basis:?} (checked): output moved"
    );
}

#[test]
fn every_preset_matches_the_per_pass_reference() {
    let circuits = mix_circuits();
    for preset in Preset::ALL {
        for basis in [Basis::U3, Basis::Rz] {
            for c in &circuits {
                check(&PipelineSpec::Preset(preset), basis, c);
            }
        }
    }
}

#[test]
fn one_pass_and_empty_pipelines_match_the_reference() {
    let circuits = mix_circuits();
    let one_pass = [
        PassSpec::Commute,
        PassSpec::Fuse,
        PassSpec::CxCancel,
        PassSpec::ZxFold,
        PassSpec::Basis(Basis::U3),
        PassSpec::Basis(Basis::Rz),
    ];
    for c in &circuits {
        for pass in one_pass {
            check(&PipelineSpec::Custom(vec![pass]), Basis::U3, c);
        }
        // An empty pipeline reports nothing and leaves the circuit be.
        for spec in [PipelineSpec::none(), PipelineSpec::Custom(Vec::new())] {
            let mut work = c.clone();
            assert!(build_pipeline(&spec, Basis::U3).run(&mut work).is_empty());
            assert_eq!(&work, c);
        }
    }
}
