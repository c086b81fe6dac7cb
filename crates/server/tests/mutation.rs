//! Mutation meta-test: the differential harness must catch a *real*
//! miscompile, not just agree with itself.
//!
//! The PR 1 `phase_fold` parity-miscompile family (the complement bit
//! ignored, so phases folded across `X` conjugations pick up the wrong
//! sign) is reinjected through `zxopt`'s `#[doc(hidden)]` mutation hook;
//! the harness — same paths, same oracle, same shrinker as `trasyn-fuzz`
//! — must flag it, shrink it to the minimal three-instruction repro, and
//! write a replayable QASM artifact. This is the proof that a green fuzz
//! run means something.
//!
//! The harness's server path needs Linux; so does this file.

#![cfg(target_os = "linux")]

use circuit::pass::PipelineSpec;
use circuit::Circuit;
use engine::BackendKind;
use gates::Gate;
use server::fuzz::{FuzzConfig, Harness};
use std::sync::Mutex;
use zxopt::phasefold::mutation;

/// The mutation switch is process-global and libtest runs `#[test]`s on
/// concurrent threads, so every test that touches it must hold this
/// lock for its whole body — otherwise one test's `set_parity_bug`
/// flips the pass under the other's feet.
static MUTATION_LOCK: Mutex<()> = Mutex::new(());

fn config(out_dir: std::path::PathBuf) -> FuzzConfig {
    FuzzConfig {
        seed: 1,
        cases: 1,
        epsilon: 1e-2,
        backend: BackendKind::Gridsynth,
        max_qubits: 2,
        max_ops: 8,
        with_server: true,
        out_dir: Some(out_dir),
    }
}

#[test]
fn harness_catches_the_injected_phase_fold_parity_bug() {
    let _serial = MUTATION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out_dir = std::env::temp_dir().join(format!("trasyn-fuzz-meta-{}", std::process::id()));
    // The bug lives in phase folding; run it bare. T; X; T folds the two
    // T's across the X conjugation: correctly they cancel (T·X·T ≈ X up
    // to phase), with the complement bit ignored they fuse to S instead.
    let pipeline = PipelineSpec::parse("zx-fold").expect("valid spec");
    let mut txt = Circuit::new(1);
    txt.gate(0, Gate::T);
    txt.gate(0, Gate::X);
    txt.gate(0, Gate::T);

    let harness = Harness::new(config(out_dir.clone())).expect("harness starts");

    // Sanity: without the mutation every path agrees and the oracle
    // accepts — the harness is not flagging noise.
    assert!(
        harness.check_case(0, &txt, &pipeline).is_none(),
        "unmutated compile must be green"
    );

    mutation::set_parity_bug(true);
    let failure = harness.check_case(1, &txt, &pipeline);
    mutation::set_parity_bug(false);

    // Re-check after disabling: the harness goes green again, so the
    // failure below is attributable to the injected bug alone.
    assert!(harness.check_case(2, &txt, &pipeline).is_none());
    harness.finish();

    let failure = failure.expect("the differential harness must catch the miscompile");
    assert!(
        failure.reason.contains("oracle rejected"),
        "the statevector/ring oracle, not path disagreement, catches a \
         consistently-applied miscompile: {}",
        failure.reason
    );

    // The repro is shrunk to the minimal trigger: T; X; T (removing any
    // instruction makes the miscompile disappear).
    let repro = circuit::qasm::parse_qasm(&failure.qasm).expect("repro QASM parses");
    assert_eq!(repro.len(), 3, "shrunk to the minimal trigger:\n{}", failure.qasm);
    assert!(failure.qasm.contains("x q[0];"), "{}", failure.qasm);
    assert!(failure.qasm.contains("t q[0];"), "{}", failure.qasm);

    // The artifact is on disk, carries the replay command, and names the
    // settings that reproduce it.
    let path = failure.artifact.as_ref().expect("artifact written");
    let on_disk = std::fs::read_to_string(path).expect("artifact readable");
    assert_eq!(on_disk, failure.qasm);
    assert!(failure.qasm.contains(&failure.replay), "{}", failure.qasm);
    assert!(failure.replay.contains("--replay"), "{}", failure.replay);
    assert!(failure.replay.contains("--pipeline zx-fold"), "{}", failure.replay);

    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn mutated_rz_fold_is_caught_through_the_full_zx_preset() {
    // A second angle of attack: continuous Rz phases folding across an X
    // conjugation. Correctly Rz(0.3); X; Rz(0.4) folds to Rz(-0.1); X
    // (the second angle negates through the complement); under the bug
    // the angles *add* to Rz(0.7) — 0.4 radians of miscompile, far
    // outside epsilon.
    let _serial = MUTATION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out_dir = std::env::temp_dir().join(format!("trasyn-fuzz-meta2-{}", std::process::id()));
    let pipeline = PipelineSpec::parse("zx-fold").expect("valid spec");
    let mut c = Circuit::new(1);
    c.rz(0, 0.3);
    c.gate(0, Gate::X);
    c.rz(0, 0.4);

    let harness = Harness::new(FuzzConfig {
        with_server: false,
        ..config(out_dir.clone())
    })
    .expect("harness starts");
    assert!(harness.check_case(0, &c, &pipeline).is_none());

    mutation::set_parity_bug(true);
    let failure = harness.check_case(1, &c, &pipeline);
    mutation::set_parity_bug(false);
    harness.finish();

    let failure = failure.expect("Rz(0.7) vs Rz(-0.7) is far outside epsilon");
    assert!(failure.reason.contains("oracle rejected"), "{}", failure.reason);
    let _ = std::fs::remove_dir_all(&out_dir);
}
