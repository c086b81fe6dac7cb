//! Pipeline acceptance tests:
//!
//! 1. every preset is semantics-preserving — for random ≤3-qubit
//!    circuits, the statevector of the pipeline's output matches the
//!    input circuit's (up to global phase) to 1e-9, on every product
//!    state reachable by an H layer;
//! 2. pinned: the `zx` preset beats the `default` preset's rotation
//!    count on the fig-zx workload shape (a trotterized classical Ising
//!    Hamiltonian, where step 2 revisits step 1's parities);
//! 3. equal pipeline specs are bit-identical across thread counts and
//!    across `compile_with` / batch surfaces.

use circuit::metrics::rotation_count;
use circuit::pass::{PipelineSpec, Preset};
use circuit::{Basis, Circuit};
use engine::{build_pipeline, BackendKind, BatchItem, BatchRequest, Engine, GridsynthBackend};
use gates::Gate;
use proptest::prelude::*;
use sim::State;
use workloads::hamiltonian::{random_ising, trotter_circuit};

/// Fidelity-based equivalence on every H-mask product state (global
/// phase cancels in the fidelity).
fn equivalent(a: &Circuit, b: &Circuit, tol: f64) -> bool {
    assert_eq!(a.n_qubits(), b.n_qubits());
    for mask in 0..(1usize << a.n_qubits()) {
        let mut prep = Circuit::new(a.n_qubits());
        for q in 0..a.n_qubits() {
            if (mask >> q) & 1 == 1 {
                prep.h(q);
            }
        }
        let mut ca = prep.clone();
        ca.extend_circuit(a);
        let mut cb = prep;
        cb.extend_circuit(b);
        let mut sa = State::zero(a.n_qubits());
        sa.apply_circuit(&ca);
        let mut sb = State::zero(b.n_qubits());
        sb.apply_circuit(&cb);
        if (sa.fidelity(&sb) - 1.0).abs() > tol {
            return false;
        }
    }
    true
}

/// Raw instruction spec (same scheme as the circuit crate's QASM
/// proptest): an op selector plus raw material, folded into a valid
/// instruction for the circuit's qubit count.
type RawOp = (usize, usize, usize, f64, f64, f64);

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    let raw_op = (
        0usize..13,
        0usize..8,
        0usize..7,
        -3.0f64..3.0,
        -3.0f64..3.0,
        -3.0f64..3.0,
    );
    (1usize..4, prop::collection::vec(raw_op, 0..20)).prop_map(build)
}

fn build((n, ops): (usize, Vec<RawOp>)) -> Circuit {
    let mut c = Circuit::new(n);
    for (kind, qa, qb, t, p, l) in ops {
        let q = qa % n;
        match kind {
            0 => c.rz(q, t),
            1 => c.rx(q, t),
            2 => c.ry(q, t),
            3 => c.u3(q, t, p, l),
            4 => {
                if n > 1 {
                    c.cx(q, (q + 1 + qb % (n - 1)) % n);
                }
            }
            k => {
                let g = [
                    Gate::H,
                    Gate::S,
                    Gate::Sdg,
                    Gate::T,
                    Gate::Tdg,
                    Gate::X,
                    Gate::Y,
                    Gate::Z,
                ][(k - 5) % 8];
                c.gate(q, g);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every preset, lowered for both bases, preserves circuit semantics
    /// to 1e-9.
    #[test]
    fn presets_preserve_semantics(c in arb_circuit()) {
        for preset in Preset::ALL {
            for basis in [Basis::U3, Basis::Rz] {
                let spec = PipelineSpec::Preset(preset);
                let mut out = c.clone();
                build_pipeline(&spec, basis).run(&mut out);
                prop_assert!(
                    equivalent(&c, &out, 1e-9),
                    "preset {} (basis {basis:?}) broke semantics:\n{c}\n{out}",
                    preset.label()
                );
            }
        }
    }
}

/// The fig-zx workload shape: a 2-step trotterized classical Ising
/// Hamiltonian — all-diagonal, so the second Trotter step revisits the
/// first step's parities exactly.
fn fig_zx_workload() -> Circuit {
    trotter_circuit(&random_ising(5, 0.6, 0xF16), 2, 0.37)
}

#[test]
fn zx_preset_reduces_rotations_on_fig_zx_workload() {
    let c = fig_zx_workload();
    let run = |spec: &str| {
        let mut out = c.clone();
        build_pipeline(&PipelineSpec::parse(spec).unwrap(), Basis::Rz).run(&mut out);
        out
    };
    let default = run("default");
    let zx = run("zx");
    assert!(
        rotation_count(&zx) < rotation_count(&default),
        "phase folding must merge cross-step parities: zx {} vs default {}",
        rotation_count(&zx),
        rotation_count(&default)
    );
    // Each ZZ parity appears once per Trotter step, and only folding
    // merges across the CX blocks — expect at least a 25% cut over
    // default (empirically 8 vs 14 on this seed).
    assert!(
        rotation_count(&zx) * 4 <= rotation_count(&default) * 3,
        "zx {} vs default {}",
        rotation_count(&zx),
        rotation_count(&default)
    );
    // And it is still the same operator.
    assert!(equivalent(&c, &zx, 1e-9), "zx output diverged:\n{c}\n{zx}");
}

#[test]
fn equal_specs_are_bit_identical_across_threads_and_surfaces() {
    let c = fig_zx_workload();
    let spec = PipelineSpec::Preset(Preset::Zx);
    let engine_of = |threads: usize| {
        Engine::builder()
            .threads(threads)
            .cache_capacity(1 << 12)
            .backend(GridsynthBackend::default())
            .build()
    };
    let single = engine_of(1)
        .compile_with(&c, spec.clone(), BackendKind::Gridsynth, 1e-2)
        .unwrap();
    let pooled = engine_of(8)
        .compile_with(&c, spec, BackendKind::Gridsynth, 1e-2)
        .unwrap();
    assert_eq!(single.synthesized.circuit, pooled.synthesized.circuit);
    assert_eq!(single.pipeline, "zx");
    assert_eq!(
        single.passes.iter().map(|p| p.name).collect::<Vec<_>>(),
        pooled.passes.iter().map(|p| p.name).collect::<Vec<_>>(),
    );

    // The batch surface with the same spec string produces the same
    // circuit again.
    let item = BatchItem::new("w", c, 1e-2, BackendKind::Gridsynth)
        .pipeline(PipelineSpec::parse("zx").unwrap());
    let batch = engine_of(4)
        .compile_batch(&BatchRequest::new().item(item))
        .unwrap();
    assert_eq!(batch.items[0].synthesized.circuit, single.synthesized.circuit);
    // Batch-level pass totals cover the zx preset's six passes.
    let names: Vec<&str> = batch.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["commute", "fuse", "cx-cancel", "basis=rz", "zx-fold"]);
    assert_eq!(
        batch.passes.iter().find(|p| p.name == "fuse").unwrap().runs,
        2,
        "the zx preset fuses twice"
    );
}

#[test]
fn engine_stats_accumulate_pass_totals() {
    let eng = Engine::builder()
        .threads(1)
        .backend(GridsynthBackend::default())
        .build();
    assert!(eng.stats().passes.is_empty(), "fresh engine has no pass history");
    let c = fig_zx_workload();
    eng.compile_with(&c, PipelineSpec::default(), BackendKind::Gridsynth, 1e-2)
        .unwrap();
    eng.compile_with(&c, PipelineSpec::Preset(Preset::Zx), BackendKind::Gridsynth, 1e-2)
        .unwrap();
    let stats = eng.stats();
    let names: Vec<&str> = stats.passes.iter().map(|p| p.name.as_str()).collect();
    // Sorted by name for a stable /metrics exposition.
    assert_eq!(
        names,
        vec!["basis=rz", "commute", "cx-cancel", "fuse", "zx-fold"]
    );
    let fuse = stats.passes.iter().find(|p| p.name == "fuse").unwrap();
    assert_eq!(fuse.runs, 4, "two compiles × two fuse stages each");
    let zx = stats.passes.iter().find(|p| p.name == "zx-fold").unwrap();
    assert_eq!(zx.runs, 1);
    assert!(zx.rotations_out < zx.rotations_in, "folding removed rotations");
    assert!(stats.to_json().contains("\"passes\": [{\"name\": \"basis=rz\""));
}
