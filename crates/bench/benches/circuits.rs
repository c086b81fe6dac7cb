//! Circuit-level benchmarks: transpile settings (Figures 3/6), the
//! nontrivial-rotation test, workflow synthesis (Figures 2/10/12), phase
//! folding (Figure 14), simulators (Figures 9/11/13).

use circuit::levels::{transpile, Basis, TranspileSetting};
use circuit::metrics::rotation_count;
use circuit::pass::{PipelineSpec, Preset};
use circuit::synthesize::synthesize_circuit;
use circuit::trivial::{as_trivial, trivial_set};
use criterion::{criterion_group, criterion_main, Criterion};
use engine::build_pipeline;
use gates::GateSeq;
use qmath::{Complex64, Mat2};
use sim::density::DensityMatrix;
use sim::noise::{NoiseModel, NoiseTarget};
use sim::statevector::State;
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4};
use std::time::Duration;
use workloads::qaoa::random_qaoa;

/// Figures 3/6: the 16 transpile settings on a QAOA circuit.
fn bench_transpile(c: &mut Criterion) {
    let qaoa = random_qaoa(10, 3, 7);
    let mut g = c.benchmark_group("fig6_transpile");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("all_16_settings", |b| {
        b.iter(|| {
            for s in TranspileSetting::all() {
                std::hint::black_box(transpile(&qaoa, s));
            }
        });
    });
    g.bench_function("u3_level3_commute", |b| {
        b.iter(|| {
            std::hint::black_box(transpile(
                &qaoa,
                TranspileSetting {
                    basis: Basis::U3,
                    level: 3,
                    commutation: true,
                },
            ))
        });
    });
    g.finish();
}

/// The lowering pass pipeline: per-preset end-to-end cost and per-pass
/// cost on suite circuits (a QAOA kernel and a trotterized classical
/// Ising Hamiltonian, the shapes the paper's transpile study sweeps).
fn bench_pipeline(c: &mut Criterion) {
    let qaoa = random_qaoa(10, 3, 7);
    let ising = workloads::hamiltonian::trotter_circuit(
        &workloads::hamiltonian::random_ising(8, 0.5, 0xBE),
        2,
        0.37,
    );
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    for preset in Preset::ALL {
        if preset == Preset::None {
            continue; // nothing to measure
        }
        let spec = PipelineSpec::Preset(preset);
        g.bench_function(format!("preset_{}_qaoa10", preset.label()), |b| {
            b.iter(|| {
                let mut work = qaoa.clone();
                std::hint::black_box(build_pipeline(&spec, Basis::U3).run(&mut work));
                work
            });
        });
    }
    // Per-pass cost, isolated, on the diagonal Ising workload (the shape
    // where zx-fold does real work).
    for pass in ["commute", "fuse", "cx-cancel", "basis=rz", "zx-fold"] {
        let spec = PipelineSpec::parse(pass).expect("known pass");
        g.bench_function(format!("pass_{pass}_ising8"), |b| {
            b.iter(|| {
                let mut work = ising.clone();
                std::hint::black_box(build_pipeline(&spec, Basis::Rz).run(&mut work));
                work
            });
        });
    }
    // Pipeline-object reuse: the buffer-recycling path the engine takes
    // for every batch item.
    let spec = PipelineSpec::Preset(Preset::Default);
    g.bench_function("preset_default_qaoa10_reused", |b| {
        let mut pipe = build_pipeline(&spec, Basis::U3);
        let mut work = qaoa.clone();
        b.iter(|| {
            work.copy_from(&qaoa);
            std::hint::black_box(pipe.run(&mut work));
        });
    });
    g.finish();
}

/// The nontrivial-rotation test behind every rotation count, basis
/// lowering and lint's Clifford+T check: one `as_trivial` call per input
/// class, lint's ε-tolerance query, and a whole-circuit count.
fn bench_trivial(c: &mut Criterion) {
    // The last member, in set order, of the largest group (|e₀₀| = 1/√2):
    // the most comparisons for a scan and for the index alike.
    let member = trivial_set()
        .iter()
        .rev()
        .find(|e| (e.matrix.e[0].abs() - FRAC_1_SQRT_2).abs() < 1e-9)
        .expect("the set has entries with |e00| = 1/sqrt(2)")
        .matrix
        .scale(Complex64::cis(0.7));
    let inputs = [
        ("generic_u3", Mat2::u3(0.5, 0.2, 0.9)),
        ("generic_rz", Mat2::rz(0.3)),
        ("rz_3pi4", Mat2::rz(3.0 * FRAC_PI_4)),
        ("member_times_phase", member),
    ];
    let qaoa = random_qaoa(10, 3, 7);
    // Build the set and its index outside the timed calls.
    as_trivial(&member, 1e-9);
    let mut g = c.benchmark_group("trivial");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for (name, m) in inputs {
        g.bench_function(format!("as_trivial_{name}"), |b| {
            b.iter(|| as_trivial(std::hint::black_box(&m), 1e-9));
        });
    }
    g.bench_function("as_trivial_generic_u3_lint_1e-2", |b| {
        b.iter(|| as_trivial(std::hint::black_box(&inputs[0].1), 1e-2));
    });
    g.bench_function("rotation_count_qaoa10", |b| {
        b.iter(|| rotation_count(std::hint::black_box(&qaoa)));
    });
    g.finish();
}

/// Figures 2/10: circuit-wide rotation replacement machinery (with a stub
/// synthesizer so the pass overhead itself is visible).
fn bench_circuit_synthesis(c: &mut Criterion) {
    let qaoa = random_qaoa(10, 3, 7);
    let lowered = transpile(
        &qaoa,
        TranspileSetting {
            basis: Basis::Rz,
            level: 3,
            commutation: false,
        },
    );
    let mut g = c.benchmark_group("fig10_circuit_pass");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("synthesize_circuit_overhead", |b| {
        b.iter(|| {
            std::hint::black_box(synthesize_circuit(&lowered, |_m: &Mat2| {
                (
                    [gates::Gate::T, gates::Gate::H].into_iter().collect::<GateSeq>(),
                    1e-3,
                )
            }))
        });
    });
    g.finish();
}

/// Figure 14: phase folding on a synthesized-style circuit.
fn bench_phasefold(c: &mut Criterion) {
    // A discrete circuit with fold opportunities.
    let mut circ = circuit::Circuit::new(6);
    for layer in 0..40 {
        for q in 0..6usize {
            circ.gate(q, if layer % 2 == 0 { gates::Gate::T } else { gates::Gate::S });
        }
        for q in 0..5usize {
            circ.cx(q, q + 1);
        }
        if layer % 5 == 4 {
            circ.h(layer % 6);
        }
    }
    let mut g = c.benchmark_group("fig14_phasefold");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("optimize_1440_gates", |b| {
        b.iter(|| std::hint::black_box(zxopt::optimize(&circ)));
    });
    g.finish();
}

/// Figures 9/11/13: simulator throughput.
fn bench_simulators(c: &mut Criterion) {
    let qaoa = random_qaoa(10, 2, 5);
    let mut g = c.benchmark_group("fig13_simulators");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    g.bench_function("statevector_10q_qaoa", |b| {
        b.iter(|| {
            let mut s = State::zero(10);
            s.apply_circuit(&qaoa);
            std::hint::black_box(s.norm_sqr())
        });
    });
    let small = random_qaoa(6, 1, 5);
    let lowered = transpile(
        &small,
        TranspileSetting {
            basis: Basis::U3,
            level: 1,
            commutation: false,
        },
    );
    let discrete = synthesize_circuit(&lowered, |_m: &Mat2| {
        (
            [gates::Gate::H, gates::Gate::T, gates::Gate::H]
                .into_iter()
                .collect::<GateSeq>(),
            1e-2,
        )
    });
    g.bench_function("density_6q_noisy", |b| {
        let model = NoiseModel {
            rate: 1e-4,
            target: NoiseTarget::NonPauliGates,
        };
        b.iter(|| {
            let mut rho = DensityMatrix::zero(6);
            rho.apply_noisy_circuit(&discrete.circuit, &model);
            std::hint::black_box(rho.trace())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_transpile,
    bench_pipeline,
    bench_trivial,
    bench_circuit_synthesis,
    bench_phasefold,
    bench_simulators
);
criterion_main!(benches);
