//! Ablations of trasyn's design choices (supports the paper's Figure 1
//! claims).
//!
//! 1. **Error-aware vs uniform sampling** — the MPS samples sequences
//!    with probability ∝ |trace|²; the ablation replaces this with
//!    uniform index choices and compares the best error found per sample
//!    budget (Figure 1(b): "error-aware sampling … delivering efficiency
//!    and accuracy").
//! 2. **Step-3 peephole contribution** — T/Clifford counts with and
//!    without the equivalence-table replacement.
//! 3. **Tensor-count scaling** — error vs number of tensors at a fixed
//!    total sample budget (the scalability mechanism of step 1).

use crate::context::Ctx;
use crate::util::{geomean, mean, write_csv};
use gates::GateSeq;
use qmath::distance::unitary_distance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trasyn::mps::TraceMps;
use trasyn::sample::sample_sequences;
use trasyn::SynthesisConfig;
use workloads::random::haar_targets;

/// Runs all three ablations.
pub fn ablation(ctx: &Ctx) {
    sampling_ablation(ctx);
    peephole_ablation(ctx);
    tensor_scaling(ctx);
}

fn sampling_ablation(ctx: &Ctx) {
    let targets = haar_targets(12, 0xAB1A);
    let budgets = [ctx.budget(), ctx.budget()];
    let k = 512usize;
    let mut aware_best = Vec::new();
    let mut uniform_best = Vec::new();
    let mut rows = Vec::new();
    for (i, u) in targets.iter().enumerate() {
        let mps = TraceMps::new(ctx.trasyn.table(), &budgets);
        let mut rng = StdRng::seed_from_u64(0x1111 + i as u64);
        // Error-aware (the real step 2).
        let aware = sample_sequences(&mps, u, k, &mut rng)
            .iter()
            .map(|o| o.error())
            .fold(f64::INFINITY, f64::min);
        // Uniform ablation: k uniform index tuples.
        let mut uni = f64::INFINITY;
        for _ in 0..k {
            let a = rng.gen_range(0..mps.sites[0].len());
            let b = rng.gen_range(0..mps.sites[1].len());
            let m = mps.sites[0][a].matrix * mps.sites[1][b].matrix;
            uni = uni.min(unitary_distance(u, &m));
        }
        aware_best.push(aware);
        uniform_best.push(uni);
        rows.push(format!("{i},{aware:.6e},{uni:.6e}"));
    }
    println!("Ablation 1: error-aware vs uniform sampling (k = {k}, 2 tensors)");
    println!(
        "  best error per target: aware geomean {:.2e}  uniform geomean {:.2e}  ({:.1}x better)",
        geomean(&aware_best),
        geomean(&uniform_best),
        geomean(&uniform_best) / geomean(&aware_best)
    );
    write_csv(
        &ctx.out("ablation_sampling.csv"),
        "idx,error_aware_best,uniform_best",
        &rows,
    );
}

fn peephole_ablation(ctx: &Ctx) {
    let targets = haar_targets(12, 0xAB1B);
    let mut with_t = Vec::new();
    let mut without_t = Vec::new();
    let mut with_cl = Vec::new();
    let mut without_cl = Vec::new();
    let mut rows = Vec::new();
    for (i, u) in targets.iter().enumerate() {
        let mps = TraceMps::new(ctx.trasyn.table(), &[ctx.budget(), ctx.budget()]);
        let mut rng = StdRng::seed_from_u64(0x2222 + i as u64);
        let outcomes = sample_sequences(&mps, u, 512, &mut rng);
        let best = outcomes
            .iter()
            .min_by(|a, b| a.error().total_cmp(&b.error()))
            .expect("samples");
        let mut raw = GateSeq::new();
        for (site, &idx) in mps.sites.iter().zip(best.indices.iter()) {
            raw.extend_seq(&site[idx].seq);
        }
        let opt = trasyn::peephole::optimize(&raw, ctx.trasyn.table());
        without_t.push(raw.t_count() as f64);
        with_t.push(opt.t_count() as f64);
        without_cl.push(raw.clifford_count() as f64);
        with_cl.push(opt.clifford_count() as f64);
        rows.push(format!(
            "{i},{},{},{},{}",
            raw.t_count(),
            opt.t_count(),
            raw.clifford_count(),
            opt.clifford_count()
        ));
    }
    println!("Ablation 2: step-3 peephole contribution");
    println!(
        "  mean T: {:.1} -> {:.1}   mean Clifford: {:.1} -> {:.1}",
        mean(&without_t),
        mean(&with_t),
        mean(&without_cl),
        mean(&with_cl)
    );
    write_csv(
        &ctx.out("ablation_peephole.csv"),
        "idx,t_before,t_after,clifford_before,clifford_after",
        &rows,
    );
}

fn tensor_scaling(ctx: &Ctx) {
    let targets = haar_targets(8, 0xAB1C);
    let mut rows = Vec::new();
    println!(
        "Ablation 3: error vs tensor count (fixed samples = {})",
        ctx.samples()
    );
    for tensors in 1..=3usize {
        let mut errs = Vec::new();
        for (i, u) in targets.iter().enumerate() {
            let out = ctx.trasyn.synthesize(
                u,
                &SynthesisConfig {
                    samples: ctx.samples(),
                    budgets: vec![ctx.budget(); tensors],
                    min_tensors: tensors,
                    seed: 0x3333 + i as u64,
                    ..Default::default()
                },
            );
            errs.push(out.error);
        }
        println!(
            "  {tensors} tensor(s): geomean error {:.2e}",
            geomean(&errs)
        );
        rows.push(format!("{tensors},{:.6e}", geomean(&errs)));
    }
    write_csv(
        &ctx.out("ablation_tensors.csv"),
        "tensors,geomean_error",
        &rows,
    );
}
