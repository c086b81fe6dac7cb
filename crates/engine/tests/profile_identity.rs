//! Profiling is observation-only: compiling with allocation accounting
//! enabled must be byte-identical to compiling with it disabled, at
//! every worker thread count — and the work counters / profile totals
//! the engine aggregates must be deterministic and plausible.

use engine::{BackendKind, BatchItem, BatchRequest, Engine, GridsynthBackend, TrasynBackend};
use prof::WorkKind::{
    CacheProbes, ClosingScores, ExactSyntheses, GridCandidates, NormEquations, NormSolutions,
    PeepholeLookups, SampleDraws,
};
use std::sync::{Arc, Mutex};
use trasyn::{SynthesisConfig, Trasyn};

/// `prof::alloc::set_enabled` flips process-global state; serialize the
/// tests that toggle it so they can't observe each other's setting.
static GATE: Mutex<()> = Mutex::new(());

fn engine_with(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .cache_capacity(1 << 12)
        .backend(GridsynthBackend::default())
        .build()
}

fn request() -> BatchRequest {
    let qaoa = workloads::qaoa::random_qaoa(6, 2, 0xD15C);
    let rand = workloads::qaoa::random_qaoa(4, 3, 0xFACE);
    // `verify(true)` so the certification phase is profiled too.
    BatchRequest::new()
        .item(BatchItem::new("qaoa", qaoa.clone(), 1e-2, BackendKind::Gridsynth).verify(true))
        .item(BatchItem::new("qaoa-dup", qaoa, 1e-2, BackendKind::Gridsynth).verify(true))
        .item(BatchItem::new("rand", rand, 1e-3, BackendKind::Gridsynth).verify(true))
}

#[test]
fn profiling_never_changes_output_at_any_thread_count() {
    let _gate = GATE.lock().unwrap();
    let req = request();
    for threads in [1usize, 2, 8] {
        prof::alloc::set_enabled(false);
        let plain = engine_with(threads).compile_batch(&req).unwrap();

        prof::alloc::set_enabled(true);
        let profiled = engine_with(threads).compile_batch(&req).unwrap();
        prof::alloc::set_enabled(false);

        assert_eq!(plain.items.len(), profiled.items.len());
        for (a, b) in plain.items.iter().zip(&profiled.items) {
            assert_eq!(
                a.synthesized.circuit, b.synthesized.circuit,
                "profiled circuit for '{}' differs at {threads} threads",
                a.name
            );
            assert_eq!(a.t_count, b.t_count);
            assert_eq!(a.cache_hits, b.cache_hits);
            assert_eq!(a.cache_misses, b.cache_misses);
            assert!((a.synthesized.total_error - b.synthesized.total_error).abs() < 1e-15);
        }
        assert_eq!(plain.total_t_count, profiled.total_t_count);
        assert_eq!(plain.cache_hits, profiled.cache_hits);
        assert_eq!(plain.cache_misses, profiled.cache_misses);
        // The deterministic work counters land in the report either way
        // and agree bit-for-bit: they count algorithm steps, not clock
        // or allocator behaviour.
        assert_eq!(plain.work, profiled.work);
    }
}

#[test]
fn work_counters_are_deterministic_across_thread_counts() {
    let req = request();
    let baseline = engine_with(1).compile_batch(&req).unwrap();
    let w = baseline.work;
    assert!(
        w.get(GridCandidates) > 0,
        "gridsynth compile produced no candidate count"
    );
    assert!(w.get(NormEquations) > 0);
    assert!(w.get(ExactSyntheses) > 0);
    assert!(w.get(CacheProbes) > 0);
    // Solved equations can't outnumber attempts; every synthesis came
    // from a solution.
    assert!(w.get(NormSolutions) <= w.get(NormEquations));
    assert!(w.get(ExactSyntheses) <= w.get(NormSolutions));

    for threads in [2usize, 8] {
        let r = engine_with(threads).compile_batch(&req).unwrap();
        assert_eq!(
            baseline.work, r.work,
            "work counters differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn trasyn_work_counters_are_deterministic_across_thread_counts() {
    // The trasyn kernel counts its draws, closing scores and peephole
    // lookups per pass; the totals land in the report and do not depend
    // on which worker ran which rotation.
    let synth = Arc::new(Trasyn::new(4));
    let engine = |threads: usize| {
        let backend = TrasynBackend::new(
            Arc::clone(&synth),
            SynthesisConfig {
                samples: 128,
                budgets: vec![4, 4, 4],
                ..SynthesisConfig::default()
            },
        );
        Engine::builder()
            .threads(threads)
            .cache_capacity(1 << 12)
            .backend(backend)
            .build()
    };
    let circuit = workloads::qaoa::random_qaoa(4, 2, 0xD15C);
    let req = BatchRequest::new().item(BatchItem::new("qaoa", circuit, 1e-2, BackendKind::Trasyn));
    let baseline = engine(1).compile_batch(&req).unwrap().work;
    assert!(baseline.get(SampleDraws) > 0, "no trasyn draws counted");
    assert!(baseline.get(ClosingScores) > 0);
    assert!(baseline.get(PeepholeLookups) > 0);
    assert_eq!(baseline.get(GridCandidates), 0);
    for threads in [2usize, 8] {
        let r = engine(threads).compile_batch(&req).unwrap();
        assert_eq!(
            baseline, r.work,
            "trasyn work counters differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn engine_stats_accumulate_profile_totals() {
    let _gate = GATE.lock().unwrap();
    prof::alloc::set_enabled(true);
    let eng = engine_with(2);
    let req = request();
    eng.compile_batch(&req).unwrap();
    let first = eng.stats();
    eng.compile_batch(&req).unwrap();
    let second = eng.stats();
    prof::alloc::set_enabled(false);

    assert!(first.profile.alloc_enabled);
    // Work counters are monotone across batches; the second (fully
    // cached) batch still probes the cache.
    let (w1, w2) = (first.profile.work, second.profile.work);
    assert!(w2.get(CacheProbes) > w1.get(CacheProbes));
    assert!(w2.get(GridCandidates) >= w1.get(GridCandidates));
    // The pool ran at least once per batch and its totals only grow.
    assert!(first.profile.pool.runs >= 1);
    assert!(second.profile.pool.runs >= first.profile.pool.runs);
    assert!(second.profile.pool.jobs >= first.profile.pool.jobs);
    assert!(second.profile.pool.wall_ms >= first.profile.pool.wall_ms);
    // With accounting enabled the phases allocated *something*.
    let phase_allocs: u64 = first
        .profile
        .alloc
        .phases()
        .iter()
        .map(|(_, a)| a.allocs)
        .sum();
    assert!(phase_allocs > 0, "no allocations attributed to any phase");
    // Per-shard stats cover the cache and sum to its aggregate length.
    let entries: usize = first.profile.cache_shards.iter().map(|s| s.entries).sum();
    assert_eq!(entries, eng.cache().len());
}
