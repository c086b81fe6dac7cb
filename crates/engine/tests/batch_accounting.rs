//! Per-item cache accounting of one batch: each batch-distinct key is
//! probed in the shared cache once and synthesized at most once, and an
//! item counts a key once, at its first appearance there — a hit when the
//! batch or the shared cache already holds it, otherwise a miss.

use circuit::Circuit;
use engine::{BackendKind, BatchItem, BatchRequest, Engine, GridsynthBackend, PipelineSpec};
use engine::{SettingsKey, Synthesizer};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Gridsynth, counting its calls.
struct Counting(GridsynthBackend, Arc<AtomicUsize>);

impl Synthesizer for Counting {
    fn kind(&self) -> BackendKind {
        self.0.kind()
    }
    fn settings_key(&self, eps: f64) -> SettingsKey {
        self.0.settings_key(eps)
    }
    fn synthesize(&self, target: &qmath::Mat2, eps: f64) -> (gates::GateSeq, f64) {
        self.1.fetch_add(1, Relaxed);
        self.0.synthesize(target, eps)
    }
}

fn rz_circuit(angles: &[f64]) -> Circuit {
    let mut c = Circuit::new(1);
    angles.iter().for_each(|&a| c.rz(0, a));
    c
}

#[test]
fn a_batch_probes_and_synthesizes_each_key_once() {
    let (r1, r2, r3) = (0.3, 0.7, 1.1);
    let calls = Arc::new(AtomicUsize::new(0));
    let counting = Counting(GridsynthBackend::default(), Arc::clone(&calls));
    let e = Engine::builder().threads(2).backend(counting).build();
    // An earlier compile warms r3 at 1e-2 into the shared cache.
    e.compile(&rz_circuit(&[r3]), BackendKind::Gridsynth, 1e-2)
        .unwrap();
    let (calls_before, before) = (calls.load(Relaxed), e.cache().stats());

    // The `none` pipeline keeps repeated rotations unfused.
    let item = |name: &str, angles: &[f64], eps| {
        BatchItem::new(name, rz_circuit(angles), eps, BackendKind::Gridsynth)
            .pipeline(PipelineSpec::none())
    };
    let req = BatchRequest::new()
        .item(item("a", &[r1, r2, r1], 1e-2))
        .item(item("b", &[r2, r3], 1e-2))
        .item(item("c", &[r1], 5e-3));
    let report = e.compile_batch(&req).unwrap();

    // (rotations, distinct, hits, misses): `a` queues r1 and r2; `b` finds
    // r2 queued by `a` and r3 in the shared cache; `c` is r1 at another ε.
    let got: Vec<_> = report
        .items
        .iter()
        .map(|i| {
            let s = &i.synthesized;
            (
                s.rotations,
                s.distinct_rotations,
                i.cache_hits,
                i.cache_misses,
            )
        })
        .collect();
    assert_eq!(got, [(3, 2, 0, 2), (2, 2, 2, 0), (1, 1, 0, 1)]);
    assert_eq!(
        calls.load(Relaxed) - calls_before,
        3,
        "one synthesis per miss"
    );
    assert_eq!(report.work.get(prof::WorkKind::CacheProbes), 5);
    let after = e.cache().stats();
    let moved = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!((moved, after.insertions - before.insertions), ((1, 3), 3));
}
