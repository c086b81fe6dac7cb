//! Cache snapshot round-trip at the engine level: a warm-started engine
//! serves previously-seen rotations without any synthesis call and
//! produces bit-identical circuits.

use engine::{snapshot, BackendKind, Engine, GridsynthBackend};

fn sample_circuit() -> circuit::Circuit {
    let mut c = circuit::Circuit::new(2);
    for layer in 0..4 {
        c.rz(0, 0.35 + 0.1 * layer as f64);
        c.cx(0, 1);
        c.rx(1, 0.8);
        c.h(0);
    }
    c.u3(1, 0.7, 0.3, -0.4);
    c
}

fn engine() -> Engine {
    Engine::builder()
        .threads(2)
        .cache_capacity(1024)
        .backend(GridsynthBackend::default())
        .build()
}

#[test]
fn warm_started_engine_is_bit_identical_and_all_hits() {
    let dir = std::env::temp_dir().join(format!("trasyn-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.snap");

    let c = sample_circuit();
    let cold = engine();
    let cold_report = cold.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
    assert!(cold_report.cache_misses > 0);
    let written = snapshot::save_to_file(cold.cache(), &path).unwrap();
    assert_eq!(written, cold.cache().len());

    // A brand-new engine (fresh cache, fresh counters) warm-starts from
    // the file: every distinct rotation is a hit, no synthesis happens,
    // and the compiled circuit is bit-identical.
    let warm = engine();
    assert!(matches!(
        snapshot::warm_from_file(warm.cache(), &path),
        snapshot::WarmStart::Loaded(n) if n == written
    ));
    let before = warm.stats();
    assert_eq!((before.cache.hits, before.cache.misses), (0, 0));

    let warm_report = warm.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
    assert_eq!(warm_report.cache_misses, 0, "warm start must serve everything");
    assert_eq!(warm_report.cache_hits, cold_report.cache_misses);
    assert_eq!(warm_report.synthesized.circuit, cold_report.synthesized.circuit);
    assert_eq!(
        warm_report.synthesized.total_error.to_bits(),
        cold_report.synthesized.total_error.to_bits(),
        "achieved error survives the snapshot bit-exactly"
    );

    // The hit is visible in the engine-wide stats shape too.
    let after = warm.stats();
    assert_eq!(after.cache.misses, 0, "miss counter must not increment");
    assert!(after.cache.hits > 0, "hit counter must increment");
    assert!((after.hit_rate() - 1.0).abs() < 1e-12);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_respects_smaller_capacity_on_load() {
    let c = sample_circuit();
    let big = engine();
    big.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
    let bytes = snapshot::encode(big.cache());

    // Load into a cache smaller than the snapshot (two entries, so one
    // per shard): the bound holds, no panic, and compilation still works
    // (re-synthesizing what was dropped).
    let small = Engine::builder()
        .threads(1)
        .cache_capacity(2)
        .backend(GridsynthBackend::default())
        .build();
    for (k, v) in snapshot::decode(&bytes).unwrap() {
        small.cache().load_entry(k, v);
    }
    assert!(small.cache().len() <= 2);
    let report = small.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
    assert_eq!(
        report.synthesized.circuit,
        big.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap().synthesized.circuit
    );
}
