//! Compilation-service performance: shared-cache hit throughput,
//! worker-pool thread scaling, and the bytes a request reads and writes.
//!
//! The cold-compile groups clear (or rebuild) the cache every iteration,
//! so they measure real synthesis fanned out over the pool; the warm
//! group measures the service's steady state, where every rotation is a
//! cache hit and compilation reduces to lookups + splicing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use engine::{BackendKind, BatchItem, BatchRequest, Engine, GridsynthBackend, PipelineSpec};
use std::hint::black_box;
use std::time::Duration;
use workloads::random::haar_targets;
use workloads::requests::{MixKind, RequestMix, RequestPayload};

/// A QAOA-like workload: layered repeated angles plus a few distinct
/// Haar rotations so the cache sees both hits and misses.
fn workload() -> circuit::Circuit {
    let mut c = workloads::qaoa::random_qaoa(8, 3, 0xBE7C);
    for (i, u) in haar_targets(6, 7).iter().enumerate() {
        // Inject distinct arbitrary rotations via their Euler angles.
        let d = qmath::euler::decompose_u3(u);
        c.u3(i % 8, d.theta, d.phi, d.lambda);
    }
    c
}

fn engine_with(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .cache_capacity(1 << 14)
        .backend(GridsynthBackend::default())
        .build()
}

/// Steady state: every distinct rotation is already cached; throughput is
/// bounded by lookups and splicing, not synthesis.
fn bench_cache_hits(c: &mut Criterion) {
    let circuit = workload();
    let eng = engine_with(1);
    let warm = eng.compile(&circuit, BackendKind::Gridsynth, 1e-3).unwrap();
    assert!(warm.cache_misses > 0);
    let mut g = c.benchmark_group("engine_cache_hit");
    g.sample_size(20).measurement_time(Duration::from_secs(5));
    g.bench_function("compile_warm", |b| {
        b.iter(|| {
            let r = eng.compile(&circuit, BackendKind::Gridsynth, 1e-3).unwrap();
            assert_eq!(r.cache_misses, 0);
            std::hint::black_box(r.t_count)
        });
    });
    g.finish();
}

/// Cold compiles at several pool widths: the distinct rotations are
/// synthesized in parallel, output identical at every width.
fn bench_thread_scaling(c: &mut Criterion) {
    let circuit = workload();
    let mut g = c.benchmark_group("engine_threads");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    for threads in [1usize, 2, 4] {
        let eng = engine_with(threads);
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                eng.cache().clear();
                let r = eng.compile(&circuit, BackendKind::Gridsynth, 1e-3).unwrap();
                std::hint::black_box(r.t_count)
            });
        });
    }
    g.finish();
}

/// Snapshot persistence: encode/decode cost of a warmed cache — the
/// boot-time price of a warm start and the shutdown price of saving.
fn bench_snapshot(c: &mut Criterion) {
    let circuit = workload();
    let eng = engine_with(1);
    eng.compile(&circuit, BackendKind::Gridsynth, 1e-3).unwrap();
    let entries = eng.cache().len();
    assert!(entries > 0);
    let bytes = engine::snapshot::encode(eng.cache());
    let mut g = c.benchmark_group("engine_snapshot");
    g.sample_size(20).measurement_time(Duration::from_secs(5));
    g.bench_function(BenchmarkId::new("encode", entries), |b| {
        b.iter(|| std::hint::black_box(engine::snapshot::encode(eng.cache()).len()));
    });
    g.bench_function(BenchmarkId::new("decode", entries), |b| {
        b.iter(|| {
            let decoded = engine::snapshot::decode(&bytes).unwrap();
            std::hint::black_box(decoded.len())
        });
    });
    g.finish();
}

/// The request byte path around a warm compile, on circuits-mix bodies
/// shaped like the server's `POST /v1/compile` requests: reading a body
/// (`json::parse`, then `parse_qasm` of its `"qasm"` field) and writing
/// its response (`to_json(true)` of the all-hit report). Rates are in
/// bytes per second of body read and of response written; a plain copy
/// of the response bytes is the reference for what the core can move.
fn bench_request_bytes(c: &mut Criterion) {
    let eng = engine_with(1);
    let mut mix = RequestMix::new(MixKind::Circuits, 64, 0xB0D1);
    let (mut bodies, mut reports) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        let s = mix.sample();
        let RequestPayload::Circuit(circuit) = s.payload else {
            unreachable!("the circuits mix only yields circuits")
        };
        bodies.push(format!(
            "{{\"qasm\": {}, \"epsilon\": 0.01, \"backend\": \"gridsynth\", \
             \"pipeline\": \"{}\", \"name\": {}}}",
            server::json::escape(&circuit::qasm::to_qasm(&circuit)),
            s.pipeline,
            server::json::escape(&s.name),
        ));
        let spec = PipelineSpec::parse(s.pipeline).expect("mix pipelines parse");
        let request = BatchRequest::new()
            .item(BatchItem::new(s.name, circuit, 1e-2, BackendKind::Gridsynth).pipeline(spec));
        eng.compile_batch(&request).expect("compiles");
        let warm = eng.compile_batch(&request).expect("compiles");
        assert_eq!(warm.cache_misses, 0);
        reports.push(warm.items.into_iter().next().expect("one item"));
    }
    let body_bytes: usize = bodies.iter().map(String::len).sum();
    let responses: Vec<String> = reports.iter().map(|r| r.to_json(true)).collect();
    let response_bytes: usize = responses.iter().map(String::len).sum();

    let mut g = c.benchmark_group("request_bytes");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Bytes(body_bytes as u64));
    g.bench_function("parse_body", |b| {
        b.iter(|| {
            for body in &bodies {
                let v = server::json::parse(body).expect("bodies are JSON");
                let qasm = v
                    .get("qasm")
                    .and_then(|q| q.as_str())
                    .expect("a qasm field");
                black_box(circuit::qasm::parse_qasm(qasm).expect("bodies hold QASM"));
            }
        });
    });
    g.throughput(Throughput::Bytes(response_bytes as u64));
    g.bench_function("encode_response", |b| {
        b.iter(|| {
            for r in &reports {
                black_box(r.to_json(true));
            }
        });
    });
    g.bench_function("copy_response_reference", |b| {
        b.iter(|| {
            for r in &responses {
                black_box(r.as_bytes().to_vec());
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache_hits,
    bench_thread_scaling,
    bench_snapshot,
    bench_request_bytes
);
criterion_main!(benches);
