//! Tracing is observation-only: compiling with a live trace attached
//! must be byte-identical to compiling without one, at every worker
//! thread count — and the span tree the trace produces must actually
//! nest (children inside parents, own time consistent, the expected
//! phase spans present).

use engine::{BackendKind, BatchItem, BatchRequest, Engine, GridsynthBackend, TrasynBackend};
use trace::{AttrValue, SpanNode, TraceConfig, Tracer};

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
    // `verify(true)` so the certification phase (and its span) runs too.
    BatchRequest::new()
        .item(BatchItem::new("qaoa", qaoa.clone(), 1e-2, BackendKind::Gridsynth).verify(true))
        .item(BatchItem::new("qaoa-dup", qaoa, 1e-2, BackendKind::Gridsynth).verify(true))
        .item(BatchItem::new("rand", rand, 1e-3, BackendKind::Gridsynth).verify(true))
}

fn capture_everything() -> Tracer {
    Tracer::new(TraceConfig {
        enabled: true,
        sample_every: 1,
        ring: 4,
        slow_ms: 0.0,
        ..TraceConfig::default()
    })
}

#[test]
fn tracing_never_changes_output_at_any_thread_count() {
    let req = request();
    for threads in [1usize, 2, 8] {
        let plain = engine_with(threads).compile_batch(&req).unwrap();

        let tracer = capture_everything();
        let ctx = tracer.begin("request").expect("tracing enabled");
        let root = ctx.root();
        let traced = engine_with(threads)
            .compile_batch_traced(&req, Some(&root))
            .unwrap();
        tracer.finish(ctx);

        assert_eq!(plain.items.len(), traced.items.len());
        for (a, b) in plain.items.iter().zip(&traced.items) {
            assert_eq!(
                a.synthesized.circuit, b.synthesized.circuit,
                "traced circuit for '{}' differs at {threads} threads",
                a.name
            );
            assert_eq!(a.t_count, b.t_count);
            assert_eq!(a.cache_hits, b.cache_hits);
            assert_eq!(a.cache_misses, b.cache_misses);
            assert!((a.synthesized.total_error - b.synthesized.total_error).abs() < 1e-15);
        }
        assert_eq!(plain.total_t_count, traced.total_t_count);
        assert_eq!(plain.cache_hits, traced.cache_hits);
        assert_eq!(plain.cache_misses, traced.cache_misses);
    }
}

/// Walks the tree checking the structural invariants every node must
/// satisfy: non-negative own time, and no child longer than its parent
/// (children may *overlap* — pool workers run concurrently — but each
/// one starts and ends inside its parent's guard).
fn check_nesting(node: &SpanNode) {
    assert!(node.duration_ms >= 0.0, "negative duration in {}", node.name);
    assert!(node.own_ms >= 0.0, "negative own time in {}", node.name);
    let child_sum: f64 = node.children.iter().map(|c| c.duration_ms).sum();
    assert!(
        (node.own_ms - (node.duration_ms - child_sum).max(0.0)).abs() < 1e-9,
        "own_ms of {} inconsistent with children",
        node.name
    );
    for c in &node.children {
        assert!(
            c.duration_ms <= node.duration_ms + 0.5,
            "child {} ({} ms) outlives parent {} ({} ms)",
            c.name,
            c.duration_ms,
            node.name,
            node.duration_ms
        );
        assert!(
            c.start_ms + 1e-6 >= node.start_ms,
            "child {} starts before parent {}",
            c.name,
            node.name
        );
        check_nesting(c);
    }
}

#[test]
fn span_tree_nests_with_all_phases_at_every_thread_count() {
    for threads in [1usize, 2, 8] {
        let tracer = capture_everything();
        let ctx = tracer.begin("request").unwrap();
        let root = ctx.root();
        engine_with(threads)
            .compile_batch_traced(&request(), Some(&root))
            .unwrap();
        tracer.finish(ctx);

        let finished = tracer.recent();
        let tree = finished.first().expect("trace retained").tree();
        check_nesting(&tree);

        // Every engine phase shows up: per-item lowering, the cache
        // scan, pooled synthesis with per-job spans, splice, verify.
        let mut names = std::collections::HashSet::new();
        fn collect<'t>(n: &'t SpanNode, out: &mut std::collections::HashSet<&'t str>) {
            out.insert(n.name.as_str());
            for c in &n.children {
                collect(c, out);
            }
        }
        collect(&tree, &mut names);
        for phase in ["lower", "cache-lookup", "synthesis", "synthesize", "splice", "verify"] {
            assert!(
                names.contains(phase),
                "missing '{phase}' span at {threads} threads; got {names:?}"
            );
        }

        // Cross-thread attribution: at >1 threads the per-job synthesize
        // spans record the pool worker's thread label.
        if threads > 1 {
            fn any_synth_thread(n: &SpanNode) -> bool {
                (n.name == "synthesize" && n.thread.starts_with("synth-"))
                    || n.children.iter().any(any_synth_thread)
            }
            assert!(
                any_synth_thread(&tree),
                "no synthesize span carries a synth-N thread label at {threads} threads"
            );
        }
    }
}

/// Every per-job `synthesize` span under `node`.
fn synthesize_spans<'t>(node: &'t SpanNode, out: &mut Vec<&'t SpanNode>) {
    if node.name == "synthesize" {
        out.push(node);
    }
    for c in &node.children {
        synthesize_spans(c, out);
    }
}

fn attr<'t>(node: &'t SpanNode, key: &str) -> Option<&'t AttrValue> {
    node.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

#[test]
fn synthesize_spans_carry_their_backends_work() {
    // Each job's span carries every work counter its synthesis moved:
    // trasyn's draws, closing scores and peephole lookups, gridsynth's
    // grid candidates.
    let engine = Engine::builder()
        .threads(2)
        .cache_capacity(1 << 12)
        .backend(GridsynthBackend::default())
        .backend(TrasynBackend::with_table(3, 64))
        .build();
    let item = |name, seed, backend| {
        let circuit = workloads::qaoa::random_qaoa(4, 1, seed);
        BatchItem::new(name, circuit, 1e-2, backend)
    };
    let req = BatchRequest::new()
        .item(item("trasyn", 0xD15C, BackendKind::Trasyn))
        .item(item("gridsynth", 0xFACE, BackendKind::Gridsynth));
    let tracer = capture_everything();
    let ctx = tracer.begin("request").unwrap();
    let root = ctx.root();
    engine.compile_batch_traced(&req, Some(&root)).unwrap();
    tracer.finish(ctx);
    let tree = tracer.recent().first().expect("trace retained").tree();

    let mut spans = Vec::new();
    synthesize_spans(&tree, &mut spans);
    let mut seen = Vec::new();
    for span in spans {
        let Some(AttrValue::Str(backend)) = attr(span, "backend") else {
            panic!("synthesize span without a backend: {:?}", span.attrs);
        };
        let want: &[&str] = match backend.as_str() {
            "trasyn" => &["sample_draws", "closing_scores", "peephole_lookups"],
            "gridsynth" => &["grid_candidates"],
            other => panic!("unexpected backend {other}"),
        };
        for key in want {
            assert!(
                matches!(attr(span, key), Some(AttrValue::U64(n)) if *n > 0),
                "{backend} synthesize span lacks {key}: {:?}",
                span.attrs
            );
        }
        seen.push(backend.as_str());
    }
    assert!(
        seen.contains(&"trasyn") && seen.contains(&"gridsynth"),
        "synthesize spans seen: {seen:?}"
    );
}
