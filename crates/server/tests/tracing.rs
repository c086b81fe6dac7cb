//! Loopback tests for the request-tracing surface — the tentpole
//! acceptance criterion: a slow request must be explainable from its
//! trace alone. One `/debug/traces` entry carries a nested span tree
//! whose queue-wait / read / handle (parse / compile / write) spans sum
//! to the reported request latency, the `?min_ms=`/`?limit=` filters
//! work, the ring keeps the newest traces, and the slow-request
//! threshold feeds `trasyn_slow_requests_total`.
//!
//! The server needs Linux; so does this file.

#![cfg(target_os = "linux")]

use engine::{BackendKind, Engine, GridsynthBackend};
use server::client::Conn;
use server::{json, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn engine(threads: usize) -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .threads(threads)
            .cache_capacity(4096)
            .backend(GridsynthBackend::default())
            .build(),
    )
}

fn config(trace: trace::TraceConfig) -> ServerConfig {
    ServerConfig {
        http_workers: 2,
        queue_depth: 16,
        read_timeout: Duration::from_millis(500),
        default_epsilon: 1e-2,
        default_backend: BackendKind::Gridsynth,
        cache_file: None,
        trace,
        ..ServerConfig::default()
    }
}

fn capture_everything() -> trace::TraceConfig {
    trace::TraceConfig {
        enabled: true,
        sample_every: 1,
        ring: 64,
        slow_ms: 0.0,
        ..trace::TraceConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Conn {
    Conn::connect(&addr.to_string(), Duration::from_secs(30)).expect("connect")
}

/// A compile body heavy enough (distinct tight rotations) that the
/// request's wall time dwarfs the sub-microsecond gaps between spans.
fn heavy_body() -> String {
    let mut c = circuit::Circuit::new(2);
    for i in 0..8 {
        c.rz(i % 2, 0.1 + 0.077 * i as f64);
        c.cx(i % 2, (i + 1) % 2);
    }
    format!(
        "{{\"qasm\": {}, \"epsilon\": 1e-3}}",
        json::escape(&circuit::qasm::to_qasm(&c))
    )
}

fn child<'t>(node: &'t json::Value, name: &str) -> Option<&'t json::Value> {
    node.get("children")?
        .as_arr()?
        .iter()
        .find(|c| c.get("name").and_then(|n| n.as_str()) == Some(name))
}

#[test]
fn a_request_is_explainable_from_its_trace_alone() {
    let handle = Server::start("127.0.0.1:0", config(capture_everything()), engine(2)).unwrap();
    let mut c = connect(handle.addr());

    // First request on the connection: its trace carries the queue-wait
    // and read spans in addition to the handle span.
    let resp = c.request("POST", "/v1/compile", Some(&heavy_body())).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let resp = c.request("GET", "/debug/traces", None).unwrap();
    assert_eq!(resp.status, 200);
    let traces = json::parse(&resp.body).unwrap();
    let traces = traces.as_arr().expect("array of traces");
    let t = traces
        .iter()
        .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("POST /v1/compile"))
        .expect("compile trace retained");

    // Self-describing entry shape.
    for key in ["trace_id", "started_unix_ms", "duration_ms", "slow", "sampled", "spans"] {
        assert!(t.get(key).is_some(), "trace entry missing {key}: {}", resp.body);
    }
    let total_ms = t.get("duration_ms").unwrap().as_f64().unwrap();
    let spans = t.get("spans").unwrap();

    // The span tree tells the whole story: queue-wait / read / handle at
    // the top, parse / compile / write inside handle, and the engine
    // phases inside compile.
    let handle_span = child(spans, "handle").expect("handle span");
    for name in ["queue-wait", "read"] {
        assert!(child(spans, name).is_some(), "missing {name} span: {}", resp.body);
    }
    let compile_span = child(handle_span, "compile").expect("compile span");
    for name in ["parse", "write"] {
        assert!(child(handle_span, name).is_some(), "missing {name} span: {}", resp.body);
    }
    for name in ["lower", "cache-lookup", "synthesis", "splice"] {
        assert!(child(compile_span, name).is_some(), "missing {name} span: {}", resp.body);
    }

    // Acceptance: read, queue-wait and handle tile the trace — each
    // starts where the one before ends, and the trace ends where handle
    // does — so they account for the reported latency up to the
    // microsecond rounding of span offsets.
    const ROUNDING_MS: f64 = 0.003;
    let top = spans.get("children").and_then(|v| v.as_arr()).unwrap();
    let ms = |c: &json::Value, key: &str| c.get(key).and_then(|v| v.as_f64()).unwrap();
    let names: Vec<_> = top
        .iter()
        .map(|c| c.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    assert_eq!(names, ["read", "queue-wait", "handle"], "{}", resp.body);
    let mut end_ms = 0.0;
    for c in top {
        assert!(
            (ms(c, "start_ms") - end_ms).abs() <= ROUNDING_MS,
            "a top-level span does not start where the one before ends: {}",
            resp.body
        );
        end_ms = ms(c, "start_ms") + ms(c, "duration_ms");
    }
    assert!(
        (total_ms - end_ms).abs() <= ROUNDING_MS,
        "handle ends at {end_ms} ms but the trace at {total_ms} ms: {}",
        resp.body
    );
    let accounted: f64 = top.iter().map(|c| ms(c, "duration_ms")).sum();
    assert!(
        (total_ms - accounted).abs() <= ROUNDING_MS,
        "spans sum to {accounted} ms but the trace reports {total_ms} ms: {}",
        resp.body
    );

    // The root span carries the request attributes.
    let attrs = spans.get("attrs").expect("root span attrs");
    assert_eq!(attrs.get("endpoint").and_then(|v| v.as_str()), Some("compile"));
    assert_eq!(attrs.get("status").and_then(|v| v.as_f64()), Some(200.0));

    // The debug endpoint is itself observable.
    let m = c.request("GET", "/metrics", None).unwrap();
    assert!(
        m.body.contains("trasyn_requests_total{endpoint=\"debug\"} 1"),
        "{}",
        m.body
    );

    handle.shutdown();
}

#[test]
fn min_ms_and_limit_filter_and_bad_queries_are_400() {
    let handle = Server::start("127.0.0.1:0", config(capture_everything()), engine(1)).unwrap();
    let mut c = connect(handle.addr());
    for _ in 0..3 {
        assert_eq!(c.request("GET", "/healthz", None).unwrap().status, 200);
    }

    // Unfiltered: everything retained so far.
    let all = c.request("GET", "/debug/traces", None).unwrap();
    let n_all = json::parse(&all.body).unwrap().as_arr().unwrap().len();
    assert!(n_all >= 3, "{}", all.body);

    // min_ms high enough to exclude every healthz ping.
    let none = c.request("GET", "/debug/traces?min_ms=1e9", None).unwrap();
    assert_eq!(none.status, 200);
    assert_eq!(json::parse(&none.body).unwrap().as_arr().unwrap().len(), 0);

    // limit caps the page size, newest first.
    let one = c.request("GET", "/debug/traces?limit=1", None).unwrap();
    assert_eq!(json::parse(&one.body).unwrap().as_arr().unwrap().len(), 1);

    // Malformed or unknown query params are rejected loudly.
    for q in ["?min_ms=bogus", "?min_ms=-1", "?limit=x", "?nope=1"] {
        let resp = c.request("GET", &format!("/debug/traces{q}"), None).unwrap();
        assert_eq!(resp.status, 400, "{q} must be a 400, got {}", resp.status);
    }

    handle.shutdown();
}

#[test]
fn ring_keeps_only_the_newest_traces() {
    let trace_cfg = trace::TraceConfig {
        ring: 2,
        ..capture_everything()
    };
    let handle = Server::start("127.0.0.1:0", config(trace_cfg), engine(1)).unwrap();
    let mut c = connect(handle.addr());
    for _ in 0..5 {
        assert_eq!(
            c.request("POST", "/v1/compile", Some("{\"rz\": 0.37}")).unwrap().status,
            200
        );
    }

    let resp = c.request("GET", "/debug/traces", None).unwrap();
    let parsed = json::parse(&resp.body).unwrap();
    let traces = parsed.as_arr().unwrap();
    assert_eq!(traces.len(), 2, "ring holds exactly its capacity: {}", resp.body);
    let ids: Vec<f64> = traces
        .iter()
        .map(|t| t.get("trace_id").unwrap().as_f64().unwrap())
        .collect();
    assert!(ids[0] > ids[1], "newest first: {ids:?}");

    handle.shutdown();
}

#[test]
fn slow_requests_are_retained_and_counted_even_unsampled() {
    // Sampling off entirely — only the slow-outlier path retains, and
    // with a near-zero threshold every request is an outlier.
    let trace_cfg = trace::TraceConfig {
        enabled: true,
        sample_every: 0,
        ring: 8,
        slow_ms: 0.0001,
        ..trace::TraceConfig::default()
    };
    let handle = Server::start("127.0.0.1:0", config(trace_cfg), engine(1)).unwrap();
    let mut c = connect(handle.addr());
    for _ in 0..3 {
        assert_eq!(
            c.request("POST", "/v1/compile", Some("{\"rz\": 0.37}")).unwrap().status,
            200
        );
    }

    let resp = c.request("GET", "/debug/traces", None).unwrap();
    let parsed = json::parse(&resp.body).unwrap();
    let traces = parsed.as_arr().unwrap();
    assert!(!traces.is_empty(), "slow outliers retained without sampling");
    for t in traces {
        assert_eq!(t.get("slow").and_then(|v| v.as_bool()), Some(true), "{}", resp.body);
        assert_eq!(t.get("sampled").and_then(|v| v.as_bool()), Some(false), "{}", resp.body);
    }

    let m = c.request("GET", "/metrics", None).unwrap();
    let slow: f64 = m
        .body
        .lines()
        .find(|l| l.starts_with("trasyn_slow_requests_total "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(slow >= 3.0, "slow counter must cover all requests: {}", m.body);

    handle.shutdown();
}

#[test]
fn disabled_tracing_serves_an_empty_array_and_compiles_fine() {
    let trace_cfg = trace::TraceConfig {
        enabled: false,
        ..trace::TraceConfig::default()
    };
    let handle = Server::start("127.0.0.1:0", config(trace_cfg), engine(1)).unwrap();
    let mut c = connect(handle.addr());
    assert_eq!(
        c.request("POST", "/v1/compile", Some("{\"rz\": 0.37}")).unwrap().status,
        200
    );
    let resp = c.request("GET", "/debug/traces", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json::parse(&resp.body).unwrap().as_arr().unwrap().len(), 0);
    handle.shutdown();
}
