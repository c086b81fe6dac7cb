//! Loopback integration tests:
//!
//! 1. a warm-started server answers a previously-seen rotation without a
//!    synthesis call (hit counter increments, miss counter does not);
//! 2. parallel server responses are bit-identical to sequential
//!    `trasyn-compile` output.
//!
//! The 429 backpressure paths are covered in `tests/event_core.rs`. The
//! server needs Linux; so does this file.

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

fn config() -> ServerConfig {
    ServerConfig {
        http_workers: 4,
        queue_depth: 16,
        read_timeout: Duration::from_millis(500),
        default_epsilon: 1e-2,
        default_backend: BackendKind::Gridsynth,
        cache_file: None,
        ..ServerConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Conn {
    Conn::connect(&addr.to_string(), Duration::from_secs(30)).expect("connect")
}

/// `trasyn_<name> <value>` from a /metrics exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len() + 1..].trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}")) as u64
}

#[test]
fn healthz_metrics_and_errors() {
    let handle = Server::start("127.0.0.1:0", config(), engine(1)).unwrap();
    let mut c = connect(handle.addr());

    let resp = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("\"ok\""));

    // Error paths: 404, 405, bad JSON, bad schema, unknown backend.
    assert_eq!(c.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(c.request("GET", "/v1/compile", None).unwrap().status, 405);
    assert_eq!(
        c.request("POST", "/v1/compile", Some("not json")).unwrap().status,
        400
    );
    assert_eq!(
        c.request("POST", "/v1/compile", Some("{\"epsilon\": 0.01}")).unwrap().status,
        400,
        "needs rz or qasm"
    );
    assert_eq!(
        c.request("POST", "/v1/compile", Some("{\"rz\": 0.3, \"backend\": \"qiskit\"}"))
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        c.request("POST", "/v1/compile", Some("{\"rz\": 0.3, \"backend\": \"trasyn\"}"))
            .unwrap()
            .status,
        400,
        "backend not hosted on this engine"
    );

    // A real compile, then metrics reflect all of the above.
    let resp = c
        .request("POST", "/v1/compile", Some("{\"rz\": 0.37}"))
        .unwrap();
    assert_eq!(resp.status, 200);
    let parsed = json::parse(&resp.body).unwrap();
    assert!(parsed.get("qasm").unwrap().as_str().unwrap().contains("OPENQASM"));
    assert_eq!(parsed.get("cache_misses").unwrap().as_f64(), Some(1.0));

    let m = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(m.status, 200);
    assert_eq!(metric(&m.body, "trasyn_requests_total{endpoint=\"compile\"}"), 6);
    assert_eq!(metric(&m.body, "trasyn_responses_total{status=\"200\"}"), 2); // healthz + compile
    assert_eq!(metric(&m.body, "trasyn_responses_total{status=\"400\"}"), 4);
    assert_eq!(metric(&m.body, "trasyn_cache_misses_total"), 1);

    let report = handle.shutdown();
    assert!(report.requests >= 8);
}

#[test]
fn out_of_range_epsilon_is_400_not_a_dead_worker() {
    // gridsynth asserts eps < 1.0 and needs eps >= 1e-7; both must come
    // back as 400s, and the worker must keep serving afterwards.
    let cfg = ServerConfig {
        http_workers: 1,
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let mut c = connect(handle.addr());
    for bad in ["2.0", "1.0", "1e-12", "0", "-0.1"] {
        let body = format!("{{\"rz\": 0.3, \"epsilon\": {bad}}}");
        let resp = c.request("POST", "/v1/compile", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "epsilon {bad} must be rejected");
    }
    // The single worker is still alive and compiling.
    let resp = c
        .request("POST", "/v1/compile", Some("{\"rz\": 0.3, \"epsilon\": 0.01}"))
        .unwrap();
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

#[test]
fn warm_started_server_hits_without_synthesis() {
    let dir = std::env::temp_dir().join(format!("trasyn-server-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("server.snap");
    let mut cfg = config();
    cfg.cache_file = Some(cache_file);

    // First server: compile one rotation cold, shut down (saves snapshot).
    let first = Server::start("127.0.0.1:0", cfg.clone(), engine(1)).unwrap();
    let mut c = connect(first.addr());
    let body = "{\"rz\": 0.6180339887, \"epsilon\": 0.01}";
    let resp = c.request("POST", "/v1/compile", Some(body)).unwrap();
    assert_eq!(resp.status, 200);
    let cold = json::parse(&resp.body).unwrap();
    assert_eq!(cold.get("cache_misses").unwrap().as_f64(), Some(1.0));
    let report = first.shutdown();
    match report.cache_saved {
        Some(Ok(n)) => assert!(n >= 1, "snapshot must contain the rotation"),
        other => panic!("expected a saved snapshot, got {other:?}"),
    }

    // Second server: fresh engine, warm-started from the file. The same
    // rotation is answered as a pure cache hit: the hit counter
    // increments, the miss counter does not, and the compiled QASM is
    // bit-identical.
    let second = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    assert!(
        matches!(second.warm_start, engine::WarmStart::Loaded(n) if n >= 1),
        "{:?}",
        second.warm_start
    );
    let mut c = connect(second.addr());
    let before = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(metric(&before.body, "trasyn_cache_hits_total"), 0);
    assert_eq!(metric(&before.body, "trasyn_cache_misses_total"), 0);

    let resp = c.request("POST", "/v1/compile", Some(body)).unwrap();
    assert_eq!(resp.status, 200);
    let warm = json::parse(&resp.body).unwrap();
    assert_eq!(warm.get("cache_hits").unwrap().as_f64(), Some(1.0));
    assert_eq!(warm.get("cache_misses").unwrap().as_f64(), Some(0.0));
    assert_eq!(
        warm.get("qasm").unwrap().as_str(),
        cold.get("qasm").unwrap().as_str(),
        "warm answer must be bit-identical"
    );

    let after = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(metric(&after.body, "trasyn_cache_hits_total"), 1, "hit counter increments");
    assert_eq!(metric(&after.body, "trasyn_cache_misses_total"), 0, "miss counter does not");

    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_server_responses_match_sequential_compile() {
    // The server compiles through a 2-thread pool with 4 concurrent HTTP
    // workers; the reference is the sequential path trasyn-compile uses
    // (same Engine call, 1 thread, cold cache per request set).
    let handle = Server::start("127.0.0.1:0", config(), engine(2)).unwrap();
    let addr = handle.addr();

    let mut qasm_reqs: Vec<(String, String)> = Vec::new(); // (body, name)
    let mut mix = workloads::requests::RequestMix::new(workloads::requests::MixKind::Mixed, 6, 7);
    for i in 0..6 {
        let s = mix.sample();
        let body = match &s.payload {
            workloads::requests::RequestPayload::Rz(theta) => {
                format!("{{\"rz\": {theta}, \"name\": \"req{i}\"}}")
            }
            workloads::requests::RequestPayload::Circuit(c) => format!(
                "{{\"qasm\": {}, \"name\": \"req{i}\"}}",
                json::escape(&circuit::qasm::to_qasm(c))
            ),
        };
        qasm_reqs.push((body, format!("req{i}")));
    }

    // Fire every request from 4 client threads concurrently, twice each
    // (second pass runs against a warm cache).
    let responses: Vec<(usize, String)> = std::thread::scope(|s| {
        let reqs = &qasm_reqs;
        let mut handles = Vec::new();
        for t in 0..4 {
            handles.push(s.spawn(move || {
                let mut c = Conn::connect(&addr.to_string(), Duration::from_secs(60)).unwrap();
                let mut out = Vec::new();
                for pass in 0..2 {
                    for k in 0..reqs.len() {
                        // Stagger order per thread so requests interleave.
                        let i = (k + t + pass) % reqs.len();
                        let resp = c
                            .request("POST", "/v1/compile", Some(&reqs[i].0))
                            .expect("request");
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        out.push((i, resp.body));
                    }
                }
                out
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Sequential reference: same requests through a 1-thread engine — the
    // exact code path trasyn-compile's single-item batches take.
    let reference = engine(1);
    let mut expected: Vec<String> = Vec::new();
    for (body, _) in &qasm_reqs {
        let v = json::parse(body).unwrap();
        let mut item = match (v.get("rz"), v.get("qasm")) {
            (Some(rz), None) => {
                let mut c = circuit::Circuit::new(1);
                c.rz(0, rz.as_f64().unwrap());
                engine::BatchItem::new("x", c, 1e-2, BackendKind::Gridsynth)
                    .pipeline(engine::PipelineSpec::none())
            }
            (None, Some(q)) => engine::BatchItem::new(
                "x",
                circuit::qasm::parse_qasm(q.as_str().unwrap()).unwrap(),
                1e-2,
                BackendKind::Gridsynth,
            ),
            _ => unreachable!(),
        };
        item.epsilon = 1e-2;
        let report = reference
            .compile_batch(&engine::BatchRequest::new().item(item))
            .unwrap();
        expected.push(circuit::qasm::to_qasm(&report.items[0].synthesized.circuit));
    }

    assert_eq!(responses.len(), 4 * 2 * qasm_reqs.len());
    for (i, body) in &responses {
        let parsed = json::parse(body).unwrap();
        assert_eq!(
            parsed.get("qasm").unwrap().as_str().unwrap(),
            expected[*i],
            "response for request {i} must be bit-identical to the sequential path"
        );
    }

    handle.shutdown();
}

#[test]
fn pipelined_requests_come_back_in_order_and_correctly_framed() {
    // HTTP/1.1 pipelining: several requests written back-to-back on one
    // connection must be answered in order, each response framed by its
    // own Content-Length. Distinct rotations make the bodies
    // distinguishable, so a framing slip would surface as a mismatched
    // answer, not just a parse error.
    let handle = Server::start("127.0.0.1:0", config(), engine(2)).unwrap();
    let mut c = connect(handle.addr());

    let bodies: Vec<String> = (0..5)
        .map(|i| format!("{{\"rz\": 0.{}1, \"name\": \"p{i}\"}}", i + 1))
        .collect();
    let mut reqs: Vec<(&str, &str, Option<&str>)> = vec![("GET", "/healthz", None)];
    for b in &bodies {
        reqs.push(("POST", "/v1/compile", Some(b)));
    }
    reqs.push(("GET", "/healthz", None));

    let responses = c.pipeline(&reqs).expect("pipelined responses");
    assert_eq!(responses.len(), reqs.len());
    assert!(responses[0].body.contains("\"ok\""));
    assert!(responses.last().unwrap().body.contains("\"ok\""));
    for (i, resp) in responses[1..=bodies.len()].iter().enumerate() {
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = json::parse(&resp.body).unwrap();
        assert_eq!(
            parsed.get("name").and_then(|n| n.as_str()),
            Some(format!("p{i}").as_str()),
            "response {i} out of order: {}",
            resp.body
        );
        assert!(resp.keep_alive(), "pipelined responses keep the connection");
    }

    // The same connection still works request-by-request afterwards, and
    // the answers match a fresh compile of the same rotation.
    let again = c.request("POST", "/v1/compile", Some(&bodies[2])).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(
        json::parse(&again.body).unwrap().get("qasm").unwrap().as_str(),
        json::parse(&responses[3].body).unwrap().get("qasm").unwrap().as_str(),
        "pipelined and sequential answers agree"
    );

    handle.shutdown();
}

#[test]
fn pipeline_requests_fold_and_match_the_engine_path() {
    // Acceptance criterion: a `"pipeline": "zx"` request runs ZX phase
    // folding on the serving path, reports per-pass stats, and produces
    // the bit-identical circuit the engine/CLI path produces for the same
    // spec; unknown specs and the removed transpile flag are 400s;
    // /metrics exports the per-pass counters.
    let handle = Server::start("127.0.0.1:0", config(), engine(2)).unwrap();
    let mut c = connect(handle.addr());

    // A two-layer diagonal circuit with fold opportunities: the same
    // parity phase appears on both sides of a CX pair.
    let mut circ = circuit::Circuit::new(2);
    circ.rz(0, 0.4);
    circ.cx(0, 1);
    circ.rz(1, 0.7);
    circ.cx(0, 1);
    circ.rz(1, 0.7);
    circ.rz(0, 0.4);
    let qasm = circuit::qasm::to_qasm(&circ);

    let body = format!(
        "{{\"qasm\": {}, \"pipeline\": \"zx\", \"epsilon\": 0.01}}",
        json::escape(&qasm)
    );
    let resp = c.request("POST", "/v1/compile", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = json::parse(&resp.body).unwrap();
    assert_eq!(parsed.get("pipeline").unwrap().as_str(), Some("zx"));
    let passes = parsed.get("passes").unwrap().as_arr().unwrap();
    let names: Vec<&str> = passes
        .iter()
        .map(|p| p.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names.contains(&"zx-fold"), "zx preset must run folding: {names:?}");
    assert!(names.contains(&"basis=rz"), "zx lowers to Clifford+Rz: {names:?}");

    // Bit-identity with the engine path for the same spec.
    let reference = engine(1);
    let spec = engine::PipelineSpec::parse("zx").unwrap();
    let report = reference
        .compile_with(&circ, spec, BackendKind::Gridsynth, 1e-2)
        .unwrap();
    assert_eq!(
        parsed.get("qasm").unwrap().as_str().unwrap(),
        circuit::qasm::to_qasm(&report.synthesized.circuit),
        "server and engine must agree bit for bit on equal specs"
    );

    // The removed boolean alias is a 400 naming its replacement, alone
    // or beside a pipeline, never a silent compile with the default.
    for extra in ["", ", \"pipeline\": \"zx\""] {
        let old = format!(
            "{{\"qasm\": {}, \"transpile\": false{extra}}}",
            json::escape(&qasm)
        );
        let resp = c.request("POST", "/v1/compile", Some(&old)).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("\\\"pipeline\\\""), "{}", resp.body);
    }

    // Unknown spec → 400 naming the bad token.
    let bad = format!("{{\"qasm\": {}, \"pipeline\": \"warp9\"}}", json::escape(&qasm));
    let resp = c.request("POST", "/v1/compile", Some(&bad)).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("warp9"), "{}", resp.body);

    // Per-pass counters exported.
    let m = c.request("GET", "/metrics", None).unwrap();
    assert!(m.body.contains("trasyn_pass_runs_total{pass=\"zx-fold\"} 1"), "{}", m.body);
    assert!(m.body.contains("trasyn_pass_rotations_in_total{pass=\"zx-fold\"}"));

    // QASM parse failures carry line numbers through the 400 body.
    let bad_qasm = json::escape("OPENQASM 2.0;\nqreg q[1];\nwarp q[0];\n");
    let resp = c
        .request("POST", "/v1/compile", Some(&format!("{{\"qasm\": {bad_qasm}}}")))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("line 3"), "{}", resp.body);

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_work() {
    let cfg = ServerConfig {
        http_workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_millis(300),
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let addr = handle.addr();

    // In-flight request racing shutdown: it must complete with a 200.
    let worker = std::thread::spawn(move || {
        let mut c = Conn::connect(&addr.to_string(), Duration::from_secs(30)).unwrap();
        c.request("POST", "/v1/compile", Some("{\"rz\": 1.234}"))
            .map(|r| r.status)
    });
    std::thread::sleep(Duration::from_millis(100));
    let report = handle.shutdown();
    assert_eq!(worker.join().unwrap().unwrap(), 200, "in-flight work drains");
    assert!(report.requests >= 1);

    // After shutdown the port no longer accepts.
    assert!(Conn::connect(&addr.to_string(), Duration::from_millis(300)).is_err());
}

#[test]
fn verify_flag_returns_certificates_and_counts_in_metrics() {
    let handle = Server::start("127.0.0.1:0", config(), engine(2)).unwrap();
    let mut c = connect(handle.addr());

    // A verified compile carries a passing certificate in the response.
    let resp = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"rz\": 0.37, \"verify\": true}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = json::parse(&resp.body).expect("response is JSON");
    let cert = v.get("certificate").expect("certificate present");
    assert_eq!(
        cert.get("equivalent").and_then(|b| b.as_bool()),
        Some(true),
        "{}",
        resp.body
    );
    assert!(cert.get("method").and_then(|m| m.as_str()).is_some());
    let distance = cert.get("distance").and_then(|d| d.as_f64()).unwrap();
    let bound = cert.get("bound").and_then(|d| d.as_f64()).unwrap();
    assert!(distance <= bound, "{}", resp.body);

    // An unverified compile has no certificate key.
    let resp = c
        .request("POST", "/v1/compile", Some("{\"rz\": 0.37}"))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.body.contains("certificate"), "{}", resp.body);

    // A non-boolean "verify" is a 400, not a silent default.
    let resp = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"rz\": 0.37, \"verify\": \"yes\"}"),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("must be a boolean"), "{}", resp.body);

    // Batch items verify independently; /metrics exports the counters.
    let resp = c
        .request(
            "POST",
            "/v1/batch",
            Some("{\"items\": [{\"rz\": 0.5, \"verify\": true}, {\"rz\": -0.9}]}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let batch = json::parse(&resp.body).unwrap();
    let items = batch.get("items").and_then(|i| i.as_arr()).unwrap();
    assert!(items[0].get("certificate").is_some(), "{}", resp.body);
    assert!(items[1].get("certificate").is_none(), "{}", resp.body);

    let m = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(metric(&m.body, "trasyn_verify_ok_total"), 2);
    assert_eq!(metric(&m.body, "trasyn_verify_fail_total"), 0);

    handle.shutdown();
}

#[test]
fn lint_flag_surfaces_diagnostics_and_counts_in_metrics() {
    let handle = Server::start("127.0.0.1:0", config(), engine(2)).unwrap();
    let mut c = connect(handle.addr());

    // A linted compile of a 2-qubit program that only touches qubit 0:
    // the L0105 unused-qubit warning rides into the report, the compile
    // still succeeds.
    let resp = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"qasm\": \"qreg q[2];\\nrz(0.37) q[0];\\n\", \"lint\": true}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = json::parse(&resp.body).expect("response is JSON");
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_arr())
        .expect("diagnostics present");
    assert!(
        diags.iter().any(|d| {
            d.get("code").and_then(|c| c.as_str()) == Some("L0105")
                && d.get("severity").and_then(|s| s.as_str()) == Some("warning")
        }),
        "{}",
        resp.body
    );

    // The same compile without the flag has no diagnostics key.
    let resp = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"qasm\": \"qreg q[2];\\nrz(0.37) q[0];\\n\"}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.body.contains("diagnostics"), "{}", resp.body);

    // An unparsable pipeline spec is a 400 whose body carries the L0301
    // diagnostic as structured JSON, not just prose.
    let resp = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"rz\": 0.37, \"pipeline\": \"commute,blur\"}"),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let v = json::parse(&resp.body).expect("error body is JSON");
    assert!(v.get("error").is_some(), "{}", resp.body);
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_arr())
        .expect("structured diagnostics on the 400");
    assert_eq!(
        diags[0].get("code").and_then(|c| c.as_str()),
        Some("L0301"),
        "{}",
        resp.body
    );

    // A non-boolean "lint" is a 400, not a silent default.
    let resp = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"rz\": 0.37, \"lint\": 1}"),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("must be a boolean"), "{}", resp.body);

    // /metrics exports the lint counters; the warning above is counted.
    let m = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(metric(&m.body, "trasyn_lint_error_total"), 0);
    assert!(metric(&m.body, "trasyn_lint_warning_total") >= 1, "{}", m.body);

    handle.shutdown();
}

#[test]
fn debug_profile_reports_work_pool_and_queue_sampling() {
    let handle = Server::start("127.0.0.1:0", config(), engine(2)).unwrap();
    let mut c = connect(handle.addr());

    // Two compiles: a miss that synthesizes, then a hit on the same key.
    for _ in 0..2 {
        let resp = c
            .request("POST", "/v1/compile", Some("{\"rz\": 0.41}"))
            .unwrap();
        assert_eq!(resp.status, 200);
    }

    let resp = c.request("GET", "/debug/profile", None).unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(&resp.body).expect("profile is valid JSON");

    // Engine half: the full EngineStats JSON rides along.
    let engine_stats = v.get("engine").expect("engine object");
    let num = |path: &[&str]| {
        let mut cur = engine_stats;
        for k in path {
            cur = cur.get(k).unwrap_or_else(|| panic!("missing {path:?} in {}", resp.body));
        }
        cur.as_f64().unwrap_or_else(|| panic!("{path:?} not a number"))
    };
    // Synthesizing one distinct rotation via gridsynth enumerated
    // candidates, attempted norm equations, and ran exact synthesis.
    assert!(num(&["work", "grid_candidates"]) >= 1.0, "{}", resp.body);
    assert!(num(&["work", "norm_equations"]) >= 1.0);
    assert!(num(&["work", "exact_syntheses"]) >= 1.0);
    // Both requests probed the cache.
    assert!(num(&["work", "cache_probes"]) >= 2.0);
    // The pool ran once per batch; totals are coherent.
    assert!(num(&["pool", "runs"]) >= 1.0);
    assert!(num(&["pool", "jobs"]) >= 1.0);
    assert!(num(&["pool", "wall_ms"]) >= 0.0);
    // Alloc accounting is off by default — phases report zero, and the
    // flag says so.
    assert_eq!(
        engine_stats.get("alloc").and_then(|a| a.get("enabled")).and_then(|b| b.as_bool()),
        Some(false)
    );
    // Per-shard stats sum to the aggregate entry count (1 distinct key).
    let shards = engine_stats
        .get("cache_shards")
        .and_then(|s| s.as_arr())
        .expect("cache_shards array");
    let shard_entries: f64 = shards
        .iter()
        .map(|s| s.get("entries").and_then(|v| v.as_f64()).unwrap_or(0.0))
        .sum();
    assert_eq!(shard_entries, num(&["cache", "entries"]));

    // Server half: queue-depth sampling saw every worker pickup.
    let sampled = v.get("queue").and_then(|q| q.get("sampled")).expect("queue.sampled");
    let samples = sampled.get("samples").and_then(|v| v.as_f64()).unwrap_or(0.0);
    assert!(samples >= 1.0, "{}", resp.body);
    assert!(v.get("requests").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 2.0);

    // The same counters appear as /metrics families.
    let m = c.request("GET", "/metrics", None).unwrap();
    assert!(metric(&m.body, "trasyn_work_total{kind=\"grid_candidates\"}") >= 1);
    assert!(metric(&m.body, "trasyn_pool_jobs_total") >= 1);
    assert!(metric(&m.body, "trasyn_queue_depth_samples_total") >= 1);
    assert_eq!(metric(&m.body, "trasyn_alloc_enabled"), 0);

    handle.shutdown();
}

#[test]
fn cache_policy_assertion_is_enforced_and_exported() {
    // A server whose engine runs LRU: requests that pin "lru" pass,
    // requests that pin a different policy get a 400 before any work,
    // and /metrics names the active policy.
    let eng = Arc::new(
        Engine::builder()
            .threads(1)
            .cache_capacity(4096)
            .cache_policy(engine::CachePolicy::Lru)
            .backend(GridsynthBackend::default())
            .build(),
    );
    let handle = Server::start("127.0.0.1:0", config(), eng).unwrap();
    let mut c = connect(handle.addr());

    let ok = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"rz\": 0.25, \"cache_policy\": \"lru\"}"),
        )
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);

    let mismatch = c
        .request(
            "POST",
            "/v1/compile",
            Some("{\"rz\": 0.5, \"cache_policy\": \"freq\"}"),
        )
        .unwrap();
    assert_eq!(mismatch.status, 400, "{}", mismatch.body);
    assert!(mismatch.body.contains("'freq'"), "{}", mismatch.body);
    assert!(mismatch.body.contains("'lru'"), "{}", mismatch.body);

    let unknown = c
        .request(
            "POST",
            "/v1/batch",
            Some("{\"cache_policy\": \"arc\", \"items\": [{\"rz\": 0.5}]}"),
        )
        .unwrap();
    assert_eq!(unknown.status, 400, "{}", unknown.body);
    assert!(unknown.body.contains("arc"), "{}", unknown.body);

    let batch_ok = c
        .request(
            "POST",
            "/v1/batch",
            Some("{\"cache_policy\": \"lru\", \"items\": [{\"rz\": 0.5}]}"),
        )
        .unwrap();
    assert_eq!(batch_ok.status, 200, "{}", batch_ok.body);

    let m = c.request("GET", "/metrics", None).unwrap();
    assert!(
        m.body.contains("trasyn_cache_policy{policy=\"lru\"} 1"),
        "{}",
        m.body
    );
    assert!(m.body.contains("trasyn_cache_policy_promotions_total"), "{}", m.body);
    // The mismatch was rejected before touching the cache: exactly the
    // two successful compiles' lookups are counted.
    assert_eq!(metric(&m.body, "trasyn_cache_misses_total"), 2);

    handle.shutdown();
}
