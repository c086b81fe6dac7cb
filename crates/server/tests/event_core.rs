//! Event-core behaviour tests — the epoll readiness loop's contract:
//!
//! 1. a slow client never occupies a handler thread (slowloris defence):
//!    while one connection dribbles its request byte by byte, a single
//!    handler keeps serving other connections, and the dribbler is cut
//!    off with 408 at the whole-request read deadline;
//! 2. idle keep-alive connections are reaped after `keepalive_timeout`
//!    and counted in `trasyn_conn_timeouts_total`;
//! 3. the connection-count metrics are real: `trasyn_conns_open` tracks
//!    hundreds (CI) / ten thousand (`--ignored`) concurrent idle
//!    connections, `trasyn_keepalive_reuse_total` counts follow-up
//!    requests on a connection;
//! 4. backpressure still sheds with 429 at both layers — the dispatch
//!    queue (per request, connection closed after) and the open-connection
//!    cap (at accept, before a byte is read);
//! 5. an HTTP/1.0 request without `Connection: keep-alive` is answered
//!    `Connection: close` and its connection closed right away, not at
//!    the keep-alive timeout.
//!
//! The event core is Linux-only; so is this file.

#![cfg(target_os = "linux")]

use engine::{BackendKind, Engine, GridsynthBackend};
use server::client::Conn;
use server::{json, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        http_workers: 2,
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

/// A compile body heavy enough that the single handler stays busy for a
/// measurable stretch (distinct tight rotations defeat the cache).
fn heavy_body(salt: usize) -> String {
    let mut c = circuit::Circuit::new(2);
    for i in 0..6 {
        c.rz(i % 2, 0.1 + 0.077 * i as f64 + 1e-4 * salt as f64);
        c.cx(i % 2, (i + 1) % 2);
    }
    format!(
        "{{\"qasm\": {}, \"epsilon\": 1e-3}}",
        json::escape(&circuit::qasm::to_qasm(&c))
    )
}

#[test]
fn slow_client_never_occupies_the_handler_and_gets_408() {
    // One handler thread. A thread-per-connection design would park it on
    // the dribbling connection until the read deadline; the event core
    // must keep answering other clients throughout.
    let cfg = ServerConfig {
        http_workers: 1,
        read_timeout: Duration::from_millis(500),
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let addr = handle.addr();

    // The slowloris: a request head that never finishes.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(b"POST /v1/compile HTTP/1.1\r\n").unwrap();

    // The sole handler keeps serving a well-behaved connection.
    let mut c = connect(addr);
    for i in 0..3 {
        let resp = c.request("POST", "/v1/compile", Some("{\"rz\": 0.37}")).unwrap();
        assert_eq!(resp.status, 200, "request {i} served while slowloris pending");
        slow.write_all(b"X-Drip: a\r\n").ok(); // keep dribbling
    }

    // The dribbler is answered with 408 and cut off at the read deadline.
    let mut answer = String::new();
    slow.read_to_string(&mut answer).expect("server answers then closes");
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");
    assert!(answer.contains("read timed out"), "{answer}");

    let m = c.request("GET", "/metrics", None).unwrap();
    assert!(metric(&m.body, "trasyn_conn_timeouts_total") >= 1, "{}", m.body);
    // 408 is not in the fixed status-label set; it lands in "other".
    assert!(metric(&m.body, "trasyn_responses_total{status=\"other\"}") >= 1, "{}", m.body);

    handle.shutdown();
}

#[test]
fn idle_keepalive_connections_are_reaped_after_the_timeout() {
    let cfg = ServerConfig {
        keepalive_timeout: Duration::from_millis(200),
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let addr = handle.addr();

    let mut idle = connect(addr);
    assert_eq!(idle.request("GET", "/healthz", None).unwrap().status, 200);

    // Park past the keep-alive deadline (sweep cadence is 100 ms, so
    // 800 ms is comfortably beyond timeout + one sweep).
    std::thread::sleep(Duration::from_millis(800));
    assert!(
        idle.request("GET", "/healthz", None).is_err(),
        "reaped connection must be gone"
    );

    // The reap is visible in metrics (fresh connection — it must answer
    // within its own keep-alive window, which a request does).
    let mut c = connect(addr);
    let m = c.request("GET", "/metrics", None).unwrap();
    assert!(metric(&m.body, "trasyn_conn_timeouts_total") >= 1, "{}", m.body);

    handle.shutdown();
}

#[test]
fn keepalive_reuse_and_event_loop_metrics_are_exported() {
    let handle = Server::start("127.0.0.1:0", config(), engine(1)).unwrap();
    let mut c = connect(handle.addr());

    for _ in 0..4 {
        assert_eq!(c.request("GET", "/healthz", None).unwrap().status, 200);
    }
    let m = c.request("GET", "/metrics", None).unwrap();

    // Requests 2..=5 on this connection were keep-alive reuses.
    assert!(metric(&m.body, "trasyn_keepalive_reuse_total") >= 4, "{}", m.body);
    // This connection is open while it asks.
    assert!(metric(&m.body, "trasyn_conns_open") >= 1, "{}", m.body);
    // The loop iterated and was woken by completions.
    assert!(metric(&m.body, "trasyn_event_loop_iterations_total") >= 1, "{}", m.body);
    assert!(metric(&m.body, "trasyn_event_wakeups_total") >= 1, "{}", m.body);

    handle.shutdown();
}

#[test]
fn dispatch_queue_overflow_sheds_per_request_with_429() {
    // One handler, one queue slot: a burst of pipelined heavy compiles
    // must overflow the dispatch queue. The overflowed request is
    // answered 429 in pipeline order and the connection closes after it;
    // every request answered before it is a well-formed 200.
    let cfg = ServerConfig {
        http_workers: 1,
        queue_depth: 1,
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let mut c = connect(handle.addr());

    let bodies: Vec<String> = (0..4).map(heavy_body).collect();
    for b in &bodies {
        c.send("POST", "/v1/compile", Some(b)).unwrap();
    }

    let mut statuses = Vec::new();
    loop {
        match c.read_response() {
            Ok(resp) => {
                if resp.status == 429 {
                    assert!(resp.body.contains("queue full"), "{}", resp.body);
                    assert!(!resp.keep_alive(), "shedding closes the connection");
                    statuses.push(429);
                    break;
                }
                assert_eq!(resp.status, 200, "{}", resp.body);
                statuses.push(200);
            }
            Err(e) => panic!("burst must end in a 429, got {e} after {statuses:?}"),
        }
    }
    assert!(statuses.len() < bodies.len(), "at least one request was shed");
    // Nothing more comes after the shedding response.
    assert!(c.read_response().is_err(), "connection closed after the 429");

    assert!(handle.metrics().rejected() >= 1);
    let report = handle.shutdown();
    assert!(report.rejected >= 1);
}

#[test]
fn connection_cap_sheds_new_connections_with_429() {
    let cfg = ServerConfig {
        max_conns: 2,
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let addr = handle.addr();

    // Fill the cap with two live connections.
    let mut a = connect(addr);
    assert_eq!(a.request("GET", "/healthz", None).unwrap().status, 200);
    let mut b = connect(addr);
    assert_eq!(b.request("GET", "/healthz", None).unwrap().status, 200);

    // The third is turned away at accept, before sending a byte.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut answer = String::new();
    over.read_to_string(&mut answer).expect("cap rejection is an HTTP answer");
    assert!(answer.starts_with("HTTP/1.1 429 "), "{answer}");
    assert!(answer.contains("connection limit"), "{answer}");

    // Freeing a slot lets new connections in again.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        let mut c = connect(addr);
        match c.request("GET", "/healthz", None) {
            Ok(resp) if resp.status == 200 => break 200,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("slot never freed: {other:?}"),
        }
    };
    assert_eq!(status, 200);

    assert!(handle.metrics().rejected() >= 1);
    handle.shutdown();
}

#[test]
fn http_1_0_requests_close_without_waiting_for_the_keepalive_timeout() {
    // RFC 7230 §6.3: an HTTP/1.0 connection persists only when the
    // request carries `Connection: keep-alive`.
    let cfg = ServerConfig {
        keepalive_timeout: Duration::from_secs(5),
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let t0 = Instant::now();
    s.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut answer = String::new();
    s.read_to_string(&mut answer).expect("server answers then closes");
    let elapsed = t0.elapsed();
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    assert!(answer.contains("Connection: close\r\n"), "{answer}");
    assert!(
        elapsed < Duration::from_secs(2),
        "EOF after {elapsed:?}; the keep-alive timeout is 5 s"
    );
    handle.shutdown();
}

/// Opens `n` idle connections, asserts the `trasyn_conns_open` gauge sees
/// them all, then closes them again.
fn idle_connection_flood(n: usize) {
    let cfg = ServerConfig {
        max_conns: n + 16,
        keepalive_timeout: Duration::from_secs(120),
        ..config()
    };
    let handle = Server::start("127.0.0.1:0", cfg, engine(1)).unwrap();
    let addr = handle.addr();

    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(addr) {
            Ok(s) => conns.push(s),
            Err(e) => panic!("connect {i}/{n} failed: {e}"),
        }
    }

    // Every connection is accepted and tracked; the metrics request rides
    // its own (n+1th) connection.
    let mut c = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = c.request("GET", "/metrics", None).unwrap();
        let open = metric(&m.body, "trasyn_conns_open");
        if open > n as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {open} of {} connections tracked",
            n + 1
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A request still flows while every idle connection stays open.
    assert_eq!(c.request("GET", "/healthz", None).unwrap().status, 200);

    drop(conns);
    handle.shutdown();
}

#[test]
fn hundreds_of_idle_connections_are_tracked() {
    idle_connection_flood(512);
}

/// The tentpole concurrency target: ≥10k idle connections on one loop.
/// Needs ~2 fds per connection (client + server end live in this
/// process), so the target adapts to RLIMIT_NOFILE; run with a 25k+
/// limit to exercise the full 10_000.
#[test]
#[ignore]
fn ten_thousand_idle_connections_smoke() {
    let fd_limit: usize = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1024);
    let n = 10_000.min((fd_limit.saturating_sub(128)) / 2);
    assert!(n >= 1024, "fd limit {fd_limit} too low for a meaningful smoke");
    eprintln!("[event_core] flooding {n} idle connections (fd limit {fd_limit})");
    idle_connection_flood(n);
}
