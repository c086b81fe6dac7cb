//! **server** — the networked compilation service.
//!
//! Exposes the [`engine`] crate's concurrent compilation service over
//! HTTP/1.1 on plain `std::net` (the workspace is std-only): any client
//! that can speak loopback HTTP can compile rotations and OpenQASM
//! circuits to Clifford+T and share one process-wide synthesis cache with
//! every other client. The serving-layer concerns live here:
//!
//! * [`service`] — configuration, shared state, graceful draining
//!   shutdown, and cache snapshot persistence (warm start on boot, save
//!   on shutdown).
//! * `event` — the I/O core (Linux only): one nonblocking epoll
//!   readiness loop owning every connection (keep-alive, pipelining,
//!   idle timeouts, 429 backpressure, per-connection state machines),
//!   bridged to handler threads over a bounded dispatch queue with an
//!   eventfd wakeup. Off Linux, [`Server::start`] fails with
//!   [`std::io::ErrorKind::Unsupported`].
//! * [`sys`] — the dependency-free raw-syscall wrappers (`epoll`,
//!   `eventfd`) behind the event core; the crate's only unsafe module.
//! * [`routes`] — the API: `POST /v1/compile`, `POST /v1/batch`,
//!   `GET /healthz`, `GET /metrics`.
//! * [`metrics`] — request/latency/queue/cache counters in Prometheus
//!   text format, built on [`engine::EngineStats`].
//! * [`http`] / [`json`] — minimal dependency-free HTTP/1.1 and JSON.
//! * [`queue`] — the bounded MPMC queue behind the backpressure story.
//! * [`client`] — a small blocking client used by `trasyn-loadgen` and
//!   the integration tests.
//! * [`fuzz`] — the differential fuzzing harness: seeded circuits through
//!   {CLI-equivalent engine batch × thread counts × warm/cold cache ×
//!   server loopback}, pairwise bit-identity cross-checks, the `verify`
//!   oracle, and shrunk QASM repro artifacts on mismatch.
//!
//! Three binaries ship with the crate: `trasyn-server` (the daemon),
//! `trasyn-loadgen` (a load generator that drives request mixes from
//! [`workloads::requests`] closed loop, open loop or as a saturation
//! sweep, and reports latency, throughput, and cache hit rate), and
//! `trasyn-fuzz` (the differential fuzzer; its `--smoke` mode is a CI
//! gate). See the root README for usage.
//!
//! # Determinism
//!
//! The serving layer adds no nondeterminism to compilation: a
//! `/v1/compile` response's `"qasm"` is bit-identical to what
//! `trasyn-compile` emits for the same input and settings, at any worker
//! count, because both are the same `Engine` call (verified by this
//! crate's loopback tests).

// Off Linux there is no I/O core, so the routes it would drive are
// unreachable.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod client;
#[cfg(target_os = "linux")]
pub(crate) mod event;
pub mod fuzz;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod routes;
pub mod service;
#[cfg(target_os = "linux")]
pub mod sys;

pub use client::{Conn, Response};
pub use fuzz::{FuzzConfig, FuzzReport, Harness};
pub use metrics::{Endpoint, Metrics};
pub use queue::BoundedQueue;
pub use service::{Server, ServerConfig, ServerHandle, ShutdownReport};
