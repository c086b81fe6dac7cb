//! Request routing and the compile/batch/healthz/metrics handlers.
//!
//! # API
//!
//! * `GET /healthz` → `{"status": "ok"}`.
//! * `GET /metrics` → Prometheus text ([`crate::metrics`]).
//! * `GET /debug/profile` → one JSON object describing the process's
//!   profile so far: the engine's [`engine::EngineStats`] (work
//!   counters, per-phase allocation accounting, pool utilization,
//!   per-shard cache telemetry) plus the server's queue-depth sampling
//!   and request count. The machine-readable sibling of `/metrics` for
//!   tools that want structure instead of a text exposition.
//! * `GET /debug/traces` → the tracer's retained request traces as a
//!   JSON array, newest first — each a self-describing span tree
//!   (queue-wait, parse, per-pass lowering, cache lookup, per-rotation
//!   synthesis, splice, verify, write) with wall/own times.
//!   `?min_ms=N` keeps only traces at least `N` ms end-to-end,
//!   `&limit=N` caps the count; unknown or malformed parameters are a
//!   400. Sampling, ring size, and the always-retained slow threshold
//!   come from [`crate::service::ServerConfig::trace`].
//! * `POST /v1/compile` — body is a JSON object with exactly one of
//!   `"rz"` (a rotation angle) or `"qasm"` (an OpenQASM 2.0 program),
//!   plus optional `"epsilon"`, `"backend"`, `"pipeline"`, `"name"`,
//!   `"verify"` (a boolean: attach an equivalence certificate for the
//!   compiled circuit, counted in `/metrics` as
//!   `trasyn_verify_{ok,fail}_total`), `"lint"` (a boolean: statically
//!   check the circuit and pipeline spec before compiling — lint
//!   *errors* fail the request with a 400, warnings ride into the
//!   report's `"diagnostics"`; counted in `/metrics` as
//!   `trasyn_lint_{error,warning}_total`). The removed `"transpile"`
//!   boolean is a 400 that names `"pipeline"` as its replacement.
//!   Responds with the item report — including the per-pass lowering
//!   stats and the `"certificate"` when verification ran — plus the
//!   compiled circuit as `"qasm"`: the same circuit `trasyn-compile`
//!   would emit for the same input and settings, bit for bit.
//! * `POST /v1/batch` — `{"items": [<compile objects>]}`; responds with
//!   the engine's `BatchReport` JSON.
//!
//! Both POST endpoints reject the removed top-level `"cache_policy"`
//! assertion with a 400 that names it: the cache always evicts FIFO, so
//! a client that pinned another policy learns that it is now served
//! FIFO instead of being served it silently.
//!
//! Defaults: `epsilon` and `backend` come from
//! [`crate::service::ServerConfig`];
//! `pipeline` defaults to `"default"` for `"qasm"` circuits and
//! `"none"` for single `"rz"` rotations (lowering a lone rotation is
//! pure overhead). An unknown `"pipeline"` spec is a 400.
//!
//! # Structured errors
//!
//! Error bodies are `{"error": "..."}`. When the failure carries lint
//! diagnostics — a lint-rejected item or an unparsable `"pipeline"`
//! spec — the body gains a `"diagnostics"` array in the `lint` crate's
//! stable JSON shape, so clients can branch on codes like `L0103`
//! instead of scraping the message.

use crate::http::{self, Request};
use crate::json::{self, Value};
use crate::metrics::Endpoint;
use crate::service::Shared;
use engine::{BackendKind, BatchItem, BatchRequest, PipelineSpec};
use std::io::Write;
use trace::SpanHandle;

/// Cap on `/v1/batch` items — a request is one unit of queue accounting,
/// so its size must be bounded too.
pub const MAX_BATCH_ITEMS: usize = 256;

pub use engine::{MAX_EPSILON, MIN_EPSILON};

/// The request path without its query string.
pub fn path_of(req: &Request) -> &str {
    req.path.split('?').next().unwrap_or(&req.path)
}

/// The request's query string (text after the first `?`), if any.
pub fn query_of(req: &Request) -> Option<&str> {
    req.path.split_once('?').map(|(_, q)| q)
}

/// Which metrics bucket a request belongs to.
pub fn endpoint_of(req: &Request) -> Endpoint {
    match path_of(req) {
        "/v1/compile" => Endpoint::Compile,
        "/v1/batch" => Endpoint::Batch,
        "/healthz" => Endpoint::Healthz,
        "/metrics" => Endpoint::Metrics,
        "/debug/traces" | "/debug/profile" => Endpoint::Debug,
        _ => Endpoint::Other,
    }
}

/// Routes and answers one request; returns the response status. `span`
/// (the request's `handle` span, when this request is traced) gets
/// per-stage children: the handlers' `parse`/`compile` spans and the
/// final `write`.
pub(crate) fn respond(
    req: &Request,
    w: &mut (impl Write + ?Sized),
    shared: &Shared,
    keep_alive: bool,
    span: Option<&SpanHandle>,
) -> u16 {
    let outcome = route(req, shared, span);
    let status = match &outcome {
        Ok((_, _)) => 200,
        Err(e) => e.status,
    };
    let _write_span = span.map(|s| s.child("write"));
    let io_result = match outcome {
        Ok((content_type, body)) => {
            http::write_response(w, 200, content_type, body.as_bytes(), keep_alive)
        }
        Err(e) => http::write_error_with(
            w,
            e.status,
            &e.message,
            e.diagnostics.as_deref(),
            keep_alive,
        ),
    };
    // A failed write means the peer is gone; the connection is closed by
    // the caller either way.
    let _ = io_result;
    status
}

/// A route failure: HTTP status, human-readable message, and — when the
/// failure came from the lint layer — the structured diagnostics as a
/// pre-rendered JSON array (see the module docs' *Structured errors*).
pub(crate) struct ApiError {
    pub status: u16,
    pub message: String,
    pub diagnostics: Option<String>,
}

impl From<(u16, String)> for ApiError {
    fn from((status, message): (u16, String)) -> Self {
        ApiError {
            status,
            message,
            diagnostics: None,
        }
    }
}

/// Maps an engine failure to a 400, carrying the structured diagnostics
/// when the failure was a lint rejection.
fn engine_error(e: engine::EngineError) -> ApiError {
    let message = e.to_string();
    let diagnostics = match e {
        engine::EngineError::Lint { diagnostics, .. } => {
            Some(engine::diagnostics_json(&diagnostics))
        }
        _ => None,
    };
    ApiError {
        status: 400,
        message,
        diagnostics,
    }
}

type RouteResult = Result<(&'static str, String), ApiError>;

fn route(req: &Request, shared: &Shared, span: Option<&SpanHandle>) -> RouteResult {
    match (req.method.as_str(), path_of(req)) {
        ("GET", "/healthz") => Ok((
            "application/json",
            "{\"status\": \"ok\"}\n".to_string(),
        )),
        ("GET", "/metrics") => Ok((
            "text/plain; version=0.0.4",
            shared
                .metrics
                .render(&shared.engine.stats(), shared.queue_depth()),
        )),
        ("GET", "/debug/traces") => debug_traces(req, shared),
        ("GET", "/debug/profile") => debug_profile(shared),
        ("POST", "/v1/compile") => compile(req, shared, span),
        ("POST", "/v1/batch") => batch(req, shared, span),
        (_, "/healthz" | "/metrics" | "/debug/traces" | "/debug/profile")
        | (_, "/v1/compile" | "/v1/batch") => {
            Err((
                405,
                format!("method {} not allowed on {}", req.method, path_of(req)),
            )
                .into())
        }
        _ => Err((404, format!("no such endpoint: {}", path_of(req))).into()),
    }
}

/// `GET /debug/traces[?min_ms=N][&limit=N]` — the tracer's retained ring
/// as a JSON array, newest first. `min_ms` filters to traces at least
/// that long end-to-end (`min_ms=0` returns everything retained);
/// `limit` caps the count. Unknown or malformed parameters are a 400 —
/// a silently ignored typo in `min_ms` would *look* like "no slow
/// requests".
fn debug_traces(req: &Request, shared: &Shared) -> RouteResult {
    let mut min_ms = 0.0f64;
    let mut limit = usize::MAX;
    for pair in query_of(req).unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "min_ms" => {
                min_ms = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or((400, format!("\"min_ms\" must be a non-negative number, got \"{v}\"")))?;
            }
            "limit" => {
                limit = v
                    .parse::<usize>()
                    .map_err(|_| (400, format!("\"limit\" must be an integer, got \"{v}\"")))?;
            }
            other => {
                return Err((400, format!("unknown query parameter \"{other}\"")).into());
            }
        }
    }
    let mut out = String::from("[");
    let mut first = true;
    for t in shared
        .tracer
        .recent()
        .iter()
        .filter(|t| t.duration_ms >= min_ms)
        .take(limit)
    {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&t.to_json());
    }
    out.push_str("]\n");
    Ok(("application/json", out))
}

/// `GET /debug/profile` — the engine's stats JSON wrapped with the
/// server-side profile (queue-depth sampling, handled-request count).
fn debug_profile(shared: &Shared) -> RouteResult {
    let (qd_sum, qd_samples, qd_max) = shared.metrics.queue_depth_sampled();
    let body = format!(
        "{{\"engine\": {}, \"queue\": {{\"depth\": {}, \"sampled\": \
         {{\"sum\": {qd_sum}, \"samples\": {qd_samples}, \"max\": {qd_max}}}}}, \
         \"requests\": {}}}\n",
        shared.engine.stats().to_json(),
        shared.queue_depth(),
        shared.metrics.request_count(),
    );
    Ok(("application/json", body))
}

fn parse_body(req: &Request) -> Result<Value, (u16, String)> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| (400, "body is not UTF-8".to_string()))?;
    json::parse(text).map_err(|e| (400, e.to_string()))
}

/// Builds a [`BatchItem`] from one compile-request object.
fn parse_item(v: &Value, shared: &Shared, index: usize) -> Result<BatchItem, ApiError> {
    let bad = |msg: String| ApiError::from((400, msg));
    if !matches!(v, Value::Obj(_)) {
        return Err(bad(format!("item {index}: expected a JSON object")));
    }
    let epsilon = match v.get("epsilon") {
        None => shared.config.default_epsilon,
        Some(e) => e
            .as_f64()
            .filter(|x| (MIN_EPSILON..=MAX_EPSILON).contains(x))
            .ok_or_else(|| {
                bad(format!(
                    "item {index}: \"epsilon\" must be a number in [{MIN_EPSILON}, {MAX_EPSILON}]"
                ))
            })?,
    };
    let backend = match v.get("backend") {
        None => shared.config.default_backend,
        Some(b) => {
            let label = b
                .as_str()
                .ok_or_else(|| bad(format!("item {index}: \"backend\" must be a string")))?;
            BackendKind::parse(label)
                .ok_or_else(|| bad(format!("item {index}: unknown backend \"{label}\"")))?
        }
    };
    let (circuit, default_name, default_pipeline) = match (v.get("rz"), v.get("qasm")) {
        (Some(_), Some(_)) => {
            return Err(bad(format!("item {index}: give \"rz\" or \"qasm\", not both")))
        }
        (Some(rz), None) => {
            let theta = rz
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| bad(format!("item {index}: \"rz\" must be a finite number")))?;
            let mut c = circuit::Circuit::new(1);
            c.rz(0, theta);
            (c, "rz".to_string(), PipelineSpec::none())
        }
        (None, Some(qasm)) => {
            let src = qasm
                .as_str()
                .ok_or_else(|| bad(format!("item {index}: \"qasm\" must be a string")))?;
            let c = circuit::qasm::parse_qasm(src).map_err(|e| {
                bad(format!(
                    "item {index}: \"qasm\" is not in the supported OpenQASM 2.0 subset: {e}"
                ))
            })?;
            (c, "circuit".to_string(), PipelineSpec::default())
        }
        (None, None) => {
            return Err(bad(format!("item {index}: need \"rz\" or \"qasm\"")))
        }
    };
    let name = match v.get("name") {
        None => default_name,
        Some(n) => n
            .as_str()
            .ok_or_else(|| bad(format!("item {index}: \"name\" must be a string")))?
            .to_string(),
    };
    // Unknown keys are ignored, so the removed boolean alias must be
    // rejected by name: ignoring it would silently run the default
    // pipeline for a request that asked for none.
    if v.get("transpile").is_some() {
        return Err(bad(format!(
            "item {index}: \"transpile\" was removed; use \"pipeline\": \"default\" or \"none\""
        )));
    }
    let pipeline = match v.get("pipeline") {
        Some(p) => {
            let spec = p
                .as_str()
                .ok_or_else(|| bad(format!("item {index}: \"pipeline\" must be a string")))?;
            PipelineSpec::parse(spec).map_err(|e| ApiError {
                status: 400,
                message: format!("item {index}: {e}"),
                diagnostics: Some(engine::diagnostics_json(&[lint::spec_error_diagnostic(
                    &e,
                )])),
            })?
        }
        None => default_pipeline,
    };
    let verify = match v.get("verify") {
        None => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad(format!("item {index}: \"verify\" must be a boolean")))?,
    };
    let lint = match v.get("lint") {
        None => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad(format!("item {index}: \"lint\" must be a boolean")))?,
    };
    Ok(BatchItem::new(name, circuit, epsilon, backend)
        .pipeline(pipeline)
        .verify(verify)
        .lint(lint))
}

/// Rejects the removed top-level `"cache_policy"` assertion, whatever
/// policy it names.
fn reject_cache_policy(v: &Value) -> Result<(), ApiError> {
    if v.get("cache_policy").is_some() {
        return Err((
            400,
            "\"cache_policy\" was removed; the cache always evicts FIFO".to_string(),
        )
            .into());
    }
    Ok(())
}

fn compile(req: &Request, shared: &Shared, span: Option<&SpanHandle>) -> RouteResult {
    let parse_span = span.map(|s| s.child("parse"));
    let body = parse_body(req)?;
    reject_cache_policy(&body)?;
    let item = parse_item(&body, shared, 0)?;
    drop(parse_span);
    let compile_span = span.map(|s| s.child("compile"));
    let compile_handle = compile_span.as_ref().map(trace::Span::handle);
    let request = BatchRequest::new().item(item);
    let report = shared
        .engine
        .compile_batch_traced(&request, compile_handle.as_ref())
        .map_err(engine_error)?;
    drop(compile_span);
    let item = report
        .items
        .into_iter()
        .next()
        .expect("single-item batch yields one report");
    // The ItemReport shape shared with trasyn-compile's batch report,
    // plus the compiled circuit so clients can verify bit-identity.
    let mut body = item.to_json(true);
    body.push('\n');
    Ok(("application/json", body))
}

fn batch(req: &Request, shared: &Shared, span: Option<&SpanHandle>) -> RouteResult {
    let parse_span = span.map(|s| s.child("parse"));
    let body = parse_body(req)?;
    reject_cache_policy(&body)?;
    let items = body
        .get("items")
        .and_then(|v| v.as_arr())
        .ok_or((400, "\"items\" must be an array".to_string()))?;
    if items.is_empty() {
        return Err((400, "\"items\" must not be empty".to_string()).into());
    }
    if items.len() > MAX_BATCH_ITEMS {
        return Err((
            400,
            format!("too many items: {} > {MAX_BATCH_ITEMS}", items.len()),
        )
            .into());
    }
    let mut request = BatchRequest::new();
    for (i, v) in items.iter().enumerate() {
        request.items.push(parse_item(v, shared, i)?);
    }
    drop(parse_span);
    let compile_span = span.map(|s| s.child("compile"));
    let compile_handle = compile_span.as_ref().map(trace::Span::handle);
    let report = shared
        .engine
        .compile_batch_traced(&request, compile_handle.as_ref())
        .map_err(engine_error)?;
    drop(compile_span);
    Ok(("application/json", report.to_json()))
}
