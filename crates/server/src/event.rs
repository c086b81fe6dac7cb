//! The event-driven server core (Linux): one nonblocking readiness loop
//! owns every connection; a pool of handler threads runs the routes.
//!
//! # Architecture
//!
//! ```text
//!                 ┌───────────────────────────────┐
//!  clients ──────►│ event loop (epoll, 1 thread)  │
//!                 │  accept → per-conn state      │
//!                 │  machine:                     │
//!                 │   ReadBuf → incremental parse │──try_push──► BoundedQueue<Job>
//!                 │   WriteBuf ← ordered flush    │◄─eventfd────  N handler threads
//!                 └───────────────────────────────┘   wakeup      (parse→route→render
//!                                                                  into a Vec<u8>)
//! ```
//!
//! The loop never computes and the handlers never touch sockets: a slow
//! or idle client costs one buffered connection, not a synthesis worker.
//! Complete requests become [`Job`]s on the bounded dispatch queue;
//! handlers render the full HTTP response into a byte buffer and push a
//! completion back through [`Completions`], waking the loop via an
//! `eventfd`. Responses flush strictly in request order per connection
//! (HTTP/1.1 pipelining), buffered through the state machine so a client
//! that stops reading stalls only its own connection.
//!
//! # Backpressure
//!
//! Two caps bound the work the server takes on:
//! * **connection count** — accepts beyond `max_conns` are answered
//!   `429` and closed before any read;
//! * **pending requests** — when the dispatch queue is full, the request
//!   is answered `429 Connection: close`; when one connection has
//!   [`MAX_PIPELINE`] requests in flight the loop simply stops reading
//!   from it (TCP backpressure, no error).
//!
//! # Timeouts
//!
//! A periodic sweep closes idle keep-alive connections after
//! `keepalive_timeout` and answers `408` to partially-read requests
//! older than `read_timeout` (the slowloris bound: drip-fed headers
//! occupy a buffer here, never a worker).

use crate::http::{self, ReadError, Request, RequestParser};
use crate::metrics::Endpoint;
use crate::routes;
use crate::service::Shared;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Pipelined requests in flight per connection before the loop stops
/// reading from that connection (resumed as responses drain).
pub const MAX_PIPELINE: usize = 32;

/// `epoll_wait` tick: bounds how stale the timeout sweep can get and how
/// long shutdown can go unnoticed under zero traffic.
const TICK_MS: i32 = 50;

/// Timeout-sweep cadence.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Hard cap on graceful drain: connections still open this long after
/// shutdown began are force-closed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// A parsed request travelling from the event loop to a handler thread.
pub(crate) struct Job {
    conn: u64,
    seq: u64,
    req: Request,
    /// Trace base: connection accept for a connection's first request,
    /// first-byte arrival after that.
    base: Instant,
    /// When the request finished parsing — the `read` span's end and the
    /// `queue-wait` span's start.
    parse_done: Instant,
    keep_alive: bool,
}

/// A rendered response travelling back from a handler thread.
struct Completion {
    conn: u64,
    seq: u64,
    /// The complete HTTP response (head + body).
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// The handlers → event loop channel: completed responses plus the
/// eventfd that wakes the loop out of `epoll_wait`. `shutdown` also
/// notifies the eventfd so the loop notices the flag promptly.
pub(crate) struct Completions {
    ready: Mutex<Vec<Completion>>,
    wake: EventFd,
}

impl Completions {
    fn push(&self, c: Completion) {
        self.ready.lock().expect("completions lock").push(c);
        self.wake.notify();
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.ready.lock().expect("completions lock"))
    }

    /// Wakes the event loop without a completion (shutdown path).
    pub(crate) fn notify(&self) {
        self.wake.notify();
    }
}

/// What [`start`] hands back: the loop handle, the handler handles, and
/// the wakeup channel the shutdown path pokes.
pub(crate) type CoreHandles = (JoinHandle<()>, Vec<JoinHandle<()>>, Arc<Completions>);

/// Spawns the event loop plus `config.http_workers` handler threads.
pub(crate) fn start(listener: TcpListener, shared: &Arc<Shared>) -> std::io::Result<CoreHandles> {
    let completions = Arc::new(Completions {
        ready: Mutex::new(Vec::new()),
        wake: EventFd::new()?,
    });

    let mut handlers = Vec::with_capacity(shared.config.http_workers.max(1));
    for i in 0..shared.config.http_workers.max(1) {
        let shared = Arc::clone(shared);
        let completions = Arc::clone(&completions);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("http-handler-{i}"))
                .spawn(move || handler_loop(&shared, &completions))?,
        );
    }

    let looper = {
        let shared = Arc::clone(shared);
        let completions = Arc::clone(&completions);
        std::thread::Builder::new()
            .name("event-loop".into())
            .spawn(move || match EventLoop::new(listener, shared, completions) {
                Ok(mut el) => el.run(),
                Err(e) => eprintln!("[server] event loop failed to initialize: {e}"),
            })?
    };

    Ok((looper, handlers, completions))
}

/// Per-connection state machine. Lifecycle:
///
/// ```text
/// Accepted ──bytes──► Reading (parser buffers; partial deadline)
///    ▲                   │ complete request(s)
///    │                   ▼
///    │ response      Dispatched (in_flight; pipeline cap pauses reads)
///    │ flushed           │ completion (in seq order)
///    └─── keep-alive ── Writing (write buffer; EPOLLOUT while unflushed)
///                        │ Connection: close / error / drain
///                        ▼
///                      Closed
/// ```
struct EvConn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes (`out_pos..` is unflushed).
    out: Vec<u8>,
    out_pos: usize,
    accepted_at: Instant,
    /// Last moment bytes arrived or a response was queued — the idle
    /// keep-alive clock.
    last_activity: Instant,
    /// First-byte instant of the currently-partial request, if any — the
    /// per-request read-deadline clock.
    req_start: Option<Instant>,
    /// Next request sequence number to assign.
    next_seq: u64,
    /// Next response sequence number to append to `out`.
    send_seq: u64,
    /// Out-of-order completions waiting for their turn.
    waiting: BTreeMap<u64, Completion>,
    /// Dispatched requests whose completions have not yet arrived.
    in_flight: usize,
    /// Close once everything queued has flushed.
    close_after_flush: bool,
    /// Stop reading (parse error answered, peer half-closed, shed, …).
    no_more_reads: bool,
    /// Currently registered epoll interest mask.
    interest: u32,
}

impl EvConn {
    fn new(stream: TcpStream, now: Instant) -> EvConn {
        EvConn {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            accepted_at: now,
            last_activity: now,
            req_start: None,
            next_seq: 0,
            send_seq: 0,
            waiting: BTreeMap::new(),
            in_flight: 0,
            close_after_flush: false,
            no_more_reads: false,
            interest: 0,
        }
    }

    /// Requests accepted but not yet fully answered on this connection.
    fn pending(&self) -> usize {
        self.in_flight + self.waiting.len()
    }

    fn flushed(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// Queues an out-of-band response (parse error, 429, 408) at the next
    /// sequence slot so it flushes after every already-dispatched
    /// response, then stops reading: framing past an error is undefined.
    fn queue_error(&mut self, bytes: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting.insert(
            seq,
            Completion {
                conn: 0,
                seq,
                bytes,
                keep_alive: false,
            },
        );
        self.no_more_reads = true;
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    shared: Arc<Shared>,
    completions: Arc<Completions>,
    conns: HashMap<u64, EvConn>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_sweep: Instant,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        completions: Arc<Completions>,
    ) -> std::io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        epoll.add(completions.wake.raw(), EPOLLIN, WAKE_TOKEN)?;
        Ok(EventLoop {
            epoll,
            listener,
            shared,
            completions,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: false,
            drain_deadline: None,
            last_sweep: Instant::now(),
        })
    }

    fn run(&mut self) {
        let mut events = vec![EpollEvent::default(); 1024];
        loop {
            let n = match self.epoll.wait(&mut events, TICK_MS) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("[server] epoll_wait failed: {e}");
                    return;
                }
            };
            self.shared.metrics.event_loop_iter();
            for ev in &events[..n] {
                let (token, readiness) = (ev.token(), ev.readiness());
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => {
                        self.completions.wake.drain();
                        self.shared.metrics.event_wakeup();
                        self.apply_completions();
                    }
                    token => self.conn_ready(token, readiness),
                }
            }
            // Completions can pile up while we were busy with socket
            // events; a cheap drain here avoids waiting a full wakeup.
            self.apply_completions();

            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return;
            }
            if self.last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep();
                self.last_sweep = Instant::now();
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // EMFILE, ENOBUFS, …: give up this round; level-triggered
                // readiness re-reports on the next tick instead of
                // busy-spinning.
                Err(_) => return,
            };
            if self.draining {
                continue; // accepted during shutdown: drop immediately
            }
            if self.conns.len() >= self.shared.config.max_conns {
                // Connection-count cap: shed before reading a byte.
                self.shared.metrics.reject();
                self.shared.metrics.count_unhandled(Endpoint::Other, 429);
                let _ = stream.set_nonblocking(true);
                let mut s = stream;
                let _ = http::write_error(&mut s, 429, "connection limit reached, retry later", false);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                continue; // stream drops → closed
            }
            let mut conn = EvConn::new(stream, Instant::now());
            conn.interest = EPOLLIN | EPOLLRDHUP;
            self.conns.insert(token, conn);
            self.shared.metrics.conn_opened();
        }
    }

    fn conn_ready(&mut self, token: u64, readiness: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // stale event for a connection closed this batch
        };
        let mut alive = true;
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            alive = false;
        }
        if alive && readiness & (EPOLLIN | EPOLLRDHUP) != 0 {
            alive = self.read_ready(&mut conn);
        }
        if alive && readiness & EPOLLOUT != 0 {
            alive = flush(&mut conn);
        }
        if alive {
            alive = self.pump(&mut conn, token);
        }
        if alive {
            self.conns.insert(token, conn);
        } else {
            self.drop_conn(conn);
        }
    }

    /// Reads until `WouldBlock`/EOF, feeding the parser. Returns `false`
    /// when the connection is dead.
    fn read_ready(&mut self, conn: &mut EvConn) -> bool {
        if conn.no_more_reads {
            return true;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // Peer finished sending. Nothing pending → plain
                    // close; otherwise flush what it is owed first.
                    conn.no_more_reads = true;
                    conn.close_after_flush = true;
                    return true;
                }
                Ok(n) => {
                    conn.parser.feed(&buf[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Advances a connection's state machine: parse+dispatch, order and
    /// flush responses, refresh epoll interest, decide closing. Returns
    /// `false` when the connection should be dropped.
    fn pump(&mut self, conn: &mut EvConn, token: u64) -> bool {
        let now = Instant::now();

        // 1. Parse complete requests and dispatch them, up to the
        //    pipeline cap.
        let mut base = match conn.next_seq {
            0 => conn.accepted_at,
            _ => conn.req_start.unwrap_or(now),
        };
        let mut parsed_any = false;
        while !conn.no_more_reads && conn.pending() < MAX_PIPELINE {
            match conn.parser.next_request() {
                Ok(Some(req)) => {
                    parsed_any = true;
                    self.dispatch(conn, token, req, base);
                    base = Instant::now();
                }
                Ok(None) => break,
                Err(ReadError::Bad(status, msg)) => {
                    self.shared.metrics.observe(Endpoint::Other, status, 0.0, 0.0);
                    conn.queue_error(error_response(status, msg));
                    break;
                }
            }
        }
        if parsed_any {
            conn.req_start = if conn.parser.has_partial() {
                Some(Instant::now())
            } else {
                None
            };
        } else if conn.parser.has_partial() && conn.req_start.is_none() {
            conn.req_start = Some(now);
        } else if !conn.parser.has_partial() {
            conn.req_start = None;
        }

        // 2. Append in-order completions to the write buffer and flush.
        while let Some(c) = conn.waiting.remove(&conn.send_seq) {
            conn.send_seq += 1;
            conn.out.extend_from_slice(&c.bytes);
            conn.last_activity = Instant::now();
            if !c.keep_alive {
                conn.close_after_flush = true;
                conn.no_more_reads = true;
            }
        }
        if !flush(conn) {
            return false;
        }

        // 3. Close when everything owed has been delivered.
        let drained = conn.pending() == 0 && conn.flushed();
        if drained && (conn.close_after_flush || self.draining) {
            return false;
        }

        // 4. Refresh epoll interest: read unless paused or done reading;
        //    write only while unflushed bytes remain.
        let mut want = 0u32;
        if !conn.no_more_reads && conn.pending() < MAX_PIPELINE && !self.draining {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !conn.flushed() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_err()
            {
                return false;
            }
            conn.interest = want;
        }
        true
    }

    /// Hands one parsed request to the handler pool (or sheds it when the
    /// dispatch queue is full).
    fn dispatch(&mut self, conn: &mut EvConn, token: u64, req: Request, base: Instant) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        if seq > 0 {
            self.shared.metrics.keepalive_reuse();
        }
        let keep_alive = req.keep_alive() && !self.draining;
        let endpoint = routes::endpoint_of(&req);
        let job = Job {
            conn: token,
            seq,
            req,
            base,
            parse_done: Instant::now(),
            keep_alive,
        };
        match self.shared.dispatch.try_push(job) {
            Ok(()) => conn.in_flight += 1,
            Err(_) => {
                // Pending-request cap: the dispatch queue is full. Answer
                // 429 in sequence and close. The slot allocated for the
                // job is returned first so the error takes its sequence
                // number (the flusher would otherwise wait on it forever).
                conn.next_seq = seq;
                self.shared.metrics.reject();
                self.shared.metrics.count_unhandled(endpoint, 429);
                conn.queue_error(error_response(429, "compile queue full, retry later"));
            }
        }
    }

    /// Routes completed responses to their connections and advances each
    /// touched connection's state machine.
    fn apply_completions(&mut self) {
        let done = self.completions.take();
        for c in done {
            let token = c.conn;
            let Some(mut conn) = self.conns.remove(&token) else {
                continue; // connection died while its request was in flight
            };
            conn.in_flight -= 1;
            conn.waiting.insert(c.seq, c);
            if self.pump(&mut conn, token) {
                self.conns.insert(token, conn);
            } else {
                self.drop_conn(conn);
            }
        }
    }

    /// Periodic timeout sweep: reap idle keep-alive connections, answer
    /// 408 to drip-fed partial requests, and enforce the drain deadline.
    fn sweep(&mut self) {
        let now = Instant::now();
        if self.drain_deadline.is_some_and(|d| now >= d) {
            // Drain deadline passed: force-close whatever is left.
            for (_, conn) in self.conns.drain().collect::<Vec<_>>() {
                self.drop_conn(conn);
            }
            return;
        }
        let keepalive = self.shared.config.keepalive_timeout;
        let request_deadline = self.shared.config.read_timeout;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get(&token) else {
                continue;
            };
            let idle = conn.pending() == 0 && conn.flushed() && !conn.parser.has_partial();
            let idle_expired =
                idle && now.saturating_duration_since(conn.last_activity) >= keepalive;
            let request_expired = !conn.no_more_reads
                && conn
                    .req_start
                    .is_some_and(|s| now.saturating_duration_since(s) >= request_deadline);
            if idle_expired {
                // Idle keep-alive past its welcome: close silently.
                self.shared.metrics.conn_timeout();
                let conn = self.conns.remove(&token).expect("token just listed");
                self.drop_conn(conn);
            } else if request_expired {
                // Slowloris bound: a partial request past the read
                // deadline is answered 408 and the connection closed.
                self.shared.metrics.conn_timeout();
                self.shared.metrics.observe(Endpoint::Other, 408, 0.0, 0.0);
                let mut conn = self.conns.remove(&token).expect("token just listed");
                conn.queue_error(error_response(408, "request read timed out"));
                if self.pump(&mut conn, token) {
                    self.conns.insert(token, conn);
                } else {
                    self.drop_conn(conn);
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        // Close everything idle right away; connections with work in
        // flight finish flushing first (pump closes them when drained).
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let mut conn = self.conns.remove(&token).expect("token just listed");
            let alive = self.pump(&mut conn, token);
            if alive {
                self.conns.insert(token, conn);
            } else {
                self.drop_conn(conn);
            }
        }
    }

    fn drop_conn(&mut self, conn: EvConn) {
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.shared.metrics.conn_closed();
        drop(conn);
    }
}

/// Writes as much of the buffered output as the socket accepts. Returns
/// `false` when the connection is dead.
fn flush(conn: &mut EvConn) -> bool {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    true
}

/// Renders a complete error response into bytes (never fails: the sink
/// is a Vec).
fn error_response(status: u16, msg: &'static str) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    let _ = http::write_error(&mut out, status, msg, false);
    out
}

/// Handler thread: pop → route → render → complete. The synthesis
/// worker-pool bridge the tentpole names is exactly this queue pair —
/// handlers block on compile inside `routes::respond`, connections never
/// do.
fn handler_loop(shared: &Shared, completions: &Completions) {
    while let Some(job) = shared.dispatch.pop() {
        let picked_at = Instant::now();
        let depth = shared.dispatch.len();
        shared.metrics.sample_queue_depth(depth);
        let (conn, seq) = (job.conn, job.seq);
        // Panic isolation: the connection must still get *a* response or
        // it would wait forever on a completion that never comes.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_job(shared, job, picked_at, depth)
        }));
        let completion = match result {
            Ok(c) => c,
            Err(_) => {
                eprintln!("[server] handler recovered from a panic while serving a request");
                Completion {
                    conn,
                    seq,
                    bytes: error_response(500, "internal error"),
                    keep_alive: false,
                }
            }
        };
        completions.push(completion);
    }
}

/// Runs one request through the routing table under the trace/metrics
/// contract: root span based at request arrival, `read` / `queue-wait` /
/// `handle{parse,compile,write}` children whose durations sum to the
/// trace total.
fn handle_job(shared: &Shared, job: Job, picked_at: Instant, depth: usize) -> Completion {
    let Job {
        conn,
        seq,
        req,
        base,
        parse_done,
        keep_alive,
    } = job;
    let endpoint = routes::endpoint_of(&req);
    let keep_alive = keep_alive && !shared.shutdown.load(Ordering::SeqCst);
    let queue_wait_ms = picked_at.saturating_duration_since(parse_done).as_secs_f64() * 1e3;
    let name = format!("{} {}", req.method, routes::path_of(&req));
    let ctx = shared.tracer.begin_at(&name, base);
    let mut out = Vec::with_capacity(512);
    // `read`, `queue-wait` and `handle` tile the trace: each starts where
    // the one before ended, and the trace ends where `handle` does.
    let (status, done) = match &ctx {
        Some(ctx) => {
            let root = ctx.root();
            root.child_at("read", base, parse_done).end();
            let mut qs = root.child_at("queue-wait", parse_done, picked_at);
            qs.attr("depth", depth);
            qs.end();
            let mut handle_span = root.child_from("handle", picked_at);
            let status = routes::respond(
                &req,
                &mut out,
                shared,
                keep_alive,
                Some(&handle_span.handle()),
            );
            handle_span.attr("endpoint", endpoint.label());
            handle_span.attr("status", status);
            let done = Instant::now();
            handle_span.end_at(done);
            (status, done)
        }
        None => (
            routes::respond(&req, &mut out, shared, keep_alive, None),
            Instant::now(),
        ),
    };
    let service_ms = done.saturating_duration_since(picked_at).as_secs_f64() * 1e3;
    shared
        .metrics
        .observe(endpoint, status, queue_wait_ms, service_ms);
    match ctx {
        Some(ctx) => {
            ctx.attr("endpoint", endpoint.label());
            ctx.attr("status", status);
            ctx.attr("queue_wait_ms", queue_wait_ms);
            ctx.attr("service_ms", service_ms);
            if shared.tracer.finish_at(ctx, done).slow {
                shared.metrics.note_slow();
            }
        }
        None => {
            let slow_ms = shared.config.trace.slow_ms;
            if slow_ms > 0.0 && queue_wait_ms + service_ms >= slow_ms {
                shared.metrics.note_slow();
            }
        }
    }
    Completion {
        conn,
        seq,
        bytes: out,
        keep_alive: keep_alive && status != 500,
    }
}
