//! `trasyn-loadgen` — a load generator for `trasyn-server`.
//!
//! By default each connection thread plays one synchronous client: sample
//! a request from a [`workloads::requests::RequestMix`], send it, wait for
//! the response, repeat — so offered load adapts to server latency instead
//! of piling up (closed loop, the right model for a compile service called
//! by build pipelines). At the end it prints a latency/throughput report
//! and the server's cache hit rate and queue-wait/service split from
//! `/metrics`.
//!
//! With `--open-loop --rate R`, arrivals are instead scheduled by a
//! seeded Poisson process at R req/s total (split across connections),
//! and latency is measured from each request's *scheduled* send time —
//! so a server that falls behind pays its backlog in the percentiles
//! instead of silently slowing the generator down (no coordinated
//! omission). `--sweep START:STEP:COUNT` chains open-loop steps at
//! rising offered rates and reports the saturation knee: the highest
//! offered rate whose step still served at least 90% of the arrivals its
//! schedule placed inside the step.
//!
//! ```text
//! trasyn-loadgen --addr HOST:PORT [OPTIONS]
//!
//! options:
//!   --connections N       concurrent connections (default 4)
//!   --duration-secs S     run length (default 5)
//!   --requests N          stop after N total requests; the request budget
//!                         wins over --duration-secs
//!   --open-loop           Poisson-scheduled arrivals instead of closed loop
//!   --rate R              offered load in req/s for --open-loop (required)
//!   --sweep S:T:C         saturation sweep: C open-loop steps at offered
//!                         rates S, S+T, S+2T, ... (implies --open-loop)
//!   --sweep-step-secs X   seconds per sweep step (default 3)
//!   --mix rz|circuits|mixed   request population (default rz)
//!   --angle-pool N        distinct rotation angles in circulation (default 32)
//!   --epsilon EPS         per-rotation error threshold (default 1e-2)
//!   --backend NAME        synthesizer backend (default gridsynth)
//!   --seed N              request-stream seed (default 1)
//!   --smoke               instead of a load run: one compile + one batch +
//!                         /metrics, /debug/traces and /debug/profile
//!                         well-formedness checks, then exit
//!   --fail-on-error       exit 1 if any request got a non-200 response
//! ```
//!
//! A flag the chosen mode would not use (say `--rate` without
//! `--open-loop`, or `--requests` with `--sweep`) is a usage error
//! rather than silently ignored.
//!
//! Exit codes: 0 success, 1 request/transport failures (under
//! `--fail-on-error` or `--smoke`), 2 usage error.

use engine::BackendKind;
use server::client::Conn;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workloads::requests::{MixKind, RequestMix, RequestPayload};

struct Options {
    addr: String,
    connections: usize,
    duration: Duration,
    requests: Option<u64>,
    open_loop: bool,
    rate: f64,
    sweep: Option<(f64, f64, usize)>,
    sweep_step_secs: f64,
    mix: MixKind,
    angle_pool: usize,
    epsilon: f64,
    backend: BackendKind,
    seed: u64,
    smoke: bool,
    fail_on_error: bool,
}

fn usage() -> &'static str {
    "usage: trasyn-loadgen --addr HOST:PORT [--connections N] [--duration-secs S] \
     [--requests N] [--open-loop --rate R] [--sweep START:STEP:COUNT] [--sweep-step-secs X] \
     [--mix rz|circuits|mixed] [--angle-pool N] [--epsilon EPS] \
     [--backend trasyn|gridsynth|annealing] [--seed N] [--smoke] [--fail-on-error]"
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: String::new(),
        connections: 4,
        duration: Duration::from_secs(5),
        requests: None,
        open_loop: false,
        rate: 0.0,
        sweep: None,
        sweep_step_secs: 3.0,
        mix: MixKind::Rz,
        angle_pool: 32,
        epsilon: 1e-2,
        backend: BackendKind::Gridsynth,
        seed: 1,
        smoke: false,
        fail_on_error: false,
    };
    // Every flag seen, so a flag the chosen mode ignores can be rejected.
    let mut given: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        given.push(a);
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--connections" => {
                opts.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "--connections needs an integer".to_string())?;
            }
            "--duration-secs" => {
                let s: f64 = value("--duration-secs")?
                    .parse()
                    .map_err(|_| "--duration-secs needs a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--duration-secs must be positive".to_string());
                }
                opts.duration = Duration::from_secs_f64(s);
            }
            "--requests" => {
                opts.requests = Some(
                    value("--requests")?
                        .parse()
                        .map_err(|_| "--requests needs an integer".to_string())?,
                );
            }
            "--open-loop" => opts.open_loop = true,
            "--rate" => {
                opts.rate = value("--rate")?
                    .parse()
                    .map_err(|_| "--rate needs a number".to_string())?;
            }
            "--sweep" => {
                let v = value("--sweep")?;
                let parts: Vec<&str> = v.split(':').collect();
                let parsed = match parts.as_slice() {
                    [s, t, c] => s
                        .parse::<f64>()
                        .ok()
                        .zip(t.parse::<f64>().ok())
                        .zip(c.parse::<usize>().ok())
                        .map(|((s, t), c)| (s, t, c)),
                    _ => None,
                };
                opts.sweep = Some(parsed.ok_or_else(|| {
                    format!("--sweep wants START:STEP:COUNT (numbers), got '{v}'")
                })?);
            }
            "--sweep-step-secs" => {
                opts.sweep_step_secs = value("--sweep-step-secs")?
                    .parse()
                    .map_err(|_| "--sweep-step-secs needs a number".to_string())?;
            }
            "--mix" => {
                let v = value("--mix")?;
                opts.mix = MixKind::parse(&v).ok_or_else(|| format!("unknown mix '{v}'"))?;
            }
            "--angle-pool" => {
                opts.angle_pool = value("--angle-pool")?
                    .parse()
                    .map_err(|_| "--angle-pool needs an integer".to_string())?;
            }
            "--epsilon" => {
                opts.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|_| "--epsilon needs a number".to_string())?;
            }
            "--backend" => {
                let v = value("--backend")?;
                opts.backend =
                    BackendKind::parse(&v).ok_or_else(|| format!("unknown backend '{v}'"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--smoke" => opts.smoke = true,
            "--fail-on-error" => opts.fail_on_error = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if opts.connections == 0 {
        return Err("--connections must be at least 1".to_string());
    }
    if !(server::routes::MIN_EPSILON..=server::routes::MAX_EPSILON).contains(&opts.epsilon) {
        return Err(format!(
            "--epsilon must be in [{}, {}]",
            server::routes::MIN_EPSILON,
            server::routes::MAX_EPSILON
        ));
    }
    let (mode, no_effect): (&str, &[&str]) = if opts.smoke {
        let load_shape = &[
            "--connections",
            "--duration-secs",
            "--requests",
            "--open-loop",
            "--rate",
            "--sweep",
            "--sweep-step-secs",
            "--mix",
        ];
        ("--smoke", load_shape)
    } else if opts.sweep.is_some() {
        ("--sweep", &["--duration-secs", "--requests", "--rate"])
    } else if opts.open_loop {
        ("--open-loop", &["--sweep-step-secs"])
    } else {
        ("closed loop", &["--rate", "--sweep-step-secs"])
    };
    if let Some(flag) = no_effect.iter().find(|f| given.contains(f)) {
        return Err(format!("{flag} has no effect with {mode}"));
    }
    if let Some((start, step, count)) = opts.sweep {
        opts.open_loop = true;
        if !(start.is_finite() && start > 0.0 && step.is_finite() && step >= 0.0) || count == 0 {
            return Err("--sweep needs START > 0, STEP >= 0, COUNT >= 1".to_string());
        }
        if !(opts.sweep_step_secs.is_finite() && opts.sweep_step_secs > 0.0) {
            return Err("--sweep-step-secs must be positive".to_string());
        }
    } else if opts.open_loop && !(opts.rate.is_finite() && opts.rate > 0.0) {
        return Err("--open-loop needs --rate R with R > 0".to_string());
    }
    Ok(Some(opts))
}

/// The JSON body for one sampled request. The mix's lowering pipeline
/// rides along as the `"pipeline"` spec string, so a load run exercises
/// the same pass diversity a real serving fleet sees.
fn body_of(req: &workloads::requests::SampledRequest, opts: &Options) -> String {
    let common = format!(
        "\"epsilon\": {}, \"backend\": \"{}\", \"pipeline\": \"{}\", \"name\": {}",
        opts.epsilon,
        opts.backend.label(),
        req.pipeline,
        server::json::escape(&req.name),
    );
    match &req.payload {
        RequestPayload::Rz(theta) => format!("{{\"rz\": {theta}, {common}}}"),
        RequestPayload::Circuit(c) => format!(
            "{{\"qasm\": {}, {common}}}",
            server::json::escape(&circuit::qasm::to_qasm(c))
        ),
    }
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Pulls `trasyn_<name> <value>` out of a /metrics body.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

/// A tiny seeded xorshift64* — deterministic interarrival sampling with
/// no dependency and no global state.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // splitmix64 scrambles small sequential seeds apart.
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential interarrival gap for a Poisson process at `rate`/s.
    fn exp_secs(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

struct WorkerReport {
    latencies_ms: Vec<f64>,
    ok: u64,
    rejected: u64,
    errors: u64,
    transport_errors: u64,
    /// Open loop only: arrivals the schedule placed before the deadline
    /// that were never sent, because earlier requests were still waiting
    /// on the server.
    backlog: u64,
}

fn worker(
    id: usize,
    opts: &Options,
    rate_per_conn: Option<f64>,
    t_start: Instant,
    deadline: Instant,
    remaining: &AtomicU64,
    stop: &AtomicBool,
) -> WorkerReport {
    let mut mix = RequestMix::new(opts.mix, opts.angle_pool, opts.seed.wrapping_add(id as u64));
    let mut rng = XorShift::new(opts.seed.wrapping_mul(0x1000_0001).wrapping_add(id as u64));
    let mut report = WorkerReport {
        latencies_ms: Vec::new(),
        ok: 0,
        rejected: 0,
        errors: 0,
        transport_errors: 0,
        backlog: 0,
    };
    // Open loop: the next *scheduled* send time. Scheduling advances from
    // the previous scheduled time (not from completion), so the offered
    // rate is independent of how slow the server answers.
    let mut next_send = rate_per_conn.map(|r| t_start + Duration::from_secs_f64(rng.exp_secs(r)));
    let mut conn: Option<Conn> = None;
    'run: loop {
        if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
            break;
        }
        if let Some(at) = next_send {
            // Wait for the scheduled arrival (chunked so stop/deadline
            // stay responsive). Late is fine — the backlog is the point.
            loop {
                let now = Instant::now();
                if stop.load(Ordering::Relaxed) || now >= deadline {
                    break 'run;
                }
                if now >= at {
                    break;
                }
                std::thread::sleep((at - now).min(Duration::from_millis(20)));
            }
        }
        // Connect (or reconnect) before taking a budget unit, so failed
        // connects don't silently burn the --requests budget.
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::connect(&opts.addr, CLIENT_TIMEOUT) {
                Ok(c) => conn.insert(c),
                Err(_) => {
                    report.transport_errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        // Global request budget (u64::MAX when unlimited): CAS so the
        // worker pool sends exactly the requested count.
        let mut budget = remaining.load(Ordering::Relaxed);
        let took = loop {
            if budget == 0 {
                break false;
            }
            match remaining.compare_exchange_weak(
                budget,
                budget - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break true,
                Err(cur) => budget = cur,
            }
        };
        if !took {
            stop.store(true, Ordering::Relaxed);
            break;
        }
        let body = body_of(&mix.sample(), opts);
        // Open loop measures from the scheduled send time: queueing delay
        // behind a slow server lands in the percentiles.
        let t0 = next_send.unwrap_or_else(Instant::now);
        if let (Some(at), Some(rate)) = (next_send, rate_per_conn) {
            next_send = Some(at + Duration::from_secs_f64(rng.exp_secs(rate)));
        }
        match c.request("POST", "/v1/compile", Some(&body)) {
            Ok(resp) => {
                report.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                match resp.status {
                    200 => report.ok += 1,
                    429 => report.rejected += 1,
                    _ => report.errors += 1,
                }
                if !resp.keep_alive() {
                    conn = None;
                }
            }
            Err(_) => {
                report.transport_errors += 1;
                conn = None;
            }
        }
    }
    // A run the deadline ended (not the request budget): walk the rest of
    // the schedule up to the deadline to count what the server never got.
    if let (Some(mut at), Some(rate)) = (next_send, rate_per_conn) {
        if !stop.load(Ordering::Relaxed) {
            while at < deadline {
                report.backlog += 1;
                at += Duration::from_secs_f64(rng.exp_secs(rate));
            }
        }
    }
    report
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The server-side half of the report, scraped from one `/metrics` pull.
#[derive(Default)]
struct ServerStats {
    available: bool,
    cache_hits: f64,
    cache_misses: f64,
    queue_wait_ms_mean: f64,
    service_ms_mean: f64,
    slow_requests: f64,
}

impl ServerStats {
    fn scrape(addr: &str) -> Self {
        let resp = match Conn::connect(addr, CLIENT_TIMEOUT)
            .and_then(|mut c| c.request("GET", "/metrics", None))
        {
            Ok(r) if r.status == 200 => r,
            _ => return Self::default(),
        };
        let m = |name: &str| metric(&resp.body, name).unwrap_or(0.0);
        let mean = |sum: f64, count: f64| if count > 0.0 { sum / count } else { 0.0 };
        ServerStats {
            available: true,
            cache_hits: m("trasyn_cache_hits_total"),
            cache_misses: m("trasyn_cache_misses_total"),
            queue_wait_ms_mean: mean(m("trasyn_queue_wait_ms_sum"), m("trasyn_queue_wait_ms_count")),
            service_ms_mean: mean(m("trasyn_service_ms_sum"), m("trasyn_service_ms_count")),
            slow_requests: m("trasyn_slow_requests_total"),
        }
    }

    fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups > 0.0 {
            self.cache_hits / lookups
        } else {
            0.0
        }
    }
}

/// One generator run's aggregated result (latencies sorted ascending).
struct RunResult {
    elapsed: f64,
    latencies: Vec<f64>,
    ok: u64,
    rejected: u64,
    errors: u64,
    transport: u64,
    backlog: u64,
}

impl RunResult {
    fn total(&self) -> u64 {
        self.ok + self.rejected + self.errors
    }

    fn achieved_rps(&self) -> f64 {
        self.total() as f64 / self.elapsed.max(1e-9)
    }

    /// An open-loop run kept up with its offered rate: it served at least
    /// 90% of the arrivals its schedule placed before the deadline,
    /// shedding or failing none. Counting arrivals instead of dividing
    /// completions by wall time keeps Poisson noise in a short run's
    /// schedule, and the drain after its deadline, from reading as
    /// saturation.
    fn kept_up(&self) -> bool {
        self.ok as f64 >= 0.9 * (self.ok + self.backlog) as f64
            && self.rejected == 0
            && self.errors == 0
    }
}

/// Spawns the connection pool and drives it until `duration` (or the
/// request budget) runs out. `offered_rate` switches the pool to
/// Poisson-scheduled open-loop arrivals at that total rate.
fn run_workers(
    opts: &Options,
    offered_rate: Option<f64>,
    duration: Duration,
    requests: Option<u64>,
) -> RunResult {
    let deadline = Instant::now()
        + if requests.is_some() {
            // Budget-driven runs still need a safety net.
            Duration::from_secs(600)
        } else {
            duration
        };
    let rate_per_conn = offered_rate.map(|r| r / opts.connections as f64);
    let remaining = AtomicU64::new(requests.unwrap_or(u64::MAX));
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let reports: Vec<WorkerReport> = std::thread::scope(|s| {
        let (remaining, stop) = (&remaining, &stop);
        let handles: Vec<_> = (0..opts.connections)
            .map(|i| {
                s.spawn(move || worker(i, opts, rate_per_conn, t0, deadline, remaining, stop))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = reports.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let sum = |f: fn(&WorkerReport) -> u64| reports.iter().map(f).sum();
    RunResult {
        elapsed,
        latencies,
        ok: sum(|r| r.ok),
        rejected: sum(|r| r.rejected),
        errors: sum(|r| r.errors),
        transport: sum(|r| r.transport_errors),
        backlog: sum(|r| r.backlog),
    }
}

fn load_run(opts: &Options) -> ExitCode {
    let offered = opts.open_loop.then_some(opts.rate);
    let run = run_workers(opts, offered, opts.duration, opts.requests);
    let RunResult {
        elapsed,
        ref latencies,
        ok,
        rejected,
        errors,
        transport,
        ..
    } = run;
    let total = run.total();

    match offered {
        Some(rate) => println!(
            "trasyn-loadgen: {} connection(s), {:.2} s, mix={}, open-loop {rate} req/s offered",
            opts.connections,
            elapsed,
            opts.mix.label()
        ),
        None => println!(
            "trasyn-loadgen: {} connection(s), {:.2} s, mix={}",
            opts.connections,
            elapsed,
            opts.mix.label()
        ),
    }
    println!(
        "  requests: {total} total — {ok} ok, {rejected} rejected (429), {errors} errors, {transport} transport failures"
    );
    println!("  throughput: {:.1} req/s", total as f64 / elapsed.max(1e-9));
    println!(
        "  latency ms: p50 {:.3}, p90 {:.3}, p95 {:.3}, p99 {:.3}, max {:.3}",
        percentile(latencies, 0.50),
        percentile(latencies, 0.90),
        percentile(latencies, 0.95),
        percentile(latencies, 0.99),
        latencies.last().copied().unwrap_or(0.0),
    );

    // Server-side view: cache effectiveness plus the queue-wait/service
    // split, all from one /metrics pull.
    let server = ServerStats::scrape(&opts.addr);
    if server.available {
        println!(
            "  server cache: {:.0} hits, {:.0} misses ({:.1}% hit rate)",
            server.cache_hits,
            server.cache_misses,
            100.0 * server.hit_rate(),
        );
        println!(
            "  server time: queue-wait mean {:.3} ms, service mean {:.3} ms, {:.0} slow request(s)",
            server.queue_wait_ms_mean, server.service_ms_mean, server.slow_requests,
        );
    } else {
        println!("  server: /metrics unavailable");
    }

    if opts.fail_on_error && (errors > 0 || transport > 0) {
        eprintln!("error: {errors} request error(s), {transport} transport failure(s)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The saturation sweep: open-loop steps at rising offered rates, then
/// the knee — the highest offered rate whose step kept up
/// ([`RunResult::kept_up`]).
fn sweep_run(opts: &Options) -> ExitCode {
    let (start, step, count) = opts.sweep.expect("sweep mode");
    let step_secs = opts.sweep_step_secs;
    println!(
        "trasyn-loadgen: saturation sweep — {count} step(s) x {step_secs} s, offered {start} req/s + {step}/step, {} connection(s), mix={}",
        opts.connections,
        opts.mix.label(),
    );
    println!(
        "  {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "offered", "achieved", "ok", "backlog", "429", "errors", "p50 ms", "p99 ms"
    );

    let mut knee: Option<f64> = None;
    let (mut errors, mut transport): (u64, u64) = (0, 0);
    for i in 0..count {
        let offered = start + step * i as f64;
        let run = run_workers(opts, Some(offered), Duration::from_secs_f64(step_secs), None);
        errors += run.errors;
        transport += run.transport;
        println!(
            "  {offered:>12.1} {:>12.1} {:>8} {:>8} {:>8} {:>8} {:>10.3} {:>10.3}",
            run.achieved_rps(),
            run.ok,
            run.backlog,
            run.rejected,
            run.errors,
            percentile(&run.latencies, 0.50),
            percentile(&run.latencies, 0.99),
        );
        // Offered rates never fall (STEP >= 0), so the last step that
        // kept up is the highest.
        if run.kept_up() {
            knee = Some(offered);
        }
    }
    match knee {
        Some(r) => println!("  knee: {r:.1} req/s offered, the highest step that kept up"),
        None => println!("  knee: none — no step kept up with its offered rate"),
    }

    if opts.fail_on_error && (errors > 0 || transport > 0) {
        eprintln!("error: {errors} request error(s), {transport} transport failure(s)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// One compile + one batch + a `/metrics` well-formedness check — the CI
/// smoke path.
fn smoke(opts: &Options) -> Result<(), String> {
    let mut mix = RequestMix::new(MixKind::Mixed, opts.angle_pool, opts.seed);
    let mut conn = Conn::connect(&opts.addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.addr))?;

    // healthz
    let resp = conn.request("GET", "/healthz", None).map_err(|e| e.to_string())?;
    if resp.status != 200 || !resp.body.contains("\"ok\"") {
        return Err(format!("healthz: status {} body {:?}", resp.status, resp.body));
    }

    // one single compile
    let body = body_of(&mix.sample(), opts);
    let resp = conn.request("POST", "/v1/compile", Some(&body)).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("compile: status {} body {:?}", resp.status, resp.body));
    }
    let parsed = server::json::parse(&resp.body).map_err(|e| format!("compile response: {e}"))?;
    for key in ["qasm", "t_count", "cache_hits", "cache_misses"] {
        if parsed.get(key).is_none() {
            return Err(format!("compile response missing \"{key}\""));
        }
    }

    // one batch of two
    let batch = format!(
        "{{\"items\": [{}, {}]}}",
        body_of(&mix.sample(), opts),
        body_of(&mix.sample(), opts)
    );
    let resp = conn.request("POST", "/v1/batch", Some(&batch)).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("batch: status {} body {:?}", resp.status, resp.body));
    }
    let parsed = server::json::parse(&resp.body).map_err(|e| format!("batch response: {e}"))?;
    let n = parsed.get("items").and_then(|v| v.as_arr()).map(|a| a.len());
    if n != Some(2) {
        return Err(format!("batch response items: {n:?}, want Some(2)"));
    }

    // metrics well-formedness
    let resp = conn.request("GET", "/metrics", None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("metrics: status {}", resp.status));
    }
    for needle in [
        "trasyn_requests_total{endpoint=\"compile\"}",
        "trasyn_requests_total{endpoint=\"batch\"}",
        "trasyn_request_latency_ms_bucket{le=\"+Inf\"}",
        "trasyn_request_latency_ms_count",
        "trasyn_rejected_total",
        "trasyn_queue_depth",
        "trasyn_cache_hits_total",
        "trasyn_cache_misses_total",
        "trasyn_cache_entries",
        "trasyn_pass_runs_total",
        "trasyn_pass_wall_ms_total",
        "trasyn_queue_wait_ms_bucket{le=\"+Inf\"}",
        "trasyn_queue_wait_ms_count",
        "trasyn_service_ms_bucket{le=\"+Inf\"}",
        "trasyn_service_ms_count",
        "trasyn_slow_requests_total",
        "trasyn_queue_depth_sampled_sum",
        "trasyn_queue_depth_samples_total",
        "trasyn_queue_depth_max",
        "trasyn_work_total{kind=\"grid_candidates\"}",
        "trasyn_work_total{kind=\"cache_probes\"}",
        "trasyn_pool_runs_total",
        "trasyn_pool_jobs_total",
        "trasyn_pool_utilization",
        "trasyn_alloc_enabled",
        "trasyn_phase_allocs_total{phase=\"synthesis\"}",
        "trasyn_phase_alloc_bytes_total{phase=\"lower\"}",
        "trasyn_phase_alloc_peak_bytes{phase=\"verify\"}",
        "trasyn_cache_shard_entries{shard=\"0\"}",
        "trasyn_cache_shard_evictions_total{shard=\"0\"}",
        "trasyn_conns_open",
        "trasyn_keepalive_reuse_total",
        "trasyn_conn_timeouts_total",
        "trasyn_event_loop_iterations_total",
        "trasyn_event_wakeups_total",
    ] {
        if !resp.body.contains(needle) {
            return Err(format!("metrics missing {needle:?}"));
        }
    }
    let compiles = metric(&resp.body, "trasyn_requests_total{endpoint=\"compile\"}");
    if !matches!(compiles, Some(x) if x >= 1.0) {
        return Err(format!("metrics compile counter not incremented: {compiles:?}"));
    }

    // /debug/traces shape: a JSON array; when tracing is on (the default
    // server config) the compile/batch requests above must be retained,
    // each with a trace id and a span tree.
    let resp = conn.request("GET", "/debug/traces", None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("debug/traces: status {}", resp.status));
    }
    let parsed =
        server::json::parse(&resp.body).map_err(|e| format!("debug/traces response: {e}"))?;
    let traces = parsed
        .as_arr()
        .ok_or_else(|| "debug/traces did not return an array".to_string())?;
    if traces.is_empty() {
        return Err("debug/traces returned no traces with tracing enabled".to_string());
    }
    for t in traces {
        for key in ["trace_id", "name", "duration_ms", "spans"] {
            if t.get(key).is_none() {
                return Err(format!("debug/traces entry missing \"{key}\""));
            }
        }
    }
    // Malformed filter params must be rejected, not ignored.
    let resp = conn
        .request("GET", "/debug/traces?min_ms=bogus", None)
        .map_err(|e| e.to_string())?;
    if resp.status != 400 {
        return Err(format!("debug/traces?min_ms=bogus: status {}, want 400", resp.status));
    }

    // /debug/profile shape: engine stats (work/pool/alloc/cache_shards)
    // plus queue-depth sampling, with plausible work counters — the
    // compile/batch requests above synthesized at least one rotation.
    let resp = conn.request("GET", "/debug/profile", None).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("debug/profile: status {}", resp.status));
    }
    let parsed =
        server::json::parse(&resp.body).map_err(|e| format!("debug/profile response: {e}"))?;
    let engine = parsed
        .get("engine")
        .ok_or_else(|| "debug/profile missing \"engine\"".to_string())?;
    for key in ["work", "pool", "alloc", "cache_shards", "cache", "passes"] {
        if engine.get(key).is_none() {
            return Err(format!("debug/profile engine missing \"{key}\""));
        }
    }
    let probes = engine
        .get("work")
        .and_then(|w| w.get("cache_probes"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    if probes < 1.0 {
        return Err(format!("debug/profile cache_probes = {probes}, want >= 1"));
    }
    for key in ["depth", "sampled"] {
        if parsed.get("queue").and_then(|q| q.get(key)).is_none() {
            return Err(format!("debug/profile queue missing \"{key}\""));
        }
    }

    println!("trasyn-loadgen: smoke ok (compile + batch + metrics + traces + profile)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.smoke {
        return match smoke(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: smoke failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    if opts.sweep.is_some() {
        return sweep_run(&opts);
    }
    load_run(&opts)
}
