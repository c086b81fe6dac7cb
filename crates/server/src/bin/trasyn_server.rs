//! `trasyn-server` — serve the compilation engine over HTTP/1.1.
//!
//! ```text
//! trasyn-server [OPTIONS]
//!
//! options:
//!   --addr HOST:PORT       bind address (default 127.0.0.1:8087; port 0 = ephemeral)
//!   --addr-file FILE       write the bound address to FILE (for scripts using port 0)
//!   --http-workers N       handler threads (default 4)
//!   --queue-depth N        bounded dispatch queue, at least 1; overflow
//!                          answers 429 (default 64)
//!   --max-conns N          open-connection cap; excess accepts answer 429
//!                          (default 10240)
//!   --read-timeout-ms N    whole-request read deadline; a connection that
//!                          dribbles a request slower than this gets 408
//!                          (default 5000)
//!   --keepalive-timeout-ms N  idle keep-alive reap timeout (default 5000)
//!   --threads N            synthesis worker threads per request (default 1)
//!   --cache-capacity N     shared-cache entries, 0 = unbounded (default 65536)
//!   --cache-file FILE      warm-start from FILE on boot, save on shutdown/signal
//!   --backend NAME         default backend for requests (default gridsynth)
//!   --epsilon EPS          default per-rotation error threshold (default 1e-2)
//!   --profile              enable allocation accounting (per-phase alloc
//!                          counters in /metrics and /debug/profile; small
//!                          fast-path cost, off by default)
//!   --with-trasyn          also host the trasyn backend (builds its table at boot)
//!   --max-t N              trasyn per-tensor T budget (default 6)
//!   --samples N            trasyn samples per pass (default 1024)
//!   --no-trace             disable request tracing entirely
//!   --trace-sample N       trace 1 in N requests (default 1 = every request;
//!                          0 = sampling off, slow outliers still retained)
//!   --trace-ring N         retained finished traces, newest win (default 64)
//!   --trace-slow-ms X      slow-request threshold in ms; slower requests are
//!                          always retained and counted in
//!                          trasyn_slow_requests_total (default 250, 0 = off)
//!   --trace-seed N         sampling seed, for reproducible 1-in-N picks
//! ```
//!
//! One nonblocking epoll loop owns every connection; the handler threads
//! only run parsed requests. epoll makes the server Linux-only: elsewhere
//! it exits 1 at startup.
//!
//! The server runs until SIGINT/SIGTERM, then drains gracefully: it stops
//! accepting, in-flight requests finish and their responses flush, and
//! the cache snapshot is saved when `--cache-file` is set.
//!
//! Exit codes: 0 clean shutdown, 1 startup/save failure, 2 usage error.

use engine::{AnnealingBackend, BackendKind, Engine, GridsynthBackend, TrasynBackend, WarmStart};
use server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Options {
    addr: String,
    addr_file: Option<PathBuf>,
    http_workers: usize,
    queue_depth: usize,
    max_conns: usize,
    read_timeout_ms: u64,
    keepalive_timeout_ms: u64,
    threads: usize,
    cache_capacity: usize,
    cache_file: Option<PathBuf>,
    backend: BackendKind,
    epsilon: f64,
    profile: bool,
    with_trasyn: bool,
    max_t: usize,
    samples: usize,
    trace: trace::TraceConfig,
}

fn usage() -> &'static str {
    "usage: trasyn-server [--addr HOST:PORT] [--addr-file FILE] [--http-workers N] \
     [--queue-depth N] [--max-conns N] [--read-timeout-ms N] \
     [--keepalive-timeout-ms N] [--threads N] [--cache-capacity N] \
     [--cache-file FILE] [--backend trasyn|gridsynth|annealing] [--epsilon EPS] \
     [--profile] [--with-trasyn] [--max-t N] [--samples N] [--no-trace] [--trace-sample N] \
     [--trace-ring N] [--trace-slow-ms X] [--trace-seed N]"
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: "127.0.0.1:8087".to_string(),
        addr_file: None,
        http_workers: 4,
        queue_depth: 64,
        max_conns: 10_240,
        read_timeout_ms: 5000,
        keepalive_timeout_ms: 5000,
        threads: 1,
        cache_capacity: 65536,
        cache_file: None,
        backend: BackendKind::Gridsynth,
        epsilon: 1e-2,
        profile: false,
        with_trasyn: false,
        max_t: 6,
        samples: 1024,
        trace: trace::TraceConfig::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parse_usize = |flag: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match a.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--addr-file" => opts.addr_file = Some(PathBuf::from(value("--addr-file")?)),
            "--http-workers" => {
                opts.http_workers = parse_usize("--http-workers", value("--http-workers")?)?;
            }
            "--queue-depth" => {
                opts.queue_depth = parse_usize("--queue-depth", value("--queue-depth")?)?;
            }
            "--max-conns" => opts.max_conns = parse_usize("--max-conns", value("--max-conns")?)?,
            "--read-timeout-ms" => {
                opts.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms needs an integer".to_string())?;
            }
            "--keepalive-timeout-ms" => {
                opts.keepalive_timeout_ms = value("--keepalive-timeout-ms")?
                    .parse()
                    .map_err(|_| "--keepalive-timeout-ms needs an integer".to_string())?;
            }
            "--threads" => opts.threads = parse_usize("--threads", value("--threads")?)?,
            "--cache-capacity" => {
                opts.cache_capacity = parse_usize("--cache-capacity", value("--cache-capacity")?)?;
            }
            "--cache-file" => opts.cache_file = Some(PathBuf::from(value("--cache-file")?)),
            "--backend" => {
                let v = value("--backend")?;
                opts.backend =
                    BackendKind::parse(&v).ok_or_else(|| format!("unknown backend '{v}'"))?;
            }
            "--epsilon" => {
                opts.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|_| "--epsilon needs a number".to_string())?;
            }
            "--profile" => opts.profile = true,
            "--with-trasyn" => opts.with_trasyn = true,
            "--max-t" => opts.max_t = parse_usize("--max-t", value("--max-t")?)?,
            "--samples" => opts.samples = parse_usize("--samples", value("--samples")?)?,
            "--no-trace" => opts.trace.enabled = false,
            "--trace-sample" => {
                opts.trace.sample_every = value("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample needs an integer".to_string())?;
            }
            "--trace-ring" => {
                opts.trace.ring = parse_usize("--trace-ring", value("--trace-ring")?)?;
            }
            "--trace-slow-ms" => {
                opts.trace.slow_ms = value("--trace-slow-ms")?
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| "--trace-slow-ms needs a non-negative number".to_string())?;
            }
            "--trace-seed" => {
                opts.trace.seed = value("--trace-seed")?
                    .parse()
                    .map_err(|_| "--trace-seed needs an integer".to_string())?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(server::routes::MIN_EPSILON..=server::routes::MAX_EPSILON).contains(&opts.epsilon) {
        return Err(format!(
            "--epsilon must be in [{}, {}]",
            server::routes::MIN_EPSILON,
            server::routes::MAX_EPSILON
        ));
    }
    if opts.http_workers == 0 {
        return Err("--http-workers must be at least 1".to_string());
    }
    if opts.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".to_string());
    }
    if opts.max_conns == 0 {
        return Err("--max-conns must be at least 1".to_string());
    }
    Ok(Some(opts))
}

/// SIGINT/SIGTERM handling without any crate dependency: `std` already
/// links libc on every supported platform, so declaring `signal(2)` is
/// enough. The handler only sets an atomic — everything async-signal-safe.
///
/// The workspace denies `unsafe_code`, and this module is one of its
/// three `#[allow(unsafe_code)]` islands, with `server::sys` (epoll and
/// eventfd) and `prof::alloc` (the counting `GlobalAlloc`). Each allow is
/// scoped to its module so any new unsafe elsewhere still fails the
/// build, and CI fails if a fourth file allows it.
//
// SAFETY: the `signal` extern matches the libc prototype `void
// (*signal(int, void (*)(int)))(int)` up to the handler pointer being
// returned as `usize` (only compared against nothing — the return is
// ignored). `on_signal` is async-signal-safe: it performs exactly one
// atomic store, no allocation, locking, or formatting. Installation
// happens once from `main` before any worker thread exists.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use super::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
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

    if opts.profile {
        prof::alloc::set_enabled(true);
        eprintln!("[trasyn-server] allocation accounting enabled (--profile)");
    }

    let mut builder = Engine::builder()
        .threads(opts.threads)
        .cache_capacity(opts.cache_capacity)
        .backend(GridsynthBackend::default())
        .backend(AnnealingBackend::default());
    if opts.with_trasyn || opts.backend == BackendKind::Trasyn {
        eprintln!(
            "[trasyn-server] building trasyn table (max_t = {}) ...",
            opts.max_t
        );
        builder = builder.backend(TrasynBackend::with_table(opts.max_t, opts.samples));
    }
    let engine = Arc::new(builder.build());

    let config = ServerConfig {
        http_workers: opts.http_workers,
        queue_depth: opts.queue_depth,
        max_conns: opts.max_conns,
        read_timeout: Duration::from_millis(opts.read_timeout_ms.max(1)),
        keepalive_timeout: Duration::from_millis(opts.keepalive_timeout_ms.max(1)),
        default_epsilon: opts.epsilon,
        default_backend: opts.backend,
        cache_file: opts.cache_file.clone(),
        trace: opts.trace.clone(),
    };

    let handle = match Server::start(&opts.addr, config, engine) {
        Ok(h) => h,
        Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::from(1);
        }
    };
    match &handle.warm_start {
        WarmStart::Loaded(n) => eprintln!("[trasyn-server] warm start: {n} cache entries"),
        WarmStart::Absent => {}
        WarmStart::Rejected(e) => {
            eprintln!("[trasyn-server] warning: ignoring cache file: {e} (cold start)");
        }
    }
    let addr = handle.addr();
    if let Some(path) = &opts.addr_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    eprintln!(
        "[trasyn-server] listening on {addr} ({} workers, queue depth {}, max conns {})",
        opts.http_workers, opts.queue_depth, opts.max_conns
    );

    sig::install();
    while !sig::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }

    eprintln!("[trasyn-server] shutting down (draining in-flight work) ...");
    let report = handle.shutdown();
    eprintln!(
        "[trasyn-server] served {} requests, rejected {} (backpressure)",
        report.requests, report.rejected
    );
    match report.cache_saved {
        Some(Ok(n)) => eprintln!("[trasyn-server] saved {n} cache entries"),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
        None => {}
    }
    ExitCode::SUCCESS
}
