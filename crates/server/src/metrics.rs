//! Server counters and the `/metrics` text exposition.
//!
//! Lock-free atomics updated on every request, rendered in the
//! Prometheus text format (names prefixed `trasyn_`). The engine's
//! cache/pool counters come from [`engine::EngineStats`] at render time —
//! the same snapshot shape `trasyn-compile` prints — so the two surfaces
//! can never disagree about what a hit is.
//!
//! Latency is exposed as three histograms over the same bucket bounds:
//! `trasyn_request_latency_ms` (end-to-end, the historic family),
//! `trasyn_queue_wait_ms` (request parsed → handler pickup), and
//! `trasyn_service_ms` (handler pickup → response rendered), so dashboards
//! can tell queueing delay from compute. `trasyn_slow_requests_total`
//! counts requests past the tracer's slow threshold — including ones the
//! sampler would otherwise have dropped.
//!
//! Metric names are **append-only**: renaming or dropping a family
//! breaks downstream scrapers, so the golden test in
//! `tests/metrics_golden.rs` pins the full render shape.

use engine::EngineStats;
use prof::WorkKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (milliseconds) of the latency histogram buckets; the
/// implicit `+Inf` bucket comes after the last one. Chosen to straddle
/// the service's realistic range: sub-millisecond cache hits up to
/// multi-second cold trasyn syntheses.
pub const LATENCY_BUCKETS_MS: [f64; 11] = [
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 1000.0, 10_000.0,
];

/// Request endpoints that get their own counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/compile`
    Compile,
    /// `POST /v1/batch`
    Batch,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /debug/traces` and `GET /debug/profile`
    Debug,
    /// Anything else (404s, bad methods, …).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 6] = [
        Endpoint::Compile,
        Endpoint::Batch,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Debug,
        Endpoint::Other,
    ];

    /// The `endpoint="..."` label value in `/metrics`.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Compile => "compile",
            Endpoint::Batch => "batch",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Status classes that get their own counter.
const STATUS_CODES: [u16; 7] = [200, 400, 404, 405, 413, 429, 500];

/// One latency histogram: fixed [`LATENCY_BUCKETS_MS`] bounds plus
/// `+Inf`, a microsecond-resolution sum, and a sample count.
#[derive(Default)]
struct Hist {
    buckets: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    fn observe(&self, ms: f64) {
        let bucket = LATENCY_BUCKETS_MS
            .iter()
            .position(|&ub| ms <= ub)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us
            .fetch_add((ms * 1e3).max(0.0) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the histogram family (cumulative buckets, as Prometheus
    /// expects) through the caller's line sink.
    fn render(&self, name: &str, line: &mut impl FnMut(String)) {
        line(format!("# TYPE {name} histogram"));
        let mut cumulative = 0u64;
        for (i, &ub) in LATENCY_BUCKETS_MS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            line(format!("{name}_bucket{{le=\"{ub}\"}} {cumulative}"));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_MS.len()].load(Ordering::Relaxed);
        line(format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}"));
        line(format!(
            "{name}_sum {}",
            self.sum_us.load(Ordering::Relaxed) as f64 / 1e3
        ));
        line(format!(
            "{name}_count {}",
            self.count.load(Ordering::Relaxed)
        ));
    }
}

/// The server's counter set. All methods take `&self`; everything is
/// relaxed atomics (counters tolerate reorder, they only accumulate).
pub struct Metrics {
    requests: [AtomicU64; 6],
    responses: [AtomicU64; STATUS_CODES.len()],
    responses_other: AtomicU64,
    rejected: AtomicU64,
    slow: AtomicU64,
    /// End-to-end latency (queue wait + service), the historic family.
    latency: Hist,
    /// Time between a request being parsed and a handler picking it up.
    queue_wait: Hist,
    /// Time between handler pickup and the response being rendered.
    service: Hist,
    /// Queue-depth samples taken at every handler pickup: sum and count
    /// give the mean depth *while work was flowing* (the live
    /// `trasyn_queue_depth` gauge only shows the instant of the scrape),
    /// max is the high-water mark.
    queue_depth_sum: AtomicU64,
    queue_depth_samples: AtomicU64,
    queue_depth_max: AtomicU64,
    /// Currently open connections.
    conns_open: AtomicU64,
    /// Requests served on a reused keep-alive connection (every request
    /// past a connection's first).
    keepalive_reuse: AtomicU64,
    /// Connections reaped by timeout: idle keep-alive past
    /// `keepalive_timeout`, or a partial request past the read deadline.
    conn_timeouts: AtomicU64,
    /// Event-loop iterations (`epoll_wait` returns).
    event_loop_iters: AtomicU64,
    /// Event-loop wakeups via the completion eventfd.
    event_wakeups: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Default::default(),
            responses: Default::default(),
            responses_other: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            latency: Hist::default(),
            queue_wait: Hist::default(),
            service: Hist::default(),
            queue_depth_sum: AtomicU64::new(0),
            queue_depth_samples: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            conns_open: AtomicU64::new(0),
            keepalive_reuse: AtomicU64::new(0),
            conn_timeouts: AtomicU64::new(0),
            event_loop_iters: AtomicU64::new(0),
            event_wakeups: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request: endpoint, response status, and the
    /// two halves of its wall time — queue wait (request parsed → handler
    /// pickup) and service time (handler pickup → response rendered). The
    /// historic `trasyn_request_latency_ms` family observes their sum.
    pub fn observe(&self, endpoint: Endpoint, status: u16, queue_wait_ms: f64, service_ms: f64) {
        self.count_unhandled(endpoint, status);
        self.latency.observe(queue_wait_ms + service_ms);
        self.queue_wait.observe(queue_wait_ms);
        self.service.observe(service_ms);
    }

    /// Records a response that was never *handled* (a backpressure shed):
    /// endpoint and status counters only — no latency sample, so the
    /// histogram and [`Metrics::request_count`] keep describing work the
    /// server actually performed.
    pub fn count_unhandled(&self, endpoint: Endpoint, status: u16) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
        match STATUS_CODES.iter().position(|&s| s == status) {
            Some(i) => {
                self.responses[i].fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.responses_other.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one request or connection shed with 429 by the dispatch
    /// queue or the connection cap (it also gets a 429 counted via
    /// [`Metrics::count_unhandled`] — this counter isolates backpressure
    /// sheds from other 429 sources).
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Total backpressure sheds so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Records one request whose total latency crossed the tracer's
    /// slow-request threshold.
    pub fn note_slow(&self) {
        self.slow.fetch_add(1, Ordering::Relaxed);
    }

    /// Total slow requests so far.
    pub fn slow_total(&self) -> u64 {
        self.slow.load(Ordering::Relaxed)
    }

    /// Total observed requests so far.
    pub fn request_count(&self) -> u64 {
        self.latency.count.load(Ordering::Relaxed)
    }

    /// Records one queue-depth sample (taken whenever a handler picks a
    /// request off the dispatch queue).
    pub fn sample_queue_depth(&self, depth: usize) {
        let d = depth as u64;
        self.queue_depth_sum.fetch_add(d, Ordering::Relaxed);
        self.queue_depth_samples.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_max.fetch_max(d, Ordering::Relaxed);
    }

    /// One connection accepted.
    pub fn conn_opened(&self) {
        self.conns_open.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection closed (any reason).
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    pub fn conns_open(&self) -> u64 {
        self.conns_open.load(Ordering::Relaxed)
    }

    /// One request served on a reused keep-alive connection.
    pub fn keepalive_reuse(&self) {
        self.keepalive_reuse.fetch_add(1, Ordering::Relaxed);
    }

    /// Total keep-alive reuses so far.
    pub fn keepalive_reuse_total(&self) -> u64 {
        self.keepalive_reuse.load(Ordering::Relaxed)
    }

    /// One connection reaped by an idle or read-deadline timeout.
    pub fn conn_timeout(&self) {
        self.conn_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Total connections reaped by timeout so far.
    pub fn conn_timeouts_total(&self) -> u64 {
        self.conn_timeouts.load(Ordering::Relaxed)
    }

    /// One event-loop iteration (an `epoll_wait` return).
    pub fn event_loop_iter(&self) {
        self.event_loop_iters.fetch_add(1, Ordering::Relaxed);
    }

    /// One eventfd wakeup observed by the event loop.
    pub fn event_wakeup(&self) {
        self.event_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// `(sum, samples, max)` of the queue-depth samples so far.
    pub fn queue_depth_sampled(&self) -> (u64, u64, u64) {
        (
            self.queue_depth_sum.load(Ordering::Relaxed),
            self.queue_depth_samples.load(Ordering::Relaxed),
            self.queue_depth_max.load(Ordering::Relaxed),
        )
    }

    /// Renders the Prometheus text exposition: server counters, the
    /// latency histogram (cumulative, as Prometheus expects), the live
    /// queue depth, and the engine's [`EngineStats`].
    pub fn render(&self, engine: &EngineStats, queue_depth: usize) -> String {
        let mut out = String::with_capacity(2048);
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };

        line("# TYPE trasyn_requests_total counter".into());
        for e in Endpoint::ALL {
            line(format!(
                "trasyn_requests_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.requests[e.index()].load(Ordering::Relaxed)
            ));
        }
        line("# TYPE trasyn_responses_total counter".into());
        for (i, &s) in STATUS_CODES.iter().enumerate() {
            line(format!(
                "trasyn_responses_total{{status=\"{s}\"}} {}",
                self.responses[i].load(Ordering::Relaxed)
            ));
        }
        line(format!(
            "trasyn_responses_total{{status=\"other\"}} {}",
            self.responses_other.load(Ordering::Relaxed)
        ));
        line("# TYPE trasyn_rejected_total counter".into());
        line(format!("trasyn_rejected_total {}", self.rejected()));
        line("# TYPE trasyn_slow_requests_total counter".into());
        line(format!("trasyn_slow_requests_total {}", self.slow_total()));

        self.latency.render("trasyn_request_latency_ms", &mut line);
        self.queue_wait.render("trasyn_queue_wait_ms", &mut line);
        self.service.render("trasyn_service_ms", &mut line);

        line("# TYPE trasyn_queue_depth gauge".into());
        line(format!("trasyn_queue_depth {queue_depth}"));

        line("# TYPE trasyn_cache_hits_total counter".into());
        line(format!("trasyn_cache_hits_total {}", engine.cache.hits));
        line("# TYPE trasyn_cache_misses_total counter".into());
        line(format!("trasyn_cache_misses_total {}", engine.cache.misses));
        line("# TYPE trasyn_cache_insertions_total counter".into());
        line(format!(
            "trasyn_cache_insertions_total {}",
            engine.cache.insertions
        ));
        line("# TYPE trasyn_cache_evictions_total counter".into());
        line(format!(
            "trasyn_cache_evictions_total {}",
            engine.cache.evictions
        ));
        line("# TYPE trasyn_cache_entries gauge".into());
        line(format!("trasyn_cache_entries {}", engine.cache.entries));
        line("# TYPE trasyn_synthesis_threads gauge".into());
        line(format!("trasyn_synthesis_threads {}", engine.threads));
        line("# TYPE trasyn_verify_ok_total counter".into());
        line(format!("trasyn_verify_ok_total {}", engine.verify_ok));
        line("# TYPE trasyn_verify_fail_total counter".into());
        line(format!("trasyn_verify_fail_total {}", engine.verify_fail));
        line("# TYPE trasyn_lint_error_total counter".into());
        line(format!("trasyn_lint_error_total {}", engine.lint_errors));
        line("# TYPE trasyn_lint_warning_total counter".into());
        line(format!(
            "trasyn_lint_warning_total {}",
            engine.lint_warnings
        ));

        // Per-pass lowering counters (sorted by pass name in EngineStats,
        // so the exposition is stable across request interleavings).
        line("# TYPE trasyn_pass_runs_total counter".into());
        for p in &engine.passes {
            line(format!(
                "trasyn_pass_runs_total{{pass=\"{}\"}} {}",
                p.name, p.runs
            ));
        }
        line("# TYPE trasyn_pass_wall_ms_total counter".into());
        for p in &engine.passes {
            line(format!(
                "trasyn_pass_wall_ms_total{{pass=\"{}\"}} {}",
                p.name, p.wall_ms
            ));
        }
        line("# TYPE trasyn_pass_rotations_in_total counter".into());
        for p in &engine.passes {
            line(format!(
                "trasyn_pass_rotations_in_total{{pass=\"{}\"}} {}",
                p.name, p.rotations_in
            ));
        }
        line("# TYPE trasyn_pass_rotations_out_total counter".into());
        for p in &engine.passes {
            line(format!(
                "trasyn_pass_rotations_out_total{{pass=\"{}\"}} {}",
                p.name, p.rotations_out
            ));
        }

        // Profiling families (this PR's additions — appended after the
        // historic ones; the whole exposition stays append-only).
        let (qd_sum, qd_samples, qd_max) = self.queue_depth_sampled();
        line("# TYPE trasyn_queue_depth_sampled_sum counter".into());
        line(format!("trasyn_queue_depth_sampled_sum {qd_sum}"));
        line("# TYPE trasyn_queue_depth_samples_total counter".into());
        line(format!("trasyn_queue_depth_samples_total {qd_samples}"));
        line("# TYPE trasyn_queue_depth_max gauge".into());
        line(format!("trasyn_queue_depth_max {qd_max}"));

        let prof = &engine.profile;
        line("# TYPE trasyn_work_total counter".into());
        for kind in WorkKind::ALL {
            let (label, n) = (kind.label(), prof.work.get(kind));
            line(format!("trasyn_work_total{{kind=\"{label}\"}} {n}"));
        }

        line("# TYPE trasyn_pool_runs_total counter".into());
        line(format!("trasyn_pool_runs_total {}", prof.pool.runs));
        line("# TYPE trasyn_pool_jobs_total counter".into());
        line(format!("trasyn_pool_jobs_total {}", prof.pool.jobs));
        line("# TYPE trasyn_pool_busy_ms_total counter".into());
        line(format!("trasyn_pool_busy_ms_total {}", prof.pool.busy_ms));
        line("# TYPE trasyn_pool_wall_ms_total counter".into());
        line(format!("trasyn_pool_wall_ms_total {}", prof.pool.wall_ms));
        line("# TYPE trasyn_pool_utilization gauge".into());
        line(format!(
            "trasyn_pool_utilization {}",
            prof.pool.utilization()
        ));
        line("# TYPE trasyn_pool_workers gauge".into());
        line(format!("trasyn_pool_workers {}", prof.pool.workers.len()));

        line("# TYPE trasyn_alloc_enabled gauge".into());
        line(format!(
            "trasyn_alloc_enabled {}",
            u8::from(prof.alloc_enabled)
        ));
        line("# TYPE trasyn_phase_allocs_total counter".into());
        for (phase, a) in prof.alloc.phases() {
            line(format!(
                "trasyn_phase_allocs_total{{phase=\"{phase}\"}} {}",
                a.allocs
            ));
        }
        line("# TYPE trasyn_phase_alloc_bytes_total counter".into());
        for (phase, a) in prof.alloc.phases() {
            line(format!(
                "trasyn_phase_alloc_bytes_total{{phase=\"{phase}\"}} {}",
                a.bytes
            ));
        }
        line("# TYPE trasyn_phase_alloc_peak_bytes gauge".into());
        for (phase, a) in prof.alloc.phases() {
            line(format!(
                "trasyn_phase_alloc_peak_bytes{{phase=\"{phase}\"}} {}",
                a.peak_bytes
            ));
        }

        // Per-shard cache telemetry: entries and evictions only — the
        // age fields are wall-clock dependent and belong to
        // `/debug/profile`, not a deterministic text exposition.
        line("# TYPE trasyn_cache_shard_entries gauge".into());
        for (i, s) in prof.cache_shards.iter().enumerate() {
            line(format!(
                "trasyn_cache_shard_entries{{shard=\"{i}\"}} {}",
                s.entries
            ));
        }
        line("# TYPE trasyn_cache_shard_evictions_total counter".into());
        for (i, s) in prof.cache_shards.iter().enumerate() {
            line(format!(
                "trasyn_cache_shard_evictions_total{{shard=\"{i}\"}} {}",
                s.evictions
            ));
        }

        // Event-core connection families (appended after the historic
        // ones; the whole exposition stays append-only).
        line("# TYPE trasyn_conns_open gauge".into());
        line(format!("trasyn_conns_open {}", self.conns_open()));
        line("# TYPE trasyn_keepalive_reuse_total counter".into());
        line(format!(
            "trasyn_keepalive_reuse_total {}",
            self.keepalive_reuse_total()
        ));
        line("# TYPE trasyn_conn_timeouts_total counter".into());
        line(format!(
            "trasyn_conn_timeouts_total {}",
            self.conn_timeouts_total()
        ));
        line("# TYPE trasyn_event_loop_iterations_total counter".into());
        line(format!(
            "trasyn_event_loop_iterations_total {}",
            self.event_loop_iters.load(Ordering::Relaxed)
        ));
        line("# TYPE trasyn_event_wakeups_total counter".into());
        line(format!(
            "trasyn_event_wakeups_total {}",
            self.event_wakeups.load(Ordering::Relaxed)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{
        BackendKind, CacheStats, PhaseAllocs, PoolTotals, ProfileStats, ShardStats, WorkerTotals,
    };
    use prof::{AllocDelta, WorkSnapshot};

    fn work() -> WorkSnapshot {
        let mut w = WorkSnapshot::default();
        for (kind, n) in WorkKind::ALL.into_iter().zip([40, 30, 20, 10, 7]) {
            w.add(kind, n);
        }
        w
    }

    fn stats() -> EngineStats {
        let mut fuse = engine::PassTotals::named("fuse");
        fuse.runs = 3;
        fuse.wall_ms = 1.25;
        fuse.rotations_in = 12;
        fuse.rotations_out = 7;
        EngineStats {
            threads: 2,
            backends: vec![BackendKind::Gridsynth],
            cache_capacity: 64,
            cache: CacheStats {
                hits: 5,
                misses: 2,
                insertions: 2,
                evictions: 1,
                entries: 2,
            },
            passes: vec![fuse],
            verify_ok: 6,
            verify_fail: 2,
            lint_errors: 4,
            lint_warnings: 9,
            profile: ProfileStats {
                alloc_enabled: true,
                work: work(),
                pool: PoolTotals {
                    runs: 2,
                    jobs: 8,
                    wall_ms: 4.0,
                    busy_ms: 6.0,
                    workers: vec![
                        WorkerTotals {
                            busy_ms: 3.0,
                            jobs: 4,
                        },
                        WorkerTotals {
                            busy_ms: 3.0,
                            jobs: 4,
                        },
                    ],
                },
                alloc: PhaseAllocs {
                    lower: AllocDelta {
                        allocs: 11,
                        bytes: 1100,
                        peak_bytes: 512,
                    },
                    synthesis: AllocDelta {
                        allocs: 22,
                        bytes: 2200,
                        peak_bytes: 1024,
                    },
                    splice: AllocDelta {
                        allocs: 3,
                        bytes: 300,
                        peak_bytes: 128,
                    },
                    verify: AllocDelta {
                        allocs: 4,
                        bytes: 400,
                        peak_bytes: 256,
                    },
                },
                cache_shards: vec![
                    ShardStats {
                        entries: 2,
                        evictions: 1,
                        oldest_age_ms: 0.0,
                        last_eviction_age_ms: 0.0,
                    },
                    ShardStats::default(),
                ],
            },
        }
    }

    #[test]
    fn observe_rolls_up_into_render() {
        let m = Metrics::new();
        m.observe(Endpoint::Compile, 200, 0.1, 0.2);
        m.observe(Endpoint::Compile, 200, 1.0, 2.0);
        m.observe(Endpoint::Batch, 400, 10.0, 20.0);
        m.observe(Endpoint::Other, 404, 0.0, 0.1);
        m.reject();
        m.note_slow();
        let text = m.render(&stats(), 3);
        for needle in [
            "trasyn_requests_total{endpoint=\"compile\"} 2",
            "trasyn_requests_total{endpoint=\"batch\"} 1",
            "trasyn_requests_total{endpoint=\"debug\"} 0",
            "trasyn_responses_total{status=\"200\"} 2",
            "trasyn_responses_total{status=\"400\"} 1",
            "trasyn_responses_total{status=\"404\"} 1",
            "trasyn_rejected_total 1",
            "trasyn_slow_requests_total 1",
            "trasyn_request_latency_ms_count 4",
            "trasyn_queue_wait_ms_count 4",
            "trasyn_service_ms_count 4",
            "trasyn_queue_depth 3",
            "trasyn_cache_hits_total 5",
            "trasyn_cache_misses_total 2",
            "trasyn_cache_entries 2",
            "trasyn_synthesis_threads 2",
            "trasyn_verify_ok_total 6",
            "trasyn_verify_fail_total 2",
            "trasyn_lint_error_total 4",
            "trasyn_lint_warning_total 9",
            "trasyn_pass_runs_total{pass=\"fuse\"} 3",
            "trasyn_pass_wall_ms_total{pass=\"fuse\"} 1.25",
            "trasyn_pass_rotations_in_total{pass=\"fuse\"} 12",
            "trasyn_pass_rotations_out_total{pass=\"fuse\"} 7",
            "trasyn_work_total{kind=\"grid_candidates\"} 40",
            "trasyn_work_total{kind=\"cache_probes\"} 7",
            "trasyn_pool_runs_total 2",
            "trasyn_pool_jobs_total 8",
            "trasyn_pool_busy_ms_total 6",
            "trasyn_pool_wall_ms_total 4",
            "trasyn_pool_utilization 0.75",
            "trasyn_pool_workers 2",
            "trasyn_alloc_enabled 1",
            "trasyn_phase_allocs_total{phase=\"synthesis\"} 22",
            "trasyn_phase_alloc_bytes_total{phase=\"lower\"} 1100",
            "trasyn_phase_alloc_peak_bytes{phase=\"verify\"} 256",
            "trasyn_cache_shard_entries{shard=\"0\"} 2",
            "trasyn_cache_shard_entries{shard=\"1\"} 0",
            "trasyn_cache_shard_evictions_total{shard=\"0\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn queue_depth_samples_roll_up() {
        let m = Metrics::new();
        m.sample_queue_depth(3);
        m.sample_queue_depth(5);
        m.sample_queue_depth(1);
        assert_eq!(m.queue_depth_sampled(), (9, 3, 5));
        let text = m.render(&stats(), 0);
        assert!(text.contains("trasyn_queue_depth_sampled_sum 9"), "{text}");
        assert!(
            text.contains("trasyn_queue_depth_samples_total 3"),
            "{text}"
        );
        assert!(text.contains("trasyn_queue_depth_max 5"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let m = Metrics::new();
        m.observe(Endpoint::Compile, 200, 0.0, 0.2); // le 0.25
        m.observe(Endpoint::Compile, 200, 0.0, 0.4); // le 0.5
        m.observe(Endpoint::Compile, 200, 0.0, 99_999.0); // +Inf
        let text = m.render(&stats(), 0);
        assert!(text.contains("trasyn_request_latency_ms_bucket{le=\"0.25\"} 1"));
        assert!(text.contains("trasyn_request_latency_ms_bucket{le=\"0.5\"} 2"));
        assert!(text.contains("trasyn_request_latency_ms_bucket{le=\"10000\"} 2"));
        assert!(text.contains("trasyn_request_latency_ms_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn queue_wait_and_service_split_the_total() {
        let m = Metrics::new();
        m.observe(Endpoint::Compile, 200, 2.0, 4.0);
        let text = m.render(&stats(), 0);
        // The historic family keeps observing the end-to-end total.
        assert!(text.contains("trasyn_request_latency_ms_sum 6"), "{text}");
        assert!(text.contains("trasyn_queue_wait_ms_sum 2"), "{text}");
        assert!(text.contains("trasyn_service_ms_sum 4"), "{text}");
        assert!(text.contains("trasyn_queue_wait_ms_bucket{le=\"2.5\"} 1"));
        assert!(text.contains("trasyn_service_ms_bucket{le=\"2.5\"} 0"));
        assert!(text.contains("trasyn_service_ms_bucket{le=\"5\"} 1"));
    }

    #[test]
    fn unknown_status_goes_to_other() {
        let m = Metrics::new();
        m.observe(Endpoint::Compile, 418, 0.0, 1.0);
        let text = m.render(&stats(), 0);
        assert!(text.contains("trasyn_responses_total{status=\"other\"} 1"));
    }

    #[test]
    fn connection_and_event_core_families_render() {
        let m = Metrics::new();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.keepalive_reuse();
        m.conn_timeout();
        m.event_loop_iter();
        m.event_wakeup();
        assert_eq!(m.conns_open(), 1);
        assert_eq!(m.keepalive_reuse_total(), 1);
        assert_eq!(m.conn_timeouts_total(), 1);
        let text = m.render(&stats(), 0);
        assert!(text.contains("# TYPE trasyn_conns_open gauge"));
        assert!(text.contains("trasyn_conns_open 1"));
        assert!(text.contains("trasyn_keepalive_reuse_total 1"));
        assert!(text.contains("trasyn_conn_timeouts_total 1"));
        assert!(text.contains("trasyn_event_loop_iterations_total 1"));
        assert!(text.contains("trasyn_event_wakeups_total 1"));
        // Appended after every pre-existing family.
        let idx = text.find("trasyn_conns_open").unwrap();
        assert!(idx > text.find("trasyn_cache_shard_evictions_total").unwrap());
    }
}
