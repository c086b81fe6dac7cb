//! Golden test pinning the exact `/metrics` render shape.
//!
//! Metric names are append-only contract: dashboards and scrapers key on
//! the family names, label sets, and bucket bounds below. Any rename,
//! removal, or bucket change shows up here as a full-text diff and must
//! be treated as a breaking change (add a new family instead). Adding
//! new families *after* existing ones is the supported evolution and
//! only requires extending the golden text.

use engine::{
    BackendKind, CacheStats, EngineStats, PassTotals, PhaseAllocs, PoolTotals, ProfileStats,
    ShardStats, WorkerTotals,
};
use prof::{AllocDelta, WorkKind, WorkSnapshot};
use server::{Endpoint, Metrics};

/// Deterministic engine-side snapshot: two passes (to pin the sorted,
/// stable pass ordering) and non-zero counters everywhere so a dropped
/// field can't hide behind a default zero.
fn stats() -> EngineStats {
    let mut work = WorkSnapshot::default();
    for (kind, n) in WorkKind::ALL.into_iter().zip([40, 30, 20, 10, 7]) {
        work.add(kind, n);
    }
    let mut fuse = PassTotals::named("fuse");
    fuse.runs = 3;
    fuse.wall_ms = 1.25;
    fuse.rotations_in = 12;
    fuse.rotations_out = 7;
    let mut zx = PassTotals::named("zx-fold");
    zx.runs = 1;
    zx.wall_ms = 0.5;
    zx.rotations_in = 4;
    zx.rotations_out = 2;
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
        passes: vec![fuse, zx],
        verify_ok: 6,
        verify_fail: 2,
        lint_errors: 4,
        lint_warnings: 9,
        profile: ProfileStats {
            alloc_enabled: true,
            work,
            pool: PoolTotals {
                runs: 2,
                jobs: 8,
                wall_ms: 4.0,
                busy_ms: 6.0,
                workers: vec![
                    WorkerTotals {
                        busy_ms: 3.5,
                        jobs: 5,
                    },
                    WorkerTotals {
                        busy_ms: 2.5,
                        jobs: 3,
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

const EXPECTED: &str = include_str!("golden/metrics.txt");

#[test]
fn metrics_render_matches_golden() {
    let m = Metrics::new();
    // One request with a 1 ms queue wait and a 2 ms service time: lands
    // in the le="1", le="2.5", and (total) le="5" buckets respectively.
    m.observe(Endpoint::Compile, 200, 1.0, 2.0);
    m.reject();
    m.note_slow();
    // Two queue-depth samples: sum 6, count 2, max 4.
    m.sample_queue_depth(2);
    m.sample_queue_depth(4);
    // Connection lifecycle: two opened, one closed (gauge 1), one
    // keep-alive reuse, one reaped idle connection, and event-core loop
    // activity — the event-core family block at the end of the render.
    m.conn_opened();
    m.conn_opened();
    m.conn_closed();
    m.keepalive_reuse();
    m.conn_timeout();
    m.event_loop_iter();
    m.event_loop_iter();
    m.event_wakeup();
    let actual = m.render(&stats(), 3);
    assert_eq!(
        actual, EXPECTED,
        "\n/metrics render changed. Metric names and bucket bounds are \
         append-only; if this change is intentional *and* additive, update \
         crates/server/tests/golden/metrics.txt.\n\n--- actual ---\n{actual}"
    );
}
