//! A stable, serializable snapshot of an [`crate::Engine`]'s counters.
//!
//! [`EngineStats`] is the one shape every surface reports engine state
//! in: the server's `/metrics` endpoint, `trasyn-compile`'s end-of-run
//! summary, and tests all read the same fields, so a counter means the
//! same thing everywhere.

use crate::backend::BackendKind;
use crate::cache::{CacheStats, ShardStats};
use crate::pool::{PoolRunStats, WorkerTotals};
use circuit::pass::PassStats;
use prof::{AllocDelta, WorkKind, WorkSnapshot};
use std::fmt;
use trace::{fmt_f64, json_string};

/// Lifetime totals for one named lowering pass, aggregated across every
/// pipeline run (all items, all requests). The rotation/instruction sums
/// let consumers compute reduction rates without tracking each run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PassTotals {
    /// The pass's stable name (its spec token, e.g. `"fuse"`).
    pub name: String,
    /// How many times the pass ran.
    pub runs: u64,
    /// Total wall-clock milliseconds across all runs.
    pub wall_ms: f64,
    /// Summed instruction counts entering the pass.
    pub instrs_in: u64,
    /// Summed instruction counts leaving the pass.
    pub instrs_out: u64,
    /// Summed nontrivial-rotation counts entering the pass.
    pub rotations_in: u64,
    /// Summed nontrivial-rotation counts leaving the pass.
    pub rotations_out: u64,
}

impl PassTotals {
    /// Starts a zeroed total for `name`.
    pub fn named(name: &str) -> PassTotals {
        PassTotals {
            name: name.to_string(),
            ..PassTotals::default()
        }
    }

    /// Folds one pass run into the totals.
    pub fn absorb(&mut self, s: &PassStats) {
        self.runs += 1;
        self.wall_ms += s.wall_ms;
        self.instrs_in += s.instrs_before as u64;
        self.instrs_out += s.instrs_after as u64;
        self.rotations_in += s.rotations_before as u64;
        self.rotations_out += s.rotations_after as u64;
    }

    /// Folds another total (for the same pass name) into this one — the
    /// single place the field-by-field merge lives, shared by batch
    /// aggregation consumers and the engine's lifetime counters.
    pub fn merge(&mut self, other: &PassTotals) {
        debug_assert_eq!(self.name, other.name, "merging totals of different passes");
        self.runs += other.runs;
        self.wall_ms += other.wall_ms;
        self.instrs_in += other.instrs_in;
        self.instrs_out += other.instrs_out;
        self.rotations_in += other.rotations_in;
        self.rotations_out += other.rotations_out;
    }

    /// Serializes as a JSON object (one stable shape for batch reports
    /// and [`EngineStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": {}, \"runs\": {}, \"wall_ms\": {}, \"instrs_in\": {}, \
             \"instrs_out\": {}, \"rotations_in\": {}, \"rotations_out\": {}}}",
            json_string(&self.name),
            self.runs,
            fmt_f64(self.wall_ms),
            self.instrs_in,
            self.instrs_out,
            self.rotations_in,
            self.rotations_out,
        )
    }
}

/// Aggregates per-run [`PassStats`] into per-pass totals, first-appearance
/// order.
pub fn aggregate_passes<'a>(stats: impl IntoIterator<Item = &'a PassStats>) -> Vec<PassTotals> {
    let mut out: Vec<PassTotals> = Vec::new();
    for s in stats {
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => t.absorb(s),
            None => {
                let mut t = PassTotals::named(s.name);
                t.absorb(s);
                out.push(t);
            }
        }
    }
    out
}

/// Serializes synthesis work counters as a JSON object, one key per
/// [`WorkKind`] in [`WorkKind::ALL`] order (batch reports and
/// [`EngineStats::to_json`]).
pub(crate) fn work_json(work: &WorkSnapshot) -> String {
    let fields: Vec<String> = WorkKind::ALL
        .iter()
        .map(|&k| format!("\"{}\": {}", k.label(), work.get(k)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Lifetime worker-pool utilization, accumulated over every
/// [`crate::pool::WorkerPool::run_profiled`] call the engine made.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolTotals {
    /// Pool runs (one per batch with at least one synthesis job).
    pub runs: u64,
    /// Jobs executed across all runs.
    pub jobs: u64,
    /// Summed wall-clock of the runs.
    pub wall_ms: f64,
    /// Summed busy time across all workers and runs.
    pub busy_ms: f64,
    /// Per-worker lifetime totals, indexed by worker id (`synth-N`).
    /// Grows to the widest run seen.
    pub workers: Vec<WorkerTotals>,
}

impl PoolTotals {
    /// Folds one run's stats into the lifetime totals.
    pub fn absorb(&mut self, run: &PoolRunStats) {
        if run.workers.is_empty() {
            return;
        }
        self.runs += 1;
        self.jobs += run.workers.iter().map(|w| w.jobs).sum::<u64>();
        self.wall_ms += run.wall_ms;
        self.busy_ms += run.busy_ms();
        if self.workers.len() < run.workers.len() {
            self.workers
                .resize(run.workers.len(), WorkerTotals::default());
        }
        for (acc, w) in self.workers.iter_mut().zip(&run.workers) {
            acc.busy_ms += w.busy_ms;
            acc.jobs += w.jobs;
        }
    }

    /// Busy fraction of the pool's lifetime worker-seconds, `[0, 1]`
    /// modulo clock noise (denominator: summed run wall-clock × the
    /// widest worker count seen).
    pub fn utilization(&self) -> f64 {
        let denom = self.wall_ms * self.workers.len() as f64;
        if denom <= 0.0 {
            0.0
        } else {
            self.busy_ms / denom
        }
    }

    /// Serializes as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"busy_ms\": {}, \"jobs\": {}}}",
                    fmt_f64(w.busy_ms),
                    w.jobs
                )
            })
            .collect();
        format!(
            "{{\"runs\": {}, \"jobs\": {}, \"wall_ms\": {}, \"busy_ms\": {}, \
             \"utilization\": {}, \"workers\": [{}]}}",
            self.runs,
            self.jobs,
            fmt_f64(self.wall_ms),
            fmt_f64(self.busy_ms),
            fmt_f64(self.utilization()),
            workers.join(", "),
        )
    }
}

/// Per-phase allocation accounting: one [`AllocDelta`] per traced engine
/// phase, its scopes folded by [`AllocDelta::merge`] (counts sum, the
/// peak is the largest single scope's). All zeros while `prof::alloc`
/// counting is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAllocs {
    /// The lowering-pipeline phase.
    pub lower: AllocDelta,
    /// The pooled synthesis phase (summed over jobs; peak is the
    /// largest single job's).
    pub synthesis: AllocDelta,
    /// The splice phase.
    pub splice: AllocDelta,
    /// The verify phase.
    pub verify: AllocDelta,
}

impl PhaseAllocs {
    /// `(phase, totals)` pairs in serialization order.
    pub fn phases(&self) -> [(&'static str, AllocDelta); 4] {
        [
            ("lower", self.lower),
            ("synthesis", self.synthesis),
            ("splice", self.splice),
            ("verify", self.verify),
        ]
    }

    /// Folds another set of phase totals into this one.
    pub fn merge(&mut self, other: &PhaseAllocs) {
        self.lower.merge(&other.lower);
        self.synthesis.merge(&other.synthesis);
        self.splice.merge(&other.splice);
        self.verify.merge(&other.verify);
    }

    /// Serializes as a JSON object, one key per phase.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .phases()
            .iter()
            .map(|(name, a)| {
                format!(
                    "\"{name}\": {{\"allocs\": {}, \"bytes\": {}, \"peak_bytes\": {}}}",
                    a.allocs, a.bytes, a.peak_bytes
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The profiling block of [`EngineStats`]: work counters, pool
/// utilization, per-phase allocation totals, and per-shard cache
/// telemetry. Groups the observability counters added by the profiling
/// subsystem so the pre-existing fields keep their positions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileStats {
    /// Whether allocation counting is currently enabled
    /// (`prof::alloc`); the alloc totals only grow while it is.
    pub alloc_enabled: bool,
    /// Lifetime synthesis work counters.
    pub work: WorkSnapshot,
    /// Lifetime pool utilization.
    pub pool: PoolTotals,
    /// Lifetime per-phase allocation totals.
    pub alloc: PhaseAllocs,
    /// Per-shard cache occupancy/eviction telemetry, shard-index order.
    pub cache_shards: Vec<ShardStats>,
}

/// Point-in-time engine counters: pool shape, hosted backends, and the
/// shared cache's statistics.
///
/// The [`fmt::Display`] form is a stable single line (machine-grepable,
/// human-readable); [`EngineStats::to_json`] is a stable JSON object.
/// Fields are append-only across versions: existing keys keep their
/// meaning, new counters get new keys.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineStats {
    /// Worker threads in the synthesis pool.
    pub threads: usize,
    /// Backends the engine hosts, in registration order.
    pub backends: Vec<BackendKind>,
    /// Configured cache capacity in entries (0 = unbounded).
    pub cache_capacity: usize,
    /// Shared-cache counters.
    pub cache: CacheStats,
    /// Lifetime lowering-pass totals, sorted by pass name (stable across
    /// request interleavings).
    pub passes: Vec<PassTotals>,
    /// Lifetime passing equivalence certificates (items compiled with
    /// `verify: true` whose output was certified equivalent).
    pub verify_ok: u64,
    /// Lifetime failing equivalence certificates — any nonzero value is a
    /// miscompile alarm.
    pub verify_fail: u64,
    /// Lifetime error-severity lint diagnostics (input/spec errors that
    /// failed a batch, output gate-set errors, and pass-contract
    /// violations — the latter are a miscompile alarm like
    /// [`EngineStats::verify_fail`]).
    pub lint_errors: u64,
    /// Lifetime warning-severity lint diagnostics.
    pub lint_warnings: u64,
    /// The profiling subsystem's counters (work, pool utilization,
    /// per-phase allocations, per-shard cache telemetry).
    pub profile: ProfileStats,
}

impl EngineStats {
    /// Cache hit rate in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }

    /// Serializes as a JSON object (keys are append-only; `"passes"`
    /// joined in the pipeline refactor, `"verify"` in the verification
    /// subsystem, and `"work"`/`"pool"`/`"alloc"`/`"cache_shards"` in
    /// the profiling subsystem):
    ///
    /// ```json
    /// {"threads": 2, "backends": ["gridsynth"], "cache_capacity": 4096,
    ///  "cache": {"hits": 9, "misses": 3, "insertions": 3, "evictions": 0,
    ///            "entries": 3, "hit_rate": 0.75}, "passes": [],
    ///  "verify": {"ok": 0, "fail": 0}, "lint": {"errors": 0, "warnings": 0},
    ///  "work": {"grid_candidates": 0, "norm_equations": 0, "norm_solutions": 0,
    ///           "exact_syntheses": 0, "cache_probes": 0, "sample_draws": 0,
    ///           "closing_scores": 0, "peephole_lookups": 0},
    ///  "pool": {"runs": 0, "jobs": 0, "wall_ms": 0, "busy_ms": 0,
    ///           "utilization": 0, "workers": []},
    ///  "alloc": {"enabled": false, "phases": {"lower": {"allocs": 0, "bytes": 0,
    ///            "peak_bytes": 0}, "synthesis": {}, "splice": {}, "verify": {}}},
    ///  "cache_shards": [{"entries": 0, "evictions": 0, "oldest_age_ms": 0,
    ///                    "last_eviction_age_ms": 0}]}
    /// ```
    pub fn to_json(&self) -> String {
        let backends: Vec<String> = self
            .backends
            .iter()
            .map(|b| json_string(b.label()))
            .collect();
        let passes: Vec<String> = self.passes.iter().map(|p| p.to_json()).collect();
        let shards: Vec<String> = self
            .profile
            .cache_shards
            .iter()
            .map(|s| {
                format!(
                    "{{\"entries\": {}, \"evictions\": {}, \"oldest_age_ms\": {}, \
                     \"last_eviction_age_ms\": {}}}",
                    s.entries,
                    s.evictions,
                    fmt_f64(s.oldest_age_ms),
                    fmt_f64(s.last_eviction_age_ms),
                )
            })
            .collect();
        format!(
            "{{\"threads\": {}, \"backends\": [{}], \"cache_capacity\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \
             \"evictions\": {}, \"entries\": {}, \"hit_rate\": {}}}, \
             \"passes\": [{}], \"verify\": {{\"ok\": {}, \"fail\": {}}}, \
             \"lint\": {{\"errors\": {}, \"warnings\": {}}}, \
             \"work\": {}, \"pool\": {}, \
             \"alloc\": {{\"enabled\": {}, \"phases\": {}}}, \
             \"cache_shards\": [{}]}}",
            self.threads,
            backends.join(", "),
            self.cache_capacity,
            self.cache.hits,
            self.cache.misses,
            self.cache.insertions,
            self.cache.evictions,
            self.cache.entries,
            fmt_f64(self.hit_rate()),
            passes.join(", "),
            self.verify_ok,
            self.verify_fail,
            self.lint_errors,
            self.lint_warnings,
            work_json(&self.profile.work),
            self.profile.pool.to_json(),
            self.profile.alloc_enabled,
            self.profile.alloc.to_json(),
            shards.join(", "),
        )
    }
}

impl fmt::Display for EngineStats {
    /// One stable line (fields are append-only), e.g.
    /// `threads=2 backends=gridsynth cache entries=3/4096 hits=9 misses=3 evictions=0 hit_rate=75.0% verify_ok=0 verify_fail=0 lint_errors=0 lint_warnings=0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let backends: Vec<&str> = self.backends.iter().map(|b| b.label()).collect();
        write!(
            f,
            "threads={} backends={} cache entries={}/{} hits={} misses={} evictions={} hit_rate={:.1}% verify_ok={} verify_fail={} lint_errors={} lint_warnings={}",
            self.threads,
            if backends.is_empty() { "none".to_string() } else { backends.join("+") },
            self.cache.entries,
            if self.cache_capacity == 0 { "unbounded".to_string() } else { self.cache_capacity.to_string() },
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            100.0 * self.hit_rate(),
            self.verify_ok,
            self.verify_fail,
            self.lint_errors,
            self.lint_warnings,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineStats {
        EngineStats {
            threads: 2,
            backends: vec![BackendKind::Gridsynth, BackendKind::Trasyn],
            cache_capacity: 4096,
            cache: CacheStats {
                hits: 9,
                misses: 3,
                insertions: 3,
                evictions: 0,
                entries: 3,
            },
            passes: Vec::new(),
            verify_ok: 4,
            verify_fail: 1,
            lint_errors: 2,
            lint_warnings: 7,
            profile: ProfileStats::default(),
        }
    }

    #[test]
    fn display_shape_is_stable() {
        assert_eq!(
            sample().to_string(),
            "threads=2 backends=gridsynth+trasyn cache entries=3/4096 \
             hits=9 misses=3 evictions=0 hit_rate=75.0% verify_ok=4 verify_fail=1 \
             lint_errors=2 lint_warnings=7"
        );
        let mut unbounded = sample();
        unbounded.cache_capacity = 0;
        assert!(unbounded.to_string().contains("entries=3/unbounded"));
    }

    #[test]
    fn json_shape_is_stable() {
        let j = sample().to_json();
        assert_eq!(
            j,
            "{\"threads\": 2, \"backends\": [\"gridsynth\", \"trasyn\"], \
             \"cache_capacity\": 4096, \"cache\": {\"hits\": 9, \"misses\": 3, \
             \"insertions\": 3, \"evictions\": 0, \"entries\": 3, \"hit_rate\": 0.75}, \
             \"passes\": [], \"verify\": {\"ok\": 4, \"fail\": 1}, \
             \"lint\": {\"errors\": 2, \"warnings\": 7}, \
             \"work\": {\"grid_candidates\": 0, \"norm_equations\": 0, \
             \"norm_solutions\": 0, \"exact_syntheses\": 0, \"cache_probes\": 0, \
             \"sample_draws\": 0, \"closing_scores\": 0, \"peephole_lookups\": 0}, \
             \"pool\": {\"runs\": 0, \"jobs\": 0, \"wall_ms\": 0, \"busy_ms\": 0, \
             \"utilization\": 0, \"workers\": []}, \
             \"alloc\": {\"enabled\": false, \"phases\": {\
             \"lower\": {\"allocs\": 0, \"bytes\": 0, \"peak_bytes\": 0}, \
             \"synthesis\": {\"allocs\": 0, \"bytes\": 0, \"peak_bytes\": 0}, \
             \"splice\": {\"allocs\": 0, \"bytes\": 0, \"peak_bytes\": 0}, \
             \"verify\": {\"allocs\": 0, \"bytes\": 0, \"peak_bytes\": 0}}}, \
             \"cache_shards\": []}"
        );
        let mut with_pass = sample();
        let mut t = PassTotals::named("fuse");
        t.absorb(&PassStats {
            name: "fuse",
            wall_ms: 0.5,
            instrs_before: 10,
            instrs_after: 6,
            rotations_before: 4,
            rotations_after: 2,
        });
        with_pass.passes.push(t);
        assert!(with_pass.to_json().contains(
            "\"passes\": [{\"name\": \"fuse\", \"runs\": 1, \"wall_ms\": 0.5, \
             \"instrs_in\": 10, \"instrs_out\": 6, \"rotations_in\": 4, \"rotations_out\": 2}]"
        ));
    }

    #[test]
    fn pass_aggregation_is_first_appearance_ordered() {
        let runs = [
            PassStats {
                name: "commute",
                wall_ms: 1.0,
                instrs_before: 8,
                instrs_after: 8,
                rotations_before: 3,
                rotations_after: 3,
            },
            PassStats {
                name: "fuse",
                wall_ms: 2.0,
                instrs_before: 8,
                instrs_after: 5,
                rotations_before: 3,
                rotations_after: 1,
            },
            PassStats {
                name: "commute",
                wall_ms: 0.5,
                instrs_before: 5,
                instrs_after: 5,
                rotations_before: 1,
                rotations_after: 1,
            },
        ];
        let totals = aggregate_passes(runs.iter());
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].name, "commute");
        assert_eq!(totals[0].runs, 2);
        assert!((totals[0].wall_ms - 1.5).abs() < 1e-12);
        assert_eq!(totals[1].name, "fuse");
        assert_eq!((totals[1].rotations_in, totals[1].rotations_out), (3, 1));
    }

    #[test]
    fn work_totals_convert_and_merge() {
        // A real delta from this thread's counters, merged into the
        // totals next to the cache probes the engine counts itself,
        // renders one key per kind in `WorkKind::ALL` order.
        let start = prof::work::snapshot();
        prof::work::add(WorkKind::GridCandidates, 2);
        prof::work::add(WorkKind::NormEquations, 3);
        prof::work::add(WorkKind::ExactSyntheses, 1);
        prof::work::add(WorkKind::ClosingScores, 5);
        let delta = prof::work::snapshot().since(&start);
        let mut stats = sample();
        stats.profile.work.merge(&delta);
        stats.profile.work.merge(&delta);
        stats.profile.work.add(WorkKind::CacheProbes, 4);
        let j = stats.to_json();
        let want = "\"work\": {\"grid_candidates\": 4, \"norm_equations\": 6, \
                    \"norm_solutions\": 0, \"exact_syntheses\": 2, \"cache_probes\": 4, \
                    \"sample_draws\": 0, \"closing_scores\": 10, \"peephole_lookups\": 0}";
        assert!(j.contains(want), "{j}");
    }

    #[test]
    fn pool_totals_accumulate_monotonically() {
        let run = PoolRunStats {
            wall_ms: 10.0,
            workers: vec![
                WorkerTotals {
                    busy_ms: 8.0,
                    jobs: 3,
                },
                WorkerTotals {
                    busy_ms: 6.0,
                    jobs: 2,
                },
            ],
        };
        let mut t = PoolTotals::default();
        t.absorb(&run);
        assert_eq!((t.runs, t.jobs), (1, 5));
        assert!((t.busy_ms - 14.0).abs() < 1e-12);
        let u1 = t.utilization();
        assert!((u1 - 14.0 / 20.0).abs() < 1e-12);
        // Absorbing more runs only grows the counters (monotonicity) and
        // widens the per-worker table as needed.
        let wider = PoolRunStats {
            wall_ms: 4.0,
            workers: vec![
                WorkerTotals {
                    busy_ms: 1.0,
                    jobs: 1
                };
                3
            ],
        };
        t.absorb(&wider);
        assert_eq!((t.runs, t.jobs), (2, 8));
        assert_eq!(t.workers.len(), 3);
        assert!((t.workers[0].busy_ms - 9.0).abs() < 1e-12);
        assert_eq!(t.workers[2].jobs, 1);
        // An empty run (no jobs) is not counted as a run.
        t.absorb(&PoolRunStats::default());
        assert_eq!(t.runs, 2);
    }

    #[test]
    fn alloc_totals_sum_counts_and_max_peaks() {
        let mut a = AllocDelta {
            allocs: 3,
            bytes: 300,
            peak_bytes: 200,
        };
        a.merge(&AllocDelta {
            allocs: 1,
            bytes: 100,
            peak_bytes: 50,
        });
        assert_eq!((a.allocs, a.bytes, a.peak_bytes), (4, 400, 200));
        let p = PhaseAllocs {
            lower: a,
            ..PhaseAllocs::default()
        };
        let mut q = PhaseAllocs::default();
        q.lower.merge(&a);
        q.merge(&p);
        assert_eq!(q.lower.allocs, 8);
        assert_eq!(q.lower.peak_bytes, 200);
        assert!(p.to_json().starts_with("{\"lower\": {\"allocs\": 4"));
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let mut s = sample();
        s.cache.hits = 0;
        s.cache.misses = 0;
        assert_eq!(s.hit_rate(), 0.0);
    }
}
