//! **engine** — the concurrent compilation service.
//!
//! Every front-end in this workspace (the repro driver, the
//! `trasyn-compile` CLI, benches, library users) compiles circuits
//! through one [`Engine`]: a process-wide synthesis cache, a worker pool,
//! and pluggable synthesizer backends. Like a JIT runtime, the service
//! wins by *reusing compiled fragments*: a rotation synthesized once —
//! for any circuit, on any thread — is spliced from the cache everywhere
//! it reappears.
//!
//! # Architecture
//!
//! * [`cache::SynthCache`] — a sharded, thread-safe, capacity-bounded
//!   map from `(quantized unitary, synthesizer settings)` to the
//!   synthesized Clifford+T sequence, with FIFO eviction and
//!   hit/miss/eviction statistics. The unitary half of the key comes
//!   from [`circuit::synthesize::quantize_unitary`] — the same
//!   quantization the sequential path uses, so both tiers mean the same
//!   thing by a key. A stable digest of the key chooses its shard, and
//!   so fixes the entry order of a snapshot.
//! * [`pool::WorkerPool`] — a `std::thread` + channel pool that
//!   synthesizes the *distinct* rotations of a circuit (or a whole batch)
//!   in parallel and hands results back in job order.
//! * [`backend`] — the [`backend::Synthesizer`] trait plus trasyn,
//!   gridsynth, and annealing implementations.
//! * [`pipeline`] — resolves a [`circuit::pass::PipelineSpec`] (preset or
//!   spec string) into a runnable lowering pipeline, injecting the
//!   `zx-fold` adapter from `zxopt`; the single builder the CLI, server,
//!   and repro driver all share.
//! * [`batch`] — [`batch::BatchRequest`] / [`batch::BatchReport`]: per-item
//!   epsilon, backend, and lowering-pipeline choice, aggregate
//!   error/T-count/timing/cache/per-pass stats, JSON serialization.
//! * [`snapshot`] — versioned, checksummed binary snapshots of the cache
//!   for warm starts (`--cache-file` in the CLI, the server's persistent
//!   cache); corrupt or mismatched files degrade to a cold cache, never a
//!   panic or a wrong entry.
//! * [`stats::EngineStats`] — one stable counters shape (Display + JSON)
//!   shared by the server's `/metrics`, `trasyn-compile`'s summary, and
//!   tests.
//! * verification — items with [`batch::BatchItem::verify`] set get an
//!   end-to-end equivalence [`verify::Certificate`] (compiled circuit vs
//!   requested circuit, checked by the `verify` crate's exact-ring /
//!   operator-norm / statevector oracle), attached to the
//!   [`batch::ItemReport`] and counted in [`stats::EngineStats`]
//!   (`verify_ok` / `verify_fail`).
//! * [`engine::Engine`] — the façade tying the above together, plus the
//!   `trasyn-compile` binary (`src/bin/trasyn_compile.rs`) that feeds it
//!   OpenQASM.
//! * tracing — [`engine::Engine::compile_batch_traced`] accepts a parent
//!   [`SpanHandle`] (from the `trace` crate) and records child spans for
//!   every phase: `lint`, per-item `lower` (with `pass:<name>` children),
//!   `cache-lookup`, `synthesis` (with per-job `synthesize` children on
//!   the worker threads), `splice`, `verify`, and `lint-output`. The
//!   leaf phases' work and allocation deltas are measured once, for
//!   their spans and [`stats::EngineStats`] alike.
//!   Observation-only: traced and untraced outputs are byte-identical.
//!
//! # Cache-key contract
//!
//! An entry is shared between two requests iff their rotation unitaries
//! quantize identically (entrywise 1e-12 grid, up to global phase — see
//! [`circuit::synthesize::quantize_unitary`]) **and** their synthesis
//! settings match exactly (backend, epsilon bit pattern, budgets,
//! samples, seeds). Settings that could change the synthesized sequence
//! are always part of the key, so a hit never changes a result.
//!
//! # Determinism contract
//!
//! Compilation output is byte-identical across thread counts and cache
//! states (see [`engine`] module docs): backends are pure functions of
//! `(unitary, epsilon, settings)`, each rotation is keyed once, pooled
//! results are consumed in job order, and every item is spliced
//! sequentially by [`circuit::synthesize::splice`], the function
//! [`circuit::synthesize::synthesize_circuit`] ends in. `--threads`
//! trades time, never output.
//!
//! ```
//! use engine::{BackendKind, Engine, GridsynthBackend};
//!
//! let eng = Engine::builder()
//!     .threads(2)
//!     .cache_capacity(1024)
//!     .backend(GridsynthBackend::default())
//!     .build();
//! let mut c = circuit::Circuit::new(1);
//! c.rz(0, 0.37);
//! c.rz(0, 0.37); // synthesized once, spliced twice
//! let report = eng.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
//! assert_eq!(report.synthesized.rotations, 2);
//! assert_eq!(report.synthesized.distinct_rotations, 1);
//! assert_eq!(report.cache_misses, 1);
//! ```

pub mod backend;
pub mod batch;
pub mod cache;
pub mod engine;
mod fnv;
mod phase;
pub mod pipeline;
pub mod pool;
pub mod snapshot;
pub mod stats;

pub use backend::{
    rz_angle_of, AnnealingBackend, BackendKind, GridsynthBackend, SettingsKey, Synthesizer,
    TrasynBackend, MAX_EPSILON, MIN_EPSILON,
};
pub use batch::{BatchItem, BatchReport, BatchRequest, ItemReport};
pub use cache::{CacheKey, CachePolicy, CacheStats, ShardStats, SynthCache};
pub use circuit::pass::{PassSpec, PassStats, PipelineSpec, PipelineSpecError, Preset};
pub use engine::{Engine, EngineBuilder, EngineError};
pub use lint::{
    diagnostics_json, CheckedPipeline, Diagnostic as LintDiagnostic, Severity as LintSeverity,
};
pub use pipeline::build_pipeline;
pub use pool::{PoolRunStats, WorkerPool, WorkerTotals};
pub use snapshot::{SnapshotError, WarmStart};
pub use stats::{EngineStats, PassTotals, PhaseAllocs, PoolTotals, ProfileStats};
pub use trace::SpanHandle;
pub use verify::{Certificate, CheckMethod};
