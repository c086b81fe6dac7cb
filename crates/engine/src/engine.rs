//! The [`Engine`] façade: cache + pool + backends behind one `compile`
//! call.
//!
//! # Determinism contract
//!
//! For a fixed request, the compiled circuits and every non-timing report
//! field are identical at **any** thread count and any prior cache state:
//!
//! * every backend is a pure function of `(unitary, epsilon, settings)`
//!   (seeds live in the settings), so a cached entry equals what a fresh
//!   synthesis would produce;
//! * each rotation is keyed once; the worker pool's results are
//!   consumed in job order, and each item is spliced sequentially by
//!   [`circuit::synthesize::splice`], the function the single-threaded
//!   [`circuit::synthesize::synthesize_circuit`] ends in — completion
//!   order is never observable.
//!
//! The parallel output is therefore byte-identical to
//! [`circuit::synthesize::synthesize_circuit`] run with the same
//! synthesizer (verified by this crate's tests).

use crate::backend::{BackendKind, Synthesizer};
use crate::batch::{BatchItem, BatchReport, BatchRequest, ItemReport};
use crate::cache::{CacheKey, CachePolicy, SynthCache};
use crate::phase::Phase;
use crate::pipeline::build_pipeline;
use crate::pool::WorkerPool;
use crate::stats::{
    aggregate_passes, EngineStats, PassTotals, PhaseAllocs, PoolTotals, ProfileStats,
};
use circuit::metrics::{clifford_count, t_count};
use circuit::pass::{PassStats, PipelineSpec};
use circuit::synthesize::{quantize_unitary, splice, CachedSynthesis};
use circuit::Circuit;
use qmath::Mat2;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{Span, SpanHandle};

/// Errors an [`Engine`] call can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The request named a backend the engine was not built with.
    BackendUnavailable(BackendKind),
    /// An item that requested lint ([`BatchItem::lint`]) had
    /// error-severity findings in its input circuit or pipeline spec; the
    /// batch was rejected before any synthesis work. The diagnostics keep
    /// their structured form so API surfaces (the server's 400 bodies,
    /// `trasyn-compile --lint`) can forward them machine-readably.
    Lint {
        /// Name of the offending item.
        item: String,
        /// All findings for that item (errors and any warnings found
        /// alongside them).
        diagnostics: Vec<lint::Diagnostic>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BackendUnavailable(k) => {
                write!(
                    f,
                    "backend '{}' is not configured on this engine",
                    k.label()
                )
            }
            EngineError::Lint { item, diagnostics } => {
                let first = diagnostics
                    .iter()
                    .find(|d| d.severity == lint::Severity::Error)
                    .or_else(|| diagnostics.first());
                match first {
                    Some(d) if diagnostics.len() > 1 => write!(
                        f,
                        "item '{}' failed lint: {} (+{} more)",
                        item,
                        d,
                        diagnostics.len() - 1
                    ),
                    Some(d) => write!(f, "item '{item}' failed lint: {d}"),
                    None => write!(f, "item '{item}' failed lint"),
                }
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Builder for [`Engine`].
pub struct EngineBuilder {
    threads: usize,
    cache_capacity: usize,
    cache: Option<Arc<SynthCache>>,
    backends: Vec<Box<dyn Synthesizer>>,
}

impl EngineBuilder {
    /// Worker threads for the synthesis pool (`0` = one per core).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Total cache capacity in entries (`0` = unbounded). Ignored when
    /// [`EngineBuilder::shared_cache`] is set.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Does nothing: the cache always evicts FIFO. Kept only so the
    /// benchmark package (`benchmark/src/serve.rs`) keeps building
    /// unchanged.
    pub fn cache_policy(self, _policy: CachePolicy) -> Self {
        self
    }

    /// Uses an existing cache (e.g. shared between several engines).
    pub fn shared_cache(mut self, cache: Arc<SynthCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Registers a backend. Registering the same [`BackendKind`] twice
    /// keeps the later registration.
    pub fn backend(mut self, b: impl Synthesizer + 'static) -> Self {
        self.backends.retain(|e| e.kind() != b.kind());
        self.backends.push(Box::new(b));
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> Engine {
        let cache = self
            .cache
            .unwrap_or_else(|| Arc::new(SynthCache::new(self.cache_capacity)));
        Engine {
            cache,
            pool: WorkerPool::new(self.threads),
            backends: self.backends,
            pass_totals: Mutex::new(Vec::new()),
            verify_ok: AtomicU64::new(0),
            verify_fail: AtomicU64::new(0),
            lint_errors: AtomicU64::new(0),
            lint_warnings: AtomicU64::new(0),
            profile: Mutex::new(ProfileTotals::default()),
        }
    }
}

/// Lifetime profiling accumulators behind one lock (touched once per
/// batch, so contention is negligible next to the synthesis work).
#[derive(Default)]
struct ProfileTotals {
    work: prof::WorkSnapshot,
    pool: PoolTotals,
    alloc: PhaseAllocs,
}

/// The concurrent compilation service: a shared [`SynthCache`], a
/// [`WorkerPool`], and a set of [`Synthesizer`] backends.
pub struct Engine {
    cache: Arc<SynthCache>,
    pool: WorkerPool,
    backends: Vec<Box<dyn Synthesizer>>,
    /// Lifetime per-pass lowering totals (first-appearance order inside
    /// the lock; sorted by name in [`Engine::stats`]).
    pass_totals: Mutex<Vec<PassTotals>>,
    /// Lifetime count of passing equivalence certificates.
    verify_ok: AtomicU64,
    /// Lifetime count of failing equivalence certificates.
    verify_fail: AtomicU64,
    /// Lifetime count of error-severity lint diagnostics.
    lint_errors: AtomicU64,
    /// Lifetime count of warning-severity lint diagnostics.
    lint_warnings: AtomicU64,
    /// Lifetime profiling totals: work counters, pool utilization,
    /// per-phase allocation accounting.
    profile: Mutex<ProfileTotals>,
}

/// One distinct rotation awaiting synthesis into its batch slot.
struct Job {
    slot: usize,
    key: CacheKey,
    target: Mat2,
    backend_idx: usize,
    eps: f64,
}

/// What phase 1 leaves for phase 3 about one item.
struct Lowered {
    /// `None` for the `none` pipeline: the item's circuit compiles as-is.
    circuit: Option<Circuit>,
    passes: Vec<PassStats>,
    lower_ms: f64,
    /// Where the item's rotations' slots, in circuit order, lie in the
    /// batch's list of them.
    slots: Range<usize>,
    hits: u64,
    misses: u64,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            threads: 0,
            cache_capacity: 0,
            cache: None,
            backends: Vec::new(),
        }
    }

    /// The shared cache.
    pub fn cache(&self) -> &SynthCache {
        &self.cache
    }

    /// The shared cache, clonable for another engine.
    pub fn cache_arc(&self) -> Arc<SynthCache> {
        Arc::clone(&self.cache)
    }

    /// Worker threads in the synthesis pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Backends this engine hosts.
    pub fn backends(&self) -> Vec<BackendKind> {
        self.backends.iter().map(|b| b.kind()).collect()
    }

    /// Point-in-time snapshot of the engine's counters — the shape shared
    /// by `/metrics`, `trasyn-compile`'s summary, and tests (see
    /// [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let mut passes = self
            .pass_totals
            .lock()
            .expect("pass-totals lock poisoned")
            .clone();
        passes.sort_by(|a, b| a.name.cmp(&b.name));
        let profile = {
            let p = self.profile.lock().expect("profile lock poisoned");
            ProfileStats {
                alloc_enabled: prof::alloc::enabled(),
                work: p.work,
                pool: p.pool.clone(),
                alloc: p.alloc,
                cache_shards: self.cache.shard_stats(),
            }
        };
        EngineStats {
            threads: self.pool.threads(),
            backends: self.backends(),
            cache_capacity: self.cache.capacity(),
            cache: self.cache.stats(),
            passes,
            verify_ok: self.verify_ok.load(Ordering::Relaxed),
            verify_fail: self.verify_fail.load(Ordering::Relaxed),
            lint_errors: self.lint_errors.load(Ordering::Relaxed),
            lint_warnings: self.lint_warnings.load(Ordering::Relaxed),
            profile,
        }
    }

    /// Folds a slice of diagnostics into the lifetime lint counters and
    /// returns whether any of them is error-severity.
    fn record_diagnostics(&self, diags: &[lint::Diagnostic]) -> bool {
        let (errors, warnings) = diags.iter().fold((0u64, 0u64), |(e, w), d| {
            if d.severity == lint::Severity::Error {
                (e + 1, w)
            } else {
                (e, w + 1)
            }
        });
        if errors > 0 {
            self.lint_errors.fetch_add(errors, Ordering::Relaxed);
        }
        if warnings > 0 {
            self.lint_warnings.fetch_add(warnings, Ordering::Relaxed);
        }
        errors > 0
    }

    /// Runs the end-to-end equivalence check for one item: the compiled
    /// circuit against the *requested* circuit, within the item's summed
    /// synthesis error (metric-converted, see [`verify::error_bound`])
    /// plus pipeline float slack.
    ///
    /// Only circuits beyond the oracle's qubit limit yield `None` (a
    /// genuine skip, no counter touched). Every other checker error —
    /// qubit-count mismatch, unsimulable instruction — means the compile
    /// produced something structurally wrong and becomes a *failing*
    /// certificate ([`verify::CheckMethod::Structural`], infinite
    /// distance), so it counts toward `verify_fail` and fails
    /// `trasyn-compile --verify` instead of passing silently.
    fn certify(
        &self,
        input: &Circuit,
        synthesized: &circuit::synthesize::SynthesizedCircuit,
    ) -> Option<verify::Certificate> {
        let bound = verify::error_bound(
            synthesized.total_error,
            input.len() + synthesized.circuit.len(),
        );
        let cert = match verify::verify_circuits(input, &synthesized.circuit, bound) {
            Ok(cert) => cert,
            Err(verify::VerifyError::TooLarge { .. }) => return None,
            Err(_) => verify::Certificate {
                method: verify::CheckMethod::Structural,
                equivalent: false,
                distance: f64::INFINITY,
                bound,
                n_qubits: input.n_qubits(),
            },
        };
        if cert.equivalent {
            self.verify_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.verify_fail.fetch_add(1, Ordering::Relaxed);
        }
        Some(cert)
    }

    /// Folds a batch's per-pass totals into the engine's lifetime
    /// counters.
    fn record_passes(&self, totals: &[PassTotals]) {
        if totals.is_empty() {
            return;
        }
        let mut table = self.pass_totals.lock().expect("pass-totals lock poisoned");
        for t in totals {
            match table.iter_mut().find(|e| e.name == t.name) {
                Some(e) => e.merge(t),
                None => table.push(t.clone()),
            }
        }
    }

    fn backend_index(&self, kind: BackendKind) -> Result<usize, EngineError> {
        self.backends
            .iter()
            .position(|b| b.kind() == kind)
            .ok_or(EngineError::BackendUnavailable(kind))
    }

    /// Compiles one circuit as-is (the `none` pipeline) through `backend`
    /// at threshold `eps`. Equivalent to a single-item
    /// [`Engine::compile_batch`].
    pub fn compile(
        &self,
        c: &Circuit,
        backend: BackendKind,
        eps: f64,
    ) -> Result<ItemReport, EngineError> {
        self.compile_with(c, PipelineSpec::none(), backend, eps)
    }

    /// Compiles one circuit through an explicit lowering pipeline, then
    /// `backend` at threshold `eps`.
    pub fn compile_with(
        &self,
        c: &Circuit,
        pipeline: PipelineSpec,
        backend: BackendKind,
        eps: f64,
    ) -> Result<ItemReport, EngineError> {
        let item = BatchItem::new("circuit", c.clone(), eps, backend).pipeline(pipeline);
        let report = self.compile_batch(&BatchRequest::new().item(item))?;
        Ok(report
            .items
            .into_iter()
            .next()
            .expect("single-item batch yields one report"))
    }

    /// Compiles a whole batch: distinct rotations across **all** items are
    /// deduplicated against the shared cache and synthesized together on
    /// the worker pool, then each item is spliced sequentially.
    ///
    /// Per-item accounting: a *hit* is a distinct rotation already
    /// resolved (shared-cache entry or queued by an earlier item of this
    /// batch); a *miss* is a distinct rotation this item enqueued.
    pub fn compile_batch(&self, req: &BatchRequest) -> Result<BatchReport, EngineError> {
        self.compile_batch_traced(req, None)
    }

    /// [`Engine::compile_batch`] with request-scoped tracing: when
    /// `parent` is given, every phase records child spans under it —
    /// `lint`, per-item `lower` (with `pass:<name>` children carrying the
    /// exact [`PassStats`] numbers) and `cache-lookup`, one `synthesis`
    /// span whose `synthesize` children land on the worker threads that
    /// ran them, then per-item `splice`, `verify`, and `lint-output`.
    ///
    /// Tracing is observation-only: the compiled output is byte-identical
    /// with `parent` absent, present, or sampled out (the differential
    /// fuzzer's server path runs with tracing on and compares against the
    /// untraced paths bit for bit).
    pub fn compile_batch_traced(
        &self,
        req: &BatchRequest,
        parent: Option<&SpanHandle>,
    ) -> Result<BatchReport, EngineError> {
        let t0 = Instant::now();
        // Batch-scoped profiling accumulators, fed by each leaf phase's
        // guard ([`Phase`]); pooled jobs are folded in job order, which
        // keeps the work counters deterministic. Allocation deltas only
        // move while `prof::alloc` counting is enabled, and nothing here
        // feeds back into compilation.
        let mut batch_work = prof::WorkSnapshot::default();
        let mut batch_alloc = PhaseAllocs::default();
        // Resolve backends up front: an unknown backend fails the batch
        // before any synthesis work starts.
        let backend_idx: Vec<usize> = req
            .items
            .iter()
            .map(|it| self.backend_index(it.backend))
            .collect::<Result<_, _>>()?;

        // Phase 0 (static): items that asked for lint get their pipeline
        // spec and input circuit checked before any synthesis work.
        // Error-severity findings reject the whole batch (like an unknown
        // backend); warnings ride along into the item's report.
        let mut item_diags: Vec<Vec<lint::Diagnostic>> = vec![Vec::new(); req.items.len()];
        if req.items.iter().any(|it| it.lint) {
            let _lint_span = parent.map(|p| p.child("lint"));
            for (i, it) in req.items.iter().enumerate() {
                if !it.lint {
                    continue;
                }
                let mut diags = lint::lint_spec(&it.pipeline, it.backend.basis());
                diags.extend(lint::lint_circuit(&it.circuit));
                let has_errors = self.record_diagnostics(&diags);
                if has_errors {
                    return Err(EngineError::Lint {
                        item: it.name.clone(),
                        diagnostics: diags,
                    });
                }
                item_diags[i] = diags;
            }
        }

        // Phase 1 (sequential): run each item's lowering pipeline and key
        // each of its rotations once. Every distinct key of the batch gets
        // one slot, filled here from the shared cache or, on a miss, by
        // the slot's job in phase 2. `None` lowering means the `none`
        // pipeline — the item's circuit is compiled as-is, no copy made.
        // Passes run in place on one clone per item, and pipelines are
        // built once per distinct (spec, basis) so pass scratch buffers
        // are reused across items — instead of the historic
        // clone-per-stage ladder. The pipeline map is deliberately
        // batch-local, not an Engine field: sharing it would put a lock
        // around `Pipeline::run` (passes take `&mut self`) and serialize
        // lowering across concurrent callers, which costs far more than
        // rebuilding a handful of boxed passes per batch.
        let mut pipelines: HashMap<(PipelineSpec, circuit::Basis), lint::CheckedPipeline> =
            HashMap::new();
        let mut lowered: Vec<Lowered> = Vec::with_capacity(req.items.len());
        // Each key's slot, and the last item that counted the key (an item
        // counts it once, at its first appearance there).
        let mut slot_of: HashMap<CacheKey, (usize, usize)> = HashMap::new();
        let mut entries: Vec<Option<CachedSynthesis>> = Vec::new();
        let mut rotation_slots: Vec<usize> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        for (i, (it, &bidx)) in req.items.iter().zip(&backend_idx).enumerate() {
            let t_item = Instant::now();
            let basis = it.backend.basis();
            let (low, passes) = if it.pipeline.is_empty(basis) {
                (None, Vec::new())
            } else {
                let pipe = pipelines
                    .entry((it.pipeline.clone(), basis))
                    .or_insert_with(|| {
                        lint::CheckedPipeline::new(build_pipeline(&it.pipeline, basis))
                    });
                let mut work = it.circuit.clone();
                let phase = Phase::start(parent, "lower", |s| {
                    s.attr("item", it.name.as_str());
                    s.attr("pipeline", it.pipeline.to_string());
                });
                // Pass spans are reconstructed from each pass's own
                // wall-clock measurement (end = observer call time), so
                // the recorded `pass:*` durations equal the PassStats
                // numbers in the report.
                let passes_parent = phase.handle();
                let stats = pipe.run_observed(&mut work, |ps, _| {
                    let Some(h) = &passes_parent else { return };
                    let end = Instant::now();
                    let start = end
                        .checked_sub(Duration::from_secs_f64(ps.wall_ms.max(0.0) / 1e3))
                        .unwrap_or(end);
                    let mut sp = h.child_at(&format!("pass:{}", ps.name), start, end);
                    sp.attr("instrs_before", ps.instrs_before);
                    sp.attr("instrs_after", ps.instrs_after);
                    sp.attr("rotations_before", ps.rotations_before);
                    sp.attr("rotations_after", ps.rotations_after);
                });
                let (work_d, alloc_d) = phase.end();
                batch_work.merge(&work_d);
                batch_alloc.lower.merge(&alloc_d);
                let violations = pipe.take_violations();
                if !violations.is_empty() {
                    // A pass broke its own postcondition: a compiler bug,
                    // not a bad request. Debug/test builds stop the world;
                    // release builds surface it through the item's
                    // diagnostics and the lint_errors counter so the
                    // fuzzer can shrink it.
                    debug_assert!(
                        false,
                        "pipeline '{}' broke its pass contracts: {violations:?}",
                        it.pipeline
                    );
                    self.record_diagnostics(&violations);
                    item_diags[i].extend(violations);
                }
                (Some(work), stats)
            };
            let circuit = low.as_ref().unwrap_or(&it.circuit);
            let settings = self.backends[bidx].settings_key(it.epsilon);
            let mut scan_span = parent.map(|p| {
                let mut s = p.child("cache-lookup");
                s.attr("item", it.name.as_str());
                s
            });
            let first_slot = rotation_slots.len();
            let (mut hits, mut misses) = (0u64, 0u64);
            for instr in circuit.instrs().iter().filter(|ins| ins.op.is_rotation()) {
                let m = instr.op.matrix();
                let key = CacheKey {
                    unitary: quantize_unitary(&m),
                    settings,
                };
                let fresh = entries.len();
                let (slot, counted_by) = slot_of.entry(key).or_insert((fresh, usize::MAX));
                if *counted_by != i {
                    // The key's first appearance in this item.
                    *counted_by = i;
                    if *slot != fresh {
                        hits += 1;
                    } else if let Some(v) = self.cache.get(&key) {
                        hits += 1;
                        entries.push(Some(v));
                    } else {
                        misses += 1;
                        entries.push(None);
                        jobs.push(Job {
                            slot: fresh,
                            key,
                            target: m,
                            backend_idx: bidx,
                            eps: it.epsilon,
                        });
                    }
                }
                rotation_slots.push(*slot);
            }
            // Every deduplicated rotation costs one cache probe (a key an
            // earlier item already resolved counts too: it stands in for
            // the shard lookup that item paid for).
            batch_work.add(prof::WorkKind::CacheProbes, hits + misses);
            if let Some(s) = scan_span.as_mut() {
                s.attr("hits", hits);
                s.attr("misses", misses);
            }
            drop(scan_span);
            lowered.push(Lowered {
                circuit: low,
                passes,
                lower_ms: t_item.elapsed().as_secs_f64() * 1e3,
                slots: first_slot..rotation_slots.len(),
                hits,
                misses,
            });
        }

        // Phase 2 (parallel): synthesize every queued rotation on the
        // pool; each result fills its job's slot, and reinsertion into
        // the shared cache happens in job order, so cache eviction order
        // is reproducible too.
        let t_synth = Instant::now();
        let mut synth_span = parent.map(|p| {
            let mut s = p.child("synthesis");
            s.attr("jobs", jobs.len());
            s
        });
        // SpanHandle is Send + Sync, so per-job child spans can be
        // created directly on the pool's worker threads; each record
        // carries its worker's `synth-N` thread label. Each job's guard
        // measures against its worker thread's counters; results (and so
        // the deltas) come back in job order.
        let synth_handle = synth_span.as_ref().map(Span::handle);
        let (results, pool_stats) = self.pool.run_profiled(&jobs, |job| {
            let backend = &self.backends[job.backend_idx];
            let phase = Phase::start(synth_handle.as_ref(), "synthesize", |s| {
                s.attr("backend", backend.kind().label());
                s.attr("epsilon", job.eps);
            });
            let r = backend.synthesize(&job.target, job.eps);
            (r, phase.end())
        });
        if let Some(s) = synth_span.as_mut() {
            s.attr("busy_ms", pool_stats.busy_ms());
            s.attr("utilization", pool_stats.utilization());
        }
        drop(synth_span);
        let synthesis_ms = t_synth.elapsed().as_secs_f64() * 1e3;
        for (job, (r, (work_d, alloc_d))) in jobs.iter().zip(results) {
            batch_work.merge(&work_d);
            batch_alloc.synthesis.merge(&alloc_d);
            entries[job.slot] = Some(self.cache.insert(job.key, Arc::new(r)));
        }

        // Phase 3 (sequential): splice each item from its slots; the
        // `Arc`s held there are immune to concurrent shared-cache
        // eviction.
        let mut items = Vec::with_capacity(req.items.len());
        for (i, (it, low)) in req.items.iter().zip(lowered).enumerate() {
            let t_item = Instant::now();
            let circuit = low.circuit.as_ref().unwrap_or(&it.circuit);
            let phase = Phase::start(parent, "splice", |s| s.attr("item", it.name.as_str()));
            let synthesized = splice(
                circuit,
                rotation_slots[low.slots].iter().map(|&slot| {
                    entries[slot]
                        .as_ref()
                        .expect("phase 2 fills every queued slot")
                }),
                (low.hits + low.misses) as usize,
            );
            let (work_d, alloc_d) = phase.end();
            batch_work.merge(&work_d);
            batch_alloc.splice.merge(&alloc_d);
            let certificate = if it.verify {
                let mut phase =
                    Phase::start(parent, "verify", |s| s.attr("item", it.name.as_str()));
                let cert = self.certify(&it.circuit, &synthesized);
                if let Some(c) = cert.as_ref() {
                    phase.attr("equivalent", c.equivalent);
                }
                let (work_d, alloc_d) = phase.end();
                batch_work.merge(&work_d);
                batch_alloc.verify.merge(&alloc_d);
                cert
            } else {
                None
            };
            let mut diagnostics = std::mem::take(&mut item_diags[i]);
            if it.lint {
                let _lint_span = parent.map(|p| p.child("lint-output"));
                // Fail open like verify: conformance findings on the
                // *output* are reported and counted, not turned into an
                // error return — the compile already happened.
                let out_diags = lint::lint_output(
                    &synthesized.circuit,
                    lint::Expectation::CliffordT,
                    it.epsilon,
                );
                self.record_diagnostics(&out_diags);
                diagnostics.extend(out_diags);
            }
            items.push(ItemReport {
                name: it.name.clone(),
                backend: it.backend,
                epsilon: it.epsilon,
                n_qubits: synthesized.circuit.n_qubits(),
                pipeline: it.pipeline.to_string(),
                passes: low.passes,
                t_count: t_count(&synthesized.circuit),
                clifford_count: clifford_count(&synthesized.circuit),
                cache_hits: low.hits,
                cache_misses: low.misses,
                wall_ms: low.lower_ms + t_item.elapsed().as_secs_f64() * 1e3,
                certificate,
                diagnostics,
                synthesized,
            });
        }

        let passes = aggregate_passes(items.iter().flat_map(|i| i.passes.iter()));
        self.record_passes(&passes);

        {
            let mut totals = self.profile.lock().expect("profile lock poisoned");
            totals.work.merge(&batch_work);
            totals.pool.absorb(&pool_stats);
            totals.alloc.merge(&batch_alloc);
        }

        Ok(BatchReport {
            threads: self.pool.threads(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            synthesis_ms,
            cache_hits: items.iter().map(|i| i.cache_hits).sum(),
            cache_misses: items.iter().map(|i| i.cache_misses).sum(),
            total_t_count: items.iter().map(|i| i.t_count).sum(),
            total_error: items.iter().map(|i| i.synthesized.total_error).sum(),
            passes,
            cache: self.cache.stats(),
            work: batch_work,
            items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GridsynthBackend;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        for layer in 0..3 {
            c.rz(0, 0.3 + 0.2 * layer as f64);
            c.cx(0, 1);
            c.rz(1, 0.3); // repeated angle: cache fodder
            c.h(0);
        }
        c
    }

    fn engine(threads: usize) -> Engine {
        Engine::builder()
            .threads(threads)
            .cache_capacity(1024)
            .backend(GridsynthBackend::default())
            .build()
    }

    #[test]
    fn matches_sequential_synthesize_circuit() {
        let c = sample_circuit();
        let e = engine(4);
        let report = e.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
        let b = GridsynthBackend::default();
        let seq = circuit::synthesize::synthesize_circuit(&c, |m| b.synthesize(m, 1e-2));
        assert_eq!(
            report.synthesized.circuit, seq.circuit,
            "byte-identical splice"
        );
        assert_eq!(report.synthesized.rotations, seq.rotations);
        assert_eq!(
            report.synthesized.distinct_rotations,
            seq.distinct_rotations
        );
        assert!((report.synthesized.total_error - seq.total_error).abs() < 1e-15);
    }

    #[test]
    fn second_compile_is_all_hits() {
        let c = sample_circuit();
        let e = engine(2);
        let first = e.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
        assert_eq!(first.cache_hits, 0);
        assert!(first.cache_misses > 0);
        let second = e.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
        assert_eq!(second.cache_misses, 0, "warm cache serves everything");
        assert_eq!(second.cache_hits, first.cache_misses);
        assert_eq!(second.synthesized.circuit, first.synthesized.circuit);
    }

    #[test]
    fn epsilon_partitions_the_cache() {
        let c = sample_circuit();
        let e = engine(2);
        let a = e.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
        let b = e.compile(&c, BackendKind::Gridsynth, 1e-3).unwrap();
        assert_eq!(b.cache_hits, 0, "different eps must not share entries");
        assert!(b.synthesized.total_error <= a.synthesized.total_error);
    }

    #[test]
    fn unknown_backend_errors() {
        let e = engine(1);
        let err = e.compile(&sample_circuit(), BackendKind::Trasyn, 1e-2);
        assert_eq!(
            err.unwrap_err(),
            EngineError::BackendUnavailable(BackendKind::Trasyn)
        );
    }

    #[test]
    fn batch_shares_work_across_items() {
        let e = engine(2);
        let req = BatchRequest::new()
            .item(BatchItem::new(
                "a",
                sample_circuit(),
                1e-2,
                BackendKind::Gridsynth,
            ))
            .item(BatchItem::new(
                "b",
                sample_circuit(),
                1e-2,
                BackendKind::Gridsynth,
            ));
        let report = e.compile_batch(&req).unwrap();
        assert_eq!(report.items.len(), 2);
        assert!(report.items[0].cache_misses > 0);
        assert_eq!(
            report.items[1].cache_misses, 0,
            "identical second item rides on the first item's queue"
        );
        assert_eq!(report.items[0].synthesized.circuit.n_qubits(), 2);
        let json = report.to_json();
        assert!(json.contains("\"cache_hits\""));
        assert!(json.contains("\"items\""));
    }

    #[test]
    fn verify_attaches_passing_certificates_and_counts_them() {
        let c = sample_circuit();
        let e = engine(2);
        let req = BatchRequest::new()
            .item(BatchItem::new("a", c, 1e-2, BackendKind::Gridsynth).verify(true));
        let report = e.compile_batch(&req).unwrap();
        let cert = report.items[0]
            .certificate
            .as_ref()
            .expect("2-qubit circuit fits the oracle");
        assert!(cert.equivalent, "{cert}");
        assert!(cert.distance <= cert.bound);
        assert_eq!(cert.n_qubits, 2);
        let stats = e.stats();
        assert_eq!((stats.verify_ok, stats.verify_fail), (1, 0));
        // The certificate reaches the JSON report.
        let json = report.items[0].to_json(false);
        assert!(json.contains("\"certificate\": {\"method\""), "{json}");

        // Unverified items carry no certificate and touch no counter.
        let plain = e
            .compile(&sample_circuit(), BackendKind::Gridsynth, 1e-2)
            .unwrap();
        assert!(plain.certificate.is_none());
        assert!(!plain.to_json(false).contains("certificate"));
        assert_eq!(e.stats().verify_ok, 1);
    }

    #[test]
    fn structural_mismatch_is_a_failing_certificate_not_a_skip() {
        // certify() must fail closed: a compile that changed the qubit
        // count (a hypothetical splice/pipeline bug) is the worst
        // miscompile class and may never be reported as "skipped".
        let e = engine(1);
        let input = Circuit::new(2);
        let synthesized = circuit::synthesize::SynthesizedCircuit {
            circuit: Circuit::new(3),
            total_error: 0.0,
            rotations: 0,
            distinct_rotations: 0,
        };
        let cert = e
            .certify(&input, &synthesized)
            .expect("failing, not skipped");
        assert!(!cert.equivalent, "{cert}");
        assert_eq!(cert.method, verify::CheckMethod::Structural);
        assert!(cert.distance.is_infinite());
        assert!(
            cert.to_json().contains("\"distance\": null"),
            "{}",
            cert.to_json()
        );
        assert_eq!(e.stats().verify_fail, 1);
        assert_eq!(e.stats().verify_ok, 0);
    }

    #[test]
    fn verify_skips_oracle_oversized_circuits_without_failing() {
        let mut big = Circuit::new(verify::MAX_ORACLE_QUBITS + 1);
        for q in 0..big.n_qubits() {
            big.rz(q, 0.1 + q as f64 * 0.05);
        }
        let e = engine(1);
        let req = BatchRequest::new()
            .item(BatchItem::new("big", big, 1e-2, BackendKind::Gridsynth).verify(true));
        let report = e.compile_batch(&req).unwrap();
        assert!(
            report.items[0].certificate.is_none(),
            "unverifiable, not failed"
        );
        let stats = e.stats();
        assert_eq!((stats.verify_ok, stats.verify_fail), (0, 0));
    }

    #[test]
    fn lint_rejects_bad_input_before_synthesis() {
        let e = engine(1);
        let mut c = Circuit::new(1);
        c.rz(0, f64::NAN);
        let req = BatchRequest::new()
            .item(BatchItem::new("bad", c, 1e-2, BackendKind::Gridsynth).lint(true));
        let err = e.compile_batch(&req).unwrap_err();
        match &err {
            EngineError::Lint { item, diagnostics } => {
                assert_eq!(item, "bad");
                assert!(
                    diagnostics.iter().any(|d| d.code == "L0103"),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected lint error, got {other:?}"),
        }
        assert!(err.to_string().contains("L0103"), "{err}");
        assert!(e.stats().lint_errors >= 1);
    }

    #[test]
    fn lint_warnings_ride_into_the_report() {
        let e = engine(1);
        let mut c = Circuit::new(3); // qubit 2 never used -> L0105 warning
        c.rz(0, 0.4);
        c.cx(0, 1);
        let req = BatchRequest::new()
            .item(BatchItem::new("warned", c, 1e-2, BackendKind::Gridsynth).lint(true));
        let report = e.compile_batch(&req).unwrap();
        let diags = &report.items[0].diagnostics;
        assert!(diags.iter().any(|d| d.code == "L0105"), "{diags:?}");
        assert!(report.items[0]
            .to_json(false)
            .contains("\"diagnostics\": [{\"code\": \"L0105\""));
        let stats = e.stats();
        assert_eq!(stats.lint_errors, 0);
        assert!(stats.lint_warnings >= 1);

        // A clean un-linted compile carries no diagnostics key at all.
        let plain = e
            .compile(&sample_circuit(), BackendKind::Gridsynth, 1e-2)
            .unwrap();
        assert!(plain.diagnostics.is_empty());
        assert!(!plain.to_json(false).contains("diagnostics"));
    }

    #[test]
    fn lint_passes_clean_compiles_with_conformant_output() {
        // Clean input + synthesis: the Clifford+T output conformance
        // check must stay silent (synthesis replaces every rotation).
        let e = engine(2);
        let req = BatchRequest::new().item(
            BatchItem::new("clean", sample_circuit(), 1e-2, BackendKind::Gridsynth).lint(true),
        );
        let report = e.compile_batch(&req).unwrap();
        assert_eq!(report.items[0].diagnostics, Vec::new());
        assert_eq!(e.stats().lint_errors, 0);
    }

    #[test]
    fn tiny_cache_still_correct() {
        // Capacity far below the distinct-rotation count (one entry, so
        // one shard): evictions are exercised and the result must still
        // match the sequential path.
        let c = sample_circuit();
        let e = Engine::builder()
            .threads(2)
            .cache_capacity(1)
            .backend(GridsynthBackend::default())
            .build();
        let report = e.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
        let b = GridsynthBackend::default();
        let seq = circuit::synthesize::synthesize_circuit(&c, |m| b.synthesize(m, 1e-2));
        assert_eq!(report.synthesized.circuit, seq.circuit);
        assert!(e.cache().stats().evictions > 0);
        // And again warm, after churn: eviction may change *when* work
        // is redone, never what is produced.
        let warm = e.compile(&c, BackendKind::Gridsynth, 1e-2).unwrap();
        assert_eq!(warm.synthesized.circuit, seq.circuit);
    }
}
