//! `trasyn-compile` — compile OpenQASM circuits to Clifford+T through the
//! [`engine`] compilation service.
//!
//! ```text
//! trasyn-compile [OPTIONS] <FILE.qasm>...
//!
//! options:
//!   --backend trasyn|gridsynth|annealing   synthesizer (default trasyn)
//!   --epsilon EPS          per-rotation error threshold (default 1e-2)
//!   --threads N            synthesis worker threads, 0 = all cores (default 0)
//!   --cache-capacity N     shared-cache entries, 0 = unbounded (default 4096)
//!   --cache-policy P       cache eviction policy: fifo|lru|2q|freq
//!                          (default fifo — the historic behavior)
//!   --cache-trace FILE     record every cache access (hit/miss/insert/
//!                          warm-start load) and save the TRC1 binary
//!                          trace to FILE on exit, for `trasyn-cachesim`
//!   --samples N            trasyn samples per pass (default 1024)
//!   --max-t N              trasyn per-tensor T budget (default 6)
//!   --pipeline SPEC        lowering pipeline: a preset (none|fast|default|
//!                          aggressive|zx) or a comma-separated pass list
//!                          (commute, fuse, cx-cancel, zx-fold, basis=u3,
//!                          basis=rz); default `default`. Prints a per-pass
//!                          table (time, instructions, rotations) to stderr.
//!   --verify               attach an equivalence certificate to every item
//!                          (compiled vs requested circuit, exact-ring /
//!                          operator-norm / statevector oracle) and exit 1
//!                          if any certificate fails
//!   --profile              enable allocation accounting and print a
//!                          profile summary (work counters, per-phase
//!                          allocations, pool utilization) to stderr
//!   --lint                 statically lint every item (input circuit,
//!                          pipeline spec, compiled output gate-set);
//!                          error-severity findings reject the batch and
//!                          exit 1, warnings are printed to stderr and
//!                          attached to the report as "diagnostics"
//!   --deny-warnings        with --lint: exit 1 on warnings too
//!   --emit-qasm DIR        write each compiled circuit as DIR/<name>.qasm
//!   --trace FILE           trace the whole compile and write it as a
//!                          chrome://tracing / Perfetto `trace_event` JSON
//!                          file (per-pass, cache-lookup, per-rotation
//!                          synthesis, splice, and verify spans)
//!   --trace-tree FILE      write the same trace as a self-describing JSON
//!                          span tree (wall/own time per span)
//!   --out FILE             write the JSON report to FILE (default stdout)
//!   --cache-file FILE      warm-start the cache from FILE if present and
//!                          save the (possibly grown) cache back on exit;
//!                          a corrupt or version-mismatched file is
//!                          reported and ignored (cold start)
//! ```
//!
//! Exit codes: 0 success (including `--help`), 1 input/compile failure,
//! 2 usage error.

use engine::{
    AnnealingBackend, BackendKind, BatchItem, BatchRequest, CachePolicy, Engine,
    GridsynthBackend, PipelineSpec, TrasynBackend,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    files: Vec<PathBuf>,
    backend: BackendKind,
    epsilon: f64,
    threads: usize,
    cache_capacity: usize,
    cache_policy: CachePolicy,
    cache_trace: Option<PathBuf>,
    samples: usize,
    max_t: usize,
    pipeline: PipelineSpec,
    verify: bool,
    profile: bool,
    lint: bool,
    deny_warnings: bool,
    emit_qasm: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_tree_out: Option<PathBuf>,
    out: Option<PathBuf>,
    cache_file: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: trasyn-compile [--backend trasyn|gridsynth|annealing] [--epsilon EPS] \
     [--threads N] [--cache-capacity N] [--cache-policy fifo|lru|2q|freq] \
     [--cache-trace FILE] [--samples N] [--max-t N] \
     [--pipeline none|fast|default|aggressive|zx|PASS,PASS,...] \
     [--verify] [--profile] [--lint] [--deny-warnings] [--emit-qasm DIR] [--trace FILE] \
     [--trace-tree FILE] [--out FILE] [--cache-file FILE] <FILE.qasm>..."
}

/// `Ok(None)` means `--help` was requested: print usage, exit 0.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        files: Vec::new(),
        backend: BackendKind::Trasyn,
        epsilon: 1e-2,
        threads: 0,
        cache_capacity: 4096,
        cache_policy: CachePolicy::Fifo,
        cache_trace: None,
        samples: 1024,
        max_t: 6,
        pipeline: PipelineSpec::default(),
        verify: false,
        profile: false,
        lint: false,
        deny_warnings: false,
        emit_qasm: None,
        trace_out: None,
        trace_tree_out: None,
        out: None,
        cache_file: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--backend" => {
                let v = value("--backend")?;
                opts.backend = BackendKind::parse(&v)
                    .ok_or_else(|| format!("unknown backend '{v}'"))?;
            }
            "--epsilon" => {
                opts.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|_| "--epsilon needs a number".to_string())?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            "--cache-capacity" => {
                opts.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs an integer".to_string())?;
            }
            "--cache-policy" => {
                let v = value("--cache-policy")?;
                opts.cache_policy = CachePolicy::parse(&v)
                    .ok_or_else(|| format!("unknown cache policy '{v}' (fifo|lru|2q|freq)"))?;
            }
            "--cache-trace" => {
                opts.cache_trace = Some(PathBuf::from(value("--cache-trace")?));
            }
            "--samples" => {
                opts.samples = value("--samples")?
                    .parse()
                    .map_err(|_| "--samples needs an integer".to_string())?;
            }
            "--max-t" => {
                opts.max_t = value("--max-t")?
                    .parse()
                    .map_err(|_| "--max-t needs an integer".to_string())?;
            }
            "--pipeline" => {
                let v = value("--pipeline")?;
                opts.pipeline = PipelineSpec::parse(&v).map_err(|e| e.to_string())?;
            }
            "--verify" => opts.verify = true,
            "--profile" => opts.profile = true,
            "--lint" => opts.lint = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--emit-qasm" => opts.emit_qasm = Some(PathBuf::from(value("--emit-qasm")?)),
            "--trace" => opts.trace_out = Some(PathBuf::from(value("--trace")?)),
            "--trace-tree" => {
                opts.trace_tree_out = Some(PathBuf::from(value("--trace-tree")?));
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--cache-file" => opts.cache_file = Some(PathBuf::from(value("--cache-file")?)),
            "--help" | "-h" => return Ok(None),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files".to_string());
    }
    if !(engine::MIN_EPSILON..=engine::MAX_EPSILON).contains(&opts.epsilon) {
        return Err(format!(
            "--epsilon must be in [{}, {}]",
            engine::MIN_EPSILON,
            engine::MAX_EPSILON
        ));
    }
    Ok(Some(opts))
}

/// Item name from a file stem, deduplicated so that inputs from
/// different directories sharing a stem (`a/bell.qasm`, `b/bell.qasm`)
/// keep distinct report names and `--emit-qasm` output paths.
fn unique_stem(p: &Path, used: &mut std::collections::HashSet<String>) -> String {
    let base = p
        .file_stem().map_or_else(|| "circuit".to_string(), |s| s.to_string_lossy().into_owned());
    let mut name = base.clone();
    let mut n = 2usize;
    while !used.insert(name.clone()) {
        name = format!("{base}-{n}");
        n += 1;
    }
    name
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
    }

    // Only build what the request needs: the trasyn table is a real
    // startup cost, the other backends are free.
    let mut builder = Engine::builder()
        .threads(opts.threads)
        .cache_capacity(opts.cache_capacity)
        .cache_policy(opts.cache_policy)
        .backend(GridsynthBackend::default())
        .backend(AnnealingBackend::default());
    if opts.backend == BackendKind::Trasyn {
        eprintln!(
            "[trasyn-compile] building trasyn table (max_t = {}) ...",
            opts.max_t
        );
        builder = builder.backend(TrasynBackend::with_table(opts.max_t, opts.samples));
    }
    let eng = builder.build();

    // Attach the trace recorder before the warm start so the replay sees
    // the same initial residency the live cache had.
    let recorder = opts.cache_trace.as_ref().map(|_| eng.cache().start_recording());

    if let Some(path) = &opts.cache_file {
        match engine::snapshot::warm_from_file(eng.cache(), path) {
            engine::WarmStart::Loaded(n) => {
                eprintln!("[trasyn-compile] warm start: {n} cache entries from {}", path.display());
            }
            engine::WarmStart::Absent => {}
            engine::WarmStart::Rejected(e) => {
                eprintln!(
                    "[trasyn-compile] warning: ignoring cache file {}: {e} (cold start)",
                    path.display()
                );
            }
        }
    }

    let mut req = BatchRequest::new();
    let mut used_names = std::collections::HashSet::new();
    for f in &opts.files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", f.display());
                return ExitCode::from(1);
            }
        };
        let c = match circuit::qasm::parse_qasm(&src) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "error: {} is not in the supported OpenQASM subset ({e})",
                    f.display()
                );
                return ExitCode::from(1);
            }
        };
        let item = BatchItem::new(unique_stem(f, &mut used_names), c, opts.epsilon, opts.backend)
            .pipeline(opts.pipeline.clone())
            .verify(opts.verify)
            .lint(opts.lint);
        req.items.push(item);
    }

    // Trace the whole batch when asked: sample-all, ring of one, no slow
    // threshold — this CLI run *is* the one trace of interest.
    let want_trace = opts.trace_out.is_some() || opts.trace_tree_out.is_some();
    let tracer = trace::Tracer::new(trace::TraceConfig {
        enabled: want_trace,
        sample_every: 1,
        ring: 1,
        slow_ms: 0.0,
        ..trace::TraceConfig::default()
    });
    let ctx = tracer.begin("trasyn-compile");
    let root = ctx.as_ref().map(trace::TraceCtx::root);

    let report = match eng.compile_batch_traced(&req, root.as_ref()) {
        Ok(r) => r,
        Err(engine::EngineError::Lint { item, diagnostics }) => {
            eprintln!("error: item '{item}' failed lint:");
            for d in &diagnostics {
                eprintln!("  {d}");
            }
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    if let Some(ctx) = ctx {
        ctx.attr("items", report.items.len());
        ctx.attr("backend", opts.backend.label());
        let summary = tracer.finish(ctx);
        let finished = tracer.recent();
        if let Some(t) = finished.first() {
            if let Some(path) = &opts.trace_out {
                let json = trace::chrome_trace_json(&finished);
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("error: cannot write trace file {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            }
            if let Some(path) = &opts.trace_tree_out {
                if let Err(e) = std::fs::write(path, t.to_json()) {
                    eprintln!("error: cannot write trace file {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            }
            eprintln!(
                "[trasyn-compile] trace: {} spans over {:.3} ms",
                t.tree().span_count(),
                summary.duration_ms,
            );
        }
    }

    if let Some(dir) = &opts.emit_qasm {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        for item in &report.items {
            let path = dir.join(format!("{}.qasm", item.name));
            let qasm = circuit::qasm::to_qasm(&item.synthesized.circuit);
            if let Err(e) = std::fs::write(&path, qasm) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    let json = report.to_json();
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        None => print!("{json}"),
    }

    if let Some(path) = &opts.cache_file {
        match engine::snapshot::save_to_file(eng.cache(), path) {
            Ok(n) => eprintln!(
                "[trasyn-compile] saved {n} cache entries to {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write cache file {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    if let (Some(path), Some(rec)) = (&opts.cache_trace, &recorder) {
        match rec.save_to_file(path) {
            Ok(n) => eprintln!(
                "[trasyn-compile] saved cache trace: {n} event(s) to {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write cache trace {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    print_pass_table(&opts.pipeline, &report);
    eprintln!(
        "[trasyn-compile] {} circuit(s): {} batch hits, {} misses, total T count {} | {}",
        report.items.len(),
        report.cache_hits,
        report.cache_misses,
        report.total_t_count,
        eng.stats(),
    );

    if opts.profile {
        print_profile_summary(&eng.stats());
    }

    if opts.verify && !print_verify_summary(&report) {
        return ExitCode::from(1);
    }
    if opts.lint && !print_lint_summary(&report, opts.deny_warnings) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Prints per-item lint diagnostics and the summary to stderr; returns
/// `false` when the run should fail (error-severity findings survived
/// to the report — e.g. pass-contract or output gate-set violations — or
/// any finding at all under `--deny-warnings`).
fn print_lint_summary(report: &engine::BatchReport, deny_warnings: bool) -> bool {
    let (mut errors, mut warnings) = (0usize, 0usize);
    for item in &report.items {
        for d in &item.diagnostics {
            if d.severity == engine::LintSeverity::Error {
                errors += 1;
            } else {
                warnings += 1;
            }
            eprintln!("[trasyn-compile] lint {}: {d}", item.name);
        }
    }
    eprintln!("[trasyn-compile] lint: {errors} error(s), {warnings} warning(s)");
    errors == 0 && (!deny_warnings || warnings == 0)
}

/// Prints per-item certificate lines and the verification summary to
/// stderr; returns `false` when any certificate failed.
fn print_verify_summary(report: &engine::BatchReport) -> bool {
    let (mut ok, mut failed, mut skipped) = (0usize, 0usize, 0usize);
    for item in &report.items {
        match &item.certificate {
            Some(cert) if cert.equivalent => {
                ok += 1;
                eprintln!("[trasyn-compile] verify {}: {cert}", item.name);
            }
            Some(cert) => {
                failed += 1;
                eprintln!("[trasyn-compile] verify {}: {cert}", item.name);
            }
            None => {
                skipped += 1;
                eprintln!(
                    "[trasyn-compile] verify {}: skipped (circuit exceeds the oracle's qubit limit)",
                    item.name
                );
            }
        }
    }
    eprintln!("[trasyn-compile] verify: {ok} ok, {failed} failed, {skipped} skipped");
    failed == 0
}

/// Prints the `--profile` summary (work counters, per-phase allocation
/// accounting, pool utilization) to stderr.
fn print_profile_summary(stats: &engine::EngineStats) {
    let p = &stats.profile;
    eprintln!("[trasyn-compile] profile: work counters");
    for (name, n) in p.work.entries() {
        eprintln!("  {name:<16} {n:>12}");
    }
    eprintln!("[trasyn-compile] profile: allocations per phase (enabled = {})", p.alloc_enabled);
    eprintln!(
        "  {:<10} {:>12} {:>14} {:>14}",
        "phase", "allocs", "bytes", "peak_bytes"
    );
    for (name, a) in p.alloc.phases() {
        eprintln!(
            "  {:<10} {:>12} {:>14} {:>14}",
            name, a.allocs, a.bytes, a.peak_bytes
        );
    }
    eprintln!(
        "[trasyn-compile] profile: pool {} run(s), {} job(s), busy {:.3} ms / wall {:.3} ms, utilization {:.1}% across {} worker(s)",
        p.pool.runs,
        p.pool.jobs,
        p.pool.busy_ms,
        p.pool.wall_ms,
        p.pool.utilization() * 100.0,
        p.pool.workers.len(),
    );
}

/// Prints the aggregated per-pass table for the batch to stderr.
fn print_pass_table(pipeline: &PipelineSpec, report: &engine::BatchReport) {
    if report.passes.is_empty() {
        eprintln!("[trasyn-compile] pipeline {pipeline}: no lowering passes");
        return;
    }
    eprintln!("[trasyn-compile] pipeline {pipeline}: pass table");
    eprintln!(
        "  {:<12} {:>5} {:>10}  {:>16}  {:>16}",
        "pass", "runs", "ms", "instructions", "rotations"
    );
    for p in &report.passes {
        eprintln!(
            "  {:<12} {:>5} {:>10.3}  {:>7} -> {:>6}  {:>7} -> {:>6}",
            p.name, p.runs, p.wall_ms, p.instrs_in, p.instrs_out, p.rotations_in, p.rotations_out
        );
    }
}
