//! The differential fuzzing harness behind `trasyn-fuzz`.
//!
//! Every case draws a seeded circuit from [`workloads::random`], pushes
//! it through **every compile path** the workspace ships —
//!
//! * `cli-1t` — a fresh single-threaded [`engine::Engine`] batch, the
//!   exact call `trasyn-compile --threads 1` makes (the CLI is a thin
//!   wrapper over this path);
//! * `engine-4t` — a fresh 4-thread engine (cold cache, pooled
//!   synthesis);
//! * `engine-warm` — one long-lived 2-thread engine whose cache stays
//!   warm across all cases (exercises cache-hit splicing);
//! * `server` — an in-process `trasyn-server` driven over real loopback
//!   HTTP (its own engine, warm across cases)
//!
//! — then cross-checks all emitted QASM outputs **bit for bit**, checks
//! the engine paths' summed synthesis errors for exact (`f64`-equal)
//! agreement, and finally certifies the output against the input with the
//! `verify` crate's oracle (exact ring / operator norm / statevector —
//! see [`verify::verify_circuits`]).
//!
//! Every engine-path compile also runs under static checking: items are
//! submitted with `lint: true` and the engine runs each lowering
//! pipeline as a [`engine::CheckedPipeline`], so a pass-contract
//! violation (`L04xx`) or a non-Clifford+T output (`L02xx`) is a
//! failure exactly like a bit mismatch — and gets shrunk the same way.
//!
//! On a mismatch the failing circuit is shrunk by greedy chunked
//! instruction removal (ddmin-style: halves, quarters, …, single
//! instructions, re-running the full differential check on every
//! candidate) and written to disk as an OpenQASM repro whose header
//! comments carry the failure reason and the exact replay command.
//! [`replay_file`] (the `--replay` flag) re-runs one repro.

use crate::client::Conn;
use crate::json;
use crate::service::{Server, ServerConfig, ServerHandle};
use circuit::pass::PipelineSpec;
use circuit::qasm::{parse_qasm, to_qasm};
use circuit::Circuit;
use engine::{BackendKind, BatchItem, BatchRequest, Engine, TrasynBackend};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use trace::json_string;

/// Everything one fuzzing run is parametrized by.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own sub-seed from it.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: usize,
    /// Per-rotation synthesis error threshold for every path.
    pub epsilon: f64,
    /// Backend under test.
    pub backend: BackendKind,
    /// Largest generated circuit width (the oracle caps at
    /// [`verify::MAX_ORACLE_QUBITS`]).
    pub max_qubits: usize,
    /// Largest generated instruction count.
    pub max_ops: usize,
    /// Also run the in-process server loopback path.
    pub with_server: bool,
    /// Where shrunk repro artifacts are written (`None`: keep in memory
    /// only).
    pub out_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// The CI smoke configuration: fixed seed, bounded case count,
    /// gridsynth at `1e-2` — minutes, not hours.
    pub fn smoke() -> FuzzConfig {
        FuzzConfig {
            seed: 7,
            cases: 200,
            epsilon: 1e-2,
            backend: BackendKind::Gridsynth,
            max_qubits: 3,
            max_ops: 12,
            with_server: true,
            out_dir: Some(PathBuf::from("fuzz-artifacts")),
        }
    }
}

/// One confirmed, shrunk differential failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Case index within the run (`usize::MAX` for directed/replayed
    /// cases).
    pub case: usize,
    /// The pipeline spec the case compiled with.
    pub pipeline: PipelineSpec,
    /// One-line description of what disagreed.
    pub reason: String,
    /// The shrunk repro as an OpenQASM program (header comments carry
    /// the metadata and replay command).
    pub qasm: String,
    /// The exact command that replays this repro.
    pub replay: String,
    /// Where the repro was written, when an output directory was
    /// configured.
    pub artifact: Option<PathBuf>,
}

/// Outcome of a whole fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Total per-path compilations executed (including shrinking).
    pub compiles: u64,
    /// Confirmed failures, one shrunk repro each.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// `true` when every case agreed on every path.
    pub fn all_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Evaluation budget for shrinking one failure: chunked removal converges
/// long before this; the bound keeps a pathological predicate from
/// stalling CI.
const SHRINK_BUDGET: usize = 300;

/// The pipeline specs a run cycles through: all five presets plus the
/// bare `zx-fold` custom spec (phase folding without prior lowering —
/// the pass the PR 1 miscompile lived in).
fn pipeline_mix() -> Vec<PipelineSpec> {
    let mut mix: Vec<PipelineSpec> = circuit::pass::Preset::ALL
        .iter()
        .map(|p| PipelineSpec::Preset(*p))
        .collect();
    mix.push(PipelineSpec::parse("zx-fold").expect("zx-fold is a valid spec"));
    mix
}

/// A live differential harness: the long-lived warm engine, the optional
/// in-process server, and the per-run counters. Create with
/// [`Harness::new`], drive with [`Harness::check_case`], and always
/// [`Harness::finish`] (shuts the server down gracefully).
pub struct Harness {
    cfg: FuzzConfig,
    warm: Engine,
    server: Option<ServerHandle>,
    /// Shared trasyn table when the backend under test is trasyn — the
    /// table is the expensive part, and sharing it keeps every path's
    /// settings key identical.
    trasyn: Option<Arc<trasyn::Trasyn>>,
    compiles: Cell<u64>,
    /// One persistent keep-alive connection to the loopback server: the
    /// fuzzer exercises connection reuse the way a real client would
    /// (and regains a fresh connection transparently if the server
    /// closed this one, e.g. after an idle reap).
    conn: std::cell::RefCell<Option<Conn>>,
}

impl Harness {
    /// Builds the harness: warm engine, and (when configured) the
    /// loopback server on an ephemeral port.
    pub fn new(cfg: FuzzConfig) -> std::io::Result<Harness> {
        let trasyn = if cfg.backend == BackendKind::Trasyn {
            Some(Arc::new(trasyn::Trasyn::new(4)))
        } else {
            None
        };
        let warm = fresh_engine(&cfg, &trasyn, 2);
        let server = if cfg.with_server {
            let server_engine = Arc::new(fresh_engine(&cfg, &trasyn, 2));
            let config = ServerConfig {
                default_epsilon: cfg.epsilon,
                default_backend: cfg.backend,
                // Trace every request: the server path then doubles as
                // the proof that tracing is observation-only — its
                // responses are compared bit-for-bit against the
                // untraced in-process paths.
                trace: trace::TraceConfig {
                    enabled: true,
                    sample_every: 1,
                    ..trace::TraceConfig::default()
                },
                ..ServerConfig::default()
            };
            Some(Server::start("127.0.0.1:0", config, server_engine)?)
        } else {
            None
        };
        Ok(Harness {
            cfg,
            warm,
            server,
            trasyn,
            compiles: Cell::new(0),
            conn: std::cell::RefCell::new(None),
        })
    }

    /// Total per-path compilations executed so far.
    pub fn compiles(&self) -> u64 {
        self.compiles.get()
    }

    /// Compiles `c` on one engine path, returning the emitted QASM and
    /// the summed synthesis error.
    ///
    /// Every compile runs with `lint: true`, and the engine runs every
    /// lowering pipeline as a `lint::CheckedPipeline` — so a pass that
    /// breaks its postconditions, or an output that leaves the
    /// Clifford+T gate set, surfaces here as an error-severity
    /// diagnostic and becomes a shrinkable failure like any output
    /// mismatch (in release builds, where the engine's `debug_assert`
    /// on contract violations is compiled out).
    fn compile_engine(
        &self,
        eng: &Engine,
        c: &Circuit,
        pipeline: &PipelineSpec,
    ) -> Result<(String, f64), String> {
        self.compiles.set(self.compiles.get() + 1);
        let item = BatchItem::new("fuzz", c.clone(), self.cfg.epsilon, self.cfg.backend)
            .pipeline(pipeline.clone())
            .lint(true);
        let report = eng
            .compile_batch(&BatchRequest::new().item(item))
            .map_err(|e| format!("engine error: {e}"))?;
        let it = &report.items[0];
        if let Some(d) = it
            .diagnostics
            .iter()
            .find(|d| d.severity == engine::LintSeverity::Error)
        {
            return Err(format!("lint: {d}"));
        }
        Ok((to_qasm(&it.synthesized.circuit), it.synthesized.total_error))
    }

    /// Compiles `c` through the loopback server, returning the response's
    /// `"qasm"` field.
    fn compile_server(&self, qasm_in: &str, pipeline: &PipelineSpec) -> Result<String, String> {
        self.compiles.set(self.compiles.get() + 1);
        let addr = self
            .server
            .as_ref()
            .expect("server path enabled")
            .addr()
            .to_string();
        let body = format!(
            "{{\"qasm\": {}, \"epsilon\": {}, \"backend\": {}, \"pipeline\": {}, \"name\": \"fuzz\"}}",
            json_string(qasm_in),
            self.cfg.epsilon,
            json_string(self.cfg.backend.label()),
            json_string(&pipeline.to_string()),
        );
        // Reuse one keep-alive connection across compiles; reconnect once
        // if the reused connection turned out stale (e.g. idle-reaped).
        let mut slot = self.conn.borrow_mut();
        let reused = slot.is_some();
        let resp = match slot.as_mut() {
            Some(conn) => conn.request("POST", "/v1/compile", Some(&body)),
            None => Err(std::io::Error::new(std::io::ErrorKind::NotConnected, "no connection yet")),
        };
        let resp = match resp {
            Ok(resp) => resp,
            Err(e) if !reused && e.kind() != std::io::ErrorKind::NotConnected => {
                return Err(format!("server request failed: {e}"));
            }
            Err(_) => {
                // Fresh connection, one shot: a failure here is real.
                let mut fresh = Conn::connect(&addr, Duration::from_secs(30))
                    .map_err(|e| format!("server connect failed: {e}"))?;
                let resp = fresh
                    .request("POST", "/v1/compile", Some(&body))
                    .map_err(|e| format!("server request failed: {e}"))?;
                *slot = Some(fresh);
                resp
            }
        };
        if !resp.keep_alive() {
            *slot = None; // the server asked to close; honor it
        }
        drop(slot);
        if resp.status != 200 {
            return Err(format!(
                "server answered {}: {}",
                resp.status,
                resp.body.trim().replace('\n', " ")
            ));
        }
        let v = json::parse(&resp.body).map_err(|e| format!("server response is not JSON: {e}"))?;
        v.get("qasm")
            .and_then(|q| q.as_str())
            .map(str::to_string)
            .ok_or_else(|| "server response has no \"qasm\" field".to_string())
    }

    /// Runs the full differential check on one circuit once (no
    /// shrinking): every path, pairwise bit-identity, error agreement,
    /// then the oracle. `Err` carries the one-line failure reason.
    fn evaluate(&self, c: &Circuit, pipeline: &PipelineSpec) -> Result<(), String> {
        let qasm_in = to_qasm(c);
        let parsed = parse_qasm(&qasm_in)
            .map_err(|e| format!("emitted QASM does not re-parse: {e}"))?;
        if &parsed != c {
            return Err("QASM round-trip changed the circuit".to_string());
        }

        let cold1 = fresh_engine(&self.cfg, &self.trasyn, 1);
        let cold4 = fresh_engine(&self.cfg, &self.trasyn, 4);
        let (q_cli, err_cli) = self.compile_engine(&cold1, &parsed, pipeline)?;
        let (q_par, err_par) = self.compile_engine(&cold4, &parsed, pipeline)?;
        let (q_warm, err_warm) = self.compile_engine(&self.warm, &parsed, pipeline)?;

        if q_par != q_cli {
            return Err("output mismatch: cli-1t vs engine-4t (thread count changed the circuit)".into());
        }
        if q_warm != q_cli {
            return Err("output mismatch: cli-1t vs engine-warm (cache state changed the circuit)".into());
        }
        if err_par.to_bits() != err_cli.to_bits() || err_warm.to_bits() != err_cli.to_bits() {
            return Err(format!(
                "total_error disagreement: cli-1t {err_cli} vs engine-4t {err_par} vs engine-warm {err_warm}"
            ));
        }
        if self.server.is_some() {
            let q_srv = self.compile_server(&qasm_in, pipeline)?;
            if q_srv != q_cli {
                return Err("output mismatch: cli-1t vs server loopback".into());
            }
        }

        // Oracle: the compiled circuit must implement the requested one
        // within the summed synthesis error (metric-converted to the
        // operator norm, plus pipeline float slack).
        let out = parse_qasm(&q_cli)
            .map_err(|e| format!("compiled QASM does not re-parse: {e}"))?;
        let bound = verify::error_bound(err_cli, parsed.len() + out.len());
        match verify::verify_circuits(&parsed, &out, bound) {
            Ok(cert) if cert.equivalent => Ok(()),
            Ok(cert) => Err(format!("oracle rejected the compile: {cert}")),
            Err(verify::VerifyError::TooLarge { .. }) => Ok(()), // beyond the oracle; paths still agreed
            Err(e) => Err(format!("oracle could not run: {e}")),
        }
    }

    /// Greedy chunked instruction removal: keep any removal that still
    /// fails, halving the chunk size until single instructions.
    fn shrink(
        &self,
        c: &Circuit,
        pipeline: &PipelineSpec,
        mut reason: String,
    ) -> (Circuit, String) {
        let mut cur = c.clone();
        let mut budget = SHRINK_BUDGET;
        let mut chunk = (cur.len() / 2).max(1);
        loop {
            let mut start = 0usize;
            while start + chunk <= cur.len() && budget > 0 {
                let mut instrs = cur.instrs().to_vec();
                instrs.drain(start..start + chunk);
                let candidate = Circuit::from_instrs(cur.n_qubits(), instrs);
                budget -= 1;
                match self.evaluate(&candidate, pipeline) {
                    Err(r) => {
                        cur = candidate;
                        reason = r;
                        // Same start index now points at fresh content.
                    }
                    Ok(()) => start += chunk,
                }
            }
            if chunk == 1 || budget == 0 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        (cur, reason)
    }

    /// Checks one circuit/pipeline case end to end; on failure, shrinks
    /// it and (when configured) writes the repro artifact. `case` is only
    /// used for labeling.
    pub fn check_case(
        &self,
        case: usize,
        circuit: &Circuit,
        pipeline: &PipelineSpec,
    ) -> Option<Failure> {
        let reason = match self.evaluate(circuit, pipeline) {
            Ok(()) => return None,
            Err(r) => r,
        };
        let (shrunk, reason) = self.shrink(circuit, pipeline, reason);
        Some(self.report_failure(case, &shrunk, pipeline, reason))
    }

    /// Formats (and optionally writes) the repro artifact for a shrunk
    /// failing circuit.
    fn report_failure(
        &self,
        case: usize,
        shrunk: &Circuit,
        pipeline: &PipelineSpec,
        reason: String,
    ) -> Failure {
        let file_name = format!("fuzz-repro-seed{}-case{case}.qasm", self.cfg.seed);
        let replay = format!(
            "trasyn-fuzz --replay {file_name} --backend {} --epsilon {} --pipeline {}",
            self.cfg.backend.label(),
            self.cfg.epsilon,
            pipeline,
        );
        let mut qasm = String::new();
        let _ = writeln!(
            qasm,
            "// trasyn-fuzz repro (seed={}, case={case})",
            self.cfg.seed
        );
        let _ = writeln!(qasm, "// reason: {}", reason.replace('\n', " "));
        let _ = writeln!(
            qasm,
            "// backend={} epsilon={} pipeline={}",
            self.cfg.backend.label(),
            self.cfg.epsilon,
            pipeline,
        );
        let _ = writeln!(qasm, "// replay: {replay}");
        qasm.push_str(&to_qasm(shrunk));
        let artifact = self.cfg.out_dir.as_ref().and_then(|dir| {
            let path = dir.join(&file_name);
            std::fs::create_dir_all(dir).ok()?;
            std::fs::write(&path, &qasm).ok()?;
            Some(path)
        });
        Failure {
            case,
            pipeline: pipeline.clone(),
            reason,
            qasm,
            replay,
            artifact,
        }
    }

    /// Shuts the loopback server down gracefully.
    pub fn finish(mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

/// A cold engine hosting the backend under test. The trasyn table (the
/// expensive part) is shared across every engine the harness builds, so
/// all paths carry identical settings keys.
fn fresh_engine(
    cfg: &FuzzConfig,
    trasyn_table: &Option<Arc<trasyn::Trasyn>>,
    threads: usize,
) -> Engine {
    let builder = Engine::builder().threads(threads);
    match cfg.backend {
        BackendKind::Trasyn => {
            let table = trasyn_table.as_ref().expect("table built in Harness::new");
            let base = trasyn::SynthesisConfig {
                samples: 256,
                budgets: vec![4; 3],
                ..trasyn::SynthesisConfig::default()
            };
            builder
                .backend(TrasynBackend::new(Arc::clone(table), base))
                .build()
        }
        BackendKind::Gridsynth => builder.backend(engine::GridsynthBackend::default()).build(),
        BackendKind::Annealing => builder.backend(engine::AnnealingBackend::default()).build(),
    }
}

/// Derives case `i`'s sub-seed from the master seed (splitmix-style, so
/// neighboring cases are uncorrelated).
fn case_seed(master: u64, i: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates case `i`'s input circuit: single rotations, mixed random
/// circuits, and discrete-only circuits (exact-ring fodder) in rotation.
fn generate_case(cfg: &FuzzConfig, i: usize) -> Circuit {
    let seed = case_seed(cfg.seed, i as u64);
    let n = 1 + (seed as usize >> 8) % cfg.max_qubits.max(1);
    let ops = 1 + (seed as usize >> 16) % cfg.max_ops.max(1);
    match i % 4 {
        // Bare rotations: the serving path's bread and butter.
        0 => {
            let mut c = Circuit::new(1);
            if i.is_multiple_of(8) {
                let angle = ((seed % 1_000_000) as f64 / 1_000_000.0 - 0.5) * 2.0 * std::f64::consts::PI;
                c.rz(0, angle);
            } else {
                let u = workloads::random::haar_targets(1, seed)[0];
                let a = qmath::euler::decompose_u3(&u);
                c.u3(0, a.theta, a.phi, a.lambda);
            }
            c
        }
        // Discrete-only circuits: exact-ring certificates on one qubit.
        1 => workloads::random::random_discrete_circuit(n, ops, seed),
        // Mixed circuits at full width.
        _ => workloads::random::random_circuit(n, ops, seed),
    }
}

/// Runs a whole fuzzing campaign per `cfg`: seeded case generation,
/// the full path matrix per case, shrinking and artifact capture on
/// failure.
pub fn run_fuzz(cfg: FuzzConfig) -> std::io::Result<FuzzReport> {
    let pipelines = pipeline_mix();
    let harness = Harness::new(cfg)?;
    let mut report = FuzzReport {
        cases: harness.cfg.cases,
        ..FuzzReport::default()
    };
    for i in 0..report.cases {
        let circuit = generate_case(&harness.cfg, i);
        let pipeline = &pipelines[i % pipelines.len()];
        if let Some(failure) = harness.check_case(i, &circuit, pipeline) {
            report.failures.push(failure);
        }
    }
    report.compiles = harness.compiles();
    harness.finish();
    Ok(report)
}

/// Replays one repro artifact (or any OpenQASM file) through the full
/// differential check. Returns `Ok(None)` when the file now passes.
///
/// Replays never write artifacts: the user already *has* the repro, and
/// a second copy labeled with the replay run's seed (not the original
/// provenance) would only litter the output directory and misdirect the
/// printed replay command.
pub fn replay_file(
    path: &Path,
    pipeline: &PipelineSpec,
    mut cfg: FuzzConfig,
) -> Result<Option<Failure>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let circuit = parse_qasm(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    cfg.out_dir = None;
    let harness = Harness::new(cfg).map_err(|e| format!("harness start failed: {e}"))?;
    let failure = harness.check_case(usize::MAX, &circuit, pipeline);
    harness.finish();
    Ok(failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_decorrelate() {
        let a = case_seed(7, 0);
        let b = case_seed(7, 1);
        let c = case_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, case_seed(7, 0), "deterministic");
    }

    #[test]
    fn generated_cases_are_deterministic_and_bounded() {
        let cfg = FuzzConfig {
            with_server: false,
            out_dir: None,
            ..FuzzConfig::smoke()
        };
        for i in 0..32 {
            let a = generate_case(&cfg, i);
            let b = generate_case(&cfg, i);
            assert_eq!(a, b, "case {i}");
            assert!(a.n_qubits() >= 1 && a.n_qubits() <= cfg.max_qubits);
            assert!(a.len() <= cfg.max_ops);
        }
    }

    #[test]
    fn pipeline_mix_covers_presets_and_bare_zx_fold() {
        let mix = pipeline_mix();
        assert_eq!(mix.len(), 6);
        assert!(mix.iter().any(|p| p.to_string() == "zx"));
        assert!(mix.iter().any(|p| p.to_string() == "zx-fold"));
    }

    #[test]
    fn small_fuzz_run_is_green() {
        // A miniature campaign across all paths except the server (the
        // loopback path is covered by the mutation meta-test and CI).
        let cfg = FuzzConfig {
            cases: 12,
            max_ops: 8,
            with_server: false,
            out_dir: None,
            ..FuzzConfig::smoke()
        };
        let report = run_fuzz(cfg).expect("harness starts");
        assert!(
            report.all_green(),
            "differential failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| &f.reason)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.cases, 12);
        assert!(report.compiles >= 36, "three engine paths per case");
    }
}
