//! `trasyn-fuzz` — seeded differential fuzzing across every compile path.
//!
//! ```text
//! trasyn-fuzz [OPTIONS]
//!
//! options:
//!   --seed N               master seed (default 7)
//!   --cases N              number of generated cases (default 200)
//!   --epsilon EPS          per-rotation error threshold (default 1e-2)
//!   --backend trasyn|gridsynth|annealing   backend under test (default gridsynth)
//!   --max-qubits N         widest generated circuit (default 3)
//!   --max-ops N            longest generated circuit (default 12)
//!   --no-server            skip the in-process server loopback path
//!   --out-dir DIR          where shrunk repro artifacts go (default fuzz-artifacts)
//!   --smoke                the CI configuration (fixed seed, 200 cases)
//!   --replay FILE          re-run one repro artifact instead of fuzzing;
//!                          combine with --pipeline/--backend/--epsilon
//!                          (the repro's header comments name them)
//!   --pipeline SPEC        pipeline for --replay (default `default`)
//! ```
//!
//! Every case compiles through the CLI-equivalent engine batch (1
//! thread, cold cache), a 4-thread cold engine, a long-lived warm
//! engine, and the loopback server; outputs are cross-checked bit for
//! bit and certified against the input by the `verify` oracle. On
//! mismatch the case is shrunk to a minimal OpenQASM repro written to
//! `--out-dir` with the exact replay command in its header.
//!
//! Exit codes: 0 all green, 1 differential failures (artifact paths are
//! printed), 2 usage error.

use circuit::pass::PipelineSpec;
use engine::BackendKind;
use server::fuzz::{self, FuzzConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    cfg: FuzzConfig,
    replay: Option<PathBuf>,
    replay_pipeline: PipelineSpec,
}

fn usage() -> &'static str {
    "usage: trasyn-fuzz [--seed N] [--cases N] [--epsilon EPS] \
     [--backend trasyn|gridsynth|annealing] [--max-qubits N] [--max-ops N] \
     [--no-server] [--out-dir DIR] [--smoke] \
     [--replay FILE [--pipeline SPEC]]"
}

/// Explicit flag values, recorded separately so `--smoke` is
/// order-independent: the base config (`--smoke` or the defaults) is
/// chosen first, then every flag the user actually typed overrides it —
/// `--cases 500 --smoke` and `--smoke --cases 500` mean the same thing.
#[derive(Default)]
struct Overrides {
    seed: Option<u64>,
    cases: Option<usize>,
    epsilon: Option<f64>,
    backend: Option<BackendKind>,
    max_qubits: Option<usize>,
    max_ops: Option<usize>,
    no_server: bool,
    out_dir: Option<PathBuf>,
}

/// `Ok(None)` means `--help`: print usage, exit 0.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut over = Overrides::default();
    let mut smoke = false;
    let mut replay: Option<PathBuf> = None;
    let mut replay_pipeline = PipelineSpec::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                over.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer".to_string())?,
                );
            }
            "--cases" => {
                over.cases = Some(
                    value("--cases")?
                        .parse()
                        .map_err(|_| "--cases needs an integer".to_string())?,
                );
            }
            "--epsilon" => {
                over.epsilon = Some(
                    value("--epsilon")?
                        .parse()
                        .map_err(|_| "--epsilon needs a number".to_string())?,
                );
            }
            "--backend" => {
                let v = value("--backend")?;
                over.backend =
                    Some(BackendKind::parse(&v).ok_or_else(|| format!("unknown backend '{v}'"))?);
            }
            "--max-qubits" => {
                over.max_qubits = Some(
                    value("--max-qubits")?
                        .parse()
                        .map_err(|_| "--max-qubits needs an integer".to_string())?,
                );
            }
            "--max-ops" => {
                over.max_ops = Some(
                    value("--max-ops")?
                        .parse()
                        .map_err(|_| "--max-ops needs an integer".to_string())?,
                );
            }
            "--no-server" => over.no_server = true,
            "--out-dir" => over.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--smoke" => smoke = true,
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            "--pipeline" => {
                let v = value("--pipeline")?;
                replay_pipeline = PipelineSpec::parse(&v).map_err(|e| e.to_string())?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    // `--smoke` and the hand-run defaults are currently the same base
    // config; keeping them separate preserves the CI contract if the
    // defaults ever drift.
    let mut cfg = if smoke {
        FuzzConfig::smoke()
    } else {
        FuzzConfig {
            out_dir: Some(PathBuf::from("fuzz-artifacts")),
            ..FuzzConfig::smoke()
        }
    };
    if let Some(v) = over.seed {
        cfg.seed = v;
    }
    if let Some(v) = over.cases {
        cfg.cases = v;
    }
    if let Some(v) = over.epsilon {
        cfg.epsilon = v;
    }
    if let Some(v) = over.backend {
        cfg.backend = v;
    }
    if let Some(v) = over.max_qubits {
        cfg.max_qubits = v;
    }
    if let Some(v) = over.max_ops {
        cfg.max_ops = v;
    }
    if over.no_server {
        cfg.with_server = false;
    }
    if let Some(v) = over.out_dir {
        cfg.out_dir = Some(v);
    }
    if !(engine::MIN_EPSILON..=engine::MAX_EPSILON).contains(&cfg.epsilon) {
        return Err(format!(
            "--epsilon must be in [{}, {}]",
            engine::MIN_EPSILON,
            engine::MAX_EPSILON
        ));
    }
    if cfg.max_qubits == 0 || cfg.max_ops == 0 {
        return Err("--max-qubits and --max-ops must be at least 1".to_string());
    }
    Ok(Some(Options {
        cfg,
        replay,
        replay_pipeline,
    }))
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

    if let Some(path) = &opts.replay {
        eprintln!(
            "[trasyn-fuzz] replaying {} (backend {}, epsilon {}, pipeline {})",
            path.display(),
            opts.cfg.backend.label(),
            opts.cfg.epsilon,
            opts.replay_pipeline,
        );
        return match fuzz::replay_file(path, &opts.replay_pipeline, opts.cfg) {
            Ok(None) => {
                eprintln!("[trasyn-fuzz] replay passed: all paths agree and the oracle accepts");
                ExitCode::SUCCESS
            }
            Ok(Some(failure)) => {
                eprintln!("[trasyn-fuzz] replay FAILED: {}", failure.reason);
                eprint!("{}", failure.qasm);
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    eprintln!(
        "[trasyn-fuzz] seed {}, {} case(s), backend {}, epsilon {}, max {} qubits x {} ops, server {}",
        opts.cfg.seed,
        opts.cfg.cases,
        opts.cfg.backend.label(),
        opts.cfg.epsilon,
        opts.cfg.max_qubits,
        opts.cfg.max_ops,
        if opts.cfg.with_server { "on" } else { "off" },
    );
    let report = match fuzz::run_fuzz(opts.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot start the harness: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "[trasyn-fuzz] {} case(s), {} path compilations, {} failure(s)",
        report.cases,
        report.compiles,
        report.failures.len(),
    );
    if report.all_green() {
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        match &f.artifact {
            Some(path) => eprintln!(
                "[trasyn-fuzz] case {} (pipeline {}): {} — repro at {} | replay: {}",
                f.case,
                f.pipeline,
                f.reason,
                path.display(),
                f.replay,
            ),
            None => eprintln!(
                "[trasyn-fuzz] case {} (pipeline {}): {} | replay: {}",
                f.case, f.pipeline, f.reason, f.replay,
            ),
        }
    }
    ExitCode::from(1)
}
