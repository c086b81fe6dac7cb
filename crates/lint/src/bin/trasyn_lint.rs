//! `trasyn-lint` — static checks over QASM circuits and pipeline specs.
//!
//! ```text
//! trasyn-lint [options] <file.qasm | ->...
//!
//!   --json              machine-readable output (stable shape, golden-tested)
//!   --pipeline SPEC     also lint a pipeline spec (preset or pass list)
//!   --basis u3|rz       lowering basis the spec is resolved for [u3]
//!   --expect rz|u3|clifford-t
//!                       check circuits against a produced gate-set
//!   --epsilon EPS       tolerance for --expect clifford-t [1e-10]
//!   --deny-warnings     exit nonzero on warnings too
//! ```
//!
//! Exit codes: `0` clean (or warnings without `--deny-warnings`), `1`
//! diagnostics at error severity (or any with `--deny-warnings`), `2`
//! usage or input that cannot be read/parsed.

use circuit::qasm::parse_qasm;
use circuit::{Basis, PipelineSpec};
use lint::{diagnostics_json, lint_circuit, lint_output, lint_spec, spec_error_diagnostic};
use lint::{Diagnostic, Expectation, Severity};
use std::io::Read;
use std::process::ExitCode;

struct Options {
    json: bool,
    deny_warnings: bool,
    pipeline: Option<String>,
    basis: Basis,
    expect: Option<Expectation>,
    epsilon: f64,
    inputs: Vec<String>,
}

const USAGE: &str = "usage: trasyn-lint [--json] [--deny-warnings] [--pipeline SPEC] \
                     [--basis u3|rz] [--expect rz|u3|clifford-t] [--epsilon EPS] \
                     <file.qasm | ->...";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        pipeline: None,
        basis: Basis::U3,
        expect: None,
        epsilon: 1e-10,
        inputs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--pipeline" => {
                let v = it.next().ok_or("--pipeline needs a value")?;
                opts.pipeline = Some(v.clone());
            }
            "--basis" => {
                opts.basis = match it.next().map(String::as_str) {
                    Some("u3") => Basis::U3,
                    Some("rz") => Basis::Rz,
                    other => return Err(format!("--basis needs u3 or rz, got {other:?}")),
                };
            }
            "--expect" => {
                let v = it.next().ok_or("--expect needs a value")?;
                opts.expect =
                    Some(Expectation::parse(v).ok_or_else(|| {
                        format!("--expect needs rz, u3, or clifford-t, got '{v}'")
                    })?);
            }
            "--epsilon" => {
                let v = it.next().ok_or("--epsilon needs a value")?;
                opts.epsilon = v
                    .parse::<f64>()
                    .map_err(|_| format!("--epsilon needs a number, got '{v}'"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => opts.inputs.push(other.to_string()),
        }
    }
    if opts.inputs.is_empty() && opts.pipeline.is_none() {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

/// One linted input and its findings.
struct InputReport {
    name: String,
    diagnostics: Vec<Diagnostic>,
}

fn read_input(name: &str) -> Result<String, String> {
    if name == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut reports: Vec<InputReport> = Vec::new();

    if let Some(spec_str) = &opts.pipeline {
        let diagnostics = match PipelineSpec::parse(spec_str) {
            Ok(spec) => lint_spec(&spec, opts.basis),
            Err(e) => vec![spec_error_diagnostic(&e)],
        };
        reports.push(InputReport {
            name: format!("pipeline:{spec_str}"),
            diagnostics,
        });
    }

    for name in &opts.inputs {
        let text = match read_input(name) {
            Ok(t) => t,
            Err(msg) => {
                eprintln!("trasyn-lint: {msg}");
                return ExitCode::from(2);
            }
        };
        let c = match parse_qasm(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("trasyn-lint: {name}: not parseable as the supported QASM subset: {e}");
                return ExitCode::from(2);
            }
        };
        let mut diagnostics = lint_circuit(&c);
        if let Some(expect) = opts.expect {
            diagnostics.extend(lint_output(&c, expect, opts.epsilon));
        }
        reports.push(InputReport {
            name: name.clone(),
            diagnostics,
        });
    }

    let (errors, warnings) = reports.iter().fold((0usize, 0usize), |(e, w), r| {
        let errs = r
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        (e + errs, w + r.diagnostics.len() - errs)
    });

    if opts.json {
        let inputs: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\": {}, \"diagnostics\": {}}}",
                    lint::diag::escape(&r.name),
                    diagnostics_json(&r.diagnostics)
                )
            })
            .collect();
        println!(
            "{{\"lint_version\": 1, \"inputs\": [{}], \"errors\": {}, \"warnings\": {}}}",
            inputs.join(", "),
            errors,
            warnings
        );
    } else {
        for r in &reports {
            if r.diagnostics.is_empty() {
                println!("{}: ok", r.name);
            } else {
                println!("{}:", r.name);
                for d in &r.diagnostics {
                    println!("  {d}");
                }
            }
        }
        println!("{errors} error(s), {warnings} warning(s)");
    }

    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
