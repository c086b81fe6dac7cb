//! `trasyn-cachesim` — the trace-driven cache-sizing lab.
//!
//! Replays a `TRC1` access trace (recorded by `trasyn-compile
//! --cache-trace` or `trasyn-server --cache-trace`) through the FIFO
//! cache at a sweep of capacities and reports the hit rate, evictions
//! and footprint each would have had — sizing `--cache-capacity` from
//! data, not folklore.
//!
//! ```text
//! trasyn-cachesim --trace FILE [OPTIONS]
//!
//! options:
//!   --trace FILE         TRC1 trace to replay (required)
//!   --capacities LIST    comma-separated capacities in entries
//!                        (default: recorded/4, recorded, recorded*4)
//!   --shards N           shard count (default: the recorded count)
//!   --mode reference|parity
//!                        reference (default): replay lookups only,
//!                        insert on miss — the what-if sweep.
//!                        parity: replay every recorded event under the
//!                        recorded configuration only, and exit 1 if the
//!                        simulated hit/miss sequence diverges from the
//!                        recorded one (the simulator's self-check).
//!                        --capacities and --shards are usage errors
//!                        here, since parity never replays them.
//!   --json FILE|-        write the machine-readable report to FILE
//!                        (or stdout with `-`)
//! ```
//!
//! Exit codes: 0 success, 1 replay/parity failure or unreadable trace,
//! 2 usage error.

use engine::cachesim::{default_capacity_sweep, simulate, SimMode, SimOutcome};
use engine::cachetrace::{load_from_file, CacheTrace, EventKind};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    trace: PathBuf,
    capacities: Option<Vec<usize>>,
    shards: Option<usize>,
    mode: SimMode,
    json: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: trasyn-cachesim --trace FILE [--capacities N,N,...] [--shards N] \
     [--mode reference|parity] [--json FILE|-]"
}

/// `Ok(None)` means `--help` was requested: print usage, exit 0.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut trace = None;
    let mut capacities = None;
    let mut shards = None;
    let mut mode = SimMode::Reference;
    let mut json = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--capacities" => {
                let v = value("--capacities")?;
                let caps = v
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--capacities: '{t}' is not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if caps.is_empty() {
                    return Err("--capacities needs at least one capacity".to_string());
                }
                capacities = Some(caps);
            }
            "--shards" => {
                shards = Some(
                    value("--shards")?
                        .parse()
                        .map_err(|_| "--shards needs an integer".to_string())?,
                );
            }
            "--mode" => {
                let v = value("--mode")?;
                mode = SimMode::parse(&v)
                    .ok_or_else(|| format!("unknown mode '{v}' (reference|parity)"))?;
            }
            "--json" => json = Some(PathBuf::from(value("--json")?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let trace = trace.ok_or_else(|| "--trace is required".to_string())?;
    if mode == SimMode::Parity && (capacities.is_some() || shards.is_some()) {
        return Err(
            "--mode parity replays the recorded capacity and shard count; \
             drop --capacities/--shards, or sweep them in reference mode"
                .to_string(),
        );
    }
    Ok(Some(Options {
        trace,
        capacities,
        shards,
        mode,
        json,
    }))
}

/// One result row as a JSON object (schema `trasyn-cachesim/v2`).
fn outcome_json(o: &SimOutcome) -> String {
    format!(
        "{{\"capacity\": {}, \"shards\": {}, \"mode\": \"{}\", \
         \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.6}, \"insertions\": {}, \
         \"evictions\": {}, \"entries\": {}, \"approx_gates\": {}}}",
        o.capacity,
        o.shards,
        o.mode,
        o.hits,
        o.misses,
        o.hit_rate(),
        o.insertions,
        o.evictions,
        o.entries,
        o.approx_gates,
    )
}

fn report_json(trace_path: &str, trace: &CacheTrace, mode: SimMode, results: &[SimOutcome]) -> String {
    let rows: Vec<String> = results.iter().map(outcome_json).collect();
    format!(
        "{{\"schema\": \"trasyn-cachesim/v2\", \"trace\": {{\"file\": \"{}\", \
         \"shards\": {}, \"capacity\": {}, \"events\": {}, \
         \"gets\": {}}}, \"mode\": \"{}\", \"results\": [{}]}}\n",
        trace_path.replace('\\', "\\\\").replace('"', "\\\""),
        trace.shards,
        trace.capacity,
        trace.events.len(),
        trace.gets(),
        mode,
        rows.join(", "),
    )
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

    let trace = match load_from_file(&opts.trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", opts.trace.display());
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "[trasyn-cachesim] {}: {} event(s) ({} lookups), recorded capacity={} shards={}",
        opts.trace.display(),
        trace.events.len(),
        trace.gets(),
        trace.capacity,
        trace.shards,
    );

    let shards = opts.shards.unwrap_or(trace.shards as usize);
    let mut results = Vec::new();
    let mut parity_failed = false;

    if opts.mode == SimMode::Parity {
        // Parity only means anything under the recorded configuration.
        let sim = simulate(
            &trace,
            trace.capacity as usize,
            trace.shards as usize,
            SimMode::Parity,
        );
        let recorded: Vec<bool> = trace
            .events
            .iter()
            .filter(|e| e.kind.is_get())
            .map(|e| e.kind == EventKind::Hit)
            .collect();
        if sim.outcomes == recorded {
            eprintln!(
                "[trasyn-cachesim] parity OK: {} lookup(s) replayed bit-identically",
                recorded.len()
            );
        } else {
            let first = sim
                .outcomes
                .iter()
                .zip(&recorded)
                .position(|(a, b)| a != b)
                .unwrap_or(recorded.len().min(sim.outcomes.len()));
            eprintln!(
                "error: parity FAILED: simulated sequence diverges from the recorded one at lookup {first}"
            );
            parity_failed = true;
        }
        results.push(sim);
    } else {
        let capacities = opts
            .capacities
            .clone()
            .unwrap_or_else(|| default_capacity_sweep(trace.capacity as usize));
        for &capacity in &capacities {
            results.push(simulate(&trace, capacity, shards, SimMode::Reference));
        }
    }

    // Human table.
    eprintln!(
        "  {:>10} {:>7} {:>10} {:>10} {:>9} {:>10} {:>9} {:>12}",
        "capacity", "shards", "hits", "misses", "hit_rate", "evictions", "entries", "approx_gates"
    );
    for o in &results {
        eprintln!(
            "  {:>10} {:>7} {:>10} {:>10} {:>8.2}% {:>10} {:>9} {:>12}",
            o.capacity,
            o.shards,
            o.hits,
            o.misses,
            o.hit_rate() * 100.0,
            o.evictions,
            o.entries,
            o.approx_gates,
        );
    }

    let json = report_json(&opts.trace.display().to_string(), &trace, opts.mode, &results);
    if let Some(path) = &opts.json {
        if path.as_os_str() == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    if parity_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
