//! Black-box tests of the `trasyn-loadgen` binary against an in-process
//! server: the smoke, closed-loop, open-loop and sweep modes run clean,
//! the sweep's knee does not mistake a short step's schedule noise for
//! saturation, and a flag the chosen mode would ignore is a usage error
//! (exit 2, one `error:` line) rather than silently dropped.
//!
//! The server needs Linux; so does this file.

#![cfg(target_os = "linux")]

use engine::{BackendKind, Engine, GridsynthBackend};
use server::{Server, ServerConfig, ServerHandle};
use std::process::{Command, Output};
use std::sync::Arc;

fn start_server() -> ServerHandle {
    let engine = Arc::new(
        Engine::builder()
            .threads(2)
            .backend(GridsynthBackend::default())
            .build(),
    );
    let config = ServerConfig {
        http_workers: 2,
        queue_depth: 16,
        default_backend: BackendKind::Gridsynth,
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", config, engine).expect("start server")
}

/// Runs `trasyn-loadgen --addr ADDR` plus `args`, split on spaces.
fn loadgen(addr: &str, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trasyn-loadgen"))
        .args(["--addr", addr])
        .args(args.split(' '))
        .output()
        .expect("spawn trasyn-loadgen")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn smoke_closed_loop_and_open_loop_runs_succeed() {
    let handle = start_server();
    let addr = handle.addr().to_string();

    let smoke = loadgen(&addr, "--smoke");
    assert_eq!(smoke.status.code(), Some(0), "{}", stderr_of(&smoke));
    let stdout = stdout_of(&smoke);
    assert!(stdout.contains("smoke ok"), "{stdout}");

    // A request budget wins over --duration-secs: both are accepted.
    let closed = loadgen(
        &addr,
        "--connections 2 --requests 20 --duration-secs 60 --mix mixed --fail-on-error",
    );
    assert_eq!(closed.status.code(), Some(0), "{}", stderr_of(&closed));
    let stdout = stdout_of(&closed);
    assert!(stdout.contains("requests: 20 total — 20 ok"), "{stdout}");

    let open = loadgen(
        &addr,
        "--connections 2 --open-loop --rate 50 --requests 10 --fail-on-error",
    );
    assert_eq!(open.status.code(), Some(0), "{}", stderr_of(&open));
    let stdout = stdout_of(&open);
    assert!(stdout.contains("open-loop 50 req/s offered"), "{stdout}");
    assert!(stdout.contains("requests: 10 total — 10 ok"), "{stdout}");

    handle.shutdown();
}

/// Seed 1's first 25 req/s step schedules only 17 arrivals in its one
/// second, and its 50 req/s step completes 45 requests over a little more
/// than a second: completions per wall second fall short of 90% of the
/// offered rate on both, yet the idle server served every arrival, so
/// both steps kept up.
#[test]
fn sweep_knee_counts_scheduled_arrivals_not_wall_rate() {
    let handle = start_server();
    let addr = handle.addr().to_string();
    let out = loadgen(
        &addr,
        "--mix rz --seed 1 --sweep 25:25:2 --sweep-step-secs 1 --fail-on-error",
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("backlog"), "{stdout}");
    assert!(stdout.contains("  knee: 50.0 req/s"), "{stdout}");
    handle.shutdown();
}

/// The only line on stderr that starts with `error:`, after checking the
/// run was a usage error.
fn usage_error(args: &str) -> String {
    // Parsing fails before any connection, so no server is needed.
    let out = loadgen("127.0.0.1:9", args);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
    assert!(stdout_of(&out).is_empty(), "{args}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{args}: {stderr}");
    errors[0].to_string()
}

#[test]
fn flags_the_mode_ignores_and_removed_flags_are_usage_errors() {
    // (arguments, the flag the mode ignores, the mode)
    let cases = [
        ("--smoke --connections 2", "--connections", "--smoke"),
        ("--smoke --duration-secs 1", "--duration-secs", "--smoke"),
        ("--smoke --requests 5", "--requests", "--smoke"),
        ("--smoke --open-loop", "--open-loop", "--smoke"),
        ("--smoke --rate 50", "--rate", "--smoke"),
        ("--smoke --sweep 25:25:1", "--sweep", "--smoke"),
        (
            "--smoke --sweep-step-secs 1",
            "--sweep-step-secs",
            "--smoke",
        ),
        ("--smoke --mix rz", "--mix", "--smoke"),
        (
            "--sweep 25:25:1 --duration-secs 1",
            "--duration-secs",
            "--sweep",
        ),
        ("--sweep 25:25:1 --requests 5", "--requests", "--sweep"),
        ("--sweep 25:25:1 --rate 9999", "--rate", "--sweep"),
        (
            "--open-loop --rate 50 --sweep-step-secs 1",
            "--sweep-step-secs",
            "--open-loop",
        ),
        ("--rate 50 --requests 10", "--rate", "closed loop"),
        ("--sweep-step-secs 1", "--sweep-step-secs", "closed loop"),
    ];
    for (args, flag, mode) in cases {
        let want = format!("error: {flag} has no effect with {mode}");
        assert_eq!(usage_error(args), want, "{args}");
    }
    // The snapshot writer is gone.
    let want = "error: unknown argument '--json'";
    assert_eq!(usage_error("--json run.json"), want);
}
