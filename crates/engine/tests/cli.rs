//! Black-box tests of the `trasyn-compile` binary: every failure path
//! exits nonzero with a clean one-line `error:` message (no panic, no
//! backtrace), and `--cache-file` warm starts survive corrupt files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_trasyn-compile")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn trasyn-compile")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Lines that report a failure (as opposed to progress chatter, which is
/// prefixed `[trasyn-compile]`).
fn error_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("error:"))
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("trasyn-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn smoke_qasm() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/smoke.qasm")
}

#[test]
fn verify_flag_attaches_certificates_and_exits_zero() {
    let dir = tmp_dir("verify");
    let out_file = dir.join("report.json");
    let out = run(&[
        "--backend",
        "gridsynth",
        "--epsilon",
        "1e-2",
        "--threads",
        "2",
        "--verify",
        "--out",
        out_file.to_str().unwrap(),
        smoke_qasm().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("verify: 1 ok, 0 failed, 0 skipped"),
        "missing verify summary: {stderr}"
    );
    assert!(stderr.contains("verify smoke: ok ("), "{stderr}");
    let json = std::fs::read_to_string(&out_file).unwrap();
    assert!(json.contains("\"certificate\": {\"method\""), "{json}");
    assert!(json.contains("\"equivalent\": true"), "{json}");
    // Engine counters in the summary line reflect the pass.
    assert!(stderr.contains("verify_ok=1 verify_fail=0"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn without_verify_flag_no_certificate_is_emitted() {
    let dir = tmp_dir("noverify");
    let out_file = dir.join("report.json");
    let out = run(&[
        "--backend",
        "gridsynth",
        "--out",
        out_file.to_str().unwrap(),
        smoke_qasm().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&out_file).unwrap();
    assert!(!json.contains("certificate"), "{json}");
    assert!(!stderr_of(&out).contains("verify:"), "{}", stderr_of(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_qasm_is_a_clean_error() {
    let dir = tmp_dir("badqasm");
    let bad = dir.join("bad.qasm");
    std::fs::write(&bad, "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n").unwrap();
    let out = run(&["--backend", "gridsynth", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    let errs = error_lines(&stderr);
    assert_eq!(errs.len(), 1, "exactly one error line, got: {stderr:?}");
    assert!(
        errs[0].contains("not in the supported OpenQASM subset"),
        "unexpected message: {}",
        errs[0]
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_file_is_a_clean_error() {
    let out = run(&["--backend", "gridsynth", "/no/such/file.qasm"]);
    assert_eq!(out.status.code(), Some(1));
    let errs_joined = stderr_of(&out);
    let errs = error_lines(&errs_joined);
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("cannot read"), "got: {}", errs[0]);
}

#[test]
fn unwritable_report_output_is_a_clean_error() {
    let dir = tmp_dir("badout");
    // A directory as --out target: fs::write fails on every platform.
    let out = run(&[
        "--backend",
        "gridsynth",
        "--out",
        dir.to_str().unwrap(),
        smoke_qasm().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    let errs = error_lines(&stderr);
    assert_eq!(errs.len(), 1, "exactly one error line, got: {stderr:?}");
    assert!(errs[0].contains("cannot write"), "got: {}", errs[0]);
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_emit_qasm_dir_is_a_clean_error() {
    let dir = tmp_dir("bademit");
    // A file where --emit-qasm expects a directory.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "x").unwrap();
    let out = run(&[
        "--backend",
        "gridsynth",
        "--emit-qasm",
        blocker.to_str().unwrap(),
        smoke_qasm().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let errs_joined = stderr_of(&out);
    let errs = error_lines(&errs_joined);
    assert_eq!(errs.len(), 1);
    assert!(errs[0].contains("cannot create"), "got: {}", errs[0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["--backend", "qiskit", smoke_qasm().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown backend"));
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("no input files"));
    let out = run(&["--pipeline", "warp9", smoke_qasm().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("warp9"), "{}", stderr_of(&out));
}

#[test]
fn malformed_qasm_error_names_the_line() {
    let dir = tmp_dir("qasmline");
    let bad = dir.join("bad.qasm");
    std::fs::write(&bad, "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nwarp q[1];\n").unwrap();
    let out = run(&["--backend", "gridsynth", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    let errs = error_lines(&stderr);
    assert_eq!(errs.len(), 1, "{stderr:?}");
    assert!(errs[0].contains("line 4"), "error must carry the line: {}", errs[0]);
    assert!(errs[0].contains("warp"), "error must quote the statement: {}", errs[0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_presets_compile_and_report_passes() {
    // `--pipeline zx` must run phase folding and emit the pass table plus
    // per-pass JSON; `--pipeline none` skips lowering, and the removed
    // `--no-transpile` alias is a usage error.
    let dir = tmp_dir("pipeline");
    let report = dir.join("report.json");
    let out = run(&[
        "--backend",
        "gridsynth",
        "--pipeline",
        "zx",
        "--out",
        report.to_str().unwrap(),
        smoke_qasm().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("pipeline zx: pass table"), "{stderr}");
    assert!(stderr.contains("zx-fold"), "{stderr}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"pipeline\": \"zx\""), "{json}");
    assert!(json.contains("\"name\": \"zx-fold\""), "{json}");
    assert!(json.contains("\"passes\""), "{json}");

    let out = run(&[
        "--backend",
        "gridsynth",
        "--pipeline",
        "none",
        "--out",
        report.to_str().unwrap(),
        smoke_qasm().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("no lowering passes"), "{}", stderr_of(&out));
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"pipeline\": \"none\""), "{json}");

    let out = run(&["--no-transpile", smoke_qasm().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unknown flag '--no-transpile'"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_file_warm_starts_and_tolerates_corruption() {
    let dir = tmp_dir("cachefile");
    let cache = dir.join("cache.snap");
    let qasm = smoke_qasm();
    let args = |cache: &Path, emit: &Path| {
        vec![
            "--backend".to_string(),
            "gridsynth".to_string(),
            "--cache-file".to_string(),
            cache.to_str().unwrap().to_string(),
            "--emit-qasm".to_string(),
            emit.to_str().unwrap().to_string(),
            "--out".to_string(),
            dir.join("report.json").to_str().unwrap().to_string(),
            qasm.to_str().unwrap().to_string(),
        ]
    };

    // Cold run creates the snapshot.
    let cold = Command::new(bin())
        .args(args(&cache, &dir.join("cold")))
        .output()
        .unwrap();
    assert_eq!(cold.status.code(), Some(0), "{}", stderr_of(&cold));
    assert!(stderr_of(&cold).contains("saved "), "{}", stderr_of(&cold));
    assert!(cache.is_file());

    // Warm run loads it, reports 0 batch misses, and emits bit-identical
    // compiled circuits.
    let warm = Command::new(bin())
        .args(args(&cache, &dir.join("warm")))
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), Some(0));
    let stderr = stderr_of(&warm);
    assert!(stderr.contains("warm start:"), "{stderr}");
    assert!(stderr.contains("0 misses"), "warm cache must serve all: {stderr}");
    let cold_qasm = std::fs::read_to_string(dir.join("cold/smoke.qasm")).unwrap();
    let warm_qasm = std::fs::read_to_string(dir.join("warm/smoke.qasm")).unwrap();
    assert_eq!(cold_qasm, warm_qasm, "warm start must not change output");

    // Corrupt snapshot: warned, ignored, still exits 0 and re-saves.
    std::fs::write(&cache, b"TSC1 this is not a valid snapshot").unwrap();
    let tolerant = Command::new(bin())
        .args(args(&cache, &dir.join("tolerant")))
        .output()
        .unwrap();
    assert_eq!(tolerant.status.code(), Some(0));
    let stderr = stderr_of(&tolerant);
    assert!(stderr.contains("ignoring cache file"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
