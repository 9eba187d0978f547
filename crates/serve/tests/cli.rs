//! `kg-serve` refuses a flag it does not know, and a value that does not
//! parse, with exit status 2 before it binds a socket or creates a data
//! directory: a misspelt `--data_dir` must not start a server without
//! durability that acknowledges updates a restart loses. `kg-loadgen`
//! refuses the same way before it writes its artifact.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A fresh directory for one test's runs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgserve-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Starts `kg-serve` in `dir` with `args` after a small generated graph on
/// an ephemeral port.
fn start(dir: &Path, args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_kg-serve"))
        .args(["--addr", "127.0.0.1:0", "--universities", "1", "--departments", "1"])
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kg-serve")
}

/// Polls `done` every 10 ms for up to 30 s; a `kg-serve` still running
/// then is killed and fails the test with `what`.
fn wait_until(child: &mut Child, what: &str, mut done: impl FnMut(&mut Child) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done(child) {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn unknown_flags_and_malformed_values_exit_2_before_touching_anything() {
    let dir = scratch("refused");
    for (args, named) in [
        (&["--data_dir", "x"][..], "--data_dir"),
        (&["--build-index"][..], "--build-index"),
        (&["--workers", "eight"][..], "--workers"),
    ] {
        let mut child = start(&dir, args);
        let running = format!("kg-serve {args:?} kept running");
        wait_until(&mut child, &running, |c| c.try_wait().expect("wait").is_some());
        let out = child.wait_with_output().expect("kg-serve output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: the error does not name {named}: {stderr}");
        assert!(!dir.join("x").exists(), "{args:?} created the data dir");
    }

    // Control: spelt right, the same flag creates the directory and serves.
    let mut child = start(&dir, &["--data-dir", "x"]);
    wait_until(&mut child, "kg-serve --data-dir x never created x", |_| dir.join("x").exists());
    assert!(child.try_wait().expect("wait").is_none(), "kg-serve --data-dir x exited");
    let _ = child.kill();
    let _ = child.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kg_loadgen_refuses_a_misspelt_flag_before_writing_its_artifact() {
    let dir = scratch("loadgen");
    let artifact = dir.join("x.json");
    let out = Command::new(env!("CARGO_BIN_EXE_kg-loadgen"))
        .args(["--universites", "1", "--out"])
        .arg(&artifact)
        .current_dir(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("run kg-loadgen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--universites"), "the error does not name the flag: {stderr}");
    assert!(!artifact.exists(), "kg-loadgen wrote {artifact:?}");
    std::fs::remove_dir_all(&dir).ok();
}
