//! An experiment binary whose reader goes away early (`table2 | head -1`)
//! exits with status 0 instead of panicking on the broken pipe.
//!
//! Each binary runs at the small scale CI uses; the test reads one line,
//! closes the pipe and waits for the exit status. The binaries keep
//! printing after their first line, so each meets the closed pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn exit_code_after_one_line(exe: &str, args: &[&str]) -> Option<i32> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {exe}: {e}"));
    let mut line = String::new();
    // Dropping the reader closes the read end of the pipe.
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("first line");
    assert!(!line.is_empty(), "{exe} printed nothing");
    child.wait().expect("exit status").code()
}

#[test]
fn table_binaries_exit_zero_when_their_reader_closes() {
    let runs: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_table2"), &["--scale", "0.05", "--budget-secs", "10"]),
        (
            env!("CARGO_BIN_EXE_fig5"),
            &["--vertices", "800", "--sweep-base", "250", "--budget-secs", "5"],
        ),
        (env!("CARGO_BIN_EXE_fig10_14"), &["--scale", "0.05", "--queries", "5"]),
        (
            env!("CARGO_BIN_EXE_fig15"),
            &["--entities", "8000", "--queries", "5", "--max-magnitude", "3"],
        ),
        (env!("CARGO_BIN_EXE_mem_audit"), &["--edges", "20000", "--landmarks", "8"]),
    ];
    let failed: Vec<_> = runs
        .into_iter()
        .map(|(exe, args)| (exe, exit_code_after_one_line(exe, args)))
        .filter(|(_, code)| *code != Some(0))
        .collect();
    assert!(failed.is_empty(), "exit codes after the reader closed: {failed:?}");
}
