//! A report command whose stdout is closed early ends quietly, the way
//! other Unix filters end under `| head`: no panic, no exit code 101.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn sweep_into_a_closed_pipe_ends_quietly() {
    // About 80 KiB of rows: more than a pipe buffer holds, so the command
    // is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_groupdet"))
        .args([
            "sweep",
            "--no-sim",
            "--n-start",
            "60",
            "--n-end",
            "6000",
            "--n-step",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn groupdet");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut header = String::new();
    stdout.read_line(&mut header).expect("read the first line");
    assert!(
        header.contains("analysis"),
        "unexpected first line {header:?}"
    );
    drop(stdout);

    let out = child.wait_with_output().expect("wait for groupdet");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "groupdet panicked:\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "exit status {:?}", out.status);
}
