//! The `experiments` binary as a shell pipeline drives it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_closes_the_pipe_ends_the_output_quietly() {
    // `experiments all --quick | head -1`: the reader takes one line and
    // closes stdout while later subcommands still have tables to print.
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments starts");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("one line of output");
    assert!(first.starts_with('#'), "first line {first:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr drains");
    let status = child.wait().expect("experiments exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "{status}, stderr: {stderr}");
}

#[test]
fn serve_ends_quietly_when_its_reader_is_gone() {
    // `experiments serve ... | true`: the reader closes stdout before
    // serve prints its address line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["serve", "--jobs", "50", "--shards", "1", "--for-secs", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments starts");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr drains");
    let status = child.wait().expect("experiments exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "{status}, stderr: {stderr}");
}

#[test]
fn an_unknown_command_still_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("bogus")
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("unknown command bogus"));
}
