//! The `gcrsim` binary's boundary: a reader that closes its end of the
//! pipe early (`gcrsim … | head`, `… | true`) must not turn a finished
//! run into a panic, and a flag the subcommand does not take is an
//! error, not ignored.

use std::process::{Command, Stdio};

#[test]
fn gcrsim_exits_quietly_when_its_stdout_is_closed() {
    let (reader, writer) = std::io::pipe().expect("the OS hands out a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_gcrsim"))
        .args(["lint", "--explain", "D02"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("gcrsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a closed stdout must end gcrsim with status 0; stderr: {stderr}"
    );
    assert!(stderr.is_empty(), "gcrsim wrote to stderr: {stderr}");
}

#[test]
fn gcrsim_reports_other_stdout_errors_with_status_2() {
    // Writes to /dev/full fail with "no space left on device".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = Command::new(env!("CARGO_BIN_EXE_gcrsim"))
        .args(["lint", "--explain", "D02"])
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("gcrsim starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot write the output"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn gcrsim_rejects_a_flag_its_subcommand_does_not_take_with_status_2() {
    for (flag, args) in [
        (
            "--update-baseline",
            &["lint", "--update-baseline", "--explain", "D02"][..],
        ),
        ("--bogus", &["stats", "--trace", "f", "--bogus"][..]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gcrsim"))
            .args(args)
            .output()
            .expect("gcrsim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
