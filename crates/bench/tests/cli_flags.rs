//! The bench binaries reject bad command lines up front: an unknown flag
//! or an unparsable value exits with status 2 and writes nothing (in
//! particular, `experiments` must not run the suite).

use std::path::PathBuf;
use std::process::Command;

/// Run binary `exe` with `args` in a fresh empty directory; assert that
/// it exits 2 and leaves the directory empty.
fn assert_rejected(exe: &str, case: &str, args: &[&str]) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_flags_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn bench binary");
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?} must exit 2");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{exe} {args:?} wrote {written:?}");
}

/// An unparsable value fails in the shared flag parser before the binary
/// runs, so `explain` writes no artifacts under its default `results/`.
#[test]
fn unparsable_value_exits_2_and_writes_nothing() {
    assert_rejected(env!("CARGO_BIN_EXE_explain"), "seed", &["--seed", "x"]);
}

/// A misspelt `--quick` must not fall through to a full run.
#[test]
fn experiments_unknown_flag_exits_2() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    assert_rejected(exe, "quik", &["--quik", "--json", "out.json", "e1"]);
    assert_rejected(exe, "json", &["e1", "--json"]);
}

/// `explain` has exactly two flags; the retired `--no-faults` is gone.
#[test]
fn explain_unknown_flags_exit_2() {
    let exe = env!("CARGO_BIN_EXE_explain");
    assert_rejected(exe, "explain_no_faults", &["--no-faults"]);
    assert_rejected(exe, "explain_bogus", &["--bogus"]);
}

/// Run `exe` with `args` in a fresh directory holding only `file`
/// (name, contents); assert exit 2, a typed complaint on stderr, no
/// panic, and no file written.
fn assert_bad_input(exe: &str, case: &str, file: (&str, &[u8]), args: &[&str], complaint: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_flags_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(file.0), file.1).unwrap();
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn bench binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "{exe} {args:?} panicked: {stderr}"
    );
    assert!(stderr.contains(complaint), "{exe} {args:?}: {stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n != file.0)
        .collect();
    assert!(written.is_empty(), "{exe} {args:?} wrote {written:?}");
}

#[test]
fn replay_rejects_a_garbage_trace() {
    assert_bad_input(
        env!("CARGO_BIN_EXE_replay"),
        "replay_garbage",
        ("bad.swtrace", &[0xA5; 40]),
        &["--trace", "bad.swtrace"],
        "truncated superblock (40 of 128 bytes)",
    );
}

#[test]
fn replay_rejects_a_missing_trace() {
    assert_bad_input(
        env!("CARGO_BIN_EXE_replay"),
        "replay_missing",
        ("unrelated.txt", b""),
        &["--trace", "missing.swtrace", "--leafspine", "4x2"],
        "missing.swtrace",
    );
}

#[test]
fn capture_rejects_a_malformed_text_trace() {
    assert_bad_input(
        env!("CARGO_BIN_EXE_capture"),
        "capture_text",
        ("bad.txt", b"100 0 17 10.0.0.1:1\n"),
        &["--import-text", "bad.txt", "--out", "out.swtrace"],
        "expected 8 fields, got 4",
    );
}
