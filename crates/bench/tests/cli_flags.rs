//! The bench binaries reject bad command lines up front: an unknown flag
//! or an unparsable value exits with status 2 and writes nothing (in
//! particular, `perf_baseline` must not append to its default output,
//! the committed `BENCH_simnet.json`, and `experiments` must not run the
//! suite).

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

#[test]
fn unknown_flag_exits_2_and_writes_nothing() {
    assert_rejected(env!("CARGO_BIN_EXE_perf_baseline"), "bogus", &["--bogus"]);
}

#[test]
fn unparsable_value_exits_2_and_writes_nothing() {
    assert_rejected(
        env!("CARGO_BIN_EXE_perf_baseline"),
        "reps",
        &["--reps", "x"],
    );
}

/// A misspelt `--quick` must not fall through to a full run.
#[test]
fn experiments_unknown_flag_exits_2() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    assert_rejected(exe, "quik", &["--quik", "--json", "out.json", "e1"]);
    assert_rejected(exe, "json", &["e1", "--json"]);
}
