//! The bench binaries reject bad command lines up front: an unknown flag
//! or an unparsable value exits with status 2 and writes nothing (in
//! particular, `perf_baseline` must not append to its default output,
//! the committed `BENCH_simnet.json`).

use std::path::PathBuf;
use std::process::Command;

/// Run `perf_baseline` with `args` in a fresh empty directory; return
/// its exit code and that directory.
fn perf_baseline(case: &str, args: &[&str]) -> (Option<i32>, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_flags_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_perf_baseline"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn perf_baseline")
        .status;
    (status.code(), dir)
}

fn assert_rejected(case: &str, args: &[&str]) {
    let (code, dir) = perf_baseline(case, args);
    assert_eq!(code, Some(2), "perf_baseline {args:?} must exit 2");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(
        written.is_empty(),
        "perf_baseline {args:?} wrote {written:?}"
    );
}

#[test]
fn unknown_flag_exits_2_and_writes_nothing() {
    assert_rejected("bogus", &["--bogus"]);
}

#[test]
fn unparsable_value_exits_2_and_writes_nothing() {
    assert_rejected("reps", &["--reps", "x"]);
}
