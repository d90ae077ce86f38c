//! `swishmem-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics). A
//! detail line before it holds the seed, the git revision, noise
//! diagnostics and the first failed checks. A traced run also writes
//! its span table to `perfbench/out/` when that directory can be made.

use std::process::ExitCode;

use swishmem_perfbench::report::{detail_line, result_line};
use swishmem_perfbench::{run, RunConfig, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value} out of range (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig::new(args.workload, args.seed, args.seconds, args.trace);
    let outcome = run(&cfg);
    for m in outcome.metrics.iter().chain(&outcome.diag) {
        eprintln!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    if let Some(tsv) = &outcome.spans_tsv {
        let path = format!(
            "perfbench/out/spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        );
        match std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, tsv)) {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("spans not written ({path}): {e}"),
        }
    }
    println!(
        "{}",
        detail_line(args.workload.name(), args.seed, &git_rev(), &outcome)
    );
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
