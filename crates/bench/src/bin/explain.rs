//! `explain` — run the explained leader-crash scenario
//! ([`swishmem_bench::scenarios::crash_run`]: a 3-replica controller
//! group losing its leader mid-run, two range migrations, a seeded
//! switch fault schedule and a stream of SRO-style writes) with span
//! tracing and the control-plane flight recorder attached, then explain
//! it from both sides:
//!
//! * the data plane: every write's per-phase latency breakdown,
//!   reconciled nanosecond-for-nanosecond against the `write_latency`
//!   histogram;
//! * the control plane: the causal failover narrative (last beacon →
//!   suspicion → campaign → decree chosen → decree applied) and the
//!   failover, migration and compaction tables, with the journal's
//!   crash-to-election gap checked against the election log.
//!
//! Usage:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin explain -- \
//!     [--seed N] [--out-dir results]
//! ```
//!
//! Artifacts (see `results/README.md` for the naming scheme):
//! * `<out>/explain_seed<N>.perfetto.json` — one timeline, write spans
//!   and control-plane tracks together; load in ui.perfetto.dev
//! * `<out>/explain_seed<N>.explain.json` — phase, failover, migration
//!   and compaction summary plus both verdicts
//!
//! Exit status is 1 if either check fails: a `write_latency` sample
//! without a matching completed trace (one-for-one when the schedule
//! crashed no switch), or a journal failover gap more than 1 µs off the
//! election log.

use std::collections::BTreeMap;
use swishmem::prelude::*;
use swishmem::{Failover, Histogram};
use swishmem_bench::cli::Flags;
use swishmem_bench::json::Json;
use swishmem_bench::scenarios::{crash_run, CrashRun};
use swishmem_bench::spans::{
    explain, migration_outcome, phase_histograms, to_perfetto, TraceBreakdown,
};
use swishmem_bench::table::{ns, Table};

/// Reconcile: every histogram sample must equal the end-to-end latency
/// of some completed write trace (exact, nanosecond-for-nanosecond), and
/// with no switch crashes the match must be one-for-one.
fn reconcile(completed: &[TraceBreakdown], run: &CrashRun) -> Result<String, String> {
    let mut totals: BTreeMap<u64, usize> = BTreeMap::new();
    for b in completed {
        let slice_sum: u64 = b.slices.iter().map(|s| s.dur_ns).sum();
        if slice_sum != b.total_ns {
            return Err(format!(
                "trace {}: phase sum {slice_sum} ns != end-to-end {} ns",
                b.trace, b.total_ns
            ));
        }
        *totals.entry(b.total_ns).or_default() += 1;
    }
    for &s in &run.latency_samples {
        match totals.get_mut(&s) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                return Err(format!(
                    "write_latency sample {s} ns has no matching completed trace"
                ))
            }
        }
    }
    if run.switch_crashes == 0 && run.latency_samples.len() != completed.len() {
        return Err(format!(
            "no switch crashes, but {} histogram samples vs {} completed traces",
            run.latency_samples.len(),
            completed.len()
        ));
    }
    Ok(format!(
        "{} write_latency samples reconciled against {} completed write traces \
         ({} switch crash episodes)",
        run.latency_samples.len(),
        completed.len(),
        run.switch_crashes
    ))
}

/// Render the causal narrative for one failover, with offsets relative
/// to the old leader's last heard beacon (falling back to the earliest
/// known phase).
fn narrate(f: &Failover, t_crash: SimTime) -> String {
    let base = f
        .last_beacon
        .or(f.suspect_at)
        .or(f.election_start)
        .unwrap_or(f.elected_at);
    let off = |t: SimTime| format!("T+{:.3} ms", t.since(base).0 as f64 / 1e6);
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = f.last_beacon {
        parts.push(format!("last beacon at T = {} ns", t.0));
    }
    if let Some(t) = f.suspect_at {
        parts.push(format!("phi crossed at {}", off(t)));
    }
    if let Some(t) = f.election_start {
        parts.push(format!("campaign started at {}", off(t)));
    }
    if let Some(t) = f.chosen_at {
        parts.push(format!("election decree chosen at {}", off(t)));
    }
    parts.push(format!(
        "decree applied by the winner at {}",
        off(f.elected_at)
    ));
    format!(
        "failover to n{} (epoch {}) took {:.1} ms after the crash: {}",
        f.leader.0,
        f.epoch,
        f.elected_at.since(t_crash).0 as f64 / 1e6,
        parts.join(", ")
    )
}

fn opt_ns(v: Option<u64>) -> String {
    v.map(ns).unwrap_or_else(|| "-".into())
}

fn opt_json(v: Option<u64>) -> Json {
    v.map(Json::from).unwrap_or(Json::Null)
}

/// The per-phase table over completed writes, plus its JSON rows.
fn phase_table(completed: &[TraceBreakdown]) -> (Table, Json) {
    let mut t = Table::new(
        "Per-phase latency of completed writes (gap to reach each phase)",
        &["phase", "n", "p50", "p90", "p99", "max", "mean"],
    );
    let mut rows = Vec::new();
    let mut e2e = Histogram::new();
    for b in completed {
        e2e.record_ns(b.total_ns);
    }
    let mut phases = phase_histograms(completed);
    phases.push(("TOTAL (ingress->release)".into(), e2e));
    for (label, h) in phases {
        let s = h.summary();
        t.row(vec![
            label.clone(),
            s.count.to_string(),
            ns(s.p50_ns),
            ns(s.p90_ns),
            ns(s.p99_ns),
            ns(s.max_ns),
            ns(s.mean_ns as u64),
        ]);
        rows.push(Json::obj(vec![
            ("phase", Json::str(label)),
            ("count", Json::from(s.count)),
            ("p50_ns", Json::from(s.p50_ns)),
            ("p90_ns", Json::from(s.p90_ns)),
            ("p99_ns", Json::from(s.p99_ns)),
            ("max_ns", Json::from(s.max_ns)),
            ("mean_ns", Json::Num(s.mean_ns)),
        ]));
    }
    (t, Json::Arr(rows))
}

fn main() {
    let flags = Flags::parse(
        "usage: explain [--seed N] [--out-dir DIR]",
        &["--seed", "--out-dir"],
        &[],
    );
    let seed: u64 = flags.value_or("--seed", 801);
    let out_dir = flags.value_or("--out-dir", "results".to_string());

    println!("explain: leader crash under a switch fault schedule, seed {seed}");
    let run = crash_run(seed);
    if run.span_overflowed > 0 {
        eprintln!(
            "warning: span collector overflowed ({} events dropped); breakdown is partial",
            run.span_overflowed
        );
    }
    if run.journal_overflowed > 0 {
        eprintln!(
            "warning: journal overflowed ({} records dropped); narrative is partial",
            run.journal_overflowed
        );
    }

    // Data plane: per-phase breakdown of every completed write.
    let breakdowns = explain(&run.spans);
    let completed: Vec<TraceBreakdown> = breakdowns
        .iter()
        .filter(|b| b.completed_write())
        .cloned()
        .collect();
    let (pt, phases_json) = phase_table(&completed);
    println!("\n{}", pt.render());
    println!(
        "  traces: {} total, {} completed writes",
        breakdowns.len(),
        completed.len()
    );

    // Control plane: the post-crash failover, causally walked back from
    // the election decree to the dead leader's last beacon.
    let failovers = run.journal.failovers();
    let migrations = run.journal.migrations();
    let compactions = run.journal.compactions();
    println!();
    match failovers.iter().find(|f| f.elected_at >= run.t_crash) {
        Some(f) => println!("  {}", narrate(f, run.t_crash)),
        None => println!("  no post-crash failover found in the journal"),
    }

    let mut ft = Table::new(
        "Failovers (per-phase gaps reconstructed from the journal)",
        &[
            "epoch",
            "leader",
            "beacon->suspect",
            "suspect->campaign",
            "campaign->chosen",
            "chosen->applied",
            "total",
        ],
    );
    for f in &failovers {
        let gap = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
            (Some(a), Some(b)) if b >= a => Some(b.since(a).0),
            _ => None,
        };
        ft.row(vec![
            f.epoch.to_string(),
            format!("n{}", f.leader.0),
            opt_ns(gap(f.last_beacon, f.suspect_at)),
            opt_ns(gap(f.suspect_at, f.election_start)),
            opt_ns(gap(f.election_start, f.chosen_at)),
            opt_ns(gap(f.chosen_at, Some(f.elected_at))),
            opt_ns(
                f.last_beacon
                    .or(f.suspect_at)
                    .or(f.election_start)
                    .map(|b| f.elected_at.since(b).0),
            ),
        ]);
    }
    println!("\n{}", ft.render());

    let mut mt = Table::new(
        "Migrations (lifecycle windows from the journal)",
        &[
            "range",
            "route",
            "transfer",
            "dual-owner",
            "total",
            "outcome",
        ],
    );
    for m in &migrations {
        mt.row(vec![
            format!("reg{}@{}", m.reg, m.start),
            format!("n{}->n{}", m.from.0, m.to.0),
            opt_ns(m.dual_owner_at.map(|d| d.since(m.begin_at).0)),
            opt_ns(m.dual_owner_window()),
            opt_ns(m.window()),
            migration_outcome(m),
        ]);
    }
    println!("{}", mt.render());

    let mut ct = Table::new(
        "Log compactions (journal)",
        &["at", "node", "upto slot", "snapshot"],
    );
    for c in &compactions {
        ct.row(vec![
            format!("{} ns", c.at.0),
            format!("n{}", c.node.0),
            c.upto.to_string(),
            format!("{} B", c.snap_bytes),
        ]);
    }
    println!("{}", ct.render());

    match &run.oracle_report {
        Some(r) => println!("  oracle: VIOLATED\n    {r}"),
        None => println!("  oracle: clean (incl. journal SLO monitors)"),
    }

    // Check 1: span breakdowns reconcile with the latency histogram.
    let consistent = match reconcile(&completed, &run) {
        Ok(msg) => {
            println!("  consistency: OK — {msg}");
            true
        }
        Err(msg) => {
            eprintln!("  consistency: FAIL — {msg}");
            false
        }
    };

    // Check 2: the journal's crash-to-election gap agrees with the
    // controller's election log to within 1 µs.
    let journal_gap_ns = run.journal_gap_ns();
    let accuracy_ok = match (run.measured_gap_ns, journal_gap_ns) {
        (Some(m), Some(j)) => {
            let diff = m.abs_diff(j);
            let ok = diff <= 1_000;
            println!(
                "  accuracy: journal gap {j} ns vs election log {m} ns (|diff| {diff} ns, \
                 gate <=1000 ns — {})",
                if ok { "OK" } else { "FAIL" }
            );
            ok
        }
        (m, j) => {
            eprintln!("  accuracy: FAIL — measured gap {m:?}, journal gap {j:?} (both required)");
            false
        }
    };

    // Artifacts.
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let perfetto_path = format!("{out_dir}/explain_seed{seed}.perfetto.json");
    std::fs::write(
        &perfetto_path,
        to_perfetto(&run.spans, &run.journal).pretty(),
    )
    .expect("write perfetto");
    let explain_path = format!("{out_dir}/explain_seed{seed}.explain.json");
    let doc = Json::obj(vec![
        ("seed", Json::from(seed)),
        ("span_events", Json::from(run.spans.len())),
        ("span_overflowed", Json::from(run.span_overflowed)),
        ("traces", Json::from(breakdowns.len())),
        ("completed_writes", Json::from(completed.len())),
        ("switch_crash_episodes", Json::from(run.switch_crashes)),
        ("journal_records", Json::from(run.journal_records)),
        ("journal_overflowed", Json::from(run.journal_overflowed)),
        ("t_crash_ns", Json::from(run.t_crash.0)),
        ("measured_gap_ns", opt_json(run.measured_gap_ns)),
        ("journal_gap_ns", opt_json(journal_gap_ns)),
        ("oracle_clean", Json::Bool(run.oracle_report.is_none())),
        ("consistent", Json::Bool(consistent)),
        ("accuracy_ok", Json::Bool(accuracy_ok)),
        ("phases", phases_json),
        (
            "failovers",
            Json::Arr(
                failovers
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("epoch", Json::from(u64::from(f.epoch))),
                            ("leader", Json::from(u64::from(f.leader.0))),
                            ("elected_at_ns", Json::from(f.elected_at.0)),
                            ("last_beacon_ns", opt_json(f.last_beacon.map(|t| t.0))),
                            ("suspect_at_ns", opt_json(f.suspect_at.map(|t| t.0))),
                            ("election_start_ns", opt_json(f.election_start.map(|t| t.0))),
                            ("chosen_at_ns", opt_json(f.chosen_at.map(|t| t.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "migrations",
            Json::Arr(
                migrations
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("reg", Json::from(u64::from(m.reg))),
                            ("start", Json::from(u64::from(m.start))),
                            ("from", Json::from(u64::from(m.from.0))),
                            ("to", Json::from(u64::from(m.to.0))),
                            ("begin_at_ns", Json::from(m.begin_at.0)),
                            ("window_ns", opt_json(m.window())),
                            ("dual_owner_window_ns", opt_json(m.dual_owner_window())),
                            ("committed", Json::Bool(m.commit_at.is_some())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "compactions",
            Json::Arr(
                compactions
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("at_ns", Json::from(c.at.0)),
                            ("node", Json::from(u64::from(c.node.0))),
                            ("upto", Json::from(c.upto)),
                            ("snap_bytes", Json::from(c.snap_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&explain_path, doc.pretty()).expect("write explain json");
    println!("  wrote {perfetto_path}");
    println!("  wrote {explain_path}");

    if !(consistent && accuracy_ok) {
        std::process::exit(1);
    }
}
