//! `trace_explain` — run an E17-style SRO fault-sweep with causal span
//! tracing attached, reconstruct every write's per-phase latency
//! breakdown, reconcile it against the `write_latency` histogram, and
//! export the trace as Chrome/Perfetto JSON.
//!
//! Usage:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin trace_explain -- \
//!     [--seed N] [--no-faults] [--out-dir results]
//! ```
//!
//! Artifacts (see `results/README.md` for the naming scheme):
//! * `<out>/trace_sro_seed<N>.perfetto.json` — load in ui.perfetto.dev
//! * `<out>/trace_sro_seed<N>.explain.json` — per-phase percentile summary
//!
//! Exit status is non-zero if the span-derived end-to-end latencies fail
//! to reconcile with the `write_latency` histogram samples.

use std::collections::BTreeMap;
use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::{NfApp, NfDecision, RegisterSpec, SharedState};
use swishmem_bench::cli::Flags;
use swishmem_bench::json::Json;
use swishmem_bench::scenarios::udp_write;
use swishmem_bench::spans::{explain, phase_histograms, to_perfetto, TraceBreakdown};
use swishmem_bench::table::{ns, Table};
use swishmem_simnet::{FaultAction, FaultGen, SpanEvent};

struct WriteNf;
impl NfApp for WriteNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.write(0, u32::from(pkt.flow.dst_port), u64::from(pkt.payload_len));
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

struct RunOutput {
    events: Vec<SpanEvent>,
    overflowed: u64,
    /// write_latency samples currently held per switch (a crashed switch
    /// loses its samples on reset — reconciliation is sub-multiset when
    /// the schedule contained crashes).
    latency_samples: Vec<u64>,
    crashes: usize,
    oracle_ok: bool,
}

fn run_sweep(seed: u64, with_faults: bool) -> RunOutput {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .register(RegisterSpec::sro(0, "t", 16))
        .build(|_| Box::new(WriteNf));
    let spans = dep.attach_tracing(1 << 20);
    dep.settle();
    let t0 = dep.now();
    let horizon = SimDuration::millis(60);
    let mut crashes = 0;
    if with_faults {
        let nodes = dep.switch_ids().to_vec();
        let links = dep.fault_links();
        let sched = FaultGen::new(seed).generate(&nodes, &links, horizon, 4);
        crashes = sched
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Crash { .. }))
            .count();
        dep.schedule_faults(t0, &sched);
    }
    for i in 0..48u64 {
        dep.inject(
            t0 + SimDuration::micros(i * 1000),
            (i % 3) as usize,
            0,
            udp_write((i % 16) as u16, 100 + i as u16),
        );
    }
    let ocfg = OracleConfig::new(t0 + horizon);
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    let end = t0 + horizon + ocfg.convergence_grace + SimDuration::millis(100);
    let oracle_ok = suite.run(&mut dep, end).is_ok();

    let c = spans.borrow();
    let mut latency_samples = Vec::new();
    for i in 0..3 {
        latency_samples.extend_from_slice(dep.metrics(i).cp.write_latency.samples());
    }
    RunOutput {
        events: c.entries().to_vec(),
        overflowed: c.overflowed(),
        latency_samples,
        crashes,
        oracle_ok,
    }
}

/// Reconcile: every histogram sample must equal the end-to-end latency
/// of some completed write trace (exact, nanosecond-for-nanosecond), and
/// with no crashes the match must be one-for-one.
fn reconcile(breakdowns: &[TraceBreakdown], out: &RunOutput) -> Result<String, String> {
    let mut totals: BTreeMap<u64, usize> = BTreeMap::new();
    let mut completed = 0usize;
    for b in breakdowns {
        if b.completed_write() {
            let slice_sum: u64 = b.slices.iter().map(|s| s.dur_ns).sum();
            if slice_sum != b.total_ns {
                return Err(format!(
                    "trace {}: phase sum {slice_sum} ns != end-to-end {} ns",
                    b.trace, b.total_ns
                ));
            }
            *totals.entry(b.total_ns).or_default() += 1;
            completed += 1;
        }
    }
    for &s in &out.latency_samples {
        match totals.get_mut(&s) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                return Err(format!(
                    "write_latency sample {s} ns has no matching completed trace"
                ))
            }
        }
    }
    if out.crashes == 0 && out.latency_samples.len() != completed {
        return Err(format!(
            "no crashes, but {} histogram samples vs {completed} completed traces",
            out.latency_samples.len()
        ));
    }
    Ok(format!(
        "{} write_latency samples reconciled against {completed} completed write traces \
         ({} crash episodes)",
        out.latency_samples.len(),
        out.crashes
    ))
}

fn main() {
    let flags = Flags::parse(
        "usage: trace_explain [--seed N] [--no-faults] [--out-dir DIR]",
        &["--seed", "--out-dir"],
        &["--no-faults"],
    );
    let seed: u64 = flags.value_or("--seed", 400);
    let with_faults = !flags.has("--no-faults");
    let out_dir = flags.value_or("--out-dir", "results".to_string());

    println!(
        "trace_explain: SRO fault sweep, seed {seed}, faults {}",
        if with_faults { "on" } else { "off" }
    );
    let out = run_sweep(seed, with_faults);
    if out.overflowed > 0 {
        eprintln!(
            "warning: span collector overflowed ({} events dropped); breakdown is partial",
            out.overflowed
        );
    }
    let breakdowns = explain(&out.events);
    let completed: Vec<&TraceBreakdown> =
        breakdowns.iter().filter(|b| b.completed_write()).collect();

    // Per-phase percentile table over completed writes.
    let completed_owned: Vec<TraceBreakdown> = completed.iter().map(|&b| b.clone()).collect();
    let mut t = Table::new(
        "Per-phase latency of completed SRO writes (gap to reach each phase)",
        &["phase", "n", "p50", "p90", "p99", "max", "mean"],
    );
    for (label, h) in phase_histograms(&completed_owned) {
        let s = h.summary();
        t.row(vec![
            label,
            s.count.to_string(),
            ns(s.p50_ns),
            ns(s.p90_ns),
            ns(s.p99_ns),
            ns(s.max_ns),
            ns(s.mean_ns as u64),
        ]);
    }
    let mut e2e = swishmem::Histogram::new();
    for b in &completed_owned {
        e2e.record_ns(b.total_ns);
    }
    let s = e2e.summary();
    t.row(vec![
        "TOTAL (ingress->release)".into(),
        s.count.to_string(),
        ns(s.p50_ns),
        ns(s.p90_ns),
        ns(s.p99_ns),
        ns(s.max_ns),
        ns(s.mean_ns as u64),
    ]);
    println!("\n{}", t.render());
    println!(
        "  traces: {} total, {} completed writes, oracle {}",
        breakdowns.len(),
        completed_owned.len(),
        if out.oracle_ok { "clean" } else { "VIOLATED" }
    );

    // Consistency gate.
    let verdict = match reconcile(&breakdowns, &out) {
        Ok(msg) => {
            println!("  consistency: OK — {msg}");
            true
        }
        Err(msg) => {
            eprintln!("  consistency: FAIL — {msg}");
            false
        }
    };

    // Artifacts.
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let perfetto_path = format!("{out_dir}/trace_sro_seed{seed}.perfetto.json");
    std::fs::write(&perfetto_path, to_perfetto(&out.events).pretty()).expect("write perfetto");
    let explain_path = format!("{out_dir}/trace_sro_seed{seed}.explain.json");
    let doc = Json::obj(vec![
        ("seed", Json::from(seed)),
        ("faults", Json::Bool(with_faults)),
        ("span_events", Json::from(out.events.len())),
        ("span_overflowed", Json::from(out.overflowed)),
        ("traces", Json::from(breakdowns.len())),
        ("completed_writes", Json::from(completed_owned.len())),
        ("crash_episodes", Json::from(out.crashes)),
        ("oracle_clean", Json::Bool(out.oracle_ok)),
        ("consistent", Json::Bool(verdict)),
        (
            "phases",
            Json::Arr(
                phase_histograms(&completed_owned)
                    .into_iter()
                    .map(|(label, h)| {
                        let s = h.summary();
                        Json::obj(vec![
                            ("phase", Json::str(label)),
                            ("count", Json::from(s.count)),
                            ("p50_ns", Json::from(s.p50_ns)),
                            ("p90_ns", Json::from(s.p90_ns)),
                            ("p99_ns", Json::from(s.p99_ns)),
                            ("max_ns", Json::from(s.max_ns)),
                            ("mean_ns", Json::Num(s.mean_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&explain_path, doc.pretty()).expect("write explain json");
    println!("  wrote {perfetto_path}");
    println!("  wrote {explain_path}");

    if !verdict {
        std::process::exit(1);
    }
}
