//! Capture workloads into `.swtrace` binary flow traces.
//!
//! Three sources, one sink:
//!
//! ```text
//! # Synthesize a CAIDA-style heavy-tail trace (streams to disk, memory
//! # bounded by concurrent flows — millions of flows are fine):
//! cargo run -p swishmem-bench --release --bin capture -- \
//!     --synth --flows 1000000 --seed 7 --out big.swtrace
//!
//! # Record a live deployment's ingress stream through the capture tap:
//! cargo run -p swishmem-bench --release --bin capture -- \
//!     --run --seed 7 --out run.swtrace
//!
//! # Convert a text trace (nf::workload::tracefile debug format):
//! cargo run -p swishmem-bench --release --bin capture -- \
//!     --import-text sched.txt --out sched.swtrace
//! ```
//!
//! A summary of the capture (records, bytes, clock span) is appended to
//! `results/E24_capture.json` unless `--json` overrides the path. A
//! missing or malformed `--import-text` file exits 2 and writes nothing.

use std::io::BufWriter;

use swishmem::prelude::*;
use swishmem::{NfDecision, RegisterSpec, SharedState};
use swishmem_bench::cli::{bad_input, Flags};
use swishmem_bench::json::Json;
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode};
use swishmem_replay::{
    capture_deployment_trace, records_from_text, synth_to_writer, SynthConfig, TraceMeta,
    TraceRecord, TraceWriter,
};

struct CountNf;

impl swishmem::NfApp for CountNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        st.add(0, u32::from(pkt.flow.dst) % 256, 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// Drive a FlowGen workload through a 3-switch deployment with the
/// capture tap armed and return the taped ingress stream.
fn record_live_run(seed: u64, flows_per_sec: f64) -> Vec<TraceRecord> {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(seed)
        .register(RegisterSpec::ewo_counter(0, "cnt", 256))
        .build(|_| Box::new(CountNf));
    dep.settle();
    let tap = dep.attach_capture(1 << 22);

    let router = EcmpRouter::new(3, RoutingMode::EcmpStable);
    let sched = FlowGen::new(
        FlowGenConfig {
            flow_rate: flows_per_sec,
            ..FlowGenConfig::default()
        },
        seed,
    )
    .generate(&router);
    let base = SimTime(dep.now().0 + 1_000_000);
    let n_hosts = dep.host_ids().len();
    for p in &sched {
        let t = SimTime(base.0 + p.time.nanos()).max(dep.now());
        let from = p.pkt.flow.src_port as usize % n_hosts;
        dep.inject(t, p.ingress % 3, from, p.pkt);
    }
    dep.run_for(SimDuration::millis(30));
    let (records, skipped) = capture_deployment_trace(&dep, &tap);
    eprintln!(
        "live run: {} scheduled, {} captured, {} skipped (non-ingress)",
        sched.len(),
        records.len(),
        skipped
    );
    records
}

fn write_records(path: &str, records: &[TraceRecord], meta: TraceMeta) -> (u64, TraceMeta) {
    let file = std::fs::File::create(path).expect("create output trace");
    let mut w = TraceWriter::new(BufWriter::new(file), meta).expect("write superblock");
    for r in records {
        w.push(*r).expect("records must be time-sorted");
    }
    let n = w.len();
    let (_, meta) = w.finish().expect("finalize trace");
    (n, meta)
}

const USAGE: &str = "\
usage: capture (--synth [--flows N] | --run [--rate F] | --import-text PATH)
               [--seed S] [--out PATH.swtrace] [--json PATH]
       --synth also takes [--clients N] [--servers N] [--ingress N]
               [--duration-ns N] [--udp]";

fn main() {
    let flags = Flags::parse(
        USAGE,
        &[
            "--out",
            "--json",
            "--seed",
            "--flows",
            "--clients",
            "--servers",
            "--ingress",
            "--duration-ns",
            "--rate",
            "--import-text",
        ],
        &["--synth", "--run", "--udp"],
    );
    let out = flags.value_or("--out", "capture.swtrace".to_string());
    let json_path = flags.value_or("--json", "results/E24_capture.json".to_string());
    let seed: u64 = flags.value_or("--seed", 1);

    let (source, count, meta) = if flags.has("--synth") {
        let flows: u64 = flags.value_or("--flows", 100_000);
        let cfg = SynthConfig {
            flows,
            clients: flags.value_or("--clients", 4_096),
            servers: flags.value_or("--servers", 256),
            ingress: flags.value_or("--ingress", 4),
            duration: flags.value_or("--duration-ns", flows.max(10_000) * 100),
            tcp: !flags.has("--udp"),
            ..SynthConfig::default()
        };
        let file = std::fs::File::create(&out).expect("create output trace");
        let meta_in = TraceMeta {
            flow_hint: flows,
            ..TraceMeta::new(cfg.ingress, seed, "synth")
        };
        let mut w = TraceWriter::new(BufWriter::new(file), meta_in).expect("write superblock");
        let n = synth_to_writer(&cfg, seed, &mut w).expect("synthesis");
        let (_, meta) = w.finish().expect("finalize trace");
        ("synth", n, meta)
    } else if flags.has("--run") {
        let rate: f64 = flags.value_or("--rate", 10_000.0);
        let records = record_live_run(seed, rate);
        let (n, meta) = write_records(&out, &records, TraceMeta::new(3, seed, "live-run"));
        ("live-run", n, meta)
    } else if let Some(text_path) = flags.get("--import-text") {
        let text = std::fs::read_to_string(text_path).unwrap_or_else(|e| bad_input(text_path, e));
        let records = records_from_text(&text).unwrap_or_else(|e| bad_input(text_path, e));
        let ingress = records
            .iter()
            .map(|r| u32::from(r.ingress))
            .max()
            .unwrap_or(0)
            + 1;
        let (n, meta) = write_records(&out, &records, TraceMeta::new(ingress, seed, "text-import"));
        ("text-import", n, meta)
    } else {
        flags.fail("pick a source: --synth, --run or --import-text");
    };

    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "captured {count} records ({bytes} bytes) from {source} -> {out} \
         [clock {}..{} ns]",
        meta.clock_base_ns, meta.clock_end_ns
    );

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let summary = Json::obj(vec![
        ("source", Json::str(source)),
        ("out", Json::str(&out)),
        ("seed", Json::from(seed)),
        ("records", Json::from(count)),
        ("bytes", Json::from(bytes)),
        ("ingress_count", Json::from(u64::from(meta.ingress_count))),
        ("clock_base_ns", Json::from(meta.clock_base_ns)),
        ("clock_end_ns", Json::from(meta.clock_end_ns)),
    ]);
    std::fs::write(&json_path, format!("{}\n", summary.pretty())).expect("write summary json");
    eprintln!("summary -> {json_path}");
}
