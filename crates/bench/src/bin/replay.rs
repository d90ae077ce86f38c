//! Replay `.swtrace` flow traces through a deployment — sequential or
//! sharded — and run the oracle-armed scenario packs.
//!
//! ```text
//! # Stream a trace through the protocol deployment (ring ingest,
//! # backpressure accounting, deterministic digest):
//! cargo run -p swishmem-bench --release --bin replay -- \
//!     --trace big.swtrace --seed 7 --speedup 4
//!
//! # Replay through the sharded leaf-spine fabric and check the digest
//! # is shard-count invariant:
//! cargo run -p swishmem-bench --release --bin replay -- \
//!     --trace big.swtrace --leafspine 16x4 --shards 2
//!
//! # Run the scenario packs (all five + sabotage negative):
//! cargo run -p swishmem-bench --release --bin replay -- --packs [--quick]
//! ```
//!
//! A JSON report lands in `results/E24_replay.json` (override with
//! `--json`). Exits 1 if a scenario pack fails its gates, and 2 without
//! writing anything if the trace is missing, truncated or corrupt.

use std::fs::File;
use std::io::BufReader;

use swishmem::prelude::*;
use swishmem::{NfDecision, RegisterSpec, SharedState};
use swishmem_bench::cli::{bad_input, Flags};
use swishmem_bench::json::Json;
use swishmem_bench::shardnet::{
    run_leaf_spine_injected, trace_to_leaf_spine, LeafSpineSpec, ShardRunConfig,
};
use swishmem_replay::{
    replay_digest, replay_trace, run_pack, PackConfig, PackKind, ReplayConfig, Sabotage,
    TraceError, TraceReader,
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

/// Open `trace` and validate its superblock; a missing or corrupt file
/// exits 2 with the typed error.
fn open_trace(trace: &str) -> TraceReader<BufReader<File>> {
    File::open(trace)
        .map_err(TraceError::from)
        .and_then(|f| TraceReader::new(BufReader::new(f)))
        .unwrap_or_else(|e| bad_input(trace, e))
}

fn proto_replay(trace: &str, seed: u64, cfg: &ReplayConfig) -> Json {
    let mut reader = open_trace(trace);
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(seed)
        .register(RegisterSpec::ewo_counter(0, "cnt", 256))
        .build(|_| Box::new(CountNf));
    dep.settle();
    let start = SimTime(dep.now().0 + 1_000_000);
    let stats = replay_trace(&mut dep, &mut reader, &ReplayConfig { start, ..*cfg })
        .unwrap_or_else(|e| bad_input(trace, e));
    dep.run_for(SimDuration::millis(10));
    let digest = replay_digest(&dep, 256);
    eprintln!(
        "proto replay: {} records, {} stalls (max occupancy {}), {:.0} records/s, digest {digest:016x}",
        stats.records, stats.stalls, stats.max_occupancy, stats.records_per_sec
    );
    Json::obj(vec![
        ("mode", Json::str("proto")),
        ("records", Json::from(stats.records)),
        ("injected", Json::from(stats.injected)),
        ("stalls", Json::from(stats.stalls)),
        ("max_occupancy", Json::from(stats.max_occupancy)),
        ("records_per_sec", Json::Num(stats.records_per_sec)),
        ("digest", Json::str(format!("{digest:016x}"))),
    ])
}

fn leafspine_replay(trace: &str, spec: LeafSpineSpec, shards: usize) -> Json {
    let records = open_trace(trace)
        .read_all()
        .unwrap_or_else(|e| bad_input(trace, e));
    let injections = trace_to_leaf_spine(&spec, &records);
    let o = run_leaf_spine_injected(&ShardRunConfig::scaling(spec, shards, 0), &injections);
    eprintln!(
        "leaf-spine replay ({}x{}, {} shards): {} events, digest {:016x}, {:.0} events/s",
        spec.leaves,
        spec.spines,
        shards,
        o.events,
        o.digest,
        o.wall_events_per_sec()
    );
    Json::obj(vec![
        ("mode", Json::str("leafspine")),
        ("leaves", Json::from(u64::from(spec.leaves))),
        ("spines", Json::from(u64::from(spec.spines))),
        ("shards", Json::from(shards)),
        ("records", Json::from(records.len())),
        ("events", Json::from(o.events)),
        ("digest", Json::str(format!("{:016x}", o.digest))),
        ("wall_events_per_sec", Json::Num(o.wall_events_per_sec())),
    ])
}

fn run_packs(seed: u64, quick: bool, only: Option<&str>) -> (Json, bool) {
    let mut reports = Vec::new();
    let mut all_pass = true;
    for kind in PackKind::ALL {
        if let Some(name) = only {
            if kind.name() != name {
                continue;
            }
        }
        let r = run_pack(&PackConfig::new(kind, seed, quick));
        eprintln!(
            "pack {:<13} {} ({} records, {} stalls){}",
            r.name,
            if r.pass { "PASS" } else { "FAIL" },
            r.records,
            r.stalls,
            if r.pass {
                String::new()
            } else {
                format!(" {:?}", r.violations)
            }
        );
        all_pass &= r.pass;
        reports.push(r);
    }
    // The negative control: a sabotaged feed must fail.
    if only.is_none() {
        let sab = run_pack(&PackConfig {
            sabotage: Some(Sabotage::DuplicateFlowRecord),
            ..PackConfig::new(PackKind::FlashCrowd, seed, quick)
        });
        eprintln!(
            "pack flash_crowd (sabotaged) {} — expected FAIL",
            if sab.pass { "PASS" } else { "FAIL" }
        );
        all_pass &= !sab.pass;
        reports.push(sab);
    }
    let json = Json::Arr(
        reports
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("pack", Json::str(r.name)),
                    ("pass", Json::Bool(r.pass)),
                    ("records", Json::from(r.records)),
                    ("stalls", Json::from(r.stalls)),
                    (
                        "violations",
                        Json::Arr(r.violations.iter().map(Json::str).collect()),
                    ),
                    (
                        "measures",
                        Json::obj(
                            r.measures
                                .iter()
                                .map(|(k, v)| (*k, Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    (json, all_pass)
}

const USAGE: &str = "\
usage: replay --trace PATH [--leafspine LxS --shards N | --speedup F --batch N --ring N]
       replay --packs [--quick] [--pack NAME] [--seed S] [--json PATH]";

fn main() {
    let flags = Flags::parse(
        USAGE,
        &[
            "--seed",
            "--json",
            "--trace",
            "--leafspine",
            "--shards",
            "--speedup",
            "--batch",
            "--ring",
            "--pack",
        ],
        &["--packs", "--quick"],
    );
    let seed: u64 = flags.value_or("--seed", 1);
    let json_path = flags.value_or("--json", "results/E24_replay.json".to_string());
    let mut sections: Vec<(&str, Json)> = Vec::new();
    let mut ok = true;

    if let Some(trace) = flags.get("--trace") {
        let leafspine = flags.get_with("--leafspine", |dims| {
            LeafSpineSpec::parse(&format!("leaf-spine:{dims}"))
        });
        if let Some(spec) = leafspine {
            let shards: usize = flags.value_or("--shards", 1);
            sections.push(("leafspine", leafspine_replay(trace, spec, shards)));
        } else {
            let cfg = ReplayConfig {
                speedup: flags.value_or("--speedup", 1.0),
                batch: flags.value_or("--batch", 512),
                ring_capacity: flags.value_or("--ring", 4096),
                ..ReplayConfig::default()
            };
            sections.push(("proto", proto_replay(trace, seed, &cfg)));
        }
    }
    if flags.has("--packs") || flags.get("--pack").is_some() {
        let (json, pass) = run_packs(seed, flags.has("--quick"), flags.get("--pack"));
        ok &= pass;
        sections.push(("packs", json));
    }
    if sections.is_empty() {
        flags.fail("nothing to do: give --trace or --packs");
    }

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let report = Json::obj(sections);
    std::fs::write(&json_path, format!("{}\n", report.pretty())).expect("write report json");
    eprintln!("report -> {json_path}");
    if !ok {
        eprintln!("replay: a scenario pack failed its gates");
        std::process::exit(1);
    }
}
