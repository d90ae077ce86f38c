//! Engine performance baseline: runs the engine and nf-pipeline
//! scenarios outside criterion and records events/sec, ns/event, and
//! peak event-queue depth so every PR has a perf trajectory to compare
//! against.
//!
//! Usage:
//!
//! ```text
//! cargo run -p swishmem-bench --release --bin perf_baseline -- \
//!     [--label NAME] [--out BENCH_simnet.json] [--reps N] \
//!     [--shards N] [--topology leaf-spine:<leaves>x<spines>]
//! ```
//!
//! The output file holds a JSON array of labeled runs; an existing file
//! is appended to (never rewritten), so before/after pairs of the same
//! scenario accumulate in one artifact.
//!
//! `--topology` appends a sharded leaf-spine scenario (driven through
//! [`swishmem_bench::shardnet`]) at the shard count given by `--shards`
//! (default 1); the scenario label encodes both, e.g.
//! `leafspine_248x8_shards8`. Sharded scenarios report the critical-path
//! events/s alongside the wall-clock number, since wall-clock parallel
//! speedup needs parallel hardware.

use std::net::Ipv4Addr;
use std::time::Instant;
use swishmem::prelude::*;
use swishmem::{NfDecision, RegisterSpec, SharedState};
use swishmem_bench::cli::Flags;
use swishmem_bench::json::Json;
use swishmem_bench::shardnet::{run_leaf_spine, LeafSpineSpec, ShardRunConfig};
use swishmem_nf::{DdosConfig, DdosDetector, DdosStatsHandle};
use swishmem_replay::{replay_trace, synth_trace_bytes, ReplayConfig, SynthConfig, TraceReader};
use swishmem_simnet::{Ctx, LinkParams, Node, ShardedEngine};
use swishmem_wire::{DataPacket, FlowKey, Packet, PacketBody};

/// Bounces packets back and forth `ttl` times.
struct Echo {
    ttl: u32,
}
impl Node for Echo {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            if d.flow_seq < self.ttl {
                let mut d2 = d;
                d2.flow_seq += 1;
                ctx.send(pkt.src, PacketBody::Data(d2));
            }
        }
    }
}

fn ping() -> Packet {
    Packet::data(
        NodeId(0),
        NodeId(1),
        DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
            0,
            64,
        ),
    )
}

struct Measured {
    name: String,
    events: u64,
    wall_ns: u64,
    peak_queue_depth: usize,
    /// Critical-path compute ns (sharded scenarios only).
    crit_ns: Option<u64>,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }
    fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / self.events as f64
    }
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(&self.name)),
            ("events", Json::from(self.events)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("events_per_sec", Json::Num(self.events_per_sec())),
            ("ns_per_event", Json::Num(self.ns_per_event())),
            ("peak_queue_depth", Json::from(self.peak_queue_depth)),
        ];
        if let Some(crit) = self.crit_ns {
            fields.push(("crit_ns", Json::from(crit)));
            fields.push((
                "crit_events_per_sec",
                Json::Num(self.events as f64 / (crit.max(1) as f64 / 1e9)),
            ));
        }
        Json::obj(fields)
    }
}

/// Run `setup() -> sim`, drive it to quiescence `reps` times, and keep
/// the fastest run (least scheduler noise).
fn measure_sim(
    name: &str,
    reps: u32,
    setup: impl Fn() -> ShardedEngine,
    drive: impl Fn(&mut ShardedEngine),
) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let mut sim = setup();
        let t = Instant::now();
        drive(&mut sim);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let m = Measured {
            name: name.to_string(),
            events: sim.events_processed(),
            wall_ns,
            peak_queue_depth: sim.peak_queue_depth(),
            crit_ns: None,
        };
        if best.as_ref().map(|b| m.wall_ns < b.wall_ns).unwrap_or(true) {
            best = Some(m);
        }
    }
    best.expect("reps >= 1")
}

const EVENTS: u64 = 10_000;

fn ping_pong(reps: u32) -> Measured {
    measure_sim(
        "ping_pong_10k_events",
        reps,
        || {
            let mut sim = ShardedEngine::new(1, 1);
            sim.add_node(NodeId(0), Box::new(Echo { ttl: EVENTS as u32 }));
            sim.add_node(NodeId(1), Box::new(Echo { ttl: EVENTS as u32 }));
            sim.topology_mut()
                .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
            sim.inject(SimTime::ZERO, ping());
            sim
        },
        |sim| {
            sim.run_until_quiescent(SimTime(10_000_000_000));
            assert!(sim.stats().delivered_total().packets >= EVENTS);
        },
    )
}

fn lossy_jittered(reps: u32) -> Measured {
    measure_sim(
        "lossy_jittered_10k_events",
        reps,
        || {
            let mut sim = ShardedEngine::new(7, 1);
            sim.add_node(NodeId(0), Box::new(Echo { ttl: u32::MAX }));
            sim.add_node(NodeId(1), Box::new(Echo { ttl: u32::MAX }));
            sim.topology_mut().connect(
                NodeId(0),
                NodeId(1),
                LinkParams::lossy(0.05).with_jitter(SimDuration::micros(3)),
            );
            for i in 0..EVENTS / 4 {
                sim.inject(SimTime(i * 1000), ping());
            }
            sim
        },
        |sim| {
            sim.run_until_quiescent(SimTime(10_000_000_000));
        },
    )
}

/// The nf-pipeline DDoS scenario: EWO counters with mirror multicast and
/// periodic sync — the protocol path the zero-copy work targets.
fn nf_ddos(reps: u32) -> Measured {
    let build = || {
        let cfg = DdosConfig {
            row_regs: vec![0, 1, 2],
            width: 2048,
            total_reg: 3,
            share_millis: 1001,
            min_total: u64::MAX,
            min_est: u64::MAX,
            egress_host: NodeId(HOST_BASE),
        };
        let mut b = DeploymentBuilder::new(3).hosts(1);
        for r in 0..3u16 {
            b = b.register(RegisterSpec::ewo_counter(r, &format!("cm{r}"), 2048));
        }
        b = b.register(RegisterSpec::ewo_counter(3, "tot", 4));
        let mut dep =
            b.build(move |_| Box::new(DdosDetector::new(cfg.clone(), DdosStatsHandle::default())));
        dep.settle();
        dep
    };
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let mut dep = build();
        let pre_events = dep.sim.events_processed();
        let t0 = dep.now();
        for i in 0..500u64 {
            dep.inject(
                t0 + SimDuration::micros(i * 2),
                (i % 3) as usize,
                0,
                DataPacket::udp(
                    FlowKey::udp(
                        Ipv4Addr::new(1, 1, 1, 1),
                        (1000 + i) as u16,
                        Ipv4Addr::new(20, 0, 0, (i % 200) as u8),
                        80,
                    ),
                    0,
                    64,
                ),
            );
        }
        let t = Instant::now();
        dep.run_for(SimDuration::millis(30));
        let wall_ns = t.elapsed().as_nanos() as u64;
        let m = Measured {
            name: "nf_ddos_500pkts_ewo_sync".to_string(),
            events: dep.sim.events_processed() - pre_events,
            wall_ns,
            peak_queue_depth: dep.sim.peak_queue_depth(),
            crit_ns: None,
        };
        if best.as_ref().map(|b| m.wall_ns < b.wall_ns).unwrap_or(true) {
            best = Some(m);
        }
    }
    best.expect("reps >= 1")
}

/// The replay-lab counting NF: every packet bumps a per-destination EWO
/// counter (mirror of the E24 protocol-path workload).
struct ReplayCountNf;
impl swishmem::NfApp for ReplayCountNf {
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

/// Replay-lab ingest: a synthesized heavy-tail `.swtrace` streamed
/// through the reader → ring → inject path into a counting-NF
/// deployment. Synthesis happens once outside the timed region; the
/// measurement is the ingest + engine path the replay lab exercises.
fn replay_ingest(reps: u32) -> Measured {
    let cfg = SynthConfig {
        flows: 4_000,
        ingress: 3,
        ..SynthConfig::default()
    };
    let bytes = synth_trace_bytes(&cfg, 31);
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let mut dep = DeploymentBuilder::new(3)
            .hosts(2)
            .seed(31)
            .register(RegisterSpec::ewo_counter(0, "cnt", 256))
            .build(|_| Box::new(ReplayCountNf));
        dep.settle();
        let pre = dep.sim.events_processed();
        let start = SimTime(dep.now().0 + 1_000_000);
        let mut reader =
            TraceReader::new(std::io::Cursor::new(&bytes)).expect("in-memory trace must parse");
        let t = Instant::now();
        replay_trace(
            &mut dep,
            &mut reader,
            &ReplayConfig {
                start,
                ..ReplayConfig::default()
            },
        )
        .expect("in-memory replay");
        let wall_ns = t.elapsed().as_nanos() as u64;
        let m = Measured {
            name: "replay_ingest_4k_flows".to_string(),
            events: dep.sim.events_processed() - pre,
            wall_ns,
            peak_queue_depth: dep.sim.peak_queue_depth(),
            crit_ns: None,
        };
        if best.as_ref().map(|b| m.wall_ns < b.wall_ns).unwrap_or(true) {
            best = Some(m);
        }
    }
    best.expect("reps >= 1")
}

/// A sharded leaf-spine scenario at a given shard count: the Zipf NF
/// sketch workload from `shardnet`, labeled `leafspine_<L>x<S>_shardsN`.
fn sharded_leaf_spine(spec: LeafSpineSpec, shards: usize, reps: u32) -> Measured {
    let name = format!("leafspine_{}x{}_shards{}", spec.leaves, spec.spines, shards);
    let injections = 4_000;
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let o = run_leaf_spine(&ShardRunConfig::scaling(spec, shards, injections));
        let m = Measured {
            name: name.clone(),
            events: o.events,
            wall_ns: o.wall_ns,
            peak_queue_depth: o.peak_queue_depth,
            crit_ns: Some(o.crit_ns),
        };
        if best.as_ref().map(|b| m.wall_ns < b.wall_ns).unwrap_or(true) {
            best = Some(m);
        }
    }
    best.expect("reps >= 1")
}

/// Append `run` to the JSON array in `path` (creating it if missing).
fn append_run(path: &str, run: Json) {
    let rendered = run.pretty();
    let entry: String = rendered
        .trim_end()
        .lines()
        .map(|l| format!("  {l}\n"))
        .collect();
    let content = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) => {
                    let head = head.trim_end();
                    if head.ends_with('[') {
                        format!("{head}\n{entry}]\n")
                    } else {
                        format!("{head},\n{entry}]\n")
                    }
                }
                None => panic!("{path} exists but is not a JSON array; refusing to overwrite"),
            }
        }
        Err(_) => format!("[\n{entry}]\n"),
    };
    std::fs::write(path, content).expect("write baseline json");
}

const USAGE: &str = "usage: perf_baseline [--label NAME] [--out PATH.json] [--reps N] \
                     [--shards N] [--topology leaf-spine:<L>x<S>]";

fn main() {
    let flags = Flags::parse(
        USAGE,
        &["--label", "--out", "--reps", "--shards", "--topology"],
        &[],
    );
    let label = flags.value_or("--label", "current".to_string());
    let out = flags.value_or("--out", "BENCH_simnet.json".to_string());
    let reps: u32 = flags.value_or("--reps", 5);
    let shards: usize = flags.value_or("--shards", 1);
    let topology = flags.get_with("--topology", LeafSpineSpec::parse);

    eprintln!("measuring engine baseline ({reps} reps per scenario) ...");
    let mut scenarios = vec![
        ping_pong(reps),
        lossy_jittered(reps),
        nf_ddos(reps),
        replay_ingest(reps),
    ];
    if let Some(spec) = topology {
        scenarios.push(sharded_leaf_spine(spec, shards, reps));
    }
    for m in &scenarios {
        eprintln!(
            "  {:<28} {:>12.0} events/s  {:>8.1} ns/event  peak queue {}",
            m.name,
            m.events_per_sec(),
            m.ns_per_event(),
            m.peak_queue_depth
        );
    }

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run = Json::obj(vec![
        ("label", Json::str(&label)),
        ("unix_time", Json::from(unix_secs)),
        (
            "scenarios",
            Json::Arr(scenarios.iter().map(Measured::to_json).collect()),
        ),
    ]);
    append_run(&out, run);
    eprintln!("appended run '{label}' to {out}");
}
