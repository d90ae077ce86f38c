//! E9 — §4.2 DDoS detection on EWO state: an attack whose traffic is
//! spread across many ingress switches is invisible to per-switch
//! sketches but detected by the EWO-replicated sketch almost as fast as
//! by a single switch seeing all traffic.
//!
//! Three configurations over the same attack mix:
//! (a) single switch, all traffic (the prior-work baseline, §3.2);
//! (b) 4 switches, unshared local sketches (`LocalDdos`);
//! (c) 4 switches, EWO-replicated sketch (`DdosDetector`).

use crate::table::{f, ns, ExperimentResult, Table};
use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::workload::{
    generate_attack, AttackConfig, EcmpRouter, FlowGen, FlowGenConfig, RoutingMode,
};
use swishmem_nf::{DdosConfig, DdosDetector, DdosStatsHandle, LocalDdos};

const DEPTH: u16 = 3;
const WIDTH: u32 = 2048;

fn ddos_cfg() -> DdosConfig {
    DdosConfig {
        row_regs: (0..DEPTH).collect(),
        width: WIDTH,
        total_reg: DEPTH,
        share_millis: 250, // alarm at 25% share
        min_total: 200,
        min_est: 300, // volumetric floor: a 4-way slice stays below it
        egress_host: NodeId(HOST_BASE),
    }
}

struct Out {
    attack_pkts: u64,
    mitigated: u64,
    detect_delay_ns: Option<u64>,
}

fn measure(n: usize, shared: bool, quick: bool) -> Out {
    let stats: Vec<DdosStatsHandle> = (0..n).map(|_| DdosStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut b = DeploymentBuilder::new(n).hosts(1).seed(31);
    for r in 0..DEPTH {
        b = b.register(RegisterSpec::ewo_counter(r, &format!("cm{r}"), WIDTH));
    }
    b = b.register(RegisterSpec::ewo_counter(DEPTH, "total", 4));
    let mut dep = b.build(move |id| -> Box<dyn swishmem::NfApp> {
        if shared {
            Box::new(DdosDetector::new(ddos_cfg(), s2[id.index()].clone()))
        } else {
            Box::new(LocalDdos::new(ddos_cfg(), s2[id.index()].clone()))
        }
    });
    dep.settle();
    let router = EcmpRouter::new(n, RoutingMode::EcmpStable);
    let horizon = SimDuration::millis(if quick { 30 } else { 80 });
    // Background: benign flows at ~40k pps.
    let bg = FlowGen::new(
        FlowGenConfig {
            flow_rate: 40_000.0,
            mean_packets: 1.0,
            duration: horizon,
            tcp: false,
            servers: 500,
            server_alpha: 0.3,
            ..FlowGenConfig::default()
        },
        32,
    )
    .generate(&router);
    // Attack: starts 1/4 into the run, ~30k pps to one victim.
    let attack_start = SimTime(horizon.as_nanos() / 4);
    let atk = generate_attack(
        &AttackConfig {
            victim: Ipv4Addr::new(20, 0, 0, 77),
            attackers: 512,
            rate_pps: 30_000.0,
            start: attack_start,
            duration: SimDuration::nanos(horizon.as_nanos() * 3 / 4),
            payload: 64,
        },
        &router,
        33,
    );
    let t0 = dep.now();
    let mut attack_pkts = 0u64;
    for p in bg.iter().chain(atk.iter()) {
        dep.inject(t0 + SimDuration::nanos(p.time.nanos()), p.ingress, 0, p.pkt);
        if p.pkt.flow.dst == Ipv4Addr::new(20, 0, 0, 77) {
            attack_pkts += 1;
        }
    }
    dep.run_for(horizon + SimDuration::millis(50));
    let mitigated: u64 = stats
        .iter()
        .map(|s| s.lock().expect("stats lock poisoned").mitigated)
        .sum();
    let detect = stats
        .iter()
        .filter_map(|s| s.lock().expect("stats lock poisoned").first_alarm_ns)
        .min()
        .map(|ns| ns.saturating_sub(t0.nanos() + attack_start.nanos()));
    Out {
        attack_pkts,
        mitigated,
        detect_delay_ns: detect,
    }
}

/// Run E9.
pub fn run(quick: bool) -> ExperimentResult {
    let single = measure(1, true, quick);
    let local4 = measure(4, false, quick);
    let shared4 = measure(4, true, quick);

    let mut t = Table::new(
        "DDoS detection under a 4-way-spread attack (25% share threshold)",
        &[
            "configuration",
            "attack pkts",
            "mitigated",
            "mitigated %",
            "detection delay",
        ],
    );
    for (name, o) in [
        ("1 switch, all traffic (oracle)", &single),
        ("4 switches, unshared sketches", &local4),
        ("4 switches, EWO-shared sketch", &shared4),
    ] {
        t.row(vec![
            name.into(),
            o.attack_pkts.to_string(),
            o.mitigated.to_string(),
            f(100.0 * o.mitigated as f64 / o.attack_pkts.max(1) as f64),
            o.detect_delay_ns.map(ns).unwrap_or_else(|| "never".into()),
        ]);
    }
    let shared_ok = shared4.mitigated * 2 > single.mitigated;
    let local_worse = local4.mitigated * 2 < shared4.mitigated.max(1);
    let findings = vec![
        format!(
            "EWO-shared detection mitigates {:.0}% vs single-switch oracle {:.0}% — within the same regime: {}",
            100.0 * shared4.mitigated as f64 / shared4.attack_pkts.max(1) as f64,
            100.0 * single.mitigated as f64 / single.attack_pkts.max(1) as f64,
            if shared_ok { "confirmed" } else { "NOT confirmed" }
        ),
        format!(
            "unshared per-switch sketches mitigate only {} packets (each switch sees 25% of the attack): {}",
            local4.mitigated,
            if local_worse { "miss the attack as predicted" } else { "unexpectedly effective" }
        ),
    ];
    ExperimentResult {
        id: "E9".into(),
        title: "Distributed DDoS detection on EWO sketches".into(),
        paper_anchor: "§4.2 (DDoS detection), §3.2 (traffic across multiple paths)".into(),
        expectation: "shared ≈ single-switch oracle; unshared misses the spread attack".into(),
        tables: vec![t],
        findings,
    }
}
