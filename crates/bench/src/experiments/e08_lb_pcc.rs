//! E8 — §3.2: sharding the load balancer's connection state "falls short
//! if a flow is routed through a different switch, something that may
//! occur in various failure scenarios – or in the normal case, if recent
//! proposals for adaptive routing or multi-path TCP are adopted."
//!
//! A TCP workload runs through an ECMP fabric with a configurable
//! mid-flow path-deviation probability, against (a) the sharded baseline
//! (`LocalLb`, per-switch map) and (b) SwiShmem's SRO-backed LB.
//! Per-connection-consistency violations = mid-flow packets dropped for
//! lack of a mapping (or forwarded to a different DIP).

use crate::table::{f, ExperimentResult, Table};
use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode};
use swishmem_nf::{LbConfig, LbStatsHandle, LoadBalancer, LocalLb};

const VIP: Ipv4Addr = Ipv4Addr::new(20, 0, 0, 0);

fn lb_cfg() -> LbConfig {
    LbConfig {
        conn_reg: 0,
        keys: 32768,
        vip: VIP,
        backends: vec![
            (Ipv4Addr::new(10, 1, 0, 1), NodeId(HOST_BASE)),
            (Ipv4Addr::new(10, 1, 0, 2), NodeId(HOST_BASE + 1)),
            (Ipv4Addr::new(10, 1, 0, 3), NodeId(HOST_BASE + 2)),
        ],
    }
}

struct Out {
    flows: u64,
    packets: u64,
    violations: u64,
}

fn measure(shared: bool, flip: f64, fail_one: bool, quick: bool) -> Out {
    let n = 4;
    let stats: Vec<LbStatsHandle> = (0..n).map(|_| LbStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(n)
        .hosts(3)
        .seed(21)
        .register(RegisterSpec::sro(0, "lb_conn", 32768))
        .build(move |id| -> Box<dyn swishmem::NfApp> {
            if shared {
                Box::new(LoadBalancer::new(lb_cfg(), s2[id.index()].clone()))
            } else {
                Box::new(LocalLb::new(lb_cfg(), s2[id.index()].clone()))
            }
        });
    dep.settle();

    let mut router = EcmpRouter::new(
        n,
        if flip > 0.0 {
            RoutingMode::Multipath { flip_prob: flip }
        } else {
            RoutingMode::EcmpStable
        },
    );
    let gen_cfg = FlowGenConfig {
        flow_rate: if quick { 5_000.0 } else { 15_000.0 },
        mean_packets: 8.0,
        packet_gap: SimDuration::millis(1), // long-lived flows cross events
        duration: SimDuration::millis(if quick { 30 } else { 80 }),
        servers: 1, // every flow targets the VIP (rank 0 = 20.0.0.0)
        server_alpha: 0.0,
        tcp: true,
        ..FlowGenConfig::default()
    };
    let sched = FlowGen::new(gen_cfg, 22).generate(&router);
    let t0 = dep.now();
    let t_fail = t0 + SimDuration::millis(15);
    if fail_one {
        dep.schedule_fail(t_fail, 3);
        router.set_failed(3, true);
    }
    let mut flows = std::collections::HashSet::new();
    let mut packets = 0u64;
    for p in &sched {
        let at = t0 + SimDuration::nanos(p.time.nanos());
        // Traffic destined to a failed switch re-hashes (fabric reroute).
        let ingress = if fail_one && at >= t_fail && p.ingress == 3 {
            router.primary(&p.pkt.flow)
        } else {
            p.ingress
        };
        dep.inject(at, ingress, 0, p.pkt);
        flows.insert(p.pkt.flow);
        packets += 1;
    }
    dep.run_for(SimDuration::millis(150));
    let violations: u64 = stats
        .iter()
        .map(|s| s.lock().expect("stats lock poisoned").unmapped_drops)
        .sum();
    Out {
        flows: flows.len() as u64,
        packets,
        violations,
    }
}

/// Run E8.
pub fn run(quick: bool) -> ExperimentResult {
    let scenarios: Vec<(&str, f64, bool)> = vec![
        ("stable ECMP", 0.0, false),
        ("multipath 5%", 0.05, false),
        ("multipath 20%", 0.2, false),
        ("ECMP + switch failure", 0.0, true),
    ];
    let mut t = Table::new(
        "Per-connection-consistency violations per 1000 flows (4-switch LB)",
        &[
            "scenario",
            "flows",
            "packets",
            "sharded (LocalLb)",
            "SwiShmem (SRO)",
        ],
    );
    let mut shard_total = 0u64;
    let mut swish_total = 0u64;
    for (name, flip, fail) in &scenarios {
        let a = measure(false, *flip, *fail, quick);
        let b = measure(true, *flip, *fail, quick);
        shard_total += a.violations;
        swish_total += b.violations;
        t.row(vec![
            (*name).into(),
            a.flows.to_string(),
            a.packets.to_string(),
            f(1000.0 * a.violations as f64 / a.flows.max(1) as f64),
            f(1000.0 * b.violations as f64 / b.flows.max(1) as f64),
        ]);
    }
    let findings = vec![
        format!(
            "sharded LB suffered {} PCC violations across scenarios; SwiShmem {} — {}",
            shard_total,
            swish_total,
            if swish_total * 20 < shard_total.max(1) {
                "shared SRO state eliminates (nearly) all of them"
            } else {
                "shape NOT as expected"
            }
        ),
        "violations for the sharded baseline appear exactly when paths deviate (multipath) or a switch fails — §3.2's argument".into(),
    ];
    ExperimentResult {
        id: "E8".into(),
        title: "Load-balancer per-connection consistency: sharded vs SwiShmem".into(),
        paper_anchor: "§3.2 (sharding falls short), §4.1 (L4 LB, PCC)".into(),
        expectation: "baseline violates PCC under multipath/failure; SwiShmem ~0".into(),
        tables: vec![t],
        findings,
    }
}
