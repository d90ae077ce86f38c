//! Distributed DDoS detection on an EWO-replicated count-min sketch.
//!
//! A volumetric attack is sprayed across all four ingress switches, so no
//! single switch sees enough of it to alarm locally — but because every
//! switch reads the *global* sketch (§4.2), the fabric detects and
//! mitigates it anyway.
//!
//! Run: `cargo run --example ddos_mitigation`

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::workload::{
    generate_attack, AttackConfig, EcmpRouter, FlowGen, FlowGenConfig, RoutingMode,
};
use swishmem_nf::{DdosConfig, DdosDetector, DdosStatsHandle};

fn main() {
    const DEPTH: u16 = 3;
    const WIDTH: u32 = 2048;
    let cfg = DdosConfig {
        row_regs: (0..DEPTH).collect(),
        width: WIDTH,
        total_reg: DEPTH,
        share_millis: 250,
        min_total: 200,
        min_est: 300,
        egress_host: NodeId(HOST_BASE),
    };
    let stats: Vec<DdosStatsHandle> = (0..4).map(|_| DdosStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut b = DeploymentBuilder::new(4).hosts(1);
    for r in 0..DEPTH {
        b = b.register(RegisterSpec::ewo_counter(r, &format!("cm_row{r}"), WIDTH));
    }
    b = b.register(RegisterSpec::ewo_counter(DEPTH, "cm_total", 4));
    let mut dep = b.build(move |id| {
        Box::new(DdosDetector::new(cfg.clone(), s2[id.index()].clone())) as Box<dyn swishmem::NfApp>
    });
    dep.settle();

    let router = EcmpRouter::new(4, RoutingMode::EcmpStable);
    let horizon = SimDuration::millis(60);
    let bg = FlowGen::new(
        FlowGenConfig {
            flow_rate: 40_000.0,
            mean_packets: 1.0,
            tcp: false,
            servers: 400,
            server_alpha: 0.3,
            duration: horizon,
            ..FlowGenConfig::default()
        },
        1,
    )
    .generate(&router);
    let victim = Ipv4Addr::new(20, 0, 0, 77);
    let attack_start = SimTime(15_000_000); // 15 ms in
    let atk = generate_attack(
        &AttackConfig {
            victim,
            attackers: 400,
            rate_pps: 40_000.0,
            start: attack_start,
            duration: SimDuration::millis(45),
            payload: 64,
        },
        &router,
        2,
    );
    let t0 = dep.now();
    let mut per_switch = [0u64; 4];
    for p in bg.iter().chain(atk.iter()) {
        dep.inject(t0 + SimDuration::nanos(p.time.nanos()), p.ingress, 0, p.pkt);
        if p.pkt.flow.dst == victim {
            per_switch[p.ingress] += 1;
        }
    }
    dep.run_for(horizon + SimDuration::millis(30));

    println!("attack traffic split across ingress switches: {per_switch:?}");
    println!("\nper-switch detector state:");
    let mut total_mitigated = 0;
    for (i, s) in stats.iter().enumerate() {
        let s = s.lock().expect("stats lock poisoned");
        let delay = s
            .first_alarm_ns
            .map(|ns| {
                format!(
                    "{:.2} ms after attack start",
                    (ns as f64 - (t0.nanos() + attack_start.nanos()) as f64) / 1e6
                )
            })
            .unwrap_or_else(|| "never".into());
        println!(
            "  switch {i}: {} pkts seen, {} mitigated, first alarm {}",
            s.packets, s.mitigated, delay
        );
        total_mitigated += s.mitigated;
    }
    let attack_total: u64 = per_switch.iter().sum();
    println!(
        "\nmitigated {total_mitigated}/{attack_total} attack packets ({:.0}%) — every switch alarmed on the GLOBAL sketch despite seeing only ~25% of the attack locally ✓",
        100.0 * total_mitigated as f64 / attack_total as f64
    );
    assert!(total_mitigated * 2 > attack_total, "mitigation below 50%");
}
