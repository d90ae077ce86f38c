//! Network-wide heavy-hitter detection with no controller in the loop
//! (§8's suggestion, built), written against the typed register handles.
//!
//! Run: `cargo run --example heavy_hitters`

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode};
use swishmem_nf::{HeavyHitter, HhConfig, HhStatsHandle};

fn main() {
    const KEYS: u32 = 512;
    const THRESHOLD: u64 = 60_000; // bytes
    let cfg = HhConfig {
        count_reg: 0,
        keys: KEYS,
        threshold_bytes: THRESHOLD,
        egress_host: NodeId(HOST_BASE),
    };
    let stats: Vec<HhStatsHandle> = (0..4).map(|_| HhStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(4)
        .hosts(1)
        .seed(3)
        .register(RegisterSpec::ewo_counter(0, "hh_bytes", KEYS))
        .build(move |id| Box::new(HeavyHitter::new(cfg.clone(), s2[id.index()].clone())));
    dep.settle();

    // Zipf-skewed traffic: the few hottest destinations cross the global
    // threshold even though each ingress switch sees only a quarter.
    let router = EcmpRouter::new(4, RoutingMode::EcmpStable);
    let sched = FlowGen::new(
        FlowGenConfig {
            flow_rate: 30_000.0,
            mean_packets: 4.0,
            payload: 400,
            servers: 200,
            server_alpha: 1.3, // strong skew
            tcp: false,
            duration: SimDuration::millis(60),
            ..FlowGenConfig::default()
        },
        9,
    )
    .generate(&router);
    let t0 = dep.now();
    let mut oracle: std::collections::HashMap<Ipv4Addr, u64> = Default::default();
    for p in &sched {
        dep.inject(t0 + SimDuration::nanos(p.time.nanos()), p.ingress, 0, p.pkt);
        *oracle.entry(p.pkt.flow.dst).or_default() += p.pkt.wire_len() as u64;
    }
    dep.run_for(SimDuration::millis(100));

    let mut true_hh: Vec<(Ipv4Addr, u64)> = oracle
        .iter()
        .filter(|(_, &b)| b > THRESHOLD)
        .map(|(&d, &b)| (d, b))
        .collect();
    true_hh.sort_by_key(|&(_, b)| std::cmp::Reverse(b));

    // Detection is on the packet path: a switch flags a key when it next
    // processes a packet for it. Probe each hot destination once per
    // switch (one RTT of ordinary traffic suffices in steady state).
    let tp = dep.now();
    for (i, (d, _)) in true_hh.iter().enumerate() {
        for sw in 0..4 {
            let probe = DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(9, 9, 9, 9), 60_000 + i as u16, *d, 80),
                0,
                10,
            );
            dep.inject(
                tp + SimDuration::micros((i * 4 + sw) as u64 * 20),
                sw,
                0,
                probe,
            );
        }
    }
    dep.run_for(SimDuration::millis(20));

    println!("true heavy hitters (> {THRESHOLD} B across the whole fabric):");
    for (d, b) in &true_hh {
        let key = u32::from(*d) % KEYS;
        let flagged_everywhere = stats
            .iter()
            .all(|s| s.lock().expect("stats lock poisoned").is_flagged(key));
        println!(
            "  {d}: {b} B — flagged on all 4 switches: {flagged_everywhere}  (global count {})",
            dep.peek(0, 0, key)
        );
        assert!(flagged_everywhere, "heavy hitter missed");
    }
    let total_flags: usize = stats
        .iter()
        .map(|s| s.lock().expect("stats lock poisoned").flagged.len())
        .max()
        .unwrap_or(0);
    println!(
        "\n{} heavy hitters, ≤{} keys flagged per switch (hash buckets may alias) — detected from \
         replicated data-plane counters, zero controller round-trips ✓",
        true_hh.len(),
        total_flags
    );
    assert!(!true_hh.is_empty(), "workload should produce heavy hitters");
}
