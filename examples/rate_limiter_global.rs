//! Global per-user rate limiting across ingress switches (§4.2).
//!
//! A user sprays traffic over three switches to dodge a per-switch
//! limiter. With the per-user meter on an EWO windowed counter, the
//! switches enforce the user's *aggregate* budget — modulo "a few
//! additional packets" of eventual-consistency slack, which we print.
//!
//! Run: `cargo run --example rate_limiter_global`

use std::net::Ipv4Addr;
use swishmem::prelude::*;
use swishmem::RegisterSpec;
use swishmem_nf::{RateLimitConfig, RateLimitStatsHandle, RateLimiter};

fn main() {
    const LIMIT: u64 = 20_000; // bytes per 50 ms window
    let window = SimDuration::millis(50);
    let cfg = RateLimitConfig {
        meter_reg: 0,
        keys: 256,
        bytes_per_window: LIMIT,
        egress_host: NodeId(HOST_BASE),
    };
    let stats: Vec<RateLimitStatsHandle> =
        (0..3).map(|_| RateLimitStatsHandle::default()).collect();
    let s2 = stats.clone();
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .register(RegisterSpec::ewo_windowed(0, "meters", 256, window))
        .build(move |id| Box::new(RateLimiter::new(cfg.clone(), s2[id.index()].clone())));
    dep.settle();

    // The hog offers 5× its budget, round-robining across switches;
    // a quiet user sends a trickle.
    let hog = Ipv4Addr::new(10, 0, 0, 1);
    let quiet = Ipv4Addr::new(10, 0, 0, 2);
    let pkt = |user: Ipv4Addr, seq: u32| {
        DataPacket::udp(
            FlowKey::udp(user, 1000, Ipv4Addr::new(99, 9, 9, 9), 80),
            seq,
            72,
        ) // 100 B wire
    };
    let t0 = dep.now();
    let win_ns = window.as_nanos();
    let aligned = SimTime(((t0.nanos() / win_ns) + 1) * win_ns + 1000);
    let offered = 5 * LIMIT / 100;
    let gap = win_ns / (offered + 1);
    for i in 0..offered {
        dep.sim.inject(
            aligned + SimDuration::nanos(i * gap),
            swishmem_wire::Packet::data(
                NodeId(HOST_BASE),
                dep.switch_ids()[(i % 3) as usize],
                pkt(hog, i as u32),
            ),
        );
        if i % 20 == 0 {
            dep.sim.inject(
                aligned + SimDuration::nanos(i * gap + 500),
                swishmem_wire::Packet::data(
                    NodeId(HOST_BASE),
                    dep.switch_ids()[0],
                    pkt(quiet, i as u32),
                ),
            );
        }
    }
    dep.run_until(aligned + window + SimDuration::millis(10));

    let mut admitted = 0u64;
    let mut dropped = 0u64;
    println!("per-switch limiter decisions for the hog's window:");
    for (i, s) in stats.iter().enumerate() {
        let s = s.lock().expect("stats lock poisoned");
        println!(
            "  switch {i}: admitted {} pkts ({} B), dropped {}",
            s.admitted, s.admitted_bytes, s.dropped
        );
        admitted += s.admitted_bytes;
        dropped += s.dropped;
    }
    // The quiet user's packets are part of `admitted`; subtract them.
    let quiet_bytes = (offered / 20 + 1) * 100;
    let hog_admitted = admitted.saturating_sub(quiet_bytes);
    println!(
        "\nhog admitted {hog_admitted} B of a {LIMIT} B aggregate budget (offered {} B), {dropped} pkts dropped",
        offered * 100
    );
    let excess = hog_admitted.saturating_sub(LIMIT);
    println!(
        "over-admission from eventual consistency: {excess} B ({:.1}% of the limit) — 'a few additional packets' ✓",
        100.0 * excess as f64 / LIMIT as f64
    );
    // The quiet-user byte estimate is approximate (±a packet or two), so
    // allow a small tolerance below the limit.
    assert!(hog_admitted >= LIMIT * 95 / 100, "limiter fired too early");
    assert!(excess < LIMIT / 5, "aggregate enforcement failed");
}
