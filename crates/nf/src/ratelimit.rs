//! Per-user rate limiter (Table 1, row 6).
//!
//! "Monitor and restrict the aggregated bandwidth of flows that belong to
//! a given user. The application maintains a per-user meter that is
//! updated on every packet. Periodically, the meters are read to identify
//! users exceeding their bandwidth limit ... it is acceptable for a few
//! additional packets to go through immediately after the user reaches
//! the bandwidth limit" (§4.2).
//!
//! The per-user byte counter is an EWO *windowed* counter: each window
//! epoch resets the count, within a window per-switch slots merge by max
//! and read as a sum — so the enforced limit is the user's **aggregate**
//! bandwidth across all ingress switches, converging within a sync
//! period.

use std::sync::{Arc, Mutex};
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, NodeId};

/// Observable limiter behaviour.
#[derive(Debug, Default)]
pub struct RateLimitStats {
    /// Packets admitted.
    pub admitted: u64,
    /// Bytes admitted.
    pub admitted_bytes: u64,
    /// Packets dropped over-limit.
    pub dropped: u64,
}

/// Shared handle to [`RateLimitStats`].
pub type RateLimitStatsHandle = Arc<Mutex<RateLimitStats>>;

/// Rate limiter configuration.
#[derive(Debug, Clone)]
pub struct RateLimitConfig {
    /// EWO windowed register: per-user byte count in the current window.
    pub meter_reg: RegId,
    /// Keys (user buckets).
    pub keys: u32,
    /// Byte budget per user per window.
    pub bytes_per_window: u64,
    /// Egress for admitted traffic.
    pub egress_host: NodeId,
}

/// Map a packet to its user bucket (by source address).
pub fn user_key(pkt: &DataPacket, keys: u32) -> u32 {
    u32::from(pkt.flow.src) % keys
}

/// The rate limiter NF.
pub struct RateLimiter {
    cfg: RateLimitConfig,
    stats: RateLimitStatsHandle,
}

impl RateLimiter {
    /// Build a limiter instance.
    pub fn new(cfg: RateLimitConfig, stats: RateLimitStatsHandle) -> RateLimiter {
        RateLimiter { cfg, stats }
    }
}

impl NfApp for RateLimiter {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        let key = user_key(pkt, self.cfg.keys);
        let wire_bytes = pkt.wire_len() as u64;
        let used = st.read(self.cfg.meter_reg, key);
        if used >= self.cfg.bytes_per_window {
            self.stats.lock().expect("stats lock poisoned").dropped += 1;
            return NfDecision::Drop;
        }
        st.add(self.cfg.meter_reg, key, wire_bytes as i64);
        let mut s = self.stats.lock().expect("stats lock poisoned");
        s.admitted += 1;
        s.admitted_bytes += wire_bytes;
        NfDecision::Forward {
            dst: self.cfg.egress_host,
            pkt: *pkt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use swishmem::prelude::*;
    use swishmem::RegisterSpec;
    use swishmem_wire::FlowKey;

    fn config() -> RateLimitConfig {
        RateLimitConfig {
            meter_reg: 0,
            keys: 64,
            bytes_per_window: 1000,
            egress_host: NodeId(swishmem::HOST_BASE),
        }
    }

    fn deployment(n: usize, window: SimDuration) -> (Deployment, Vec<RateLimitStatsHandle>) {
        let stats: Vec<RateLimitStatsHandle> =
            (0..n).map(|_| RateLimitStatsHandle::default()).collect();
        let s2 = stats.clone();
        let dep = DeploymentBuilder::new(n)
            .hosts(1)
            .register(RegisterSpec::ewo_windowed(0, "meters", 64, window))
            .build(move |id| Box::new(RateLimiter::new(config(), s2[id.index()].clone())));
        (dep, stats)
    }

    fn user_pkt(user: Ipv4Addr, seq: u32) -> DataPacket {
        DataPacket::udp(
            FlowKey::udp(user, 1000, Ipv4Addr::new(99, 9, 9, 9), 80),
            seq,
            72,
        )
        // 72 B payload → wire_len 100 B (20 ip + 8 udp + 72)
    }

    #[test]
    fn user_limited_across_switches() {
        let (mut dep, stats) = deployment(2, SimDuration::secs(10));
        dep.settle();
        let user = Ipv4Addr::new(10, 0, 0, 1);
        let t = dep.now();
        // 30 × 100 B alternating between switches: only ~1000 B should
        // pass (plus a small eventual-consistency overshoot).
        for i in 0..30u64 {
            dep.inject(
                t + SimDuration::millis(i),
                (i % 2) as usize,
                0,
                user_pkt(user, i as u32),
            );
        }
        dep.run_for(SimDuration::millis(100));
        let admitted: u64 = stats.iter().map(|s| s.lock().unwrap().admitted_bytes).sum();
        assert!(admitted >= 1000, "limit enforced too early: {admitted}");
        assert!(
            admitted <= 1400,
            "aggregate enforcement failed; admitted {admitted} B (limit 1000 + slack)"
        );
        let dropped: u64 = stats.iter().map(|s| s.lock().unwrap().dropped).sum();
        assert!(dropped >= 16);
    }

    #[test]
    fn budget_resets_each_window() {
        let window = SimDuration::millis(50);
        let (mut dep, stats) = deployment(1, window);
        dep.settle();
        let user = Ipv4Addr::new(10, 0, 0, 2);
        // Fill the budget this window.
        let t = dep.now();
        for i in 0..12u64 {
            dep.inject(
                t + SimDuration::micros(i * 10),
                0,
                0,
                user_pkt(user, i as u32),
            );
        }
        dep.run_for(SimDuration::millis(5));
        let before = stats[0].lock().unwrap().admitted;
        assert!((10..=11).contains(&before), "got {before}");
        // Next window: budget is fresh.
        dep.run_for(window);
        let t = dep.now();
        for i in 0..5u64 {
            dep.inject(
                t + SimDuration::micros(i * 10),
                0,
                0,
                user_pkt(user, 100 + i as u32),
            );
        }
        dep.run_for(SimDuration::millis(5));
        assert_eq!(stats[0].lock().unwrap().admitted, before + 5);
    }

    #[test]
    fn other_users_unaffected() {
        let (mut dep, stats) = deployment(1, SimDuration::secs(10));
        dep.settle();
        let hog = Ipv4Addr::new(10, 0, 0, 3);
        let quiet = Ipv4Addr::new(10, 0, 0, 4);
        let t = dep.now();
        for i in 0..20u64 {
            dep.inject(
                t + SimDuration::micros(i * 100),
                0,
                0,
                user_pkt(hog, i as u32),
            );
        }
        dep.inject(t + SimDuration::millis(5), 0, 0, user_pkt(quiet, 0));
        dep.run_for(SimDuration::millis(20));
        assert!(
            stats[0].lock().unwrap().dropped > 0,
            "hog should be limited"
        );
        // The quiet user's single packet went through (20 hog packets at
        // 100 B hit the 1000 B limit; quiet's bucket is separate).
        assert!(stats[0].lock().unwrap().admitted >= 11);
    }
}
