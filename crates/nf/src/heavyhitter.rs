//! Network-wide heavy-hitter detection without a central controller.
//!
//! §8 (related work): "Harrison et al. propose a distributed
//! heavy-hitters detection algorithm that minimizes the communication
//! overheads between the switches and the controller. Switches maintain
//! local counters and use them to trigger updates to a centralized
//! controller. SwiShmem can be used to implement similar algorithms while
//! eliminating the need for a centralized controller, thus potentially
//! providing faster response."
//!
//! This NF realizes that suggestion: per-flow-aggregate byte counters are
//! EWO G-counters, so every switch reads the *network-wide* count
//! directly from its data plane and flags a heavy hitter the moment the
//! global count crosses the threshold — no controller round-trip.

use std::sync::{Arc, Mutex};
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_simnet::SimTime;
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, NodeId};

/// Observable detector behaviour.
#[derive(Debug, Default)]
pub struct HhStats {
    /// Packets processed.
    pub packets: u64,
    /// Keys this switch has flagged as heavy hitters, with the time of
    /// first flagging (ns).
    pub flagged: Vec<(u32, u64)>,
}

impl HhStats {
    /// Has `key` been flagged here?
    pub fn is_flagged(&self, key: u32) -> bool {
        self.flagged.iter().any(|&(k, _)| k == key)
    }
}

/// Shared handle to [`HhStats`].
pub type HhStatsHandle = Arc<Mutex<HhStats>>;

/// Heavy-hitter detector configuration.
#[derive(Debug, Clone)]
pub struct HhConfig {
    /// EWO G-counter register: per-aggregate byte counts.
    pub count_reg: RegId,
    /// Keys (aggregate buckets; keyed by destination here).
    pub keys: u32,
    /// Byte threshold above which an aggregate is a heavy hitter.
    pub threshold_bytes: u64,
    /// Egress host for all traffic (detection only, no policing).
    pub egress_host: NodeId,
}

/// Map a packet to its aggregate bucket (destination address).
pub fn hh_key(pkt: &DataPacket, keys: u32) -> u32 {
    u32::from(pkt.flow.dst) % keys
}

/// The heavy-hitter detector NF.
pub struct HeavyHitter {
    cfg: HhConfig,
    stats: HhStatsHandle,
}

impl HeavyHitter {
    /// Build a detector instance.
    pub fn new(cfg: HhConfig, stats: HhStatsHandle) -> HeavyHitter {
        HeavyHitter { cfg, stats }
    }

    fn flag(&self, key: u32, now: SimTime) {
        let mut s = self.stats.lock().expect("stats lock poisoned");
        if !s.is_flagged(key) {
            s.flagged.push((key, now.nanos()));
        }
    }
}

impl NfApp for HeavyHitter {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        self.stats.lock().expect("stats lock poisoned").packets += 1;
        let key = hh_key(pkt, self.cfg.keys);
        st.add(self.cfg.count_reg, key, pkt.wire_len() as i64);
        if st.read(self.cfg.count_reg, key) > self.cfg.threshold_bytes {
            self.flag(key, st.now());
        }
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

    fn config() -> HhConfig {
        HhConfig {
            count_reg: 0,
            keys: 256,
            threshold_bytes: 4_000,
            egress_host: NodeId(swishmem::HOST_BASE),
        }
    }

    fn deployment(n: usize) -> (Deployment, Vec<HhStatsHandle>) {
        let stats: Vec<HhStatsHandle> = (0..n).map(|_| HhStatsHandle::default()).collect();
        let s2 = stats.clone();
        let dep = DeploymentBuilder::new(n)
            .hosts(1)
            .register(RegisterSpec::ewo_counter(0, "hh", 256))
            .build(move |id| Box::new(HeavyHitter::new(config(), s2[id.index()].clone())));
        (dep, stats)
    }

    fn to_dst(dst: Ipv4Addr, sport: u16) -> DataPacket {
        DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), sport, dst, 80),
            0,
            100,
        )
        // 128 B on the wire
    }

    #[test]
    fn network_wide_heavy_hitter_flagged_on_every_switch() {
        let (mut dep, stats) = deployment(4);
        dep.settle();
        let hot = Ipv4Addr::new(20, 0, 0, 1);
        let key = u32::from(hot) % 256;
        let t = dep.now();
        // 48 × 128 B to the hot destination, spread over 4 switches: each
        // switch locally sees only ~1.5 KB — below the 4 KB threshold —
        // but the global count crosses it.
        for i in 0..48u64 {
            dep.inject(
                t + SimDuration::micros(i * 50),
                (i % 4) as usize,
                0,
                to_dst(hot, 1000 + i as u16),
            );
        }
        dep.run_for(SimDuration::millis(30));
        for (i, s) in stats.iter().enumerate() {
            assert!(
                s.lock().unwrap().is_flagged(key),
                "switch {i} missed the heavy hitter"
            );
        }
        // Global count is exact.
        assert_eq!(dep.peek(0, 0, key), 48 * 128);
    }

    #[test]
    fn mice_are_not_flagged() {
        let (mut dep, stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        for i in 0..40u64 {
            let dst = Ipv4Addr::new(30, 0, 0, (i % 40) as u8);
            dep.inject(
                t + SimDuration::micros(i * 50),
                (i % 2) as usize,
                0,
                to_dst(dst, 2000),
            );
        }
        dep.run_for(SimDuration::millis(20));
        for s in &stats {
            assert!(
                s.lock().unwrap().flagged.is_empty(),
                "mouse flow wrongly flagged"
            );
        }
    }

    #[test]
    fn detection_is_faster_than_a_controller_round_trip_would_allow() {
        // The switch that receives the threshold-crossing packet flags
        // immediately (same packet), and remote switches flag within the
        // eager-mirror propagation delay — microseconds, not the
        // milliseconds a controller-mediated trigger would need.
        let (mut dep, stats) = deployment(2);
        dep.settle();
        let hot = Ipv4Addr::new(20, 0, 0, 2);
        let key = u32::from(hot) % 256;
        let t = dep.now();
        // Push everything through switch 0 quickly.
        for i in 0..40u64 {
            dep.inject(
                t + SimDuration::micros(i),
                0,
                0,
                to_dst(hot, 3000 + i as u16),
            );
        }
        // A single probe packet at switch 1 shortly after.
        dep.inject(t + SimDuration::micros(100), 1, 0, to_dst(hot, 9999));
        dep.run_for(SimDuration::millis(10));
        let f0 = stats[0]
            .lock()
            .unwrap()
            .flagged
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, t)| t);
        let f1 = stats[1]
            .lock()
            .unwrap()
            .flagged
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, t)| t);
        let f0 = f0.expect("ingress switch flags");
        let f1 = f1.expect("remote switch flags via replicated counter");
        assert!(
            f1 - f0 < 1_000_000,
            "remote flagging should lag by <1 ms, got {} ns",
            f1 - f0
        );
    }
}
