//! DDoS detection (Table 1, row 5).
//!
//! "Requires tracking the frequency of source and destination IPs using
//! approximate sketch data structures. The sketches are updated and read
//! on every packet, triggering an alarm when the analysis of the IP
//! frequencies raises suspicion of the attack. Approximate sketches have
//! been shown to behave correctly under eventual consistency" (§4.2).
//!
//! The sketch rows are EWO G-counter registers (one register per row), so
//! every switch's local increments merge commutatively across the fabric;
//! a victim whose traffic is spread over many ingress switches is still
//! detected because each switch reads the *global* estimate.

use crate::sketch::cm_hash;
use std::sync::{Arc, Mutex};
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, NodeId};

/// Observable detector behaviour.
#[derive(Debug, Default)]
pub struct DdosStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets dropped as attack traffic.
    pub mitigated: u64,
    /// First time (ns) the alarm fired on this switch, if ever.
    pub first_alarm_ns: Option<u64>,
}

/// Shared handle to [`DdosStats`].
pub type DdosStatsHandle = Arc<Mutex<DdosStats>>;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DdosConfig {
    /// EWO G-counter registers, one per sketch row (ids must be
    /// contiguous starting at `row_regs[0]`).
    pub row_regs: Vec<RegId>,
    /// Columns per row.
    pub width: u32,
    /// EWO G-counter register holding the total packet count at key 0.
    pub total_reg: RegId,
    /// Alarm when a destination's estimated share exceeds this fraction
    /// of total traffic (×1000, e.g. 200 = 20%).
    pub share_millis: u64,
    /// Minimum total packets before the detector may alarm.
    pub min_total: u64,
    /// Absolute floor on the victim's estimated count before alarming —
    /// a volumetric threshold that a single switch seeing only a slice of
    /// a spread attack cannot reach (the E9 discriminator).
    pub min_est: u64,
    /// Egress for clean traffic.
    pub egress_host: NodeId,
}

/// The DDoS detector NF.
pub struct DdosDetector {
    cfg: DdosConfig,
    stats: DdosStatsHandle,
}

impl DdosDetector {
    /// Build a detector instance.
    pub fn new(cfg: DdosConfig, stats: DdosStatsHandle) -> DdosDetector {
        assert!(!cfg.row_regs.is_empty());
        DdosDetector { cfg, stats }
    }

    fn estimate(&self, st: &mut dyn SharedState, key: u64) -> u64 {
        self.cfg
            .row_regs
            .iter()
            .enumerate()
            .map(|(r, &reg)| {
                let col = (cm_hash(r, key) % u64::from(self.cfg.width)) as u32;
                st.read(reg, col)
            })
            .min()
            .unwrap_or(0)
    }
}

impl NfApp for DdosDetector {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        self.stats.lock().expect("stats lock poisoned").packets += 1;
        let dst_key = u64::from(u32::from(pkt.flow.dst));
        // Update all rows + the total counter.
        for (r, &reg) in self.cfg.row_regs.iter().enumerate() {
            let col = (cm_hash(r, dst_key) % u64::from(self.cfg.width)) as u32;
            st.add(reg, col, 1);
        }
        st.add(self.cfg.total_reg, 0, 1);

        let total = st.read(self.cfg.total_reg, 0);
        if total >= self.cfg.min_total {
            let est = self.estimate(st, dst_key);
            if est >= self.cfg.min_est && est * 1000 > self.cfg.share_millis * total {
                let mut s = self.stats.lock().expect("stats lock poisoned");
                s.mitigated += 1;
                s.first_alarm_ns.get_or_insert(st.now().nanos());
                return NfDecision::Drop;
            }
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

    const DEPTH: usize = 3;
    const WIDTH: u32 = 512;

    fn config() -> DdosConfig {
        DdosConfig {
            row_regs: (0..DEPTH as u16).collect(),
            width: WIDTH,
            total_reg: DEPTH as u16,
            share_millis: 300, // 30%
            min_total: 50,
            min_est: 100, // locally each switch sees only ~40 attack pkts
            egress_host: NodeId(swishmem::HOST_BASE),
        }
    }

    fn deployment(n: usize) -> (Deployment, Vec<DdosStatsHandle>) {
        let stats: Vec<DdosStatsHandle> = (0..n).map(|_| DdosStatsHandle::default()).collect();
        let s2 = stats.clone();
        let mut b = DeploymentBuilder::new(n).hosts(1);
        for r in 0..DEPTH as u16 {
            b = b.register(RegisterSpec::ewo_counter(r, &format!("cm_row{r}"), WIDTH));
        }
        b = b.register(RegisterSpec::ewo_counter(DEPTH as u16, "cm_total", 4));
        let dep = b.build(move |id| Box::new(DdosDetector::new(config(), s2[id.index()].clone())));
        (dep, stats)
    }

    fn to_dst(dst: Ipv4Addr, src_port: u16) -> DataPacket {
        DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), src_port, dst, 80),
            0,
            64,
        )
    }

    #[test]
    fn distributed_attack_detected_even_when_spread_thin() {
        let (mut dep, stats) = deployment(4);
        dep.settle();
        let victim = Ipv4Addr::new(10, 0, 0, 99);
        let t = dep.now();
        // 160 attack packets spread over 4 switches (40 each), mixed with
        // 40 background packets to distinct destinations.
        let mut k = 0u64;
        for i in 0..160u64 {
            dep.inject(
                t + SimDuration::micros(i * 20),
                (i % 4) as usize,
                0,
                to_dst(victim, 1000 + i as u16),
            );
            if i % 4 == 0 {
                k += 1;
                let bg = Ipv4Addr::new(20, 0, (k >> 8) as u8, k as u8);
                dep.inject(
                    t + SimDuration::micros(i * 20 + 7),
                    (k % 4) as usize,
                    0,
                    to_dst(bg, 2000),
                );
            }
        }
        dep.run_for(SimDuration::millis(50));
        let mitigated: u64 = stats.iter().map(|s| s.lock().unwrap().mitigated).sum();
        assert!(
            mitigated > 50,
            "attack should be mitigated, got {mitigated}"
        );
        // Every switch individually saw only 25% of the attack — below a
        // switch-local threshold — proving detection relied on the
        // replicated global sketch.
        for (i, s) in stats.iter().enumerate() {
            assert!(
                s.lock().unwrap().packets < 60,
                "switch {i} saw too much traffic locally"
            );
        }
    }

    #[test]
    fn benign_traffic_not_mitigated() {
        let (mut dep, stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        for i in 0..100u64 {
            let dst = Ipv4Addr::new(30, 0, (i >> 8) as u8, i as u8);
            dep.inject(
                t + SimDuration::micros(i * 30),
                (i % 2) as usize,
                0,
                to_dst(dst, 4000),
            );
        }
        dep.run_for(SimDuration::millis(30));
        let mitigated: u64 = stats.iter().map(|s| s.lock().unwrap().mitigated).sum();
        assert_eq!(mitigated, 0);
    }
}
