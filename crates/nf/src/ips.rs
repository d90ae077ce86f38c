//! Intrusion Prevention System (Table 1, row 3).
//!
//! "Monitors traffic by continuously computing packet signatures and
//! matching against known suspicious signatures. In case of too many
//! matches, traffic is dropped to prevent the intrusion. This application
//! can tolerate some transient inconsistencies" (§4.1) — hence the
//! signature table is **ERO** (rarely written, read per packet, weak
//! consistency acceptable) and the match counter is an **EWO** G-counter.
//!
//! Signatures here are a hash over `(dst_port, payload_len)` — a stand-in
//! for content hashing, which a PISA parser would compute over header
//! fields anyway. Operators install signatures by sending admin packets
//! from a designated source port.

use std::sync::{Arc, Mutex};
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, NodeId};

/// Observable IPS behaviour.
#[derive(Debug, Default)]
pub struct IpsStats {
    /// Packets that matched a signature.
    pub matches: u64,
    /// Packets dropped by prevention (global matches above threshold).
    pub prevented: u64,
    /// Signatures installed through this instance.
    pub installs: u64,
}

/// Shared handle to [`IpsStats`].
pub type IpsStatsHandle = Arc<Mutex<IpsStats>>;

/// IPS configuration.
#[derive(Debug, Clone)]
pub struct IpsConfig {
    /// ERO register: signature table (1 = malicious).
    pub sig_reg: RegId,
    /// EWO G-counter register: global match counter (key 0).
    pub match_reg: RegId,
    /// Keys in the signature table.
    pub keys: u32,
    /// Drop traffic matching a signature once the *global* match count
    /// exceeds this.
    pub prevention_threshold: u64,
    /// Admin packets (signature installs) come from this source port.
    pub admin_port: u16,
    /// Where clean traffic goes.
    pub egress_host: NodeId,
}

/// Compute a packet's signature key.
pub fn signature(pkt: &DataPacket, keys: u32) -> u32 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    h ^= u64::from(pkt.flow.dst_port);
    h = h.wrapping_mul(0x1000_0000_01b3);
    h ^= u64::from(pkt.payload_len);
    h = h.wrapping_mul(0x1000_0000_01b3);
    (h % u64::from(keys)) as u32
}

/// The IPS network function.
pub struct Ips {
    cfg: IpsConfig,
    stats: IpsStatsHandle,
}

impl Ips {
    /// Build an IPS instance.
    pub fn new(cfg: IpsConfig, stats: IpsStatsHandle) -> Ips {
        Ips { cfg, stats }
    }
}

impl NfApp for Ips {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        if pkt.flow.src_port == self.cfg.admin_port {
            // Operator install: payload describes the signature; the
            // admin packet itself carries the pattern to blacklist.
            let sig = signature(pkt, self.cfg.keys);
            st.write(self.cfg.sig_reg, sig, 1);
            self.stats.lock().expect("stats lock poisoned").installs += 1;
            return NfDecision::Drop; // consumed by the switch
        }
        let sig = signature(pkt, self.cfg.keys);
        if st.read(self.cfg.sig_reg, sig) == 1 {
            self.stats.lock().expect("stats lock poisoned").matches += 1;
            st.add(self.cfg.match_reg, 0, 1);
            if st.read(self.cfg.match_reg, 0) > self.cfg.prevention_threshold {
                self.stats.lock().expect("stats lock poisoned").prevented += 1;
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

    fn config() -> IpsConfig {
        IpsConfig {
            sig_reg: 0,
            match_reg: 1,
            keys: 512,
            prevention_threshold: 5,
            admin_port: 9999,
            egress_host: NodeId(swishmem::HOST_BASE),
        }
    }

    fn deployment(n: usize) -> (Deployment, Vec<IpsStatsHandle>) {
        let stats: Vec<IpsStatsHandle> = (0..n).map(|_| IpsStatsHandle::default()).collect();
        let s2 = stats.clone();
        let dep = DeploymentBuilder::new(n)
            .hosts(1)
            .register(RegisterSpec::ero(0, "ips_sigs", 512))
            .register(RegisterSpec::ewo_counter(1, "ips_matches", 4))
            .build(move |id| Box::new(Ips::new(config(), s2[id.index()].clone())));
        (dep, stats)
    }

    fn attack_pkt(src_port: u16) -> DataPacket {
        DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(66, 6, 6, 6),
                src_port,
                Ipv4Addr::new(10, 0, 0, 1),
                31337,
            ),
            0,
            666,
        )
    }

    #[test]
    fn signatures_replicate_and_prevention_trips_globally() {
        let (mut dep, stats) = deployment(3);
        dep.settle();
        // Install the signature via switch 0 only.
        let t = dep.now();
        dep.inject(t, 0, 0, attack_pkt(9999));
        dep.run_for(SimDuration::millis(30));
        // Attack packets hit ALL switches; matches accumulate globally.
        let t = dep.now();
        for i in 0..12u64 {
            dep.inject(
                t + SimDuration::micros(i * 200),
                (i % 3) as usize,
                0,
                attack_pkt(1000 + i as u16),
            );
        }
        dep.run_for(SimDuration::millis(30));
        let total_matches: u64 = stats.iter().map(|s| s.lock().unwrap().matches).sum();
        let total_prevented: u64 = stats.iter().map(|s| s.lock().unwrap().prevented).sum();
        assert_eq!(total_matches, 12, "signature should match on every switch");
        assert!(
            total_prevented > 0,
            "prevention threshold should trip from global count"
        );
        assert!(
            total_prevented < 12,
            "early packets pass before the threshold"
        );
    }

    #[test]
    fn clean_traffic_passes() {
        let (mut dep, stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        let clean = DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(1, 2, 3, 4),
                1234,
                Ipv4Addr::new(10, 0, 0, 1),
                80,
            ),
            0,
            100,
        );
        dep.inject(t, 0, 0, clean);
        dep.run_for(SimDuration::millis(10));
        assert_eq!(dep.recording(0).borrow().len(), 1);
        assert_eq!(stats[0].lock().unwrap().matches, 0);
    }

    #[test]
    fn signature_is_deterministic() {
        let p = attack_pkt(1);
        assert_eq!(signature(&p, 512), signature(&p, 512));
    }
}
