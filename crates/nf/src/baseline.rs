//! Baseline (non-SwiShmem) NF variants the experiments compare against.
//!
//! These implement the alternatives the paper argues against:
//! * [`LocalLb`] — the sharded load balancer of §3.2 ("store the load
//!   balancer's connection mapping only on the switch that assigned it,
//!   on the assumption that future packets for that flow will be
//!   processed by the same switch"), which breaks per-connection
//!   consistency under multipath routing and failures;
//! * [`LocalDdos`] — per-switch unshared sketches, which miss attacks
//!   whose traffic is spread across ingress switches.
//!
//! Both keep their state in app-local memory (`HashMap`/[`CmSketch`]),
//! i.e. exactly what a single-switch P4 program compiled per switch with
//! no sharing would hold.

use crate::ddos::{DdosConfig, DdosStatsHandle};
use crate::lb::{LbConfig, LbStatsHandle};
use crate::sketch::CmSketch;
use std::collections::HashMap;
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::{DataPacket, NodeId};

/// Shard-local L4 load balancer: same policy as
/// [`crate::lb::LoadBalancer`], but the connection→DIP map is per-switch.
pub struct LocalLb {
    cfg: LbConfig,
    table: HashMap<u32, u64>,
    stats: LbStatsHandle,
}

impl LocalLb {
    /// Build a shard-local LB instance.
    pub fn new(cfg: LbConfig, stats: LbStatsHandle) -> LocalLb {
        assert!(!cfg.backends.is_empty());
        LocalLb {
            cfg,
            table: HashMap::new(),
            stats,
        }
    }

    fn key(&self, pkt: &DataPacket) -> u32 {
        (pkt.flow.hash64() % u64::from(self.cfg.keys)) as u32
    }

    fn choose(&self, pkt: &DataPacket) -> u64 {
        (pkt.flow.hash64() >> 17) % self.cfg.backends.len() as u64 + 1
    }

    fn forward_to(&self, idx1: u64, pkt: &DataPacket) -> NfDecision {
        let (dip, host) = self.cfg.backends[(idx1 - 1) as usize % self.cfg.backends.len()];
        let mut out = *pkt;
        out.flow.dst = dip;
        NfDecision::Forward {
            dst: host,
            pkt: out,
        }
    }
}

impl NfApp for LocalLb {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        _st: &mut dyn SharedState,
    ) -> NfDecision {
        if pkt.flow.dst != self.cfg.vip {
            return NfDecision::Forward {
                dst: self.cfg.backends[0].1,
                pkt: *pkt,
            };
        }
        let key = self.key(pkt);
        if let Some(&assigned) = self.table.get(&key) {
            self.stats.lock().expect("stats lock poisoned").mapped += 1;
            return self.forward_to(assigned, pkt);
        }
        if pkt.tcp_flags.syn {
            let choice = self.choose(pkt);
            self.table.insert(key, choice);
            self.stats.lock().expect("stats lock poisoned").assigned += 1;
            return self.forward_to(choice, pkt);
        }
        self.stats
            .lock()
            .expect("stats lock poisoned")
            .unmapped_drops += 1;
        NfDecision::Drop
    }

    fn reset(&mut self) {
        self.table.clear();
    }
}

/// Per-switch unshared DDoS detector: same policy as
/// [`crate::ddos::DdosDetector`], but sketch and total counter are local.
pub struct LocalDdos {
    cfg: DdosConfig,
    sketch: CmSketch,
    total: u64,
    stats: DdosStatsHandle,
}

impl LocalDdos {
    /// Build an unshared detector instance.
    pub fn new(cfg: DdosConfig, stats: DdosStatsHandle) -> LocalDdos {
        let sketch = CmSketch::new(cfg.row_regs.len(), cfg.width as usize);
        LocalDdos {
            cfg,
            sketch,
            total: 0,
            stats,
        }
    }
}

impl NfApp for LocalDdos {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        self.stats.lock().expect("stats lock poisoned").packets += 1;
        let dst_key = u64::from(u32::from(pkt.flow.dst));
        self.sketch.add(dst_key, 1);
        self.total += 1;
        if self.total >= self.cfg.min_total {
            let est = self.sketch.estimate(dst_key);
            if est >= self.cfg.min_est && est * 1000 > self.cfg.share_millis * self.total {
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

    fn reset(&mut self) {
        self.sketch = CmSketch::new(self.cfg.row_regs.len(), self.cfg.width as usize);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use swishmem::prelude::*;
    use swishmem_wire::l4::TcpFlags;
    use swishmem_wire::FlowKey;

    fn lb_cfg() -> LbConfig {
        LbConfig {
            conn_reg: 0,
            keys: 1024,
            vip: Ipv4Addr::new(10, 99, 0, 1),
            backends: vec![
                (Ipv4Addr::new(10, 1, 0, 1), NodeId(swishmem::HOST_BASE)),
                (Ipv4Addr::new(10, 1, 0, 2), NodeId(swishmem::HOST_BASE + 1)),
            ],
        }
    }

    fn vip_pkt(port: u16, flags: TcpFlags, seq: u32) -> DataPacket {
        DataPacket::tcp(
            FlowKey::tcp(
                Ipv4Addr::new(172, 16, 0, 9),
                port,
                Ipv4Addr::new(10, 99, 0, 1),
                443,
            ),
            flags,
            seq,
            64,
        )
    }

    #[test]
    fn local_lb_breaks_pcc_when_path_changes() {
        // One register declared so the deployment builds, though LocalLb
        // ignores shared state entirely.
        let stats: Vec<LbStatsHandle> = (0..2).map(|_| LbStatsHandle::default()).collect();
        let s2 = stats.clone();
        let mut dep = DeploymentBuilder::new(2)
            .hosts(2)
            .register(swishmem::RegisterSpec::sro(0, "unused", 4))
            .build(move |id| Box::new(LocalLb::new(lb_cfg(), s2[id.index()].clone())));
        dep.settle();
        let t = dep.now();
        // SYN at switch 0, data packet for the same flow at switch 1.
        dep.inject(t, 0, 0, vip_pkt(5000, TcpFlags::syn(), 0));
        dep.inject(
            t + SimDuration::millis(1),
            1,
            0,
            vip_pkt(5000, TcpFlags::data(), 1),
        );
        dep.run_for(SimDuration::millis(10));
        // The sharded baseline drops the rerouted mid-flow packet.
        let drops: u64 = stats.iter().map(|s| s.lock().unwrap().unmapped_drops).sum();
        assert_eq!(
            drops, 1,
            "sharded LB should break PCC on the alternate path"
        );
    }

    #[test]
    fn local_ddos_misses_spread_attack() {
        use crate::ddos::DdosConfig;
        let cfg = DdosConfig {
            row_regs: vec![0, 1, 2],
            width: 512,
            total_reg: 3,
            share_millis: 300,
            min_total: 50,
            min_est: 100,
            egress_host: NodeId(swishmem::HOST_BASE),
        };
        let stats: Vec<DdosStatsHandle> = (0..4).map(|_| DdosStatsHandle::default()).collect();
        let s2 = stats.clone();
        let cfg2 = cfg.clone();
        let mut dep = DeploymentBuilder::new(4)
            .hosts(1)
            .register(swishmem::RegisterSpec::sro(0, "unused", 4))
            .build(move |id| Box::new(LocalDdos::new(cfg2.clone(), s2[id.index()].clone())));
        dep.settle();
        let victim = Ipv4Addr::new(10, 0, 0, 99);
        let t = dep.now();
        // Same mix as the shared-detector test: 40 attack packets per
        // switch — but each local total never reaches min_total=50, so no
        // switch alarms.
        for i in 0..160u64 {
            let pkt = DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1000 + i as u16, victim, 80),
                0,
                64,
            );
            dep.inject(t + SimDuration::micros(i * 20), (i % 4) as usize, 0, pkt);
        }
        dep.run_for(SimDuration::millis(20));
        let mitigated: u64 = stats.iter().map(|s| s.lock().unwrap().mitigated).sum();
        assert_eq!(
            mitigated, 0,
            "unshared sketches should miss the spread attack"
        );
    }
}
