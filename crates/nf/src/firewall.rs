//! Stateful firewall (Table 1, row 2).
//!
//! "Monitors connection states to enforce context-based rules. These
//! states are stored in a shared table, updated as connections are opened
//! and closed, and accessed for each packet to make filtering decisions.
//! Like the NAT, the firewall NF requires strong consistency to avoid
//! incorrect forwarding behavior" (§4.1).
//!
//! Policy: inside hosts may open connections to the outside; outside
//! packets are admitted only when they belong to a connection the inside
//! opened. Connection state lives in one SRO register keyed by the
//! canonical (direction-insensitive) flow hash.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use swishmem::{NfApp, NfDecision, SharedState};
use swishmem_wire::swish::RegId;
use swishmem_wire::{DataPacket, NodeId};

/// Connection states stored in the shared table.
pub mod conn_state {
    /// No state.
    pub const NONE: u64 = 0;
    /// SYN seen from inside.
    pub const SYN_SENT: u64 = 1;
    /// Established (inside saw a reply or sent data).
    pub const ESTABLISHED: u64 = 2;
    /// FIN/RST observed; still admitted briefly, re-open allowed.
    pub const CLOSING: u64 = 3;
}

/// Observable firewall behaviour.
#[derive(Debug, Default)]
pub struct FirewallStats {
    /// Outbound packets admitted.
    pub outbound_allowed: u64,
    /// Inbound packets admitted via connection state.
    pub inbound_allowed: u64,
    /// Inbound packets dropped for lack of state — includes false drops
    /// when state failed to replicate (the incorrect forwarding behaviour
    /// §4.1 warns about).
    pub inbound_dropped: u64,
}

/// Shared handle to [`FirewallStats`].
pub type FirewallStatsHandle = Arc<Mutex<FirewallStats>>;

/// Firewall configuration.
#[derive(Debug, Clone)]
pub struct FirewallConfig {
    /// SRO register holding connection states.
    pub conn_reg: RegId,
    /// Keys in the register.
    pub keys: u32,
    /// Inside network's first octet.
    pub inside_octet: u8,
    /// Host standing in for the outside.
    pub outside_host: NodeId,
    /// Host standing in for the inside.
    pub inside_host: NodeId,
}

/// The stateful firewall.
pub struct Firewall {
    cfg: FirewallConfig,
    stats: FirewallStatsHandle,
}

impl Firewall {
    /// Build a firewall instance.
    pub fn new(cfg: FirewallConfig, stats: FirewallStatsHandle) -> Firewall {
        Firewall { cfg, stats }
    }

    fn is_inside(&self, ip: Ipv4Addr) -> bool {
        ip.octets()[0] == self.cfg.inside_octet
    }

    fn key(&self, pkt: &DataPacket) -> u32 {
        (pkt.flow.canonical_hash64() % u64::from(self.cfg.keys)) as u32
    }
}

impl NfApp for Firewall {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        let key = self.key(pkt);
        let state = st.read(self.cfg.conn_reg, key);
        if self.is_inside(pkt.flow.src) {
            // Outbound: always allowed; advance connection state.
            let next = if pkt.tcp_flags.rst || pkt.tcp_flags.fin {
                conn_state::CLOSING
            } else if pkt.tcp_flags.syn {
                conn_state::SYN_SENT
            } else {
                conn_state::ESTABLISHED
            };
            if next != state {
                st.write(self.cfg.conn_reg, key, next);
            }
            self.stats
                .lock()
                .expect("stats lock poisoned")
                .outbound_allowed += 1;
            NfDecision::Forward {
                dst: self.cfg.outside_host,
                pkt: *pkt,
            }
        } else {
            // Inbound: requires established context.
            if state == conn_state::NONE {
                self.stats
                    .lock()
                    .expect("stats lock poisoned")
                    .inbound_dropped += 1;
                return NfDecision::Drop;
            }
            if pkt.tcp_flags.rst || pkt.tcp_flags.fin {
                st.write(self.cfg.conn_reg, key, conn_state::CLOSING);
            } else if state == conn_state::SYN_SENT {
                st.write(self.cfg.conn_reg, key, conn_state::ESTABLISHED);
            }
            self.stats
                .lock()
                .expect("stats lock poisoned")
                .inbound_allowed += 1;
            NfDecision::Forward {
                dst: self.cfg.inside_host,
                pkt: *pkt,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem::prelude::*;
    use swishmem::RegisterSpec;
    use swishmem_wire::l4::TcpFlags;
    use swishmem_wire::FlowKey;

    fn config() -> FirewallConfig {
        FirewallConfig {
            conn_reg: 0,
            keys: 256,
            inside_octet: 10,
            outside_host: NodeId(swishmem::HOST_BASE),
            inside_host: NodeId(swishmem::HOST_BASE + 1),
        }
    }

    fn deployment(n: usize) -> (Deployment, Vec<FirewallStatsHandle>) {
        let stats: Vec<FirewallStatsHandle> =
            (0..n).map(|_| FirewallStatsHandle::default()).collect();
        let s2 = stats.clone();
        let dep = DeploymentBuilder::new(n)
            .hosts(2)
            .register(RegisterSpec::sro(0, "fw_conn", 256))
            .build(move |id| Box::new(Firewall::new(config(), s2[id.index()].clone())));
        (dep, stats)
    }

    fn syn_out() -> DataPacket {
        DataPacket::tcp(
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                4000,
                Ipv4Addr::new(93, 184, 216, 34),
                443,
            ),
            TcpFlags::syn(),
            0,
            0,
        )
    }

    fn reply_in(seq: u32) -> DataPacket {
        DataPacket::tcp(
            FlowKey::tcp(
                Ipv4Addr::new(93, 184, 216, 34),
                443,
                Ipv4Addr::new(10, 0, 0, 1),
                4000,
            ),
            TcpFlags::data(),
            seq,
            100,
        )
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let (mut dep, stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 0, reply_in(0));
        dep.run_for(SimDuration::millis(10));
        assert_eq!(stats[0].lock().unwrap().inbound_dropped, 1);
        assert!(dep.recording(1).borrow().is_empty());
    }

    #[test]
    fn reply_admitted_at_other_switch_after_outbound_syn() {
        let (mut dep, stats) = deployment(3);
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 1, syn_out());
        dep.run_for(SimDuration::millis(30)); // SRO write completes
                                              // Reply takes a different path (different switch).
        let t = dep.now();
        dep.inject(t, 2, 0, reply_in(1));
        dep.run_for(SimDuration::millis(20));
        assert_eq!(
            stats[2].lock().unwrap().inbound_allowed,
            1,
            "reply wrongly dropped"
        );
        assert_eq!(dep.recording(1).borrow().len(), 1);
    }

    #[test]
    fn closing_state_recorded_on_fin() {
        let (mut dep, _stats) = deployment(2);
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 1, syn_out());
        dep.run_for(SimDuration::millis(30));
        let mut fin = syn_out();
        fin.tcp_flags = TcpFlags::fin();
        let t = dep.now();
        dep.inject(t, 0, 1, fin);
        dep.run_for(SimDuration::millis(30));
        let key = (syn_out().flow.canonical_hash64() % 256) as u32;
        assert_eq!(dep.peek(0, 0, key), conn_state::CLOSING);
        assert_eq!(dep.peek(1, 0, key), conn_state::CLOSING);
    }
}
