//! A generic sink node that records everything it receives.
//!
//! Hosts at the edge of the simulated fabric (traffic destinations, the
//! experiment harness's observation points) are `RecorderNode`s; the
//! harness reads a recorder's [`Recording`] through the engine's typed
//! node access after the run.

use crate::ctx::Ctx;
use crate::node::Node;
use crate::time::SimTime;
use std::cell::RefCell;
use swishmem_wire::Packet;

/// The packets a [`RecorderNode`] received, with their arrival times. A
/// `RefCell` so a harness holding only `&` access can drain it.
pub type Recording = RefCell<Vec<(SimTime, Packet)>>;

/// A node that stores every delivered packet with its arrival time.
#[derive(Default)]
pub struct RecorderNode {
    log: Recording,
}

impl RecorderNode {
    /// An empty recorder.
    pub fn new() -> RecorderNode {
        RecorderNode::default()
    }

    /// Everything received so far.
    pub fn log(&self) -> &Recording {
        &self.log
    }
}

impl Node for RecorderNode {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.log.get_mut().push((ctx.now(), pkt));
    }

    fn on_fail(&mut self) {
        // A failed recorder keeps its history: the harness still wants to
        // see what arrived before the failure.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::shard::ShardedEngine;
    use std::net::Ipv4Addr;
    use swishmem_wire::{DataPacket, FlowKey, NodeId};

    #[test]
    fn records_arrivals_with_time() {
        let mut sim = ShardedEngine::new(1, 1);
        sim.add_node(NodeId(5), Box::new(RecorderNode::new()));
        sim.topology_mut()
            .connect(NodeId(4), NodeId(5), LinkParams::datacenter());
        let p = Packet::data(
            NodeId(4),
            NodeId(5),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
                3,
                16,
            ),
        );
        sim.inject(SimTime(500), p.clone());
        sim.run_until_quiescent(SimTime(1_000_000));
        let log = sim.node::<RecorderNode>(NodeId(5)).unwrap().log().borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, SimTime(500));
        assert_eq!(log[0].1, p);
    }
}
