//! Traffic accounting: per-class and per-link byte/packet counters.
//!
//! The bandwidth-overhead experiments (E2, E13, E14 in DESIGN.md) are
//! computed entirely from these counters, so classification must cover
//! every message type.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use swishmem_wire::{NodeId, Packet, PacketBody, SwishMsg};

/// Multiply-and-rotate hasher (FxHash-style) for the small integer keys
/// used below. `record_delivery` runs once per delivered frame, so the
/// default SipHash cost dominates otherwise.
#[derive(Default)]
struct FxHasher(u64);

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Traffic classes, for attribution of bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// NF data packets.
    Data,
    /// SRO/ERO chain write requests.
    SroWrite,
    /// SRO/ERO acks and pending-clears.
    SroControl,
    /// EWO sync updates (eager mirrors and periodic sync alike).
    EwoSync,
    /// Snapshot/recovery transfer.
    Snapshot,
    /// Reads forwarded to the tail.
    ReadForward,
    /// Range-migration state transfer (reconfiguration engine).
    Migration,
    /// Heartbeats, configuration, directory.
    Management,
}

impl TrafficClass {
    /// Classify a packet.
    pub fn of(pkt: &Packet) -> TrafficClass {
        match &pkt.body {
            PacketBody::Data(_) => TrafficClass::Data,
            PacketBody::Swish(m) => match m {
                SwishMsg::Write(_) => TrafficClass::SroWrite,
                SwishMsg::Ack(_) | SwishMsg::Clear(_) => TrafficClass::SroControl,
                SwishMsg::Sync(_) => TrafficClass::EwoSync,
                SwishMsg::SnapReq(_) | SwishMsg::SnapChunk(_) | SwishMsg::CatchupDone(_) => {
                    TrafficClass::Snapshot
                }
                SwishMsg::ReadForward(_) => TrafficClass::ReadForward,
                SwishMsg::MigrateChunk(_) => TrafficClass::Migration,
                SwishMsg::Chain(_)
                | SwishMsg::Group(_)
                | SwishMsg::Heartbeat(_)
                | SwishMsg::DirLookup(_)
                | SwishMsg::DirReply(_)
                | SwishMsg::MigrateBegin(_)
                | SwishMsg::OwnershipCommit(_)
                | SwishMsg::MigrateDone(_)
                | SwishMsg::LoadReport(_)
                | SwishMsg::CtrlPrepare(_)
                | SwishMsg::CtrlPromise(_)
                | SwishMsg::CtrlAccept(_)
                | SwishMsg::CtrlAccepted(_)
                | SwishMsg::CtrlLearn(_)
                | SwishMsg::CtrlHb(_)
                | SwishMsg::CtrlLead(_)
                | SwishMsg::CtrlSnap(_) => TrafficClass::Management,
            },
        }
    }

    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 8] = [
        TrafficClass::Data,
        TrafficClass::SroWrite,
        TrafficClass::SroControl,
        TrafficClass::EwoSync,
        TrafficClass::Snapshot,
        TrafficClass::ReadForward,
        TrafficClass::Migration,
        TrafficClass::Management,
    ];
}

/// Packet/byte counter pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Packets counted.
    pub packets: u64,
    /// Bytes counted (true wire length).
    pub bytes: u64,
}

impl Counter {
    fn add(&mut self, bytes: usize) {
        self.packets += 1;
        self.bytes += bytes as u64;
    }
}

/// Why a frame was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// No link configured between the endpoints.
    NoRoute,
    /// Destination (or source) node has failed.
    NodeDown,
    /// Link administratively down.
    LinkDown,
    /// Frame corrupted in flight (delivered to `on_corrupt_packet`, which
    /// by default discards).
    Corrupt,
}

impl DropReason {
    /// All reasons, for iteration in reports (and counter-array sizing).
    pub const ALL: [DropReason; 5] = [
        DropReason::Loss,
        DropReason::NoRoute,
        DropReason::NodeDown,
        DropReason::LinkDown,
        DropReason::Corrupt,
    ];
}

/// Aggregate simulation statistics.
///
/// Per-class and per-reason counters are flat arrays indexed by the enum
/// discriminant; only the per-link and per-node breakdowns (unbounded key
/// spaces) stay in hash maps, behind the cheap hasher above.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    delivered: [Counter; TrafficClass::ALL.len()],
    dropped: [Counter; DropReason::ALL.len()],
    per_link: FxMap<(NodeId, NodeId), Counter>,
    per_node_rx: FxMap<NodeId, Counter>,
}

impl NetStats {
    /// Record a successful delivery of `pkt` at hop `to` (equal to
    /// `pkt.dst` except when a relay forwards the frame).
    pub(crate) fn record_delivery(&mut self, pkt: &Packet, to: NodeId, bytes: usize) {
        self.delivered[TrafficClass::of(pkt) as usize].add(bytes);
        self.per_link.entry((pkt.src, to)).or_default().add(bytes);
        self.per_node_rx.entry(to).or_default().add(bytes);
    }

    /// Record a drop.
    pub(crate) fn record_drop(&mut self, reason: DropReason, bytes: usize) {
        self.dropped[reason as usize].add(bytes);
    }

    /// Delivered counter for one traffic class.
    pub fn delivered(&self, class: TrafficClass) -> Counter {
        self.delivered[class as usize]
    }

    /// Total delivered across all classes.
    pub fn delivered_total(&self) -> Counter {
        let mut total = Counter::default();
        for c in &self.delivered {
            total.packets += c.packets;
            total.bytes += c.bytes;
        }
        total
    }

    /// Dropped counter for one reason.
    pub fn dropped(&self, reason: DropReason) -> Counter {
        self.dropped[reason as usize]
    }

    /// Bytes delivered over the directed link `src -> dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> Counter {
        self.per_link.get(&(src, dst)).copied().unwrap_or_default()
    }

    /// Bytes received by `node`.
    pub fn node_rx(&self, node: NodeId) -> Counter {
        self.per_node_rx.get(&node).copied().unwrap_or_default()
    }

    /// Fold another stats block into this one (sum every counter). Used
    /// by the sharded engine to merge per-shard accounting; addition is
    /// commutative, so merge order never affects the result.
    pub fn merge_from(&mut self, other: &NetStats) {
        for (d, s) in self.delivered.iter_mut().zip(other.delivered.iter()) {
            d.packets += s.packets;
            d.bytes += s.bytes;
        }
        for (d, s) in self.dropped.iter_mut().zip(other.dropped.iter()) {
            d.packets += s.packets;
            d.bytes += s.bytes;
        }
        for (k, c) in &other.per_link {
            let e = self.per_link.entry(*k).or_default();
            e.packets += c.packets;
            e.bytes += c.bytes;
        }
        for (k, c) in &other.per_node_rx {
            let e = self.per_node_rx.entry(*k).or_default();
            e.packets += c.packets;
            e.bytes += c.bytes;
        }
    }

    /// Reset all counters (used to scope measurements to a window).
    pub fn reset(&mut self) {
        self.delivered = Default::default();
        self.dropped = Default::default();
        self.per_link.clear();
        self.per_node_rx.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use swishmem_wire::swish::{Heartbeat, SyncUpdate, WriteAck, WriteOp, WriteRequest};
    use swishmem_wire::{DataPacket, FlowKey};

    fn data() -> Packet {
        Packet::data(
            NodeId(0),
            NodeId(1),
            DataPacket::udp(
                FlowKey::udp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
                0,
                10,
            ),
        )
    }

    #[test]
    fn classification_covers_message_kinds() {
        let w = Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Write(WriteRequest {
                write_id: 1,
                writer: NodeId(0),
                epoch: 0,
                reg: 0,
                key: 0,
                seq: 0,
                op: WriteOp::Set(1),
                trace: swishmem_wire::TraceId::NONE,
            }),
        );
        let a = Packet::swish(
            NodeId(1),
            NodeId(0),
            SwishMsg::Ack(WriteAck {
                write_id: 1,
                writer: NodeId(0),
                reg: 0,
                key: 0,
                seq: 1,
                trace: swishmem_wire::TraceId::NONE,
            }),
        );
        let s = Packet::swish(
            NodeId(0),
            NodeId(1),
            SwishMsg::Sync(SyncUpdate {
                origin: NodeId(0),
                trace: swishmem_wire::TraceId::NONE,
                entries: vec![].into(),
            }),
        );
        let h = Packet::swish(
            NodeId(0),
            NodeId::CONTROLLER,
            SwishMsg::Heartbeat(Heartbeat {
                from: NodeId(0),
                epoch: 0,
            }),
        );
        assert_eq!(TrafficClass::of(&data()), TrafficClass::Data);
        assert_eq!(TrafficClass::of(&w), TrafficClass::SroWrite);
        assert_eq!(TrafficClass::of(&a), TrafficClass::SroControl);
        assert_eq!(TrafficClass::of(&s), TrafficClass::EwoSync);
        assert_eq!(TrafficClass::of(&h), TrafficClass::Management);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut st = NetStats::default();
        let p = data();
        st.record_delivery(&p, p.dst, 100);
        st.record_delivery(&p, p.dst, 50);
        st.record_drop(DropReason::Loss, 60);

        assert_eq!(
            st.delivered(TrafficClass::Data),
            Counter {
                packets: 2,
                bytes: 150
            }
        );
        assert_eq!(st.delivered_total().bytes, 150);
        assert_eq!(
            st.dropped(DropReason::Loss),
            Counter {
                packets: 1,
                bytes: 60
            }
        );
        assert_eq!(st.link(NodeId(0), NodeId(1)).packets, 2);
        assert_eq!(st.node_rx(NodeId(1)).bytes, 150);

        st.reset();
        assert_eq!(st.delivered_total().packets, 0);
    }
}
