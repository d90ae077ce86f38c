//! The programming interface network functions write against.
//!
//! An [`NfApp`] is a single-switch packet-processing function — written as
//! if there were one big reliable switch (§1's goal). All shared state
//! goes through the [`SharedState`] operations, whose implementation (the
//! SwiShmem layer) transparently handles replication, read redirection,
//! and write buffering according to each register's class.
//!
//! The contract mirrors the paper's compilation model (§5: "a compiler
//! could be used to translate regular P4 register accesses into SwiShmem
//! operations"): the app expresses plain register reads and writes; the
//! layer decides what they mean.

use swishmem_simnet::SimTime;
use swishmem_wire::swish::{Key, RegId};
use swishmem_wire::{DataPacket, NodeId};

/// What the NF decided to do with the packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfDecision {
    /// Emit `pkt` toward `dst` (a host or another switch).
    Forward {
        /// Next hop for the output packet.
        dst: NodeId,
        /// The (possibly rewritten) output packet.
        pkt: DataPacket,
    },
    /// Drop the packet.
    Drop,
}

/// Shared-register operations available to an NF while processing one
/// packet.
///
/// Semantics by register class:
///
/// * **SRO** — `read` returns the local replica unless a write to the
///   key's pending group is in flight, in which case the layer discards
///   this packet's outcome and re-executes it at the chain tail (the NF
///   never observes this). `write` is staged: the layer sends the write
///   set and the output packet to the control plane and releases the
///   output only after the chain acknowledges (§6.1).
/// * **ERO** — like SRO but `read` is always local.
/// * **EWO** — `read` is local (counters read the sum of all replica
///   slots); `add` applies immediately and replicates asynchronously
///   (§6.2).
///
/// Within one packet, reads observe the packet's own staged writes
/// (read-your-writes).
pub trait SharedState {
    /// Read `reg[key]`.
    fn read(&mut self, reg: RegId, key: Key) -> u64;

    /// Overwrite `reg[key]` (SRO/ERO/LWW registers).
    fn write(&mut self, reg: RegId, key: Key, value: u64);

    /// Add to `reg[key]` (EWO counter/windowed registers; on SRO/ERO this
    /// stages a read-modify-write `Set`).
    fn add(&mut self, reg: RegId, key: Key, delta: i64);

    /// Current simulated time (for window/epoch computations).
    fn now(&self) -> SimTime;

    /// The switch executing this packet.
    fn self_id(&self) -> NodeId;
}

/// A stateful network function deployed identically on every switch.
///
/// Implementations must be deterministic functions of
/// `(packet, shared state)`: the SRO read path may re-execute a packet at
/// the chain tail and expects the same outcome given the same state.
/// `Send`, so a deployment's switches can move between engine threads.
pub trait NfApp: Send + 'static {
    /// Process one data packet arriving from `ingress` (a host or peer).
    fn process(
        &mut self,
        pkt: &DataPacket,
        ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision;

    /// The switch failed; clear any app-internal (non-shared) state.
    fn reset(&mut self) {}
}

/// A trivial NF that forwards everything to a fixed destination without
/// touching shared state. Useful as a default and in substrate tests.
pub struct ForwardAll {
    /// Where every packet goes.
    pub dst: NodeId,
}

impl NfApp for ForwardAll {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        _st: &mut dyn SharedState,
    ) -> NfDecision {
        NfDecision::Forward {
            dst: self.dst,
            pkt: *pkt,
        }
    }
}
