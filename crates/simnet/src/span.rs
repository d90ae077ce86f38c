//! Causal span telemetry: a bounded collector of phase markers that
//! cross-switch protocol layers emit against a [`TraceId`].
//!
//! The collector is a [`Sink`] fed through [`crate::ctx::Ctx::span`] and
//! obeys the sink passivity contract: every marker is stamped with
//! `SimTime` only, so attaching it cannot perturb the engine's
//! `(time, seq)` event order or its RNG stream. The determinism
//! fingerprint test (`tests/determinism.rs`) proves this bit-for-bit.
//!
//! A *span* here is a point marker, not an interval: one logical
//! operation (one `TraceId`) accumulates a time-ordered sequence of
//! markers (ingress, punt, CP dequeue, retries, chain hops, ack,
//! release), and interval durations fall out of consecutive-marker gaps.
//! Point markers telescope — the per-phase durations of a completed
//! operation always sum to exactly its end-to-end latency, which is what
//! lets the `explain` bin reconcile its breakdown against the
//! `write_latency` histogram with zero slack.

use crate::sink::{Sink, SinkHandle};
use crate::time::SimTime;
use swishmem_wire::{NodeId, TraceId};

/// A phase marker within a logical operation's lifetime.
///
/// The variants mirror the SwiShmem §6 protocol steps; payload-carrying
/// variants record *which* retry / chain position fired so the explain
/// tool can attribute time to individual attempts and hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanPhase {
    /// NF ingress: the data packet that originated the operation arrived
    /// and the NF staged a replicated write (or redirected read).
    Ingress,
    /// The packet (plus write job) left the data plane toward the local
    /// control plane. Stamped with the CPU-arrival time (PCIe/DMA cost).
    Punt,
    /// The job reached the front of the serial CP service queue.
    CpDequeue,
    /// The CP finished admitting the job and issued its first write sends.
    JobStart,
    /// Retry attempt `n` (1-based) fired for a still-unacked write.
    Retry(u16),
    /// The write request was applied at chain position `i` (0 = head).
    ChainHop(u8),
    /// The tail acked the write (and multicast the pending-bit clear).
    Ack,
    /// The writer's CP matched the ack and released the buffered packet.
    Release,
    /// The job was shed at admission (CP overload).
    Shed,
    /// The write exhausted its retry budget and was abandoned.
    Abandon,
    /// A read hit a pending register and was redirected to the tail.
    RedirectToTail,
    /// The tail served a redirected read.
    TailServe,
    /// An EWO periodic sync round started at its originating switch.
    SyncRound,
    /// A sync batch was merged at a receiving switch.
    SyncMerge,
}

impl SpanPhase {
    /// Stable lowercase name (payload not included; see [`Self::label`]).
    pub fn name(&self) -> &'static str {
        match self {
            SpanPhase::Ingress => "ingress",
            SpanPhase::Punt => "punt",
            SpanPhase::CpDequeue => "cp_dequeue",
            SpanPhase::JobStart => "job_start",
            SpanPhase::Retry(_) => "retry",
            SpanPhase::ChainHop(_) => "chain_hop",
            SpanPhase::Ack => "ack",
            SpanPhase::Release => "release",
            SpanPhase::Shed => "shed",
            SpanPhase::Abandon => "abandon",
            SpanPhase::RedirectToTail => "redirect_to_tail",
            SpanPhase::TailServe => "tail_serve",
            SpanPhase::SyncRound => "sync_round",
            SpanPhase::SyncMerge => "sync_merge",
        }
    }

    /// Display label including the payload (`retry[2]`, `chain_hop[0]`).
    pub fn label(&self) -> String {
        match self {
            SpanPhase::Retry(n) => format!("retry[{n}]"),
            SpanPhase::ChainHop(i) => format!("chain_hop[{i}]"),
            p => p.name().to_string(),
        }
    }
}

/// One recorded marker. The derived order (time, trace, node, phase) is
/// the sharded engine's deterministic merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanEvent {
    /// When the phase happened, in simulated time. May lie slightly in
    /// the future of the emitting callback (the PISA CP queue model emits
    /// `punt`/`cp_dequeue` markers at their modeled times), so consumers
    /// must sort per trace rather than assume emission order.
    pub time: SimTime,
    /// The logical operation this marker belongs to.
    pub trace: TraceId,
    /// The node the phase happened on.
    pub node: NodeId,
    /// Which phase.
    pub phase: SpanPhase,
}

/// A bounded in-memory span collector (see [`Sink`] for the overflow
/// rule). Untraced markers ([`TraceId::NONE`]) never reach it: the `Ctx`
/// helpers filter them.
pub type SpanCollector = Sink<SpanEvent>;

/// Shared handle to a [`SpanCollector`] (the simulator holds one side).
pub type SpanHandle = SinkHandle<SpanEvent>;

impl SpanCollector {
    /// Number of distinct trace ids recorded.
    pub fn trace_count(&self) -> usize {
        let mut ids: Vec<u64> = self.entries().iter().map(|e| e.trace.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Events of one trace, sorted by time (ties keep emission order).
    pub fn by_trace(&self, trace: TraceId) -> Vec<SpanEvent> {
        let mut out: Vec<SpanEvent> = self
            .entries()
            .iter()
            .copied()
            .filter(|e| e.trace == trace)
            .collect();
        out.sort_by_key(|e| e.time);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let h = SpanCollector::new(3);
        let mut c = h.borrow_mut();
        let t1 = TraceId::new(NodeId(0), 1);
        let t2 = TraceId::new(NodeId(1), 1);
        let ev = |t, trace, node, phase| SpanEvent {
            time: SimTime(t),
            trace,
            node: NodeId(node),
            phase,
        };
        c.record(ev(5, t1, 0, SpanPhase::Punt));
        c.record(ev(1, t1, 0, SpanPhase::Ingress));
        c.record(ev(2, t2, 1, SpanPhase::Ingress));
        assert_eq!(c.trace_count(), 2);
        // by_trace sorts by time even when emission order differed.
        let t1_events = c.by_trace(t1);
        assert_eq!(t1_events[0].phase, SpanPhase::Ingress);
        assert_eq!(t1_events[1].phase, SpanPhase::Punt);
    }

    #[test]
    fn labels_carry_payloads() {
        assert_eq!(SpanPhase::Retry(2).label(), "retry[2]");
        assert_eq!(SpanPhase::ChainHop(0).label(), "chain_hop[0]");
        assert_eq!(SpanPhase::Release.label(), "release");
        assert_eq!(SpanPhase::Retry(2).name(), "retry");
    }
}
