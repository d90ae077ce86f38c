//! Control-plane journal telemetry: a bounded collector of fixed-width
//! structured records that protocol layers emit to narrate state-machine
//! transitions (consensus decrees, leadership changes, migrations).
//!
//! Like the [`crate::span::SpanCollector`], the collector is a [`Sink`]
//! fed through `Ctx` and obeys the sink passivity contract: every record
//! is stamped with `SimTime` only, so attaching it cannot perturb the
//! engine's `(time, seq)` event order or its RNG stream. The determinism
//! fingerprint tests (`tests/determinism.rs`,
//! `tests/shard_determinism.rs`) prove this bit-for-bit.
//!
//! The record format is deliberately *untyped* at this layer: `kind`
//! discriminates the event class and `cause`/`a`/`b`/`c` are opaque
//! payload words, so simnet needs no knowledge of the control-plane
//! protocols above it. The `swishmem` core crate defines the typed event
//! vocabulary (`telemetry::journal::CtrlEvent`) and its encode/decode,
//! plus the causal-link reconstruction that turns the flat record stream
//! into a parent-linked narrative. The `cause` word carries a
//! correlation key (not a record index): emitters never read the journal
//! back, which is what keeps emission passive; readers join records on
//! equal correlation keys after the run.

use crate::sink::{Sink, SinkHandle};
use crate::time::SimTime;
use swishmem_wire::NodeId;

/// One journal record: a SimTime-stamped, fixed-width structured event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JournalRecord {
    /// When the transition happened, in simulated time.
    pub time: SimTime,
    /// The node (e.g. controller replica) the transition happened on.
    pub node: NodeId,
    /// Event-class discriminant (typed by the layer above).
    pub kind: u16,
    /// Causal correlation key: records describing the same logical
    /// operation (one decree slot, one migration epoch) carry the same
    /// key, letting readers reconstruct parent links post-hoc.
    pub cause: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

/// A bounded in-memory journal collector (see [`Sink`] for the overflow
/// rule).
pub type JournalCollector = Sink<JournalRecord>;

/// Shared handle to a [`JournalCollector`] (the simulator holds one side).
pub type JournalHandle = SinkHandle<JournalRecord>;
