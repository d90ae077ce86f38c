//! # swishmem-simnet
//!
//! A deterministic discrete-event network simulator: the "multi-switch
//! fabric with lossy links" substrate of the SwiShmem reproduction (see
//! DESIGN.md §2 for the substitution argument).
//!
//! Key properties:
//!
//! * **Deterministic**: one engine, [`ShardedEngine`]. On one shard a
//!   single engine RNG, a total event order `(time, insertion-seq)`, and
//!   sorted node-start order mean identical seeds produce identical runs
//!   — every experiment is replayable; on `S ≥ 2` shards the output is
//!   the same for every shard and worker count.
//! * **Faithful link costs**: links charge serialization delay from the
//!   true encoded frame length (computed by `swishmem-wire`), model
//!   transmitter queueing, and inject loss, jitter (reordering) and
//!   corruption — the failure model of the paper's §5 ("packets can be
//!   dropped, and links and switches may fail").
//! * **Fail-stop failures**: nodes can be failed and recovered on a
//!   schedule; a failed node neither receives nor transmits, and recovery
//!   restarts it with fresh state (§6.3's model).
//! * **Atomic node callbacks**: a node's outputs are applied only after
//!   its callback returns, mirroring PISA's atomic per-packet processing.
//! * **Passive taps**: the packet trace and ingress capture are
//!   [`NetObserver`]s (`add_observer`); spans and the journal are `Ctx`
//!   sinks (`set_spans`, `set_journal`). All four are a bounded [`Sink`]
//!   and none can perturb the run.
//!
//! ```
//! use swishmem_simnet::{ShardedEngine, SimTime, RecorderNode};
//! use swishmem_wire::{NodeId, Packet, DataPacket, FlowKey};
//! use std::net::Ipv4Addr;
//!
//! let mut sim = ShardedEngine::new(42, 1);
//! sim.add_node(NodeId(1), Box::new(RecorderNode::new()));
//! let pkt = Packet::data(NodeId(0), NodeId(1), DataPacket::udp(
//!     FlowKey::udp(Ipv4Addr::new(10,0,0,1), 1000, Ipv4Addr::new(10,0,0,2), 53), 0, 64));
//! sim.inject(SimTime::ZERO, pkt);
//! sim.run_until_quiescent(SimTime(1_000_000));
//! let rec = sim.node::<RecorderNode>(NodeId(1)).unwrap();
//! assert_eq!(rec.log().borrow().len(), 1);
//! ```

pub mod capture;
pub mod ctx;
pub(crate) mod events;
pub mod fault;
pub mod journal;
pub mod link;
pub mod node;
pub mod observe;
pub mod recorder;
pub mod shard;
pub mod sink;
pub mod span;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use capture::{CaptureBuffer, CaptureHandle};
pub use ctx::{Ctx, GroupId};
pub use fault::{FaultAction, FaultEvent, FaultGen, FaultSchedule, LinkOverlay};
pub use journal::{JournalCollector, JournalHandle, JournalRecord};
pub use link::{Link, LinkParams, LinkState};
pub use node::{AsAny, Node, NodeId, NodeObj, RelayNode};
pub use observe::{NetEvent, NetObserver, ObserverHandle};
pub use recorder::{RecorderNode, Recording};
pub use shard::ShardedEngine;
pub use sink::{Sink, SinkHandle};
pub use span::{SpanCollector, SpanEvent, SpanHandle, SpanPhase};
pub use stats::{Counter, DropReason, NetStats, TrafficClass};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
pub use trace::{Trace, TraceEntry, TraceHandle};
