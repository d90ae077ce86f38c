//! The simulation engine: conservative parallel discrete-event
//! simulation (PDES) over time-window barriers.
//!
//! [`ShardedEngine`] partitions the topology into shards that each own a
//! slice of nodes and run a private event heap (optionally on a dedicated
//! worker thread), exchanging cross-shard frames at deterministic
//! time-window barriers. One shard is the plain sequential simulator: a
//! single event loop with no barriers. The lookahead bound is the minimum one-way link
//! latency Δ over the whole topology: a frame sent at `t` cannot arrive
//! before `t + Δ`, so shards that process windows `[kΔ, (k+1)Δ)` in
//! lockstep and trade mail between windows never receive an event behind
//! their local clock — the classic conservative-PDES argument, with the
//! window grid anchored at absolute zero so it is identical for every
//! shard count.
//!
//! # Determinism contract
//!
//! * **Shard count is a pure performance knob.** For `S ≥ 2` every node
//!   owns an RNG stream forked from the run seed via splitmix64 and every
//!   scheduled event carries a globally unique `(time, key)` pair whose
//!   key encodes its origin, so the processing order seen by any one node
//!   — and the merged stats/trace/span/observer output — is identical for
//!   `S = 2, 4, 8, …` and for any worker-thread count.
//! * **`S = 1` is the historical sequential algorithm.** The single
//!   shard draws one global RNG seeded `seed_from_u64(seed)` and one
//!   global insertion sequence, reproducing the golden determinism
//!   fingerprint unchanged. It also writes straight into the attached
//!   taps: observers are called synchronously as events are applied, and
//!   span and journal records land in the attached handles' sinks.
//!
//! The two regimes necessarily differ from each other (a global RNG
//! cannot be partitioned), which is why the contract is stated this way:
//! `S = 1` preserves history, `S ≥ 2` are mutually identical.
//!
//! Hot-path layout: event payloads live in a slab and the priority queue
//! orders flat `(time, key, slab index)` triples, so heap sifts move
//! 24-byte entries instead of full packets; node ids resolve through a
//! dense index table instead of a hash map; and per-dispatch command
//! buffers are pooled. See DESIGN.md's "Performance model" for the
//! measurements behind these choices.
//!
//! # Event keys
//!
//! In PDES mode a node-originated event gets the key
//! `(origin_id + 1) << 47 | per-origin-counter`; externally scheduled
//! events (injections, fault schedules) draw from an engine-level counter
//! and stay below `2^47`. Keys are unique across shards, so the event
//! heap's pop order is insertion-independent ([`crate::events`] pins
//! this) and the barrier's mailbox drain order is irrelevant.

use crate::ctx::{Command, Ctx, GroupId};
use crate::events::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultSchedule, LinkOverlay};
use crate::journal::{JournalHandle, JournalRecord};
use crate::node::NodeObj;
use crate::observe::{NetEvent, ObserverHandle, OwnedNetEvent};
use crate::sink::{Sink, SinkHandle};
use crate::span::{SpanEvent, SpanHandle};
use crate::stats::{DropReason, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{OnceCell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use swishmem_wire::{NodeId, Packet, PacketBody};

/// External events keep keys below this bit; node-origin keys sit above,
/// so the two spaces never collide.
const ORIGIN_SHIFT: u32 = 47;

/// splitmix64 finalizer — the standard seed-stream splitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-node RNG seed: a splitmix64 fork of the run seed by node id. A
/// pure function of `(seed, id)`, so it is independent of the partition.
fn node_seed(seed: u64, id: NodeId) -> u64 {
    splitmix64(seed ^ splitmix64(0x5157_4d45_4d00_0000 | u64::from(id.0)))
}

/// Node-id → shard lookup, shared by all shard cores.
#[derive(Default)]
struct ShardMap {
    /// `NodeId.index()` → shard. Unregistered ids map to shard 0, which
    /// makes their `NoRoute` accounting land deterministically.
    of: Vec<u32>,
}

impl ShardMap {
    #[inline]
    fn shard_of(&self, id: NodeId) -> u32 {
        self.of.get(id.index()).copied().unwrap_or(0)
    }
}

/// A cross-shard frame in flight, parked in a mailbox until the barrier.
struct Mail {
    time: u64,
    key: u64,
    to: NodeId,
    pkt: Packet,
    corrupt: bool,
}

/// A deferred multicast-group update (PDES mode): collected at the
/// barrier, sorted by `(time, key)`, and applied to every shard's
/// topology copy uniformly, so group membership is replicated and takes
/// effect from the next window regardless of which shard issued it.
#[derive(Clone)]
struct GroupCmd {
    time: u64,
    key: u64,
    group: GroupId,
    members: Vec<NodeId>,
}

/// How a shard core allocates event keys and randomness.
enum Mode {
    /// `S = 1`: the sequential algorithm — one global RNG, one global
    /// insertion sequence shared by external and internal events.
    Legacy { rng: StdRng, seq: u64 },
    /// `S ≥ 2`: per-node RNG streams and per-origin key counters,
    /// indexed by local slot.
    Pdes { rngs: Vec<StdRng>, ctrs: Vec<u64> },
}

struct ShardSlot {
    id: NodeId,
    node: Box<dyn NodeObj>,
    failed: bool,
}

/// The passive taps attached on the control thread. A single-shard core
/// borrows them for each run call and writes into them directly; cores
/// of a multi-shard run buffer instead (they may run on worker threads,
/// and the handles are `Rc`s).
#[derive(Default)]
struct Taps {
    spans: Option<SpanHandle>,
    journal: Option<JournalHandle>,
    observers: Vec<ObserverHandle>,
}

/// Sentinel in the id → slot table.
const ABSENT: u32 = u32::MAX;

/// One shard core: a self-contained event loop over the nodes it owns.
/// `Send`, so the windowed run loop can hand cores to worker threads.
struct Engine {
    shard: u32,
    now: SimTime,
    queue: EventQueue,
    node_index: Vec<u32>,
    nodes: Vec<ShardSlot>,
    topo: Topology,
    mode: Mode,
    stats: NetStats,
    events_processed: u64,
    peak_queue_depth: usize,
    /// Owned span buffer (multi-shard runs with a span handle attached).
    spans: Option<RefCell<Sink<SpanEvent>>>,
    /// Owned journal buffer (multi-shard runs with a journal attached).
    journal: Option<RefCell<Sink<JournalRecord>>>,
    /// Observer-event buffer `(time, key, event)` (multi-shard runs with
    /// observers registered); replayed through them after each run call.
    obs_buf: Option<Vec<(u64, u64, OwnedNetEvent)>>,
    /// Per-destination-shard mailboxes, drained at window barriers.
    outbox: Vec<Vec<Mail>>,
    /// Deferred group updates (PDES mode).
    group_out: Vec<GroupCmd>,
    cmd_scratch: Vec<Command>,
    member_scratch: Vec<NodeId>,
    map: Arc<ShardMap>,
    wire_check: bool,
}

impl Engine {
    fn new(
        shard: u32,
        shards: usize,
        topo: Topology,
        legacy_seed: Option<u64>,
        map: Arc<ShardMap>,
    ) -> Engine {
        Engine {
            shard,
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            node_index: Vec::new(),
            nodes: Vec::new(),
            topo,
            mode: match legacy_seed {
                Some(seed) => Mode::Legacy {
                    rng: StdRng::seed_from_u64(seed),
                    seq: 0,
                },
                None => Mode::Pdes {
                    rngs: Vec::new(),
                    ctrs: Vec::new(),
                },
            },
            stats: NetStats::default(),
            events_processed: 0,
            peak_queue_depth: 0,
            spans: None,
            journal: None,
            obs_buf: None,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            group_out: Vec::new(),
            cmd_scratch: Vec::new(),
            member_scratch: Vec::new(),
            map,
            wire_check: false,
        }
    }

    fn add_node(&mut self, id: NodeId, node: Box<dyn NodeObj>, run_seed: u64) {
        let i = id.index();
        if i >= self.node_index.len() {
            self.node_index.resize(i + 1, ABSENT);
        }
        assert!(self.node_index[i] == ABSENT, "duplicate node id {id}");
        self.node_index[i] = self.nodes.len() as u32;
        self.nodes.push(ShardSlot {
            id,
            node,
            failed: false,
        });
        if let Mode::Pdes { rngs, ctrs } = &mut self.mode {
            rngs.push(StdRng::seed_from_u64(node_seed(run_seed, id)));
            ctrs.push(0);
        }
    }

    #[inline]
    fn slot_of(&self, id: NodeId) -> Option<usize> {
        match self.node_index.get(id.index()) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.slot_of(id)
            .and_then(|s| (*self.nodes[s].node).as_any().downcast_ref())
    }

    fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let s = self.slot_of(id)?;
        (*self.nodes[s].node).as_any_mut().downcast_mut()
    }

    /// Allocate the key for an event originated by the node in
    /// `origin_slot`. Legacy mode draws the global sequence; PDES mode
    /// draws the origin's counter, which advances identically under any
    /// partition because a node's processing is partition-invariant.
    fn alloc_key(&mut self, origin_slot: usize) -> u64 {
        match &mut self.mode {
            Mode::Legacy { seq, .. } => {
                let k = *seq;
                *seq += 1;
                k
            }
            Mode::Pdes { ctrs, .. } => {
                let c = ctrs[origin_slot];
                ctrs[origin_slot] += 1;
                (u64::from(self.nodes[origin_slot].id.0) + 1) << ORIGIN_SHIFT | c
            }
        }
    }

    #[inline]
    fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        self.queue.push(time, key, kind);
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    /// Schedule an externally keyed event. Legacy mode substitutes its
    /// global sequence so `S = 1` reproduces the sequential engine's
    /// key stream bit-for-bit.
    fn push_ext(&mut self, time: SimTime, key: u64, kind: EventKind) {
        match &mut self.mode {
            Mode::Legacy { seq, .. } => {
                let k = *seq;
                *seq += 1;
                self.queue.push(time, k, kind);
            }
            Mode::Pdes { .. } => self.queue.push(time, key, kind),
        }
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
    }

    #[inline]
    fn push_mail(&mut self, m: Mail) {
        self.push(
            SimTime(m.time),
            m.key,
            EventKind::Deliver {
                to: m.to,
                pkt: m.pkt,
                corrupt: m.corrupt,
            },
        );
    }

    /// `on_start` for every owned node, in id order.
    fn start(&mut self, taps: Option<&Taps>) {
        let mut order: Vec<(NodeId, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(s, n)| (n.id, s))
            .collect();
        order.sort();
        for (_, slot) in order {
            self.dispatch(taps, slot, |node, ctx| node.on_start(ctx));
        }
    }

    /// Process every pending event strictly before `end_excl`. `taps` is
    /// `Some` for a single-shard run (write into them directly) and
    /// `None` for multi-shard runs (buffer into the core's own sinks).
    #[inline]
    fn run_window(&mut self, end_excl: u64, taps: Option<&Taps>) {
        while let Some(t) = self.queue.peek_time() {
            if t.0 >= end_excl {
                break;
            }
            let (time, key, kind) = self.queue.pop().expect("peeked");
            self.process(taps, time, key, kind);
        }
    }

    /// Report an observable transition at the current time: synchronously
    /// to the lent observers, or into the replay buffer.
    #[inline]
    fn observe(&mut self, taps: Option<&Taps>, key: u64, ev: NetEvent<'_>) {
        match taps {
            Some(t) => {
                for obs in &t.observers {
                    obs.borrow_mut().on_net_event(self.now, &ev);
                }
            }
            None => {
                if let Some(buf) = &mut self.obs_buf {
                    buf.push((self.now.0, key, OwnedNetEvent::from(&ev)));
                }
            }
        }
    }

    #[inline(never)]
    fn process(&mut self, taps: Option<&Taps>, time: SimTime, key: u64, kind: EventKind) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        // Link events are replicated to both endpoint-owning shards; only
        // the observable copy (`notify`) counts, so `events_processed`
        // tallies logical events and stays shard-count-invariant.
        let replica = matches!(
            kind,
            EventKind::LinkSet { notify: false, .. }
                | EventKind::LinkDegrade { notify: false, .. }
                | EventKind::LinkRestore { notify: false, .. }
        );
        if !replica {
            self.events_processed += 1;
        }
        match kind {
            EventKind::Deliver { to, pkt, corrupt } => match self.slot_of(to) {
                None => {
                    self.stats.record_drop(DropReason::NoRoute, pkt.wire_len());
                }
                Some(slot) if self.nodes[slot].failed => {
                    self.stats.record_drop(DropReason::NodeDown, pkt.wire_len());
                }
                Some(slot) if corrupt => {
                    self.stats.record_drop(DropReason::Corrupt, pkt.wire_len());
                    self.dispatch(taps, slot, |node, ctx| node.on_corrupt_packet(pkt, ctx));
                }
                Some(slot) => {
                    self.stats.record_delivery(&pkt, to, pkt.wire_len());
                    // Wire-fidelity check: serialize through the real
                    // codecs and re-parse. UDP data packets legitimately
                    // drop their simulator-side `flow_seq` on the wire.
                    if self.wire_check {
                        let bytes = pkt.to_bytes();
                        assert_eq!(bytes.len(), pkt.wire_len(), "wire_len drift: {pkt:?}");
                        let mut reparsed = Packet::from_bytes(&bytes)
                            .unwrap_or_else(|e| panic!("undecodable frame {pkt:?}: {e}"));
                        if let (PacketBody::Data(a), PacketBody::Data(b)) =
                            (&pkt.body, &mut reparsed.body)
                        {
                            if a.flow.proto == 17 {
                                b.flow_seq = a.flow_seq;
                            }
                        }
                        assert_eq!(reparsed, pkt, "codec round-trip drift");
                    }
                    self.observe(taps, key, NetEvent::Delivered { to, pkt: &pkt });
                    self.dispatch(taps, slot, |node, ctx| node.on_packet(pkt, ctx));
                }
            },
            EventKind::Timer { node, token } => {
                if let Some(slot) = self.slot_of(node) {
                    if !self.nodes[slot].failed {
                        self.dispatch(taps, slot, |n, ctx| n.on_timer(token, ctx));
                    }
                }
            }
            EventKind::Fail { node } => {
                if let Some(slot) = self.slot_of(node) {
                    let s = &mut self.nodes[slot];
                    if !s.failed {
                        s.failed = true;
                        s.node.on_fail();
                        self.observe(taps, key, NetEvent::NodeFailed { node });
                    }
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.slot_of(node) {
                    if std::mem::replace(&mut self.nodes[slot].failed, false) {
                        self.observe(taps, key, NetEvent::NodeRecovered { node });
                        self.dispatch(taps, slot, |n, ctx| n.on_start(ctx));
                    }
                }
            }
            EventKind::LinkSet { a, b, down, notify } => {
                self.topo.set_link_down(a, b, down);
                if notify {
                    self.observe(taps, key, NetEvent::LinkChanged { a, b, down });
                }
            }
            EventKind::LinkDegrade {
                a,
                b,
                overlay,
                notify,
            } => {
                self.topo.degrade_link(a, b, &overlay);
                if notify {
                    self.observe(taps, key, NetEvent::LinkDegraded { a, b });
                }
            }
            EventKind::LinkRestore { a, b, notify } => {
                self.topo.restore_link(a, b);
                if notify {
                    self.observe(taps, key, NetEvent::LinkRestored { a, b });
                }
            }
            EventKind::Vacant => unreachable!("vacant slab slot in the event queue"),
        }
    }

    /// Run a node callback and apply the commands it issued. The command
    /// buffer is pooled: steady-state dispatches allocate nothing.
    fn dispatch<F>(&mut self, taps: Option<&Taps>, slot: usize, f: F)
    where
        F: FnOnce(&mut dyn NodeObj, &mut Ctx<'_>),
    {
        let mut commands = std::mem::take(&mut self.cmd_scratch);
        debug_assert!(commands.is_empty());
        let id = self.nodes[slot].id;
        {
            let rng = match &mut self.mode {
                Mode::Legacy { rng, .. } => rng,
                Mode::Pdes { rngs, .. } => &mut rngs[slot],
            };
            let (spans, journal) = match taps {
                Some(t) => (t.spans.as_deref(), t.journal.as_deref()),
                None => (self.spans.as_ref(), self.journal.as_ref()),
            };
            let mut ctx = Ctx {
                now: self.now,
                node: id,
                rng,
                commands: &mut commands,
                spans,
                journal,
            };
            f(self.nodes[slot].node.as_mut(), &mut ctx);
        }
        for cmd in commands.drain(..) {
            self.apply(id, slot, cmd);
        }
        self.cmd_scratch = commands;
    }

    fn take_members(&mut self, group: GroupId, from: NodeId) -> Vec<NodeId> {
        let mut members = std::mem::take(&mut self.member_scratch);
        members.clear();
        members.extend(
            self.topo
                .group(group)
                .iter()
                .copied()
                .filter(|&m| m != from),
        );
        members
    }

    fn apply(&mut self, from: NodeId, from_slot: usize, cmd: Command) {
        match cmd {
            Command::Send { to, body } => self.transmit(from, from_slot, to, body),
            Command::Multicast { group, body } => {
                let members = self.take_members(group, from);
                for &m in &members {
                    self.transmit(from, from_slot, m, body.clone());
                }
                self.member_scratch = members;
            }
            Command::Timer { delay, token } => {
                let t = self.now + delay;
                let key = self.alloc_key(from_slot);
                self.push(t, key, EventKind::Timer { node: from, token });
            }
            Command::SendRandom { group, body } => {
                let candidates = self.take_members(group, from);
                if !candidates.is_empty() {
                    let rng = match &mut self.mode {
                        Mode::Legacy { rng, .. } => rng,
                        Mode::Pdes { rngs, .. } => &mut rngs[from_slot],
                    };
                    let pick = candidates[rng.gen_range(0..candidates.len())];
                    self.member_scratch = candidates;
                    self.transmit(from, from_slot, pick, body);
                } else {
                    self.member_scratch = candidates;
                }
            }
            Command::SetGroup { group, members } => match &mut self.mode {
                Mode::Legacy { .. } => self.topo.set_group(group, members),
                Mode::Pdes { .. } => {
                    let key = self.alloc_key(from_slot);
                    self.group_out.push(GroupCmd {
                        time: self.now.0,
                        key,
                        group,
                        members,
                    });
                }
            },
        }
    }

    fn transmit(&mut self, from: NodeId, from_slot: usize, to: NodeId, body: PacketBody) {
        let pkt = Packet {
            src: from,
            dst: to,
            body,
        };
        let bytes = pkt.wire_len();
        if self.nodes[from_slot].failed {
            self.stats.record_drop(DropReason::NodeDown, bytes);
            return;
        }
        let (hop, link_ref) = match self.topo.resolve(from, to) {
            Some(r) => r,
            None => {
                self.stats.record_drop(DropReason::NoRoute, bytes);
                return;
            }
        };
        let link = self.topo.link_at(link_ref);
        if link.state.down {
            self.stats.record_drop(DropReason::LinkDown, bytes);
            return;
        }
        let params = link.params;
        // Sample faults deterministically: loss, then jitter, then
        // corruption, from the origin's RNG.
        let rng = match &mut self.mode {
            Mode::Legacy { rng, .. } => rng,
            Mode::Pdes { rngs, .. } => &mut rngs[from_slot],
        };
        if params.drop_prob > 0.0 && rng.gen::<f64>() < params.drop_prob {
            self.stats.record_drop(DropReason::Loss, bytes);
            return;
        }
        let jitter = if params.jitter.as_nanos() > 0 {
            SimDuration::nanos(rng.gen_range(0..=params.jitter.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let corrupt = params.corrupt_prob > 0.0 && rng.gen::<f64>() < params.corrupt_prob;
        if let Some(arrival) = self
            .topo
            .link_at_mut(link_ref)
            .transmit(self.now, bytes, jitter)
        {
            let key = self.alloc_key(from_slot);
            let dest = self.map.shard_of(hop);
            if dest == self.shard {
                self.push(
                    arrival,
                    key,
                    EventKind::Deliver {
                        to: hop,
                        pkt,
                        corrupt,
                    },
                );
            } else {
                self.outbox[dest as usize].push(Mail {
                    time: arrival.0,
                    key,
                    to: hop,
                    pkt,
                    corrupt,
                });
            }
        } else {
            self.stats.record_drop(DropReason::LinkDown, bytes);
        }
    }
}

/// Barrier decision shared between worker threads.
#[derive(Clone, Copy)]
enum Decision {
    /// Run the window ending (exclusive) at the given time.
    Window(u64),
    /// No events remain at or below the bound.
    Done,
}

fn decide(peeks: &[AtomicU64], window: u64, bound: u64) -> Decision {
    let next = peeks
        .iter()
        .map(|p| p.load(Ordering::SeqCst))
        .min()
        .unwrap_or(u64::MAX);
    if next == u64::MAX || next > bound {
        return Decision::Done;
    }
    let w = next / window;
    let end = w
        .saturating_add(1)
        .saturating_mul(window)
        .min(bound.saturating_add(1));
    Decision::Window(end)
}

/// The simulation engine.
///
/// Build nodes and topology, schedule external events, run. The
/// topology and node set freeze at the first schedule/inject/run call
/// (the partition is computed then); after that `add_node`,
/// `topology_mut` and `assign_shard` panic.
pub struct ShardedEngine {
    seed: u64,
    shards_req: usize,
    /// Worker-thread cap; `None` means one per available core, looked up
    /// at the first multi-shard run (the lookup reads cgroup files).
    workers: Option<usize>,
    master_topo: Topology,
    pending: Vec<(NodeId, Box<dyn NodeObj>)>,
    pins: Vec<(NodeId, u32)>,
    engines: Vec<Engine>,
    map: Arc<ShardMap>,
    /// The lookahead bound Δ, in nanoseconds (window width).
    window: u64,
    now: SimTime,
    ext_ctr: u64,
    started: bool,
    frozen: bool,
    taps: Taps,
    wire_check: bool,
    crit_ns: u64,
    /// Per-shard stats summed, built on demand for multi-shard runs and
    /// dropped whenever the counters move.
    merged: OnceCell<NetStats>,
}

impl ShardedEngine {
    /// Create an engine that will partition its nodes into (at most)
    /// `shards` shards. `shards = 1` selects the sequential algorithm.
    pub fn new(seed: u64, shards: usize) -> ShardedEngine {
        ShardedEngine {
            seed,
            shards_req: shards.max(1),
            workers: None,
            master_topo: Topology::new(),
            pending: Vec::new(),
            pins: Vec::new(),
            engines: Vec::new(),
            map: Arc::new(ShardMap::default()),
            window: 1,
            now: SimTime::ZERO,
            ext_ctr: 0,
            started: false,
            frozen: false,
            taps: Taps::default(),
            wire_check: false,
            crit_ns: 0,
            merged: OnceCell::new(),
        }
    }

    /// Cap the number of worker threads the windowed run loop uses.
    /// Purely a performance knob: results are identical for any value
    /// (1 selects the sequential round-robin loop).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = Some(workers.max(1));
    }

    /// Register a node. Panics after the engine has frozen.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn NodeObj>) {
        assert!(!self.frozen, "cannot add nodes after the engine froze");
        assert!(
            !self.pending.iter().any(|(i, _)| *i == id),
            "duplicate node id {id}"
        );
        self.pending.push((id, node));
    }

    /// Pin `id` to a specific shard, overriding the partitioner (useful
    /// for tests that need a known cross-shard placement). Panics after
    /// the engine has frozen.
    pub fn assign_shard(&mut self, id: NodeId, shard: u32) {
        assert!(!self.frozen, "cannot pin shards after the engine froze");
        self.pins.push((id, shard));
    }

    /// Mutable topology access (links, groups, routes). Panics after the
    /// engine has frozen — per-shard copies would silently diverge.
    pub fn topology_mut(&mut self) -> &mut Topology {
        assert!(
            !self.frozen,
            "topology is frozen after the first schedule/inject/run"
        );
        &mut self.master_topo
    }

    /// Read access to the topology. After freezing this reflects shard
    /// 0's copy: group membership is replicated across shards, but
    /// transient link state is only authoritative on the shard owning
    /// the link's source node.
    pub fn topology(&self) -> &Topology {
        if self.frozen {
            &self.engines[0].topo
        } else {
            &self.master_topo
        }
    }

    /// Enable wire-fidelity checking: every delivered frame is serialized
    /// through the real codecs and re-parsed; a mismatch panics. Catches
    /// any drift between the structured fast path and the byte encodings.
    pub fn set_wire_check(&mut self, on: bool) {
        self.wire_check = on;
        for e in &mut self.engines {
            e.wire_check = on;
        }
    }

    /// Attach a span collector: [`Ctx::span`] markers emitted by nodes
    /// are recorded into it. Strictly passive — attaching it never
    /// changes the event order or the RNG stream (`tests/determinism.rs`
    /// pins this). A single shard records directly; multi-shard runs
    /// buffer per shard and merge deterministically after each run call.
    pub fn set_spans(&mut self, spans: SpanHandle) {
        self.taps.spans = Some(spans);
    }

    /// Attach a journal collector: [`Ctx::journal`] records emitted by
    /// nodes are recorded into it. Strictly passive, exactly like the
    /// span collector.
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.taps.journal = Some(journal);
    }

    /// Attach a passive observer (an oracle, a packet trace or an
    /// ingress capture). Observers cannot influence the run; attaching
    /// one never changes the event order or RNG stream. A single shard
    /// notifies them synchronously as events are applied; multi-shard
    /// runs buffer events per shard and replay them in deterministic
    /// `(time, key)` order after each run call, which the passivity rule
    /// makes equivalent. [`NetEvent::Injected`] is reported at the
    /// `inject` call itself.
    pub fn add_observer(&mut self, obs: ObserverHandle) {
        self.taps.observers.push(obs);
    }

    /// Number of shards (after freezing; the requested count before).
    pub fn shards(&self) -> usize {
        if self.frozen {
            self.engines.len()
        } else {
            self.shards_req
        }
    }

    /// The barrier window width Δ (the lookahead bound).
    pub fn window(&self) -> SimDuration {
        SimDuration(self.window)
    }

    /// The shard owning `id` (meaningful after freezing).
    pub fn shard_of(&self, id: NodeId) -> u32 {
        self.map.shard_of(id)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.engines.iter().map(|e| e.events_processed).sum()
    }

    /// Highest pending-queue depth any shard reached.
    pub fn peak_queue_depth(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate statistics (per-shard counters summed).
    pub fn stats(&self) -> &NetStats {
        match self.engines.as_slice() {
            [one] => &one.stats,
            cores => self.merged.get_or_init(|| {
                let mut out = NetStats::default();
                for e in cores {
                    out.merge_from(&e.stats);
                }
                out
            }),
        }
    }

    /// Zero the statistics (for windowed measurements).
    pub fn reset_stats(&mut self) {
        for e in &mut self.engines {
            e.stats.reset();
        }
        self.merged.take();
    }

    /// Accumulated critical-path compute time of a multi-shard run: Σ
    /// over windows of the slowest shard's processing time for that
    /// window. The hardware-independent parallel-runtime lower bound —
    /// what the wall clock converges to with one core per shard (plus
    /// barrier costs). A single shard never reads the host clock and
    /// reports 0: its wall time is its critical path.
    pub fn critical_path_ns(&self) -> u64 {
        self.crit_ns
    }

    /// Typed read access to a node.
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        match self.engines.as_slice() {
            [] => self
                .pending
                .iter()
                .find(|(i, _)| *i == id)
                .and_then(|(_, n)| (**n).as_any().downcast_ref()),
            [one] => one.node(id),
            cores => cores[self.map.shard_of(id) as usize].node(id),
        }
    }

    /// Typed mutable access to a node.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        match self.engines.as_mut_slice() {
            [] => self
                .pending
                .iter_mut()
                .find(|(i, _)| *i == id)
                .and_then(|(_, n)| (**n).as_any_mut().downcast_mut()),
            [one] => one.node_mut(id),
            cores => cores[self.map.shard_of(id) as usize].node_mut(id),
        }
    }

    /// Whether `id` is currently failed.
    pub fn is_failed(&self, id: NodeId) -> bool {
        let core = match self.engines.as_slice() {
            [] => return false,
            [one] => one,
            cores => &cores[self.map.shard_of(id) as usize],
        };
        core.slot_of(id).is_some_and(|s| core.nodes[s].failed)
    }

    /// Compute the partition, the lookahead bound, and the shard cores.
    /// Idempotent; called by the first schedule/inject/run.
    fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        let n = self.pending.len();
        let shards = self.shards_req.clamp(1, n.max(1));
        let ids: Vec<NodeId> = self.pending.iter().map(|(id, _)| *id).collect();
        let mut assign: Vec<u32> = if shards <= 1 {
            vec![0; n]
        } else {
            self.master_topo.partition(&ids, shards)
        };
        for &(id, shard) in &self.pins {
            if let Some(i) = ids.iter().position(|&x| x == id) {
                assign[i] = shard.min(shards as u32 - 1);
            }
        }
        // A single shard's map stays empty: every id resolves to shard 0.
        if shards > 1 {
            let max_idx = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
            let mut of = vec![0u32; max_idx];
            for (i, id) in ids.iter().enumerate() {
                of[id.index()] = assign[i];
            }
            self.map = Arc::new(ShardMap { of });
        }

        let delta = self
            .master_topo
            .min_latency()
            .map(|d| d.as_nanos())
            .unwrap_or(1_000);
        assert!(
            shards == 1 || delta > 0,
            "sharded runs need a positive minimum link latency (the lookahead bound); \
             use 1 shard for zero-latency topologies"
        );
        self.window = delta.max(1);

        // Every shard holds a full topology copy. The master itself moves
        // into shard 0, so a single shard copies nothing (the topology's
        // id index spans the largest node id).
        let legacy = shards == 1;
        let mut topos = vec![std::mem::take(&mut self.master_topo)];
        while topos.len() < shards {
            let copy = topos[0].clone();
            topos.push(copy);
        }
        self.engines = topos
            .into_iter()
            .enumerate()
            .map(|(s, topo)| {
                Engine::new(
                    s as u32,
                    shards,
                    topo,
                    legacy.then_some(self.seed),
                    self.map.clone(),
                )
            })
            .collect();
        for e in &mut self.engines {
            e.wire_check = self.wire_check;
        }
        let seed = self.seed;
        for (i, (id, node)) in self.pending.drain(..).enumerate() {
            self.engines[assign[i] as usize].add_node(id, node, seed);
        }
    }

    fn next_ext_key(&mut self) -> u64 {
        let k = self.ext_ctr;
        self.ext_ctr += 1;
        debug_assert!(k < 1 << ORIGIN_SHIFT, "external key space exhausted");
        k
    }

    /// Schedule delivery of `pkt` to `pkt.dst` at `t`, bypassing links.
    /// Used to inject external (ingress) traffic.
    pub fn inject(&mut self, t: SimTime, pkt: Packet) {
        self.freeze();
        assert!(t >= self.now, "cannot inject into the past");
        let ev = NetEvent::Injected { at: t, pkt: &pkt };
        for obs in &self.taps.observers {
            obs.borrow_mut().on_net_event(self.now, &ev);
        }
        let key = self.next_ext_key();
        let shard = self.map.shard_of(pkt.dst) as usize;
        let to = pkt.dst;
        self.engines[shard].push_ext(
            t,
            key,
            EventKind::Deliver {
                to,
                pkt,
                corrupt: false,
            },
        );
    }

    /// Schedule a fail-stop failure of `node` at `t` (owner shard).
    pub fn schedule_fail(&mut self, t: SimTime, node: NodeId) {
        self.freeze();
        let key = self.next_ext_key();
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Fail { node });
    }

    /// Schedule recovery of `node` at `t` (owner shard).
    pub fn schedule_recover(&mut self, t: SimTime, node: NodeId) {
        self.freeze();
        let key = self.next_ext_key();
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Recover { node });
    }

    /// Fire timer `token` on `node` at `t` (owner shard).
    pub fn schedule_trigger(&mut self, t: SimTime, node: NodeId, token: u64) {
        self.freeze();
        let key = self.next_ext_key();
        let shard = self.map.shard_of(node) as usize;
        self.engines[shard].push_ext(t, key, EventKind::Timer { node, token });
    }

    /// Route one link event into both endpoint-owning shards under the
    /// same external key; exactly one copy (the first endpoint's owner)
    /// carries the observer notification.
    fn push_link_event(
        &mut self,
        t: SimTime,
        a: NodeId,
        b: NodeId,
        make: impl Fn(bool) -> EventKind,
    ) {
        let key = self.next_ext_key();
        let sa = self.map.shard_of(a) as usize;
        let sb = self.map.shard_of(b) as usize;
        self.engines[sa].push_ext(t, key, make(true));
        if sb != sa {
            self.engines[sb].push_ext(t, key, make(false));
        }
    }

    /// Schedule the duplex link `a <-> b` going down (or up) at `t`.
    pub fn schedule_link_set(&mut self, t: SimTime, a: NodeId, b: NodeId, down: bool) {
        self.freeze();
        self.push_link_event(t, a, b, |notify| EventKind::LinkSet { a, b, down, notify });
    }

    /// Schedule a parameter overlay on the duplex link `a <-> b` at `t`.
    ///
    /// In PDES mode an overlay may not lower a link's latency below the
    /// lookahead bound Δ — that would let a frame arrive inside the
    /// window it was sent in, behind a peer shard's clock. Such overlays
    /// panic; raise the overlay latency or run single-shard.
    pub fn schedule_degrade(&mut self, t: SimTime, a: NodeId, b: NodeId, overlay: LinkOverlay) {
        self.freeze();
        if self.engines.len() > 1 {
            if let Some(l) = overlay.latency {
                assert!(
                    l.as_nanos() >= self.window,
                    "degrade overlay latency {l} is below the lookahead bound {} — \
                     cross-shard causality would break",
                    SimDuration(self.window)
                );
            }
        }
        self.push_link_event(t, a, b, |notify| EventKind::LinkDegrade {
            a,
            b,
            overlay,
            notify,
        });
    }

    /// Schedule restoration of the duplex link `a <-> b` at `t`.
    pub fn schedule_restore(&mut self, t: SimTime, a: NodeId, b: NodeId) {
        self.freeze();
        self.push_link_event(t, a, b, |notify| EventKind::LinkRestore { a, b, notify });
    }

    /// Install a [`FaultSchedule`]: every action lands on the shard that
    /// owns its target node (link events land on both endpoint owners),
    /// at the same `(time, key)` under any shard count.
    pub fn schedule_faults(&mut self, base: SimTime, sched: &FaultSchedule) {
        self.freeze();
        for ev in sched.events() {
            let t = base + ev.at;
            match ev.action {
                FaultAction::Crash { node } => self.schedule_fail(t, node),
                FaultAction::Restart { node } => self.schedule_recover(t, node),
                FaultAction::LinkDown { a, b } => self.schedule_link_set(t, a, b, true),
                FaultAction::LinkUp { a, b } => self.schedule_link_set(t, a, b, false),
                FaultAction::Degrade { a, b, overlay } => self.schedule_degrade(t, a, b, overlay),
                FaultAction::Restore { a, b } => self.schedule_restore(t, a, b),
                FaultAction::Trigger { node, token } => self.schedule_trigger(t, node, token),
            }
        }
    }

    /// Replace a multicast group's membership (replicated to every
    /// shard's topology copy once frozen).
    pub fn set_group(&mut self, group: GroupId, members: Vec<NodeId>) {
        if !self.frozen {
            self.master_topo.set_group(group, members);
            return;
        }
        for e in &mut self.engines {
            e.topo.set_group(group, members.clone());
        }
    }

    /// Give every shard core of a multi-shard run a buffer for each
    /// attached tap (taps may be attached between run calls).
    fn sync_sinks(&mut self) {
        let spans_on = self.taps.spans.is_some();
        let journal_on = self.taps.journal.is_some();
        let obs_on = !self.taps.observers.is_empty();
        for e in &mut self.engines {
            // Per-shard sinks are unbounded; the attached handle enforces
            // its own capacity at merge time.
            if spans_on && e.spans.is_none() {
                e.spans = Some(RefCell::new(Sink::detached(usize::MAX)));
            }
            if journal_on && e.journal.is_none() {
                e.journal = Some(RefCell::new(Sink::detached(usize::MAX)));
            }
            if obs_on && e.obs_buf.is_none() {
                e.obs_buf = Some(Vec::new());
            }
        }
    }

    fn start_once(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let taps = (self.engines.len() == 1).then_some(&self.taps);
        for e in &mut self.engines {
            e.start(taps);
        }
        // on_start sends have arrivals ≥ Δ, i.e. beyond window 0's end;
        // exchanging here keeps them ahead of the first windowed run.
        self.exchange();
    }

    /// Move cross-shard mail and deferred group updates between shard
    /// cores (the sequential-loop barrier).
    fn exchange(&mut self) {
        let s = self.engines.len();
        let mut groups: Vec<GroupCmd> = Vec::new();
        for e in &mut self.engines {
            groups.append(&mut e.group_out);
        }
        groups.sort_by_key(|a| (a.time, a.key));
        for g in &groups {
            for e in &mut self.engines {
                e.topo.set_group(g.group, g.members.clone());
            }
        }
        for src in 0..s {
            for dst in 0..s {
                if src == dst {
                    continue;
                }
                let mail = std::mem::take(&mut self.engines[src].outbox[dst]);
                for m in mail {
                    self.engines[dst].push_mail(m);
                }
            }
        }
    }

    fn workers(&mut self) -> usize {
        *self.workers.get_or_insert_with(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Freeze and start on the first run call; before every multi-shard
    /// run call, allocate buffers for newly attached taps. A started
    /// single shard needs none of it, and a caller polling `run_until`
    /// every few nanoseconds of sim time pays this on every call, so that
    /// case is one inlined branch.
    #[inline(always)]
    fn begin_run(&mut self) {
        if self.started && self.engines.len() == 1 {
            return;
        }
        self.freeze();
        if self.engines.len() > 1 {
            self.sync_sinks();
        }
        self.start_once();
    }

    #[inline(always)]
    fn run_span(&mut self, bound: u64) {
        if let [e] = self.engines.as_mut_slice() {
            // Single shard: no barriers and no host clock, one pass to
            // the bound with the taps lent directly.
            e.run_window(bound.saturating_add(1), Some(&self.taps));
        } else if self.workers() > 1 {
            self.run_span_parallel(bound);
        } else {
            self.run_span_seq(bound);
        }
    }

    fn run_span_seq(&mut self, bound: u64) {
        loop {
            let next = self
                .engines
                .iter()
                .filter_map(|e| e.queue.peek_time())
                .map(|t| t.0)
                .min();
            let Some(next) = next else { break };
            if next > bound {
                break;
            }
            let w = next / self.window;
            let end = w
                .saturating_add(1)
                .saturating_mul(self.window)
                .min(bound.saturating_add(1));
            let mut worst = 0u64;
            for e in &mut self.engines {
                // An idle shard (next event beyond this window) does no
                // work and contributes nothing to the critical path.
                if e.queue.peek_time().map(|t| t.0 >= end).unwrap_or(true) {
                    continue;
                }
                let t0 = Instant::now();
                e.run_window(end, None);
                worst = worst.max(t0.elapsed().as_nanos() as u64);
            }
            self.crit_ns += worst;
            self.exchange();
        }
    }

    fn run_span_parallel(&mut self, bound: u64) {
        let s = self.engines.len();
        let nw = self.workers().min(s);
        let window = self.window;
        let barrier = Barrier::new(nw);
        let decision = Mutex::new(Decision::Done);
        let peeks: Vec<AtomicU64> = (0..s).map(|_| AtomicU64::new(u64::MAX)).collect();
        let grid: Vec<Vec<Mutex<Vec<Mail>>>> = (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let groups: Mutex<Vec<GroupCmd>> = Mutex::new(Vec::new());
        let win_ns = AtomicU64::new(0);
        let crit = AtomicU64::new(0);

        // Round-robin shard → worker buckets; worker 0 (the calling
        // thread) is the leader that computes window decisions.
        let mut buckets: Vec<Vec<&mut Engine>> = (0..nw).map(|_| Vec::new()).collect();
        for (i, e) in self.engines.iter_mut().enumerate() {
            buckets[i % nw].push(e);
        }

        let work = |leader: bool, mut bucket: Vec<&mut Engine>| {
            for e in bucket.iter() {
                peeks[e.shard as usize].store(
                    e.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX),
                    Ordering::SeqCst,
                );
            }
            barrier.wait();
            if leader {
                *decision.lock().unwrap() = decide(&peeks, window, bound);
            }
            barrier.wait();
            loop {
                let end = match *decision.lock().unwrap() {
                    Decision::Window(e) => e,
                    Decision::Done => break,
                };
                for e in bucket.iter_mut() {
                    // Idle shards (next event beyond this window) skip
                    // straight to the barrier: no work, no new outbound
                    // mail, zero critical-path contribution.
                    if e.queue.peek_time().map(|t| t.0 >= end).unwrap_or(true) {
                        continue;
                    }
                    let t0 = Instant::now();
                    e.run_window(end, None);
                    win_ns.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    let src = e.shard as usize;
                    for (dst, out) in e.outbox.iter_mut().enumerate() {
                        if !out.is_empty() {
                            grid[src][dst].lock().unwrap().append(out);
                        }
                    }
                    if !e.group_out.is_empty() {
                        groups.lock().unwrap().append(&mut e.group_out);
                    }
                }
                barrier.wait(); // all outboxes and group updates published
                if leader {
                    groups.lock().unwrap().sort_by_key(|a| (a.time, a.key));
                }
                barrier.wait(); // sorted group list readable
                let sorted: Vec<GroupCmd> = groups.lock().unwrap().clone();
                for e in bucket.iter_mut() {
                    for g in &sorted {
                        e.topo.set_group(g.group, g.members.clone());
                    }
                    let dst = e.shard as usize;
                    for row in grid.iter() {
                        let mail = std::mem::take(&mut *row[dst].lock().unwrap());
                        for m in mail {
                            e.push_mail(m);
                        }
                    }
                    peeks[dst].store(
                        e.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX),
                        Ordering::SeqCst,
                    );
                }
                barrier.wait(); // mail drained, peeks published
                if leader {
                    crit.fetch_add(win_ns.swap(0, Ordering::SeqCst), Ordering::SeqCst);
                    groups.lock().unwrap().clear();
                    *decision.lock().unwrap() = decide(&peeks, window, bound);
                }
                barrier.wait(); // decision readable
            }
        };

        std::thread::scope(|scope| {
            let mut iter = buckets.into_iter();
            let first = iter.next().expect("at least one bucket");
            for bucket in iter {
                let work = &work;
                scope.spawn(move || work(false, bucket));
            }
            work(true, first);
        });

        self.crit_ns += crit.load(Ordering::SeqCst);
    }

    /// Merge per-shard span/journal/observer buffers into the attached
    /// handles, in deterministic order (multi-shard runs only; a single
    /// shard wrote into them directly).
    #[inline(always)]
    fn drain_sinks(&mut self) {
        if self.engines.len() > 1 {
            self.merge_shard_outputs();
        }
    }

    fn merge_shard_outputs(&mut self) {
        self.merged.take();
        if let Some(handle) = &self.taps.spans {
            merge_sink(handle, self.engines.iter().map(|e| &e.spans));
        }
        if let Some(handle) = &self.taps.journal {
            merge_sink(handle, self.engines.iter().map(|e| &e.journal));
        }
        if !self.taps.observers.is_empty() {
            let mut all: Vec<(u64, u64, u32, OwnedNetEvent)> = Vec::new();
            for e in &mut self.engines {
                if let Some(buf) = &mut e.obs_buf {
                    let shard = e.shard;
                    all.extend(buf.drain(..).map(|(t, k, ev)| (t, k, shard, ev)));
                }
            }
            all.sort_by_key(|a| (a.0, a.1, a.2));
            for (t, _, _, ev) in &all {
                let view = ev.as_net_event();
                for obs in &self.taps.observers {
                    obs.borrow_mut().on_net_event(SimTime(*t), &view);
                }
            }
        }
    }

    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: SimTime) {
        self.begin_run();
        self.run_span(t.0);
        for e in &mut self.engines {
            e.now = e.now.max(t);
        }
        self.now = self.now.max(t);
        self.drain_sinks();
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until every shard's queue drains or `limit` is reached;
    /// returns the final simulated time.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.begin_run();
        self.run_span(limit.0);
        let remaining = self.engines.iter().any(|e| !e.queue.is_empty());
        if remaining {
            self.now = limit;
            for e in &mut self.engines {
                e.now = e.now.max(limit);
            }
        } else {
            let last = self.engines.iter().map(|e| e.now).max().unwrap_or(self.now);
            self.now = self.now.max(last);
        }
        self.drain_sinks();
        self.now
    }
}

/// Move every shard core's records into `handle`, which enforces its own
/// capacity. Records carry no event key, so the merge sorts on all
/// fields: exact duplicates are interchangeable, so that order is still
/// shard-count-invariant.
fn merge_sink<'a, T: Ord + 'a>(
    handle: &SinkHandle<T>,
    cores: impl Iterator<Item = &'a Option<RefCell<Sink<T>>>>,
) {
    let mut all: Vec<T> = Vec::new();
    for core in cores.flatten() {
        all.append(&mut core.borrow_mut().take());
    }
    all.sort();
    let mut sink = handle.borrow_mut();
    for r in all {
        sink.record(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::Node;
    use std::net::Ipv4Addr;
    use swishmem_wire::{DataPacket, FlowKey};

    /// Echoes every received data packet back to its source.
    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let PacketBody::Data(d) = pkt.body {
                if d.flow_seq < 4 {
                    let mut d2 = d;
                    d2.flow_seq += 1;
                    ctx.send(pkt.src, PacketBody::Data(d2));
                }
            }
        }
    }

    /// Counts timer firings; re-arms until 5.
    #[derive(Default)]
    struct Ticker {
        fired: u64,
    }
    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::millis(1), 7);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            assert_eq!(token, 7);
            self.fired += 1;
            if self.fired < 5 {
                ctx.set_timer(SimDuration::millis(1), 7);
            }
        }
    }

    fn pkt(src: u16, dst: u16, seq: u32) -> Packet {
        Packet::data(NodeId(src), NodeId(dst), data(seq, 64))
    }

    fn data(seq: u32, len: u16) -> DataPacket {
        DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
            seq,
            len,
        )
    }

    /// Two echo nodes joined by one link.
    fn echo_pair(seed: u64, shards: usize, link: LinkParams) -> ShardedEngine {
        let mut sim = ShardedEngine::new(seed, shards);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        sim.topology_mut().connect(NodeId(0), NodeId(1), link);
        sim
    }

    #[test]
    fn ping_pong_until_ttl() {
        let mut sim = echo_pair(1, 1, LinkParams::datacenter());
        sim.inject(SimTime::ZERO, pkt(0, 1, 0));
        let end = sim.run_until_quiescent(SimTime(1_000_000_000));
        // seq 0 injected; echoes with seq 1..=4 bounce => 5 deliveries total.
        assert_eq!(sim.stats().delivered_total().packets, 5);
        assert!(end.nanos() > 0);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = ShardedEngine::new(1, 1);
        sim.add_node(NodeId(0), Box::new(Ticker::default()));
        sim.run_until(SimTime(10_000_000));
        assert_eq!(sim.node::<Ticker>(NodeId(0)).unwrap().fired, 5);
    }

    #[test]
    fn failed_node_receives_nothing_until_recovery() {
        let mut sim = echo_pair(1, 1, LinkParams::datacenter());
        sim.schedule_fail(SimTime(0), NodeId(1));
        sim.inject(SimTime(1000), pkt(0, 1, 0));
        sim.run_until_quiescent(SimTime(1_000_000));
        assert_eq!(sim.stats().delivered_total().packets, 0);
        assert_eq!(sim.stats().dropped(DropReason::NodeDown).packets, 1);

        sim.schedule_recover(SimTime(2_000_000), NodeId(1));
        sim.inject(SimTime(3_000_000), pkt(0, 1, 0));
        sim.run_until_quiescent(SimTime(10_000_000));
        assert!(sim.stats().delivered_total().packets > 0);
    }

    #[test]
    fn lossy_link_drops_fraction() {
        let mut sim = echo_pair(42, 1, LinkParams::lossy(0.5));
        // Injected packets bypass links (delivered); echo replies cross
        // the lossy link up to 4 times before the echo TTL expires.
        for i in 0..200 {
            sim.inject(SimTime(i * 1_000_000), pkt(0, 1, 0));
        }
        sim.run_until_quiescent(SimTime(10_000_000_000));
        assert!(sim.stats().dropped(DropReason::Loss).packets > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let link = LinkParams::lossy(0.3).with_jitter(SimDuration::micros(5));
            let mut sim = echo_pair(seed, 1, link);
            for i in 0..100 {
                sim.inject(SimTime(i * 10_000), pkt(0, 1, 0));
            }
            sim.run_until_quiescent(SimTime(1_000_000_000));
            (
                sim.stats().delivered_total().packets,
                sim.stats().dropped(DropReason::Loss).packets,
            )
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // loss pattern differs across seeds
    }

    #[test]
    fn no_route_counted() {
        let mut sim = ShardedEngine::new(1, 1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(1), Box::new(Echo));
        // No links at all: the echo reply has nowhere to go.
        sim.inject(SimTime::ZERO, pkt(0, 1, 0));
        sim.run_until_quiescent(SimTime(1_000_000));
        assert_eq!(sim.stats().dropped(DropReason::NoRoute).packets, 1);
    }

    #[test]
    fn typed_node_access() {
        let mut sim = ShardedEngine::new(1, 1);
        sim.add_node(NodeId(0), Box::new(Ticker::default()));
        assert!(sim.node::<Ticker>(NodeId(0)).is_some());
        assert!(sim.node::<Echo>(NodeId(0)).is_none());
        sim.node_mut::<Ticker>(NodeId(0)).unwrap().fired = 99;
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.node::<Ticker>(NodeId(0)).unwrap().fired, 99);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_panics() {
        let mut sim = ShardedEngine::new(1, 1);
        sim.add_node(NodeId(0), Box::new(Echo));
        sim.add_node(NodeId(0), Box::new(Echo));
    }

    #[test]
    fn scheduled_link_outage_drops_then_recovers() {
        let mut sim = echo_pair(1, 1, LinkParams::datacenter());
        // Take the link down for [1ms, 2ms).
        sim.schedule_link_set(SimTime(1_000_000), NodeId(0), NodeId(1), true);
        sim.schedule_link_set(SimTime(2_000_000), NodeId(0), NodeId(1), false);
        // Echo attempts at 0.5ms (up), 1.5ms (down), 2.5ms (up again).
        for t in [500_000u64, 1_500_000, 2_500_000] {
            sim.inject(SimTime(t), pkt(0, 1, 3)); // one echo reply each
        }
        sim.run_until_quiescent(SimTime(10_000_000));
        assert_eq!(sim.stats().dropped(DropReason::LinkDown).packets, 1);
        // Injections always deliver; replies only while the link is up.
        assert!(sim.stats().delivered_total().packets > 3);
    }

    #[test]
    fn multicast_reaches_members_except_sender() {
        struct Caster;
        impl Node for Caster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.multicast(GroupId(1), PacketBody::Data(data(9, 10)));
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        }
        #[derive(Default)]
        struct Count(u32);
        impl Node for Count {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
                self.0 += 1;
            }
        }
        let mut sim = ShardedEngine::new(1, 1);
        let ids = [NodeId(0), NodeId(1), NodeId(2)];
        sim.add_node(ids[0], Box::new(Caster));
        sim.add_node(ids[1], Box::new(Count::default()));
        sim.add_node(ids[2], Box::new(Count::default()));
        sim.topology_mut().full_mesh(&ids, LinkParams::datacenter());
        sim.topology_mut().set_group(GroupId(1), ids.to_vec());
        sim.run_until_quiescent(SimTime(1_000_000));
        assert_eq!(sim.node::<Count>(ids[1]).unwrap().0, 1);
        assert_eq!(sim.node::<Count>(ids[2]).unwrap().0, 1);
    }

    /// Windowed measurements: `reset_stats` zeroes the counters of every
    /// shard, and the merged view follows.
    #[test]
    fn reset_stats_zeroes_every_shard() {
        for shards in [1, 2] {
            let mut sim = echo_pair(3, shards, LinkParams::datacenter());
            sim.inject(SimTime::ZERO, pkt(0, 1, 0));
            sim.run_until_quiescent(SimTime(1_000_000));
            assert_eq!(sim.stats().delivered_total().packets, 5);
            sim.reset_stats();
            assert_eq!(sim.stats().delivered_total().packets, 0);
            sim.inject(sim.now(), pkt(0, 1, 3));
            sim.run_until_quiescent(SimTime(2_000_000));
            assert_eq!(sim.stats().delivered_total().packets, 2);
        }
    }

    #[test]
    fn node_seeds_are_distinct_and_stable() {
        let a = node_seed(1234, NodeId(0));
        let b = node_seed(1234, NodeId(1));
        let c = node_seed(1235, NodeId(0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, node_seed(1234, NodeId(0)));
    }

    #[test]
    fn shard_map_defaults_unknown_ids_to_zero() {
        let m = ShardMap { of: vec![2, 1] };
        assert_eq!(m.shard_of(NodeId(0)), 2);
        assert_eq!(m.shard_of(NodeId(1)), 1);
        assert_eq!(m.shard_of(NodeId(999)), 0);
    }
}
