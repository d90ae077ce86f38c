//! Determinism regression harness for the sharded PDES engine.
//!
//! Three guarantees are pinned here:
//!
//! 1. **`S = 1` is the sequential algorithm** — a single-shard
//!    [`ShardedEngine`] reproduces the golden determinism fingerprint
//!    unchanged (same RNG stream, same event keys, same trace order), and
//!    notifies observers synchronously.
//! 2. **Shard count is a pure performance knob** — for `S ≥ 2` the merged
//!    stats, delivery-trace hash, and observer event stream are identical
//!    for any shard count and any worker-thread count.
//! 3. **The fault plane shards cleanly** — externally scheduled fault
//!    events (including cross-shard link outages) fire at the same
//!    `SimTime` under any shard count.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use swishmem_simnet::{
    CaptureBuffer, CaptureHandle, Ctx, DropReason, FaultGen, FaultSchedule, GroupId,
    JournalCollector, JournalHandle, JournalRecord, LinkParams, NetEvent, NetObserver, Node,
    RelayNode, ShardedEngine, SimDuration, SimTime, Trace,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody};

/// Mirrors the `Churn` node in `tests/determinism.rs`: echoes data
/// packets with a TTL, multicasts and anycasts on a re-arming timer.
/// (Span markers are omitted — span invariance has its own pinning via
/// the sequential harness; this harness pins stats/trace/observers.)
struct Churn {
    ttl: u32,
    timer_rounds: u64,
}

fn body(seq: u32, len: u16) -> PacketBody {
    PacketBody::Data(DataPacket::udp(
        FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 5, Ipv4Addr::new(10, 0, 0, 2), 6),
        seq,
        len,
    ))
}

impl Node for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::micros(50), 1);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            // Unconditional journal emission: a no-op unless a collector
            // is attached (the journal-invariance tests below exploit it).
            ctx.journal(
                1,
                u64::from(d.flow_seq),
                u64::from(pkt.src.0),
                u64::from(d.payload_len),
                0,
            );
            if d.flow_seq < self.ttl {
                ctx.send(pkt.src, body(d.flow_seq + 1, d.payload_len));
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        assert_eq!(token, 1);
        self.timer_rounds += 1;
        ctx.journal(2, self.timer_rounds, 0, 0, 0);
        ctx.multicast(GroupId(1), body(0, 100));
        ctx.send_random(GroupId(1), body(0, 40));
        if self.timer_rounds < 20 {
            ctx.set_timer(SimDuration::micros(75), 1);
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    end_ns: u64,
    delivered_pkts: u64,
    delivered_bytes: u64,
    lost: u64,
    no_route: u64,
    node_down: u64,
    link_down: u64,
    corrupt: u64,
    trace_len: usize,
    trace_hash: u64,
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trace_hash(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.entries() {
        fnv(&mut h, e.time.nanos());
        fnv(&mut h, u64::from(e.pkt.src.0));
        fnv(&mut h, u64::from(e.pkt.dst.0));
        fnv(&mut h, e.pkt.wire_len() as u64);
        if let PacketBody::Data(d) = &e.pkt.body {
            fnv(&mut h, u64::from(d.flow_seq));
            fnv(&mut h, u64::from(d.payload_len));
        }
    }
    h
}

/// Flattened observer log, comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Obs {
    Injected(u64, u64, u16),
    Delivered(u64, u16, u16, u16, usize),
    NodeFailed(u64, u16),
    NodeRecovered(u64, u16),
    LinkChanged(u64, u16, u16, bool),
    LinkDegraded(u64, u16, u16),
    LinkRestored(u64, u16, u16),
}

#[derive(Default)]
struct Collector {
    log: Vec<Obs>,
}

impl NetObserver for Collector {
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        let t = now.nanos();
        self.log.push(match *ev {
            NetEvent::Injected { at, pkt } => Obs::Injected(t, at.nanos(), pkt.dst.0),
            NetEvent::Delivered { to, pkt } => {
                Obs::Delivered(t, to.0, pkt.src.0, pkt.dst.0, pkt.wire_len())
            }
            NetEvent::NodeFailed { node } => Obs::NodeFailed(t, node.0),
            NetEvent::NodeRecovered { node } => Obs::NodeRecovered(t, node.0),
            NetEvent::LinkChanged { a, b, down } => Obs::LinkChanged(t, a.0, b.0, down),
            NetEvent::LinkDegraded { a, b } => Obs::LinkDegraded(t, a.0, b.0),
            NetEvent::LinkRestored { a, b } => Obs::LinkRestored(t, a.0, b.0),
        });
    }
}

// ---------------------------------------------------------------------
// Scenario A: the sequential harness's Churn scenario, run through the
// sharded engine. Single-shard mode must reproduce the golden values.
// ---------------------------------------------------------------------

fn run_churn(seed: u64, shards: usize, faults: Option<&FaultSchedule>) -> Fingerprint {
    run_churn_full(seed, shards, faults, None, None)
}

fn run_churn_full(
    seed: u64,
    shards: usize,
    faults: Option<&FaultSchedule>,
    journal: Option<JournalHandle>,
    capture: Option<CaptureHandle>,
) -> Fingerprint {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let trace = Trace::new(200_000);
    let params = LinkParams::lossy(0.08).with_jitter(SimDuration::micros(2));
    let mut sim = ShardedEngine::new(seed, shards);
    sim.add_observer(trace.clone());
    if let Some(c) = capture {
        sim.add_observer(c);
    }
    if let Some(j) = journal {
        sim.set_journal(j);
    }
    for &id in &ids {
        sim.add_node(
            id,
            Box::new(Churn {
                ttl: 6,
                timer_rounds: 0,
            }),
        );
    }
    sim.topology_mut().full_mesh(&ids, params);
    sim.topology_mut().set_group(GroupId(1), ids.clone());
    for i in 0..200u64 {
        let src = NodeId((i % 5) as u16);
        let dst = NodeId(((i + 1) % 5) as u16);
        sim.inject(
            SimTime(i * 7_000),
            Packet::data(
                src,
                dst,
                DataPacket::udp(
                    FlowKey::udp(
                        Ipv4Addr::new(10, 0, 0, 1),
                        (100 + i) as u16,
                        Ipv4Addr::new(10, 0, 0, 2),
                        6,
                    ),
                    0,
                    64,
                ),
            ),
        );
    }
    sim.schedule_fail(SimTime(300_000), NodeId(2));
    sim.schedule_recover(SimTime(900_000), NodeId(2));
    sim.schedule_link_set(SimTime(400_000), NodeId(0), NodeId(1), true);
    sim.schedule_link_set(SimTime(1_000_000), NodeId(0), NodeId(1), false);
    if let Some(sched) = faults {
        sim.schedule_faults(SimTime::ZERO, sched);
    }
    sim.run_until_quiescent(SimTime(30_000_000));
    let s = sim.stats();
    let trace = trace.borrow();
    Fingerprint {
        events: sim.events_processed(),
        end_ns: sim.now().nanos(),
        delivered_pkts: s.delivered_total().packets,
        delivered_bytes: s.delivered_total().bytes,
        lost: s.dropped(DropReason::Loss).packets,
        no_route: s.dropped(DropReason::NoRoute).packets,
        node_down: s.dropped(DropReason::NodeDown).packets,
        link_down: s.dropped(DropReason::LinkDown).packets,
        corrupt: s.dropped(DropReason::Corrupt).packets,
        trace_len: trace.entries().len(),
        trace_hash: trace_hash(&trace),
    }
}

/// The single-shard sharded engine must reproduce the sequential
/// engine's golden fingerprint bit-for-bit — same constants as
/// `determinism::matches_pre_optimization_golden_fingerprint`.
#[test]
fn single_shard_matches_golden_fingerprint() {
    let got = run_churn(1234, 1, None);
    println!("fingerprint: {got:?}");
    let golden = Fingerprint {
        events: 3290,
        end_ns: 2_086_870,
        delivered_pkts: 3115,
        delivered_bytes: 386_866,
        lost: 240,
        no_route: 0,
        node_down: 70,
        link_down: 38,
        corrupt: 0,
        trace_len: 3115,
        trace_hash: 11_977_170_304_909_245_025,
    };
    assert_eq!(got, golden, "single-shard mode diverged from the golden");
}

/// Field-by-field equality with fingerprints pinned from the retired
/// sequential engine (the same scenario, run on it for each seed),
/// with a generated fault schedule layered on to also cover the fault
/// plane.
#[test]
fn single_shard_matches_pinned_fingerprints_under_faults() {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);
    assert!(!sched.is_empty());
    let pinned = [
        (
            1234u64,
            Fingerprint {
                events: 2692,
                end_ns: 2_089_560,
                delivered_pkts: 2422,
                delivered_bytes: 301_648,
                lost: 193,
                no_route: 0,
                node_down: 143,
                link_down: 111,
                corrupt: 0,
                trace_len: 2422,
                trace_hash: 8_878_767_486_007_147_242,
            },
        ),
        (
            4321,
            Fingerprint {
                events: 2551,
                end_ns: 2_089_925,
                delivered_pkts: 2278,
                delivered_bytes: 281_368,
                lost: 207,
                no_route: 0,
                node_down: 144,
                link_down: 109,
                corrupt: 2,
                trace_len: 2278,
                trace_hash: 8_011_183_907_855_033_146,
            },
        ),
        (
            7,
            Fingerprint {
                events: 2581,
                end_ns: 2_090_659,
                delivered_pkts: 2316,
                delivered_bytes: 288_300,
                lost: 209,
                no_route: 0,
                node_down: 137,
                link_down: 109,
                corrupt: 1,
                trace_len: 2316,
                trace_hash: 6_121_074_466_631_944_589,
            },
        ),
    ];
    for (seed, want) in pinned {
        let got = run_churn(seed, 1, Some(&sched));
        assert_eq!(got, want, "seed {seed}: S=1 diverged from the pinned run");
    }
}

/// Attaching the flight-recorder journal to a single-shard run must be
/// invisible: the golden fingerprint — the same constants as the
/// sequential harness — must not move by a bit, while the collector
/// fills with one kind-1 record per delivered packet.
#[test]
fn single_shard_journal_attach_matches_golden_fingerprint() {
    let journal = JournalCollector::new(1_000_000);
    let attached = run_churn_full(1234, 1, None, Some(journal.clone()), None);
    let detached = run_churn(1234, 1, None);
    assert_eq!(
        attached, detached,
        "attaching the journal perturbed the single-shard run"
    );
    assert_eq!(attached.trace_hash, 11_977_170_304_909_245_025);
    let j = journal.borrow();
    assert!(!j.entries().is_empty());
    assert_eq!(j.overflowed(), 0);
    let ingress = j.entries().iter().filter(|r| r.kind == 1).count() as u64;
    assert_eq!(ingress, attached.delivered_pkts);
}

/// Attaching the ingress capture to a single-shard run must be
/// invisible: the golden fingerprint must not move by a bit.
#[test]
fn single_shard_capture_attach_matches_golden_fingerprint() {
    let capture = CaptureBuffer::new(1_000);
    let attached = run_churn_full(1234, 1, None, None, Some(capture.clone()));
    assert_eq!(
        attached,
        run_churn(1234, 1, None),
        "attaching the capture perturbed the single-shard run"
    );
    assert_eq!(attached.trace_hash, 11_977_170_304_909_245_025);
    assert_eq!(capture.borrow().len(), 200);
}

/// One injected schedule tapes identical `(time, packet)` records at
/// S = 1 and S = 2: the capture sees `inject` calls, not the shard
/// partition.
#[test]
fn capture_is_identical_across_shard_counts() {
    let taped = |shards: usize| -> Vec<(SimTime, Packet)> {
        let capture = CaptureBuffer::new(1_000);
        run_churn_full(1234, shards, None, None, Some(capture.clone()));
        let c = capture.borrow();
        assert_eq!(c.overflowed(), 0);
        c.entries().to_vec()
    };
    let one = taped(1);
    assert_eq!(one.len(), 200);
    assert_eq!(one, taped(2), "S=2 diverged from S=1");
}

/// Counts the packets its node has handled, in a counter it shares with
/// the observer below.
struct Counted {
    handled: Arc<AtomicU64>,
}

impl Node for Counted {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {
        self.handled.fetch_add(1, Ordering::SeqCst);
    }
}

/// Reads the shared counter at each delivery.
struct BeforeHandler {
    handled: Arc<AtomicU64>,
    seen: Vec<u64>,
}

impl NetObserver for BeforeHandler {
    fn on_net_event(&mut self, _now: SimTime, ev: &NetEvent<'_>) {
        if let NetEvent::Delivered { .. } = ev {
            self.seen.push(self.handled.load(Ordering::SeqCst));
        }
    }
}

/// At S = 1 observers are called synchronously: each `Delivered` event
/// reaches the observer after every earlier handler and before the
/// receiving node's own handler runs.
#[test]
fn single_shard_observer_sees_delivery_before_handler() {
    let handled = Arc::new(AtomicU64::new(0));
    let obs = Rc::new(RefCell::new(BeforeHandler {
        handled: handled.clone(),
        seen: Vec::new(),
    }));
    let mut sim = ShardedEngine::new(5, 1);
    sim.add_observer(obs.clone());
    sim.add_node(NodeId(1), Box::new(Counted { handled }));
    for i in 0..4 {
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            body: body(0, 64),
        };
        sim.inject(SimTime(i * 1_000), pkt);
    }
    sim.run_until_quiescent(SimTime(1_000_000));
    assert_eq!(obs.borrow().seen, vec![0, 1, 2, 3]);
}

/// The journal record stream is shard-count invariant for S >= 2 (like
/// stats and traces, per guarantee 2 — S = 1 is its own RNG-partitioning
/// regime, pinned against the golden above): S = 2 and S = 4 attached
/// runs produce the same fingerprint and — after canonical full-field
/// ordering — the identical record stream, and attaching at S >= 2 is
/// just as passive as at S = 1.
#[test]
fn journal_is_shard_count_invariant() {
    let canonical = |shards: usize| -> (Fingerprint, Vec<JournalRecord>) {
        let journal = JournalCollector::new(1_000_000);
        let fp = run_churn_full(1234, shards, None, Some(journal.clone()), None);
        let mut recs = journal.borrow().entries().to_vec();
        // Multi-shard drains merge per-shard sinks in full-field order;
        // sort both streams to that canonical order before comparing.
        recs.sort();
        (fp, recs)
    };
    let (fp2, rec2) = canonical(2);
    let (fp4, rec4) = canonical(4);
    assert_eq!(fp2, fp4, "S=4 attached fingerprint diverged from S=2");
    assert_eq!(
        fp2,
        run_churn(1234, 2, None),
        "attaching the journal perturbed the 2-shard run"
    );
    assert!(!rec2.is_empty());
    assert_eq!(
        rec2, rec4,
        "journal record stream diverged across shard counts"
    );
}

// ---------------------------------------------------------------------
// Scenario B: a 16-leaf / 4-spine leaf-spine fabric with relay spines,
// churning leaves, and a generated fault sweep. Used to pin shard-count
// and worker-count invariance for S >= 2.
// ---------------------------------------------------------------------

const LEAVES: u16 = 16;
const SPINES: u16 = 4;
const SPINE_BASE: u16 = 500;

fn leaf_spine_links() -> Vec<(NodeId, NodeId)> {
    (0..LEAVES)
        .flat_map(|l| (0..SPINES).map(move |s| (NodeId(l), NodeId(SPINE_BASE + s))))
        .collect()
}

struct LeafSpineRun {
    fp: Fingerprint,
    obs: Vec<Obs>,
}

fn run_leaf_spine(
    seed: u64,
    shards: usize,
    workers: usize,
    faults: &FaultSchedule,
) -> LeafSpineRun {
    let mut sim = ShardedEngine::new(seed, shards);
    sim.set_workers(workers);
    let trace = Trace::new(500_000);
    sim.add_observer(trace.clone());
    let collector = Rc::new(RefCell::new(Collector::default()));
    sim.add_observer(collector.clone());

    let leaves: Vec<NodeId> = (0..LEAVES).map(NodeId).collect();
    for &id in &leaves {
        sim.add_node(
            id,
            Box::new(Churn {
                ttl: 4,
                timer_rounds: 0,
            }),
        );
    }
    for s in 0..SPINES {
        sim.add_node(NodeId(SPINE_BASE + s), Box::new(RelayNode));
    }

    let params = LinkParams::lossy(0.05)
        .with_latency(SimDuration::micros(5))
        .with_jitter(SimDuration::micros(1));
    {
        let topo = sim.topology_mut();
        for &(l, s) in &leaf_spine_links() {
            topo.connect(l, s, params);
        }
        // Static ECMP-style spine choice per leaf pair.
        for a in 0..LEAVES {
            for b in 0..LEAVES {
                if a != b {
                    let spine = NodeId(SPINE_BASE + (a.wrapping_mul(31).wrapping_add(b)) % SPINES);
                    topo.set_route(NodeId(a), NodeId(b), spine);
                }
            }
        }
        topo.set_group(GroupId(1), leaves.clone());
    }

    for i in 0..400u64 {
        let src = NodeId((i % u64::from(LEAVES)) as u16);
        let dst = NodeId(((i * 7 + 3) % u64::from(LEAVES)) as u16);
        if src == dst {
            continue;
        }
        sim.inject(
            SimTime(i * 3_000),
            Packet::data(
                src,
                dst,
                DataPacket::udp(
                    FlowKey::udp(
                        Ipv4Addr::new(10, 0, 0, 1),
                        (1 + (i % 4000)) as u16,
                        Ipv4Addr::new(10, 0, 0, 2),
                        6,
                    ),
                    0,
                    64,
                ),
            ),
        );
    }
    sim.schedule_faults(SimTime::ZERO, faults);
    sim.run_until_quiescent(SimTime(20_000_000));

    let s = sim.stats();
    let fp = Fingerprint {
        events: sim.events_processed(),
        end_ns: sim.now().nanos(),
        delivered_pkts: s.delivered_total().packets,
        delivered_bytes: s.delivered_total().bytes,
        lost: s.dropped(DropReason::Loss).packets,
        no_route: s.dropped(DropReason::NoRoute).packets,
        node_down: s.dropped(DropReason::NodeDown).packets,
        link_down: s.dropped(DropReason::LinkDown).packets,
        corrupt: s.dropped(DropReason::Corrupt).packets,
        trace_len: trace.borrow().entries().len(),
        trace_hash: trace_hash(&trace.borrow()),
    };
    let obs = collector.borrow().log.clone();
    LeafSpineRun { fp, obs }
}

fn sweep_schedule() -> FaultSchedule {
    let mut nodes: Vec<NodeId> = (0..LEAVES).map(NodeId).collect();
    nodes.extend((0..SPINES).map(|s| NodeId(SPINE_BASE + s)));
    FaultGen::new(77).generate(&nodes, &leaf_spine_links(), SimDuration::millis(5), 6)
}

/// Stats, trace hash, and the full observer event stream must be
/// identical for S = 2, 4, 8 on the fault-swept leaf-spine fabric.
#[test]
fn shard_count_is_a_pure_performance_knob() {
    let sched = sweep_schedule();
    assert!(!sched.is_empty());
    let base = run_leaf_spine(42, 2, 1, &sched);
    assert!(
        base.fp.delivered_pkts > 0,
        "scenario should deliver traffic"
    );
    assert!(!base.obs.is_empty(), "observers should see events");
    for shards in [4usize, 8] {
        let got = run_leaf_spine(42, shards, 1, &sched);
        assert_eq!(base.fp, got.fp, "S={shards} fingerprint diverged from S=2");
        assert_eq!(
            base.obs, got.obs,
            "S={shards} observer stream diverged from S=2"
        );
    }
}

/// Worker-thread count must be invisible: S = 4 with 1, 2, and 4 workers
/// produces identical output (the parallel barrier loop vs the
/// sequential window loop).
#[test]
fn worker_count_is_invisible() {
    let sched = sweep_schedule();
    let base = run_leaf_spine(42, 4, 1, &sched);
    for workers in [2usize, 4] {
        let got = run_leaf_spine(42, 4, workers, &sched);
        assert_eq!(base.fp, got.fp, "workers={workers} diverged");
        assert_eq!(
            base.obs, got.obs,
            "workers={workers} observer stream diverged"
        );
    }
}

/// A cross-shard `link_outage` from a `FaultSchedule` must fire at the
/// identical `SimTime` in 1-shard and 8-shard runs, and be observed
/// exactly once per transition.
#[test]
fn cross_shard_link_outage_fires_at_identical_time() {
    let sched = FaultSchedule::new().link_outage(
        NodeId(0),
        NodeId(1),
        SimDuration::micros(400),
        SimDuration::micros(600),
    );

    let run = |shards: usize| -> Vec<Obs> {
        let mut sim = ShardedEngine::new(9, shards);
        let collector = Rc::new(RefCell::new(Collector::default()));
        sim.add_observer(collector.clone());
        let ids: Vec<NodeId> = (0..8).map(NodeId).collect();
        for &id in &ids {
            sim.add_node(
                id,
                Box::new(Churn {
                    ttl: 3,
                    timer_rounds: 0,
                }),
            );
            // Pin node i to shard i (mod shards): nodes 0 and 1 land on
            // different shards whenever shards > 1.
            sim.assign_shard(id, id.0 as u32 % shards as u32);
        }
        sim.topology_mut().full_mesh(
            &ids,
            LinkParams::datacenter().with_latency(SimDuration::micros(3)),
        );
        sim.topology_mut().set_group(GroupId(1), ids.clone());
        sim.schedule_faults(SimTime::ZERO, &sched);
        sim.run_until_quiescent(SimTime(5_000_000));
        if shards == 8 {
            assert_ne!(
                sim.shard_of(NodeId(0)),
                sim.shard_of(NodeId(1)),
                "test precondition: the outage must span shards"
            );
        }
        let changes: Vec<Obs> = collector
            .borrow()
            .log
            .iter()
            .filter(|o| matches!(o, Obs::LinkChanged(..)))
            .cloned()
            .collect();
        changes
    };

    let one = run(1);
    let eight = run(8);
    assert_eq!(
        one,
        vec![
            Obs::LinkChanged(400_000, 0, 1, true),
            Obs::LinkChanged(1_000_000, 0, 1, false),
        ],
        "1-shard run: outage transitions at the scheduled times"
    );
    assert_eq!(
        one, eight,
        "link outage timing must be identical in 1-shard and 8-shard runs"
    );
}
