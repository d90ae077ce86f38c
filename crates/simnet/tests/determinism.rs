//! Determinism regression harness for the event core.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Replay determinism** — the same seed and scenario produce
//!    bit-identical stats, event counts, and delivery traces on every
//!    run.
//! 2. **Optimization stability** — the fingerprint equals a golden value
//!    recorded before the zero-copy/indexed-event-core rework, proving
//!    the optimization did not perturb `(time, seq)` ordering, RNG draw
//!    sites, or delivery behaviour.
//!
//! If an intentional semantic change (new RNG draw site, different event
//! ordering) breaks the golden values, re-record them by running this
//! test with `--nocapture` and copying the printed fingerprint — and say
//! so in the PR, because it resets the determinism baseline.
//!
//! The golden has survived, unchanged, the fault plane (PR 2), span
//! telemetry (PR 4), and the live-reconfiguration engine: higher-layer
//! subsystems must ride on existing engine primitives without adding
//! draw sites or reordering events. The protocol-level counterpart
//! (reconfig compiled in but disabled is invisible on chain-only
//! deployments) lives in the workspace test
//! `reconfig::reconfig_disabled_is_invisible_without_partitioned_registers`.

use std::net::Ipv4Addr;
use swishmem_simnet::{
    CaptureBuffer, CaptureHandle, Ctx, DropReason, FaultGen, FaultSchedule, GroupId,
    JournalCollector, JournalHandle, LinkParams, Node, ShardedEngine, SimDuration, SimTime,
    SpanCollector, SpanHandle, SpanPhase, Trace,
};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, TraceId};

/// A node that exercises every command the engine offers: echoes data
/// packets, multicasts on a timer, anycasts to a random group member,
/// and keeps re-arming its timer.
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
            // Unconditional span emission: a no-op unless a collector is
            // attached, which the spanned-fingerprint test exploits.
            ctx.span(
                TraceId::new(ctx.self_id(), u64::from(d.flow_seq) + 1),
                SpanPhase::Ingress,
            );
            // Likewise unconditional journal emission: a no-op unless a
            // collector is attached (the journal-invariance tests below).
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
        ctx.span(
            TraceId::new(ctx.self_id(), 1_000 + self.timer_rounds),
            SpanPhase::SyncRound,
        );
        ctx.journal(2, self.timer_rounds, 0, 0, 0);
        ctx.multicast(GroupId(1), body(0, 100));
        ctx.send_random(GroupId(1), body(0, 40));
        if self.timer_rounds < 20 {
            ctx.set_timer(SimDuration::micros(75), 1);
        }
    }
}

/// The full scenario fingerprint: aggregate stats plus an FNV-1a hash of
/// the complete delivery trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

fn run_scenario(seed: u64) -> Fingerprint {
    run_scenario_full(seed, None, None, None, None)
}

fn run_scenario_with(seed: u64, faults: Option<&FaultSchedule>) -> Fingerprint {
    run_scenario_full(seed, faults, None, None, None)
}

fn run_scenario_full(
    seed: u64,
    faults: Option<&FaultSchedule>,
    spans: Option<SpanHandle>,
    journal: Option<JournalHandle>,
    capture: Option<CaptureHandle>,
) -> Fingerprint {
    let mut sim = ShardedEngine::new(seed, 1);
    let trace = Trace::new(200_000);
    sim.add_observer(trace.clone());
    if let Some(c) = capture {
        sim.add_observer(c);
    }
    if let Some(s) = spans {
        sim.set_spans(s);
    }
    if let Some(j) = journal {
        sim.set_journal(j);
    }

    for i in 0..5u16 {
        sim.add_node(
            NodeId(i),
            Box::new(Churn {
                ttl: 6,
                timer_rounds: 0,
            }),
        );
    }
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    sim.topology_mut().full_mesh(
        &ids,
        LinkParams::lossy(0.08).with_jitter(SimDuration::micros(2)),
    );
    sim.topology_mut().set_group(GroupId(1), ids.clone());

    // External traffic, a fail/recover cycle, and a link outage all mixed
    // into the same run.
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

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in trace.borrow().entries() {
        fnv(&mut h, e.time.nanos());
        fnv(&mut h, u64::from(e.pkt.src.0));
        fnv(&mut h, u64::from(e.pkt.dst.0));
        fnv(&mut h, e.pkt.wire_len() as u64);
        if let PacketBody::Data(d) = &e.pkt.body {
            fnv(&mut h, u64::from(d.flow_seq));
            fnv(&mut h, u64::from(d.payload_len));
        }
    }

    let trace_len = trace.borrow().entries().len();
    let s = sim.stats();
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
        trace_len,
        trace_hash: h,
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run_scenario(1234);
    let b = run_scenario(1234);
    assert_eq!(a, b, "identical seeds must replay identically");
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario(1234);
    let b = run_scenario(4321);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "distinct seeds should produce distinct delivery patterns"
    );
}

#[test]
fn matches_pre_optimization_golden_fingerprint() {
    let got = run_scenario(1234);
    println!("fingerprint: {got:?}");
    // Recorded on the engine before the zero-copy/indexed rework
    // (HashMap node table, BinaryHeap<Reverse<Event>>, per-member body
    // clones). The optimized engine must reproduce it exactly.
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
    assert_eq!(got, golden, "event order / RNG draw sites changed");
}

#[test]
fn fault_schedule_replays_bit_for_bit() {
    // A generated schedule layered on the same scenario: identical seed +
    // identical schedule must reproduce exactly, and the schedule must
    // actually perturb the run relative to the no-fault golden.
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);
    assert!(!sched.is_empty(), "seed 99 should generate faults\n{sched}");

    let a = run_scenario_with(1234, Some(&sched));
    let b = run_scenario_with(1234, Some(&sched));
    assert_eq!(
        a, b,
        "same seed + same FaultSchedule must replay bit-for-bit\n{sched}"
    );

    let clean = run_scenario(1234);
    assert_ne!(
        a.trace_hash, clean.trace_hash,
        "the schedule should perturb the run\n{sched}"
    );
}

#[test]
fn empty_fault_schedule_is_a_no_op() {
    let empty = FaultSchedule::new();
    let a = run_scenario_with(1234, Some(&empty));
    let clean = run_scenario(1234);
    assert_eq!(a, clean, "an empty schedule must not perturb the run");
}

/// Attaching a span collector must be invisible to the run: the nodes
/// emit `ctx.span(..)` markers on every packet and timer either way, and
/// the fingerprint — including the golden one — must not move by a bit.
#[test]
fn span_collector_attach_is_invisible() {
    let spans = SpanCollector::new(1_000_000);
    let attached = run_scenario_full(1234, None, Some(spans.clone()), None, None);
    let detached = run_scenario(1234);
    assert_eq!(
        attached, detached,
        "attaching the span collector perturbed the event order"
    );

    let c = spans.borrow();
    assert!(
        !c.entries().is_empty(),
        "the scenario should have recorded spans while attached"
    );
    assert_eq!(c.overflowed(), 0);
    // Every delivered data packet records exactly one ingress marker.
    let ingress = c
        .entries()
        .iter()
        .filter(|e| e.phase == SpanPhase::Ingress)
        .count() as u64;
    assert_eq!(ingress, attached.delivered_pkts);
    assert!(c.trace_count() > 5, "expected many distinct trace ids");
}

/// A tiny span collector must bound memory and count the overflow, while
/// still not perturbing the run.
#[test]
fn span_collector_overflow_is_counted_and_passive() {
    let spans = SpanCollector::new(16);
    let attached = run_scenario_full(1234, None, Some(spans.clone()), None, None);
    assert_eq!(attached, run_scenario(1234));
    let c = spans.borrow();
    assert_eq!(c.entries().len(), 16);
    assert!(c.overflowed() > 0);
}

/// Attaching the ingress capture — a second observer beside the packet
/// trace — must be invisible to the run, and must tape every injection
/// with its scheduled time, in injection order.
#[test]
fn capture_attach_is_invisible() {
    let capture = CaptureBuffer::new(1_000);
    let attached = run_scenario_full(1234, None, None, None, Some(capture.clone()));
    assert_eq!(
        attached,
        run_scenario(1234),
        "attaching the capture perturbed the event order"
    );
    let c = capture.borrow();
    assert_eq!(c.len(), 200, "one record per injected packet");
    assert_eq!(c.overflowed(), 0);
    for (i, (t, pkt)) in c.entries().iter().enumerate() {
        assert_eq!(t.nanos(), i as u64 * 7_000);
        assert_eq!(pkt.dst, NodeId(((i + 1) % 5) as u16));
    }
}

/// Attaching the flight-recorder journal must be invisible to the run:
/// the nodes emit `ctx.journal(..)` on every packet and timer either
/// way, and the fingerprint — including the golden one — must not move
/// by a bit. The journal-only counterpart of
/// `span_collector_attach_is_invisible`.
#[test]
fn journal_collector_attach_is_invisible() {
    let journal = JournalCollector::new(1_000_000);
    let attached = run_scenario_full(1234, None, None, Some(journal.clone()), None);
    let detached = run_scenario(1234);
    assert_eq!(
        attached, detached,
        "attaching the journal collector perturbed the event order"
    );

    let j = journal.borrow();
    assert!(
        !j.entries().is_empty(),
        "the scenario should have recorded journal entries while attached"
    );
    assert_eq!(j.overflowed(), 0);
    // Every delivered data packet records exactly one kind-1 entry.
    let ingress = j.entries().iter().filter(|r| r.kind == 1).count() as u64;
    assert_eq!(ingress, attached.delivered_pkts);
}

/// Replaying a fault-swept run with the same seed must reproduce the
/// journal **byte for byte** — not just the aggregate fingerprint, the
/// full record stream (times, nodes, kinds, causes, payload words).
#[test]
fn journal_replay_is_byte_identical_under_fault_sweep() {
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();
    let links: Vec<(NodeId, NodeId)> = (0..5u16)
        .flat_map(|i| ((i + 1)..5).map(move |j| (NodeId(i), NodeId(j))))
        .collect();
    let sched = FaultGen::new(99).generate(&ids, &links, SimDuration::millis(2), 5);
    assert!(!sched.is_empty());

    let run = || {
        let journal = JournalCollector::new(1_000_000);
        let fp = run_scenario_full(1234, Some(&sched), None, Some(journal.clone()), None);
        let records = journal.borrow().entries().to_vec();
        (fp, records)
    };
    let (fp_a, rec_a) = run();
    let (fp_b, rec_b) = run();
    assert_eq!(fp_a, fp_b, "fault-swept replay must be deterministic");
    assert!(!rec_a.is_empty());
    assert_eq!(
        rec_a, rec_b,
        "same seed + same FaultSchedule must reproduce the journal byte-for-byte"
    );
    // And the collector itself must stay passive under faults too.
    assert_eq!(fp_a, run_scenario_with(1234, Some(&sched)));
}

/// A tiny journal must bound memory and count the overflow, while still
/// not perturbing the run.
#[test]
fn journal_collector_overflow_is_counted_and_passive() {
    let journal = JournalCollector::new(16);
    let attached = run_scenario_full(1234, None, None, Some(journal.clone()), None);
    assert_eq!(attached, run_scenario(1234));
    let j = journal.borrow();
    assert_eq!(j.entries().len(), 16);
    assert!(j.overflowed() > 0);
}
