//! E18 — tracing overhead: the span-telemetry fast path must be free
//! when no collector is attached. Two identical ping-pong simulations
//! (an engine-only `ping_pong` workload) are timed wall-clock: both
//! allocate a `TraceId` per packet (unconditional protocol work — the id
//! rides the wire either way), but only one emits a span marker per
//! packet into the **detached** collector slot, the layer's common-case
//! instrumentation density. The gate is <2% events/s regression — the
//! compiled-in-but-disabled cost of instrumenting every protocol hot
//! path (DESIGN.md §9).

use crate::table::{ExperimentResult, Table};
use std::net::Ipv4Addr;
use std::time::Instant;
use swishmem_simnet::{Ctx, LinkParams, Node, NodeObj, ShardedEngine, SimTime, SpanPhase};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, TraceId};

/// Bounces packets back and forth `ttl` times. Allocates a `TraceId`
/// per packet like the SwiShmem layer does (trace allocation is
/// unconditional protocol work — the id rides the wire whether or not
/// anyone is tracing) but never touches the span API.
struct PlainEcho {
    ttl: u32,
    next_trace: u64,
}
impl Node for PlainEcho {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            self.next_trace += 1;
            let trace = TraceId::new(pkt.dst, self.next_trace);
            std::hint::black_box(trace);
            if d.flow_seq < self.ttl {
                let mut d2 = d;
                d2.flow_seq += 1;
                ctx.send(pkt.src, PacketBody::Data(d2));
            }
        }
    }
}

/// Same ping-pong plus the telemetry hook under test: one `Ingress`
/// marker per packet (the layer's common-case instrumentation density).
/// With no collector attached the marker hits the detached early-out.
struct TracedEcho {
    ttl: u32,
    next_trace: u64,
}
impl Node for TracedEcho {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let PacketBody::Data(d) = pkt.body {
            self.next_trace += 1;
            let trace = TraceId::new(pkt.dst, self.next_trace);
            ctx.span(trace, SpanPhase::Ingress);
            if d.flow_seq < self.ttl {
                let mut d2 = d;
                d2.flow_seq += 1;
                ctx.send(pkt.src, PacketBody::Data(d2));
            }
        }
    }
}

fn pkt() -> Packet {
    Packet::data(
        NodeId(0),
        NodeId(1),
        DataPacket::udp(
            FlowKey::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
            0,
            64,
        ),
    )
}

fn build(events: u64, traced: bool) -> ShardedEngine {
    let mut sim = ShardedEngine::new(1, 1);
    let mk = |_: u16| -> Box<dyn NodeObj> {
        if traced {
            Box::new(TracedEcho {
                ttl: events as u32,
                next_trace: 0,
            })
        } else {
            Box::new(PlainEcho {
                ttl: events as u32,
                next_trace: 0,
            })
        }
    };
    sim.add_node(NodeId(0), mk(0));
    sim.add_node(NodeId(1), mk(1));
    sim.topology_mut()
        .connect(NodeId(0), NodeId(1), LinkParams::datacenter());
    sim.inject(SimTime::ZERO, pkt());
    sim
}

fn time_once(events: u64, traced: bool) -> f64 {
    let mut sim = build(events, traced);
    let t = Instant::now();
    sim.run_until_quiescent(SimTime(u64::MAX / 2));
    let dt = t.elapsed().as_secs_f64();
    assert!(sim.stats().delivered_total().packets >= events);
    dt
}

/// Best-of-`reps` events/s for both configurations, reps **interleaved**
/// so clock-frequency drift and scheduler noise hit plain and traced
/// alike; min wall-clock is the standard noise-robust estimator for a
/// deterministic workload. Returns `(plain, traced)` events/s.
pub fn measure_pair(events: u64, reps: usize) -> (f64, f64) {
    // Warm-up to fault in both code paths before either side is timed.
    time_once(events.min(10_000), false);
    time_once(events.min(10_000), true);
    let (mut best_p, mut best_t) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_p = best_p.min(time_once(events, false));
        best_t = best_t.min(time_once(events, true));
    }
    (events as f64 / best_p, events as f64 / best_t)
}

/// Run E18.
pub fn run(quick: bool) -> ExperimentResult {
    let events: u64 = if quick { 20_000 } else { 100_000 };
    let reps: usize = if quick { 5 } else { 9 };
    let (plain, traced) = measure_pair(events, reps);
    let ratio = plain / traced;
    let overhead_pct = (ratio - 1.0) * 100.0;

    let mut t = Table::new(
        "Engine throughput with span telemetry compiled in (no collector attached)",
        &["config", "events", "events/s (best)", "relative"],
    );
    t.row(vec![
        "plain echo (no span emission)".into(),
        events.to_string(),
        format!("{:.2}M", plain / 1e6),
        "1.000x".into(),
    ]);
    t.row(vec![
        "traced echo (1 marker/pkt, detached)".into(),
        events.to_string(),
        format!("{:.2}M", traced / 1e6),
        format!("{:.3}x", traced / plain),
    ]);

    let verdict = if overhead_pct < 2.0 { "PASS" } else { "FAIL" };
    let findings = vec![
        format!(
            "disabled tracing costs {overhead_pct:+.2}% events/s on the ping-pong engine \
             workload (gate: <2% — {verdict})"
        ),
        "span emission with no collector attached is a branch on an Option; the protocol \
         layers stay instrumented in every build"
            .into(),
    ];
    ExperimentResult {
        id: "E18".into(),
        title: "Tracing overhead: compiled-in, disabled".into(),
        paper_anchor: "DESIGN.md §9 (observability; passive-observer contract)".into(),
        expectation: "<2% events/s regression with spans compiled in but no collector attached"
            .into(),
        tables: vec![t],
        findings,
    }
}
