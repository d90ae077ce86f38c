//! Host-time attribution for the traced run.
//!
//! The tracer is a passive `NetObserver`. At every delivery it reads the
//! host clock and closes the span opened by the previous delivery, so
//! each span is the host time the engine spent after one delivery: the
//! receiving node's handler plus any timer events that ran before the
//! next delivery. Spans are keyed by (traffic class, receiving node
//! kind) and carry the packet's `TraceId` (the benchmark's packet id for
//! data packets). The benchmark's own work between engine calls is a
//! span of its own (`bench`), so the spans tile the timed phase.
//!
//! This holds on the sequential engine only: the sharded engine replays
//! observer events after each segment, when the host clock no longer
//! matches the work.

use std::io::Write;
use std::time::Instant;

use swishmem::{HOST_BASE, SPINE_BASE};
use swishmem_simnet::{NetEvent, NetObserver, SimTime, TrafficClass};
use swishmem_wire::{NodeId, Packet, PacketBody, SwishMsg};

use crate::host::Hist;

/// Receiving node kinds.
pub const KINDS: [&str; 4] = ["switch", "host", "spine", "controller"];
/// Traffic class names, in `TrafficClass::ALL` order.
pub const CLASSES: [&str; 8] = [
    "data",
    "sro_write",
    "sro_control",
    "ewo_sync",
    "snapshot",
    "read_forward",
    "migration",
    "management",
];
/// Slot of the benchmark's own work.
const BENCH: usize = CLASSES.len() * KINDS.len();
/// Raw spans kept for the span file; the rest are only aggregated.
const RAW_CAP: usize = 100_000;

fn kind_of(node: NodeId) -> usize {
    match node.0 {
        n if n >= u16::MAX - 64 => 3,
        n if n >= HOST_BASE => 1,
        n if n >= SPINE_BASE => 2,
        _ => 0,
    }
}

/// Slot of (class, kind).
pub fn slot(class: TrafficClass, kind: &str) -> usize {
    let k = KINDS
        .iter()
        .position(|&n| n == kind)
        .expect("known node kind");
    class as usize * KINDS.len() + k
}

fn trace_id(pkt: &Packet) -> u64 {
    match &pkt.body {
        PacketBody::Data(d) => u64::from(d.flow_seq),
        PacketBody::Swish(m) => match m {
            SwishMsg::Write(w) => w.trace.0,
            SwishMsg::Ack(a) => a.trace.0,
            SwishMsg::ReadForward(r) => r.trace.0,
            SwishMsg::Sync(s) => s.trace.0,
            _ => 0,
        },
    }
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    slot: u16,
    id: u64,
    sim_ns: u64,
    host_ns: u64,
}

/// Span collector; see the module docs.
pub struct Tracer {
    open: Option<(usize, Instant, u64, SimTime)>,
    hists: Vec<Option<Hist>>,
    sums: Vec<u64>,
    raw: Vec<RawSpan>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            open: None,
            hists: vec![None; BENCH + 1],
            sums: vec![0; BENCH + 1],
            raw: Vec::with_capacity(RAW_CAP),
        }
    }
}

impl Tracer {
    fn switch_to(&mut self, next: Option<(usize, u64, SimTime)>) {
        let now = Instant::now();
        if let Some((slot, start, id, sim)) = self.open.take() {
            let ns = now.duration_since(start).as_nanos() as u64;
            self.hists[slot]
                .get_or_insert_with(Hist::default)
                .record(ns);
            self.sums[slot] += ns;
            if self.raw.len() < RAW_CAP {
                self.raw.push(RawSpan {
                    slot: slot as u16,
                    id,
                    sim_ns: sim.nanos(),
                    host_ns: ns,
                });
            }
        }
        self.open = next.map(|(slot, id, sim)| (slot, now, id, sim));
    }

    /// The benchmark starts its own work (generation, draining, checks).
    pub fn mark_bench(&mut self, sim: SimTime) {
        self.switch_to(Some((BENCH, 0, sim)));
    }

    /// Close the open span (end of the timed phase).
    pub fn stop(&mut self) {
        self.switch_to(None);
    }

    /// Total host ns attributed to `slot`.
    pub fn total_ns(&self, slot: usize) -> u64 {
        self.sums[slot]
    }

    /// Host ns attributed to the benchmark's own work.
    pub fn bench_ns(&self) -> u64 {
        self.sums[BENCH]
    }

    /// Host ns attributed to any span.
    pub fn attributed_ns(&self) -> u64 {
        self.sums.iter().sum()
    }

    /// Percentile `p` of the spans in `slot` (0 when none).
    pub fn percentile(&self, slot: usize, p: f64) -> f64 {
        self.hists[slot].as_ref().map_or(0.0, |h| h.percentile(p))
    }

    /// Write the per-slot table and the first raw spans as TSV.
    pub fn write_tsv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let name = |slot: usize| {
            if slot == BENCH {
                "bench/bench".to_string()
            } else {
                format!(
                    "{}/{}",
                    CLASSES[slot / KINDS.len()],
                    KINDS[slot % KINDS.len()]
                )
            }
        };
        writeln!(out, "# slot\tspans\ttotal_ns\tp50_ns\tp99_ns")?;
        for (slot, h) in self.hists.iter().enumerate() {
            if let Some(h) = h {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{:.0}\t{:.0}",
                    name(slot),
                    h.count(),
                    self.sums[slot],
                    h.percentile(0.5),
                    h.percentile(0.99)
                )?;
            }
        }
        writeln!(out, "# slot\ttrace_id\tsim_ns\thost_ns")?;
        for s in &self.raw {
            writeln!(
                out,
                "{}\t{:#x}\t{}\t{}",
                name(usize::from(s.slot)),
                s.id,
                s.sim_ns,
                s.host_ns
            )?;
        }
        Ok(())
    }
}

impl NetObserver for Tracer {
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>) {
        if let NetEvent::Delivered { to, pkt } = ev {
            let slot = TrafficClass::of(pkt) as usize * KINDS.len() + kind_of(*to);
            self.switch_to(Some((slot, trace_id(pkt), now)));
        }
    }
}
