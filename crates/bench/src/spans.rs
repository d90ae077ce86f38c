//! Span analysis: reconstruct per-operation latency breakdowns from the
//! simulator's causal span markers, aggregate per-phase percentiles, and
//! export spans plus the control-plane journal as one Chrome/Perfetto
//! `trace_event` timeline.
//!
//! Span markers are *points*, not intervals; a phase's duration is the
//! gap from the previous marker, attributed to the **later** marker's
//! kind ("the time it took to reach this phase"). Consecutive gaps
//! telescope, so a completed operation's per-phase durations sum exactly
//! to its end-to-end latency — the property the `explain` bin uses to
//! reconcile breakdowns against the `write_latency` histogram with zero
//! slack.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use swishmem::{CtrlEvent, Histogram, Journal, MigrationTimeline};
use swishmem_simnet::{SpanEvent, SpanPhase};
use swishmem_wire::TraceId;

/// One attributed phase of one operation.
#[derive(Debug, Clone)]
pub struct PhaseSlice {
    /// Display label of the phase reached (`punt`, `retry[2]`, ...).
    pub label: String,
    /// Time spent reaching it from the previous marker, in nanoseconds.
    pub dur_ns: u64,
}

/// The reconstructed timeline of one logical operation.
#[derive(Debug, Clone)]
pub struct TraceBreakdown {
    /// The operation.
    pub trace: TraceId,
    /// Attributed phases in time order (first marker opens the clock and
    /// contributes no slice of its own).
    pub slices: Vec<PhaseSlice>,
    /// End-to-end nanoseconds: last marker minus first marker. Equals the
    /// sum of `slices` durations by construction.
    pub total_ns: u64,
    /// The operation's final phase (e.g. `Release` for a completed SRO
    /// write, `Abandon` for an exhausted one).
    pub last_phase: SpanPhase,
}

impl TraceBreakdown {
    /// True when the operation is a fully-acknowledged SRO/ERO write.
    pub fn completed_write(&self) -> bool {
        self.last_phase == SpanPhase::Release
    }
}

/// Group raw span events into per-trace breakdowns (time-sorted; ties
/// keep emission order, which matches causal order within one node).
pub fn explain(events: &[SpanEvent]) -> Vec<TraceBreakdown> {
    let mut by_trace: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace.0).or_default().push(*e);
    }
    let mut out = Vec::with_capacity(by_trace.len());
    for (id, mut tl) in by_trace {
        tl.sort_by_key(|e| e.time);
        let slices = tl
            .windows(2)
            .map(|w| PhaseSlice {
                label: w[1].phase.label(),
                dur_ns: (w[1].time - w[0].time).as_nanos(),
            })
            .collect();
        out.push(TraceBreakdown {
            trace: TraceId(id),
            slices,
            total_ns: (tl[tl.len() - 1].time - tl[0].time).as_nanos(),
            last_phase: tl[tl.len() - 1].phase,
        });
    }
    out
}

/// Aggregate per-phase duration histograms across many operations,
/// keyed by phase label, in first-seen order.
pub fn phase_histograms(breakdowns: &[TraceBreakdown]) -> Vec<(String, Histogram)> {
    let mut out: Vec<(String, Histogram)> = Vec::new();
    for b in breakdowns {
        for s in &b.slices {
            match out.iter_mut().find(|(l, _)| *l == s.label) {
                Some((_, h)) => h.record_ns(s.dur_ns),
                None => {
                    let mut h = Histogram::new();
                    h.record_ns(s.dur_ns);
                    out.push((s.label.clone(), h));
                }
            }
        }
    }
    out
}

// Chrome/Perfetto `trace_event` builders.

/// Chrome trace_event timestamps are microseconds; keep sub-µs precision
/// by emitting fractional values.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

/// Name process `pid`.
fn proc_meta(out: &mut Vec<Json>, pid: u64, name: impl Into<String>) {
    out.push(Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::from(pid)),
        ("args", Json::obj(vec![("name", Json::str(name))])),
    ]));
}

/// Name thread `tid` of process `pid`.
fn thread_meta(out: &mut Vec<Json>, pid: u64, tid: u64, name: impl Into<String>) {
    out.push(Json::obj(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", Json::obj(vec![("name", Json::str(name))])),
    ]));
}

/// A thread-scoped instant (`"i"`) event on track `(pid, tid)`.
fn instant(
    out: &mut Vec<Json>,
    cat: &str,
    (pid, tid): (u64, u64),
    ts: u64,
    name: impl Into<String>,
    args: Json,
) {
    out.push(Json::obj(vec![
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", us(ts)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", args),
    ]));
}

/// A complete (`"X"`) event of `dur` ns on track `(pid, tid)`.
fn slice(
    out: &mut Vec<Json>,
    cat: &str,
    (pid, tid): (u64, u64),
    ts: u64,
    dur: u64,
    name: impl Into<String>,
    args: Json,
) {
    out.push(Json::obj(vec![
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("X")),
        ("ts", us(ts)),
        ("dur", us(dur)),
        ("pid", Json::from(pid)),
        ("tid", Json::from(tid)),
        ("args", args),
    ]));
}

/// The finished `trace_event` document.
fn document(out: Vec<Json>) -> Json {
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::str("ns")),
    ])
}

/// Render span events and the decoded control-plane journal as one
/// Chrome/Perfetto `trace_event` JSON document (loadable in
/// ui.perfetto.dev or chrome://tracing).
///
/// Every process belonging to a node has pid = node id + 1, so switch
/// and replica processes never collide; pid 0 is the synthetic
/// "control plane" process.
///
/// Write spans: one *thread* per trace (named after its TraceId), under
/// the process of its originating switch. Each phase slice is a
/// complete (`"X"`) event whose `ts`/`dur` are the gap from the
/// previous marker, so the rendered track mirrors the telescoping
/// breakdown; the opening marker is an instant (`"i"`) event.
///
/// Control plane: the "control plane" process carries the fabric-global
/// timelines — leadership reigns (one complete slice per epoch, from the
/// election decree to the next), migration lifecycles (begin→terminal,
/// with the dual-owner window as a nested slice) and compaction /
/// snapshot instants. Every replica that journaled an event gets its own
/// process with a detector thread (suspicion slices from `Suspect` to
/// the clearing `Unsuspect`; open suspicions run to the end of the
/// journal) and a leadership thread (campaign / election / lease
/// instants).
pub fn to_perfetto(events: &[SpanEvent], journal: &Journal) -> Json {
    let mut out: Vec<Json> = Vec::new();
    span_tracks(&mut out, events);
    ctrl_tracks(&mut out, journal);
    document(out)
}

/// How a migration ended: `committed`, `aborted: <reason>` or `open`.
pub fn migration_outcome(m: &MigrationTimeline) -> String {
    if m.commit_at.is_some() {
        "committed".to_string()
    } else if let Some(r) = m.abort_reason {
        format!(
            "aborted: {}",
            swishmem::telemetry::journal::abort_reason_str(r)
        )
    } else {
        "open".to_string()
    }
}

/// The Perfetto pid of node `n`'s process.
fn node_pid(n: u16) -> u64 {
    u64::from(n) + 1
}

fn span_tracks(out: &mut Vec<Json>, events: &[SpanEvent]) {
    let node = |e: &SpanEvent| Json::obj(vec![("node", Json::str(format!("{}", e.node)))]);

    let mut by_trace: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace.0).or_default().push(*e);
    }

    let mut named_pids: Vec<u64> = Vec::new();
    for (tid_seq, (id, tl)) in by_trace.iter_mut().enumerate() {
        tl.sort_by_key(|e| e.time);
        let pid = tl[0].trace.0 >> 48; // TraceId packs origin node + 1
        let tid = tid_seq as u64 + 1;
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            proc_meta(out, pid, format!("switch n{}", pid.saturating_sub(1)));
        }
        thread_meta(out, pid, tid, format!("{}", TraceId(*id)));
        let first = &tl[0];
        instant(
            out,
            "span",
            (pid, tid),
            first.time.nanos(),
            first.phase.label(),
            node(first),
        );
        for w in tl.windows(2) {
            slice(
                out,
                "span",
                (pid, tid),
                w[0].time.nanos(),
                (w[1].time - w[0].time).as_nanos(),
                w[1].phase.label(),
                node(&w[1]),
            );
        }
    }
}

fn ctrl_tracks(out: &mut Vec<Json>, journal: &Journal) {
    let entries = journal.entries();
    let end_ns = entries.last().map(|e| e.time.nanos()).unwrap_or(0);
    let detail = |d: String| Json::obj(vec![("detail", Json::str(d))]);

    const CTRL_PID: u64 = 0;
    const TID_LEADERSHIP: u64 = 1;
    const TID_MIGRATIONS: u64 = 2;
    const TID_COMPACTION: u64 = 3;

    proc_meta(out, CTRL_PID, "control plane");
    thread_meta(out, CTRL_PID, TID_LEADERSHIP, "leadership");
    thread_meta(out, CTRL_PID, TID_MIGRATIONS, "migrations");
    thread_meta(out, CTRL_PID, TID_COMPACTION, "compaction");

    // Leadership reigns: each epoch's earliest election decree opens a
    // slice that runs until the next epoch's decree (or journal end).
    let failovers = journal.failovers();
    for (i, f) in failovers.iter().enumerate() {
        let start = f.elected_at.nanos();
        let stop = failovers
            .get(i + 1)
            .map(|n| n.elected_at.nanos())
            .unwrap_or(end_ns)
            .max(start);
        slice(
            out,
            "ctrl",
            (CTRL_PID, TID_LEADERSHIP),
            start,
            stop - start,
            format!("leader n{} (epoch {})", f.leader.0, f.epoch),
            detail(format!("decree slot {}", f.slot)),
        );
    }

    // Migration lifecycles, dual-owner window nested inside.
    for m in journal.migrations() {
        let begin = m.begin_at.nanos();
        let stop = m
            .commit_at
            .or(m.abort_at)
            .map(|t| t.nanos())
            .unwrap_or(end_ns)
            .max(begin);
        let outcome = migration_outcome(&m);
        slice(
            out,
            "ctrl",
            (CTRL_PID, TID_MIGRATIONS),
            begin,
            stop - begin,
            format!("mig reg{}@{} n{}->n{}", m.reg, m.start, m.from.0, m.to.0),
            detail(format!("epoch {}, {} passes, {outcome}", m.epoch, m.passes)),
        );
        if let Some(d) = m.dual_owner_at {
            let d_ns = d.nanos();
            slice(
                out,
                "ctrl",
                (CTRL_PID, TID_MIGRATIONS),
                d_ns,
                stop.max(d_ns) - d_ns,
                "dual-owner",
                detail(format!("reg {} start {}", m.reg, m.start)),
            );
        }
    }

    // Compaction boundaries and snapshot traffic.
    for c in journal.compactions() {
        instant(
            out,
            "ctrl",
            (CTRL_PID, TID_COMPACTION),
            c.at.nanos(),
            format!("compact@{}", c.upto),
            detail(format!("n{}: {} B snapshot", c.node.0, c.snap_bytes)),
        );
    }
    for e in entries {
        match e.event {
            CtrlEvent::SnapshotSent { base, bytes, to } => instant(
                out,
                "ctrl",
                (CTRL_PID, TID_COMPACTION),
                e.time.nanos(),
                format!("snapshot@{base} -> n{}", to.0),
                detail(format!("{bytes} B")),
            ),
            CtrlEvent::SnapshotInstalled { base } => instant(
                out,
                "ctrl",
                (CTRL_PID, TID_COMPACTION),
                e.time.nanos(),
                format!("snapshot@{base} installed"),
                detail(format!("n{}", e.node.0)),
            ),
            _ => {}
        }
    }

    // Per-replica tracks: detector suspicion slices + leadership/lease
    // instants.
    const TID_DETECTOR: u64 = 1;
    const TID_REPLICA_LEAD: u64 = 2;
    let replicas: BTreeSet<u16> = entries.iter().map(|e| e.node.0).collect();
    for &node in &replicas {
        let pid = node_pid(node);
        proc_meta(out, pid, format!("replica n{node}"));
        thread_meta(out, pid, TID_DETECTOR, "detector");
        thread_meta(out, pid, TID_REPLICA_LEAD, "leadership");
    }
    // Open suspicions per (observer, target).
    let mut open: BTreeMap<(u16, u16), (u64, u64, u64)> = BTreeMap::new();
    for e in entries {
        let pid = node_pid(e.node.0);
        let t = e.time.nanos();
        match e.event {
            CtrlEvent::Suspect {
                target,
                silence_ns,
                timeout_ns,
            } => {
                open.insert((e.node.0, target.0), (t, silence_ns, timeout_ns));
            }
            CtrlEvent::Unsuspect { target } => {
                if let Some((t0, silence, budget)) = open.remove(&(e.node.0, target.0)) {
                    slice(
                        out,
                        "ctrl",
                        (pid, TID_DETECTOR),
                        t0,
                        t.max(t0) - t0,
                        format!("suspect n{}", target.0),
                        detail(format!("{silence} ns silent vs {budget} ns budget")),
                    );
                }
            }
            CtrlEvent::ElectionStart { ballot, timeout_ns } => instant(
                out,
                "ctrl",
                (pid, TID_REPLICA_LEAD),
                t,
                format!("election start (ballot {ballot})"),
                detail(format!("after {timeout_ns} ns silence")),
            ),
            CtrlEvent::LeaderElected {
                leader,
                epoch,
                slot,
            } => instant(
                out,
                "ctrl",
                (pid, TID_REPLICA_LEAD),
                t,
                format!("leader n{} elected (epoch {epoch})", leader.0),
                detail(format!("decree slot {slot}")),
            ),
            CtrlEvent::StepDown { slot, ballot } => instant(
                out,
                "ctrl",
                (pid, TID_REPLICA_LEAD),
                t,
                "step down",
                detail(format!("slot {slot}, ballot {ballot}")),
            ),
            CtrlEvent::LeaseLost { heard, quorum } => instant(
                out,
                "ctrl",
                (pid, TID_REPLICA_LEAD),
                t,
                "lease lost",
                detail(format!("heard {heard} of quorum {quorum}")),
            ),
            _ => {}
        }
    }
    // Suspicions never cleared run to the end of the journal.
    for ((node, target), (t0, silence, budget)) in open {
        slice(
            out,
            "ctrl",
            (node_pid(node), TID_DETECTOR),
            t0,
            end_ns.max(t0) - t0,
            format!("suspect n{target} (uncleared)"),
            detail(format!("{silence} ns silent vs {budget} ns budget")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swishmem_simnet::SimTime;
    use swishmem_wire::NodeId;

    fn ev(t: u64, trace: TraceId, node: u16, phase: SpanPhase) -> SpanEvent {
        SpanEvent {
            time: SimTime(t),
            trace,
            node: NodeId(node),
            phase,
        }
    }

    fn write_timeline(trace: TraceId) -> Vec<SpanEvent> {
        vec![
            ev(100, trace, 0, SpanPhase::Ingress),
            ev(135, trace, 0, SpanPhase::Punt),
            ev(145, trace, 0, SpanPhase::CpDequeue),
            ev(155, trace, 0, SpanPhase::JobStart),
            ev(200, trace, 0, SpanPhase::ChainHop(0)),
            ev(260, trace, 1, SpanPhase::ChainHop(1)),
            ev(320, trace, 2, SpanPhase::Ack),
            ev(400, trace, 0, SpanPhase::Release),
        ]
    }

    #[test]
    fn breakdown_telescopes_to_end_to_end() {
        let t = TraceId::new(NodeId(0), 1);
        let b = explain(&write_timeline(t));
        assert_eq!(b.len(), 1);
        let b = &b[0];
        assert!(b.completed_write());
        assert_eq!(b.total_ns, 300);
        let sum: u64 = b.slices.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, b.total_ns, "phase gaps telescope exactly");
        assert_eq!(b.slices[0].label, "punt");
        assert_eq!(b.slices.last().unwrap().label, "release");
    }

    #[test]
    fn gap_attribution_uses_the_later_marker() {
        // A retry firing after the ack was sent (interleaving): the gap
        // before `retry[1]` belongs to the retry, the next gap to release.
        let t = TraceId::new(NodeId(3), 9);
        let mut tl = write_timeline(t);
        tl.push(ev(350, t, 0, SpanPhase::Retry(1)));
        let b = explain(&tl);
        let labels: Vec<&str> = b[0].slices.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels[labels.len() - 2], "retry[1]");
        assert_eq!(labels[labels.len() - 1], "release");
        let sum: u64 = b[0].slices.iter().map(|s| s.dur_ns).sum();
        assert_eq!(sum, b[0].total_ns);
    }

    #[test]
    fn phase_histograms_aggregate_across_traces() {
        let a = TraceId::new(NodeId(0), 1);
        let b = TraceId::new(NodeId(1), 1);
        let mut evs = write_timeline(a);
        evs.extend(write_timeline(b));
        let hists = phase_histograms(&explain(&evs));
        let punt = hists.iter().find(|(l, _)| l == "punt").unwrap();
        assert_eq!(punt.1.count(), 2);
        assert_eq!(punt.1.max_ns(), 35);
    }

    #[test]
    fn perfetto_document_shape() {
        let t = TraceId::new(NodeId(0), 1);
        let doc = to_perfetto(&write_timeline(t), &Journal::default()).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"ph\": \"M\""));
        assert!(doc.contains("\"ph\": \"i\""));
        assert!(doc.contains("\"chain_hop[1]\""));
        assert!(doc.contains("switch n0"));
        // ts rendered in microseconds: the 100 ns ingress is 0.1 µs.
        assert!(doc.contains("\"ts\": 0.1"));
    }

    fn jrec(t: u64, node: u16, ev: CtrlEvent) -> swishmem_simnet::JournalRecord {
        let (kind, cause, a, b, c) = ev.encode();
        swishmem_simnet::JournalRecord {
            time: SimTime(t),
            node: NodeId(node),
            kind,
            cause,
            a,
            b,
            c,
        }
    }

    #[test]
    fn ctrl_perfetto_renders_leadership_detector_and_migration_tracks() {
        let leader = 65534u16;
        let records = vec![
            jrec(
                1_000,
                leader,
                CtrlEvent::Suspect {
                    target: NodeId(65535),
                    silence_ns: 400,
                    timeout_ns: 350,
                },
            ),
            jrec(
                1_100,
                leader,
                CtrlEvent::ElectionStart {
                    ballot: 257,
                    timeout_ns: 350,
                },
            ),
            jrec(
                1_200,
                leader,
                CtrlEvent::LeaderElected {
                    leader: NodeId(leader),
                    epoch: 2,
                    slot: 8,
                },
            ),
            jrec(
                1_250,
                leader,
                CtrlEvent::Unsuspect {
                    target: NodeId(65535),
                },
            ),
            jrec(
                2_000,
                leader,
                CtrlEvent::MigBegin {
                    reg: 1,
                    start: 16,
                    from: NodeId(0),
                    to: NodeId(2),
                    epoch: 2,
                },
            ),
            jrec(
                2_500,
                leader,
                CtrlEvent::MigDualOwner {
                    reg: 1,
                    start: 16,
                    epoch: 2,
                    pass: 1,
                },
            ),
            jrec(
                3_000,
                leader,
                CtrlEvent::MigCommit {
                    reg: 1,
                    start: 16,
                    epoch: 3,
                },
            ),
            jrec(
                3_500,
                leader,
                CtrlEvent::Compact {
                    upto: 12,
                    snap_bytes: 640,
                },
            ),
        ];
        let journal = Journal::decode(&records);
        let doc = to_perfetto(&write_timeline(TraceId::new(NodeId(0), 1)), &journal).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("control plane"));
        assert!(doc.contains("leader n65534 (epoch 2)"));
        assert!(doc.contains("mig reg1@16 n0->n2"));
        assert!(doc.contains("dual-owner"));
        assert!(doc.contains("compact@12"));
        assert!(doc.contains("replica n65534"));
        // pid = node id + 1 for switches and replicas alike.
        assert!(doc.contains("\"pid\": 65535"));
        assert!(doc.contains("switch n0"));
        assert!(doc.contains("suspect n65535"));
        assert!(doc.contains("election start (ballot 257)"));
        // The suspicion slice spans 1_000..1_250 ns = 0.25 µs.
        assert!(doc.contains("\"dur\": 0.25"), "{doc}");
    }

    #[test]
    fn perfetto_empty_run_is_well_formed() {
        let doc = to_perfetto(&[], &Journal::default()).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("control plane"));
    }
}
