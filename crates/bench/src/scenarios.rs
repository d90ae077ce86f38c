//! Shared scenario building blocks for the experiments: probe NFs with
//! externally-observable reads, packet constructors, the explained
//! leader-crash run, and measurement helpers.

use std::net::Ipv4Addr;
use swishmem::oracle::{OracleConfig, OracleSuite};
use swishmem::prelude::*;
use swishmem::{Journal, RegisterSpec, SharedState, TriggerOp};
use swishmem_simnet::{FaultAction, FaultGen, Recording, SpanEvent};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::PacketBody;

/// A probe NF over one register:
/// * UDP packet → `write(reg0, dst_port, payload_len)`, output to host 0;
/// * TCP packet → `read(reg0, dst_port)`, value returned in the output
///   packet's `flow_seq`, output to host 1.
///
/// Because the read value leaves the fabric in a packet, experiments can
/// measure both read latency (inject → host arrival) and staleness
/// (value seen vs value written).
pub struct ProbeNf;

impl swishmem::NfApp for ProbeNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> swishmem::NfDecision {
        let key = u32::from(pkt.flow.dst_port);
        if pkt.flow.proto == 17 {
            st.write(0, key, u64::from(pkt.payload_len));
            swishmem::NfDecision::Forward {
                dst: NodeId(HOST_BASE),
                pkt: *pkt,
            }
        } else {
            let v = st.read(0, key);
            let mut out = *pkt;
            out.flow_seq = v as u32;
            swishmem::NfDecision::Forward {
                dst: NodeId(HOST_BASE + 1),
                pkt: out,
            }
        }
    }
}

/// A counting NF: every packet adds 1 to register 0 at key `dst_port`,
/// forwarding to host 0. Over an EWO counter the add stays in the data
/// plane; over an SRO register it is a chain write through the control
/// plane.
pub struct CounterNf;

impl swishmem::NfApp for CounterNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> swishmem::NfDecision {
        st.add(0, u32::from(pkt.flow.dst_port), 1);
        swishmem::NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// A UDP "write" probe packet: key = `port`, value = `val` (≤ 1400).
pub fn udp_write(port: u16, val: u16) -> DataPacket {
    DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            999,
            Ipv4Addr::new(10, 0, 0, 2),
            port,
        ),
        0,
        val,
    )
}

/// A TCP "read" probe packet: key = `port`, tagged with `tag` in the
/// source port for matching against host arrivals.
pub fn tcp_read(port: u16, tag: u16) -> DataPacket {
    DataPacket::tcp(
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            tag,
            Ipv4Addr::new(10, 0, 0, 2),
            port,
        ),
        TcpFlags::data(),
        0,
        10,
    )
}

/// A plain counting packet keyed by `port`.
pub fn count_pkt(port: u16, seq: u32) -> DataPacket {
    DataPacket::udp(
        FlowKey::udp(
            Ipv4Addr::new(10, 0, 0, 3),
            1000,
            Ipv4Addr::new(10, 0, 0, 4),
            port,
        ),
        seq,
        64,
    )
}

/// Build a ProbeNf deployment over one register of the given class.
pub fn probe_deployment(n: usize, spec: RegisterSpec, cfg: SwishConfig) -> Deployment {
    DeploymentBuilder::new(n)
        .hosts(2)
        .swish_config(cfg)
        .register(spec)
        .build(|_| Box::new(ProbeNf))
}

/// Key space of the partitioned register the controller-failover
/// scenarios write into.
pub const WRITE_KEYS: u32 = 48;

/// Inject `n` [`ProbeNf`] writes spread evenly over `window` from `t0`:
/// ingress round-robins over switches 0–2, keys cycle over
/// [`WRITE_KEYS`].
pub fn inject_writes(dep: &mut Deployment, t0: SimTime, n: u64, window: SimDuration) {
    let step = window.as_nanos() / n.max(1);
    for i in 0..n {
        let key = (i % u64::from(WRITE_KEYS)) as u16;
        dep.inject(
            t0 + SimDuration::nanos(i * step),
            (i % 3) as usize,
            0,
            udp_write(key, 100 + (i % 400) as u16),
        );
    }
}

/// What one [`crash_run`] recorded.
pub struct CrashRun {
    /// Span markers, in collection order.
    pub spans: Vec<SpanEvent>,
    /// Span markers dropped by the bounded collector.
    pub span_overflowed: u64,
    /// `write_latency` samples still held by the switches. A crashed
    /// switch loses its samples on reset.
    pub latency_samples: Vec<u64>,
    /// Switch crash episodes in the fault schedule.
    pub switch_crashes: usize,
    /// The decoded control-plane journal.
    pub journal: Journal,
    /// Journal records kept.
    pub journal_records: usize,
    /// Journal records dropped by the bounded collector.
    pub journal_overflowed: u64,
    /// When the controller leader was crashed.
    pub t_crash: SimTime,
    /// Crash-to-election gap per the controller's own election log.
    pub measured_gap_ns: Option<u64>,
    /// The oracle suite's violation report; `None` when clean.
    pub oracle_report: Option<String>,
}

impl CrashRun {
    /// Crash-to-election gap as the journal reconstructs it.
    pub fn journal_gap_ns(&self) -> Option<u64> {
        self.journal
            .failovers()
            .iter()
            .find(|f| f.elected_at >= self.t_crash)
            .map(|f| f.elected_at.since(self.t_crash).0)
    }
}

/// The explained leader-crash run, one simulation per seed. A
/// 3-replica controller group (adaptive detector, log compaction every
/// 4 slots) over a partitioned register; two range moves at t0+8 ms and
/// t0+16 ms; the leader crashes at t0+30 ms. Meanwhile 48 writes arrive
/// at 1 ms spacing and a seeded [`FaultGen`] schedule runs against the
/// switches from t0. Spans and the journal are attached before
/// `settle`, and the oracle suite (journal monitors included) watches
/// the whole run.
pub fn crash_run(seed: u64) -> CrashRun {
    let cfg = SwishConfig {
        ctrl_replicas: 3,
        adaptive_detector: true,
        log_compact_threshold: 4,
        ..Default::default()
    };
    let mut dep = DeploymentBuilder::new(3)
        .hosts(1)
        .seed(seed)
        .swish_config(cfg)
        .register(RegisterSpec::partitioned(0, "p", WRITE_KEYS))
        .build(|_| Box::new(ProbeNf));
    let spans = dep.attach_tracing(1 << 20);
    let journal = dep.attach_journal(1 << 20);
    dep.settle();
    let t0 = dep.now();
    let switches = dep.switch_ids().to_vec();
    dep.schedule_trigger(
        t0 + SimDuration::millis(8),
        TriggerOp::Move,
        0,
        0,
        switches[1],
    );
    dep.schedule_trigger(
        t0 + SimDuration::millis(16),
        TriggerOp::Move,
        0,
        16,
        switches[2],
    );
    let t_crash = t0 + SimDuration::millis(30);
    dep.schedule_ctrl_fail(t_crash, 0);
    inject_writes(&mut dep, t0, 48, SimDuration::millis(48));
    let sched =
        FaultGen::new(seed).generate(&switches, &dep.fault_links(), SimDuration::millis(60), 4);
    let switch_crashes = sched
        .events()
        .iter()
        .filter(|e| matches!(e.action, FaultAction::Crash { .. }))
        .count();
    dep.schedule_faults(t0, &sched);

    let ocfg = OracleConfig::new(t0 + SimDuration::millis(90));
    let mut suite = OracleSuite::attach(&mut dep, ocfg);
    suite.attach_journal(journal.clone());
    let _ = suite.run(&mut dep, ocfg.quiesce_at + ocfg.convergence_grace);

    let measured_gap_ns = dep
        .controller()
        .elections()
        .iter()
        .find(|e| e.time >= t_crash)
        .map(|e| e.time.since(t_crash).0);
    let latency_samples = (0..switches.len())
        .flat_map(|i| dep.metrics(i).cp.write_latency.samples().to_vec())
        .collect();
    let (spans, journal) = (spans.borrow(), journal.borrow());
    CrashRun {
        spans: spans.entries().to_vec(),
        span_overflowed: spans.overflowed(),
        latency_samples,
        switch_crashes,
        journal: Journal::decode(journal.entries()),
        journal_records: journal.len(),
        journal_overflowed: journal.overflowed(),
        t_crash,
        measured_gap_ns,
        oracle_report: suite.violation_report(),
    }
}

/// Extract `(arrival_time, tag, value)` triples from a read-probe host
/// recording (tag = src_port, value = flow_seq).
pub fn read_arrivals(rec: &Recording) -> Vec<(SimTime, u16, u32)> {
    rec.borrow()
        .iter()
        .filter_map(|(t, p)| match &p.body {
            PacketBody::Data(d) => Some((*t, d.flow.src_port, d.flow_seq)),
            _ => None,
        })
        .collect()
}

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentile of a slice via nearest rank (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_write_then_read_round_trip() {
        let mut dep = probe_deployment(3, RegisterSpec::sro(0, "t", 128), SwishConfig::default());
        dep.settle();
        let t = dep.now();
        dep.inject(t, 0, 0, udp_write(17, 321));
        dep.run_for(SimDuration::millis(20));
        let t = dep.now();
        dep.inject(t, 2, 0, tcp_read(17, 42));
        dep.run_for(SimDuration::millis(10));
        let arrivals = read_arrivals(dep.recording(1));
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].1, 42);
        assert_eq!(arrivals[0].2, 321);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
