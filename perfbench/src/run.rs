//! One benchmark run: set-up (repeated, median reported), a timed phase
//! that injects the workload slice by slice, a final drain, and the
//! output checks.
//!
//! Each workload's schedule is fixed in simulated time by the seed (an
//! open loop: nothing the program does changes when a packet is due) and
//! is injected one slice at a time, so the event queue only ever holds
//! the near future. After every slice the benchmark drains the hosts'
//! recordings and checks each delivered packet, which keeps its own
//! memory flat. The number of slices follows from `--seconds`, so every
//! simulated figure depends only on the seed and the run length.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use swishmem::{Deployment, DpMetrics};
use swishmem_pisa::SwitchStats;
use swishmem_simnet::{DropReason, NetStats, SimDuration, SimTime, TrafficClass};
use swishmem_wire::{DataPacket, Packet, PacketBody, SwishMsg};

use crate::host::{median, peak_rss_mb, CpuSample, FxMap, Hist, RefKernel, REF_NS_PER_STEP};
use crate::nf::{OpTimes, Ops};
use crate::tracer::{self, Tracer};
use crate::workloads::{runner, Runner};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SRO connection table on a 3-switch mesh with a 3-replica
    /// controller whose leader crashes mid-run.
    SroConntable,
    /// EWO count-min sketch on a 4-switch mesh: every packet adds.
    EwoSketch,
    /// Read-only ERO lookups on a 16x4 leaf-spine fed by trace replay.
    ReplayLeafspine,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SroConntable,
        Workload::EwoSketch,
        Workload::ReplayLeafspine,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SroConntable => "sro_conntable",
            Workload::EwoSketch => "ewo_sketch",
            Workload::ReplayLeafspine => "replay_leafspine",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Slices per second of `--seconds`: sized so the timed phase lasts
    /// about that long on a 2-vCPU x86-64 host at the benchmark's first
    /// commit. A faster program finishes sooner on the same inputs.
    fn slices_per_second(self) -> f64 {
        match self {
            Workload::SroConntable => 1300.0,
            Workload::EwoSketch => 850.0,
            Workload::ReplayLeafspine => 40.0,
        }
    }

    fn setup_reps(self) -> usize {
        match self {
            Workload::SroConntable => 41,
            Workload::EwoSketch => 21,
            Workload::ReplayLeafspine => 6,
        }
    }
}

/// Host time per timing window. Long enough that the scheduler-tick
/// granularity of `schedstat` CPU time is under 2% of a window.
const WINDOW: std::time::Duration = std::time::Duration::from_millis(250);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Slices in the timed phase (each of the two passes of a traced run
    /// gets half).
    pub slices: usize,
    /// Set-ups to time; the last one runs the workload.
    pub setup_reps: usize,
    /// Per-layer run: an untraced and a traced pass of the same inputs.
    pub trace: bool,
    /// Corrupt one expected value so the checks must fail (self-test).
    pub sabotage: bool,
    /// Stop injecting when a timed phase runs longer than this, so a
    /// much slower program still finishes (with fewer slices measured).
    pub max_wall: std::time::Duration,
}

impl RunConfig {
    /// A run whose timed phase lasts about `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed,
            slices: ((seconds * workload.slices_per_second()).round() as usize).max(4),
            setup_reps: workload.setup_reps(),
            trace,
            sabotage: false,
            max_wall: std::time::Duration::from_secs_f64(4.0 * seconds),
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Simulated-time results of a pass: a function of the seed and the run
/// length only, so two passes of one configuration must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimDigest {
    /// Data packets injected.
    pub injected: u64,
    /// Data packets delivered to hosts.
    pub delivered: u64,
    /// Failed checks.
    pub failed: u64,
    /// Engine events in the timed phase.
    pub events: u64,
    /// Latency p50 (ns).
    pub lat_p50: f64,
    /// Latency p99 (ns).
    pub lat_p99: f64,
    /// Convergence p50 (ns).
    pub converge_p50: f64,
    /// Bytes of all non-data deliveries in the timed phase.
    pub repl_bytes: u64,
}

/// Result of a whole run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Checked operations: data packets injected plus replica register
    /// values compared.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// The first few check failures, for humans.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Noise diagnostics and sample counts, reported beside the metrics.
    pub diag: Vec<Metric>,
    /// Simulated results of the first pass.
    pub sim: SimDigest,
    /// Span table of the traced pass (TSV), when traced.
    pub spans_tsv: Option<String>,
}

// ---------------------------------------------------------------------
// Bookkeeping shared by the workloads
// ---------------------------------------------------------------------

/// A data packet in flight.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Scheduled injection time.
    pub inject_ns: u64,
    /// Slice it was injected in.
    pub slice: u32,
    /// Connection index (SRO) or packet signature (EWO).
    pub tag: u64,
    /// A connection's SYN.
    pub syn: bool,
}

/// Per-slice convergence tracking.
#[derive(Debug, Clone, Copy, Default)]
struct SliceTrack {
    last_inject: u64,
    outstanding: u64,
    max_arrival: u64,
    converged_at: u64,
}

/// Checker state: packets in flight, samples, failures.
#[derive(Default)]
pub struct Book {
    /// In-flight packets by packet id (`flow_seq`).
    pub pending: FxMap<u32, Pending>,
    slices: FxMap<u32, SliceTrack>,
    lat: Hist,
    converge: Hist,
    /// Data packets injected.
    pub injected: u64,
    delivered: u64,
    /// Replica register values compared.
    pub checked_values: u64,
    /// Replica register values that differed from the expected ones.
    pub value_failed: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Book {
    /// Count one failed check.
    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg());
        }
    }

    fn open_slice(&mut self, slice: u32, last_inject: u64, count: u64, converged_at: u64) {
        if count == 0 {
            return;
        }
        let tr = self.slices.entry(slice).or_default();
        tr.last_inject = last_inject;
        tr.converged_at = converged_at;
        tr.outstanding += count;
    }

    /// A packet of `slice` reached a host at `t`, or was written off
    /// (`t` = 0). The slice's convergence time is recorded once its last
    /// packet has arrived.
    pub fn settle_packet(&mut self, slice: u32, t: u64) {
        let Some(tr) = self.slices.get_mut(&slice) else {
            return;
        };
        tr.max_arrival = tr.max_arrival.max(t);
        tr.outstanding -= 1;
        if tr.outstanding == 0 {
            let done = tr.max_arrival.max(tr.converged_at);
            self.converge.record(done.saturating_sub(tr.last_inject));
            self.slices.remove(&slice);
        }
    }

    /// A data packet injected at `inject_ns` reached a host at `t`.
    pub fn delivered_packet(&mut self, inject_ns: u64, slice: u32, t: u64) {
        self.delivered += 1;
        self.lat.record(t.saturating_sub(inject_ns));
        self.settle_packet(slice, t);
    }
}

/// One injected slice.
pub struct Slice {
    /// Time of the last injection (the slice start when none).
    pub last: SimTime,
    /// Packets injected.
    pub count: u64,
    /// When the next slice starts.
    pub end: SimTime,
}

// ---------------------------------------------------------------------
// The timed loop
// ---------------------------------------------------------------------

/// Control-plane counters of one switch. The write-latency samples stay
/// in the program: copying them would show in `peak_rss_mb`.
#[derive(Clone, Copy)]
struct CpCounts {
    jobs_started: u64,
    write_sends: u64,
    retries: u64,
    jobs_failed: u64,
    jobs_shed: u64,
    latency_samples: usize,
}

/// Protocol counters of one switch.
#[derive(Clone)]
struct Proto {
    dp: DpMetrics,
    cp: CpCounts,
}

/// Counters of the program, read through public getters only.
#[derive(Clone)]
struct Counters {
    events: u64,
    net: NetStats,
    switches: Vec<SwitchStats>,
    metrics: Vec<Proto>,
}

impl Counters {
    fn read(dep: &Deployment) -> Counters {
        let n = dep.switch_ids().len();
        let proto = |i: usize| {
            let sw = dep.switch(i);
            let cp = sw.cp_app().metrics();
            Proto {
                dp: sw.program().metrics().clone(),
                cp: CpCounts {
                    jobs_started: cp.jobs_started,
                    write_sends: cp.write_sends,
                    retries: cp.retries,
                    jobs_failed: cp.jobs_failed,
                    jobs_shed: cp.jobs_shed,
                    latency_samples: cp.write_latency.count(),
                },
            }
        };
        Counters {
            events: dep.sim.events_processed(),
            net: dep.sim.stats().clone(),
            switches: (0..n).map(|i| dep.switch(i).stats()).collect(),
            metrics: (0..n).map(proto).collect(),
        }
    }

    fn sw_sum(&self, f: impl Fn(&SwitchStats) -> u64) -> u64 {
        self.switches.iter().map(f).sum()
    }

    fn m_sum(&self, f: impl Fn(&Proto) -> u64) -> u64 {
        self.metrics.iter().map(f).sum()
    }
}

struct Window {
    wall_ns: u64,
    cpu_ns: u64,
    pkts: u64,
    /// [`RefKernel`] ns per step, measured right after the window.
    ref_ns: f64,
}

/// Everything one pass measured.
struct Pass {
    setup_s: f64,
    wall_ns: u64,
    cpu: CpuSample,
    windows: Vec<Window>,
    book: Book,
    before: Counters,
    after: Counters,
    peak_queue: usize,
    cpq_max: usize,
    cpq_sum: u64,
    cpq_samples: u64,
    ctrl_msgs: u64,
    elections: u64,
    leader_changes: u64,
    failover_gap_ns: Option<u64>,
    write_lat: Hist,
    tracer: Option<Rc<RefCell<Tracer>>>,
    times: Arc<OpTimes>,
    layer_extra: Vec<Metric>,
    peak_rss_mb: f64,
}

impl Pass {
    fn digest(&self) -> SimDigest {
        SimDigest {
            injected: self.book.injected,
            delivered: self.book.delivered,
            failed: self.book.failed,
            events: self.after.events - self.before.events,
            lat_p50: self.book.lat.percentile(0.5),
            lat_p99: self.book.lat.percentile(0.99),
            converge_p50: self.book.converge.percentile(0.5),
            repl_bytes: self.repl_bytes(),
        }
    }

    fn delivered_delta(&self, class: TrafficClass) -> (u64, u64) {
        let a = self.after.net.delivered(class);
        let b = self.before.net.delivered(class);
        (a.packets - b.packets, a.bytes - b.bytes)
    }

    fn repl_bytes(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|&&c| c != TrafficClass::Data)
            .map(|&c| self.delivered_delta(c).1)
            .sum()
    }
}

/// Drain every host's recording (in arrival order across hosts) into
/// the workload's checker.
fn drain(
    dep: &Deployment,
    drv: &mut dyn Runner,
    book: &mut Book,
    buf: &mut Vec<(u64, usize, DataPacket)>,
) {
    for h in 0..dep.host_ids().len() {
        let mut log = dep.recording(h).borrow_mut();
        for (t, pkt) in log.drain(..) {
            match pkt.body {
                PacketBody::Data(d) => buf.push((t.nanos(), h, d)),
                PacketBody::Swish(_) => {
                    book.fail(|| format!("host {h} received a protocol message"))
                }
            }
        }
    }
    buf.sort_by_key(|&(t, h, _)| (t, h));
    for (t, h, d) in buf.drain(..) {
        drv.deliver(h, t, &d, book);
    }
}

fn pass(cfg: &RunConfig, slices: usize, traced: bool) -> Pass {
    let mut drv = runner(cfg.workload, cfg.seed, cfg.sabotage);
    let times = Arc::new(OpTimes::default());
    let ops = if traced {
        Ops::timed(times.clone())
    } else {
        Ops::plain()
    };

    // Half the set-ups run before the timed phase (the last one carries
    // the workload) and half after it, so that their median is less
    // tied to one stretch of host load.
    // Each set-up time is scaled by a reference-kernel run just before it.
    let before_reps = cfg.setup_reps.div_ceil(2).max(1);
    let mut kernel = RefKernel::default();
    let mut setup = Vec::with_capacity(cfg.setup_reps);
    let mut dep = None;
    for _ in 0..before_reps {
        drop(dep.take());
        let scale = REF_NS_PER_STEP / kernel.measure();
        let t0 = Instant::now();
        dep = Some(drv.setup(ops.clone()));
        setup.push(t0.elapsed().as_secs_f64() * scale);
    }
    let mut dep = dep.expect("at least one set-up");
    drv.prepare();

    let tracer = traced.then(|| Rc::new(RefCell::new(Tracer::default())));
    let mark = |sim: SimTime| {
        if let Some(t) = &tracer {
            t.borrow_mut().mark_bench(sim);
        }
    };

    let t0 = SimTime(dep.now().nanos().div_ceil(1_000_000) * 1_000_000 + 1_000_000);
    dep.run_until(t0);
    drv.start(&mut dep, t0, slices);
    let elections_before = dep.controller().elections().len();
    let cm0 = dep.controller().consensus_metrics();
    let before = Counters::read(&dep);

    let mut book = Book::default();
    let mut buf = Vec::new();
    let mut windows = Vec::new();
    let (mut cpq_max, mut cpq_sum, mut cpq_samples) = (0usize, 0u64, 0u64);
    let poll = SimDuration::nanos(10);
    if let Some(t) = &tracer {
        dep.add_observer(t.clone());
    }
    let mut kernel_ns = 0u64;
    let cpu0 = CpuSample::now();
    let wall0 = Instant::now();
    let (mut w_wall, mut w_cpu, mut w_pkts) = (wall0, cpu0, 0u64);
    let mut start = t0;
    for i in 0..slices as u32 {
        if wall0.elapsed() > cfg.max_wall {
            eprintln!(
                "timed phase stopped after {i} of {slices} slices: over {:?}",
                cfg.max_wall
            );
            break;
        }
        mark(dep.now());
        let s = drv.inject(&mut dep, i, start, &mut book);
        // Poll for replica convergence from the slice's last injection.
        let mut converged_at = 0;
        if s.count > 0 {
            let mut t = s.last;
            dep.run_until(t);
            while !drv.converged(&dep) && t < s.end {
                t += poll;
                dep.run_until(t);
            }
            converged_at = t.nanos();
        }
        dep.run_until(s.end);
        mark(dep.now());
        book.open_slice(i, s.last.nanos(), s.count, converged_at);
        let delivered = book.delivered;
        drain(&dep, drv.as_mut(), &mut book, &mut buf);
        drv.end_slice(i, &mut book);
        w_pkts += book.delivered - delivered;
        for sw in 0..dep.switch_ids().len() {
            let q = dep.switch(sw).cp_app().buffered_jobs();
            cpq_max = cpq_max.max(q);
            cpq_sum += q as u64;
            cpq_samples += 1;
        }
        start = s.end;
        // A run shorter than one window is timed as a whole.
        let last = i as usize + 1 == slices && windows.is_empty();
        if w_wall.elapsed() >= WINDOW || last {
            let wall_ns = w_wall.elapsed().as_nanos() as u64;
            let cpu_ns = CpuSample::now().since(w_cpu).cpu_ns;
            if let Some(t) = &tracer {
                t.borrow_mut().stop();
            }
            let k0 = Instant::now();
            let ref_ns = kernel.measure();
            kernel_ns += k0.elapsed().as_nanos() as u64;
            windows.push(Window {
                wall_ns,
                cpu_ns,
                pkts: w_pkts,
                ref_ns,
            });
            (w_wall, w_cpu, w_pkts) = (Instant::now(), CpuSample::now(), 0);
        }
    }
    if let Some(t) = &tracer {
        t.borrow_mut().stop();
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64 - kernel_ns;
    let cpu = CpuSample::now().since(cpu0);
    let after = Counters::read(&dep);
    let peak_queue = dep.sim.peak_queue_depth();

    // Final drain: let retries and replication finish, then check.
    let limit = dep.now() + drv.drain_limit();
    while !book.pending.is_empty() && dep.now() < limit {
        dep.run_for(SimDuration::millis(1));
        drain(&dep, drv.as_mut(), &mut book, &mut buf);
    }
    dep.run_for(SimDuration::millis(1));
    drain(&dep, drv.as_mut(), &mut book, &mut buf);
    let lost: Vec<(u32, Pending)> = book.pending.drain().collect();
    for (pid, p) in lost {
        book.fail(|| format!("packet {pid} injected at {} ns never arrived", p.inject_ns));
        book.settle_packet(p.slice, 0);
    }
    drv.check_state(&dep, &mut book);

    let ctrl = dep.controller();
    let cm = ctrl.consensus_metrics();
    let elections = ctrl.elections();
    let failover_gap_ns = drv.crash_at().and_then(|crash| {
        elections
            .iter()
            .find(|e| e.time > crash)
            .map(|e| e.time.nanos() - crash.nanos())
    });
    let mut write_lat = Hist::default();
    for (i, m) in before.metrics.iter().enumerate() {
        let samples = dep.switch(i).cp_app().metrics().write_latency.samples();
        for &ns in &samples[m.cp.latency_samples..] {
            write_lat.record(ns);
        }
    }
    let mut layer_extra = Vec::new();
    drv.layer_metrics(&mut layer_extra);
    let peak_rss_mb = peak_rss_mb();
    drop(dep);
    for _ in before_reps..cfg.setup_reps {
        let mut spare = runner(cfg.workload, cfg.seed, false);
        let scale = REF_NS_PER_STEP / kernel.measure();
        let t0 = Instant::now();
        let d = spare.setup(ops.clone());
        setup.push(t0.elapsed().as_secs_f64() * scale);
        drop(d);
    }
    Pass {
        setup_s: median(&mut setup),
        wall_ns,
        cpu,
        windows,
        book,
        before,
        after,
        peak_queue,
        cpq_max,
        cpq_sum,
        cpq_samples,
        ctrl_msgs: cm.msgs_sent - cm0.msgs_sent,
        elections: (elections.len() - elections_before.min(elections.len())) as u64,
        leader_changes: cm.leader_changes - cm0.leader_changes,
        failover_gap_ns,
        write_lat,
        tracer,
        times,
        layer_extra,
        peak_rss_mb,
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// End-to-end metric names, in BENCHMARK.json order.
pub const E2E: [&str; 9] = [
    "setup_s",
    "data_pkts_per_s",
    "cpu_ns_per_pkt",
    "pkt_latency_p50_us",
    "pkt_latency_p99_us",
    "delivered_ratio",
    "repl_bytes_per_pkt",
    "converge_us",
    "peak_rss_mb",
];

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median over windows of delivered packets per host second, scaled to
/// the reference host speed when `scaled`.
fn pkts_per_s(p: &Pass, scaled: bool) -> f64 {
    let mut v: Vec<f64> = p
        .windows
        .iter()
        .filter(|w| w.wall_ns > 0)
        .map(|w| {
            let scale = if scaled {
                w.ref_ns / REF_NS_PER_STEP
            } else {
                1.0
            };
            w.pkts as f64 * 1e9 / w.wall_ns as f64 * scale
        })
        .collect();
    median(&mut v)
}

/// Median over windows of CPU ns per delivered packet, scaled to the
/// reference host speed when `scaled`.
fn cpu_ns_per_pkt(p: &Pass, scaled: bool) -> f64 {
    let mut v: Vec<f64> = p
        .windows
        .iter()
        .filter(|w| w.pkts > 0)
        .map(|w| {
            let scale = if scaled {
                REF_NS_PER_STEP / w.ref_ns
            } else {
                1.0
            };
            w.cpu_ns as f64 / w.pkts as f64 * scale
        })
        .collect();
    median(&mut v)
}

fn e2e(p: &Pass) -> Vec<Metric> {
    let b = &p.book;
    let packet_failures = b.failed - b.value_failed;
    let ok = b.injected.saturating_sub(packet_failures);
    vec![
        Metric::new("setup_s", p.setup_s, "s"),
        Metric::new("data_pkts_per_s", pkts_per_s(p, true), "1/s"),
        Metric::new("cpu_ns_per_pkt", cpu_ns_per_pkt(p, true), "ns"),
        Metric::new("pkt_latency_p50_us", b.lat.percentile(0.5) / 1e3, "us"),
        Metric::new("pkt_latency_p99_us", b.lat.percentile(0.99) / 1e3, "us"),
        Metric::new("delivered_ratio", ratio(ok, b.injected), "ratio"),
        Metric::new(
            "repl_bytes_per_pkt",
            ratio(p.repl_bytes(), b.delivered),
            "B",
        ),
        Metric::new("converge_us", b.converge.percentile(0.5) / 1e3, "us"),
        Metric::new("peak_rss_mb", p.peak_rss_mb, "MiB"),
    ]
}

fn drop_name(r: DropReason) -> &'static str {
    match r {
        DropReason::Loss => "loss",
        DropReason::NoRoute => "no_route",
        DropReason::NodeDown => "node_down",
        DropReason::LinkDown => "link_down",
        DropReason::Corrupt => "corrupt",
    }
}

/// Per-layer metrics of the traced pass `t`, with the untraced pass `u`
/// of the same inputs as the overhead reference.
fn layers(u: &Pass, t: &Pass) -> Vec<Metric> {
    let pkts = t.book.delivered;
    let per_pkt = |v: u64| ratio(v, pkts);
    let events = t.after.events - t.before.events;
    let (a, b) = (&t.after, &t.before);
    let sw = |f: fn(&SwitchStats) -> u64| a.sw_sum(f) - b.sw_sum(f);
    let dp = |f: fn(&Proto) -> u64| a.m_sum(f) - b.m_sum(f);
    let tr = t.tracer.as_ref().expect("traced pass").borrow();
    let wall = t.wall_ns.max(1) as f64;
    let self_ns =
        |class: TrafficClass, kind: &str, p: f64| tr.percentile(tracer::slot(class, kind), p);
    let self_pct = |class: TrafficClass, kind: &str| {
        100.0 * tr.total_ns(tracer::slot(class, kind)) as f64 / wall
    };
    let times = &t.times;
    let mean_ns = |ns: &std::sync::atomic::AtomicU64, n: &std::sync::atomic::AtomicU64| {
        ratio(ns.load(Relaxed), n.load(Relaxed))
    };

    let mut out = vec![
        Metric::new("simnet.events_per_pkt", per_pkt(events), "count"),
        Metric::new("simnet.ns_per_event", ratio(u.wall_ns, events), "ns"),
        Metric::new(
            "simnet.self_ns.host_data",
            self_ns(TrafficClass::Data, "host", 0.5),
            "ns",
        ),
        Metric::new(
            "simnet.self_pct.host_data",
            self_pct(TrafficClass::Data, "host"),
            "%",
        ),
        Metric::new("simnet.peak_queue_depth", t.peak_queue as f64, "count"),
    ];
    for r in DropReason::ALL {
        let n = a.net.dropped(r).packets - b.net.dropped(r).packets;
        out.push(Metric::new(
            format!("simnet.drops.{}", drop_name(r)),
            n as f64,
            "count",
        ));
    }
    out.push(Metric::new(
        "wire.packet_size_b",
        std::mem::size_of::<Packet>() as f64,
        "B",
    ));
    out.push(Metric::new(
        "wire.swishmsg_size_b",
        std::mem::size_of::<SwishMsg>() as f64,
        "B",
    ));
    for (i, c) in TrafficClass::ALL.into_iter().enumerate() {
        let name = format!("wire.bytes_per_pkt.{}", tracer::CLASSES[i]);
        out.push(Metric::new(name, per_pkt(t.delivered_delta(c).1), "B"));
    }
    out.extend([
        Metric::new(
            "pisa.pipeline_passes_per_pkt",
            per_pkt(sw(|s| s.pipeline_packets)),
            "count",
        ),
        Metric::new("pisa.punts_per_pkt", per_pkt(sw(|s| s.punts)), "count"),
        Metric::new("pisa.pktgen_ticks", sw(|s| s.pktgen_ticks) as f64, "count"),
        Metric::new(
            "pisa.self_ns.data_p50",
            self_ns(TrafficClass::Data, "switch", 0.5),
            "ns",
        ),
        Metric::new(
            "pisa.self_ns.data_p99",
            self_ns(TrafficClass::Data, "switch", 0.99),
            "ns",
        ),
        Metric::new(
            "pisa.self_pct.data",
            self_pct(TrafficClass::Data, "switch"),
            "%",
        ),
        Metric::new(
            "core.state_ns.read",
            mean_ns(&times.read_ns, &times.reads),
            "ns",
        ),
        Metric::new(
            "core.state_ns.write",
            mean_ns(&times.write_ns, &times.writes),
            "ns",
        ),
        Metric::new(
            "core.state_ns.add",
            mean_ns(&times.add_ns, &times.adds),
            "ns",
        ),
    ]);
    for (name, class) in [
        ("sro_write", TrafficClass::SroWrite),
        ("sro_control", TrafficClass::SroControl),
        ("read_forward", TrafficClass::ReadForward),
        ("ewo_sync", TrafficClass::EwoSync),
    ] {
        out.push(Metric::new(
            format!("core.self_ns.{name}"),
            self_ns(class, "switch", 0.5),
            "ns",
        ));
        out.push(Metric::new(
            format!("core.self_pct.{name}"),
            self_pct(class, "switch"),
            "%",
        ));
    }
    let reads = dp(|m| m.dp.nf_reads);
    let stale = dp(|m| m.dp.chain_stale);
    out.extend([
        Metric::new(
            "core.read_forward_ratio",
            ratio(dp(|m| m.dp.reads_forwarded), reads),
            "ratio",
        ),
        Metric::new(
            "core.merge_useful_ratio",
            ratio(dp(|m| m.dp.merge_applied), dp(|m| m.dp.merge_entries)),
            "ratio",
        ),
        Metric::new(
            "core.mirror_pkts_per_pkt",
            per_pkt(dp(|m| m.dp.mirror_packets)),
            "count",
        ),
        Metric::new(
            "core.sync_pkts_per_pkt",
            per_pkt(dp(|m| m.dp.sync_packets)),
            "count",
        ),
        Metric::new(
            "core.chain_stale_ratio",
            ratio(stale, stale + dp(|m| m.dp.chain_applies)),
            "ratio",
        ),
        Metric::new(
            "cp.jobs_per_pkt",
            per_pkt(dp(|m| m.cp.jobs_started)),
            "count",
        ),
        Metric::new(
            "cp.retry_ratio",
            ratio(dp(|m| m.cp.retries), dp(|m| m.cp.write_sends)),
            "ratio",
        ),
        Metric::new("cp.jobs_failed", dp(|m| m.cp.jobs_failed) as f64, "count"),
        Metric::new("cp.jobs_shed", dp(|m| m.cp.jobs_shed) as f64, "count"),
        Metric::new(
            "cp.write_latency_p50_us",
            t.write_lat.percentile(0.5) / 1e3,
            "us",
        ),
        Metric::new(
            "cp.write_latency_p99_us",
            t.write_lat.percentile(0.99) / 1e3,
            "us",
        ),
        Metric::new("cp.queue_depth_max", t.cpq_max as f64, "count"),
        Metric::new(
            "cp.queue_depth_mean",
            ratio(t.cpq_sum, t.cpq_samples),
            "count",
        ),
        Metric::new("ctrl.msgs", t.ctrl_msgs as f64, "count"),
        Metric::new("ctrl.elections", t.elections as f64, "count"),
        Metric::new("ctrl.leader_changes", t.leader_changes as f64, "count"),
        Metric::new(
            "ctrl.failover_gap_us",
            t.failover_gap_ns.unwrap_or(0) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "ctrl.self_ns.mgmt",
            self_ns(TrafficClass::Management, "controller", 0.5),
            "ns",
        ),
        Metric::new(
            "ctrl.self_pct.mgmt",
            self_pct(TrafficClass::Management, "controller"),
            "%",
        ),
        Metric::new("replay.records", 0.0, "count"),
        Metric::new("replay.stalls", 0.0, "count"),
        Metric::new("replay.max_occupancy", 0.0, "count"),
        Metric::new("replay.decode_ns_per_record", 0.0, "ns"),
        Metric::new("replay.synth_s", 0.0, "s"),
    ]);
    for m in &t.layer_extra {
        if let Some(slot) = out.iter_mut().find(|o| o.name == m.name) {
            *slot = m.clone();
        }
    }
    let (u_rate, t_rate) = (pkts_per_s(u, true), pkts_per_s(t, true));
    out.extend([
        Metric::new("host.cpu_s", t.cpu.cpu_ns as f64 / 1e9, "s"),
        Metric::new("host.runq_wait_s", t.cpu.runq_ns as f64 / 1e9, "s"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (u_rate - t_rate) / u_rate.max(1e-9),
            "%",
        ),
        Metric::new(
            "trace.coverage_pct",
            100.0 * tr.attributed_ns() as f64 / wall,
            "%",
        ),
        Metric::new("trace.bench_pct", 100.0 * tr.bench_ns() as f64 / wall, "%"),
    ]);
    out
}

fn diagnostics(cfg: &RunConfig, p: &Pass) -> Vec<Metric> {
    let mut refs: Vec<f64> = p.windows.iter().map(|w| w.ref_ns).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        Metric::new("seed", cfg.seed as f64, "seed"),
        Metric::new("slices", cfg.slices as f64, "count"),
        Metric::new("nproc", nproc as f64, "count"),
        Metric::new("host.cpu_s", p.cpu.cpu_ns as f64 / 1e9, "s"),
        Metric::new("host.runq_wait_s", p.cpu.runq_ns as f64 / 1e9, "s"),
        Metric::new("timed_wall_s", p.wall_ns as f64 / 1e9, "s"),
        Metric::new("ref_ns_per_step", median(&mut refs), "ns"),
        Metric::new("unscaled_data_pkts_per_s", pkts_per_s(p, false), "1/s"),
        Metric::new("unscaled_cpu_ns_per_pkt", cpu_ns_per_pkt(p, false), "ns"),
        Metric::new("windows", p.windows.len() as f64, "count"),
        Metric::new("latency_samples", p.book.lat.count() as f64, "count"),
        Metric::new("converge_samples", p.book.converge.count() as f64, "count"),
        Metric::new("data_pkts_delivered", p.book.delivered as f64, "count"),
        Metric::new(
            "sim_events",
            (p.after.events - p.before.events) as f64,
            "count",
        ),
    ]
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (first, traced) = if cfg.trace {
        let half = (cfg.slices / 2).max(2);
        let u = pass(cfg, half, false);
        let t = pass(cfg, half, true);
        (u, Some(t))
    } else {
        (pass(cfg, cfg.slices, false), None)
    };
    let mut errors = first.book.errors.clone();
    let mut failed = first.book.failed;
    let attempted = (first.book.injected + first.book.checked_values).max(1);
    let mut metrics = e2e(&first);
    let mut diag = diagnostics(cfg, &first);
    let mut spans_tsv = None;
    if let Some(t) = &traced {
        // The observer and the NF timers are passive: the traced pass
        // must reproduce the untraced pass's simulation exactly.
        if t.digest() != first.digest() {
            failed += 1;
            errors.push(format!(
                "traced pass diverged: {:?} vs {:?}",
                t.digest(),
                first.digest()
            ));
        }
        metrics = layers(&first, t);
        diag = diagnostics(cfg, t);
        let mut tsv = Vec::new();
        t.tracer
            .as_ref()
            .expect("traced pass")
            .borrow()
            .write_tsv(&mut tsv)
            .expect("writing to memory");
        spans_tsv = Some(String::from_utf8(tsv).expect("utf-8 span table"));
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        errors,
        metrics,
        diag,
        sim: first.digest(),
        spans_tsv,
    }
}
