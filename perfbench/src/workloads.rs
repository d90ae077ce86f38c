//! The three workloads: each generates its inputs from the seed, builds
//! its deployment, injects one slice at a time, and checks every output
//! and the final register state against values it computes itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Cursor;
use std::net::Ipv4Addr;
use std::time::Instant;

use swishmem::{Deployment, DeploymentBuilder, Fabric, RegisterSpec, HOST_BASE};
use swishmem_replay::{
    from_swtrace_bytes, replay_trace, synth_trace_bytes, ReplayConfig, SynthConfig, TraceReader,
};
use swishmem_simnet::{LinkParams, SimDuration, SimTime};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::{DataPacket, FlowKey};

use crate::host::{median, FxMap, Rng, Zipf};
use crate::nf::{self, ConnTableNf, LookupNf, Ops, SketchNf};
use crate::run::{Book, Metric, Pending, Slice};

/// What the timed loop needs from a workload.
pub trait Runner {
    /// Build and settle the deployment: the timed set-up.
    fn setup(&mut self, ops: Ops) -> Deployment;
    /// Untimed preparation of the checker after the last set-up.
    fn prepare(&mut self) {}
    /// The timed phase starts at `t0` and runs `slices` slices.
    fn start(&mut self, _dep: &mut Deployment, _t0: SimTime, _slices: usize) {}
    /// Inject slice `i`, which starts at `start`.
    fn inject(&mut self, dep: &mut Deployment, i: u32, start: SimTime, book: &mut Book) -> Slice;
    /// Whether every replica already reflects the writes injected so far
    /// (polled after a slice's last injection; only EWO state lags its
    /// packets).
    fn converged(&self, _dep: &Deployment) -> bool {
        true
    }
    /// Check one data packet delivered to host `host` at `t`.
    fn deliver(&mut self, host: usize, t: u64, pkt: &DataPacket, book: &mut Book);
    /// Slice `i` has been drained.
    fn end_slice(&mut self, _i: u32, _book: &mut Book) {}
    /// How long the final drain may run.
    fn drain_limit(&self) -> SimDuration;
    /// Compare every replica's registers with the expected values.
    fn check_state(&self, dep: &Deployment, book: &mut Book);
    /// Workload-specific per-layer metrics.
    fn layer_metrics(&self, _out: &mut Vec<Metric>) {}
    /// When the controller leader was crashed, if it was.
    fn crash_at(&self) -> Option<SimTime> {
        None
    }
}

/// Data-center links (100 Gb/s, 1 µs) with up to 200 ns of jitter, as
/// queues in real switches add: latencies spread over a range instead of
/// collapsing onto one value per path, and frames may overtake.
fn link() -> LinkParams {
    LinkParams::datacenter().with_jitter(SimDuration::nanos(200))
}

fn host_index(value: u64, hosts: usize) -> usize {
    usize::from(nf::host_node(value, hosts).0 - HOST_BASE)
}

fn client_ip(i: u64) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 | (i as u32 & 0x00ff_ffff))
}

fn server_ip(i: u64) -> Ipv4Addr {
    Ipv4Addr::from(0x1400_0000 | (i as u32 & 0x00ff_ffff))
}

/// Compare one replica value, counting it as a checked operation.
fn expect_value(book: &mut Book, what: &str, sw: usize, key: u32, got: u64, want: u64) {
    book.checked_values += 1;
    if got != want {
        book.value_failed += 1;
        book.fail(|| format!("{what}[{key}] at switch {sw} is {got}, expected {want}"));
    }
}

// ---------------------------------------------------------------------
// sro_conntable
// ---------------------------------------------------------------------

const SRO_SWITCHES: usize = 3;
const SRO_HOSTS: usize = 4;
const SRO_SLICE_NS: u64 = 1_000_000;
/// Mean gap between new connections: 50k connections and ~400k packets
/// per simulated second, about a third of the switch CPUs' write rate.
const SRO_CONN_GAP_NS: f64 = 20_000.0;
/// Mean packets after a connection's SYN, so about 1 write to 7 reads.
const SRO_MEAN_READS: f64 = 7.0;
/// Mean gap between a connection's packets: the first reads often
/// arrive while the SYN's write is pending and take the tail path.
const SRO_PKT_GAP_NS: f64 = 50_000.0;

struct Conn {
    flow: FlowKey,
    new: u64,
    old: u64,
    syn_arrival: Option<u64>,
    remaining: u32,
}

/// SRO connection table; see the crate docs.
pub struct SroRunner {
    seed: u64,
    rng: Rng,
    servers: Zipf,
    next_conn: u64,
    conns_made: u64,
    order: u64,
    /// Future packets: (time, order, connection, index in connection).
    heap: BinaryHeap<Reverse<(u64, u64, u64, u32)>>,
    conns: FxMap<u64, Conn>,
    /// Last backend written to each slot.
    table: Vec<u64>,
    next_pid: u32,
    crash_at: Option<SimTime>,
    sabotage: bool,
}

impl SroRunner {
    /// Inputs for `seed`.
    pub fn new(seed: u64, sabotage: bool) -> SroRunner {
        SroRunner {
            seed,
            rng: Rng::new(seed, 1),
            servers: Zipf::new(256, 1.1),
            next_conn: 0,
            conns_made: 0,
            order: 0,
            heap: BinaryHeap::new(),
            conns: FxMap::default(),
            table: vec![0; nf::CONN_KEYS as usize],
            next_pid: 0,
            crash_at: None,
            sabotage,
        }
    }

    fn open_conn(&mut self, t0: u64) {
        let idx = self.conns_made;
        self.conns_made += 1;
        let key = (idx % u64::from(nf::CONN_KEYS)) as u32;
        let server = self.servers.sample(&mut self.rng) as u64;
        let flow = FlowKey::tcp(
            client_ip(self.rng.below(1 << 16)),
            nf::CONN_PORT_BASE + key as u16,
            server_ip(server),
            80,
        );
        let new = nf::backend_for(&flow);
        let old = std::mem::replace(&mut self.table[key as usize], new);
        let mut packets = 1;
        while packets < 64 && self.rng.unit() < SRO_MEAN_READS / (SRO_MEAN_READS + 1.0) {
            packets += 1;
        }
        let mut t = t0;
        for k in 0..packets {
            self.heap.push(Reverse((t, self.order, idx, k)));
            self.order += 1;
            t += self.rng.exp_ns(SRO_PKT_GAP_NS);
        }
        self.conns.insert(
            idx,
            Conn {
                flow,
                new,
                old,
                syn_arrival: None,
                remaining: packets,
            },
        );
    }
}

impl Runner for SroRunner {
    fn setup(&mut self, ops: Ops) -> Deployment {
        let mut dep = DeploymentBuilder::new(SRO_SWITCHES)
            .hosts(SRO_HOSTS)
            .link(link())
            .seed(self.seed)
            .ctrl_replicas(3)
            .register(RegisterSpec::sro(nf::CONN_REG, "conn", nf::CONN_KEYS))
            .build(move |_| {
                Box::new(ConnTableNf {
                    ops: ops.clone(),
                    hosts: SRO_HOSTS,
                })
            });
        dep.settle();
        while dep.controller().leader().is_none() && dep.now() < SimTime(500_000_000) {
            dep.run_for(SimDuration::millis(1));
        }
        dep
    }

    fn start(&mut self, dep: &mut Deployment, t0: SimTime, slices: usize) {
        self.next_conn = t0.nanos();
        let leader = dep.controller().leader().map(|(id, _)| id);
        let idx = dep
            .controller_ids()
            .iter()
            .position(|&c| Some(c) == leader)
            .expect("set-up waits for a controller leader");
        let at = SimTime(t0.nanos() + (slices as u64 / 2) * SRO_SLICE_NS + SRO_SLICE_NS / 3);
        dep.schedule_ctrl_fail(at, idx);
        self.crash_at = Some(at);
    }

    fn inject(&mut self, dep: &mut Deployment, i: u32, start: SimTime, book: &mut Book) -> Slice {
        let end = start.nanos() + SRO_SLICE_NS;
        while self.next_conn < end {
            self.open_conn(self.next_conn);
            self.next_conn += self.rng.exp_ns(SRO_CONN_GAP_NS);
        }
        let (mut last, mut count) = (start, 0);
        while let Some(&Reverse((t, _, idx, k))) = self.heap.peek() {
            if t >= end {
                break;
            }
            self.heap.pop();
            let pid = self.next_pid;
            self.next_pid += 1;
            let flags = if k == 0 {
                TcpFlags::syn()
            } else {
                TcpFlags::data()
            };
            let len = 64 + self.rng.below(961) as u16;
            let pkt = DataPacket::tcp(self.conns[&idx].flow, flags, pid, len);
            let sw = self.rng.below(SRO_SWITCHES as u64) as usize;
            let from = self.rng.below(SRO_HOSTS as u64) as usize;
            dep.inject(SimTime(t), sw, from, pkt);
            book.pending.insert(
                pid,
                Pending {
                    inject_ns: t,
                    slice: i,
                    tag: idx,
                    syn: k == 0,
                },
            );
            last = SimTime(t);
            count += 1;
        }
        book.injected += count;
        Slice {
            last,
            count,
            end: SimTime(end),
        }
    }

    fn deliver(&mut self, host: usize, t: u64, pkt: &DataPacket, book: &mut Book) {
        let pid = pkt.flow_seq;
        let Some(p) = book.pending.remove(&pid) else {
            return book.fail(|| format!("packet {pid} delivered twice or never sent"));
        };
        book.delivered_packet(p.inject_ns, p.slice, t);
        let Some(conn) = self.conns.get_mut(&p.tag) else {
            return book.fail(|| format!("packet {pid}: connection {} unknown", p.tag));
        };
        let out = (pkt.flow.dst, host);
        let new = (nf::backend_ip(conn.new), host_index(conn.new, SRO_HOSTS));
        let old = (nf::backend_ip(conn.old), host_index(conn.old, SRO_HOSTS));
        // A read that started after the SYN's output arrived must see the
        // new backend; one that overlapped the write may see either.
        let ok = if p.syn {
            conn.syn_arrival = Some(t);
            out == new
        } else if conn.syn_arrival.is_some_and(|a| p.inject_ns >= a) {
            out == new
        } else {
            out == new || out == old
        };
        let same_flow = pkt.flow.src == conn.flow.src && pkt.flow.src_port == conn.flow.src_port;
        if !ok || !same_flow {
            book.fail(|| format!("packet {pid}: output {out:?}, expected {new:?} (or {old:?})"));
        }
        conn.remaining -= 1;
        if conn.remaining == 0 {
            self.conns.remove(&p.tag);
        }
    }

    fn drain_limit(&self) -> SimDuration {
        SimDuration::millis(200)
    }

    fn check_state(&self, dep: &Deployment, book: &mut Book) {
        let mut expected = self.table.clone();
        if self.sabotage {
            if let Some(v) = expected.iter_mut().find(|v| **v != 0) {
                *v += 1;
            }
        }
        for (key, &want) in expected.iter().enumerate() {
            if want == 0 {
                continue;
            }
            for sw in 0..SRO_SWITCHES {
                let got = dep.peek(sw, nf::CONN_REG, key as u32);
                expect_value(book, "conn", sw, key as u32, got, want);
            }
        }
    }

    fn crash_at(&self) -> Option<SimTime> {
        self.crash_at
    }
}

// ---------------------------------------------------------------------
// ewo_sketch
// ---------------------------------------------------------------------

const EWO_SWITCHES: usize = 4;
const EWO_HOSTS: usize = 4;
const EWO_SLICE_NS: u64 = 1_000_000;
/// No packet starts in a slice's last 20 µs, so the slice's adds can be
/// seen to converge before the next slice adds more.
const EWO_QUIET_NS: u64 = 20_000;
/// 150k packets per simulated second.
const EWO_PKT_GAP_NS: f64 = 6_667.0;
const EWO_SOURCES: usize = 4096;

/// EWO count-min sketch; see the crate docs.
pub struct EwoRunner {
    seed: u64,
    rng: Rng,
    sources: Zipf,
    /// Expected counters per row, then the total.
    rows: Vec<Vec<u64>>,
    total: u64,
    next_pid: u32,
    next_at: u64,
    sabotage: bool,
}

impl EwoRunner {
    /// Inputs for `seed`.
    pub fn new(seed: u64, sabotage: bool) -> EwoRunner {
        EwoRunner {
            seed,
            rng: Rng::new(seed, 2),
            sources: Zipf::new(EWO_SOURCES, 1.1),
            rows: vec![vec![0; nf::SKETCH_WIDTH as usize]; nf::SKETCH_ROWS],
            total: 0,
            next_pid: 0,
            next_at: 0,
            sabotage,
        }
    }
}

/// Hash of every field of a packet.
fn signature(p: &DataPacket) -> u64 {
    let f = &p.flow;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        u64::from(u32::from(f.src)),
        u64::from(u32::from(f.dst)),
        u64::from(f.src_port),
        u64::from(f.dst_port),
        u64::from(f.proto),
        u64::from(p.payload_len),
        u64::from(p.tcp_flags.raw()),
    ] {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Runner for EwoRunner {
    fn setup(&mut self, ops: Ops) -> Deployment {
        let mut b = DeploymentBuilder::new(EWO_SWITCHES)
            .hosts(EWO_HOSTS)
            .link(link())
            .seed(self.seed);
        for row in 0..nf::SKETCH_ROWS {
            let name = format!("row{row}");
            b = b.register(RegisterSpec::ewo_counter(
                row as u16,
                &name,
                nf::SKETCH_WIDTH,
            ));
        }
        let mut dep = b
            .register(RegisterSpec::ewo_counter(nf::TOTAL_REG, "total", 1))
            .build(move |_| {
                Box::new(SketchNf {
                    ops: ops.clone(),
                    hosts: EWO_HOSTS,
                })
            });
        dep.settle();
        dep
    }

    fn start(&mut self, _dep: &mut Deployment, t0: SimTime, _slices: usize) {
        self.next_at = t0.nanos();
    }

    fn inject(&mut self, dep: &mut Deployment, i: u32, start: SimTime, book: &mut Book) -> Slice {
        let end = start.nanos() + EWO_SLICE_NS;
        let quiet = end - EWO_QUIET_NS;
        let (mut last, mut count) = (start, 0);
        while self.next_at < quiet {
            let t = self.next_at;
            let src = client_ip(self.sources.sample(&mut self.rng) as u64);
            let dst = server_ip(self.rng.below(64));
            let sport = 1024 + self.rng.below(60_000) as u16;
            let len = 64 + self.rng.below(961) as u16;
            let pid = self.next_pid;
            self.next_pid += 1;
            let pkt = DataPacket::udp(FlowKey::udp(src, sport, dst, 9000), pid, len);
            let sw = self.rng.below(EWO_SWITCHES as u64) as usize;
            let from = self.rng.below(EWO_HOSTS as u64) as usize;
            dep.inject(SimTime(t), sw, from, pkt);
            for (row, key) in nf::sketch_keys(src).into_iter().enumerate() {
                self.rows[row][key as usize] += 1;
            }
            self.total += 1;
            book.pending.insert(
                pid,
                Pending {
                    inject_ns: t,
                    slice: i,
                    tag: signature(&pkt),
                    syn: false,
                },
            );
            last = SimTime(t);
            count += 1;
            self.next_at += self.rng.exp_ns(EWO_PKT_GAP_NS);
        }
        // Arrivals stay Poisson: the quiet tail is skipped, not waited out.
        if self.next_at >= quiet {
            self.next_at = self.next_at - quiet + end;
        }
        book.injected += count;
        Slice {
            last,
            count,
            end: SimTime(end),
        }
    }

    fn converged(&self, dep: &Deployment) -> bool {
        (0..EWO_SWITCHES).all(|sw| dep.peek(sw, nf::TOTAL_REG, 0) == self.total)
    }

    fn deliver(&mut self, host: usize, t: u64, pkt: &DataPacket, book: &mut Book) {
        let pid = pkt.flow_seq;
        let Some(p) = book.pending.remove(&pid) else {
            return book.fail(|| format!("packet {pid} delivered twice or never sent"));
        };
        book.delivered_packet(p.inject_ns, p.slice, t);
        let want_host = host_index(u64::from(u32::from(pkt.flow.src)), EWO_HOSTS);
        if signature(pkt) != p.tag || host != want_host {
            book.fail(|| format!("packet {pid} altered or sent to host {host}"));
        }
    }

    fn drain_limit(&self) -> SimDuration {
        SimDuration::millis(3)
    }

    fn check_state(&self, dep: &Deployment, book: &mut Book) {
        let mut rows = self.rows.clone();
        if self.sabotage {
            if let Some(v) = rows[0].iter_mut().find(|v| **v != 0) {
                *v += 1;
            }
        }
        for sw in 0..EWO_SWITCHES {
            for (row, want) in rows.iter().enumerate() {
                for (key, &w) in want.iter().enumerate() {
                    let got = dep.peek(sw, row as u16, key as u32);
                    expect_value(book, "sketch", sw, key as u32, got, w);
                }
            }
            let got = dep.peek(sw, nf::TOTAL_REG, 0);
            expect_value(book, "total", sw, 0, got, self.total);
        }
    }
}

// ---------------------------------------------------------------------
// replay_leafspine
// ---------------------------------------------------------------------

const LEAVES: usize = 16;
const SPINES: usize = 4;
const REPLAY_HOSTS: usize = 8;
/// Distinct synthesized traces, replayed in turn.
const CHUNKS: usize = 8;
/// Quiet gap after each replayed trace: every packet reaches its host
/// before the next trace starts, so each slice is checked on its own.
const REPLAY_GAP_NS: u64 = 50_000;

fn synth_config() -> SynthConfig {
    SynthConfig {
        flows: 8_000,
        servers: 1024,
        ingress: LEAVES as u32,
        duration: 8_000_000,
        ..SynthConfig::default()
    }
}

struct Chunk {
    bytes: Vec<u8>,
    /// (source, source port) → flow number.
    flows: FxMap<(u32, u16), u32>,
    /// Per flow: index of its first record in `offsets`, its packet
    /// count, and the address the lookup must rewrite its packets to.
    flow_at: Vec<(u32, u32, u32)>,
    /// Per record, grouped by flow in `flow_seq` order: injection offset
    /// from the chunk's first record.
    offsets: Vec<u64>,
    span_ns: u64,
}

/// Trace replay into a leaf-spine; see the crate docs.
pub struct ReplayRunner {
    seed: u64,
    table: Vec<u32>,
    chunks: Vec<Chunk>,
    current: usize,
    slice: u32,
    start_ns: u64,
    seen: Vec<bool>,
    synth_s: Vec<f64>,
    records: u64,
    stalls: u64,
    max_occupancy: usize,
    sabotage: bool,
}

impl ReplayRunner {
    /// Inputs for `seed`.
    pub fn new(seed: u64, sabotage: bool) -> ReplayRunner {
        let mut rng = Rng::new(seed, 3);
        let table = (0..nf::TABLE_KEYS)
            .map(|_| 0x2800_0000 | (rng.next_u64() as u32 & 0x00ff_ffff))
            .collect();
        ReplayRunner {
            seed,
            table,
            chunks: Vec::new(),
            current: 0,
            slice: 0,
            start_ns: 0,
            seen: Vec::new(),
            synth_s: Vec::new(),
            records: 0,
            stalls: 0,
            max_occupancy: 0,
            sabotage,
        }
    }

    /// Host ns per record of a bare `TraceReader` pass over every chunk.
    fn decode_ns_per_record(&self) -> f64 {
        let t0 = Instant::now();
        let mut n = 0u64;
        for c in &self.chunks {
            let mut r = TraceReader::new(Cursor::new(&c.bytes[..])).expect("synthesized trace");
            while let Some(rec) = r.next_record().expect("synthesized trace") {
                std::hint::black_box(rec);
                n += 1;
            }
        }
        t0.elapsed().as_nanos() as f64 / n.max(1) as f64
    }
}

impl Runner for ReplayRunner {
    fn setup(&mut self, ops: Ops) -> Deployment {
        let t0 = Instant::now();
        let cfg = synth_config();
        self.chunks = (0..CHUNKS as u64)
            .map(|c| Chunk {
                bytes: synth_trace_bytes(&cfg, self.seed.wrapping_mul(CHUNKS as u64) + c),
                flows: FxMap::default(),
                flow_at: Vec::new(),
                offsets: Vec::new(),
                span_ns: 0,
            })
            .collect();
        self.synth_s.push(t0.elapsed().as_secs_f64());
        let mut dep = DeploymentBuilder::new(LEAVES)
            .fabric(Fabric::LeafSpine { spines: SPINES })
            .hosts(REPLAY_HOSTS)
            .link(link())
            .seed(self.seed)
            .register(RegisterSpec::ero(nf::TABLE_REG, "table", nf::TABLE_KEYS))
            .build(move |_| {
                Box::new(LookupNf {
                    ops: ops.clone(),
                    hosts: REPLAY_HOSTS,
                })
            });
        dep.settle();
        let t = dep.now().nanos();
        for (key, &value) in self.table.iter().enumerate() {
            let flow = FlowKey::udp(
                Ipv4Addr::from(value),
                1,
                Ipv4Addr::UNSPECIFIED,
                nf::PRELOAD_PORT,
            );
            let at = SimTime(t + 1_000 + key as u64 * 200);
            dep.inject(at, key % LEAVES, 0, DataPacket::udp(flow, key as u32, 64));
        }
        dep.run_for(SimDuration::millis(5));
        dep
    }

    fn prepare(&mut self) {
        for c in &mut self.chunks {
            let (meta, recs) = from_swtrace_bytes(&c.bytes).expect("synthesized trace");
            let mut sizes: Vec<u32> = Vec::new();
            for r in &recs {
                let next = c.flows.len() as u32;
                let f = *c.flows.entry((r.src_ip, r.src_port)).or_insert(next);
                if f == next {
                    let key = nf::table_key(Ipv4Addr::from(r.dst_ip)) as usize;
                    c.flow_at.push((0, 0, self.table[key]));
                    sizes.push(0);
                }
                sizes[f as usize] += 1;
            }
            let mut at = 0;
            for (f, &n) in sizes.iter().enumerate() {
                c.flow_at[f].0 = at;
                c.flow_at[f].1 = n;
                at += n;
            }
            c.offsets = vec![u64::MAX; recs.len()];
            for r in &recs {
                let f = c.flows[&(r.src_ip, r.src_port)] as usize;
                let i = (c.flow_at[f].0 + r.flow_seq) as usize;
                c.offsets[i] = r.time_ns - meta.clock_base_ns;
            }
            assert!(
                !c.offsets.contains(&u64::MAX),
                "each flow's packets are numbered 0..n"
            );
            c.span_ns = recs.last().map_or(0, |r| r.time_ns - meta.clock_base_ns);
            self.seen.resize(self.seen.len().max(recs.len()), false);
        }
        if self.sabotage {
            self.chunks[0].flow_at[0].2 ^= 1;
        }
    }

    fn inject(&mut self, dep: &mut Deployment, i: u32, start: SimTime, book: &mut Book) -> Slice {
        self.current = i as usize % self.chunks.len();
        self.slice = i;
        self.start_ns = start.nanos();
        let chunk = &self.chunks[self.current];
        self.seen[..chunk.offsets.len()].fill(false);
        let mut reader =
            TraceReader::new(Cursor::new(&chunk.bytes[..])).expect("synthesized trace");
        let cfg = ReplayConfig {
            start,
            ..ReplayConfig::default()
        };
        let st = replay_trace(dep, &mut reader, &cfg).expect("synthesized trace replays");
        self.records += st.records;
        self.stalls += st.stalls;
        self.max_occupancy = self.max_occupancy.max(st.max_occupancy);
        book.injected += st.injected;
        Slice {
            last: st.last_inject,
            count: st.injected,
            end: SimTime(start.nanos() + chunk.span_ns + REPLAY_GAP_NS),
        }
    }

    fn deliver(&mut self, host: usize, t: u64, pkt: &DataPacket, book: &mut Book) {
        let chunk = &self.chunks[self.current];
        let id = (u32::from(pkt.flow.src), pkt.flow.src_port, pkt.flow_seq);
        let flow = chunk
            .flows
            .get(&(id.0, id.1))
            .map(|&f| chunk.flow_at[f as usize]);
        let Some((first, count, want)) = flow else {
            return book.fail(|| format!("packet {id:?} was never sent"));
        };
        let idx = (first + id.2) as usize;
        if id.2 >= count || std::mem::replace(&mut self.seen[idx], true) {
            return book.fail(|| format!("packet {id:?} delivered twice or never sent"));
        }
        book.delivered_packet(self.start_ns + chunk.offsets[idx], self.slice, t);
        let want_out = (
            Ipv4Addr::from(want),
            host_index(u64::from(want), REPLAY_HOSTS),
        );
        if (pkt.flow.dst, host) != want_out {
            book.fail(|| {
                format!(
                    "packet {id:?} rewritten to {:?}, expected {want_out:?}",
                    (pkt.flow.dst, host)
                )
            });
        }
    }

    fn end_slice(&mut self, i: u32, book: &mut Book) {
        let n = self.chunks[self.current].offsets.len();
        for idx in 0..n {
            if !self.seen[idx] {
                book.fail(|| format!("slice {i}: record {idx} never delivered"));
                book.settle_packet(i, 0);
            }
        }
    }

    fn drain_limit(&self) -> SimDuration {
        SimDuration::millis(1)
    }

    fn check_state(&self, dep: &Deployment, book: &mut Book) {
        for (key, &want) in self.table.iter().enumerate() {
            for sw in 0..LEAVES {
                let got = dep.peek(sw, nf::TABLE_REG, key as u32);
                expect_value(book, "table", sw, key as u32, got, u64::from(want));
            }
        }
    }

    fn layer_metrics(&self, out: &mut Vec<Metric>) {
        let mut synth = self.synth_s.clone();
        out.push(Metric::new("replay.records", self.records as f64, "count"));
        out.push(Metric::new("replay.stalls", self.stalls as f64, "count"));
        out.push(Metric::new(
            "replay.max_occupancy",
            self.max_occupancy as f64,
            "count",
        ));
        out.push(Metric::new(
            "replay.decode_ns_per_record",
            self.decode_ns_per_record(),
            "ns",
        ));
        out.push(Metric::new("replay.synth_s", median(&mut synth), "s"));
    }
}

/// The runner of `workload`.
pub fn runner(workload: crate::run::Workload, seed: u64, sabotage: bool) -> Box<dyn Runner> {
    use crate::run::Workload as W;
    match workload {
        W::SroConntable => Box::new(SroRunner::new(seed, sabotage)),
        W::EwoSketch => Box::new(EwoRunner::new(seed, sabotage)),
        W::ReplayLeafspine => Box::new(ReplayRunner::new(seed, sabotage)),
    }
}
