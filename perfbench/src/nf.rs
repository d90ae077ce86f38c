//! The benchmark's own network functions. Each one is written only
//! against `NfApp`/`SharedState`, and the functions that decide an NF's
//! output are shared with the checker, which recomputes every expected
//! output and register value from the inputs it generated.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use swishmem::{NfApp, NfDecision, SharedState, HOST_BASE};
use swishmem_wire::swish::{Key, RegId};
use swishmem_wire::{DataPacket, FlowKey, NodeId};

/// Connection-table register (SRO).
pub const CONN_REG: RegId = 0;
/// Connection-table slots; a connection's slot is its client port minus
/// [`CONN_PORT_BASE`], allocated round-robin as a NAT allocates ports.
pub const CONN_KEYS: u32 = 16_384;
/// Client port of slot 0.
pub const CONN_PORT_BASE: u16 = 10_000;
/// Backends a new connection is balanced over.
pub const BACKENDS: u64 = 64;

/// Count-min sketch rows (EWO counters, one register each).
pub const SKETCH_ROWS: usize = 3;
/// Counters per sketch row.
pub const SKETCH_WIDTH: u32 = 4096;
/// Register of the sketch's total-packets counter (key 0).
pub const TOTAL_REG: RegId = SKETCH_ROWS as RegId;

/// Lookup-table register (ERO).
pub const TABLE_REG: RegId = 0;
/// Lookup-table entries.
pub const TABLE_KEYS: u32 = 1024;
/// Destination port of the set-up packets that fill the lookup table:
/// the entry's key rides in `flow_seq`, its value in the source address.
pub const PRELOAD_PORT: u16 = 7;

/// Counts and host nanoseconds of the `SharedState` calls the NFs make.
/// Atomics keep the NFs `Send`.
#[derive(Debug, Default)]
pub struct OpTimes {
    /// `read` calls.
    pub reads: AtomicU64,
    /// Host ns inside `read`.
    pub read_ns: AtomicU64,
    /// `write` calls.
    pub writes: AtomicU64,
    /// Host ns inside `write`.
    pub write_ns: AtomicU64,
    /// `add` calls.
    pub adds: AtomicU64,
    /// Host ns inside `add`.
    pub add_ns: AtomicU64,
}

/// `SharedState` calls, timed into `times` when it is set (traced runs
/// only: the timer costs about as much as the call it times).
#[derive(Clone)]
pub struct Ops {
    times: Option<Arc<OpTimes>>,
}

impl Ops {
    /// Untimed calls.
    pub fn plain() -> Ops {
        Ops { times: None }
    }

    /// Calls timed into `times`.
    pub fn timed(times: Arc<OpTimes>) -> Ops {
        Ops { times: Some(times) }
    }

    fn read(&self, st: &mut dyn SharedState, reg: RegId, key: Key) -> u64 {
        let Some(t) = &self.times else {
            return st.read(reg, key);
        };
        let t0 = Instant::now();
        let v = st.read(reg, key);
        t.read_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        t.reads.fetch_add(1, Relaxed);
        v
    }

    fn write(&self, st: &mut dyn SharedState, reg: RegId, key: Key, value: u64) {
        let Some(t) = &self.times else {
            return st.write(reg, key, value);
        };
        let t0 = Instant::now();
        st.write(reg, key, value);
        t.write_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        t.writes.fetch_add(1, Relaxed);
    }

    fn add(&self, st: &mut dyn SharedState, reg: RegId, key: Key, delta: i64) {
        let Some(t) = &self.times else {
            return st.add(reg, key, delta);
        };
        let t0 = Instant::now();
        st.add(reg, key, delta);
        t.add_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        t.adds.fetch_add(1, Relaxed);
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The host node a value is delivered to.
pub fn host_node(value: u64, hosts: usize) -> NodeId {
    NodeId(HOST_BASE + (mix(value) % hosts as u64) as u16)
}

/// Connection-table slot of a packet (`None` for foreign traffic).
pub fn conn_key(pkt: &DataPacket) -> Option<Key> {
    let slot = pkt.flow.src_port.checked_sub(CONN_PORT_BASE)?;
    (u32::from(slot) < CONN_KEYS).then_some(u32::from(slot))
}

/// The backend a new connection is pinned to (never 0, so an empty slot
/// is told apart from a written one).
pub fn backend_for(flow: &FlowKey) -> u64 {
    let z = (u64::from(u32::from(flow.src)) << 32)
        ^ u64::from(u32::from(flow.dst))
        ^ (u64::from(flow.src_port) << 16);
    1 + mix(z) % BACKENDS
}

/// Address a packet is rewritten to for `backend`.
pub fn backend_ip(backend: u64) -> Ipv4Addr {
    Ipv4Addr::from(0x1e00_0000 | (backend as u32 & 0x00ff_ffff))
}

/// SRO load balancer: a SYN picks a backend and writes it into the
/// connection table; every other packet reads its slot. Either way the
/// packet is rewritten to the backend's address.
pub struct ConnTableNf {
    /// SharedState access.
    pub ops: Ops,
    /// Hosts behind the fabric.
    pub hosts: usize,
}

impl NfApp for ConnTableNf {
    fn process(&mut self, pkt: &DataPacket, _in: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let Some(key) = conn_key(pkt) else {
            return NfDecision::Drop;
        };
        let backend = if pkt.tcp_flags.syn {
            let b = backend_for(&pkt.flow);
            self.ops.write(st, CONN_REG, key, b);
            b
        } else {
            self.ops.read(st, CONN_REG, key)
        };
        let mut out = *pkt;
        out.flow.dst = backend_ip(backend);
        NfDecision::Forward {
            dst: host_node(backend, self.hosts),
            pkt: out,
        }
    }
}

/// Counters of `src` in each sketch row.
pub fn sketch_keys(src: Ipv4Addr) -> [Key; SKETCH_ROWS] {
    let s = u64::from(u32::from(src));
    std::array::from_fn(|r| (mix(s ^ ((r as u64 + 1) << 40)) % u64::from(SKETCH_WIDTH)) as Key)
}

/// EWO count-min sketch of packets per source, plus a total counter.
pub struct SketchNf {
    /// SharedState access.
    pub ops: Ops,
    /// Hosts behind the fabric.
    pub hosts: usize,
}

impl NfApp for SketchNf {
    fn process(&mut self, pkt: &DataPacket, _in: NodeId, st: &mut dyn SharedState) -> NfDecision {
        for (row, key) in sketch_keys(pkt.flow.src).into_iter().enumerate() {
            self.ops.add(st, row as RegId, key, 1);
        }
        self.ops.add(st, TOTAL_REG, 0, 1);
        NfDecision::Forward {
            dst: host_node(u64::from(u32::from(pkt.flow.src)), self.hosts),
            pkt: *pkt,
        }
    }
}

/// Lookup-table slot of a destination address.
pub fn table_key(dst: Ipv4Addr) -> Key {
    (mix(u64::from(u32::from(dst))) % u64::from(TABLE_KEYS)) as Key
}

/// ERO lookup: each packet is rewritten to the address its destination
/// maps to in a preloaded table. Read-only once the table is filled.
pub struct LookupNf {
    /// SharedState access.
    pub ops: Ops,
    /// Hosts behind the fabric.
    pub hosts: usize,
}

impl NfApp for LookupNf {
    fn process(&mut self, pkt: &DataPacket, _in: NodeId, st: &mut dyn SharedState) -> NfDecision {
        if pkt.flow.dst_port == PRELOAD_PORT {
            let value = u64::from(u32::from(pkt.flow.src));
            self.ops.write(st, TABLE_REG, pkt.flow_seq, value);
            return NfDecision::Drop;
        }
        let value = self.ops.read(st, TABLE_REG, table_key(pkt.flow.dst));
        let mut out = *pkt;
        out.flow.dst = Ipv4Addr::from(value as u32);
        NfDecision::Forward {
            dst: host_node(value, self.hosts),
            pkt: out,
        }
    }
}
