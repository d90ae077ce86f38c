//! Micro-benchmarks: wire codec costs (encode/decode of data packets and
//! protocol messages). These bound the simulator's fidelity/throughput
//! and correspond to parser/deparser work on a real switch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::net::Ipv4Addr;
use swishmem_wire::cursor::{Reader, Writer};
use swishmem_wire::l4::TcpFlags;
use swishmem_wire::swish::{SyncEntry, SyncUpdate, TraceId, WriteOp, WriteRequest};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, SwishMsg};

fn data_packet() -> Packet {
    Packet::data(
        NodeId(1),
        NodeId(2),
        DataPacket::tcp(
            FlowKey::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                4000,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            TcpFlags::syn(),
            7,
            256,
        ),
    )
}

fn sync_packet(entries: usize) -> Packet {
    Packet::swish(
        NodeId(0),
        NodeId(1),
        SwishMsg::Sync(SyncUpdate {
            origin: NodeId(0),
            trace: TraceId::new(NodeId(0), 1),
            entries: (0..entries as u32)
                .map(|k| SyncEntry {
                    reg: 3,
                    key: k,
                    slot: 0,
                    version: 100 + u64::from(k),
                    value: k.into(),
                })
                .collect(),
        }),
    )
}

fn bench(c: &mut Criterion) {
    let dp = data_packet();
    c.bench_function("wire/data_packet_encode", |b| {
        b.iter(|| black_box(dp.to_bytes()));
    });
    let bytes = dp.to_bytes();
    c.bench_function("wire/data_packet_decode", |b| {
        b.iter(|| Packet::from_bytes(black_box(&bytes)).unwrap());
    });

    let wr = SwishMsg::Write(WriteRequest {
        write_id: 42,
        writer: NodeId(1),
        epoch: 9,
        reg: 2,
        key: 777,
        seq: 5,
        op: WriteOp::Set(0xdead_beef),
        trace: TraceId::new(NodeId(1), 42),
    });
    c.bench_function("wire/write_request_encode", |b| {
        b.iter(|| {
            let mut w = Writer::with_capacity(64);
            black_box(&wr).encode(&mut w);
            black_box(w.finish());
        });
    });

    for n in [16usize, 128] {
        let sp = sync_packet(n);
        c.bench_function(&format!("wire/sync_update_{n}_encode"), |b| {
            b.iter(|| black_box(sp.to_bytes()));
        });
        let sb = sp.to_bytes();
        c.bench_function(&format!("wire/sync_update_{n}_decode"), |b| {
            b.iter(|| Packet::from_bytes(black_box(&sb)).unwrap());
        });
    }

    c.bench_function("wire/flow_hash64", |b| {
        let k = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        b.iter(|| black_box(k).hash64());
    });

    let mut w = Writer::new();
    wr.encode(&mut w);
    let raw = w.finish();
    c.bench_function("wire/write_request_decode", |b| {
        b.iter(|| {
            let mut r = Reader::new(black_box(&raw));
            SwishMsg::decode(&mut r).unwrap()
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
