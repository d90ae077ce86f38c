//! Adversarial decoding: hostile length fields, truncations, and header
//! mutations must produce clean errors — never panics, never unbounded
//! allocation. (The simulator's corruption faults can hand receivers any
//! of these shapes.)

use swishmem_wire::cursor::{Reader, Writer};
use swishmem_wire::swish::{SyncEntry, SyncUpdate, TraceId, WIRE_VERSION};
use swishmem_wire::{NodeId, Packet, SwishMsg};

/// SyncUpdate frames whose count fields claim far more than the buffer
/// carries: a register run claiming 65535 entries, and a header claiming
/// 65535 runs. The decoder must fail on truncation, not pre-allocate for
/// the claimed count.
#[test]
fn sync_update_with_hostile_entry_count() {
    let mut w = Writer::new();
    w.u8(WIRE_VERSION);
    w.u8(0x04); // TAG_SYNC
    w.u16(0); // origin
    w.u64(0); // trace
    w.u16(1); // one register run
    w.u16(3); // reg
    w.u16(u16::MAX); // claims 65535 entries...
    w.u64(0); // ...but carries 8 junk bytes
    let buf = w.finish();
    let mut r = Reader::new(&buf);
    let err = SwishMsg::decode(&mut r);
    assert!(err.is_err(), "hostile entry count must not decode: {err:?}");

    let mut w = Writer::new();
    w.u8(WIRE_VERSION);
    w.u8(0x04); // TAG_SYNC
    w.u16(0); // origin
    w.u64(0); // trace
    w.u16(u16::MAX); // claims 65535 runs...
    w.u16(3); // ...but carries one run header
    w.u16(1);
    w.u32(9); // and one entry
    w.u8(0);
    w.u64(1);
    w.u64(1);
    let buf = w.finish();
    let mut r = Reader::new(&buf);
    let err = SwishMsg::decode(&mut r);
    assert!(err.is_err(), "hostile run count must not decode: {err:?}");
}

#[test]
fn chain_config_with_hostile_member_count() {
    let mut w = Writer::new();
    w.u8(WIRE_VERSION);
    w.u8(0x08); // TAG_CHAIN
    w.u32(1); // epoch
    w.u16(u16::MAX); // claims 65535 chain members
    let buf = w.finish();
    let mut r = Reader::new(&buf);
    assert!(SwishMsg::decode(&mut r).is_err());
}

/// Every single-byte mutation of a valid frame either decodes to
/// *something* well-formed or errors — it never panics. (IPv4 headers
/// additionally checksum-fail on most mutations.)
#[test]
fn single_byte_mutations_never_panic() {
    let msg = SwishMsg::Sync(SyncUpdate {
        origin: NodeId(1),
        trace: TraceId::new(NodeId(1), 3),
        entries: vec![
            SyncEntry {
                reg: 2,
                key: 1,
                slot: 0,
                version: 10,
                value: 20,
            },
            SyncEntry {
                reg: 4,
                key: 2,
                slot: 1,
                version: 30,
                value: 40,
            },
        ]
        .into(),
    });
    let pkt = Packet::swish(NodeId(0), NodeId(1), msg);
    let bytes = pkt.to_bytes();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut m = bytes.clone();
            m[i] ^= flip;
            let _ = Packet::from_bytes(&m); // must not panic
        }
    }
}

/// Truncating a frame at every possible length errors cleanly.
#[test]
fn every_truncation_point_errors() {
    let pkt = Packet::swish(
        NodeId(3),
        NodeId(4),
        SwishMsg::Sync(SyncUpdate {
            origin: NodeId(3),
            trace: TraceId::NONE,
            entries: vec![SyncEntry {
                reg: 1,
                key: 9,
                slot: 2,
                version: 7,
                value: 8,
            }]
            .into(),
        }),
    );
    let bytes = pkt.to_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Packet::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes should not decode"
        );
    }
    assert!(Packet::from_bytes(&bytes).is_ok());
}

/// Empty and pathological inputs.
#[test]
fn degenerate_inputs() {
    assert!(Packet::from_bytes(&[]).is_err());
    assert!(Packet::from_bytes(&[0u8; 14]).is_err()); // eth header of zeros
    let big_junk = vec![0xa5u8; 64 * 1024];
    assert!(Packet::from_bytes(&big_junk).is_err());
}
