//! Adversarial decoding: hostile length fields, truncations, and header
//! mutations must produce clean errors — never panics, never unbounded
//! allocation. (The simulator's corruption faults can hand receivers any
//! of these shapes.)

use swishmem_wire::cursor::{Reader, Writer};
use swishmem_wire::swish::{
    ChainConfig, CtrlAccept, CtrlCmd, CtrlPromise, CtrlSnap, CtrlSnapMig, CtrlSnapRange,
    CtrlSnapReg, LoadEntry, LoadReport, MigrateChunk, SnapEntry, SnapshotChunk, SyncEntry,
    SyncUpdate, TraceId, WIRE_VERSION,
};
use swishmem_wire::{NodeId, Packet, Shared, SwishMsg};

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

/// Valid frames whose decoders walk nested counts and optional fields:
/// EWO sync runs, the control-plane snapshot and consensus messages,
/// load reports, chain configs, and snapshot/migration chunks.
fn frames() -> Vec<Packet> {
    let entries = |keys: &[u32]| -> Shared<SnapEntry> {
        keys.iter()
            .map(|&key| SnapEntry {
                key,
                seq: u64::from(key) + 1,
                value: u64::from(key) * 7,
            })
            .collect::<Vec<_>>()
            .into()
    };
    let msgs = [
        SwishMsg::Sync(SyncUpdate {
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
        }),
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
        SwishMsg::CtrlSnap(CtrlSnap {
            from: NodeId(u16::MAX - 1),
            base: (1 << 32) | 17,
            epoch: 5,
            chain: vec![NodeId(0), NodeId(1), NodeId(2)],
            learners: vec![NodeId(3)],
            group: vec![NodeId(u16::MAX), NodeId(u16::MAX - 1)],
            leader: Some(NodeId(u16::MAX - 1)),
            leader_changes: 2,
            boot_done: true,
            regs: vec![CtrlSnapReg {
                reg: 2,
                ranges: vec![
                    CtrlSnapRange {
                        start: 0,
                        end: 32,
                        committed_epoch: 3,
                        issued_epoch: 4,
                        owners: vec![NodeId(0), NodeId(1)],
                        mig: Some(CtrlSnapMig {
                            from: NodeId(0),
                            to: NodeId(2),
                            epoch: 4,
                            phase: 1,
                            commit_owners: vec![NodeId(2), NodeId(1)],
                        }),
                    },
                    CtrlSnapRange {
                        start: 32,
                        end: 64,
                        committed_epoch: 1,
                        issued_epoch: 1,
                        owners: vec![NodeId(1)],
                        mig: None,
                    },
                ],
            }],
        }),
        SwishMsg::CtrlPromise(CtrlPromise {
            from: NodeId(u16::MAX),
            ballot: (3 << 8) | 1,
            slot: 7,
            granted: true,
            floor: (3 << 8) | 1,
            max_slot: 9,
            acc_ballot: 2 << 8,
            acc: Some(CtrlCmd::Fail { node: NodeId(4) }),
        }),
        SwishMsg::CtrlAccept(CtrlAccept {
            from: NodeId(u16::MAX - 1),
            ballot: (3 << 8) | 1,
            slot: 7,
            cmd: CtrlCmd::Move {
                reg: 2,
                key: 16,
                to: NodeId(3),
                planned: true,
            },
        }),
        SwishMsg::LoadReport(LoadReport {
            from: NodeId(1),
            entries: vec![
                LoadEntry {
                    reg: 2,
                    start: 16,
                    writes: 120,
                },
                LoadEntry {
                    reg: 2,
                    start: 0,
                    writes: 3,
                },
            ],
        }),
        SwishMsg::Chain(ChainConfig {
            epoch: 9,
            chain: vec![NodeId(0), NodeId(1), NodeId(2)],
            learners: vec![NodeId(6)],
        }),
        SwishMsg::SnapChunk(SnapshotChunk {
            reg: 1,
            origin: NodeId(0),
            entries: entries(&[3, 4]),
            last: true,
        }),
        SwishMsg::MigrateChunk(MigrateChunk {
            reg: 2,
            start: 16,
            end: 32,
            origin: NodeId(0),
            pass: 1,
            idx: 4,
            last: false,
            entries: entries(&[16, 17]),
        }),
    ];
    msgs.into_iter()
        .map(|msg| Packet::swish(NodeId(0), NodeId(1), msg))
        .collect()
}

/// Every single-byte mutation of a valid frame either decodes to
/// *something* well-formed or errors — it never panics. (IPv4 headers
/// additionally checksum-fail on most mutations.)
#[test]
fn single_byte_mutations_never_panic() {
    for pkt in frames() {
        let bytes = pkt.to_bytes();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut m = bytes.clone();
                m[i] ^= flip;
                let _ = Packet::from_bytes(&m); // must not panic
            }
        }
    }
}

/// Truncating a frame at every possible length errors cleanly.
#[test]
fn every_truncation_point_errors() {
    for pkt in frames() {
        let bytes = pkt.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Packet::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} of {} bytes should not decode: {pkt:?}",
                bytes.len()
            );
        }
        assert_eq!(Packet::from_bytes(&bytes).ok(), Some(pkt));
    }
}

/// Empty and pathological inputs.
#[test]
fn degenerate_inputs() {
    assert!(Packet::from_bytes(&[]).is_err());
    assert!(Packet::from_bytes(&[0u8; 14]).is_err()); // eth header of zeros
    let big_junk = vec![0xa5u8; 64 * 1024];
    assert!(Packet::from_bytes(&big_junk).is_err());
}
