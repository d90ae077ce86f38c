//! EWO-protocol edge cases at the unit level: merges, periodic sync
//! batching, and eager-mirror behaviour of the data-plane program driven
//! directly with crafted messages.

#![allow(clippy::field_reassign_with_default)] // configs read clearer as overrides

use std::net::Ipv4Addr;
use std::sync::Arc;
use swishmem::api::{ForwardAll, NfApp, NfDecision, SharedState};
use swishmem::layer::program::SwishProgram;
use swishmem::layer::{write_chain_for_tests, ChainView, Handles, SYNC_PKTGEN_TOKEN};
use swishmem::{ClockMode, RegisterSpec, SwishConfig, SwitchClock};
use swishmem_pisa::{DataPlane, DataPlaneProgram, DpView, Effect, Effects};
use swishmem_simnet::SimTime;
use swishmem_wire::swish::{RegId, SyncEntry, SyncUpdate, TraceId};
use swishmem_wire::{DataPacket, FlowKey, NodeId, Packet, PacketBody, SwishMsg};

/// Adds 1 to counter register 0 at key = dst_port.
struct IncNf;
impl NfApp for IncNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        st.add(0, u32::from(pkt.flow.dst_port), 1);
        NfDecision::Forward {
            dst: NodeId(1000),
            pkt: *pkt,
        }
    }
}

/// Adds 1 to counter register 0 and sets LWW register 1 at key =
/// dst_port: two EWO registers written in one pass.
struct TwoRegNf;
impl NfApp for TwoRegNf {
    fn process(&mut self, pkt: &DataPacket, _i: NodeId, st: &mut dyn SharedState) -> NfDecision {
        let key = u32::from(pkt.flow.dst_port);
        st.add(0, key, 1);
        st.write(1, key, 7);
        NfDecision::Forward {
            dst: NodeId(1000),
            pkt: *pkt,
        }
    }
}

struct Rig {
    dp: DataPlane,
    prog: SwishProgram,
}

fn rig(me: u16, cfg: SwishConfig, counter_nf: bool) -> Rig {
    let app: Box<dyn NfApp> = if counter_nf {
        Box::new(IncNf)
    } else {
        Box::new(ForwardAll { dst: NodeId(1000) })
    };
    rig_with(me, cfg, &[RegisterSpec::ewo_counter(0, "c", 64)], app)
}

fn rig_with(me: u16, cfg: SwishConfig, specs: &[RegisterSpec], app: Box<dyn NfApp>) -> Rig {
    let mut dp = DataPlane::standard();
    let handles = Arc::new(Handles::build(&mut dp, specs, &cfg, 4).unwrap());
    write_chain_for_tests(
        &mut dp,
        &handles,
        &ChainView {
            epoch: 1,
            chain: (0..4).map(NodeId).collect(),
            learners: vec![],
        },
    );
    let clock = SwitchClock::new(NodeId(me), ClockMode::Synced { max_skew_ns: 0 }, 0);
    let prog = SwishProgram::new(NodeId(me), cfg, handles, app, clock);
    Rig { dp, prog }
}

fn deliver(r: &mut Rig, pkt: Packet, at_ns: u64) -> Vec<Effect> {
    let mut eff = Effects::new();
    {
        let mut view = DpView::new(&mut r.dp, SimTime(at_ns));
        r.prog.on_packet(pkt, &mut view, &mut eff);
    }
    eff.drain().collect()
}

fn pktgen(r: &mut Rig, at_ns: u64) -> Vec<Effect> {
    let mut eff = Effects::new();
    {
        let mut view = DpView::new(&mut r.dp, SimTime(at_ns));
        r.prog.on_pktgen(SYNC_PKTGEN_TOKEN, &mut view, &mut eff);
    }
    eff.drain().collect()
}

fn data(port: u16) -> Packet {
    Packet::data(
        NodeId(9),
        NodeId(0),
        DataPacket::udp(
            FlowKey::udp(
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr::new(2, 2, 2, 2),
                port,
            ),
            0,
            16,
        ),
    )
}

fn sync(origin: u16, entries: Vec<SyncEntry>) -> Packet {
    Packet::swish(
        NodeId(origin),
        NodeId(0),
        SwishMsg::Sync(SyncUpdate {
            origin: NodeId(origin),
            trace: TraceId::NONE,
            entries: entries.into(),
        }),
    )
}

/// An entry for register 0, the counter every rig has.
fn entry(key: u32, slot: u8, version: u64, value: u64) -> SyncEntry {
    SyncEntry {
        reg: 0,
        key,
        slot,
        version,
        value,
    }
}

fn peek(r: &Rig, key: u32) -> u64 {
    peek_reg(r, 0, key)
}

fn peek_reg(r: &Rig, reg: RegId, key: u32) -> u64 {
    r.prog.peek(&r.dp, reg, key, SimTime(0))
}

#[test]
fn merge_is_idempotent_at_the_register_level() {
    let mut r = rig(0, SwishConfig::default(), false);
    let e = entry(3, 2, 5, 50);
    deliver(&mut r, sync(2, vec![e]), 100);
    assert_eq!(peek(&r, 3), 50);
    assert_eq!(r.prog.metrics().merge_applied, 1);
    // Replaying the identical update changes nothing.
    deliver(&mut r, sync(2, vec![e]), 200);
    assert_eq!(peek(&r, 3), 50);
    assert_eq!(r.prog.metrics().merge_applied, 1);
    assert_eq!(r.prog.metrics().merge_entries, 2);
}

#[test]
fn stale_slot_updates_never_regress_the_counter() {
    let mut r = rig(0, SwishConfig::default(), false);
    deliver(&mut r, sync(2, vec![entry(3, 2, 9, 90)]), 100);
    // An old view of the same slot must not shrink it.
    deliver(&mut r, sync(1, vec![entry(3, 2, 4, 40)]), 200);
    assert_eq!(peek(&r, 3), 90);
}

#[test]
fn relayed_sync_carries_third_party_slots() {
    // Periodic sync relays ALL slots a switch knows, not just its own:
    // switch 0 learns slot 2's value from switch 1's relay.
    let mut r = rig(0, SwishConfig::default(), false);
    deliver(&mut r, sync(1, vec![entry(7, 2, 3, 30)]), 100);
    assert_eq!(peek(&r, 7), 30);
}

#[test]
fn sync_skips_entries_for_unknown_or_non_ewo_registers() {
    let specs = [
        RegisterSpec::ewo_counter(0, "c", 64),
        RegisterSpec::sro(1, "s", 64),
    ];
    let mut r = rig_with(0, SwishConfig::default(), &specs, Box::new(IncNf));
    let unknown = SyncEntry {
        reg: 99,
        ..entry(3, 2, 5, 50)
    };
    let chain_reg = SyncEntry {
        reg: 1,
        ..entry(3, 2, 5, 50)
    };
    deliver(
        &mut r,
        sync(2, vec![unknown, chain_reg, entry(4, 2, 6, 60)]),
        100,
    );
    assert_eq!(peek(&r, 4), 60, "the valid entry still merges");
    assert_eq!(peek(&r, 3), 0);
    assert_eq!(peek_reg(&r, 1, 3), 0, "an SRO register is not merged into");
    assert_eq!(r.prog.metrics().merge_entries, 1);
}

#[test]
fn eager_mirror_coalesces_registers() {
    let specs = [
        RegisterSpec::ewo_counter(0, "c", 64),
        RegisterSpec::ewo_lww(1, "l", 64),
    ];
    let mut r = rig_with(0, SwishConfig::default(), &specs, Box::new(TwoRegNf));
    let fx = deliver(&mut r, data(5), 100);
    let mirrors: Vec<Vec<SyncEntry>> = fx
        .iter()
        .filter_map(|e| match e {
            Effect::Multicast {
                body: PacketBody::Swish(SwishMsg::Sync(u)),
                ..
            } => Some(u.entries.to_vec()),
            _ => None,
        })
        .collect();
    assert_eq!(mirrors.len(), 1, "one mirror per pipeline pass");
    let regs: Vec<RegId> = mirrors[0].iter().map(|e| e.reg).collect();
    assert_eq!(regs, [0, 1]);
    assert!(mirrors[0].iter().all(|e| e.key == 5));
    assert_eq!(r.prog.metrics().mirror_packets, 1);

    // A peer applies both registers from that one update.
    let mut peer = rig_with(1, SwishConfig::default(), &specs, Box::new(TwoRegNf));
    deliver(&mut peer, sync(0, mirrors[0].clone()), 200);
    assert_eq!(peek_reg(&peer, 0, 5), 1);
    assert_eq!(peek_reg(&peer, 1, 5), 7);
}

#[test]
fn eager_mirror_batches_until_threshold() {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = 3;
    let mut r = rig(0, cfg, true);
    // Two writes: below the batch threshold, nothing mirrored yet.
    assert!(!deliver(&mut r, data(1), 100)
        .iter()
        .any(|e| matches!(e, Effect::Multicast { .. })));
    assert!(!deliver(&mut r, data(2), 200)
        .iter()
        .any(|e| matches!(e, Effect::Multicast { .. })));
    // Third write flushes one batched Sync with 3 entries.
    let fx = deliver(&mut r, data(3), 300);
    let entries = fx
        .iter()
        .find_map(|e| match e {
            Effect::Multicast {
                body: PacketBody::Swish(SwishMsg::Sync(u)),
                ..
            } => Some(u.entries.len()),
            _ => None,
        })
        .expect("batch flush expected");
    assert_eq!(entries, 3);
}

#[test]
fn pktgen_flushes_lingering_batch() {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = 100; // never reached by traffic
    let mut r = rig(0, cfg, true);
    deliver(&mut r, data(1), 100);
    // The pending entry must not linger past the next sync tick.
    let fx = pktgen(&mut r, 1_000_000);
    let mirrored = fx.iter().any(|e| {
        matches!(
            e,
            Effect::Multicast {
                body: PacketBody::Swish(SwishMsg::Sync(_)),
                ..
            }
        )
    });
    assert!(mirrored, "pktgen must flush the batch buffer");
}

#[test]
fn periodic_sync_walks_only_nonzero_state() {
    let mut r = rig(0, SwishConfig::default(), true);
    // Nothing written yet: the sync tick emits no packets.
    assert!(pktgen(&mut r, 1_000).is_empty());
    // After one write, the tick ships exactly the live entries.
    deliver(&mut r, data(5), 2_000);
    let fx = pktgen(&mut r, 10_000);
    let entries: usize = fx
        .iter()
        .filter_map(|e| match e {
            Effect::AnycastRandom {
                body: PacketBody::Swish(SwishMsg::Sync(u)),
                ..
            } => Some(u.entries.len()),
            _ => None,
        })
        .sum();
    assert_eq!(entries, 1, "exactly the one live (key, slot) pair");
}

#[test]
fn ewo_writes_never_touch_the_control_plane() {
    let mut r = rig(0, SwishConfig::default(), true);
    let fx = deliver(&mut r, data(1), 100);
    assert!(!fx.iter().any(|e| matches!(e, Effect::Punt { .. })));
    // Output packet released immediately.
    assert!(fx
        .iter()
        .any(|e| matches!(e, Effect::Forward { dst, body: PacketBody::Data(_) } if dst.0 == 1000)));
}

#[test]
fn reset_clears_cursor_batch_and_metrics() {
    let mut cfg = SwishConfig::default();
    cfg.batch_size = 100;
    let mut r = rig(0, cfg, true);
    deliver(&mut r, data(1), 100);
    assert_eq!(r.prog.metrics().ewo_writes, 1);
    // A fail-stop failure wipes data plane AND program state together
    // (pisa's Switch::on_fail does both); mirror that here.
    r.dp.clear_all();
    r.prog.reset();
    assert_eq!(r.prog.metrics().ewo_writes, 0);
    // No stale batch or register state resurfaces after the reset.
    assert!(pktgen(&mut r, 1_000_000).is_empty());
}
