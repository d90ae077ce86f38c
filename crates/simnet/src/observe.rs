//! Engine observer hooks.
//!
//! Observers see injections, deliveries and fault-plane transitions but
//! cannot influence the run (no RNG access, no event injection), so
//! attaching or detaching an observer never perturbs the determinism
//! fingerprint. A single-shard engine notifies them synchronously as
//! events are applied; a multi-shard engine replays buffered events after
//! each run call. [`NetEvent::Injected`] is always reported at the
//! `inject` call itself. Consumers are the online consistency oracles in
//! `swishmem-core` and the packet-trace and ingress-capture
//! [`crate::sink::Sink`]s.

use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use swishmem_wire::{NodeId, Packet};

/// One observable engine transition.
#[derive(Debug)]
pub enum NetEvent<'a> {
    /// A packet was injected from outside the fabric, to be delivered to
    /// `pkt.dst` at `at`. Reported when `inject` is called, which is
    /// always on the control thread.
    Injected {
        /// The scheduled delivery time.
        at: SimTime,
        /// The packet, borrowed from the caller for the callback only.
        pkt: &'a Packet,
    },
    /// A packet was delivered intact to `to` (about to be dispatched).
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// The packet, borrowed from the engine for the callback only.
        pkt: &'a Packet,
    },
    /// A node failed (fail-stop: state wiped, traffic dropped).
    NodeFailed {
        /// The victim.
        node: NodeId,
    },
    /// A failed node restarted with fresh state.
    NodeRecovered {
        /// The node.
        node: NodeId,
    },
    /// The duplex link `a <-> b` changed administrative state.
    LinkChanged {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// True when the link went down, false when it came back.
        down: bool,
    },
    /// The duplex link `a <-> b` was degraded by the fault plane.
    LinkDegraded {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The duplex link `a <-> b` was restored to pristine parameters.
    LinkRestored {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

/// An owned [`NetEvent`] (other than `Injected`, which is never
/// buffered), buffered by the shard cores of a multi-shard run
/// (which cannot call `Rc`-held observers from other threads) and
/// replayed through [`NetObserver::on_net_event`] on the control thread
/// after each run segment.
#[derive(Debug, Clone)]
pub(crate) enum OwnedNetEvent {
    Delivered { to: NodeId, pkt: Packet },
    NodeFailed { node: NodeId },
    NodeRecovered { node: NodeId },
    LinkChanged { a: NodeId, b: NodeId, down: bool },
    LinkDegraded { a: NodeId, b: NodeId },
    LinkRestored { a: NodeId, b: NodeId },
}

impl From<&NetEvent<'_>> for OwnedNetEvent {
    fn from(ev: &NetEvent<'_>) -> OwnedNetEvent {
        match *ev {
            NetEvent::Injected { .. } => unreachable!("injections are never buffered"),
            NetEvent::Delivered { to, pkt } => OwnedNetEvent::Delivered {
                to,
                pkt: pkt.clone(),
            },
            NetEvent::NodeFailed { node } => OwnedNetEvent::NodeFailed { node },
            NetEvent::NodeRecovered { node } => OwnedNetEvent::NodeRecovered { node },
            NetEvent::LinkChanged { a, b, down } => OwnedNetEvent::LinkChanged { a, b, down },
            NetEvent::LinkDegraded { a, b } => OwnedNetEvent::LinkDegraded { a, b },
            NetEvent::LinkRestored { a, b } => OwnedNetEvent::LinkRestored { a, b },
        }
    }
}

impl OwnedNetEvent {
    /// Borrowed view, for replay through the observer trait.
    pub(crate) fn as_net_event(&self) -> NetEvent<'_> {
        match self {
            OwnedNetEvent::Delivered { to, pkt } => NetEvent::Delivered { to: *to, pkt },
            OwnedNetEvent::NodeFailed { node } => NetEvent::NodeFailed { node: *node },
            OwnedNetEvent::NodeRecovered { node } => NetEvent::NodeRecovered { node: *node },
            OwnedNetEvent::LinkChanged { a, b, down } => NetEvent::LinkChanged {
                a: *a,
                b: *b,
                down: *down,
            },
            OwnedNetEvent::LinkDegraded { a, b } => NetEvent::LinkDegraded { a: *a, b: *b },
            OwnedNetEvent::LinkRestored { a, b } => NetEvent::LinkRestored { a: *a, b: *b },
        }
    }
}

/// Passive observer of engine transitions.
pub trait NetObserver {
    /// Called synchronously for each observable transition at `now`.
    fn on_net_event(&mut self, now: SimTime, ev: &NetEvent<'_>);
}

/// Shared handle to an observer, registered with `ShardedEngine::add_observer`.
pub type ObserverHandle = Rc<RefCell<dyn NetObserver>>;
