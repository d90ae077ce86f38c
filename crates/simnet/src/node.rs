//! The node abstraction: anything attached to the simulated network
//! (switches, hosts, the controller) implements [`Node`].

use crate::ctx::Ctx;
use std::any::Any;
use swishmem_wire::Packet;

pub use swishmem_wire::NodeId;

/// A pure forwarder (a spine/aggregation switch carrying no NF): any
/// frame not addressed to it is re-sent toward its wire destination.
pub struct RelayNode;

impl Node for RelayNode {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut crate::ctx::Ctx<'_>) {
        if pkt.dst != ctx.self_id() {
            ctx.send(pkt.dst, pkt.body);
        }
    }
}

/// A simulated network element.
///
/// The engine calls these hooks with a [`Ctx`] through which the node can
/// send packets, join multicast groups' traffic, set timers, and draw
/// deterministic randomness. A node must never block; all waiting is
/// expressed through timers.
pub trait Node {
    /// Called once when the simulation starts (or when the node recovers
    /// from a failure with fresh state). Use it to arm periodic timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet addressed to this node arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// A timer armed via [`Ctx::set_timer`] fired. `token` is the value
    /// passed when arming.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// The node failed (fail-stop). State is conceptually lost; the engine
    /// stops delivering events. Implementations may clear internal state
    /// here so that a later recovery starts fresh.
    fn on_fail(&mut self) {}

    /// A corrupted frame arrived. Default behaviour mirrors a real switch:
    /// drop it silently (the engine has already counted it).
    fn on_corrupt_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
}

/// Blanket `Any`-access helper so the engine can hand out typed references
/// to nodes after a run (e.g. to read a switch's registers or metrics).
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: 'static> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Object-safe supertrait combining [`Node`] and [`AsAny`]: what the
/// engine stores. `Send`, so shard cores can run on worker threads.
pub trait NodeObj: Node + AsAny + Send {}
impl<T: Node + AsAny + Send> NodeObj for T {}
