//! Ingress capture tap: records externally injected packets so a run's
//! input stream can be exported as a replayable trace.
//!
//! A [`CaptureBuffer`] is a [`NetObserver`] that keeps the scheduled time
//! and a clone of each packet from [`NetEvent::Injected`], which both
//! engines' `inject` emit when an observer is attached. Attach its handle
//! with `add_observer`. Like every [`Sink`], it is strictly passive and
//! bounded (see [`Sink`] for the overflow rule).

use crate::observe::{NetEvent, NetObserver};
use crate::sink::{Sink, SinkHandle};
use crate::time::SimTime;
use swishmem_wire::Packet;

/// A bounded buffer of `(scheduled time, packet)` ingress records, in
/// injection order.
pub type CaptureBuffer = Sink<(SimTime, Packet)>;

/// Shared handle to a capture buffer.
pub type CaptureHandle = SinkHandle<(SimTime, Packet)>;

/// The capture records every [`NetEvent::Injected`] packet.
impl NetObserver for CaptureBuffer {
    fn on_net_event(&mut self, _now: SimTime, ev: &NetEvent<'_>) {
        if let NetEvent::Injected { at, pkt } = ev {
            self.record((*at, (*pkt).clone()));
        }
    }
}
