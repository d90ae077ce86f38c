//! The event core of each [`crate::shard::ShardedEngine`] shard: event
//! payloads, flat heap entries, and the slab-backed priority queue.
//!
//! The queue orders events by a 128-bit `(time, key)` pair. A single
//! shard uses one global insertion sequence as the key; multi-shard runs
//! use origin-derived keys (see `shard.rs`), which are unique
//! across shards so the pop order of any queue — and of any merge of
//! per-shard outputs — is a total order independent of insertion order.

use crate::fault::LinkOverlay;
use crate::time::SimTime;
use swishmem_wire::{NodeId, Packet};

/// One scheduled simulation event.
#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver {
        to: NodeId,
        pkt: Packet,
        corrupt: bool,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Fail {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
    LinkSet {
        a: NodeId,
        b: NodeId,
        down: bool,
        /// Whether processing this event reports it to observers. A link
        /// event is scheduled into both endpoint-owning shards and exactly
        /// one copy is the observable one (always true on one shard).
        notify: bool,
    },
    LinkDegrade {
        a: NodeId,
        b: NodeId,
        overlay: LinkOverlay,
        notify: bool,
    },
    LinkRestore {
        a: NodeId,
        b: NodeId,
        notify: bool,
    },
    /// Slab slot whose payload was popped (free-listed).
    Vacant,
}

// Every scheduled event lives in the slab as an `EventKind`; a variant
// that grows past the inline packet makes every slab slot larger.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 144);

/// Flat heap entry: the payload stays in the slab, so sifting moves 24
/// bytes regardless of how large the packet inside the event is.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: u64,
    key: u64,
    idx: u32,
}

const _: () = assert!(std::mem::size_of::<HeapEntry>() == 24);

impl HeapEntry {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.key)
    }
}

/// Binary min-heap over `(time, key)` with slab-allocated payloads.
///
/// Chosen over a timer wheel by measurement: event delays span nanosecond
/// serialization gaps to millisecond CP timers (six orders of magnitude),
/// which a wheel only covers hierarchically, and flattening the heap
/// entries already removes the dominant cost (moving packet-sized events
/// during sifts).
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: Vec<HeapEntry>,
    slab: Vec<EventKind>,
    free: Vec<u32>,
}

impl EventQueue {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime(e.time))
    }

    pub(crate) fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = kind;
                i
            }
            None => {
                self.slab.push(kind);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(HeapEntry {
            time: time.nanos(),
            key,
            idx,
        });
        self.sift_up(self.heap.len() - 1);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, EventKind)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        let kind = std::mem::replace(&mut self.slab[top.idx as usize], EventKind::Vacant);
        self.free.push(top.idx);
        Some((SimTime(top.time), top.key, kind))
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= e.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = e;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let e = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1].key() < self.heap[child].key() {
                child += 1;
            }
            if e.key() <= self.heap[child].key() {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_key_order() {
        let mut q = EventQueue::default();
        q.push(
            SimTime(30),
            0,
            EventKind::Timer {
                node: NodeId(0),
                token: 3,
            },
        );
        q.push(
            SimTime(10),
            5,
            EventKind::Timer {
                node: NodeId(0),
                token: 1,
            },
        );
        q.push(
            SimTime(10),
            2,
            EventKind::Timer {
                node: NodeId(0),
                token: 0,
            },
        );
        q.push(
            SimTime(20),
            1,
            EventKind::Timer {
                node: NodeId(0),
                token: 2,
            },
        );
        let mut tokens = Vec::new();
        while let Some((_, _, EventKind::Timer { token, .. })) = q.pop() {
            tokens.push(token);
        }
        assert_eq!(tokens, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_order_is_insertion_independent_for_unique_keys() {
        // The sharded engine relies on this: mail drained from peer
        // mailboxes in arbitrary arrival order still pops identically
        // because `(time, key)` pairs are globally unique.
        let events: Vec<(u64, u64)> = vec![(5, 9), (5, 1), (3, 7), (9, 0), (3, 2)];
        let mut orders = Vec::new();
        for rot in 0..events.len() {
            let mut q = EventQueue::default();
            for i in 0..events.len() {
                let (t, k) = events[(i + rot) % events.len()];
                q.push(
                    SimTime(t),
                    k,
                    EventKind::Timer {
                        node: NodeId(0),
                        token: k,
                    },
                );
            }
            let mut order = Vec::new();
            while let Some((t, k, _)) = q.pop() {
                order.push((t.nanos(), k));
            }
            orders.push(order);
        }
        for w in orders.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
