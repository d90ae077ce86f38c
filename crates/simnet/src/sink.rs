//! The bounded buffer behind every passive tap.
//!
//! The packet trace, the ingress capture, the span collector and the
//! control-plane journal are all a [`Sink`] of their record type. A sink
//! is written to, never read, during a run: it holds no RNG and
//! schedules no events, so attaching one cannot perturb the engine's
//! `(time, seq)` event order (both golden fingerprint tests pin this).
//!
//! **Overflow rule.** A sink keeps its *first* `capacity` entries. Every
//! later entry is discarded and counted in [`Sink::overflowed`], so
//! `len() + overflowed()` is always the number of entries offered.

use std::cell::RefCell;
use std::rc::Rc;

/// A bounded in-memory buffer plus an overflow count.
#[derive(Debug)]
pub struct Sink<T> {
    entries: Vec<T>,
    capacity: usize,
    overflowed: u64,
}

/// Shared handle to a [`Sink`]: the caller keeps one side, an engine
/// (as a `Ctx` sink or a [`crate::observe::NetObserver`]) the other.
pub type SinkHandle<T> = Rc<RefCell<Sink<T>>>;

impl<T> Sink<T> {
    /// A shared sink keeping at most `capacity` entries.
    pub fn new(capacity: usize) -> SinkHandle<T> {
        Rc::new(RefCell::new(Sink::detached(capacity)))
    }

    /// An owned (non-shared) sink. The sharded engine gives each shard
    /// core one of these and merges them into the attached handle after
    /// each run segment.
    pub(crate) fn detached(capacity: usize) -> Sink<T> {
        Sink {
            entries: Vec::new(),
            capacity,
            overflowed: 0,
        }
    }

    /// Keep `entry`, or count it as overflow once the sink is full.
    #[inline]
    pub fn record(&mut self, entry: T) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.overflowed += 1;
        }
    }

    /// The kept entries, in recording order.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Take the kept entries out, leaving the sink empty with its
    /// overflow count reset.
    pub fn take(&mut self) -> Vec<T> {
        self.overflowed = 0;
        std::mem::take(&mut self.entries)
    }

    /// Drop the kept entries and reset the overflow count.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.overflowed = 0;
    }

    /// Number of kept entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries discarded because the sink was full.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_first_capacity_entries_and_counts_the_rest() {
        let h = Sink::new(2);
        let mut s = h.borrow_mut();
        assert!(s.is_empty());
        for i in 0..5u32 {
            s.record(i);
        }
        assert_eq!(s.entries(), &[0, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.overflowed(), 3);

        // take: hands back the entries, resets both counts.
        assert_eq!(s.take(), vec![0, 1]);
        assert!(s.is_empty());
        assert_eq!(s.overflowed(), 0);

        // The capacity survives a take; clear resets the same way.
        for i in 5..8u32 {
            s.record(i);
        }
        assert_eq!(s.entries(), &[5, 6]);
        assert_eq!(s.overflowed(), 1);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.overflowed(), 0);

        // A zero-capacity sink keeps nothing and counts everything.
        let mut z = Sink::detached(0);
        z.record(1u8);
        assert_eq!((z.len(), z.overflowed()), (0, 1));
    }
}
