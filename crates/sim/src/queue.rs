//! Deterministic future-event list for the discrete-event engine.
//!
//! Events are ordered by timestamp; ties are broken by insertion sequence
//! number so that two runs with identical inputs pop events in identical
//! order regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list: a priority queue of `(SimTime, E)` with FIFO
/// tie-breaking and a monotonic-time pop guarantee.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// Scheduling in the past (before the last popped timestamp) is a logic
    /// error in the simulation; it is caught in debug builds and clamped to
    /// the current time in release builds so the clock never runs backwards.
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled at {time} before current time {}",
            self.last_popped
        );
        let time = time.max(self.last_popped);
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Remove and return the earliest event with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The timestamp of the most recently popped event (the current
    /// simulation clock reading).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Drop all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        q.push(SimTime::from_micros(6), 200);
        assert_eq!(q.pop(), Some((t, 0)));
        // An event scheduled at the current instant after a pop sorts
        // after every event already pending there, and before later ones.
        q.push(q.now(), 100);
        for i in 1..=100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop().unwrap().1, 200);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_micros(100), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(100));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(50), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        // Schedule relative to now.
        let next = q.now() + SimDuration::from_micros(15);
        q.push(next, 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_micros(1), ());
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }
}
