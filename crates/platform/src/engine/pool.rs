//! Slab pools with generation-checked handles for the engine hot path.
//!
//! The event loop allocates nothing per event at steady state: queued
//! [`super::Event`]s live in a slab ([`EventPool`]) and travel through
//! the event queue as copyable [`EventHandle`]s; attempt-planning
//! buffers (clone outcomes, state timings, planned-attempt vectors) are
//! recycled through free lists instead of being dropped. Handles carry a
//! generation stamp so a stale handle — one whose slot was already taken
//! and reused — is caught immediately instead of silently reading
//! another event's payload.

use super::Event;

/// A generation-checked reference to a pooled [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct EventHandle {
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    event: Option<Event>,
}

/// Slab pool of queued events. `alloc` hands out a handle, `take`
/// consumes it exactly once; the freed slot's generation advances so any
/// copy of the old handle is invalidated.
#[derive(Debug, Default)]
pub(super) struct EventPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl EventPool {
    /// Store `event`, reusing a free slot when one exists.
    pub(super) fn alloc(&mut self, event: Event) -> EventHandle {
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.event.is_none(), "free-list slot still occupied");
                slot.event = Some(event);
                EventHandle { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event pool fits in u32");
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                EventHandle { idx, gen: 0 }
            }
        }
    }

    /// Consume `handle`, returning its event and recycling the slot.
    /// Panics on a stale handle (generation mismatch or double take) —
    /// that is a use-after-free in the event loop, never recoverable.
    pub(super) fn take(&mut self, handle: EventHandle) -> Event {
        let slot = &mut self.slots[handle.idx as usize];
        assert_eq!(
            slot.gen, handle.gen,
            "stale event handle: slot {} is at generation {}, handle carries {}",
            handle.idx, slot.gen, handle.gen
        );
        let event = slot.event.take().expect("event already taken");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(handle.idx);
        event
    }

    /// Events currently stored.
    pub(super) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Recycled `Vec` storage for the attempt planner: popping a buffer
/// returns a cleared vector with its old capacity intact, so planning a
/// new attempt re-uses the allocations of finished ones.
#[derive(Debug)]
pub(super) struct VecPool<T> {
    free: Vec<Vec<T>>,
}

// Manual impl: `derive(Default)` would demand `T: Default`, but an empty
// free list needs nothing from `T`.
impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool { free: Vec::new() }
    }
}

impl<T> VecPool<T> {
    /// A cleared buffer (recycled when available, fresh otherwise).
    pub(super) fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool; its contents are dropped, its
    /// capacity is kept.
    pub(super) fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;

    fn ev(n: u32) -> Event {
        Event::JobArrival { job: JobId(n) }
    }

    #[test]
    fn alloc_take_roundtrip_and_slot_reuse() {
        let mut pool = EventPool::default();
        let a = pool.alloc(ev(1));
        let b = pool.alloc(ev(2));
        assert_eq!(pool.len(), 2);
        assert!(matches!(pool.take(a), Event::JobArrival { job } if job == JobId(1)));
        // The freed slot is reused with a bumped generation.
        let c = pool.alloc(ev(3));
        assert_eq!(pool.len(), 2);
        assert!(matches!(pool.take(b), Event::JobArrival { job } if job == JobId(2)));
        assert!(matches!(pool.take(c), Event::JobArrival { job } if job == JobId(3)));
        assert_eq!(pool.len(), 0);
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn stale_handle_is_caught() {
        let mut pool = EventPool::default();
        let a = pool.alloc(ev(1));
        let _ = pool.take(a);
        let _b = pool.alloc(ev(2)); // reuses slot 0 at generation 1
        let _ = pool.take(a); // generation 0 handle must not read event 2
    }

    #[test]
    fn vec_pool_recycles_capacity() {
        let mut pool: VecPool<u64> = VecPool::default();
        let mut v = pool.get();
        v.extend(0..100);
        let cap = v.capacity();
        pool.put(v);
        let v2 = pool.get();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
    }
}
