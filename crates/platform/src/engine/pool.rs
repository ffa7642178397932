//! Recycled buffers for the engine hot path.
//!
//! Attempt planning allocates nothing at steady state: a retired
//! attempt's clone-outcome list and per-clone state timings return to a
//! [`VecPool`] instead of being dropped, and the next attempt plans into
//! them.

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
