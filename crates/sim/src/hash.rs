//! Hash maps and sets with a fixed hasher.
//!
//! `std`'s default `RandomState` keys every map from per-process random
//! seeds, so two runs of one configuration visit, drain and drop a map's
//! entries in different orders. No simulated outcome depends on that
//! order, but the allocator sees it: frees land in a different order,
//! the heap fragments differently, and the peak resident set of a run
//! moved by up to 10 MB from one process to the next. With a fixed
//! hasher the order, and with it every allocation a run makes, is a
//! function of the run's configuration alone.
//!
//! The simulator's maps use these aliases instead of `std`'s; they hash
//! with the same SipHash as `std`, under fixed keys. Build them with
//! `default()` (`new()` belongs to `RandomState` maps only). Their keys
//! are ids the simulator assigns itself, never outside input, so fixed
//! keys give up no protection against crafted collisions.

use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;

/// The hasher every map of the simulator builds: SipHash with fixed keys.
pub type FixedState = BuildHasherDefault<DefaultHasher>;

/// A `std` hash map keyed by [`FixedState`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// A `std` hash set keyed by [`FixedState`].
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_maps_with_the_same_inserts_iterate_alike() {
        let build = || -> HashMap<u64, u64> { (0..1000).map(|k| (k * 7919, k)).collect() };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()));
    }
}
