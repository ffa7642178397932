//! Storage hierarchy for checkpoints.
//!
//! §IV-C.4: checkpoints live primarily in an in-memory KV store; when a
//! checkpoint exceeds the per-key database limit it is spilled to a faster
//! storage tier available in the system — persistent memory, Ramdisk, or
//! shared NFS — and the checkpoint's *location* (not data) is pushed to the
//! database. The hierarchy is fixed at deployment time and can be
//! overridden by a custom endpoint such as an S3 bucket.

use canary_sim::SimDuration;

/// A class of storage device with a throughput/latency profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTier {
    /// In-memory KV store entry (Apache Ignite in the paper).
    KvStore,
    /// Node-local RAM-backed filesystem.
    Ramdisk,
    /// Intel Optane persistent memory in AppDirect mode.
    Pmem,
    /// Cluster-shared NFS (available to every node; survives node loss).
    Nfs,
    /// Custom object-store endpoint (S3-like).
    ObjectStore,
}

impl StorageTier {
    /// Write bandwidth in bytes/second.
    pub fn write_bandwidth(self) -> f64 {
        match self {
            StorageTier::KvStore => 8.0e9,
            StorageTier::Ramdisk => 6.0e9,
            StorageTier::Pmem => 2.0e9,
            StorageTier::Nfs => 0.9e9, // bounded by 10G Ethernet
            StorageTier::ObjectStore => 0.25e9,
        }
    }

    /// Read bandwidth in bytes/second.
    pub fn read_bandwidth(self) -> f64 {
        match self {
            StorageTier::KvStore => 10.0e9,
            StorageTier::Ramdisk => 8.0e9,
            StorageTier::Pmem => 4.0e9,
            StorageTier::Nfs => 1.0e9,
            StorageTier::ObjectStore => 0.5e9,
        }
    }

    /// Fixed per-operation latency (lookup / open / request).
    pub fn latency(self) -> SimDuration {
        match self {
            StorageTier::KvStore => SimDuration::from_micros(200),
            StorageTier::Ramdisk => SimDuration::from_micros(100),
            StorageTier::Pmem => SimDuration::from_micros(300),
            StorageTier::Nfs => SimDuration::from_millis(2),
            StorageTier::ObjectStore => SimDuration::from_millis(30),
        }
    }

    /// Whether data on this tier is reachable from every node (needed to
    /// recover from node-level failures, Fig. 11) or only from the writer.
    pub fn is_shared(self) -> bool {
        matches!(self, StorageTier::Nfs | StorageTier::ObjectStore)
    }

    /// Time to write `bytes`.
    pub fn write_time(self, bytes: u64) -> SimDuration {
        self.latency() + SimDuration::from_secs_f64(bytes as f64 / self.write_bandwidth())
    }

    /// Time to read `bytes`.
    pub fn read_time(self, bytes: u64) -> SimDuration {
        self.latency() + SimDuration::from_secs_f64(bytes as f64 / self.read_bandwidth())
    }
}

/// Ordered storage hierarchy: the tier used for a checkpoint is the first
/// whose capacity rule admits the payload.
#[derive(Debug, Clone)]
pub struct StorageHierarchy {
    /// Per-key size limit of the in-memory KV store (`db_limit` in
    /// Algorithm 1). Ignite-style stores cap entry sizes well below total
    /// memory; 8 MB is a realistic default.
    pub kv_entry_limit: u64,
    /// Tiers to try, fastest first, for payloads above the KV limit.
    pub spill_tiers: Vec<StorageTier>,
    /// Shared tier that prices asynchronous flushes and the restores
    /// that follow a node loss (must be shared).
    pub shared_tier: StorageTier,
}

impl Default for StorageHierarchy {
    fn default() -> Self {
        StorageHierarchy {
            kv_entry_limit: 8 * 1024 * 1024,
            spill_tiers: vec![StorageTier::Pmem, StorageTier::Ramdisk, StorageTier::Nfs],
            shared_tier: StorageTier::Nfs,
        }
    }
}

impl StorageHierarchy {
    /// Pick the tier for a checkpoint of `bytes` (Algorithm 1's
    /// `ckpt_data > db_limit` rule).
    pub fn place(&self, bytes: u64) -> StorageTier {
        if bytes <= self.kv_entry_limit {
            StorageTier::KvStore
        } else {
            *self.spill_tiers.first().unwrap_or(&StorageTier::Nfs)
        }
    }

    /// Validate the configuration (shared tier must actually be shared;
    /// spill list non-empty).
    pub fn validate(&self) -> Result<(), String> {
        if !self.shared_tier.is_shared() {
            return Err(format!(
                "shared tier {:?} is not reachable from all nodes",
                self.shared_tier
            ));
        }
        if self.spill_tiers.is_empty() {
            return Err("spill tier list is empty".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_tiers_have_higher_bandwidth() {
        assert!(StorageTier::KvStore.write_bandwidth() > StorageTier::Pmem.write_bandwidth());
        assert!(StorageTier::Pmem.write_bandwidth() > StorageTier::Nfs.write_bandwidth());
        assert!(StorageTier::Nfs.write_bandwidth() > StorageTier::ObjectStore.write_bandwidth());
    }

    #[test]
    fn shared_flags() {
        assert!(StorageTier::Nfs.is_shared());
        assert!(StorageTier::ObjectStore.is_shared());
        assert!(!StorageTier::Pmem.is_shared());
        assert!(!StorageTier::KvStore.is_shared());
    }

    #[test]
    fn write_time_monotone_in_size() {
        for tier in [
            StorageTier::KvStore,
            StorageTier::Ramdisk,
            StorageTier::Pmem,
            StorageTier::Nfs,
            StorageTier::ObjectStore,
        ] {
            assert!(tier.write_time(1_000_000_000) > tier.write_time(1_000));
            assert!(tier.read_time(1_000_000_000) > tier.read_time(1_000));
        }
    }

    #[test]
    fn placement_respects_db_limit() {
        let h = StorageHierarchy::default();
        assert_eq!(h.place(1024), StorageTier::KvStore);
        assert_eq!(h.place(h.kv_entry_limit), StorageTier::KvStore);
        assert_eq!(h.place(h.kv_entry_limit + 1), StorageTier::Pmem);
        // A ResNet50-sized checkpoint (~98 MB) spills.
        assert_ne!(h.place(98 * 1024 * 1024), StorageTier::KvStore);
    }

    #[test]
    fn default_hierarchy_validates() {
        assert!(StorageHierarchy::default().validate().is_ok());
    }

    #[test]
    fn invalid_hierarchy_detected() {
        let h = StorageHierarchy {
            shared_tier: StorageTier::Pmem,
            ..Default::default()
        };
        assert!(h.validate().is_err());
        let mut h2 = StorageHierarchy::default();
        h2.spill_tiers.clear();
        assert!(h2.validate().is_err());
    }
}
