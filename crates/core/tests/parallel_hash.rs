//! Tests for parallel chunk hashing ([`canary_core::chunk::hash_chunks_into`]).
//!
//! The checkpoint record path fans chunk hashing out over scoped worker
//! threads for payloads above `PARALLEL_HASH_THRESHOLD`. Correctness
//! requires the hash *sequence* to be a pure function of the payload and
//! chunk size — never of the worker count, stripe boundaries, or
//! scheduling order — because those hashes feed the content-addressed
//! store, the delta-manifest encoder, and the manifest sequence digest.

use canary_core::chunk::{fnv1a64, hash_chunks_into, sequence_digest, PARALLEL_HASH_THRESHOLD};
use proptest::prelude::*;

/// The obviously-correct serial oracle: hash each window with the same
/// FNV the chunk store uses.
fn serial_hashes(payload: &[u8], chunk_size: usize) -> Vec<u64> {
    payload.chunks(chunk_size).map(fnv1a64).collect()
}

fn for_workers(payload: &[u8], chunk_size: usize, workers: usize) -> Vec<u64> {
    let mut out = Vec::new();
    hash_chunks_into(payload, chunk_size, workers, &mut out);
    out
}

#[test]
fn empty_payload_hashes_to_no_chunks() {
    for workers in [1, 2, 8] {
        assert!(for_workers(&[], 64, workers).is_empty());
    }
}

#[test]
fn single_chunk_matches_serial() {
    let payload = b"one small chunk";
    let expect = serial_hashes(payload, 64);
    assert_eq!(expect.len(), 1);
    for workers in [1, 2, 8] {
        assert_eq!(for_workers(payload, 64, workers), expect);
    }
}

#[test]
fn multi_mib_payload_is_identical_across_worker_counts() {
    // Larger than PARALLEL_HASH_THRESHOLD so this exercises the exact
    // shape the record path uses for big state images.
    let len = PARALLEL_HASH_THRESHOLD + (3 << 20) + 17;
    let payload: Vec<u8> = (0..len).map(|i| (i * 31 + i / 251) as u8).collect();
    let expect = serial_hashes(&payload, 64 << 10);
    assert!(expect.len() > 100);
    for workers in [1, 2, 8] {
        assert_eq!(
            for_workers(&payload, 64 << 10, workers),
            expect,
            "workers={workers}"
        );
    }
    // And therefore the manifest's sequence digest cannot depend on the
    // worker count either.
    let digests: Vec<u64> = [1, 2, 8]
        .iter()
        .map(|&w| sequence_digest(&for_workers(&payload, 64 << 10, w)))
        .collect();
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

#[test]
fn ragged_tail_chunk_is_hashed_over_short_window() {
    // 3 full chunks + a 5-byte tail: the last hash must cover exactly the
    // tail, not a zero-padded window.
    let payload: Vec<u8> = (0..(3 * 32 + 5)).map(|i| i as u8).collect();
    let expect = serial_hashes(&payload, 32);
    assert_eq!(expect.len(), 4);
    assert_eq!(*expect.last().unwrap(), fnv1a64(&payload[96..]));
    for workers in [1, 2, 8] {
        assert_eq!(for_workers(&payload, 32, workers), expect);
    }
}

#[test]
fn more_workers_than_chunks_clamps_cleanly() {
    let payload: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
    let expect = serial_hashes(&payload, 64); // 2 chunks
    assert_eq!(for_workers(&payload, 64, 64), expect);
}

#[test]
fn output_buffer_is_reset_not_appended() {
    let payload = vec![7u8; 200];
    let mut out = vec![0xdead_beef; 50]; // stale garbage from a prior call
    hash_chunks_into(&payload, 64, 4, &mut out);
    assert_eq!(out, serial_hashes(&payload, 64));
}

proptest! {
    /// For arbitrary payloads, chunk sizes, and worker counts the
    /// parallel hasher equals the serial oracle — same length, same
    /// values, same order.
    #[test]
    fn parallel_equals_serial(
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk_size in 1usize..512,
        workers in 1usize..9,
    ) {
        let expect = serial_hashes(&payload, chunk_size);
        prop_assert_eq!(for_workers(&payload, chunk_size, workers), expect);
    }
}
