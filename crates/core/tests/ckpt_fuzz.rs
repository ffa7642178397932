//! Manifest / chunk corruption fuzz suite for content-addressed
//! checkpoints.
//!
//! The restore contract under attack: a damaged manifest or chunk
//! either reports a typed [`ManifestError`] or makes the restore walk
//! fall back cleanly to an older checkpoint — it never panics and never
//! returns wrong bytes. Wrongness is checked against independently
//! rebuilt expected payloads, so a silent mis-assembly cannot hide.
//!
//! Corruption is driven by the same split-PRNG discipline the chaos
//! subsystem and the WAL fuzz suite use: every case derives from a
//! pinned seed via [`SimRng::split`], so a failure here reproduces
//! byte-for-byte.

use bytes::Bytes;
use canary_cluster::StorageHierarchy;
use canary_core::checkpoint::build_payload;
use canary_core::{
    decode_manifest, encode_manifest, restore_from_manifest, sequence_digest, CanaryConfig,
    CanaryDb, CheckpointingModule, ChunkStore, ManifestError,
};
use canary_sim::{SimRng, SimTime};
use std::sync::Arc;

/// Same stream tag the chaos corruption oracle uses, so this suite and
/// the simulator draw unrelated corruption patterns from one seed.
const CORRUPTION_STREAM: u64 = 0xC0FF;

const SEEDS: [u64; 3] = [7, 42, 1337];
const CHUNK: usize = 16;

/// Chunk a random payload into a fresh store, returning the payload,
/// its hash list, and the store.
fn chunked_payload(rng: &mut SimRng, max_chunks: u64) -> (Vec<u8>, Vec<u64>, ChunkStore) {
    let len =
        (1 + rng.u64_below(max_chunks)) as usize * CHUNK - rng.u64_below(CHUNK as u64) as usize;
    let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    let mut store = ChunkStore::new();
    let mut hashes = Vec::new();
    for chunk in payload.chunks(CHUNK) {
        let (h, _) = store.insert(Bytes::copy_from_slice(chunk));
        hashes.push(h);
    }
    (payload, hashes, store)
}

#[test]
fn truncated_manifests_are_typed_never_panic() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(CORRUPTION_STREAM);
        let (payload, hashes, _) = chunked_payload(&mut rng, 8);
        let base: Vec<u64> = hashes
            .iter()
            .map(|&h| {
                if rng.bernoulli(0.5) {
                    h
                } else {
                    rng.next_u64()
                }
            })
            .collect();
        let wire = encode_manifest(
            9,
            Some((8, &base)),
            &hashes,
            payload.len() as u64,
            sequence_digest(&hashes),
        );
        let resolve = |id: u64| (id == 8).then(|| base.clone());
        assert!(decode_manifest(&wire, resolve).is_ok(), "full wire decodes");
        for cut in 0..wire.len() {
            match decode_manifest(&wire[..cut], resolve) {
                Ok(m) => panic!("seed {seed} cut {cut}: truncated manifest decoded: {m:?}"),
                Err(e) => {
                    let _ = e.to_string(); // typed report; formatting must not panic
                }
            }
        }
    }
}

#[test]
fn dangling_chunk_hashes_fail_closed() {
    let mut rng = SimRng::seed_from_u64(42).split(CORRUPTION_STREAM ^ 1);
    let (payload, mut hashes, store) = chunked_payload(&mut rng, 6);
    // Point one manifest entry at a chunk the store has never seen.
    let victim = rng.u64_below(hashes.len() as u64) as usize;
    let dangling = rng.next_u64();
    hashes[victim] = dangling;
    let wire = encode_manifest(
        3,
        None,
        &hashes,
        payload.len() as u64,
        sequence_digest(&hashes),
    );
    let m = decode_manifest(&wire, |_| None).expect("dangling hashes still decode");
    assert_eq!(
        restore_from_manifest(&m, &store),
        Err(ManifestError::MissingChunk { hash: dangling }),
        "a dangling reference must be a typed miss, not garbage bytes"
    );
}

/// One random bit flip anywhere in the wire manifest: decode + restore
/// either fails typed or returns the exact original payload (a flip in
/// bookkeeping fields like the ckpt id is harmless). Wrong bytes are
/// impossible — per-chunk hashes catch substitution, the length check
/// catches drift, and the whole-payload digest catches genuine chunks
/// reassembled in the wrong order.
#[test]
fn manifest_bit_flips_never_restore_wrong_bytes() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(CORRUPTION_STREAM ^ 2);
        for case in 0..300 {
            let (payload, hashes, store) = chunked_payload(&mut rng, 8);
            let with_base = rng.bernoulli(0.5);
            let base: Vec<u64> = hashes
                .iter()
                .map(|&h| {
                    if rng.bernoulli(0.6) {
                        h
                    } else {
                        rng.next_u64()
                    }
                })
                .collect();
            let wire = encode_manifest(
                11,
                with_base.then_some((10, base.as_slice())),
                &hashes,
                payload.len() as u64,
                sequence_digest(&hashes),
            );
            let mut flipped = wire.to_vec();
            let offset = rng.u64_below(flipped.len() as u64) as usize;
            flipped[offset] ^= 1u8 << rng.u64_below(8);
            let context = format!("seed {seed} case {case} flip@{offset}");
            match decode_manifest(&flipped, |id| (id == 10).then(|| base.clone())) {
                Ok(m) => match restore_from_manifest(&m, &store) {
                    Ok(restored) => {
                        assert_eq!(
                            restored.as_ref(),
                            payload.as_slice(),
                            "{context}: a flip that survives all checks must be benign"
                        );
                    }
                    Err(e) => {
                        let _ = e.to_string();
                    }
                },
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }
}

const SPEC_BYTES: u64 = 256 * 1024;

fn module_with_db() -> (CheckpointingModule, Arc<CanaryDb>) {
    let db = Arc::new(CanaryDb::new(3));
    let m = CheckpointingModule::new(
        CanaryConfig::default(),
        StorageHierarchy::default(),
        Arc::clone(&db),
    );
    (m, db)
}

/// The payload `record` stored for `(fn_id, state)`, rebuilt
/// independently so a mis-restore cannot agree with it by accident.
fn expected_payload(m: &CheckpointingModule, fn_id: u64, state: u32) -> Bytes {
    build_payload(
        fn_id,
        state,
        m.effective_bytes(SPEC_BYTES),
        SimTime::from_micros(state as u64 + 1),
        m.options().chunk_size,
    )
}

/// Module level: flip one bit in a stored wire manifest (the newest
/// checkpoint's db payload row). The restore walk must return some
/// checkpoint with exactly its original bytes — typically the next
/// older one — or nothing; never a panic, never wrong bytes.
#[test]
fn stored_manifest_flips_fall_back_to_older_checkpoints() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(CORRUPTION_STREAM ^ 3);
        for case in 0..60 {
            let (mut m, db) = module_with_db();
            let fn_id = rng.u64_below(8);
            let mut states = Vec::new(); // (ckpt_id, state, location)
            for state in 0..4u32 {
                let now = SimTime::from_micros(state as u64 + 1);
                // `record` returns the *evicted* id; new checkpoint ids
                // are assigned sequentially from zero.
                m.record(fn_id as u32, fn_id, state, SPEC_BYTES, now)
                    .expect("record");
                let ckpt = state as u64;
                states.push((ckpt, state, canary_core::db::payload_location(fn_id, ckpt)));
            }
            let (_, _, location) = states.last().unwrap();
            let stored = db.get_payload(location).expect("stored manifest");
            let mut mutated = stored.to_vec();
            let offset = rng.u64_below(mutated.len() as u64) as usize;
            mutated[offset] ^= 1u8 << rng.u64_below(8);
            db.put_payload(location, Bytes::from(mutated)).expect("put");
            let context = format!("seed {seed} case {case} fn {fn_id} flip@{offset}");
            match m.restore_payload(fn_id, &|_| false) {
                Some((ckpt, bytes)) => {
                    let (_, state, _) = states
                        .iter()
                        .find(|(c, _, _)| *c == ckpt)
                        .unwrap_or_else(|| panic!("{context}: unknown ckpt {ckpt} restored"));
                    assert_eq!(
                        bytes,
                        expected_payload(&m, fn_id, *state),
                        "{context}: restored ckpt {ckpt} must be byte-exact"
                    );
                }
                None => panic!("{context}: two undamaged older checkpoints remained"),
            }
        }
    }
}

/// Module level: flip one bit in a random physical chunk. Every
/// checkpoint whose manifest references that chunk must drop out of the
/// restore walk; the restore must land on the newest untouched
/// checkpoint, byte-exact — or nothing when the damage reaches all of
/// them.
#[test]
fn chunk_flips_invalidate_exactly_the_referencing_checkpoints() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed).split(CORRUPTION_STREAM ^ 4);
        for case in 0..60 {
            let (mut m, _db) = module_with_db();
            let fn_id = rng.u64_below(8);
            let mut states = Vec::new();
            for state in 0..4u32 {
                let now = SimTime::from_micros(state as u64 + 1);
                m.record(fn_id as u32, fn_id, state, SPEC_BYTES, now)
                    .expect("record");
                states.push((state as u64, state));
            }
            // Pick a random chunk of a random retained checkpoint.
            let (victim_ckpt, _) = states[states.len() - 1 - rng.u64_below(3) as usize];
            let hashes = m.chunk_hashes(fn_id, victim_ckpt).expect("retained");
            let idx = rng.u64_below(hashes.len() as u64) as u32;
            let hash = m
                .corrupt_ckpt_chunk(fn_id, victim_ckpt, idx)
                .expect("corruption lands");
            let affected: Vec<u64> = states
                .iter()
                .filter(|(c, _)| {
                    m.chunk_hashes(fn_id, *c)
                        .is_some_and(|hs| hs.contains(&hash))
                })
                .map(|(c, _)| *c)
                .collect();
            assert!(affected.contains(&victim_ckpt));
            let survivor = states
                .iter()
                .rev()
                .find(|(c, _)| !affected.contains(c) && m.chunk_hashes(fn_id, *c).is_some());
            let context = format!("seed {seed} case {case} fn {fn_id} chunk {hash:016x}");
            match m.restore_payload(fn_id, &|_| false) {
                Some((ckpt, bytes)) => {
                    let (expect_ckpt, state) = survivor
                        .unwrap_or_else(|| panic!("{context}: restored {ckpt} but all affected"));
                    assert_eq!(
                        ckpt, *expect_ckpt,
                        "{context}: must restore the newest unaffected checkpoint"
                    );
                    assert_eq!(
                        bytes,
                        expected_payload(&m, fn_id, *state),
                        "{context}: restored bytes must be byte-exact"
                    );
                }
                None => assert!(
                    survivor.is_none(),
                    "{context}: an unaffected checkpoint was wrongly skipped"
                ),
            }
        }
    }
}
