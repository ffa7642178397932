//! Property-based tests for the workload kernels and checkpoint codec.

use canary_workloads::kernels::compression::{rle_compress, rle_decompress};
use canary_workloads::{
    BfsKernel, CensusData, CompressionKernel, Decoder, DiversityKernel, Encoder, MapKernel,
    Resumable, TrainingKernel, WebQueryKernel,
};
use proptest::prelude::*;

proptest! {
    /// RLE is exactly invertible for arbitrary byte strings.
    #[test]
    fn rle_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let compressed = rle_compress(&data);
        prop_assert_eq!(rle_decompress(&compressed).unwrap(), data);
    }

    /// RLE decompression never panics on arbitrary (possibly corrupt)
    /// input — it returns an error instead.
    #[test]
    fn rle_decompress_total(garbage in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = rle_decompress(&garbage);
    }

    /// Highly repetitive data always shrinks.
    #[test]
    fn rle_compresses_runs(byte in any::<u8>(), len in 64usize..4096) {
        let data = vec![byte; len];
        prop_assert!(rle_compress(&data).len() < data.len());
    }

    /// Codec scalars round-trip for arbitrary values.
    #[test]
    fn codec_scalars_round_trip(a in any::<u8>(), b in any::<u32>(), c in any::<u64>(), d in any::<f64>()) {
        prop_assume!(!d.is_nan());
        let mut e = Encoder::new();
        e.put_u8(a).put_u32(b).put_u64(c).put_f64(d);
        let bytes = e.finish();
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.u8("a").unwrap(), a);
        prop_assert_eq!(dec.u32("b").unwrap(), b);
        prop_assert_eq!(dec.u64("c").unwrap(), c);
        prop_assert_eq!(dec.f64("d").unwrap(), d);
        dec.finish("all").unwrap();
    }

    /// Decoding arbitrary bytes as any kernel state never panics.
    #[test]
    fn kernel_decoders_are_total(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = BfsKernel::new(10, 2).decode(&garbage);
        let _ = CompressionKernel::new(2, 64, 0).decode(&garbage);
        let _ = TrainingKernel::default().decode(&garbage);
        let _ = WebQueryKernel::new(CensusData::generate(4, 2, 0), 2, 0).decode(&garbage);
        let _ = DiversityKernel::new(CensusData::generate(4, 2, 0), 2).decode(&garbage);
        let _ = MapKernel::new(1, 2, 8, 2).decode(&garbage);
    }

    /// BFS kill-at-any-step + restore matches uninterrupted, for
    /// arbitrary tree sizes and segment lengths.
    #[test]
    fn bfs_restore_equivalence(
        vertices in 1u64..20_000,
        segment in 1u64..5_000,
        kill_step_frac in 0.0f64..1.0,
    ) {
        let kernel = BfsKernel::new(vertices, segment);
        let mut reference = kernel.init();
        while kernel.step(&mut reference) {}

        let kill_after = ((kernel.num_steps() as f64 * kill_step_frac) as u64).max(1);
        let mut state = kernel.init();
        let mut checkpoint;
        let mut steps = 0;
        while kernel.step(&mut state) {
            checkpoint = kernel.encode(&state);
            steps += 1;
            if steps == kill_after {
                state = kernel.decode(&checkpoint).unwrap();
            }
        }
        prop_assert_eq!(kernel.digest(&reference), kernel.digest(&state));
    }

    /// Compression kernel state round-trips through its codec at every
    /// step for arbitrary file shapes.
    #[test]
    fn compression_state_round_trip(files in 1u64..6, bytes in 16usize..2048, seed in any::<u64>()) {
        let kernel = CompressionKernel::new(files, bytes, seed);
        let mut state = kernel.init();
        loop {
            let more = kernel.step(&mut state);
            let decoded = kernel.decode(&kernel.encode(&state)).unwrap();
            prop_assert_eq!(&decoded, &state);
            if !more {
                break;
            }
        }
    }

    /// The census generator is a pure function of its arguments and
    /// always produces positive populations.
    #[test]
    fn census_generation_properties(counties in 1u32..64, states in 1u32..16, seed in any::<u64>()) {
        let a = CensusData::generate(counties, states, seed);
        let b = CensusData::generate(counties, states, seed);
        prop_assert_eq!(&a.rows, &b.rows);
        prop_assert_eq!(a.len(), counties as usize);
        for row in &a.rows {
            prop_assert!(row.total() > 0);
            prop_assert!(row.state_id < states);
        }
    }

    /// Shannon index is bounded by ln(k) for k groups.
    #[test]
    fn shannon_bounded(counts in proptest::collection::vec(0u64..1_000_000, 1..6)) {
        let h = canary_workloads::shannon_index(&counts);
        let k = counts.iter().filter(|&&c| c > 0).count();
        prop_assert!(h >= 0.0);
        if k > 0 {
            prop_assert!(h <= (k as f64).ln() + 1e-9, "h={h} k={k}");
        }
    }
}
