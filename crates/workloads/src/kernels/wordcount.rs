//! MapReduce wordcount — the paper's §I motivating workflow, as a real
//! two-stage resumable computation: "a MapReduce workload launches
//! mappers that process the input data and produce intermediate data.
//! The reducers are launched after successful mapper execution and
//! consume mappers output to produce the final result."
//!
//! Each [`MapKernel`] tokenizes a deterministic synthetic document shard
//! chunk by chunk (one chunk = one checkpointable state) into partial
//! term counts partitioned by reducer. Each [`ReduceKernel`] merges the
//! partial counts destined for its partition. Both stages checkpoint and
//! resume exactly like the other kernels, so a chained FaaS workflow can
//! lose containers in either stage and still produce identical counts.

use super::{fnv1a, mix, Resumable};
use crate::codec::{CodecError, Decoder, Encoder};
use bytes::Bytes;
use canary_sim::SimRng;
use std::collections::BTreeMap;

/// Vocabulary used by the synthetic document generator. Zipf-ish: earlier
/// words are drawn far more often.
const VOCAB: [&str; 24] = [
    "the",
    "of",
    "and",
    "to",
    "in",
    "function",
    "state",
    "checkpoint",
    "replica",
    "failure",
    "recovery",
    "container",
    "runtime",
    "serverless",
    "cluster",
    "node",
    "storage",
    "latency",
    "cost",
    "workload",
    "canary",
    "retry",
    "warm",
    "cold",
];

/// Deterministic shard text: `chunks` chunks of `words_per_chunk` words.
fn chunk_words(shard_seed: u64, chunk: u64, words_per_chunk: usize) -> Vec<&'static str> {
    let mut rng = SimRng::seed_from_u64(shard_seed).split(chunk);
    (0..words_per_chunk)
        .map(|_| {
            // Zipf-ish skew: square the uniform draw.
            let u = rng.f64();
            let idx = ((u * u) * VOCAB.len() as f64) as usize;
            VOCAB[idx.min(VOCAB.len() - 1)]
        })
        .collect()
}

/// Reducer partition of a word: stable hash mod partition count.
pub fn partition_of(word: &str, partitions: u32) -> u32 {
    (fnv1a(word.as_bytes()) % partitions as u64) as u32
}

/// Intermediate data: per-partition word counts.
pub type PartialCounts = BTreeMap<String, u64>;

fn encode_counts(counts: &PartialCounts, e: &mut Encoder) {
    e.put_u32(counts.len() as u32);
    for (w, c) in counts {
        e.put_str(w).put_u64(*c);
    }
}

fn decode_counts(d: &mut Decoder) -> Result<PartialCounts, CodecError> {
    let n = d.u32("counts len")?;
    let mut out = PartialCounts::new();
    for _ in 0..n {
        let w = d.str("word")?;
        let c = d.u64("count")?;
        out.insert(w, c);
    }
    Ok(out)
}

/// The map stage: tokenize one shard, chunk by chunk.
#[derive(Debug, Clone)]
pub struct MapKernel {
    /// Shard identity (drives the synthetic text).
    pub shard_seed: u64,
    /// Chunks in the shard (one checkpoint per chunk).
    pub chunks: u64,
    /// Words per chunk.
    pub words_per_chunk: usize,
    /// Number of reduce partitions.
    pub partitions: u32,
}

/// Mapper state: per-partition partial counts plus progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapState {
    /// Next chunk to tokenize.
    pub next_chunk: u64,
    /// Partial counts per partition.
    pub outputs: Vec<PartialCounts>,
}

impl MapKernel {
    /// New mapper; panics on degenerate parameters.
    pub fn new(shard_seed: u64, chunks: u64, words_per_chunk: usize, partitions: u32) -> Self {
        assert!(chunks > 0 && words_per_chunk > 0 && partitions > 0);
        MapKernel {
            shard_seed,
            chunks,
            words_per_chunk,
            partitions,
        }
    }
}

impl Resumable for MapKernel {
    type State = MapState;

    fn name(&self) -> &'static str {
        "wordcount-map"
    }

    fn num_steps(&self) -> u64 {
        self.chunks
    }

    fn init(&self) -> MapState {
        MapState {
            next_chunk: 0,
            outputs: vec![PartialCounts::new(); self.partitions as usize],
        }
    }

    fn step(&self, state: &mut MapState) -> bool {
        if state.next_chunk >= self.chunks {
            return false;
        }
        for word in chunk_words(self.shard_seed, state.next_chunk, self.words_per_chunk) {
            let p = partition_of(word, self.partitions) as usize;
            *state.outputs[p].entry(word.to_string()).or_insert(0) += 1;
        }
        state.next_chunk += 1;
        state.next_chunk < self.chunks
    }

    fn steps_done(&self, state: &MapState) -> u64 {
        state.next_chunk
    }

    fn encode(&self, state: &MapState) -> Bytes {
        let mut e = Encoder::new();
        e.put_u8(1)
            .put_u64(state.next_chunk)
            .put_u32(state.outputs.len() as u32);
        for counts in &state.outputs {
            encode_counts(counts, &mut e);
        }
        e.finish()
    }

    fn decode(&self, bytes: &[u8]) -> Result<MapState, CodecError> {
        let mut d = Decoder::new(bytes);
        let ver = d.u8("map version")?;
        if ver != 1 {
            return Err(CodecError::BadTag {
                what: "map version",
                value: ver as u64,
            });
        }
        let next_chunk = d.u64("next_chunk")?;
        // Each partition's counts start with a `u32` length.
        let parts = d.len_prefix("partitions", 4)?;
        let mut outputs = Vec::with_capacity(parts);
        for _ in 0..parts {
            outputs.push(decode_counts(&mut d)?);
        }
        d.finish("map state")?;
        Ok(MapState {
            next_chunk,
            outputs,
        })
    }

    fn digest(&self, state: &MapState) -> u64 {
        let mut h = mix(0, state.next_chunk);
        for counts in &state.outputs {
            for (w, c) in counts {
                h = mix(h, fnv1a(w.as_bytes()) ^ *c);
            }
        }
        h
    }
}

/// The reduce stage: merge mapper outputs for one partition, one mapper
/// input per step.
#[derive(Debug, Clone)]
pub struct ReduceKernel {
    /// The partition this reducer owns.
    pub partition: u32,
    /// The mapper outputs destined for this partition, in mapper order.
    pub inputs: Vec<PartialCounts>,
}

/// Reducer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceState {
    /// Next mapper input to merge.
    pub next_input: u64,
    /// Merged counts so far.
    pub merged: PartialCounts,
}

impl ReduceKernel {
    /// New reducer over mapper outputs.
    pub fn new(partition: u32, inputs: Vec<PartialCounts>) -> Self {
        assert!(!inputs.is_empty(), "reducer needs at least one input");
        ReduceKernel { partition, inputs }
    }
}

impl Resumable for ReduceKernel {
    type State = ReduceState;

    fn name(&self) -> &'static str {
        "wordcount-reduce"
    }

    fn num_steps(&self) -> u64 {
        self.inputs.len() as u64
    }

    fn init(&self) -> ReduceState {
        ReduceState {
            next_input: 0,
            merged: PartialCounts::new(),
        }
    }

    fn step(&self, state: &mut ReduceState) -> bool {
        if state.next_input >= self.inputs.len() as u64 {
            return false;
        }
        for (w, c) in &self.inputs[state.next_input as usize] {
            *state.merged.entry(w.clone()).or_insert(0) += c;
        }
        state.next_input += 1;
        state.next_input < self.inputs.len() as u64
    }

    fn steps_done(&self, state: &ReduceState) -> u64 {
        state.next_input
    }

    fn encode(&self, state: &ReduceState) -> Bytes {
        let mut e = Encoder::new();
        e.put_u8(1).put_u64(state.next_input);
        encode_counts(&state.merged, &mut e);
        e.finish()
    }

    fn decode(&self, bytes: &[u8]) -> Result<ReduceState, CodecError> {
        let mut d = Decoder::new(bytes);
        let ver = d.u8("reduce version")?;
        if ver != 1 {
            return Err(CodecError::BadTag {
                what: "reduce version",
                value: ver as u64,
            });
        }
        let next_input = d.u64("next_input")?;
        let merged = decode_counts(&mut d)?;
        d.finish("reduce state")?;
        Ok(ReduceState { next_input, merged })
    }

    fn digest(&self, state: &ReduceState) -> u64 {
        let mut h = mix(0, state.next_input);
        for (w, c) in &state.merged {
            h = mix(h, fnv1a(w.as_bytes()) ^ *c);
        }
        h
    }
}

/// Run a full wordcount job sequentially (reference implementation used
/// by tests and examples): `shards` mappers, `partitions` reducers.
pub fn wordcount_reference(
    shards: u64,
    chunks: u64,
    words_per_chunk: usize,
    partitions: u32,
) -> PartialCounts {
    let mappers: Vec<MapState> = (0..shards)
        .map(|s| {
            let k = MapKernel::new(s, chunks, words_per_chunk, partitions);
            let mut st = k.init();
            k.run_to_completion(&mut st);
            st
        })
        .collect();
    let mut total = PartialCounts::new();
    for p in 0..partitions {
        let inputs: Vec<PartialCounts> = mappers
            .iter()
            .map(|m| m.outputs[p as usize].clone())
            .collect();
        let k = ReduceKernel::new(p, inputs);
        let mut st = k.init();
        k.run_to_completion(&mut st);
        for (w, c) in st.merged {
            *total.entry(w).or_insert(0) += c;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_uninterrupted, run_with_checkpoint_churn};

    #[test]
    fn map_decode_rejects_a_partition_count_the_input_cannot_hold() {
        let mut e = Encoder::new();
        e.put_u8(1).put_u64(0).put_u32(u32::MAX);
        assert!(matches!(
            MapKernel::new(3, 8, 500, 4).decode(&e.finish()),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn map_churn_equals_uninterrupted() {
        let k = MapKernel::new(3, 8, 500, 4);
        assert_eq!(run_uninterrupted(&k), run_with_checkpoint_churn(&k));
    }

    #[test]
    fn reduce_churn_equals_uninterrupted() {
        let map = MapKernel::new(1, 4, 300, 2);
        let mut st = map.init();
        map.run_to_completion(&mut st);
        let k = ReduceKernel::new(0, vec![st.outputs[0].clone(), st.outputs[0].clone()]);
        assert_eq!(run_uninterrupted(&k), run_with_checkpoint_churn(&k));
    }

    #[test]
    fn partitioning_is_exhaustive_and_stable() {
        for w in VOCAB {
            let p = partition_of(w, 4);
            assert!(p < 4);
            assert_eq!(p, partition_of(w, 4));
        }
    }

    #[test]
    fn total_counts_equal_words_generated() {
        let shards = 3u64;
        let chunks = 5u64;
        let wpc = 200usize;
        let total = wordcount_reference(shards, chunks, wpc, 4);
        let sum: u64 = total.values().sum();
        assert_eq!(sum, shards * chunks * wpc as u64);
    }

    #[test]
    fn partition_count_does_not_change_totals() {
        let a = wordcount_reference(2, 4, 150, 2);
        let b = wordcount_reference(2, 4, 150, 7);
        assert_eq!(a, b, "reducer fan-in must not change word totals");
    }

    #[test]
    fn zipf_skew_present() {
        let total = wordcount_reference(4, 10, 500, 4);
        let the = *total.get("the").unwrap_or(&0);
        let cold = *total.get("cold").unwrap_or(&0);
        assert!(the > cold * 3, "head word {the} vs tail word {cold}");
    }

    #[test]
    fn map_state_round_trip_mid_run() {
        let k = MapKernel::new(9, 6, 100, 3);
        let mut st = k.init();
        k.step(&mut st);
        k.step(&mut st);
        assert_eq!(k.decode(&k.encode(&st)).unwrap(), st);
    }

    #[test]
    fn bad_versions_rejected() {
        let k = MapKernel::new(0, 1, 10, 1);
        let mut bytes = k.encode(&k.init()).to_vec();
        bytes[0] = 42;
        assert!(k.decode(&bytes).is_err());
        let r = ReduceKernel::new(0, vec![PartialCounts::new()]);
        let mut bytes = r.encode(&r.init()).to_vec();
        bytes[0] = 42;
        assert!(r.decode(&bytes).is_err());
    }
}
