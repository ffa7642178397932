//! Graph-search kernel: breadth-first search over a complete binary tree
//! (SeBS 501.graph-bfs; the paper uses a 50 M-vertex binary tree with a
//! checkpoint every 1 M traversed vertices).
//!
//! The tree is implicit: vertex `v` has children `2v+1` and `2v+2`, so BFS
//! visitation order over a complete binary tree is exactly index order and
//! the traversal needs no frontier queue. Each visited vertex contributes
//! to an order-sensitive digest and to a per-depth visit histogram, so a
//! resumed traversal that skipped or repeated any vertex is detectable.

use super::{mix, Resumable};
use crate::codec::{CodecError, Decoder, Encoder};
use bytes::Bytes;

/// Maximum tree depth tracked in the per-level histogram (2^40 vertices is
/// far beyond any configuration we run).
const MAX_DEPTH: usize = 40;

/// BFS kernel configuration.
#[derive(Debug, Clone)]
pub struct BfsKernel {
    /// Total vertices in the complete binary tree.
    pub vertices: u64,
    /// Vertices traversed per step (checkpoint interval; 1 M in the paper).
    pub segment: u64,
}

/// Traversal state between checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsState {
    /// Next vertex index to visit.
    pub next: u64,
    /// Order-sensitive digest over visited vertices.
    pub acc: u64,
    /// Visited-vertex count per tree level.
    pub level_counts: Vec<u64>,
}

impl BfsKernel {
    /// New kernel; panics on degenerate parameters.
    pub fn new(vertices: u64, segment: u64) -> Self {
        assert!(vertices > 0 && segment > 0, "bad BFS parameters");
        BfsKernel { vertices, segment }
    }

    /// The paper's configuration: 50 M vertices, 1 M per checkpoint.
    pub fn paper() -> Self {
        BfsKernel::new(50_000_000, 1_000_000)
    }

    /// Depth of vertex `v` in the complete binary tree rooted at 0.
    #[inline]
    pub fn depth(v: u64) -> u32 {
        // Level k spans [2^k - 1, 2^(k+1) - 2]; depth = floor(log2(v + 1)).
        (v + 1).ilog2()
    }
}

impl Resumable for BfsKernel {
    type State = BfsState;

    fn name(&self) -> &'static str {
        "graph-bfs"
    }

    fn num_steps(&self) -> u64 {
        self.vertices.div_ceil(self.segment)
    }

    fn init(&self) -> BfsState {
        BfsState {
            next: 0,
            acc: 0,
            level_counts: vec![0; MAX_DEPTH],
        }
    }

    fn step(&self, state: &mut BfsState) -> bool {
        if state.next >= self.vertices {
            return false;
        }
        let end = (state.next + self.segment).min(self.vertices);
        let mut acc = state.acc;
        for v in state.next..end {
            acc = mix(acc, v);
            let d = Self::depth(v) as usize;
            state.level_counts[d.min(MAX_DEPTH - 1)] += 1;
        }
        state.acc = acc;
        state.next = end;
        state.next < self.vertices
    }

    fn steps_done(&self, state: &BfsState) -> u64 {
        state.next.div_ceil(self.segment)
    }

    fn encode(&self, state: &BfsState) -> Bytes {
        let mut e = Encoder::with_capacity(16 + 8 * MAX_DEPTH);
        e.put_u8(1); // version
        e.put_u64(state.next);
        e.put_u64(state.acc);
        e.put_u32(state.level_counts.len() as u32);
        for &c in &state.level_counts {
            e.put_u64(c);
        }
        e.finish()
    }

    fn decode(&self, bytes: &[u8]) -> Result<BfsState, CodecError> {
        let mut d = Decoder::new(bytes);
        let ver = d.u8("bfs version")?;
        if ver != 1 {
            return Err(CodecError::BadTag {
                what: "bfs version",
                value: ver as u64,
            });
        }
        let next = d.u64("bfs next")?;
        let acc = d.u64("bfs acc")?;
        let n = d.len_prefix("bfs levels len", 8)?;
        let mut level_counts = Vec::with_capacity(n);
        for _ in 0..n {
            level_counts.push(d.u64("bfs level count")?);
        }
        d.finish("bfs state")?;
        Ok(BfsState {
            next,
            acc,
            level_counts,
        })
    }

    fn digest(&self, state: &BfsState) -> u64 {
        let mut h = state.acc;
        for &c in &state.level_counts {
            h = mix(h, c);
        }
        mix(h, state.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_uninterrupted, run_with_checkpoint_churn};

    #[test]
    fn decode_rejects_a_level_count_the_input_cannot_hold() {
        let mut e = Encoder::new();
        e.put_u8(1).put_u64(0).put_u64(0).put_u32(u32::MAX);
        assert!(matches!(
            BfsKernel::new(10, 2).decode(&e.finish()),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn depth_formula() {
        assert_eq!(BfsKernel::depth(0), 0);
        assert_eq!(BfsKernel::depth(1), 1);
        assert_eq!(BfsKernel::depth(2), 1);
        assert_eq!(BfsKernel::depth(3), 2);
        assert_eq!(BfsKernel::depth(6), 2);
        assert_eq!(BfsKernel::depth(7), 3);
    }

    #[test]
    fn step_count_matches_segments() {
        let k = BfsKernel::new(2_500, 1_000);
        assert_eq!(k.num_steps(), 3);
        let mut st = k.init();
        let mut steps = 0;
        while k.step(&mut st) {
            steps += 1;
        }
        steps += 1; // final step returned false but did work
        assert_eq!(steps, 3);
        assert_eq!(st.next, 2_500);
    }

    #[test]
    fn churn_equals_uninterrupted() {
        let k = BfsKernel::new(10_000, 777);
        assert_eq!(run_uninterrupted(&k), run_with_checkpoint_churn(&k));
    }

    #[test]
    fn level_counts_are_powers_of_two() {
        let k = BfsKernel::new(15, 100); // complete 4-level tree
        let mut st = k.init();
        k.run_to_completion(&mut st);
        assert_eq!(&st.level_counts[0..4], &[1, 2, 4, 8]);
    }

    #[test]
    fn digest_detects_skipped_vertex() {
        let k = BfsKernel::new(1_000, 100);
        let mut good = k.init();
        k.run_to_completion(&mut good);
        // Tamper: pretend one extra vertex was processed at the start.
        let mut bad = k.init();
        bad.next = 1;
        k.run_to_completion(&mut bad);
        assert_ne!(k.digest(&good), k.digest(&bad));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let k = BfsKernel::new(10, 2);
        let mut bytes = k.encode(&k.init()).to_vec();
        bytes[0] = 9;
        assert!(k.decode(&bytes).is_err());
    }

    #[test]
    fn step_after_done_is_noop() {
        let k = BfsKernel::new(10, 100);
        let mut st = k.init();
        assert!(!k.step(&mut st));
        let snapshot = st.clone();
        assert!(!k.step(&mut st));
        assert_eq!(st, snapshot);
        assert!(k.is_done(&st));
    }
}
