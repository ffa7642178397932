//! The benchmark's own spans: an in-memory span log, the self-time math
//! over span trees, and [`Spanned`], an [`FtStrategy`] wrapper that
//! records one span per strategy hook call.
//!
//! Spans are recorded from the benchmark's files around the calls into
//! the strategy layer; nothing inside the program is instrumented. The
//! engine's own time is what the run span keeps after its hook children
//! are taken out, so `engine.self_ms` and the hook times tie out to the
//! run span exactly, in integer nanoseconds.

use canary_cluster::FaultEvent;
use canary_container::ContainerId;
use canary_platform::{
    ArrivalVerdict, FailureInfo, FnId, FtStrategy, JobId, Platform, RecoveryPlan,
};
use canary_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the log's base
/// instant; `id` is the job or function the span concerns (0 when none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns since the log's base.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Index of the parent span in the log, or [`NO_PARENT`].
    pub parent: u32,
    /// Job or function id (truncated to 32 bits).
    pub id: u32,
    /// Index into the log's name table.
    pub name: u8,
}

impl Span {
    /// End, ns since the log's base.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other and may
/// stick out of their parent; only the union of their intervals, clipped
/// to the parent, is taken out.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    // Child indices grouped by parent, each group in start order.
    let mut kids: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].parent != NO_PARENT)
        .collect();
    kids.sort_unstable_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    for group in kids.chunk_by(|&a, &b| spans[a as usize].parent == spans[b as usize].parent) {
        let parent = spans[group[0] as usize].parent as usize;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns());
        let mut reach = lo;
        for &k in group {
            let child = &spans[k as usize];
            let (a, b) = (child.start_ns.max(reach), child.end_ns().min(hi));
            if b > a {
                own[parent] -= b - a;
                reach = b;
            }
        }
    }
    own
}

/// Spans in memory, named from a fixed table.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    names: &'static [&'static str],
    spans: Vec<Span>,
}

impl SpanLog {
    /// Empty log over a name table.
    pub fn new(names: &'static [&'static str]) -> Self {
        SpanLog {
            base: Instant::now(),
            names,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log's base.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index.
    pub fn push(&mut self, name: u8, id: u64, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        debug_assert!((name as usize) < self.names.len());
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            start_ns,
            dur_ns: end_ns - start_ns,
            parent,
            id: id as u32,
            name,
        });
        idx
    }

    /// Open a span whose end is not known yet (a parent); close it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: u8, id: u64, parent: u32) -> u32 {
        let now = self.now_ns();
        self.push(name, id, parent, now, now)
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&mut self, idx: u32) {
        let now = self.now_ns();
        let s = &mut self.spans[idx as usize];
        s.dur_ns = now - s.start_ns;
    }

    /// Every span, in push order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The name table.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Write the log as tab-separated lines `name id parent start_ns
    /// end_ns` (parent `-` for roots), at most `limit` spans, followed by
    /// a `# spans N written M` trailer.
    pub fn dump(&self, out: &mut impl std::io::Write, limit: usize) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        writeln!(w, "# name\tid\tparent\tstart_ns\tend_ns")?;
        let written = self.spans.len().min(limit);
        for s in &self.spans[..written] {
            let name = self.names[s.name as usize];
            if s.parent == NO_PARENT {
                writeln!(w, "{name}\t{}\t-\t{}\t{}", s.id, s.start_ns, s.end_ns())?;
            } else {
                writeln!(
                    w,
                    "{name}\t{}\t{}\t{}\t{}",
                    s.id,
                    s.parent,
                    s.start_ns,
                    s.end_ns()
                )?;
            }
        }
        writeln!(w, "# spans {} written {written}", self.spans.len())?;
        w.flush()
    }
}

/// Span names of the traced run: the run root, then one per hook.
pub const HOOK_NAMES: [&str; 12] = [
    "run",
    "on_job_arrival",
    "on_job_admitted",
    "attempt_clones",
    "state_overhead",
    "on_state_durable",
    "on_failure",
    "on_chaos",
    "on_replica_warm",
    "on_containers_lost",
    "on_function_complete",
    "on_run_end",
];

/// Name index of the run root span.
pub const RUN: u8 = 0;
const ARRIVAL: u8 = 1;
const ADMITTED: u8 = 2;
const CLONES: u8 = 3;
const OVERHEAD: u8 = 4;
const DURABLE: u8 = 5;
const FAILURE: u8 = 6;
const CHAOS: u8 = 7;
const REPLICA_WARM: u8 = 8;
const CONTAINERS_LOST: u8 = 9;
const COMPLETE: u8 = 10;
const RUN_END: u8 = 11;

/// One state-plane operation the strategy performed, as seen from its
/// hooks: the checkpoint stream the layer replays are driven by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// A checkpoint was written for a durable state.
    Write {
        /// Owning job.
        job: u32,
        /// Function.
        fn_id: u64,
        /// Checkpointed state.
        state: u32,
        /// The state's checkpoint size as the workload specifies it.
        spec_bytes: u64,
        /// When the state became durable.
        at: SimTime,
    },
    /// A failure was recovered from checkpointed state.
    Restore {
        /// Function.
        fn_id: u64,
        /// True when the recovery migrated state to a warm replica.
        migrated: bool,
    },
    /// A function completed; its checkpoints are dropped.
    Complete {
        /// Function.
        fn_id: u64,
    },
}

/// A strategy wrapper that records one span per hook call under a root
/// run span, plus the checkpoint stream. The inner strategy sees exactly
/// the calls it would see unwrapped, so the simulated run is unchanged.
pub struct Spanned<'a> {
    inner: &'a mut dyn FtStrategy,
    log: RefCell<SpanLog>,
    root: u32,
    stream: Vec<StreamOp>,
}

impl<'a> Spanned<'a> {
    /// Wrap `inner`; the run span opens now.
    pub fn new(inner: &'a mut dyn FtStrategy) -> Self {
        let mut log = SpanLog::new(&HOOK_NAMES);
        let root = log.open(RUN, 0, NO_PARENT);
        Spanned {
            inner,
            log: RefCell::new(log),
            root,
            stream: Vec::new(),
        }
    }

    /// Close the run span and hand back the log and the stream.
    pub fn finish(self) -> (SpanLog, Vec<StreamOp>) {
        let mut log = self.log.into_inner();
        log.close(self.root);
        (log, self.stream)
    }

    fn time<R>(&self, name: u8, id: u64, f: impl FnOnce() -> R) -> R {
        let start = self.log.borrow().now_ns();
        let out = f();
        self.close_hook(name, id, start);
        out
    }

    fn close_hook(&self, name: u8, id: u64, start: u64) {
        let mut log = self.log.borrow_mut();
        let end = log.now_ns();
        log.push(name, id, self.root, start, end);
    }
}

impl FtStrategy for Spanned<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, platform: &mut Platform, job: JobId) -> ArrivalVerdict {
        let start = self.log.borrow().now_ns();
        let verdict = self.inner.on_job_arrival(platform, job);
        self.close_hook(ARRIVAL, job.0 as u64, start);
        verdict
    }

    fn on_job_admitted(&mut self, platform: &mut Platform, job: JobId) {
        let start = self.log.borrow().now_ns();
        self.inner.on_job_admitted(platform, job);
        self.close_hook(ADMITTED, job.0 as u64, start);
    }

    fn attempt_clones(&self, platform: &Platform, fn_id: FnId) -> u32 {
        self.time(CLONES, fn_id.0, || {
            self.inner.attempt_clones(platform, fn_id)
        })
    }

    fn state_overhead(&self, platform: &Platform, fn_id: FnId, state_idx: u32) -> SimDuration {
        self.time(OVERHEAD, fn_id.0, || {
            self.inner.state_overhead(platform, fn_id, state_idx)
        })
    }

    fn on_state_durable(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        state_idx: u32,
        at: SimTime,
    ) {
        let written = platform.counters().checkpoints_written;
        let start = self.log.borrow().now_ns();
        self.inner.on_state_durable(platform, fn_id, state_idx, at);
        self.close_hook(DURABLE, fn_id.0, start);
        if platform.counters().checkpoints_written > written {
            let rec = platform.fn_record(fn_id);
            self.stream.push(StreamOp::Write {
                job: rec.job.0,
                fn_id: fn_id.0,
                state: state_idx,
                spec_bytes: rec.workload.states[state_idx as usize].ckpt_bytes,
                at,
            });
        }
    }

    fn on_failure(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        failure: FailureInfo,
    ) -> RecoveryPlan {
        let before = *platform.counters();
        let start = self.log.borrow().now_ns();
        let plan = self.inner.on_failure(platform, fn_id, failure);
        self.close_hook(FAILURE, fn_id.0, start);
        let after = platform.counters();
        let migrated = after.migrations > before.migrations;
        if migrated || after.restores > before.restores {
            self.stream.push(StreamOp::Restore {
                fn_id: fn_id.0,
                migrated,
            });
        }
        plan
    }

    fn on_chaos(&mut self, platform: &mut Platform, fault: &FaultEvent) {
        let start = self.log.borrow().now_ns();
        self.inner.on_chaos(platform, fault);
        self.close_hook(CHAOS, 0, start);
    }

    fn on_replica_warm(&mut self, platform: &mut Platform, container: ContainerId) {
        let start = self.log.borrow().now_ns();
        self.inner.on_replica_warm(platform, container);
        self.close_hook(REPLICA_WARM, 0, start);
    }

    fn on_containers_lost(&mut self, platform: &mut Platform, lost: &[ContainerId]) {
        let start = self.log.borrow().now_ns();
        self.inner.on_containers_lost(platform, lost);
        self.close_hook(CONTAINERS_LOST, 0, start);
    }

    fn on_function_complete(&mut self, platform: &mut Platform, fn_id: FnId) {
        let start = self.log.borrow().now_ns();
        self.inner.on_function_complete(platform, fn_id);
        self.close_hook(COMPLETE, fn_id.0, start);
        self.stream.push(StreamOp::Complete { fn_id: fn_id.0 });
    }

    fn on_run_end(&mut self, platform: &mut Platform) {
        let start = self.log.borrow().now_ns();
        self.inner.on_run_end(platform);
        self.close_hook(RUN_END, 0, start);
    }
}

/// Per-hook totals of a traced run, from the span log.
#[derive(Debug, Clone, Default)]
pub struct HookTotals {
    /// Calls per name (index as in [`HOOK_NAMES`]).
    pub calls: Vec<u64>,
    /// Self time per name, ns.
    pub self_ns: Vec<u64>,
    /// 99th-percentile call duration per name, ns.
    pub p99_ns: Vec<u64>,
    /// The run span's duration, ns.
    pub run_ns: u64,
}

impl HookTotals {
    /// Fold a traced run's log. The run span is the log's only root.
    pub fn from_log(log: &SpanLog) -> Self {
        let names = log.names().len();
        let spans = log.spans();
        let selfs = self_times(spans);
        let mut t = HookTotals {
            calls: vec![0; names],
            self_ns: vec![0; names],
            p99_ns: vec![0; names],
            run_ns: 0,
        };
        for (s, &own) in spans.iter().zip(&selfs) {
            let k = s.name as usize;
            t.calls[k] += 1;
            t.self_ns[k] += own;
            if s.parent == NO_PARENT {
                t.run_ns += s.dur_ns;
            }
        }
        for (k, p99) in t.p99_ns.iter_mut().enumerate() {
            let mut durs: Vec<u64> = spans
                .iter()
                .filter(|s| s.name as usize == k)
                .map(|s| s.dur_ns)
                .collect();
            *p99 = crate::stats::percentile_u64(&mut durs, 99.0);
        }
        t
    }

    /// True when the run span equals the engine's self time plus every
    /// hook's self time, to the nanosecond.
    pub fn ties_out(&self) -> bool {
        self.self_ns.iter().sum::<u64>() == self.run_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, parent: u32, start: u64, end: u64) -> Span {
        Span {
            start_ns: start,
            dur_ns: end - start,
            parent,
            id: 0,
            name,
        }
    }

    #[test]
    fn self_time_of_disjoint_children() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 20),
            span(1, 0, 30, 45),
        ];
        assert_eq!(self_times(&spans), vec![75, 10, 15]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [10,40) and [30,60) overlap on [30,40): the union is
        // 50 ns, not 60.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 30, 60),
            span(1, 0, 10, 40),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn nested_and_contained_children() {
        // A child inside another child's interval adds nothing to the
        // root's covered time; grandchildren only reduce their parent.
        let spans = [
            span(0, NO_PARENT, 0, 1_000),
            span(1, 0, 100, 500),
            span(1, 0, 200, 300),
            span(2, 1, 150, 250),
            span(2, 1, 240, 260),
        ];
        assert_eq!(self_times(&spans), vec![600, 290, 100, 100, 20]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(0, NO_PARENT, 50, 100),
            span(1, 0, 0, 70),
            span(1, 0, 90, 200),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn flat_tree_ties_out_exactly() {
        // The traced run's shape: one root, hook children that never
        // overlap. Root self time plus every child's self time equals
        // the root's duration in integer ns.
        let mut log = SpanLog::new(&HOOK_NAMES);
        let root = log.push(RUN, 0, NO_PARENT, 0, 10_007);
        let mut t = 3;
        for k in 0..500u64 {
            let name = 1 + (k % 11) as u8;
            let d = 1 + (k * 7919) % 13;
            log.push(name, k, root, t, t + d);
            t += d + (k % 5);
        }
        assert!(t < 10_007);
        let totals = HookTotals::from_log(&log);
        assert!(totals.ties_out());
        let hooks: u64 = totals.self_ns[1..].iter().sum();
        assert_eq!(totals.self_ns[RUN as usize] + hooks, 10_007);
        assert_eq!(totals.calls[1..].iter().sum::<u64>(), 500);
    }

    #[test]
    fn overlap_breaks_naive_subtraction_but_not_self_times() {
        let mut log = SpanLog::new(&HOOK_NAMES);
        let root = log.push(RUN, 0, NO_PARENT, 0, 100);
        log.push(1, 0, root, 10, 50);
        log.push(2, 0, root, 40, 70);
        let totals = HookTotals::from_log(&log);
        // Naive: 100 - 40 - 30 = 30; the union of children is 60.
        assert_eq!(totals.self_ns[RUN as usize], 40);
        // Overlapping children double-count their shared 10 ns, so the
        // tree no longer ties out; the traced run never produces this.
        assert!(!totals.ties_out());
    }

    #[test]
    fn dump_writes_every_span_up_to_the_limit() {
        let mut log = SpanLog::new(&HOOK_NAMES);
        let root = log.push(RUN, 0, NO_PARENT, 0, 50);
        log.push(COMPLETE, 7, root, 5, 9);
        let mut out = Vec::new();
        log.dump(&mut out, 10).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("run\t0\t-\t0\t50\n"));
        assert!(text.contains("on_function_complete\t7\t0\t5\t9\n"));
        assert!(text.ends_with("# spans 2 written 2\n"));
    }
}
