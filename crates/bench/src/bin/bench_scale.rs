//! Metadata-fast-path scale benchmark: drives the Canary metadata
//! database at 10k/100k-job scale and end-to-end engine runs on 100/1000
//! nodes, reporting events/sec, jobs/sec, metadata ops/sec, and
//! allocations-per-event via a counting global allocator. Writes
//! `BENCH_scale.json` so CI and future PRs have a perf trajectory.
//!
//! Six in-binary contracts fail the run (and CI's scale-smoke job) on a
//! regression:
//! - fast-path metadata ops/sec ≥ 3× the string-keyed/uncached oracle at
//!   the largest job scale;
//! - `ReplicatedKv::put_shared` performs zero heap allocations per
//!   overwrite put (the refcounted key/value fan-out never deep-copies);
//! - the traced-Canary engine tier (checkpointing strategy, dynamic
//!   replication) sustains ≥ 70k events/sec — ≥ 10× the pre-group-commit
//!   baseline of ~7k, i.e. the strategy plane runs at engine pace;
//! - the same tier stays at ≤ 4 heap allocations per traced event
//!   (checkpoint record, WAL append, group-commit row write, and pool
//!   reconciliation all included);
//! - the million-job tier (1M invocations on 10k nodes) sustains
//!   ≥ 1M dispatched events/sec through the event loop;
//! - the same tier stays at ≤ 1 heap allocation per dispatched event.
//!
//! The million tier runs in `--quick` mode too — it IS the headline
//! number.
//!
//! Usage: `bench_scale [--quick] [--out PATH]`

use canary_baselines::IdealStrategy;
use canary_cluster::{Cluster, FailureModel};
use canary_core::db::{
    CanaryDb, CheckpointInfoRow, DbOptions, FunctionInfoRow, JobInfoRow, WorkerInfoRow,
};
use canary_core::ReplicationStrategyKind;
use canary_experiments::{Observe, Scenario, StrategyKind};
use canary_kvstore::{ReplicatedKv, StoreConfig};
use canary_platform::{run, JobSpec, RunConfig};
use canary_sim::SimDuration;
use canary_workloads::{RuntimeKind, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation made by the process, so the benchmark can
/// report allocations-per-event and assert the zero-copy contract.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn worker_row(node_id: u32) -> WorkerInfoRow {
    WorkerInfoRow {
        node_id,
        cpu_class: (node_id % 3) as u8,
        memory_mb: 192 * 1024,
        rack: node_id / 16,
        slots: 70,
    }
}

fn job_row(job_id: u32) -> JobInfoRow {
    JobInfoRow {
        job_id,
        runtime: RuntimeKind::Python,
        invocations: 1,
        ckpt_window: 3,
        replication_strategy: 0,
        submitted_us: job_id as u64,
    }
}

fn fn_row(fn_id: u64, status: u8) -> FunctionInfoRow {
    FunctionInfoRow {
        fn_id,
        job_id: fn_id as u32,
        runtime: RuntimeKind::Python,
        node_id: (fn_id % 97) as u32,
        status,
    }
}

fn ckpt_row(fn_id: u64, ckpt_id: u64) -> CheckpointInfoRow {
    CheckpointInfoRow {
        ckpt_id,
        job_id: fn_id as u32,
        fn_id,
        state_index: ckpt_id as u32,
        bytes: 64 * 1024,
        tier: 0,
        location: canary_core::db::payload_location(fn_id, ckpt_id),
        created_us: ckpt_id,
    }
}

/// Load a db to `jobs`-job scale: worker rows plus, per job, one job row,
/// one function row, and a 3-deep retained checkpoint window — the shape
/// a real run leaves behind.
fn prefill(db: &CanaryDb, jobs: u32, workers: u32) {
    for w in 0..workers {
        db.put_worker(&worker_row(w)).unwrap();
    }
    for j in 0..jobs {
        db.put_job(&job_row(j)).unwrap();
        let fn_id = j as u64;
        db.put_function(&fn_row(fn_id, 1)).unwrap();
        for c in 0..3u64 {
            db.put_checkpoint(&ckpt_row(fn_id, c)).unwrap();
        }
    }
}

/// One hot metadata op group — the sequence the Core Module issues around
/// a checkpointing function attempt: job + function lookups, a retained
/// window read, a new checkpoint, the eviction, and a status update.
/// 8 logical table ops per group (3-deep window).
fn hot_group(db: &CanaryDb, fn_id: u64) {
    let job = db.get_job(fn_id as u32).unwrap();
    let _ = db.get_function(fn_id).unwrap();
    let rows = db.checkpoints_of(fn_id).unwrap();
    db.put_checkpoint(&ckpt_row(fn_id, rows.last().unwrap().ckpt_id + 1))
        .unwrap();
    db.delete_checkpoint(fn_id, rows[0].ckpt_id).unwrap();
    db.put_function(&fn_row(fn_id, (job.invocations % 2) as u8 + 1))
        .unwrap();
}

fn total_ops(db: &CanaryDb) -> u64 {
    db.table_stats().iter().map(|(_, r, w)| r + w).sum()
}

struct MetadataPoint {
    jobs: u32,
    workers: u32,
    groups: u32,
    fast_ops_per_sec: f64,
    fast_allocs_per_group: f64,
    oracle_ops_per_sec: f64,
    oracle_allocs_per_group: f64,
}

impl MetadataPoint {
    fn speedup(&self) -> f64 {
        self.fast_ops_per_sec / self.oracle_ops_per_sec.max(f64::MIN_POSITIVE)
    }
}

/// Measure the hot op mix against one db configuration at one scale.
/// Returns (ops/sec, allocs per group).
fn measure_metadata(opts: DbOptions, jobs: u32, workers: u32, groups: u32) -> (f64, f64) {
    let db = CanaryDb::with_options(opts);
    prefill(&db, jobs, workers);
    // Sample functions spread across the whole id space so cache and
    // range behavior see cold and warm keys alike.
    let stride = (jobs / groups).max(1) as u64;
    let ops_before = total_ops(&db);
    let allocs_before = allocs();
    let t = Instant::now();
    for g in 0..groups as u64 {
        hot_group(&db, (g * stride) % jobs as u64);
    }
    let wall = t.elapsed().as_secs_f64();
    let group_allocs = (allocs() - allocs_before) as f64 / groups as f64;
    let ops = (total_ops(&db) - ops_before) as f64;
    (ops / wall.max(1e-12), group_allocs)
}

struct EnginePoint {
    jobs: u32,
    nodes: u32,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    jobs_per_sec: f64,
    allocs_per_event: f64,
    /// Per-handler dispatch/wall/alloc attribution from a profiled replay
    /// of the same seed (zero-dispatch kinds dropped). Strategy hooks run
    /// inside handler dispatch, so strategy-side allocations land in the
    /// row of the handler that invoked them.
    handlers: Vec<canary_platform::HotPathRow>,
}

/// The handler rows of a profiled replay that dispatched anything,
/// printed to stderr as they are kept.
fn handler_rows(profile: canary_platform::HotPathProfile) -> Vec<canary_platform::HotPathRow> {
    let rows: Vec<_> = profile
        .rows
        .into_iter()
        .filter(|r| r.dispatches > 0)
        .collect();
    for row in &rows {
        eprintln!(
            "  {:<14} {:>12} dispatches {:>14} wall_ns {:>12} allocs",
            row.event, row.dispatches, row.wall_ns, row.allocs
        );
    }
    rows
}

/// Append `"handlers": [...]` rows to a JSON record.
fn handlers_json(json: &mut String, handlers: &[canary_platform::HotPathRow]) {
    json.push_str("\"handlers\": [");
    for (j, h) in handlers.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"event\": \"{}\", \"dispatches\": {}, \"wall_ns\": {}, \"allocs\": {}}}",
            if j > 0 { ", " } else { "" },
            h.event,
            h.dispatches,
            h.wall_ns,
            h.allocs
        );
    }
    json.push(']');
}

/// End-to-end engine run: wall time and allocation count from an
/// unobserved run, event count from an observed replay of the same seed
/// (observation does not change the simulation, so the counts line up).
/// A third, profiled replay attributes dispatches and allocations to
/// individual handlers.
fn measure_engine(jobs: u32, nodes: u32) -> EnginePoint {
    let mut scenario = Scenario::chameleon(
        0.15,
        vec![JobSpec::new(WorkloadSpec::web_service(10), jobs)],
    );
    scenario.nodes = nodes;
    let strategy = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
    let allocs_before = allocs();
    let t = Instant::now();
    let result = scenario.run(strategy, 42, Observe::NONE);
    let wall = t.elapsed().as_secs_f64();
    let run_allocs = allocs() - allocs_before;
    assert_eq!(result.fns.len() as u32, jobs, "run did not complete");
    let traced = scenario.run(strategy, 42, Observe::TRACE);
    let events = traced.trace.events.len() as u64;
    let profile = Observe {
        profile: true,
        ..Observe::NONE
    };
    let handlers = handler_rows(scenario.run(strategy, 42, profile).profile);
    EnginePoint {
        jobs,
        nodes,
        wall_ms: wall * 1e3,
        events,
        events_per_sec: events as f64 / wall.max(1e-12),
        jobs_per_sec: jobs as f64 / wall.max(1e-12),
        allocs_per_event: run_allocs as f64 / events.max(1) as f64,
        handlers,
    }
}

/// Million-job engine tier: `invocations` short web-service functions
/// against `nodes` nodes, submitted in staggered waves so peak inflight
/// stays a small fraction of the slot supply and the run measures
/// steady-state dispatch, not a synchronized burst. Runs the failure-free
/// reference strategy to isolate the engine's own hot path — event-queue
/// pops, placement, attempt planning, and accounting — from strategy-side
/// checkpoint bookkeeping, which the smaller Canary tiers above cover.
/// Events come from the run loop's own dispatch counter, so the
/// allocs-per-event figure is exact, not a traced-replay estimate. A
/// profiled replay of the same run then attributes dispatches, wall time
/// and allocations to individual handlers, as in [`measure_engine`].
fn measure_engine_million(invocations: u32, nodes: u32) -> EnginePoint {
    const BATCHES: u32 = 1_000;
    // 240 ms between waves: the 1.2 s two-state workload over a 240 s
    // arrival window keeps peak inflight near 5k attempts (< 1% of the
    // 70-slot-per-node supply). Low inflight bounds both the event heap's
    // working set and the engine's buffer-pool watermark — pools allocate
    // once per *concurrent* attempt, so the steady-state allocs-per-event
    // figure is dominated by reuse, not growth. Two states per invocation
    // keeps per-launch plan walking proportional to the two events each
    // invocation actually dispatches; the 10-state shape is covered by
    // the Canary engine tiers above.
    let per_batch = invocations / BATCHES;
    let specs: Vec<JobSpec> = (0..BATCHES)
        .map(|i| {
            JobSpec::new(WorkloadSpec::web_service(2), per_batch)
                .at(SimDuration::from_millis(i as u64 * 240))
        })
        .collect();
    // Built directly on RunConfig (not Scenario) for one knob: the
    // modeled 100 ms serialized-controller admission delay is zeroed.
    // With it on, the controller admits one launch per slot, so a
    // million launches wait in the admission FIFO for ~28 simulated
    // hours — a measure of the admission *model*, not the engine. The
    // tier's subject is the event loop.
    let failure = FailureModel::with_error_rate(0.0);
    let mut cfg = RunConfig::new(Cluster::heterogeneous(nodes), failure, 42);
    cfg.admission_delay = SimDuration::ZERO;
    let mut profiled = cfg.clone();
    profiled.profile = true;
    let replay_specs = specs.clone();
    let allocs_before = allocs();
    let t = Instant::now();
    let result = run(cfg, specs, &mut IdealStrategy::new());
    let wall = t.elapsed().as_secs_f64();
    let run_allocs = allocs() - allocs_before;
    assert_eq!(
        result.fns.len() as u32,
        invocations,
        "million tier did not complete"
    );
    let events = result.counters.events_dispatched;
    drop(result);
    let handlers = handler_rows(run(profiled, replay_specs, &mut IdealStrategy::new()).profile);
    EnginePoint {
        jobs: invocations,
        nodes,
        wall_ms: wall * 1e3,
        events,
        events_per_sec: events as f64 / wall.max(1e-12),
        jobs_per_sec: invocations as f64 / wall.max(1e-12),
        allocs_per_event: run_allocs as f64 / events.max(1) as f64,
        handlers,
    }
}

/// Allocations per `ReplicatedKv` overwrite put: the shared-handle path
/// must be zero (refcount bumps only); the legacy string path pays for
/// the key format, the key copy, and its refcount box every time.
fn measure_replicated_put() -> (f64, f64) {
    let kv = ReplicatedKv::new(3, StoreConfig::default());
    let key = bytes::Bytes::from_static(b"scale/put/key");
    let value = bytes::Bytes::from(vec![7u8; 256]);
    kv.put_shared(key.clone(), value.clone()).unwrap(); // warm the slot
    const PUTS: u64 = 10_000;
    let before = allocs();
    for _ in 0..PUTS {
        kv.put_shared(key.clone(), value.clone()).unwrap();
    }
    let shared = (allocs() - before) as f64 / PUTS as f64;
    let before = allocs();
    for _ in 0..PUTS {
        kv.put(format!("scale/put/{}", 12345u32), value.clone())
            .unwrap();
    }
    let string = (allocs() - before) as f64 / PUTS as f64;
    (shared, string)
}

fn main() {
    // Register the counting allocator with the platform profiler up front
    // so every profiled tier (engine runs and the million tier alike)
    // gets real alloc attribution.
    canary_platform::install_alloc_counter(allocs);
    let (quick, out) =
        canary_experiments::quick_and_out(std::env::args().skip(1), "BENCH_scale.json")
            .unwrap_or_else(|e| {
                eprintln!("{e}\nusage: bench_scale [--quick] [--out PATH]");
                std::process::exit(2)
            });

    // Engine points stay at 10k jobs: the event loop itself scales
    // super-linearly in the closed-batch job count (a pre-existing
    // property, outside this benchmark's fast path), so the 100k-job
    // point is carried by the metadata workload below.
    let engine_points: &[(u32, u32)] = if quick {
        &[(2_000, 100)]
    } else {
        &[(10_000, 100), (10_000, 1_000)]
    };
    let metadata_points: &[(u32, u32, u32)] = if quick {
        &[(10_000, 100, 300)]
    } else {
        &[(10_000, 100, 2_000), (100_000, 1_000, 500)]
    };

    let mut engines: Vec<EnginePoint> = Vec::new();
    for &(jobs, nodes) in engine_points {
        eprintln!("engine run: {jobs} jobs on {nodes} nodes...");
        engines.push(measure_engine(jobs, nodes));
    }

    let mut metas: Vec<MetadataPoint> = Vec::new();
    for &(jobs, workers, groups) in metadata_points {
        eprintln!("metadata workload at {jobs}-job scale (fast path, {groups} sampled groups)...");
        let (fast_ops, fast_allocs) = measure_metadata(DbOptions::fast(3), jobs, workers, groups);
        eprintln!("metadata workload at {jobs}-job scale (string/uncached oracle)...");
        let (oracle_ops, oracle_allocs) =
            measure_metadata(DbOptions::string_oracle(3), jobs, workers, groups);
        metas.push(MetadataPoint {
            jobs,
            workers,
            groups,
            fast_ops_per_sec: fast_ops,
            fast_allocs_per_group: fast_allocs,
            oracle_ops_per_sec: oracle_ops,
            oracle_allocs_per_group: oracle_allocs,
        });
    }

    eprintln!("million-job tier: 1000000 invocations on 10000 nodes...");
    let million = measure_engine_million(1_000_000, 10_000);

    eprintln!("replicated-put allocation audit...");
    let (shared_put_allocs, string_put_allocs) = measure_replicated_put();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_scale/v2\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    json.push_str("  \"engine_runs\": [\n");
    for (i, e) in engines.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"jobs\": {}, \"nodes\": {}, \"wall_ms\": {:.1}, \"events\": {}, \"events_per_sec\": {:.0}, \"jobs_per_sec\": {:.0}, \"allocs_per_event\": {:.1}, ",
            e.jobs, e.nodes, e.wall_ms, e.events, e.events_per_sec, e.jobs_per_sec, e.allocs_per_event
        );
        handlers_json(&mut json, &e.handlers);
        json.push('}');
        json.push_str(if i + 1 < engines.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"metadata\": [\n");
    for (i, m) in metas.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"jobs\": {}, \"workers\": {}, \"sampled_groups\": {}, \"fast_ops_per_sec\": {:.0}, \"oracle_ops_per_sec\": {:.0}, \"speedup\": {:.1}, \"fast_allocs_per_group\": {:.1}, \"oracle_allocs_per_group\": {:.1}}}",
            m.jobs, m.workers, m.groups, m.fast_ops_per_sec, m.oracle_ops_per_sec, m.speedup(),
            m.fast_allocs_per_group, m.oracle_allocs_per_group
        );
        json.push_str(if i + 1 < metas.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let m = &million;
    let _ = write!(
        json,
        "  \"million\": {{\"jobs\": {}, \"nodes\": {}, \"wall_ms\": {:.1}, \"events\": {}, \"events_per_sec\": {:.0}, \"jobs_per_sec\": {:.0}, \"allocs_per_event\": {:.2}, ",
        m.jobs, m.nodes, m.wall_ms, m.events, m.events_per_sec, m.jobs_per_sec, m.allocs_per_event
    );
    handlers_json(&mut json, &m.handlers);
    json.push_str("},\n");
    let _ = writeln!(
        json,
        "  \"replicated_put\": {{\"allocs_per_shared_put\": {shared_put_allocs:.2}, \"allocs_per_string_put\": {string_put_allocs:.2}}}"
    );
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write bench json");
    eprintln!("wrote {out}");
    print!("{json}");

    // Contract 1: the fast path beats the string-keyed/uncached oracle by
    // at least 3x metadata ops/sec at the largest job scale.
    let largest = metas.last().expect("at least one metadata point");
    assert!(
        largest.speedup() >= 3.0,
        "metadata fast path at {}-job scale: {:.0} ops/s vs oracle {:.0} ops/s — only {:.1}x (need 3x)",
        largest.jobs,
        largest.fast_ops_per_sec,
        largest.oracle_ops_per_sec,
        largest.speedup()
    );
    // Contract 2: a shared-handle replica-group put allocates nothing —
    // the key and value fan out by refcount, never by copy.
    assert!(
        shared_put_allocs < 0.01,
        "ReplicatedKv::put_shared allocates {shared_put_allocs:.2} per put (expected 0)"
    );
    // Contracts 3 and 4: the Canary strategy tier runs at engine pace.
    // Both apply in quick mode too — the 2k-job quick tier has the same
    // per-event cost profile as the full 10k tier, so the thresholds
    // carry over unchanged.
    let canary = engines.first().expect("at least one engine point");
    assert!(
        canary.events_per_sec >= 70_000.0,
        "traced-Canary tier ({} jobs): {:.0} events/s (need ≥ 70k — 10x the \
         pre-group-commit baseline; {} events in {:.1} ms)",
        canary.jobs,
        canary.events_per_sec,
        canary.events,
        canary.wall_ms
    );
    assert!(
        canary.allocs_per_event <= 4.0,
        "traced-Canary tier ({} jobs) allocates {:.2} per event (need ≤ 4)",
        canary.jobs,
        canary.allocs_per_event
    );
    // Contract 5: the million-job tier sustains a million events per
    // second through the event loop...
    let m = &million;
    assert!(
        m.events_per_sec >= 1e6,
        "million tier: {:.0} events/s (need ≥ 1M; {} events in {:.1} ms)",
        m.events_per_sec,
        m.events,
        m.wall_ms
    );
    // ...and the engine hot path stays at ≤ 1 allocation per dispatched
    // event — pooled events, recycled plan buffers, no tracing strings.
    assert!(
        m.allocs_per_event <= 1.0,
        "million tier allocates {:.2} per event (need ≤ 1)",
        m.allocs_per_event
    );
}
