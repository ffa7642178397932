//! Scheduler-bench runner: measures the three scheduler queries (indexed
//! vs pre-refactor scan) at 100/1k/10k containers plus an end-to-end
//! fig12-shaped run, and writes `BENCH_engine.json` so CI and future PRs
//! have a perf trajectory.
//!
//! Also measures the observability tax: the same run unobserved vs fully
//! instrumented (trace + telemetry + causal links + hot-path profiler),
//! with an in-binary bound so CI fails loudly if observation stops being
//! cheap. The process installs a counting global allocator and registers
//! it with the platform's profiler hook, so the hot-path report in the
//! JSON carries real allocation attribution.
//!
//! Usage: `bench_engine [--quick] [--out PATH]`

use canary_bench::scheduler::{
    active_indexed, active_scan, best_node_indexed, best_node_scan, platform_with, registry_with,
    warm_first_indexed, warm_first_scan, SIZES,
};
use canary_experiments::{Observe, Scenario, StrategyKind};
use canary_platform::JobSpec;
use canary_workloads::{RuntimeKind, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation, feeding the engine profiler's
/// allocations-per-dispatch attribution (see
/// [`canary_platform::install_alloc_counter`]).
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

/// Full observation (trace + telemetry + causal + profiler) may cost at
/// most this factor over an unobserved run of the same scenario.
/// Deliberately generous — the point is catching an accidental
/// always-on cost or a superlinear regression, not micro-tuning.
const OBSERVED_OVERHEAD_BOUND: f64 = 4.0;

/// Median per-call nanoseconds of `f`, auto-calibrated so each repeat
/// runs ~`budget_ms` of wall time.
fn measure<F: FnMut()>(mut f: F, repeats: usize, budget_ms: u64) -> f64 {
    // Calibrate.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = ((budget_ms * 1_000_000) / once).clamp(10, 1_000_000);
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct QueryRow {
    name: &'static str,
    size: usize,
    indexed_ns: f64,
    scan_ns: f64,
}

fn main() {
    let (quick, out) =
        canary_experiments::quick_and_out(std::env::args().skip(1), "BENCH_engine.json")
            .unwrap_or_else(|e| {
                eprintln!("{e}\nusage: bench_engine [--quick] [--out PATH]");
                std::process::exit(2)
            });

    let (repeats, budget_ms, e2e_invocations) = if quick { (3, 5, 200) } else { (7, 40, 2_000) };

    let mut rows: Vec<QueryRow> = Vec::new();
    for &n in &SIZES {
        let reg = registry_with(n);
        let p = platform_with(n);
        eprintln!("measuring scheduler queries at {n} containers...");
        rows.push(QueryRow {
            name: "warm_replicas_first",
            size: n,
            indexed_ns: measure(
                || {
                    black_box(warm_first_indexed(black_box(&reg), RuntimeKind::Python));
                },
                repeats,
                budget_ms,
            ),
            scan_ns: measure(
                || {
                    black_box(warm_first_scan(black_box(&reg), RuntimeKind::Python));
                },
                repeats,
                budget_ms,
            ),
        });
        rows.push(QueryRow {
            name: "best_node",
            size: n,
            indexed_ns: measure(
                || {
                    black_box(best_node_indexed(black_box(&reg)));
                },
                repeats,
                budget_ms,
            ),
            scan_ns: measure(
                || {
                    black_box(best_node_scan(black_box(&reg)));
                },
                repeats,
                budget_ms,
            ),
        });
        rows.push(QueryRow {
            name: "active_functions",
            size: n,
            indexed_ns: measure(
                || {
                    black_box(active_indexed(black_box(&p), RuntimeKind::Python));
                },
                repeats,
                budget_ms,
            ),
            scan_ns: measure(
                || {
                    black_box(active_scan(black_box(&p), RuntimeKind::Python));
                },
                repeats,
                budget_ms,
            ),
        });
    }

    eprintln!("running fig12-shaped end-to-end ({e2e_invocations} invocations)...");
    let t = Instant::now();
    let mut scenario = Scenario::chameleon(
        0.15,
        vec![JobSpec::new(WorkloadSpec::web_service(10), e2e_invocations)],
    );
    scenario.nodes = 16;
    let result = scenario.run(StrategyKind::Retry, 7, Observe::NONE);
    let e2e_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(&result);

    // Observability tax: same scenario, unobserved vs fully
    // instrumented, median of `repeats` runs each.
    canary_platform::install_alloc_counter(allocs);
    eprintln!("measuring observability overhead ({repeats} runs each)...");
    let strategy = StrategyKind::Canary(canary_core::ReplicationStrategyKind::Dynamic);
    let median_ms = |f: &mut dyn FnMut() -> f64| -> f64 {
        let mut samples: Vec<f64> = (0..repeats).map(|_| f()).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };
    let plain_ms = median_ms(&mut || {
        let t = Instant::now();
        black_box(scenario.run(strategy, 7, Observe::NONE));
        t.elapsed().as_secs_f64() * 1e3
    });
    let mut profile = canary_platform::HotPathProfile::default();
    let observed_ms = median_ms(&mut || {
        let t = Instant::now();
        let r = scenario.run(strategy, 7, Observe::ALL);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        profile = r.profile.clone();
        black_box(r);
        ms
    });
    let overhead = observed_ms / plain_ms.max(f64::MIN_POSITIVE);
    eprintln!(
        "observability: unobserved {plain_ms:.1}ms, instrumented {observed_ms:.1}ms ({overhead:.2}x)"
    );
    eprint!("{}", canary_metrics::hot_path_report(&profile));

    // Hand-formatted JSON (the sanctioned dependency set has no JSON
    // serializer; the format is flat on purpose).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_engine/v1\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    json.push_str("  \"queries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.scan_ns / r.indexed_ns.max(f64::MIN_POSITIVE);
        let _ = write!(
            json,
            "    {{\"query\": \"{}\", \"containers\": {}, \"indexed_ns\": {:.1}, \"scan_ns\": {:.1}, \"speedup\": {:.1}}}",
            r.name, r.size, r.indexed_ns, r.scan_ns, speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"end_to_end\": {{\"shape\": \"fig12\", \"invocations\": {}, \"nodes\": 16, \"strategy\": \"retry\", \"wall_ms\": {:.1}, \"makespan_s\": {:.1}}},",
        e2e_invocations,
        e2e_ms,
        result.finished_at.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"observability\": {{\"unobserved_ms\": {plain_ms:.1}, \"instrumented_ms\": {observed_ms:.1}, \"overhead\": {overhead:.2}, \"bound\": {OBSERVED_OVERHEAD_BOUND:.1}}},"
    );
    json.push_str("  \"hot_path\": [\n");
    let hot_rows: Vec<_> = profile.rows.iter().filter(|r| r.dispatches > 0).collect();
    for (i, r) in hot_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"event\": \"{}\", \"dispatches\": {}, \"wall_ns\": {}, \"allocs\": {}}}",
            r.event, r.dispatches, r.wall_ns, r.allocs
        );
        json.push_str(if i + 1 < hot_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write bench json");
    eprintln!("wrote {out}");
    print!("{json}");

    // The refactor's contract: at 1k containers every query is at least
    // 5x faster than the scan path. Enforced here so CI's bench-smoke
    // job fails loudly on a regression, not just silently on a plot.
    for r in rows.iter().filter(|r| r.size == 1_000) {
        let speedup = r.scan_ns / r.indexed_ns.max(f64::MIN_POSITIVE);
        assert!(
            speedup >= 5.0,
            "{} at 1k containers: indexed {:.1}ns vs scan {:.1}ns — only {speedup:.1}x",
            r.name,
            r.indexed_ns,
            r.scan_ns
        );
    }

    // The observability contract: full instrumentation stays within its
    // declared bound of an unobserved run.
    assert!(
        overhead <= OBSERVED_OVERHEAD_BOUND,
        "observability overhead {overhead:.2}x exceeds the declared \
         {OBSERVED_OVERHEAD_BOUND:.1}x bound \
         (unobserved {plain_ms:.1}ms vs instrumented {observed_ms:.1}ms)"
    );
    // And the profiler actually saw the run: every event the engine
    // dispatched is attributed to some kind.
    assert!(
        profile.enabled && profile.total_dispatches() > 0,
        "hot-path profiler recorded no dispatches"
    );
}
