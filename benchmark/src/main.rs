//! The benchmark command `BENCHMARK.json` names.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload canary-closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` builds the workload from the seed, runs it once to warm
//! up, then runs it again and again for `--seconds`, each run with fresh
//! inputs, and prints every end-to-end metric as the median over the
//! runs. `--trace 1` runs untraced for half the time (the baseline of
//! the tracing overhead), then once more with the benchmark's tracing
//! on, and prints the per-layer metrics: hook spans, engine profile,
//! per-layer replays of the checkpoint stream, modelled counts, and the
//! trace consumers' costs. Its spans land in `benchmark/out/`.
//!
//! Every run is checked: no job may be lost, every run of the seed must
//! produce the same outcome digest (traced and untraced alike), and
//! where `digests.txt` records the seed's digest the run must match it.
//! The last stdout line is the result object; the line before it is a
//! self-describing record (workload, seed, config digest, revision,
//! `nproc`, run count, timing quartiles). `--digest` prints only the
//! seed's outcome digest, in `digests.txt` format.
//!
//! Environment switches that change the measured program
//! (`CANARY_NO_WAL`, `CANARY_NO_DB_CACHE`, `CANARY_REPS`, `CANARY_BLESS`,
//! `CANARY_MILLION*`) make the benchmark refuse to run.

use canary_benchmark::alloc::allocs;
use canary_benchmark::layers::{self, LayerReport};
use canary_benchmark::spans::{HookTotals, Spanned, HOOK_NAMES, RUN};
use canary_benchmark::stats::Summary;
use canary_benchmark::workloads::{
    consume_trace, Kind, Outcome, Setup, Size, TraceWork, Workload, NAMES,
};
use canary_platform::{run, HotPathProfile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Environment variables the library reads that change what it does.
const GATES: [&str; 4] = [
    "CANARY_NO_WAL",
    "CANARY_NO_DB_CACHE",
    "CANARY_REPS",
    "CANARY_BLESS",
];

/// Setups timed on their own before the runs, on top of one per run.
const EXTRA_SETUPS: usize = 20;

/// Runs per result, at least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// Spans written to the dump file, at most.
const DUMP_LIMIT: usize = 1_000_000;

/// Event kinds of the engine profile, as its rows label them.
const EVENT_KINDS: [&str; 9] = [
    "job_arrival",
    "submit_job",
    "launch",
    "attempt_end",
    "warm_resume",
    "replica_warm",
    "node_failure",
    "chaos_fault",
    "admission_free",
];

/// Outcome digests recorded for known seeds: `workload seed digest`.
const KNOWN_DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: Workload,
    seconds: f64,
    trace: bool,
    digest_only: bool,
}

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--digest]",
        NAMES.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut digest_only) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            digest_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let kind = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload: Workload {
            kind,
            size: Size::Full,
            seed,
        },
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        digest_only,
    })
}

/// The first environment gate that is set, if any.
fn gate_set() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| GATES.contains(&k.as_str()) || k.starts_with("CANARY_MILLION"))
}

/// One untraced run with fresh inputs.
struct Sample {
    setup_s: f64,
    /// `run` alone.
    sim_s: f64,
    /// `run` plus the trace consumers (when the workload records a trace).
    wall_s: f64,
    outcome: Outcome,
    trace: Option<TraceWork>,
}

fn timed_setup(w: &Workload) -> (f64, Setup) {
    let t = Instant::now();
    let setup = w.setup();
    (t.elapsed().as_secs_f64(), setup)
}

fn sample(w: &Workload) -> Sample {
    let (setup_s, setup) = timed_setup(w);
    let invocations = setup.invocations();
    let Setup {
        config,
        jobs,
        mut strategy,
    } = setup;
    let t = Instant::now();
    let result = run(config, jobs, strategy.as_dyn());
    let sim_s = t.elapsed().as_secs_f64();
    let trace = (!result.trace.events.is_empty()).then(|| consume_trace(&result));
    let wall_s = t.elapsed().as_secs_f64();
    Sample {
        setup_s,
        sim_s,
        wall_s,
        outcome: Outcome::of(&result, &invocations),
        trace,
    }
}

/// Untraced runs until `seconds` have passed (at least [`MIN_RUNS`]),
/// plus the extra setups.
fn measure(w: &Workload, seconds: f64) -> (Vec<Sample>, Vec<f64>) {
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS).map(|_| timed_setup(w).0).collect();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let s = sample(w);
        setups.push(s.setup_s);
        samples.push(s);
    }
    (samples, setups)
}

/// What the traced run measured.
struct Traced {
    wall_s: f64,
    outcome: Outcome,
    hooks: HookTotals,
    profile: HotPathProfile,
    allocs: u64,
    layers: LayerReport,
    trace: Option<TraceWork>,
    /// [`STRATEGY_COUNTS`] read from the Canary strategy (zeros for
    /// other strategies).
    strategy_counts: [f64; 7],
    dump: Result<PathBuf, String>,
}

fn traced_run(w: &Workload) -> Traced {
    let mut setup = w.setup();
    setup.config.profile = true;
    let invocations = setup.invocations();
    let Setup {
        config,
        jobs,
        mut strategy,
    } = setup;
    let allocs_before = allocs();
    let t = Instant::now();
    let mut spanned = Spanned::new(strategy.as_dyn());
    let result = run(config, jobs, &mut spanned);
    let (log, stream) = spanned.finish();
    let allocs = allocs() - allocs_before;
    let trace = (!result.trace.events.is_empty()).then(|| consume_trace(&result));
    let wall_s = t.elapsed().as_secs_f64();
    let outcome = Outcome::of(&result, &invocations);
    let hooks = HookTotals::from_log(&log);
    let dump = dump_spans(w, &log);
    drop(log);
    let strategy_counts = strategy.canary().map_or([0.0; 7], |c| {
        let chunks = c.checkpointing().chunk_stats();
        let (reads, writes) = c
            .db()
            .table_stats()
            .iter()
            .fold((0, 0), |(r, w), &(_, tr, tw)| (r + tr, w + tw));
        let (hits, misses) = c.db().cache_stats();
        let wal = c.db().kv().wal().map(|w| w.stats()).unwrap_or_default();
        [
            ratio(chunks.written + chunks.deduped, chunks.written),
            reads as f64,
            writes as f64,
            ratio(hits, hits + misses),
            wal.appended_records as f64,
            wal.log_bytes as f64,
            wal.snapshots_installed as f64,
        ]
    });
    let layers = layers::replay(&stream, &w.canary_config().unwrap_or_default());
    Traced {
        wall_s,
        outcome,
        hooks,
        profile: result.profile,
        allocs,
        layers,
        trace,
        strategy_counts,
        dump,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn dump_spans(w: &Workload, log: &canary_benchmark::spans::SpanLog) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{}-seed{}.tsv", w.kind.name(), w.seed));
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    log.dump(&mut file, DUMP_LIMIT).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `git rev-parse HEAD` of the repository the benchmark sits in, read
/// from `.git` directly; `unknown` outside a git checkout.
fn revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The digest `digests.txt` records for this workload and seed.
fn known_digest(w: &Workload) -> Option<u64> {
    KNOWN_DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (name, seed, digest) = (f.next()?, f.next()?, f.next()?);
        (name == w.kind.name() && seed.parse::<u64>().ok()? == w.seed)
            .then(|| u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok())?
    })
}

/// A JSON number: finite values as Rust prints them (every digit), 0
/// otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn summary_json(s: &[f64]) -> String {
    match Summary::of(s) {
        Some(s) => format!(
            "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
            s.n,
            num(s.median),
            num(s.q1),
            num(s.q3),
            num(s.min),
            num(s.max)
        ),
        None => "null".into(),
    }
}

fn median(s: &[f64]) -> f64 {
    Summary::of(s).map_or(0.0, |s| s.median)
}

/// Metrics as `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(samples: &[Sample], setups: &[f64], reference: &Outcome, rss_mb: f64) -> Metrics {
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| s.outcome.counters.events_dispatched as f64 / s.sim_s)
        .collect();
    [
        ("run_wall_s", median(&walls), "s"),
        ("events_per_s", median(&rates), "1/s"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("sim_makespan_s", reference.makespan_s, "s"),
        ("sim_response_p50_s", reference.response.p50_s, "s"),
        ("sim_response_p99_s", reference.response.p99_s, "s"),
        ("slo_attainment", reference.slo_attainment, "fraction"),
        ("sim_recovery_mean_s", reference.recovery_mean_s, "s"),
        ("sim_cost_usd", reference.cost_usd, "USD"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_string(), v, u))
    .collect()
}

fn per_layer(t: &Traced, untraced_wall: f64) -> Metrics {
    let mut m: Metrics = Vec::new();
    let mut put = |name: String, v: f64, unit: &'static str| m.push((name, v, unit));
    let ms = |ns: u64| ns as f64 / 1e6;
    // core.strategy: one span per hook call under the run span.
    for (k, hook) in HOOK_NAMES.iter().enumerate().skip(1) {
        put(
            format!("strategy.{hook}.calls"),
            t.hooks.calls[k] as f64,
            "count",
        );
        put(format!("strategy.{hook}.ms"), ms(t.hooks.self_ns[k]), "ms");
        put(
            format!("strategy.{hook}.p99_us"),
            t.hooks.p99_ns[k] as f64 / 1e3,
            "us",
        );
    }
    put(
        "engine.self_ms".into(),
        ms(t.hooks.self_ns[RUN as usize]),
        "ms",
    );
    put("bench.run_span_ms".into(), ms(t.hooks.run_ns), "ms");
    // platform.engine: the profiler's per-kind rows.
    let events = t.outcome.counters.events_dispatched;
    put("engine.events".into(), events as f64, "count");
    for kind in EVENT_KINDS {
        let row = t.profile.rows.iter().find(|r| r.event == kind);
        put(
            format!("engine.{kind}.dispatches"),
            row.map_or(0, |r| r.dispatches) as f64,
            "count",
        );
        put(
            format!("engine.{kind}.ms"),
            ms(row.map_or(0, |r| r.wall_ns)),
            "ms",
        );
    }
    put(
        "engine.allocs_per_event".into(),
        ratio(t.allocs, events),
        "allocs/event",
    );
    // State-plane layers: replays of the checkpoint stream, then the
    // counts the strategy's own accessors report.
    for (name, calls) in &t.layers.rows {
        put(format!("{name}.calls"), calls.calls as f64, "count");
        put(format!("{name}.ms"), ms(calls.ns), "ms");
    }
    put(
        "wal.bytes_per_ckpt".into(),
        t.layers.wal_bytes_per_ckpt,
        "B",
    );
    for ((name, unit), v) in STRATEGY_COUNTS.into_iter().zip(t.strategy_counts) {
        put(name.to_string(), v, unit);
    }
    // Modelled design counts: containers, admission, cluster faults.
    let c = &t.outcome.counters;
    put(
        "container.created".into(),
        c.containers_created as f64,
        "count",
    );
    put(
        "container.warm_recoveries".into(),
        c.warm_recoveries as f64,
        "count",
    );
    put(
        "container.cold_recoveries".into(),
        c.cold_recoveries as f64,
        "count",
    );
    put(
        "container.replica_use_ratio".into(),
        ratio(c.replicas_consumed, t.outcome.replicas_created),
        "ratio",
    );
    put("admission.queued".into(), c.jobs_queued as f64, "count");
    put("admission.rejected".into(), c.jobs_rejected as f64, "count");
    put(
        "admission.peak_queue_depth".into(),
        t.outcome.peak_queue_depth as f64,
        "count",
    );
    put(
        "cluster.node_failures".into(),
        c.node_failures as f64,
        "count",
    );
    put(
        "cluster.chaos_events".into(),
        c.chaos_events as f64,
        "count",
    );
    // Trace consumers (zero where the workload records no trace).
    let tw = t.trace.unwrap_or_default();
    put("trace.events".into(), tw.events as f64, "count");
    put("export.jsonl_ms".into(), ms(tw.export_ns), "ms");
    put("export.jsonl_mb".into(), tw.jsonl_bytes as f64 / 1e6, "MB");
    put("export.parse_ms".into(), ms(tw.parse_ns), "ms");
    put("causal.forest_ms".into(), ms(tw.forest_ns), "ms");
    put("causal.blame_ms".into(), ms(tw.blame_ns), "ms");
    put(
        "bench.tracing_overhead".into(),
        t.wall_s / untraced_wall,
        "ratio",
    );
    m
}

/// Counts read from the Canary strategy's accessors: chunk dedup
/// (references per stored chunk), table traffic, row-cache hits, and the
/// metadata WAL. `(name, unit)`, in report order.
const STRATEGY_COUNTS: [(&str, &str); 7] = [
    ("chunk.dedup_ratio", "ratio"),
    ("db.reads", "count"),
    ("db.writes", "count"),
    ("db.cache_hit_ratio", "ratio"),
    ("wal.records", "count"),
    ("wal.log_bytes", "B"),
    ("wal.snapshots", "count"),
];

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(gate) = gate_set() {
        eprintln!("error: {gate} is set; it changes the measured program, so the benchmark refuses to run");
        return ExitCode::from(2);
    }
    let w = args.workload;
    if args.digest_only {
        println!(
            "{} {} {:#018x}",
            w.kind.name(),
            w.seed,
            sample(&w).outcome.digest
        );
        return ExitCode::SUCCESS;
    }

    let mut problems: Vec<String> = Vec::new();
    // Warm-up run: caches fill, lazy set-up finishes; its outcome is the
    // reference every later run of this seed must reproduce.
    let warm = sample(&w);
    let reference = warm.outcome;
    let expected = known_digest(&w);
    if let Some(d) = expected.filter(|&d| d != reference.digest) {
        problems.push(format!(
            "digest {:#018x}, digests.txt has {d:#018x}",
            reference.digest
        ));
    }
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (samples, setups) = measure(&w, seconds);
    let traced = args.trace.then(|| traced_run(&w));

    let mut outcomes: Vec<(&str, &Outcome, Option<&TraceWork>)> =
        vec![("warm-up", &warm.outcome, warm.trace.as_ref())];
    outcomes.extend(
        samples
            .iter()
            .map(|s| ("run", &s.outcome, s.trace.as_ref())),
    );
    if let Some(t) = &traced {
        outcomes.push(("traced run", &t.outcome, t.trace.as_ref()));
    }
    for (what, o, tw) in &outcomes {
        if o.digest != reference.digest {
            problems.push(format!(
                "{what} digest {:#018x} differs from {:#018x}",
                o.digest, reference.digest
            ));
        }
        if o.lost > 0 {
            problems.push(format!("{what} lost {} jobs", o.lost));
        }
        if tw.is_some_and(|t| !t.ok) {
            problems.push(format!(
                "{what}: trace export, span forest or blame check failed"
            ));
        }
    }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let sims: Vec<f64> = samples.iter().map(|s| s.sim_s).collect();
    let rss = peak_rss_mb();
    if rss.is_none() {
        problems.push("peak RSS unavailable (/proc/self/status)".into());
    }
    let metrics = match &traced {
        Some(t) => {
            if !t.hooks.ties_out() {
                problems
                    .push("engine.self_ms plus hook times does not tie out to the run span".into());
            }
            if !t.layers.ok {
                problems
                    .push("a layer replay call failed or read back the wrong checkpoint".into());
            }
            if let Err(e) = &t.dump {
                problems.push(format!("span dump failed: {e}"));
            }
            per_layer(t, median(&walls))
        }
        None => end_to_end(&samples, &setups, &reference, rss.unwrap_or(0.0)),
    };
    let measured: Vec<&Outcome> = samples.iter().map(|s| &s.outcome).collect();
    let attempted: u64 = measured.iter().map(|o| o.offered).sum();
    let failed: u64 = measured.iter().map(|o| o.rejected + o.lost).sum();

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"config\": \"{}\", \"config_digest\": \"{:#018x}\", \"revision\": \"{}\", \"nproc\": {}, \"trace\": {}, \"runs\": {}, \"digest\": \"{:#018x}\", \"expected_digest\": {}, \"response_samples\": {}, \"timings\": {{\"run_wall_s\": {}, \"sim_wall_s\": {}, \"setup_s\": {}}}",
        w.kind.name(),
        w.seed,
        w.describe(),
        w.config_digest(),
        revision(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.trace,
        samples.len(),
        reference.digest,
        expected.map_or("null".into(), |d| format!("\"{d:#018x}\"")),
        reference.response.completed,
        summary_json(&walls),
        summary_json(&sims),
        summary_json(&setups),
    );
    if let Some(t) = &traced {
        let _ = write!(
            record,
            ", \"traced_wall_s\": {}, \"spans\": \"{}\"",
            num(t.wall_s),
            t.dump
                .as_ref()
                .map_or(String::new(), |p| p.display().to_string())
        );
    }
    let _ = write!(record, ", \"problems\": {:?}}}}}", problems);
    println!("{record}");
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        problems.is_empty(),
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
