//! `canaryctl` — run ad-hoc scenarios from the command line.
//!
//! ```text
//! canaryctl [--strategy canary|canary-ar|canary-lr|canary-migrate|retry|ideal|rr|as]
//!           [--workload dl|web|spark|compress|bfs]
//!           [--invocations N] [--rate F] [--nodes N] [--seed N]
//!           [--reps N] [--node-failures F] [OUTPUTS]
//! OUTPUTS:  [--trace-out PATH] [--telemetry-out PATH] [--timeline]
//!           [--perfetto-out PATH] [--spans-out PATH] [--blame] [--wal-out PATH]
//!
//! canaryctl chaos [--scenario NAME | --spec PATH] [--seed N]
//!                 [--strategy ...] [--list] [OUTPUTS]
//!
//! canaryctl wal --in WAL.bin
//!
//! canaryctl load [--quick] [--rates F,F,...] [--jobs N]
//!                [--max-inflight N] [--error-rate F] [--seed N]
//!                [--strategy ...] [--out PATH]
//!
//! canaryctl trace --in TRACE.jsonl [--perfetto PATH] [--spans PATH]
//!                 [--job N] [--blame]
//!
//! canaryctl fig <fig4 … fig12 | workflow_study | all> [--reps N]
//! ```
//!
//! `OUTPUTS`, shared by both run commands, run one extra observed
//! repetition of the *first* strategy (at `--seed`) and export it:
//! `--trace-out` / `--telemetry-out` write JSONL, `--timeline` prints the
//! ASCII swimlane, recovery breakdown, and telemetry summary,
//! `--perfetto-out` / `--spans-out` / `--blame` export Chrome/Perfetto
//! JSON, span JSONL, or the critical-path blame table, and `--wal-out`
//! (Canary strategies only) dumps the metadata db's write-ahead-log
//! image. Each output is what its flag writes alone, whatever else is
//! asked for; only `--trace-out` next to a causal output also carries the
//! causal link fields.
//!
//! The `trace` subcommand analyzes a previously exported `--trace-out`
//! file offline: convert it to Perfetto (`--perfetto`) or span JSONL
//! (`--spans`), print one job's critical path (`--job`), or print the
//! run-level blame table (`--blame`, the default).
//!
//! The `load` subcommand sweeps an open-loop Poisson offered load
//! against the admission gate and prints the response-time distribution
//! (p50/p95/p99, queue wait, peak queue depth, SLO attainment) per
//! strategy and rate; `--out` also writes the sweep as JSON.
//!
//! The `chaos` subcommand runs one observed run of the canonical chaos
//! demo scenario under a named fault plan (`--scenario`, see `--list`)
//! or a TOML spec file (`--spec`). The fault schedule is spec-driven;
//! `--seed` moves only the straggler/corruption oracles and the regular
//! failure injection, so a failing seed reproduces byte-identically.
//!
//! The `wal` subcommand inspects such a dump: the snapshot header, every
//! logged record, and any torn tail. Corruption is reported as a typed
//! error and exits nonzero.
//!
//! The `fig` subcommand regenerates one figure of the paper's evaluation
//! (`fig4` … `fig12`), the workflow extension study (`workflow_study`),
//! or every paper figure (`all`) into `results/` under the working
//! directory, averaging each point over `--reps` repetitions (the
//! paper's 10 by default). It prints each result set as an ASCII table.
//!
//! Example: compare Canary against retry on 200 BFS functions at 25%:
//!
//! ```sh
//! cargo run --release -p canary-experiments --bin canaryctl -- \
//!   --workload bfs --invocations 200 --rate 0.25
//! ```

use canary_core::{CanaryStrategy, ReplicationStrategyKind};
use canary_experiments::{
    chaos, export, figures, FigureOptions, ObsOptions, Scenario, StrategyKind,
};
use canary_platform::{JobSpec, RunResult, TraceKind};
use canary_workloads::{WorkloadKind, WorkloadSpec};
use std::process::exit;

#[derive(Debug)]
struct Args {
    strategies: Vec<StrategyKind>,
    workload: WorkloadKind,
    invocations: u32,
    rate: f64,
    nodes: u32,
    seed: u64,
    reps: u64,
    node_failures: f64,
    obs: ObsOptions,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            strategies: vec![
                StrategyKind::Ideal,
                StrategyKind::Retry,
                StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
            ],
            workload: WorkloadKind::WebService,
            invocations: 100,
            rate: 0.15,
            nodes: 16,
            seed: 42,
            reps: 3,
            node_failures: 0.0,
            obs: ObsOptions::default(),
        }
    }
}

/// Every name `parse_strategy` accepts, as the usage texts list them.
const STRATEGY_NAMES: &str = "canary|canary-ar|canary-lr|canary-migrate|retry|ideal|rr|as";

fn usage() -> ! {
    eprintln!(
        "usage: canaryctl [--strategy {STRATEGY_NAMES}]\n\
         \x20                [--workload dl|web|spark|compress|bfs]\n\
         \x20                [--invocations N] [--rate F] [--nodes N] [--seed N]\n\
         \x20                [--reps N] [--node-failures F]\n\
         \x20                [--trace-out PATH] [--telemetry-out PATH] [--timeline]\n\
         \x20                [--perfetto-out PATH] [--spans-out PATH] [--blame]\n\
         \x20                [--wal-out PATH]\n\
         subcommands: chaos, fig, load, trace, wal (see canaryctl <cmd> --help)"
    );
    exit(2)
}

fn parse_strategy(s: &str) -> StrategyKind {
    match s {
        "canary" => StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
        "canary-ar" => StrategyKind::Canary(ReplicationStrategyKind::Aggressive),
        "canary-lr" => StrategyKind::Canary(ReplicationStrategyKind::Lenient),
        "canary-migrate" => StrategyKind::CanaryMigrate,
        "retry" => StrategyKind::Retry,
        "ideal" => StrategyKind::Ideal,
        "rr" => StrategyKind::RequestReplication(2),
        "as" => StrategyKind::ActiveStandby,
        other => {
            eprintln!("unknown strategy: {other}");
            usage()
        }
    }
}

/// `--wal-out` dumps the Canary metadata db's log, so the observed
/// strategy must be a Canary kind; anything else is a usage error.
fn check_wal_out(obs: &ObsOptions, kind: StrategyKind, usage: fn() -> !) {
    if obs.wal_out.is_some() && kind.canary_config().is_none() {
        eprintln!("--wal-out requires a canary strategy (the WAL is its metadata log)");
        usage()
    }
}

/// The one observed run behind the default command and `chaos`: `kind`
/// once at `seed`, recording what the requested outputs need
/// ([`ObsOptions::observe`]). For `--wal-out` the Canary strategy is
/// built here and kept after the run, so its write-ahead-log image can
/// be written.
fn observed_run(scenario: &Scenario, kind: StrategyKind, seed: u64, obs: &ObsOptions) -> RunResult {
    let Some(path) = &obs.wal_out else {
        return scenario.run(kind, seed, obs.observe());
    };
    let config = kind
        .canary_config()
        .expect("check_wal_out admits only Canary kinds");
    let mut strategy = CanaryStrategy::new(config);
    let result = scenario.run_with(kind, seed, obs.observe(), &mut strategy);
    let bytes = strategy
        .db()
        .kv()
        .wal()
        .expect("CanaryStrategy::new logs its metadata db through a WAL")
        .to_bytes();
    std::fs::write(path, &bytes).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        exit(1)
    });
    println!("wal image -> {} ({} bytes)", path.display(), bytes.len());
    result
}

fn parse_workload(s: &str) -> WorkloadKind {
    match s {
        "dl" => WorkloadKind::DeepLearning,
        "web" => WorkloadKind::WebService,
        "spark" => WorkloadKind::SparkDataMining,
        "compress" => WorkloadKind::Compression,
        "bfs" => WorkloadKind::GraphBfs,
        other => {
            eprintln!("unknown workload: {other}");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut explicit_strategies: Vec<StrategyKind> = Vec::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (obs, rest) = ObsOptions::extract(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    args.obs = obs;
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--strategy" => explicit_strategies.push(parse_strategy(&value("--strategy"))),
            "--workload" => args.workload = parse_workload(&value("--workload")),
            "--invocations" => {
                args.invocations = value("--invocations").parse().unwrap_or_else(|_| usage())
            }
            "--rate" => args.rate = value("--rate").parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--reps" => args.reps = value("--reps").parse().unwrap_or_else(|_| usage()),
            "--node-failures" => {
                args.node_failures = value("--node-failures").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    if !explicit_strategies.is_empty() {
        args.strategies = explicit_strategies;
    }
    check_wal_out(&args.obs, args.strategies[0], usage);
    if !(0.0..=1.0).contains(&args.rate)
        || !(0.0..=1.0).contains(&args.node_failures)
        || args.invocations == 0
        || args.nodes == 0
        || args.reps == 0
    {
        usage()
    }
    args
}

fn chaos_usage() -> ! {
    eprintln!(
        "usage: canaryctl chaos [--scenario NAME | --spec PATH] [--seed N]\n\
         \x20                      [--strategy {STRATEGY_NAMES}]\n\
         \x20                      [--list]\n\
         \x20                      [--trace-out PATH] [--telemetry-out PATH] [--timeline]\n\
         \x20                      [--perfetto-out PATH] [--spans-out PATH] [--blame]\n\
         \x20                      [--wal-out PATH]\n\
         scenarios: {}",
        chaos::SCENARIOS.join(", ")
    );
    exit(2)
}

fn chaos_main(raw: Vec<String>) {
    let (obs, rest) = ObsOptions::extract(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        chaos_usage()
    });
    let mut scenario_name = "mixed".to_string();
    let mut spec_path: Option<String> = None;
    let mut seed: u64 = 42;
    let mut strategy = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                chaos_usage()
            })
        };
        match flag.as_str() {
            "--scenario" => scenario_name = value("--scenario"),
            "--spec" => spec_path = Some(value("--spec")),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| chaos_usage()),
            "--strategy" => strategy = parse_strategy(&value("--strategy")),
            "--list" => {
                for name in chaos::SCENARIOS {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => chaos_usage(),
            other => {
                eprintln!("unknown flag: {other}");
                chaos_usage()
            }
        }
    }
    let spec = match &spec_path {
        Some(path) => {
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1)
            });
            chaos::parse_spec(&src).unwrap_or_else(|e| {
                eprintln!("bad chaos spec {path}: {e}");
                exit(1)
            })
        }
        None => chaos::named(&scenario_name).unwrap_or_else(|| {
            eprintln!("unknown chaos scenario: {scenario_name}");
            chaos_usage()
        }),
    };
    let scenario = chaos::demo_scenario(spec);
    let expected: u32 = scenario.jobs.iter().map(|j| j.invocations).sum();
    check_wal_out(&obs, strategy, chaos_usage);
    let result = observed_run(&scenario, strategy, seed, &obs);

    let source = spec_path.unwrap_or(scenario_name);
    println!(
        "chaos run: {source} strategy={} seed={seed}",
        strategy.label()
    );
    println!(
        "completed {}/{} functions, makespan {:.1} s",
        result.completed_count(),
        expected,
        result.makespan().as_secs_f64()
    );
    // Every count but partitions comes from the counter registry's rule;
    // no counter tracks partitions.
    let counts = canary_platform::counters_from_trace(&result.trace);
    for (label, count) in [
        (
            "partitions",
            result
                .trace
                .count(|k| matches!(k, TraceKind::PartitionStarted { .. })) as u64,
        ),
        ("store outages", counts.run.store_outages),
        ("store rejoins", counts.store_rejoins),
        ("stragglers", counts.run.stragglers_injected),
        ("checkpoints skipped", counts.run.checkpoints_skipped),
        ("corrupted checkpoints", counts.checkpoints_corrupted),
        ("restore fallbacks", counts.run.restore_fallbacks),
        ("controller crashes", counts.run.controller_crashes),
        ("wal records replayed", counts.run.wal_records_replayed),
    ] {
        println!("  {label:<22} {count}");
    }
    if obs.any() {
        println!();
        export::export_result(&result, &obs).unwrap_or_else(|e| {
            eprintln!("observability export failed: {e}");
            exit(1)
        });
    }
    if result.completed_count() != expected as usize {
        eprintln!(
            "FAIL: {} of {expected} functions completed",
            result.completed_count()
        );
        exit(1);
    }
}

fn load_usage() -> ! {
    eprintln!(
        "usage: canaryctl load [--quick] [--rates F,F,...] [--jobs N]\n\
         \x20                     [--max-inflight N] [--error-rate F] [--seed N]\n\
         \x20                     [--strategy {STRATEGY_NAMES}]\n\
         \x20                     [--out PATH]"
    );
    exit(2)
}

fn load_main(raw: Vec<String>) {
    use canary_experiments::load::{run_study, study_table, study_to_json, LoadConfig};
    let mut cfg = LoadConfig::paper();
    let mut mode = "full";
    let mut strategies: Vec<StrategyKind> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                load_usage()
            })
        };
        match flag.as_str() {
            "--quick" => {
                cfg.jobs = LoadConfig::quick().jobs;
                mode = "quick";
            }
            "--rates" => {
                cfg.rates_hz = value("--rates")
                    .split(',')
                    .map(|r| r.parse().unwrap_or_else(|_| load_usage()))
                    .collect();
            }
            "--jobs" => cfg.jobs = value("--jobs").parse().unwrap_or_else(|_| load_usage()),
            "--max-inflight" => {
                cfg.max_inflight = value("--max-inflight")
                    .parse()
                    .unwrap_or_else(|_| load_usage())
            }
            "--error-rate" => {
                cfg.error_rate = value("--error-rate")
                    .parse()
                    .unwrap_or_else(|_| load_usage())
            }
            "--seed" => cfg.run_seed = value("--seed").parse().unwrap_or_else(|_| load_usage()),
            "--strategy" => strategies.push(parse_strategy(&value("--strategy"))),
            "--out" => out = Some(value("--out")),
            "--help" | "-h" => load_usage(),
            other => {
                eprintln!("unknown flag: {other}");
                load_usage()
            }
        }
    }
    if cfg.rates_hz.is_empty()
        || cfg.rates_hz.iter().any(|r| !(r.is_finite() && *r > 0.0))
        || cfg.jobs == 0
        || cfg.max_inflight == 0
        || !(0.0..=1.0).contains(&cfg.error_rate)
    {
        load_usage()
    }
    if strategies.is_empty() {
        strategies = vec![
            StrategyKind::Ideal,
            StrategyKind::Retry,
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
        ];
    }
    println!(
        "open-loop load sweep: {} jobs/point, rates {:?} jobs/s, \
         max_inflight={}, error rate {:.0}%, seed {}\n",
        cfg.jobs,
        cfg.rates_hz,
        cfg.max_inflight,
        cfg.error_rate * 100.0,
        cfg.run_seed
    );
    let points = run_study(&cfg, &strategies);
    print!("{}", study_table(&points));
    if let Some(path) = out {
        std::fs::write(&path, study_to_json(&cfg, mode, &points)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        println!("\nwrote {path}");
    }
}

fn trace_usage() -> ! {
    eprintln!(
        "usage: canaryctl trace --in TRACE.jsonl [--perfetto PATH] [--spans PATH]\n\
         \x20                      [--job N] [--blame]\n\
         analyzes/converts a trace exported with --trace-out; critical paths and\n\
         flow arrows need a trace recorded with causal links (--perfetto-out,\n\
         --spans-out, or --blame on the recording run)"
    );
    exit(2)
}

fn trace_main(raw: Vec<String>) {
    let mut input: Option<String> = None;
    let mut perfetto: Option<String> = None;
    let mut spans: Option<String> = None;
    let mut job: Option<u32> = None;
    let mut blame = false;
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                trace_usage()
            })
        };
        match flag.as_str() {
            "--in" => input = Some(value("--in")),
            "--perfetto" => perfetto = Some(value("--perfetto")),
            "--spans" => spans = Some(value("--spans")),
            "--job" => job = Some(value("--job").parse().unwrap_or_else(|_| trace_usage())),
            "--blame" => blame = true,
            "--help" | "-h" => trace_usage(),
            other => {
                eprintln!("unknown flag: {other}");
                trace_usage()
            }
        }
    }
    let Some(input) = input else { trace_usage() };
    let src = std::fs::read_to_string(&input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1)
    });
    let trace = export::trace_from_jsonl(&src).unwrap_or_else(|e| {
        eprintln!("bad trace {input}: {e}");
        exit(1)
    });
    let forest = canary_metrics::span_forest(&trace).unwrap_or_else(|e| {
        eprintln!("inconsistent causal links in {input}: {e}");
        exit(1)
    });
    eprintln!(
        "trace: {} events, {} spans, {} causal trees",
        trace.events.len(),
        forest.defined.len(),
        forest.tree_count()
    );
    if let Some(path) = &perfetto {
        std::fs::write(path, export::trace_to_perfetto(&trace)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        eprintln!("perfetto -> {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = &spans {
        std::fs::write(path, export::spans_to_jsonl(&trace)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        eprintln!("spans -> {path}");
    }
    if let Some(id) = job {
        print!(
            "{}",
            canary_metrics::critical_path_report(&trace, canary_platform::JobId(id))
        );
    }
    if blame || (perfetto.is_none() && spans.is_none() && job.is_none()) {
        print!("{}", canary_metrics::blame_report(&trace));
    }
}

fn wal_usage() -> ! {
    eprintln!(
        "usage: canaryctl wal --in WAL.bin\n\
         inspects a write-ahead-log image dumped with `canaryctl chaos --wal-out`:\n\
         prints the snapshot header, every logged record, and any torn tail;\n\
         exits nonzero if the image is corrupt"
    );
    exit(2)
}

fn wal_op_line(op: &canary_kvstore::WalOp) -> String {
    use canary_kvstore::WalOp;
    let printable = |b: &[u8]| -> String {
        if b.iter().all(|c| c.is_ascii_graphic() || *c == b' ') {
            String::from_utf8_lossy(b).into_owned()
        } else {
            format!("<{} bytes>", b.len())
        }
    };
    match op {
        WalOp::Put { key, value } => {
            format!("put    {} ({} bytes)", printable(key), value.len())
        }
        WalOp::Remove { key } => format!("remove {}", printable(key)),
        WalOp::FailNode(n) => format!("fail-node    {n}"),
        WalOp::RecoverNode(n) => format!("recover-node {n}"),
        WalOp::RejoinEmpty(n) => format!("rejoin-empty {n}"),
    }
}

fn wal_main(raw: Vec<String>) {
    use canary_kvstore::{Wal, WalConfig};
    let mut input: Option<String> = None;
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                wal_usage()
            })
        };
        match flag.as_str() {
            "--in" => input = Some(value("--in")),
            "--help" | "-h" => wal_usage(),
            other => {
                eprintln!("unknown flag: {other}");
                wal_usage()
            }
        }
    }
    let Some(input) = input else { wal_usage() };
    let bytes = std::fs::read(&input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(1)
    });
    let wal = Wal::from_bytes(&bytes, WalConfig::default()).unwrap_or_else(|e| {
        eprintln!("corrupt wal image {input}: {e}");
        exit(1)
    });
    let replay = wal.replay().unwrap_or_else(|e| {
        eprintln!("corrupt wal log {input}: {e}");
        exit(1)
    });
    let stats = wal.stats();
    println!(
        "wal image: {} bytes ({} snapshot + {} log)",
        bytes.len(),
        stats.snapshot_bytes,
        stats.log_bytes
    );
    match &replay.snapshot {
        Some(snap) => {
            let alive: Vec<String> = snap
                .alive
                .iter()
                .enumerate()
                .map(|(i, a)| format!("{i}{}", if *a { "+" } else { "-" }))
                .collect();
            println!(
                "snapshot: generation {}, members [{}], {} entries",
                snap.generation,
                alive.join(" "),
                snap.entries.len()
            );
        }
        None => println!("snapshot: none (log never compacted)"),
    }
    println!(
        "log: {} records, {} bytes replayed",
        replay.ops.len(),
        replay.replayed_bytes
    );
    for (i, op) in replay.ops.iter().enumerate() {
        println!("  [{i:>4}] {}", wal_op_line(op));
    }
    match replay.torn_at {
        Some(offset) => println!("torn tail at log offset {offset} (discarded on replay)"),
        None => println!("clean tail (log ends on a record boundary)"),
    }
}

fn fig_usage() -> ! {
    let mut names: Vec<&str> = figures::OUTPUTS.iter().map(|(name, _, _)| *name).collect();
    names.dedup();
    eprintln!(
        "usage: canaryctl fig <name> [--reps N]\n\
         names: {}, all\n\
         writes results/<stem>.csv and .md under the working directory;\n\
         --reps sets the repetitions per point (default {})",
        names.join(", "),
        FigureOptions::default().reps
    );
    exit(2)
}

fn fig_main(raw: Vec<String>) {
    let mut name: Option<String> = None;
    let mut opts = FigureOptions::default();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                opts.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fig_usage())
            }
            "--help" | "-h" => fig_usage(),
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag: {flag}");
                fig_usage()
            }
            _ if name.is_none() => name = Some(arg),
            _ => {
                eprintln!("unexpected argument: {arg}");
                fig_usage()
            }
        }
    }
    let Some(name) = name else { fig_usage() };
    let outputs = figures::outputs(&name);
    if outputs.is_empty() {
        eprintln!("unknown figure: {name}");
        fig_usage()
    }
    if opts.reps == 0 {
        fig_usage()
    }
    let t0 = std::time::Instant::now();
    for (stem, build) in &outputs {
        canary_experiments::emit(stem, &build(&opts)).unwrap_or_else(|e| {
            eprintln!("cannot write results: {e}");
            exit(1)
        });
    }
    eprintln!(
        "regenerated {} result sets in {:.1?}",
        outputs.len(),
        t0.elapsed()
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("fig") => {
            fig_main(std::env::args().skip(2).collect());
            return;
        }
        Some("chaos") => {
            chaos_main(std::env::args().skip(2).collect());
            return;
        }
        Some("wal") => {
            wal_main(std::env::args().skip(2).collect());
            return;
        }
        Some("load") => {
            load_main(std::env::args().skip(2).collect());
            return;
        }
        Some("trace") => {
            trace_main(std::env::args().skip(2).collect());
            return;
        }
        _ => {}
    }
    let args = parse_args();
    let mut scenario = Scenario::chameleon(
        args.rate,
        vec![JobSpec::new(
            WorkloadSpec::paper_default(args.workload),
            args.invocations,
        )],
    );
    scenario.nodes = args.nodes;
    scenario.node_failure_rate = args.node_failures;

    println!(
        "workload={} invocations={} rate={:.0}% nodes={} reps={} seed={}\n",
        args.workload,
        args.invocations,
        args.rate * 100.0,
        args.nodes,
        args.reps,
        args.seed,
    );
    println!(
        "{:<12} {:>13} {:>15} {:>12} {:>11} {:>9}",
        "strategy", "makespan (s)", "recovery (s)", "failures", "cost ($)", "cv (%)"
    );
    for &strategy in &args.strategies {
        let rep = scenario.run_repeated(strategy, args.reps);
        println!(
            "{:<12} {:>13.1} {:>15.1} {:>12.1} {:>11.4} {:>9.2}",
            rep.strategy(),
            rep.makespan().mean,
            rep.total_recovery().mean,
            rep.failures().mean,
            rep.cost().mean,
            rep.worst_cv() * 100.0,
        );
    }
    if args.obs.any() || args.obs.wal_out.is_some() {
        println!();
        let observed = observed_run(&scenario, args.strategies[0], args.seed, &args.obs);
        export::export_result(&observed, &args.obs).unwrap_or_else(|e| {
            eprintln!("observability export failed: {e}");
            exit(1)
        });
    }
}
