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
//! Each command reads all of its flags before it acts, so their order
//! never matters. The exit status is 2 for a command line that does not
//! parse (after a reason line and that command's usage), 1 for a failed
//! run, read or write, and 0 otherwise. A reader that closes stdout early
//! (`canaryctl … | head`) ends only stdout: the command still writes
//! every file it was asked for and exits with its own status.
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
use std::fmt::Display;
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// Every name [`Flags::strategy`] accepts, as the usage texts list them.
const STRATEGY_NAMES: &str = "canary|canary-ar|canary-lr|canary-migrate|retry|ideal|rr|as";

/// What the default command and `load` compare without a `--strategy`.
const DEFAULT_STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Ideal,
    StrategyKind::Retry,
    StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
];

/// The default command and the five subcommands.
#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    Run,
    Chaos,
    Load,
    Trace,
    Wal,
    Fig,
}

impl Cmd {
    /// The usage text printed after a command line that does not parse.
    fn usage(self) -> String {
        match self {
            Cmd::Run => format!(
                "usage: canaryctl [--strategy {STRATEGY_NAMES}]\n\
                 \x20                [--workload dl|web|spark|compress|bfs]\n\
                 \x20                [--invocations N] [--rate F] [--nodes N] [--seed N]\n\
                 \x20                [--reps N] [--node-failures F]\n\
                 \x20                [--trace-out PATH] [--telemetry-out PATH] [--timeline]\n\
                 \x20                [--perfetto-out PATH] [--spans-out PATH] [--blame]\n\
                 \x20                [--wal-out PATH]\n\
                 subcommands: chaos, fig, load, trace, wal (see canaryctl <cmd> --help)"
            ),
            Cmd::Chaos => format!(
                "usage: canaryctl chaos [--scenario NAME | --spec PATH] [--seed N]\n\
                 \x20                      [--strategy {STRATEGY_NAMES}]\n\
                 \x20                      [--list]\n\
                 \x20                      [--trace-out PATH] [--telemetry-out PATH] [--timeline]\n\
                 \x20                      [--perfetto-out PATH] [--spans-out PATH] [--blame]\n\
                 \x20                      [--wal-out PATH]\n\
                 scenarios: {}",
                chaos::SCENARIOS.join(", ")
            ),
            Cmd::Load => format!(
                "usage: canaryctl load [--quick] [--rates F,F,...] [--jobs N]\n\
                 \x20                     [--max-inflight N] [--error-rate F] [--seed N]\n\
                 \x20                     [--strategy {STRATEGY_NAMES}]\n\
                 \x20                     [--out PATH]"
            ),
            Cmd::Trace => "usage: canaryctl trace --in TRACE.jsonl [--perfetto PATH] \
                 [--spans PATH]\n\
                 \x20                      [--job N] [--blame]\n\
                 analyzes/converts a trace exported with --trace-out; critical paths and\n\
                 flow arrows need a trace recorded with causal links (--perfetto-out,\n\
                 --spans-out, or --blame on the recording run)"
                .into(),
            Cmd::Wal => "usage: canaryctl wal --in WAL.bin\n\
                 inspects a write-ahead-log image dumped with `canaryctl chaos --wal-out`:\n\
                 prints the snapshot header, every logged record, and any torn tail;\n\
                 exits nonzero if the image is corrupt"
                .into(),
            Cmd::Fig => {
                let mut names: Vec<&str> = figures::OUTPUTS.iter().map(|o| o.0).collect();
                names.dedup();
                format!(
                    "usage: canaryctl fig <name> [--reps N]\n\
                     names: {}, all\n\
                     writes results/<stem>.csv and .md under the working directory;\n\
                     --reps sets the repetitions per point (default {})",
                    names.join(", "),
                    FigureOptions::default().reps
                )
            }
        }
    }
}

/// Why a command stopped; `main` alone turns it into an exit status.
enum Failure {
    /// The command line does not parse: exit 2 after the reason (unless
    /// empty) and the command's usage.
    Usage(Cmd, String),
    /// A run, read or write failed: exit 1 after the message.
    Other(String),
}

/// The failure of `what` with error `e`.
fn fail(what: impl Display, e: impl Display) -> Failure {
    Failure::Other(format!("{what}: {e}"))
}

impl From<io::Error> for Failure {
    /// A failed stdout write: every file operation names its path
    /// through [`fail`] instead.
    fn from(e: io::Error) -> Self {
        fail("cannot write stdout", e)
    }
}

/// One command's arguments after its name, read front to back. Each
/// command reads every flag through this cursor before it acts.
struct Flags {
    cmd: Cmd,
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// A usage error of this command; an empty reason prints the usage
    /// alone.
    fn usage(&self, reason: impl Into<String>) -> Failure {
        Failure::Usage(self.cmd, reason.into())
    }

    /// The error for `flag`, which this command does not take: `--help`
    /// and `-h` ask for the usage alone.
    fn unknown(&self, flag: &str) -> Failure {
        match flag {
            "--help" | "-h" => self.usage(""),
            _ => self.usage(format!("unknown flag: {flag}")),
        }
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<String, Failure> {
        self.args
            .next()
            .ok_or_else(|| self.usage(format!("missing value for {flag}")))
    }

    /// The value after `flag`, parsed and accepted by `ok`.
    fn parse<T: FromStr>(&mut self, flag: &str, ok: impl Fn(&T) -> bool) -> Result<T, Failure> {
        let raw = self.value(flag)?;
        raw.parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| self.usage(format!("invalid value for {flag}: {raw}")))
    }

    /// The strategy after `--strategy`.
    fn strategy(&mut self) -> Result<StrategyKind, Failure> {
        Ok(match self.value("--strategy")?.as_str() {
            "canary" => StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
            "canary-ar" => StrategyKind::Canary(ReplicationStrategyKind::Aggressive),
            "canary-lr" => StrategyKind::Canary(ReplicationStrategyKind::Lenient),
            "canary-migrate" => StrategyKind::CanaryMigrate,
            "retry" => StrategyKind::Retry,
            "ideal" => StrategyKind::Ideal,
            "rr" => StrategyKind::RequestReplication(2),
            "as" => StrategyKind::ActiveStandby,
            other => return Err(self.usage(format!("unknown strategy: {other}"))),
        })
    }

    /// Reads `flag`, one of the seven output flags both run commands
    /// take, into `obs`; any other flag is unknown.
    fn output(&mut self, flag: &str, obs: &mut ObsOptions) -> Result<(), Failure> {
        let path = match flag {
            "--trace-out" => &mut obs.trace_out,
            "--telemetry-out" => &mut obs.telemetry_out,
            "--perfetto-out" => &mut obs.perfetto_out,
            "--spans-out" => &mut obs.spans_out,
            "--wal-out" => &mut obs.wal_out,
            "--timeline" => {
                obs.timeline = true;
                return Ok(());
            }
            "--blame" => {
                obs.blame = true;
                return Ok(());
            }
            _ => return Err(self.unknown(flag)),
        };
        *path = Some(self.value(flag)?.into());
        Ok(())
    }
}

/// A rate or probability flag's rule.
fn probability(p: &f64) -> bool {
    (0.0..=1.0).contains(p)
}

/// The one stdout every command writes to. A reader that closes early
/// (`| head`) ends only stdout: the first `BrokenPipe` drops the rest of
/// it, so the command still writes every file it was asked for and exits
/// with its own status.
struct Stdout(Option<io::Stdout>);

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.0.as_mut().map(|stdout| stdout.write(buf)) {
            Some(Err(e)) if e.kind() == io::ErrorKind::BrokenPipe => self.0 = None,
            Some(written) => return written,
            None => {}
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.0.as_mut().map(Write::flush) {
            Some(Err(e)) if e.kind() == io::ErrorKind::BrokenPipe => self.0 = None,
            Some(flushed) => return flushed,
            None => {}
        }
        Ok(())
    }
}

/// `--wal-out` dumps the Canary metadata db's log, so the observed
/// strategy must be a Canary kind; anything else is a usage error.
fn check_wal_out(flags: &Flags, obs: &ObsOptions, kind: StrategyKind) -> Result<(), Failure> {
    if obs.wal_out.is_some() && kind.canary_config().is_none() {
        let reason = "--wal-out requires a canary strategy (the WAL is its metadata log)";
        return Err(flags.usage(reason));
    }
    Ok(())
}

/// The one observed run behind the default command and `chaos`: `kind`
/// once at `seed`, recording what the requested outputs need
/// ([`ObsOptions::observe`]). For `--wal-out` the Canary strategy is
/// built here and kept after the run, so its write-ahead-log image can
/// be written.
fn observed_run(
    scenario: &Scenario,
    kind: StrategyKind,
    seed: u64,
    obs: &ObsOptions,
    out: &mut impl Write,
) -> Result<RunResult, Failure> {
    let Some(path) = &obs.wal_out else {
        return Ok(scenario.run(kind, seed, obs.observe()));
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
    std::fs::write(path, &bytes)
        .map_err(|e| fail(format!("cannot write {}", path.display()), e))?;
    writeln!(
        out,
        "wal image -> {} ({} bytes)",
        path.display(),
        bytes.len()
    )?;
    Ok(result)
}

fn run_main(mut flags: Flags, out: &mut impl Write) -> Result<(), Failure> {
    let mut strategies = Vec::new();
    let mut workload = WorkloadKind::WebService;
    let mut invocations: u32 = 100;
    let mut rate = 0.15;
    let mut nodes: u32 = 16;
    let mut seed: u64 = 42;
    let mut reps: u64 = 3;
    let mut node_failures = 0.0;
    let mut obs = ObsOptions::default();
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--strategy" => strategies.push(flags.strategy()?),
            "--workload" => {
                workload = match flags.value("--workload")?.as_str() {
                    "dl" => WorkloadKind::DeepLearning,
                    "web" => WorkloadKind::WebService,
                    "spark" => WorkloadKind::SparkDataMining,
                    "compress" => WorkloadKind::Compression,
                    "bfs" => WorkloadKind::GraphBfs,
                    other => return Err(flags.usage(format!("unknown workload: {other}"))),
                }
            }
            "--invocations" => invocations = flags.parse("--invocations", |&n| n > 0)?,
            "--rate" => rate = flags.parse("--rate", probability)?,
            "--nodes" => nodes = flags.parse("--nodes", |&n| n > 0)?,
            "--seed" => seed = flags.parse("--seed", |_| true)?,
            "--reps" => reps = flags.parse("--reps", |&n| n > 0)?,
            "--node-failures" => node_failures = flags.parse("--node-failures", probability)?,
            other => flags.output(other, &mut obs)?,
        }
    }
    if strategies.is_empty() {
        strategies = DEFAULT_STRATEGIES.to_vec();
    }
    check_wal_out(&flags, &obs, strategies[0])?;
    let job = JobSpec::new(WorkloadSpec::paper_default(workload), invocations);
    let mut scenario = Scenario::chameleon(rate, vec![job]);
    scenario.nodes = nodes;
    scenario.node_failure_rate = node_failures;

    writeln!(
        out,
        "workload={workload} invocations={invocations} rate={:.0}% nodes={nodes} \
         reps={reps} seed={seed}\n",
        rate * 100.0,
    )?;
    writeln!(
        out,
        "{:<12} {:>13} {:>15} {:>12} {:>11} {:>9}",
        "strategy", "makespan (s)", "recovery (s)", "failures", "cost ($)", "cv (%)"
    )?;
    for &strategy in &strategies {
        let rep = scenario.run_repeated(strategy, reps);
        writeln!(
            out,
            "{:<12} {:>13.1} {:>15.1} {:>12.1} {:>11.4} {:>9.2}",
            rep.strategy(),
            rep.makespan().mean,
            rep.total_recovery().mean,
            rep.failures().mean,
            rep.cost().mean,
            rep.worst_cv() * 100.0,
        )?;
    }
    if obs.any() || obs.wal_out.is_some() {
        writeln!(out)?;
        let observed = observed_run(&scenario, strategies[0], seed, &obs, out)?;
        export::export_result(&observed, &obs, out)
            .map_err(|e| fail("observability export failed", e))?;
    }
    Ok(())
}

fn chaos_main(mut flags: Flags, out: &mut impl Write) -> Result<(), Failure> {
    let mut scenario_name = None;
    let mut spec_path = None;
    let mut seed: u64 = 42;
    let mut strategy = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
    let mut list = false;
    let mut obs = ObsOptions::default();
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--scenario" => scenario_name = Some(flags.value("--scenario")?),
            "--spec" => spec_path = Some(flags.value("--spec")?),
            "--seed" => seed = flags.parse("--seed", |_| true)?,
            "--strategy" => strategy = flags.strategy()?,
            "--list" => list = true,
            other => flags.output(other, &mut obs)?,
        }
    }
    if scenario_name.is_some() && spec_path.is_some() {
        return Err(flags.usage("--scenario and --spec are alternatives"));
    }
    if list {
        for name in chaos::SCENARIOS {
            writeln!(out, "{name}")?;
        }
        return Ok(());
    }
    let (source, spec) = match spec_path {
        Some(path) => {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| fail(format!("cannot read {path}"), e))?;
            let spec =
                chaos::parse_spec(&src).map_err(|e| fail(format!("bad chaos spec {path}"), e))?;
            (path, spec)
        }
        None => {
            let name = scenario_name.unwrap_or_else(|| "mixed".into());
            let spec = chaos::named(&name)
                .ok_or_else(|| flags.usage(format!("unknown chaos scenario: {name}")))?;
            (name, spec)
        }
    };
    let scenario = chaos::demo_scenario(spec);
    let expected: u32 = scenario.jobs.iter().map(|j| j.invocations).sum();
    check_wal_out(&flags, &obs, strategy)?;
    let result = observed_run(&scenario, strategy, seed, &obs, out)?;

    writeln!(
        out,
        "chaos run: {source} strategy={} seed={seed}",
        strategy.label()
    )?;
    writeln!(
        out,
        "completed {}/{} functions, makespan {:.1} s",
        result.completed_count(),
        expected,
        result.makespan().as_secs_f64()
    )?;
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
        writeln!(out, "  {label:<22} {count}")?;
    }
    if obs.any() {
        writeln!(out)?;
        export::export_result(&result, &obs, out)
            .map_err(|e| fail("observability export failed", e))?;
    }
    if result.completed_count() != expected as usize {
        return Err(Failure::Other(format!(
            "FAIL: {} of {expected} functions completed",
            result.completed_count()
        )));
    }
    Ok(())
}

fn load_main(mut flags: Flags, out: &mut impl Write) -> Result<(), Failure> {
    use canary_experiments::load::{run_study, study_table, study_to_json, LoadConfig};
    let mut cfg = LoadConfig::paper();
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut strategies = Vec::new();
    let mut path = None;
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--rates" => {
                let rates = flags.value("--rates")?;
                cfg.rates_hz = rates
                    .split(',')
                    .map(|r| r.parse().ok().filter(|r: &f64| r.is_finite() && *r > 0.0))
                    .collect::<Option<_>>()
                    .ok_or_else(|| flags.usage(format!("invalid value for --rates: {rates}")))?;
            }
            "--jobs" => jobs = Some(flags.parse("--jobs", |&n| n > 0)?),
            "--max-inflight" => cfg.max_inflight = flags.parse("--max-inflight", |&n| n > 0)?,
            "--error-rate" => cfg.error_rate = flags.parse("--error-rate", probability)?,
            "--seed" => cfg.run_seed = flags.parse("--seed", |_| true)?,
            "--strategy" => strategies.push(flags.strategy()?),
            "--out" => path = Some(flags.value("--out")?),
            other => return Err(flags.unknown(other)),
        }
    }
    if quick {
        cfg.jobs = LoadConfig::quick().jobs;
    }
    cfg.jobs = jobs.unwrap_or(cfg.jobs);
    if strategies.is_empty() {
        strategies = DEFAULT_STRATEGIES.to_vec();
    }
    writeln!(
        out,
        "open-loop load sweep: {} jobs/point, rates {:?} jobs/s, \
         max_inflight={}, error rate {:.0}%, seed {}\n",
        cfg.jobs,
        cfg.rates_hz,
        cfg.max_inflight,
        cfg.error_rate * 100.0,
        cfg.run_seed
    )?;
    let points = run_study(&cfg, &strategies);
    write!(out, "{}", study_table(&points))?;
    if let Some(path) = path {
        let mode = if quick { "quick" } else { "full" };
        std::fs::write(&path, study_to_json(&cfg, mode, &points))
            .map_err(|e| fail(format!("cannot write {path}"), e))?;
        writeln!(out, "\nwrote {path}")?;
    }
    Ok(())
}

fn trace_main(mut flags: Flags, out: &mut impl Write) -> Result<(), Failure> {
    let mut input = None;
    let mut perfetto = None;
    let mut spans = None;
    let mut job: Option<u32> = None;
    let mut blame = false;
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--in" => input = Some(flags.value("--in")?),
            "--perfetto" => perfetto = Some(flags.value("--perfetto")?),
            "--spans" => spans = Some(flags.value("--spans")?),
            "--job" => job = Some(flags.parse("--job", |_| true)?),
            "--blame" => blame = true,
            other => return Err(flags.unknown(other)),
        }
    }
    let input = input.ok_or_else(|| flags.usage("missing --in"))?;
    let src =
        std::fs::read_to_string(&input).map_err(|e| fail(format!("cannot read {input}"), e))?;
    let trace =
        export::trace_from_jsonl(&src).map_err(|e| fail(format!("bad trace {input}"), e))?;
    let forest = canary_metrics::span_forest(&trace)
        .map_err(|e| fail(format!("inconsistent causal links in {input}"), e))?;
    eprintln!(
        "trace: {} events, {} spans, {} causal trees",
        trace.events.len(),
        forest.defined.len(),
        forest.tree_count()
    );
    if let Some(path) = &perfetto {
        std::fs::write(path, export::trace_to_perfetto(&trace))
            .map_err(|e| fail(format!("cannot write {path}"), e))?;
        eprintln!("perfetto -> {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = &spans {
        std::fs::write(path, export::spans_to_jsonl(&trace))
            .map_err(|e| fail(format!("cannot write {path}"), e))?;
        eprintln!("spans -> {path}");
    }
    if let Some(id) = job {
        write!(
            out,
            "{}",
            canary_metrics::critical_path_report(&trace, canary_platform::JobId(id))
        )?;
    }
    if blame || (perfetto.is_none() && spans.is_none() && job.is_none()) {
        write!(out, "{}", canary_metrics::blame_report(&trace))?;
    }
    Ok(())
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

fn wal_main(mut flags: Flags, out: &mut impl Write) -> Result<(), Failure> {
    use canary_kvstore::{Wal, WalConfig};
    let mut input = None;
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--in" => input = Some(flags.value("--in")?),
            other => return Err(flags.unknown(other)),
        }
    }
    let input = input.ok_or_else(|| flags.usage("missing --in"))?;
    let bytes = std::fs::read(&input).map_err(|e| fail(format!("cannot read {input}"), e))?;
    let wal = Wal::from_bytes(&bytes, WalConfig::default())
        .map_err(|e| fail(format!("corrupt wal image {input}"), e))?;
    let replay = wal
        .replay()
        .map_err(|e| fail(format!("corrupt wal log {input}"), e))?;
    let stats = wal.stats();
    writeln!(
        out,
        "wal image: {} bytes ({} snapshot + {} log)",
        bytes.len(),
        stats.snapshot_bytes,
        stats.log_bytes
    )?;
    match &replay.snapshot {
        Some(snap) => {
            let alive: Vec<String> = snap
                .alive
                .iter()
                .enumerate()
                .map(|(i, a)| format!("{i}{}", if *a { "+" } else { "-" }))
                .collect();
            writeln!(
                out,
                "snapshot: generation {}, members [{}], {} entries",
                snap.generation,
                alive.join(" "),
                snap.entries.len()
            )?;
        }
        None => writeln!(out, "snapshot: none (log never compacted)")?,
    }
    writeln!(
        out,
        "log: {} records, {} bytes replayed",
        replay.ops.len(),
        replay.replayed_bytes
    )?;
    for (i, op) in replay.ops.iter().enumerate() {
        writeln!(out, "  [{i:>4}] {}", wal_op_line(op))?;
    }
    let tail = match replay.torn_at {
        Some(offset) => format!("torn tail at log offset {offset} (discarded on replay)"),
        None => "clean tail (log ends on a record boundary)".into(),
    };
    writeln!(out, "{tail}")?;
    Ok(())
}

fn fig_main(mut flags: Flags, out: &mut impl Write) -> Result<(), Failure> {
    let mut name = None;
    let mut opts = FigureOptions::default();
    while let Some(arg) = flags.args.next() {
        match arg.as_str() {
            "--reps" => opts.reps = flags.parse("--reps", |&n| n > 0)?,
            flag if flag.starts_with('-') => return Err(flags.unknown(flag)),
            _ if name.is_none() => name = Some(arg),
            _ => return Err(flags.usage(format!("unexpected argument: {arg}"))),
        }
    }
    let name: String = name.ok_or_else(|| flags.usage("missing figure name"))?;
    let outputs = figures::outputs(&name);
    if outputs.is_empty() {
        return Err(flags.usage(format!("unknown figure: {name}")));
    }
    let t0 = std::time::Instant::now();
    for (stem, build) in &outputs {
        let sets = build(&opts);
        for set in &sets {
            writeln!(out, "{}", canary_metrics::ascii_table(set))?;
        }
        canary_experiments::emit(stem, &sets).map_err(|e| fail("cannot write results", e))?;
    }
    eprintln!(
        "regenerated {} result sets in {:.1?}",
        outputs.len(),
        t0.elapsed()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    let cmd = match args.as_slice().first().map(String::as_str) {
        Some("chaos") => Cmd::Chaos,
        Some("load") => Cmd::Load,
        Some("trace") => Cmd::Trace,
        Some("wal") => Cmd::Wal,
        Some("fig") => Cmd::Fig,
        _ => Cmd::Run,
    };
    if cmd != Cmd::Run {
        args.next();
    }
    let flags = Flags { cmd, args };
    let mut out = Stdout(Some(io::stdout()));
    let outcome = match cmd {
        Cmd::Run => run_main(flags, &mut out),
        Cmd::Chaos => chaos_main(flags, &mut out),
        Cmd::Load => load_main(flags, &mut out),
        Cmd::Trace => trace_main(flags, &mut out),
        Cmd::Wal => wal_main(flags, &mut out),
        Cmd::Fig => fig_main(flags, &mut out),
    };
    match outcome.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(cmd, reason)) => {
            if !reason.is_empty() {
                eprintln!("{reason}");
            }
            eprintln!("{}", cmd.usage());
            ExitCode::from(2)
        }
        Err(Failure::Other(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
