//! Observability pipeline tests: JSONL export, timelines, telemetry
//! summaries, and the guarantee that observation never changes a run.

use canary_core::ReplicationStrategyKind;
use canary_experiments::export::kind_name;
use canary_experiments::{trace_from_jsonl, trace_to_jsonl, Observe, Scenario, StrategyKind};
use canary_platform::{JobSpec, Phase, TraceKind};
use canary_sim::SimRng;
use canary_workloads::{WorkloadKind, WorkloadSpec};
use std::path::PathBuf;
use std::process::Command;

mod golden;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

/// Small observed scenario with injected node failures: enough load for
/// checkpoints and at least one node-loss recovery, small enough to keep
/// the golden trace reviewable.
fn obs_scenario() -> Scenario {
    let mut s = Scenario::chameleon(
        0.15,
        vec![JobSpec::new(
            WorkloadSpec::paper_default(WorkloadKind::DeepLearning),
            8,
        )],
    );
    s.nodes = 4;
    s.node_failure_rate = 0.6;
    s
}

/// Fixed seed + fixed scenario must reproduce the exact same event
/// sequence run after run, and that sequence must tell the recovery
/// story in the right grammar.
#[test]
fn golden_trace_is_deterministic_and_well_formed() {
    let a = obs_scenario().run(CANARY, 42, Observe::TRACE);
    let b = obs_scenario().run(CANARY, 42, Observe::TRACE);
    let kinds_a: Vec<&str> = a.trace.events.iter().map(|e| kind_name(&e.kind)).collect();
    let kinds_b: Vec<&str> = b.trace.events.iter().map(|e| kind_name(&e.kind)).collect();
    assert_eq!(kinds_a, kinds_b, "same seed must give identical traces");
    assert_eq!(trace_to_jsonl(&a.trace), trace_to_jsonl(&b.trace));

    // The grammar: an arrival followed by a submit opens the run, node
    // loss leads to a recovery plan, and every recovery plan is followed
    // by a restart.
    assert_eq!(kinds_a.first(), Some(&"job_arrived"));
    assert!(kinds_a.contains(&"job_submitted"));
    for needed in [
        "node_failed",
        "checkpoint_written",
        "checkpoint_restored",
        "recovery_planned",
        "warm_pool_spawned",
    ] {
        assert!(
            kinds_a.contains(&needed),
            "expected {needed} in trace: {kinds_a:?}"
        );
    }
    let plans = kinds_a.iter().filter(|k| **k == "recovery_planned").count();
    let restores = kinds_a
        .iter()
        .filter(|k| **k == "checkpoint_restored")
        .count();
    assert_eq!(plans, restores, "each planned recovery restores once");
}

/// Observation is read-only: the same seed with trace+telemetry enabled
/// must produce the identical simulation outcome.
#[test]
fn observed_run_matches_unobserved_run() {
    let scenario = obs_scenario();
    let plain = scenario.run(CANARY, 42, Observe::NONE);
    let observed = scenario.run(CANARY, 42, Observe::TRACE);
    assert!(plain.trace.events.is_empty());
    assert!(!plain.telemetry.enabled);
    assert!(!observed.trace.events.is_empty());
    assert!(observed.telemetry.enabled);
    // RunResult has no PartialEq; compare the simulation-outcome fields
    // through their Debug form.
    assert_eq!(format!("{:?}", plain.fns), format!("{:?}", observed.fns));
    assert_eq!(format!("{:?}", plain.jobs), format!("{:?}", observed.jobs));
    assert_eq!(
        format!("{:?}", plain.containers),
        format!("{:?}", observed.containers)
    );
    assert_eq!(
        format!("{:?}", plain.counters),
        format!("{:?}", observed.counters)
    );
    assert_eq!(
        format!("{:?}", plain.finished_at),
        format!("{:?}", observed.finished_at)
    );
}

/// The observed run's telemetry must cover the recovery-relevant phases
/// with real samples.
#[test]
fn observed_run_records_recovery_histograms() {
    let r = obs_scenario().run(CANARY, 42, Observe::TRACE);
    let snap = &r.telemetry;
    for phase in [Phase::CheckpointWrite, Phase::RecoveryE2E] {
        let p = snap
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .unwrap_or_else(|| panic!("no {} samples in snapshot", phase.label()));
        assert!(p.count > 0);
        assert!(
            p.max.as_micros() > 0,
            "{} max must be non-zero",
            phase.label()
        );
    }
    assert!(!snap.tables.is_empty(), "db table traffic must be reported");
}

/// End-to-end through the CLI: a fixed-seed run with injected node
/// failures exports a parseable JSONL trace, a telemetry JSONL file,
/// and prints the timeline + recovery breakdown + summaries.
#[test]
fn canaryctl_exports_trace_timeline_and_telemetry() {
    let dir = std::env::temp_dir().join(format!("canary-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path: PathBuf = dir.join("trace.jsonl");
    let tel_path: PathBuf = dir.join("telemetry.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
        .args([
            "--strategy",
            "canary",
            "--workload",
            "dl",
            "--invocations",
            "30",
            "--rate",
            "0.15",
            "--nodes",
            "8",
            "--node-failures",
            "0.2",
            "--reps",
            "1",
            "--seed",
            "42",
            "--timeline",
        ])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--telemetry-out")
        .arg(&tel_path)
        .output()
        .expect("canaryctl runs");
    assert!(
        out.status.success(),
        "canaryctl failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The run header echoes the flags and nothing host-dependent.
    assert_eq!(
        stdout.lines().next(),
        Some("workload=DL invocations=30 rate=15% nodes=8 reps=1 seed=42")
    );

    // (a) the JSONL trace parses and contains the recovery events.
    let raw = std::fs::read_to_string(&trace_path).unwrap();
    let trace = trace_from_jsonl(&raw).expect("exported trace parses back");
    assert!(!trace.events.is_empty());
    for (name, pred) in [
        (
            "checkpoint_written",
            trace.count(|k| matches!(k, TraceKind::CheckpointWritten { .. })),
        ),
        (
            "checkpoint_restored",
            trace.count(|k| matches!(k, TraceKind::CheckpointRestored { .. })),
        ),
        (
            "recovery_planned",
            trace.count(|k| matches!(k, TraceKind::RecoveryPlanned { .. })),
        ),
    ] {
        assert!(
            pred > 0,
            "expected {name} events in {}",
            trace_path.display()
        );
    }

    // (b) the timeline output shows the critical-path breakdown.
    for needle in [
        "timeline",
        "recovery critical path",
        "detect",
        "restore",
        "resume",
        "run counters",
        "telemetry summary",
        "checkpoint_write",
        "recovery_e2e",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }

    // (c) the telemetry JSONL carries the phase records.
    let tel = std::fs::read_to_string(&tel_path).unwrap();
    assert!(tel.lines().any(|l| l.contains("\"record\":\"meta\"")));
    assert!(tel
        .lines()
        .any(|l| l.contains("\"phase\":\"checkpoint_write\"")));
    assert!(tel
        .lines()
        .any(|l| l.contains("\"phase\":\"recovery_e2e\"")));

    std::fs::remove_dir_all(&dir).ok();
}

/// `canaryctl fig` writes a figure's result files under `results/` in
/// its working directory: the workflow study at 2 repetitions reproduces
/// the CSV goldens `figure_claims` pins for it.
#[test]
fn canaryctl_fig_writes_the_pinned_csvs() {
    let dir = std::env::temp_dir().join(format!("canary-fig-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
        .args(["fig", "workflow_study", "--reps", "2"])
        .current_dir(&dir)
        .output()
        .expect("canaryctl runs");
    assert!(
        out.status.success(),
        "canaryctl fig failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for stem in ["workflow_study_a", "workflow_study_b"] {
        let written = std::fs::read(dir.join("results").join(format!("{stem}.csv")))
            .unwrap_or_else(|e| panic!("canaryctl fig wrote no {stem}.csv: {e}"));
        golden::check_golden(&format!("figures/{stem}.csv"), written);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The start of each command's usage line.
const RUN_USAGE: &str = "usage: canaryctl [--strategy ";
const CHAOS_USAGE: &str = "usage: canaryctl chaos ";
const LOAD_USAGE: &str = "usage: canaryctl load ";
const FIG_USAGE: &str = "usage: canaryctl fig ";

/// Each command's name (empty for the default command) and the start of
/// its usage line.
const COMMANDS: [(&str, &str); 6] = [
    ("", RUN_USAGE),
    ("chaos", CHAOS_USAGE),
    ("load", LOAD_USAGE),
    ("trace", "usage: canaryctl trace "),
    ("wal", "usage: canaryctl wal "),
    ("fig", FIG_USAGE),
];

/// Out-of-range values are usage errors (exit 2) caught at parse time,
/// not panics deep inside a run: `--reps` must be at least 1,
/// `--node-failures` a probability, and every `load --rates` value a
/// finite rate above zero. Each error prints its own command's usage,
/// and no flag acts before every flag has been read: `--list` does not
/// list past an unknown flag, and `--scenario` and `--spec` are
/// alternatives.
#[test]
fn canaryctl_rejects_out_of_range_flags() {
    let cases: &[(&[&str], &str)] = &[
        (&["--reps", "0"], RUN_USAGE),
        (&["--node-failures", "NaN"], RUN_USAGE),
        (&["--node-failures", "7"], RUN_USAGE),
        (&["--node-failures", "-1"], RUN_USAGE),
        (&["load", "--quick", "--rates", "0"], LOAD_USAGE),
        (&["load", "--quick", "--rates", "-1"], LOAD_USAGE),
        (&["load", "--quick", "--rates", "NaN"], LOAD_USAGE),
        (&["load", "--quick", "--rates", "1,0"], LOAD_USAGE),
        (&["load", "--quick", "--rates", "inf"], LOAD_USAGE),
        (&["load", "--strategy", "nope"], LOAD_USAGE),
        (&["chaos", "--strategy", "nope"], CHAOS_USAGE),
        (&["chaos", "--list", "--bogus"], CHAOS_USAGE),
        (
            &["chaos", "--scenario", "mixed", "--spec", "x"],
            CHAOS_USAGE,
        ),
        (&["chaos", "--seed", "7", "--trace-out"], CHAOS_USAGE),
        (&["fig"], FIG_USAGE),
        (&["fig", "nope"], FIG_USAGE),
        (&["fig", "fig7", "--reps", "0"], FIG_USAGE),
    ];
    for (argv, usage) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .args(*argv)
            .output()
            .expect("canaryctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with(usage)),
            "{argv:?} printed no {usage:?} line:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
    }
}

/// An explicit `load --jobs` wins over `--quick`'s job count whichever
/// comes first.
#[test]
fn load_jobs_overrides_quick_in_either_order() {
    for order in [["--jobs", "3", "--quick"], ["--quick", "--jobs", "3"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .arg("load")
            .args(order)
            .args(["--rates", "4", "--strategy", "ideal"])
            .output()
            .expect("canaryctl runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{order:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(" 3 jobs/point"), "{order:?}:\n{stdout}");
    }
}

/// Seeded argv fuzz over all six commands: up to six tokens drawn from
/// every flag name and from values at the edges of their types, then
/// `--help --help`. A flag takes at most one value, so every line is a
/// usage error whatever it holds, and no run starts: each must exit 2
/// with its own command's usage, print nothing to stdout and write no
/// file.
#[test]
fn argv_fuzz_ends_in_the_commands_own_usage() {
    const TOKENS: [&str; 42] = [
        "--strategy",
        "--workload",
        "--invocations",
        "--rate",
        "--nodes",
        "--seed",
        "--reps",
        "--node-failures",
        "--trace-out",
        "--telemetry-out",
        "--timeline",
        "--perfetto-out",
        "--spans-out",
        "--blame",
        "--wal-out",
        "--scenario",
        "--spec",
        "--list",
        "--quick",
        "--rates",
        "--jobs",
        "--max-inflight",
        "--error-rate",
        "--out",
        "--in",
        "--perfetto",
        "--spans",
        "--job",
        "--help",
        "-h",
        "NaN",
        "-1",
        "0",
        "1e308",
        "18446744073709551616",
        "",
        "inf",
        "1,0",
        "canary",
        "mixed",
        "fig7",
        "x",
    ];
    let dir = std::env::temp_dir().join(format!("canary-argv-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = SimRng::seed_from_u64(0xA56F);
    for case in 0..300 {
        let (name, usage) = COMMANDS[case % COMMANDS.len()];
        let mut argv: Vec<&str> = Vec::new();
        if !name.is_empty() {
            argv.push(name);
        }
        for _ in 0..rng.u64_below(7) {
            argv.push(*rng.choose(&TOKENS));
        }
        argv.extend(["--help", "--help"]);
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .current_dir(&dir)
            .args(&argv)
            .output()
            .expect("canaryctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "case {case} {argv:?}:\n{stderr}"
        );
        assert!(
            stderr.lines().any(|l| l.starts_with(usage)),
            "case {case} {argv:?} printed no {usage:?} line:\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "case {case} {argv:?} printed to stdout"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "case {case} {argv:?} wrote a file"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The study binaries read `[--quick] [--out PATH]` before they measure
/// anything: an unknown flag, or an `--out` without a path, exits 2 with
/// the binary's usage and writes nothing.
#[test]
fn study_binaries_reject_bad_flags_before_measuring() {
    let dir = std::env::temp_dir().join(format!("canary-study-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for bin in [
        env!("CARGO_BIN_EXE_wal_study"),
        env!("CARGO_BIN_EXE_ckpt_study"),
        env!("CARGO_BIN_EXE_load_study"),
    ] {
        for argv in [["--quick", "--bogus"], ["--quick", "--out"]] {
            let out = Command::new(bin)
                .current_dir(&dir)
                .args(argv)
                .output()
                .expect("study binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {argv:?}:\n{stderr}");
            assert!(stderr.contains("usage: "), "{bin} {argv:?}:\n{stderr}");
            assert!(out.stdout.is_empty(), "{bin} {argv:?} printed to stdout");
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "{bin} {argv:?} wrote a file"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `canaryctl` with `args` in `dir`, its stdout a pipe whose reader is
/// already closed (`canaryctl … | head` once `head` has read enough).
fn with_closed_stdout(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_canaryctl"))
        .current_dir(dir)
        .args(args)
        .stdout(writer)
        .output()
        .expect("canaryctl runs")
}

/// A reader that closes stdout early ends only stdout: the command exits
/// as it would have, without a panic, and still writes every file it was
/// asked for.
#[test]
fn a_closed_stdout_drops_only_stdout() {
    let dir = std::env::temp_dir().join(format!("canary-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_golden = golden::golden_path("wal_mixed_seed42.bin");
    let trace_golden = golden::golden_path("chaos_mixed_seed42.jsonl");
    let cases: [Vec<&str>; 5] = [
        vec!["chaos", "--timeline"],
        vec!["chaos", "--list"],
        vec!["wal", "--in", wal_golden.to_str().unwrap()],
        vec!["trace", "--in", trace_golden.to_str().unwrap()],
        vec!["--reps", "1", "--invocations", "10", "--timeline"],
    ];
    for argv in &cases {
        let out = with_closed_stdout(&dir, argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{argv:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}:\n{stderr}");
    }
    let out = with_closed_stdout(
        &dir,
        &[
            "chaos",
            "--scenario",
            "mixed",
            "--seed",
            "42",
            "--trace-out",
            "trace.jsonl",
            "--wal-out",
            "wal.bin",
            "--timeline",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for (written, golden) in [("trace.jsonl", &trace_golden), ("wal.bin", &wal_golden)] {
        assert!(
            std::fs::read(dir.join(written)).unwrap() == std::fs::read(golden).unwrap(),
            "{written} differs from {}",
            golden.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The output flags the default command and `chaos` share, each with
/// the file it writes (`None` for the flags that print to stdout).
const OUTPUT_FLAGS: [(&str, Option<&str>); 7] = [
    ("--trace-out", Some("trace.jsonl")),
    ("--telemetry-out", Some("telemetry.jsonl")),
    ("--timeline", None),
    ("--perfetto-out", Some("perfetto.json")),
    ("--spans-out", Some("spans.jsonl")),
    ("--blame", None),
    ("--wal-out", Some("wal.bin")),
];

/// The flags whose outputs read causal links.
const CAUSAL_FLAGS: [&str; 3] = ["--perfetto-out", "--spans-out", "--blame"];

/// The trace JSONL keys only causal observation writes.
const CAUSAL_KEYS: [&str; 4] = ["span", "parent", "cause", "cost_us"];

/// What one `canaryctl chaos --scenario mixed --seed 42` run with the
/// given output flags printed and wrote.
struct ChaosOutputs {
    /// Non-blank stdout lines, sorted.
    stdout: Vec<String>,
    /// Each file flag's bytes, by flag.
    files: Vec<(&'static str, Vec<u8>)>,
}

fn chaos_outputs(
    dir: &std::path::Path,
    flags: &[(&'static str, Option<&'static str>)],
) -> ChaosOutputs {
    std::fs::create_dir_all(dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_canaryctl"));
    cmd.current_dir(dir)
        .args(["chaos", "--scenario", "mixed", "--seed", "42"]);
    for (flag, file) in flags {
        cmd.arg(flag);
        cmd.args(file);
    }
    let out = cmd.output().expect("canaryctl runs");
    assert!(
        out.status.success(),
        "{flags:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut stdout: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    stdout.sort();
    let files = flags
        .iter()
        .filter_map(|(flag, file)| {
            let path = dir.join((*file)?);
            Some((
                *flag,
                std::fs::read(&path).unwrap_or_else(|e| panic!("{flag}: {e}")),
            ))
        })
        .collect();
    ChaosOutputs { stdout, files }
}

/// A trace JSONL file with the causal keys dropped from every line.
fn without_causal_keys(jsonl: &[u8]) -> String {
    let mut out = String::new();
    for line in std::str::from_utf8(jsonl).unwrap().lines() {
        let body = line.trim_start_matches('{').trim_end_matches('}');
        let kept: Vec<&str> = body
            .split(',')
            .filter(|field| {
                let key = field.split(':').next().unwrap_or("").trim_matches('"');
                !CAUSAL_KEYS.contains(&key)
            })
            .collect();
        out.push('{');
        out.push_str(&kept.join(","));
        out.push_str("}\n");
    }
    out
}

/// The observation rule: each output equals what its flag writes alone,
/// whichever other output flag is also given. Stdout holds exactly the
/// run's summary plus the lines each flag prints alone. The one
/// exception is `--trace-out` next to a causal output, which also
/// carries the link fields; with those dropped it is the same file.
#[test]
fn no_output_flag_changes_another_flags_output() {
    let root = std::env::temp_dir().join(format!("canary-pairs-{}", std::process::id()));
    let base = chaos_outputs(&root.join("none"), &[]);
    let alone: Vec<ChaosOutputs> = OUTPUT_FLAGS
        .iter()
        .enumerate()
        .map(|(i, flag)| chaos_outputs(&root.join(format!("alone{i}")), &[*flag]))
        .collect();
    // The stdout lines a flag adds to the run's summary.
    let added = |i: usize| -> Vec<String> {
        let mut rest = alone[i].stdout.clone();
        for line in &base.stdout {
            let at = rest
                .iter()
                .position(|l| l == line)
                .expect("summary line kept");
            rest.remove(at);
        }
        rest
    };
    let mut failures = Vec::new();
    for (i, &a) in OUTPUT_FLAGS.iter().enumerate() {
        for (j, &b) in OUTPUT_FLAGS.iter().enumerate().skip(i + 1) {
            let pair = chaos_outputs(&root.join(format!("pair{i}{j}")), &[a, b]);
            let mut expected = base.stdout.clone();
            expected.extend(added(i));
            expected.extend(added(j));
            expected.sort();
            if pair.stdout != expected {
                failures.push(format!("{} {}: stdout", a.0, b.0));
            }
            let causal = CAUSAL_FLAGS.contains(&a.0) || CAUSAL_FLAGS.contains(&b.0);
            for (flag, bytes) in &pair.files {
                let own = OUTPUT_FLAGS.iter().position(|(f, _)| f == flag).unwrap();
                let (_, alone_bytes) = &alone[own].files[0];
                let same = if *flag == "--trace-out" && causal {
                    without_causal_keys(bytes) == without_causal_keys(alone_bytes)
                } else {
                    bytes == alone_bytes
                };
                if !same {
                    failures.push(format!("{} {}: {flag} file", a.0, b.0));
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
    assert!(
        failures.is_empty(),
        "outputs changed in pairs: {failures:#?}"
    );
}

/// `--wal-out` works with every Canary kind: a Canary-Migrate run dumps
/// its WAL image without changing its pinned trace, and the image reads
/// back through `canaryctl wal`.
#[test]
fn wal_out_dumps_a_canary_migrate_run() {
    let dir = std::env::temp_dir().join(format!("canary-walmig-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ctl = env!("CARGO_BIN_EXE_canaryctl");
    let out = Command::new(ctl)
        .current_dir(&dir)
        .args([
            "chaos",
            "--scenario",
            "migration",
            "--strategy",
            "canary-migrate",
        ])
        .args([
            "--seed",
            "42",
            "--trace-out",
            "trace.jsonl",
            "--wal-out",
            "wal.bin",
        ])
        .output()
        .expect("canaryctl runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    golden::check_golden(
        "chaos_migration_seed42.jsonl",
        std::fs::read(dir.join("trace.jsonl")).unwrap(),
    );
    let wal = Command::new(ctl)
        .current_dir(&dir)
        .args(["wal", "--in", "wal.bin"])
        .output()
        .expect("canaryctl runs");
    assert_eq!(
        wal.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&wal.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The WAL is the Canary metadata db's log, so `--wal-out` with a
/// baseline as the observed strategy is a usage error: `chaos` with
/// Retry, and the default command, whose strategy list starts with
/// Ideal.
#[test]
fn wal_out_without_a_canary_strategy_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("canary-walerr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: &[&[&str]] = &[
        &["chaos", "--scenario", "mixed", "--strategy", "retry"],
        &[],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .current_dir(&dir)
            .args(*argv)
            .args(["--wal-out", "wal.bin"])
            .output()
            .expect("canaryctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}:\n{stderr}");
        assert!(
            stderr.contains("--wal-out requires a canary strategy"),
            "{argv:?}:\n{stderr}"
        );
        assert!(!dir.join("wal.bin").exists(), "{argv:?} wrote an image");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each command's usage text names every strategy the parser accepts,
/// and both run commands name every output flag they accept.
#[test]
fn usage_names_every_strategy_and_output_flag() {
    let strategies = [
        "canary",
        "canary-ar",
        "canary-lr",
        "canary-migrate",
        "retry",
        "ideal",
        "rr",
        "as",
    ];
    let cases: [(&[&str], bool); 3] = [
        (&["--help"], true),
        (&["chaos", "--help"], true),
        (&["load", "--help"], false),
    ];
    for (argv, run_command) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .args(argv)
            .output()
            .expect("canaryctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}:\n{stderr}");
        let listed: Vec<&str> = stderr
            .split("[--strategy ")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .unwrap_or_else(|| panic!("{argv:?} lists no strategies:\n{stderr}"))
            .split('|')
            .collect();
        assert_eq!(listed, strategies, "{argv:?}");
        if run_command {
            for (flag, _) in OUTPUT_FLAGS {
                assert!(stderr.contains(flag), "{argv:?} omits {flag}:\n{stderr}");
            }
        }
    }
    // And the parser accepts every listed name.
    for name in strategies {
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .args(["chaos", "--scenario", "mixed", "--strategy", name])
            .output()
            .expect("canaryctl runs");
        assert_eq!(out.status.code(), Some(0), "--strategy {name}");
    }
}
