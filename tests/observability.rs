//! Observability pipeline tests: JSONL export, timelines, telemetry
//! summaries, and the guarantee that observation never changes a run.

use canary_core::ReplicationStrategyKind;
use canary_experiments::export::kind_name;
use canary_experiments::{trace_from_jsonl, trace_to_jsonl, Scenario, StrategyKind};
use canary_platform::{JobSpec, Phase, TraceKind};
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
    let a = obs_scenario().run_observed(CANARY, 42);
    let b = obs_scenario().run_observed(CANARY, 42);
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
    let plain = scenario.run_once(CANARY, 42);
    let observed = scenario.run_observed(CANARY, 42);
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
    let r = obs_scenario().run_observed(CANARY, 42);
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

/// Out-of-range values are usage errors (exit 2) caught at parse time,
/// not panics deep inside a run: `--reps` must be at least 1,
/// `--node-failures` a probability, and every `load --rates` value a
/// finite rate above zero.
#[test]
fn canaryctl_rejects_out_of_range_flags() {
    let cases: &[&[&str]] = &[
        &["--reps", "0"],
        &["--node-failures", "NaN"],
        &["--node-failures", "7"],
        &["--node-failures", "-1"],
        &["load", "--quick", "--rates", "0"],
        &["load", "--quick", "--rates", "-1"],
        &["load", "--quick", "--rates", "NaN"],
        &["load", "--quick", "--rates", "1,0"],
        &["load", "--quick", "--rates", "inf"],
        &["fig"],
        &["fig", "nope"],
        &["fig", "fig7", "--reps", "0"],
    ];
    for argv in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_canaryctl"))
            .args(*argv)
            .output()
            .expect("canaryctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: canaryctl")),
            "{argv:?} printed no usage line:\n{stderr}"
        );
    }
}
