//! `wal_study` — the crash-point-sweep convergence study plus the
//! offline WAL recovery-time report, committed as `BENCH_wal.json`.
//!
//! ```text
//! wal_study [--quick] [--out PATH]
//! ```
//!
//! For each pinned seed, runs the canonical mixed chaos scenario once
//! uninterrupted, then re-runs it with a controller crash-restart at
//! every midpoint between consecutive distinct event timestamps
//! (`--quick`: every 8th midpoint, seed 42 only) and verifies
//! convergence: the crashed run's trace minus the two crash markers must
//! be byte-identical to the uninterrupted trace, with equal terminal
//! outcomes. Any divergence is reported and fails the run.
//!
//! Recovery cost inside the simulation is deterministic bookkeeping
//! (records and bytes replayed); the *wall-clock* cost of reopening a
//! WAL is measured offline here — decode + replay of the final image,
//! repeated — so host timing never touches the simulated schedule.

use canary_cluster::ControllerCrashSpec;
use canary_core::{CanaryConfig, CanaryStrategy, ReplicationStrategyKind};
use canary_experiments::{chaos, trace_to_jsonl, Observe, StrategyKind};
use canary_kvstore::{Wal, WalConfig};
use canary_platform::RunResult;
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
const SEEDS: [u64; 3] = [7, 42, 1337];

/// Crash instants: midpoints of consecutive distinct event timestamps,
/// strictly between both so the fault never ties with a regular event.
fn crash_points(base: &RunResult) -> Vec<u64> {
    let mut times: Vec<u64> = base.trace.events.iter().map(|e| e.at.as_micros()).collect();
    times.dedup();
    times
        .windows(2)
        .filter(|w| w[1] - w[0] >= 2)
        .map(|w| w[0] + (w[1] - w[0]) / 2)
        .collect()
}

/// JSONL trace with the crash markers stripped.
fn filtered_jsonl(r: &RunResult) -> String {
    trace_to_jsonl(&r.trace)
        .lines()
        .filter(|l| {
            !l.contains("\"kind\":\"controller_crashed\"")
                && !l.contains("\"kind\":\"controller_recovered\"")
        })
        .flat_map(|l| [l, "\n"])
        .collect()
}

struct Sweep {
    seed: u64,
    crash_points: usize,
    swept: usize,
    converged: usize,
    torn_tails: u64,
    replayed_min: u64,
    replayed_max: u64,
    replayed_sum: u64,
}

fn sweep_seed(seed: u64, stride: usize, violations: &mut Vec<String>) -> Sweep {
    let scenario = chaos::demo_scenario(chaos::named("mixed").expect("mixed scenario"));
    let base = scenario.run(CANARY, seed, Observe::TRACE);
    let base_jsonl = trace_to_jsonl(&base.trace);
    let points = crash_points(&base);
    let mut sweep = Sweep {
        seed,
        crash_points: points.len(),
        swept: 0,
        converged: 0,
        torn_tails: 0,
        replayed_min: u64::MAX,
        replayed_max: 0,
        replayed_sum: 0,
    };
    for &at_us in points.iter().step_by(stride) {
        let mut spec = chaos::named("mixed").expect("mixed scenario");
        spec.controller_crashes.push(ControllerCrashSpec { at_us });
        let crashed = chaos::demo_scenario(spec).run(CANARY, seed, Observe::TRACE);
        sweep.swept += 1;
        let trace_ok = filtered_jsonl(&crashed) == base_jsonl;
        let outcomes_ok = crashed.completed_count() == base.completed_count()
            && format!("{:?}", crashed.jobs) == format!("{:?}", base.jobs)
            && format!("{:?}", crashed.fns) == format!("{:?}", base.fns);
        if trace_ok && outcomes_ok {
            sweep.converged += 1;
        } else {
            violations.push(format!(
                "seed {seed} at_us {at_us}: {}{}",
                if trace_ok { "" } else { "trace diverged " },
                if outcomes_ok { "" } else { "outcomes diverged" }
            ));
        }
        let replayed = crashed.counters.wal_records_replayed;
        sweep.torn_tails += crashed.counters.wal_torn_tails;
        sweep.replayed_min = sweep.replayed_min.min(replayed);
        sweep.replayed_max = sweep.replayed_max.max(replayed);
        sweep.replayed_sum += replayed;
    }
    if sweep.swept == 0 {
        sweep.replayed_min = 0;
    }
    sweep
}

struct Reopen {
    wal_bytes: usize,
    snapshot_entries: usize,
    log_records: usize,
    iterations: u32,
    min_us: f64,
    mean_us: f64,
    max_us: f64,
}

/// Measure the host wall-clock cost of reopening the WAL a mixed run
/// leaves behind: decode the image and replay snapshot + log.
fn measure_reopen(iterations: u32) -> Reopen {
    let scenario = chaos::demo_scenario(chaos::named("mixed").expect("mixed scenario"));
    let mut strategy = CanaryStrategy::new(CanaryConfig::with_replication(
        ReplicationStrategyKind::Dynamic,
    ));
    let _ = scenario.run_with(CANARY, 42, Observe::TRACE, &mut strategy);
    let wal = strategy
        .db()
        .kv()
        .wal()
        .expect("CanaryStrategy::new logs its metadata db through a WAL");
    let image = wal.to_bytes();
    let replay = wal.replay().expect("image from a healthy run replays");
    let mut samples = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let start = Instant::now();
        let reopened = Wal::from_bytes(&image, WalConfig::default()).expect("reopen");
        let r = reopened.replay().expect("replay");
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(r.ops.len(), replay.ops.len());
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Reopen {
        wal_bytes: image.len(),
        snapshot_entries: replay.snapshot.as_ref().map_or(0, |s| s.entries.len()),
        log_records: replay.ops.len(),
        iterations,
        min_us: min,
        mean_us: mean,
        max_us: max,
    }
}

fn report_json(mode: &str, sweeps: &[Sweep], reopen: &Reopen) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"study\": \"wal_recovery\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"sweeps\": [");
    for (i, s) in sweeps.iter().enumerate() {
        let mean = if s.swept == 0 {
            0.0
        } else {
            s.replayed_sum as f64 / s.swept as f64
        };
        let _ = writeln!(
            out,
            "    {{\"seed\": {}, \"crash_points\": {}, \"swept\": {}, \
             \"converged\": {}, \"torn_tails\": {}, \"replayed_records\": \
             {{\"min\": {}, \"mean\": {:.1}, \"max\": {}}}}}{}",
            s.seed,
            s.crash_points,
            s.swept,
            s.converged,
            s.torn_tails,
            s.replayed_min,
            mean,
            s.replayed_max,
            if i + 1 == sweeps.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"reopen\": {{\"wal_bytes\": {}, \"snapshot_entries\": {}, \
         \"log_records\": {}, \"iterations\": {}, \"wall_us\": \
         {{\"min\": {:.2}, \"mean\": {:.2}, \"max\": {:.2}}}}}",
        reopen.wal_bytes,
        reopen.snapshot_entries,
        reopen.log_records,
        reopen.iterations,
        reopen.min_us,
        reopen.mean_us,
        reopen.max_us
    );
    out.push_str("}\n");
    out
}

fn main() {
    let (quick, out) =
        canary_experiments::quick_and_out(std::env::args().skip(1), "BENCH_wal.json")
            .unwrap_or_else(|e| {
                eprintln!("{e}\nusage: wal_study [--quick] [--out PATH]");
                exit(2)
            });
    let (seeds, stride, iterations, mode): (&[u64], usize, u32, &str) = if quick {
        (&SEEDS[1..2], 8, 50, "quick")
    } else {
        (&SEEDS, 1, 200, "full")
    };
    println!(
        "wal recovery study ({mode}): seeds {seeds:?}, every {stride}{} crash point\n",
        match stride {
            1 => "st",
            2 => "nd",
            3 => "rd",
            _ => "th",
        }
    );

    let mut violations = Vec::new();
    let mut sweeps = Vec::new();
    for &seed in seeds {
        let s = sweep_seed(seed, stride, &mut violations);
        println!(
            "seed {:>4}: {}/{} crash points swept, {} converged, \
             replayed {}..{} records, {} torn tails",
            s.seed,
            s.swept,
            s.crash_points,
            s.converged,
            s.replayed_min,
            s.replayed_max,
            s.torn_tails
        );
        sweeps.push(s);
    }
    for v in &violations {
        eprintln!("CONVERGENCE VIOLATION: {v}");
    }
    if !violations.is_empty() {
        exit(1);
    }
    println!("\nevery swept crash point converged (byte-identical filtered trace)");

    let reopen = measure_reopen(iterations);
    println!(
        "wal reopen: {} bytes ({} snapshot entries + {} records), \
         {:.1} us mean / {:.1} us max over {} iterations",
        reopen.wal_bytes,
        reopen.snapshot_entries,
        reopen.log_records,
        reopen.mean_us,
        reopen.max_us,
        reopen.iterations
    );

    let json = report_json(mode, &sweeps, &reopen);
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1)
    });
    println!("wrote {out}");
}
