//! Per-layer counts must repeat exactly: across two runs of one seed, and
//! between an untraced run and a run under the benchmark's tracing (hook
//! spans plus the engine profiler). Checked on shrunken copies of every
//! workload.

use canary_benchmark::layers;
use canary_benchmark::spans::{HookTotals, Spanned, StreamOp};
use canary_benchmark::workloads::{consume_trace, Kind, Outcome, Setup, Size, Workload};
use canary_core::ChunkStats;
use canary_kvstore::WalStats;
use canary_platform::run;

const KINDS: [Kind; 3] = [Kind::CanaryClosed, Kind::EngineMillion, Kind::OpenChaos];

#[derive(Debug, PartialEq)]
struct Counts {
    digest: u64,
    events: u64,
    checkpoints: u64,
    wal: Option<WalStats>,
    tables: Vec<(&'static str, u64, u64)>,
    chunks: Option<ChunkStats>,
}

struct Run {
    counts: Counts,
    outcome: Outcome,
    stream: Vec<StreamOp>,
}

fn run_small(kind: Kind, seed: u64, traced: bool) -> Run {
    let w = Workload {
        kind,
        size: Size::Small,
        seed,
    };
    let setup = w.setup();
    let invocations = setup.invocations();
    let Setup {
        mut config,
        jobs,
        mut strategy,
    } = setup;
    let (result, stream) = if traced {
        config.profile = true;
        let mut spanned = Spanned::new(strategy.as_dyn());
        let result = run(config, jobs, &mut spanned);
        let (log, stream) = spanned.finish();
        assert!(
            HookTotals::from_log(&log).ties_out(),
            "{kind:?}: hook spans do not tie out"
        );
        (result, stream)
    } else {
        (run(config, jobs, strategy.as_dyn()), Vec::new())
    };
    if !result.trace.events.is_empty() {
        assert!(
            consume_trace(&result).ok,
            "{kind:?}: trace consumers disagree"
        );
    }
    let canary = strategy.canary();
    let counts = Counts {
        digest: canary_benchmark::workloads::digest(&result),
        events: result.counters.events_dispatched,
        checkpoints: result.counters.checkpoints_written,
        wal: canary.and_then(|c| c.db().kv().wal().map(|w| w.stats())),
        tables: canary.map_or_else(Vec::new, |c| c.db().table_stats()),
        chunks: canary.map(|c| c.checkpointing().chunk_stats()),
    };
    Run {
        counts,
        outcome: Outcome::of(&result, &invocations),
        stream,
    }
}

#[test]
fn same_seed_runs_repeat_their_counts() {
    for kind in KINDS {
        let a = run_small(kind, 11, false);
        let b = run_small(kind, 11, false);
        assert_eq!(a.counts, b.counts, "{kind:?}");
        assert!(a.counts.events > 0, "{kind:?}");
    }
}

#[test]
fn tracing_leaves_counts_unchanged() {
    for kind in KINDS {
        let plain = run_small(kind, 5, false);
        let traced = run_small(kind, 5, true);
        assert_eq!(plain.counts, traced.counts, "{kind:?}");
    }
}

#[test]
fn small_workloads_lose_no_jobs_and_exercise_their_layers() {
    for kind in KINDS {
        let r = run_small(kind, 3, true);
        assert_eq!(r.outcome.lost, 0, "{kind:?}");
        assert_eq!(r.outcome.rejected, 0, "{kind:?}");
        let writes = r
            .stream
            .iter()
            .filter(|op| matches!(op, StreamOp::Write { .. }))
            .count() as u64;
        assert_eq!(
            writes, r.counts.checkpoints,
            "{kind:?}: stream misses writes"
        );
        match kind {
            Kind::EngineMillion => assert_eq!(r.counts.checkpoints, 0),
            Kind::CanaryClosed | Kind::OpenChaos => {
                assert!(r.counts.checkpoints > 0, "{kind:?}");
                assert!(
                    r.counts.wal.is_some_and(|w| w.appended_records > 0),
                    "{kind:?}"
                );
            }
        }
        if kind == Kind::OpenChaos {
            assert!(r.outcome.counters.chaos_events > 0);
            assert!(r.outcome.counters.controller_crashes == 1);
        }
    }
}

#[test]
fn layer_replays_repeat_their_counts() {
    let r = run_small(Kind::OpenChaos, 9, true);
    let config = Workload {
        kind: Kind::OpenChaos,
        size: Size::Small,
        seed: 9,
    }
    .canary_config()
    .expect("open-chaos runs Canary");
    let a = layers::replay(&r.stream, &config);
    let b = layers::replay(&r.stream, &config);
    assert!(a.ok && b.ok);
    let calls = |rep: &layers::LayerReport| {
        rep.rows
            .iter()
            .map(|(n, c)| (*n, c.calls))
            .collect::<Vec<_>>()
    };
    assert_eq!(calls(&a), calls(&b));
    assert_eq!(a.wal_bytes_per_ckpt, b.wal_bytes_per_ckpt);
}
