//! Quantitative claims of the paper, checked in quick mode against the
//! figure regenerators. Absolute numbers differ from the testbed; the
//! *shape* claims — who wins, by roughly what factor, where behaviour
//! changes — are asserted here and recorded in EXPERIMENTS.md. Each
//! test also pins the CSV bytes of every set it builds under
//! `tests/goldens/figures/`, so any drift in a figure fails a test.

use canary_experiments::figures::{
    fig10, fig11, fig12, fig4, fig5, fig6, fig7, fig8, fig9, workflow, FigureOptions,
};
use canary_experiments::output::set_stem;
use canary_sim::SeriesSet;

mod golden;

/// Pin the CSV of each of `sets` as `figures/<stem>.csv`, under the
/// stems `canaryctl fig` writes them as.
fn check_sets(name: &str, sets: &[SeriesSet]) {
    for (i, set) in sets.iter().enumerate() {
        let stem = set_stem(name, i, sets.len());
        golden::check_golden(&format!("figures/{stem}.csv"), canary_metrics::csv(set));
    }
}

fn opts() -> FigureOptions {
    FigureOptions {
        reps: 2,
        scale: 0.2,
    }
}

fn small_opts() -> FigureOptions {
    FigureOptions {
        reps: 2,
        scale: 0.1,
    }
}

#[test]
fn fig4_canary_reduces_recovery_across_runtimes() {
    // Claim: replicated runtimes reduce recovery time by up to ~81% vs
    // retry, and recovery stays fairly constant while retry grows.
    let sets = fig4::build(&opts());
    check_sets("fig4", &sets);
    check_sets("fig4_workloads", &[fig4::workload_reductions(&opts())]);
    for set in sets {
        let imp = set.mean_improvement("Retry", "Canary").unwrap();
        assert!(imp > 0.5, "{}: {:.0}%", set.title, imp * 100.0);
        let best = canary_experiments::ERROR_RATES
            .iter()
            .filter_map(|r| set.improvement_at("Retry", "Canary", r * 100.0))
            .fold(0.0f64, f64::max);
        assert!(best > 0.7, "{}: best {:.0}%", set.title, best * 100.0);
    }
}

#[test]
fn fig5_scaling_invocations_keeps_canary_flat() {
    // Claim: up to ~82% better than retry with recovery staying close to
    // the ideal (zero) line as invocations grow at a fixed 15% rate.
    let sets = fig5::build(&opts());
    check_sets("fig5", &sets);
    let set = &sets[0];
    let imp = set.mean_improvement("Retry", "Canary").unwrap();
    assert!(imp > 0.5, "mean improvement {:.0}%", imp * 100.0);
}

#[test]
fn fig6_checkpoints_cut_recovery_deeply() {
    // Claim: 79–83% average reductions; recovery with checkpoints is
    // insensitive to where in execution the failure lands.
    let sets = fig6::build(&small_opts());
    check_sets("fig6", &sets);
    let set = &sets[0];
    let imp = set.mean_improvement("Retry", "Canary").unwrap();
    assert!(imp > 0.7, "mean improvement {:.0}%", imp * 100.0);
}

#[test]
fn fig7_makespan_tracks_ideal() {
    // Claim: Canary's makespan stays close to ideal (+14% average in the
    // paper); retry diverges as the rate grows.
    let sets = fig7::build(&small_opts());
    check_sets("fig7", &sets);
    let set = &sets[0];
    let mut overheads = Vec::new();
    for rate in canary_experiments::ERROR_RATES {
        let x = rate * 100.0;
        let i = set.get("Ideal").unwrap().y_at(x).unwrap();
        let c = set.get("Canary").unwrap().y_at(x).unwrap();
        overheads.push((c - i) / i);
    }
    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    assert!(avg < 0.30, "avg Canary overhead {:.0}%", avg * 100.0);
    // Retry at 50% diverges far beyond Canary's overhead.
    let i = set.get("Ideal").unwrap().y_at(50.0).unwrap();
    let r = set.get("Retry").unwrap().y_at(50.0).unwrap();
    assert!((r - i) / i > 2.0 * avg);
}

#[test]
fn fig8_cost_gap_widens_with_rate() {
    // Claim: the retry-vs-Canary cost gap grows with the error rate, and
    // Canary is cheaper at high rates.
    let sets = fig8::build(&small_opts());
    check_sets("fig8", &sets);
    let cost = &sets[0];
    let gap = |x: f64| {
        cost.get("Retry").unwrap().y_at(x).unwrap() - cost.get("Canary").unwrap().y_at(x).unwrap()
    };
    assert!(
        gap(50.0) > gap(5.0),
        "gap should widen: {} vs {}",
        gap(50.0),
        gap(5.0)
    );
    assert!(gap(50.0) > 0.0, "canary cheaper at 50%");
}

#[test]
fn fig9_dynamic_replication_wins_overall() {
    // Claim: AR costs the most; DR's cost is within a whisker of LR's
    // while recovering much faster at high rates.
    let sets = fig9::build(&small_opts());
    check_sets("fig9", &sets);
    let (cost, time) = (&sets[0], &sets[1]);
    let total = |set: &SeriesSet, label: &str| set.get(label).unwrap().mean_y();
    assert!(total(cost, "Canary-AR") > total(cost, "Canary"));
    // DR time beats LR time at the top rate.
    let dr_t = time.get("Canary").unwrap().y_at(50.0).unwrap();
    let lr_t = time.get("Canary-LR").unwrap().y_at(50.0).unwrap();
    assert!(dr_t <= lr_t * 1.02, "DR {dr_t}s vs LR {lr_t}s");
}

#[test]
fn fig10_rr_and_as_cost_multiples_of_canary() {
    // Claim: RR/AS cost up to ~2.7×/2.8× Canary's.
    let sets = fig10::build(&opts());
    check_sets("fig10", &sets);
    let cost = &sets[0];
    let ratio = |label: &str| {
        cost.get(label).unwrap().y_at(50.0).unwrap()
            / cost.get("Canary").unwrap().y_at(50.0).unwrap()
    };
    assert!(ratio("RR") > 1.5, "RR ratio {:.2}", ratio("RR"));
    assert!(ratio("AS") > 1.5, "AS ratio {:.2}", ratio("AS"));
}

#[test]
fn fig11_scale_out_recovery_reduction() {
    // Claim: up to ~80% average recovery reduction with hundreds of
    // concurrent functions and node-level failures.
    let sets = fig11::build(&opts());
    check_sets("fig11", &sets);
    let set = &sets[0];
    let imp = set.mean_improvement("Retry", "Canary").unwrap();
    assert!(imp > 0.5, "mean improvement {:.0}%", imp * 100.0);
}

#[test]
fn fig12_modest_scaling_canary_near_ideal() {
    // Claim: 1→16-node scaling factors around 1.1–1.2 (admission-bound),
    // with Canary within a few percent of ideal throughout.
    let sets = fig12::build(&small_opts());
    check_sets("fig12", &sets);
    let set = &sets[0];
    for label in ["Ideal", "Canary", "Retry"] {
        let f = fig12::scaling_factor(set.get(label).unwrap()).unwrap();
        assert!((1.0..4.0).contains(&f), "{label}: scaling factor {f:.2}");
    }
    let i16 = set.get("Ideal").unwrap().y_at(16.0).unwrap();
    let c16 = set.get("Canary").unwrap().y_at(16.0).unwrap();
    assert!(
        (c16 - i16) / i16 < 0.15,
        "canary within 15% of ideal at 16 nodes ({c16} vs {i16})"
    );
}

#[test]
fn workflow_study_barrier_amplifies_retry() {
    // Extension beyond the paper: the reduce stage waits for every mapper,
    // so one slow map-stage recovery delays the whole workflow, and Retry
    // falls further behind Canary as the failure rate grows. The study
    // ignores `scale`; `canaryctl fig workflow_study --reps 2` writes the
    // same CSVs (observability::canaryctl_fig_writes_the_pinned_csvs).
    let sets = workflow::build(&opts());
    check_sets("workflow_study", &sets);
    let makespan = &sets[0];
    let gap = |x: f64| {
        makespan.get("Retry").unwrap().y_at(x).unwrap()
            - makespan.get("Canary").unwrap().y_at(x).unwrap()
    };
    assert!(gap(5.0) > 0.0, "Canary ahead at 5%: gap {}", gap(5.0));
    assert!(
        gap(50.0) > gap(5.0),
        "gap should widen with the failure rate"
    );
}
