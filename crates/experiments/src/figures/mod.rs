//! Figure regenerators — one module per figure of the paper's evaluation
//! (§V-D, Figs. 4–12), plus the [`workflow`] extension study. Each
//! builder returns the figure's data as [`SeriesSet`]s; [`OUTPUTS`] maps
//! every `canaryctl fig` name to the result files it writes.

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod workflow;

use crate::scenario::{Scenario, StrategyKind, PRICING};
use canary_sim::SeriesSet;

/// Knobs shared by all figure builders.
#[derive(Debug, Clone, Copy)]
pub struct FigureOptions {
    /// Repetitions per experiment point (the paper uses 10).
    pub reps: u64,
    /// Scale factor on invocation counts (benches use < 1 for speed).
    pub scale: f64,
}

impl Default for FigureOptions {
    /// The paper's setting: 10 repetitions per point, full scale.
    fn default() -> Self {
        FigureOptions {
            reps: 10,
            scale: 1.0,
        }
    }
}

impl FigureOptions {
    /// Quick options for tests/benches: few reps, shrunken workloads.
    pub fn quick() -> Self {
        FigureOptions {
            reps: 2,
            scale: 0.25,
        }
    }

    /// Scale an invocation count.
    pub fn scaled(&self, n: u32) -> u32 {
        ((n as f64 * self.scale).round() as u32).max(1)
    }
}

/// A figure builder: the data of one family of result files.
pub type Builder = fn(&FigureOptions) -> Vec<SeriesSet>;

/// Every family of result files `canaryctl fig` writes, as `(figure
/// name, output stem, builder)`, in the order `fig all` emits them. Fig. 4
/// also writes its per-workload reductions; the workflow study is an
/// extension beyond the paper's figures, so `all` leaves it out.
pub const OUTPUTS: [(&str, &str, Builder); 11] = [
    ("fig4", "fig4", fig4::build),
    ("fig4", "fig4_workloads", |opts| {
        vec![fig4::workload_reductions(opts)]
    }),
    ("fig5", "fig5", fig5::build),
    ("fig6", "fig6", fig6::build),
    ("fig7", "fig7", fig7::build),
    ("fig8", "fig8", fig8::build),
    ("fig9", "fig9", fig9::build),
    ("fig10", "fig10", fig10::build),
    ("fig11", "fig11", fig11::build),
    ("fig12", "fig12", fig12::build),
    ("workflow_study", "workflow_study", workflow::build),
];

/// The `(stem, builder)` pairs `canaryctl fig <name>` emits, in order;
/// empty for an unknown name.
pub fn outputs(name: &str) -> Vec<(&'static str, Builder)> {
    OUTPUTS
        .iter()
        .filter(|(figure, _, _)| *figure == name || (name == "all" && *figure != "workflow_study"))
        .map(|&(_, stem, build)| (stem, build))
        .collect()
}

/// Metric to extract from a repeated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Total recovery time across functions, seconds.
    TotalRecovery,
    /// Batch makespan, seconds.
    Makespan,
    /// Dollar cost under IBM pricing.
    Cost,
}

impl Metric {
    /// Axis label.
    pub fn y_label(self) -> &'static str {
        match self {
            Metric::TotalRecovery => "total recovery time (s)",
            Metric::Makespan => "makespan (s)",
            Metric::Cost => "cost ($)",
        }
    }
}

/// Sweep `strategies` over `points`, adding one series per strategy to
/// `set`. `points` yields `(x, scenario)`; the metric is aggregated over
/// `opts.reps` repetitions with an error bar.
pub(crate) fn sweep_into(
    set: &mut SeriesSet,
    points: &[(f64, Scenario)],
    strategies: &[StrategyKind],
    metric: Metric,
    opts: &FigureOptions,
) {
    let _ = PRICING; // pricing is applied inside Repeated
    for &strategy in strategies {
        for (x, scenario) in points {
            let rep = scenario.run_repeated(strategy, opts.reps);
            let m = match metric {
                Metric::TotalRecovery => rep.total_recovery(),
                Metric::Makespan => rep.makespan(),
                Metric::Cost => rep.cost(),
            };
            set.series_mut(&strategy.label())
                .push_err(*x, m.mean, m.std_dev);
        }
    }
}

/// The standard Ideal / Retry / Canary trio most figures compare.
pub(crate) fn trio() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Ideal,
        StrategyKind::Retry,
        StrategyKind::Canary(canary_core::ReplicationStrategyKind::Dynamic),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_scale() {
        let o = FigureOptions {
            reps: 1,
            scale: 0.25,
        };
        assert_eq!(o.scaled(100), 25);
        assert_eq!(o.scaled(1), 1); // never to zero
    }

    #[test]
    fn all_emits_every_paper_figure_in_order() {
        let stems: Vec<&str> = outputs("all").iter().map(|(stem, _)| *stem).collect();
        assert_eq!(
            stems.join(" "),
            "fig4 fig4_workloads fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12"
        );
        assert_eq!(outputs("fig4").len(), 2);
        assert_eq!(outputs("workflow_study").len(), 1);
        assert!(outputs("fig13").is_empty());
    }

    #[test]
    fn metric_labels() {
        assert!(Metric::Cost.y_label().contains('$'));
        assert!(Metric::Makespan.y_label().contains("makespan"));
    }
}
