//! The paper's figures (and our ablations) as sweep definitions.
//!
//! Every figure produces four panels exactly as printed in the paper:
//! (a)/(b) % of jobs with deadlines fulfilled under accurate / trace
//! estimates, (c)/(d) average slowdown under accurate / trace estimates —
//! except Figure 4, whose panels contrast 20 % vs 80 % high-urgency jobs
//! across the inaccuracy axis.

use crate::scenario::{EstimateRegime, Scenario};
use crate::sweep::{default_threads, run_sweep, SweepOutcome};
use librisk::PolicyKind;
use metrics::{Series, Table};
use workload::params;

/// Shared knobs for regenerating a figure.
#[derive(Clone, Debug)]
pub struct FigureConfig {
    /// Jobs per trace (paper: 3000).
    pub jobs: usize,
    /// Seeds to average over (the paper uses the single real trace; we
    /// default to three seeds and report the mean).
    pub seeds: Vec<u64>,
    /// Worker threads.
    pub threads: usize,
}

impl Default for FigureConfig {
    fn default() -> Self {
        FigureConfig {
            jobs: params::TRACE_JOBS,
            seeds: vec![1, 2, 3],
            threads: default_threads(),
        }
    }
}

impl FigureConfig {
    /// A fast configuration for smoke tests and `--quick` runs.
    pub fn quick() -> Self {
        FigureConfig {
            jobs: 300,
            seeds: vec![1],
            threads: default_threads(),
        }
    }
}

/// One panel of a figure: a named metric over several policy curves.
#[derive(Clone, Debug)]
pub struct Panel {
    /// Panel label, e.g. `(b) Actual runtime estimate from trace`.
    pub label: String,
    /// X-axis label.
    pub x_label: String,
    /// Metric name (y-axis).
    pub metric: String,
    /// One curve per policy.
    pub series: Vec<Series>,
}

impl Panel {
    /// Renders the panel as an ASCII chart (fixed 64×14 canvas).
    pub fn to_chart(&self) -> String {
        let refs: Vec<&Series> = self.series.iter().collect();
        metrics::chart::render(
            &format!("{} — {}", self.label, self.metric),
            &self.x_label,
            &refs,
            64,
            14,
            self.metric.contains('%'),
        )
    }

    /// Renders the panel as a standalone SVG figure.
    pub fn to_svg(&self) -> String {
        let refs: Vec<&Series> = self.series.iter().collect();
        metrics::svg::render(
            &refs,
            &metrics::svg::SvgOptions {
                title: self.label.clone(),
                x_label: self.x_label.clone(),
                y_label: self.metric.clone(),
                zero_based: self.metric.contains('%'),
                ..Default::default()
            },
        )
    }

    /// Renders the panel as a table: one row per abscissa, one column per
    /// policy.
    pub fn to_table(&self) -> Table {
        let mut headers: Vec<&str> = vec![self.x_label.as_str()];
        for s in &self.series {
            headers.push(s.name());
        }
        let mut table = Table::new(format!("{} — {}", self.label, self.metric), &headers);
        if let Some(first) = self.series.first() {
            for (x, _) in first.mean_points() {
                let mut row = vec![metrics::table::fmt_f(x, 2)];
                for s in &self.series {
                    let y = s.y_at(x).unwrap_or(f64::NAN);
                    row.push(metrics::table::fmt_f(y, 2));
                }
                table.push_row(row);
            }
        }
        table
    }
}

/// A figure: a set of panels.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier, e.g. `fig1`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The panels, in print order.
    pub panels: Vec<Panel>,
}

fn four_panels(
    x_label: &str,
    accurate: SweepOutcome,
    trace: SweepOutcome,
    regime_a: &str,
    regime_b: &str,
) -> Vec<Panel> {
    vec![
        Panel {
            label: format!("(a) {regime_a}"),
            x_label: x_label.to_string(),
            metric: "% of jobs with deadlines fulfilled".to_string(),
            series: accurate.fulfilled.clone(),
        },
        Panel {
            label: format!("(b) {regime_b}"),
            x_label: x_label.to_string(),
            metric: "% of jobs with deadlines fulfilled".to_string(),
            series: trace.fulfilled.clone(),
        },
        Panel {
            label: format!("(c) {regime_a}"),
            x_label: x_label.to_string(),
            metric: "average slowdown".to_string(),
            series: accurate.slowdown,
        },
        Panel {
            label: format!("(d) {regime_b}"),
            x_label: x_label.to_string(),
            metric: "average slowdown".to_string(),
            series: trace.slowdown,
        },
    ]
}

fn accurate_vs_trace_figure(
    id: &str,
    title: &str,
    x_label: &str,
    cfg: &FigureConfig,
    make_scenario: impl Fn(f64) -> Scenario,
    xs: &[f64],
) -> Figure {
    let build_points = |regime: EstimateRegime| -> Vec<(f64, Scenario)> {
        xs.iter()
            .map(|&x| {
                let mut s = make_scenario(x);
                s.jobs = cfg.jobs;
                s.estimates = regime;
                (x, s)
            })
            .collect()
    };
    let accurate = run_sweep(
        &build_points(EstimateRegime::Accurate),
        &PolicyKind::PAPER,
        &cfg.seeds,
        cfg.threads,
    );
    let trace = run_sweep(
        &build_points(EstimateRegime::Trace),
        &PolicyKind::PAPER,
        &cfg.seeds,
        cfg.threads,
    );
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        panels: four_panels(
            x_label,
            accurate,
            trace,
            "Accurate runtime estimate",
            "Actual runtime estimate from trace",
        ),
    }
}

/// Figure 1: impact of varying workload (arrival delay factor).
pub fn fig1(cfg: &FigureConfig) -> Figure {
    accurate_vs_trace_figure(
        "fig1",
        "Impact of varying workload",
        "Arrival Delay Factor",
        cfg,
        |x| Scenario {
            arrival_delay_factor: x,
            ..Default::default()
        },
        &params::FIG1_ARRIVAL_DELAY_FACTORS,
    )
}

/// Figure 2: impact of varying deadline high:low ratio.
pub fn fig2(cfg: &FigureConfig) -> Figure {
    accurate_vs_trace_figure(
        "fig2",
        "Impact of varying deadline high:low ratio",
        "Deadline High:Low Ratio",
        cfg,
        |x| Scenario {
            deadline_ratio: x,
            ..Default::default()
        },
        &params::FIG2_DEADLINE_RATIOS,
    )
}

/// Figure 3: impact of varying the proportion of high-urgency jobs.
pub fn fig3(cfg: &FigureConfig) -> Figure {
    accurate_vs_trace_figure(
        "fig3",
        "Impact of varying high urgency jobs",
        "% of High Urgency Jobs",
        cfg,
        |x| Scenario {
            high_urgency_pct: x,
            ..Default::default()
        },
        &params::FIG3_HIGH_URGENCY_PCTS,
    )
}

/// Figure 4: impact of varying inaccurate runtime estimates, contrasted at
/// 20 % and 80 % high-urgency jobs.
pub fn fig4(cfg: &FigureConfig) -> Figure {
    let sweep_at = |hu_pct: f64| -> SweepOutcome {
        let points: Vec<(f64, Scenario)> = params::FIG4_INACCURACY_PCTS
            .iter()
            .map(|&pct| {
                (
                    pct,
                    Scenario {
                        jobs: cfg.jobs,
                        high_urgency_pct: hu_pct,
                        estimates: EstimateRegime::Inaccuracy(pct),
                        ..Default::default()
                    },
                )
            })
            .collect();
        run_sweep(&points, &PolicyKind::PAPER, &cfg.seeds, cfg.threads)
    };
    let low = sweep_at(params::FIG4_HIGH_URGENCY_PCTS[0]);
    let high = sweep_at(params::FIG4_HIGH_URGENCY_PCTS[1]);
    Figure {
        id: "fig4".to_string(),
        title: "Impact of varying inaccurate runtime estimates".to_string(),
        panels: vec![
            Panel {
                label: "(a) 20% of high urgency jobs".to_string(),
                x_label: "% of Inaccuracy".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: low.fulfilled.clone(),
            },
            Panel {
                label: "(b) 80% of high urgency jobs".to_string(),
                x_label: "% of Inaccuracy".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: high.fulfilled.clone(),
            },
            Panel {
                label: "(c) 20% of high urgency jobs".to_string(),
                x_label: "% of Inaccuracy".to_string(),
                metric: "average slowdown".to_string(),
                series: low.slowdown,
            },
            Panel {
                label: "(d) 80% of high urgency jobs".to_string(),
                x_label: "% of Inaccuracy".to_string(),
                metric: "average slowdown".to_string(),
                series: high.slowdown,
            },
        ],
    }
}

/// Ablation study (ours, not in the paper): design-choice variants across
/// workload intensities, under trace estimates.
pub fn ablation(cfg: &FigureConfig) -> Figure {
    let policies = [
        PolicyKind::Libra,
        PolicyKind::LibraRisk,
        PolicyKind::LibraRiskStrict,
        PolicyKind::LibraRiskBestFit,
        PolicyKind::LibraRiskNaiveProjection,
        PolicyKind::LibraStrictShares,
        PolicyKind::LibraRiskStrictShares,
        PolicyKind::EdfNoAdmission,
        PolicyKind::Fcfs,
    ];
    let xs = [0.2, 0.6, 1.0];
    let points: Vec<(f64, Scenario)> = xs
        .iter()
        .map(|&x| {
            (
                x,
                Scenario {
                    jobs: cfg.jobs,
                    arrival_delay_factor: x,
                    estimates: EstimateRegime::Trace,
                    ..Default::default()
                },
            )
        })
        .collect();
    let out = run_sweep(&points, &policies, &cfg.seeds, cfg.threads);
    Figure {
        id: "ablation".to_string(),
        title: "Ablations: risk test, node ordering, share discipline".to_string(),
        panels: vec![
            Panel {
                label: "(a) Trace estimates".to_string(),
                x_label: "Arrival Delay Factor".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: out.fulfilled.clone(),
            },
            Panel {
                label: "(b) Trace estimates".to_string(),
                x_label: "Arrival Delay Factor".to_string(),
                metric: "average slowdown".to_string(),
                series: out.slowdown,
            },
        ],
    }
}

/// Robustness study (ours, not in the paper): rerun the Figure 3 sweep —
/// the paper's most striking result — under the Lublin–Feitelson workload
/// model instead of the SDSC-moment-matched generator, to show the
/// conclusion does not hinge on one synthetic workload.
pub fn robustness(cfg: &FigureConfig) -> Figure {
    use crate::scenario::TraceSource;
    let sweep_with = |source: TraceSource| -> SweepOutcome {
        let points: Vec<(f64, Scenario)> = params::FIG3_HIGH_URGENCY_PCTS
            .iter()
            .map(|&pct| {
                (
                    pct,
                    Scenario {
                        jobs: cfg.jobs,
                        high_urgency_pct: pct,
                        estimates: EstimateRegime::Trace,
                        source,
                        ..Default::default()
                    },
                )
            })
            .collect();
        run_sweep(&points, &PolicyKind::PAPER, &cfg.seeds, cfg.threads)
    };
    let sdsc = sweep_with(TraceSource::SyntheticSdsc);
    let lublin = sweep_with(TraceSource::Lublin);
    Figure {
        id: "robustness".to_string(),
        title: "Workload-model robustness of the Figure 3 result".to_string(),
        panels: vec![
            Panel {
                label: "(a) SDSC-moment-matched workload".to_string(),
                x_label: "% of High Urgency Jobs".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: sdsc.fulfilled.clone(),
            },
            Panel {
                label: "(b) Lublin-Feitelson workload".to_string(),
                x_label: "% of High Urgency Jobs".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: lublin.fulfilled.clone(),
            },
            Panel {
                label: "(c) SDSC-moment-matched workload".to_string(),
                x_label: "% of High Urgency Jobs".to_string(),
                metric: "average slowdown".to_string(),
                series: sdsc.slowdown,
            },
            Panel {
                label: "(d) Lublin-Feitelson workload".to_string(),
                x_label: "% of High Urgency Jobs".to_string(),
                metric: "average slowdown".to_string(),
                series: lublin.slowdown,
            },
        ],
    }
}

/// Heterogeneity study (ours): the paper notes runtimes "must be
/// translated to their equivalent value across heterogeneous nodes" but
/// evaluates on the homogeneous SP2. This sweep spreads node ratings
/// (mean capacity constant) and checks whether the admission controls'
/// ordering survives on a mixed machine.
pub fn heterogeneity(cfg: &FigureConfig) -> Figure {
    let spreads = [0.0, 0.2, 0.4, 0.6];
    let points: Vec<(f64, Scenario)> = spreads
        .iter()
        .map(|&s| {
            (
                s,
                Scenario {
                    jobs: cfg.jobs,
                    rating_spread: s,
                    estimates: EstimateRegime::Trace,
                    ..Default::default()
                },
            )
        })
        .collect();
    let out = run_sweep(&points, &PolicyKind::PAPER, &cfg.seeds, cfg.threads);
    Figure {
        id: "heterogeneity".to_string(),
        title: "Impact of node-rating heterogeneity (constant mean capacity)".to_string(),
        panels: vec![
            Panel {
                label: "(a) Trace estimates".to_string(),
                x_label: "Rating spread".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: out.fulfilled.clone(),
            },
            Panel {
                label: "(b) Trace estimates".to_string(),
                x_label: "Rating spread".to_string(),
                metric: "average slowdown".to_string(),
                series: out.slowdown,
            },
        ],
    }
}

/// Node-churn study (ours): rerun the default scenario under a seeded
/// exponential fault plan, sweeping the expected number of failures per
/// node over the trace span, once for each recovery policy. Kill shows
/// the raw SLA damage of losing resident jobs; Requeue shows how much of
/// it re-admission against the *remaining* deadline claws back.
pub fn churn(cfg: &FigureConfig) -> Figure {
    use cluster::RecoveryPolicy;
    // Expected trace span: jobs arrive ~every MEAN_INTER_ARRIVAL_SECS at
    // the default arrival delay factor, so `span / x` is the per-node
    // MTBF that yields ~x failures per node over the run.
    let span = cfg.jobs as f64 * params::MEAN_INTER_ARRIVAL_SECS;
    let failures_per_node = [0.5, 1.0, 2.0, 4.0];
    let sweep_with = |recovery: RecoveryPolicy| -> SweepOutcome {
        let points: Vec<(f64, Scenario)> = failures_per_node
            .iter()
            .map(|&x| {
                let mtbf = span / x;
                (
                    x,
                    Scenario {
                        jobs: cfg.jobs,
                        estimates: EstimateRegime::Trace,
                        node_mtbf: mtbf,
                        node_mttr: mtbf / 10.0,
                        recovery,
                        ..Default::default()
                    },
                )
            })
            .collect();
        run_sweep(&points, &PolicyKind::PAPER, &cfg.seeds, cfg.threads)
    };
    let kill = sweep_with(RecoveryPolicy::Kill);
    let requeue = sweep_with(RecoveryPolicy::Requeue);
    Figure {
        id: "churn".to_string(),
        title: "Impact of node churn under Kill vs Requeue recovery".to_string(),
        panels: vec![
            Panel {
                label: "(a) Kill recovery".to_string(),
                x_label: "Expected failures per node".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: kill.fulfilled.clone(),
            },
            Panel {
                label: "(b) Requeue recovery".to_string(),
                x_label: "Expected failures per node".to_string(),
                metric: "% of jobs with deadlines fulfilled".to_string(),
                series: requeue.fulfilled.clone(),
            },
            Panel {
                label: "(c) Kill recovery".to_string(),
                x_label: "Expected failures per node".to_string(),
                metric: "average slowdown".to_string(),
                series: kill.slowdown,
            },
            Panel {
                label: "(d) Requeue recovery".to_string(),
                x_label: "Expected failures per node".to_string(),
                metric: "average slowdown".to_string(),
                series: requeue.slowdown,
            },
        ],
    }
}

/// Computation-at-Risk profile of the paper's policies at the default
/// scenario: the related work's own lens (§2, Kleban & Clearwater) —
/// 95 % value-at-risk and expected shortfall of the expansion factor and
/// the realised deadline-delay metric.
pub fn risk_profile_table(cfg: &FigureConfig) -> Table {
    use librisk::{computation_at_risk, CarMeasure};
    let mut t = Table::new(
        "Computation-at-Risk profile (default scenario, trace estimates, level 0.95)",
        &["policy", "measure", "mean", "VaR(95%)", "shortfall", "jobs"],
    );
    let f = metrics::table::fmt_f;
    for policy in PolicyKind::PAPER {
        for measure in [CarMeasure::ExpansionFactor, CarMeasure::DeadlineDelay] {
            let mut mean = metrics::OnlineStats::new();
            let mut var = metrics::OnlineStats::new();
            let mut shortfall = metrics::OnlineStats::new();
            let mut jobs = metrics::OnlineStats::new();
            for &seed in &cfg.seeds {
                let scenario = Scenario {
                    jobs: cfg.jobs,
                    seed,
                    ..Default::default()
                };
                let report = scenario.run(policy);
                if let Some(car) = computation_at_risk(&report, measure, 0.95) {
                    mean.push(car.mean);
                    var.push(car.value_at_risk);
                    shortfall.push(car.expected_shortfall);
                    jobs.push(car.jobs as f64);
                }
            }
            t.push_row(vec![
                policy.name().to_string(),
                format!("{measure:?}"),
                f(mean.mean(), 2),
                f(var.mean(), 2),
                f(shortfall.mean(), 2),
                f(jobs.mean(), 0),
            ]);
        }
    }
    t
}

/// Seed-sensitivity check: the default scenario across many seeds, with
/// mean ± 95 % CI per policy. The paper runs a single real trace; this
/// table shows how much of our measured gaps is workload noise (spoiler:
/// the LibraRisk−Libra gap is an order of magnitude wider than the CI).
pub fn convergence_table(cfg: &FigureConfig) -> Table {
    use crate::scenario::Scenario;
    // At least 5 seeds regardless of the configured set.
    let seeds: Vec<u64> = if cfg.seeds.len() >= 5 {
        cfg.seeds.clone()
    } else {
        (1..=5).collect()
    };
    let mut t = Table::new(
        format!(
            "Seed sensitivity at the default scenario ({} seeds, trace estimates)",
            seeds.len()
        ),
        &[
            "policy",
            "fulfilled % (mean)",
            "± CI95",
            "slowdown (mean)",
            "± CI95 ",
        ],
    );
    let f = metrics::table::fmt_f;
    for policy in PolicyKind::PAPER {
        let mut fulfilled = metrics::OnlineStats::new();
        let mut slowdown = metrics::OnlineStats::new();
        for &seed in &seeds {
            let report = Scenario {
                jobs: cfg.jobs,
                seed,
                ..Default::default()
            }
            .run(policy);
            fulfilled.push(report.fulfilled_pct());
            slowdown.push(report.avg_slowdown());
        }
        t.push_row(vec![
            policy.name().to_string(),
            f(fulfilled.mean(), 2),
            f(fulfilled.ci95_halfwidth(), 2),
            f(slowdown.mean(), 3),
            f(slowdown.ci95_halfwidth(), 3),
        ]);
    }
    t
}

/// Detailed workload breakdowns accompanying the §4 statistics table:
/// runtime / inter-arrival / processor histograms and the
/// estimate-accuracy classes.
pub fn trace_analysis_tables(cfg: &FigureConfig) -> Vec<Table> {
    let scenario = Scenario {
        jobs: cfg.jobs,
        ..Default::default()
    };
    let trace = scenario.build_trace();
    let analysis = workload::analysis::analyze(&trace);
    let f = metrics::table::fmt_f;

    let hist_table = |title: &str, hist: &workload::analysis::LogHistogram, unit: &str| {
        let mut t = Table::new(title, &["bucket", "count", "share %"]);
        let total = hist.total().max(1) as f64;
        if hist.underflow > 0 {
            t.push_row(vec![
                format!("< {} {unit}", f(hist.first_edge, 0)),
                hist.underflow.to_string(),
                f(100.0 * hist.underflow as f64 / total, 1),
            ]);
        }
        for (lo, hi, count) in hist.buckets() {
            if count == 0 {
                continue;
            }
            t.push_row(vec![
                format!("{}–{} {unit}", f(lo, 0), f(hi, 0)),
                count.to_string(),
                f(100.0 * count as f64 / total, 1),
            ]);
        }
        t
    };

    let mut classes = Table::new("Estimate accuracy classes", &["class", "jobs", "share %"]);
    let n = trace.len().max(1) as f64;
    for (class, count) in analysis.estimate_classes {
        classes.push_row(vec![
            format!("{class:?}"),
            count.to_string(),
            f(100.0 * count as f64 / n, 1),
        ]);
    }

    vec![
        hist_table("Runtime distribution", &analysis.runtime_hist, "s"),
        hist_table(
            "Inter-arrival distribution",
            &analysis.inter_arrival_hist,
            "s",
        ),
        hist_table(
            "Processor-request distribution",
            &analysis.procs_hist,
            "procs",
        ),
        classes,
    ]
}

/// Budget-gated admission (the economic half of the original Libra
/// system, ref \[14\] of the paper): revenue and fulfilment when every job
/// carries a budget against Libra's published cost function. Shows that
/// the risk-aware deadline test also earns more — it wastes less of the
/// budget-feasible demand.
pub fn budget_table(cfg: &FigureConfig) -> Table {
    use cluster::proportional::ProportionalConfig;
    use librisk::{
        drive_trace, BudgetModel, ClusterRms, Libra, LibraBudget, LibraRisk, OnlineReport,
        PricingModel,
    };

    let mut t = Table::new(
        "Budget-gated admission (Libra economy, trace estimates)",
        &[
            "policy",
            "fulfilled %",
            "accepted",
            "budget-rejected",
            "revenue (k)",
        ],
    );
    let f = metrics::table::fmt_f;
    enum Inner {
        Libra,
        LibraRisk,
    }
    for (label, inner) in [
        ("Libra+Budget", Inner::Libra),
        ("LibraRisk+Budget", Inner::LibraRisk),
    ] {
        let mut fulfilled = metrics::OnlineStats::new();
        let mut accepted = metrics::OnlineStats::new();
        let mut budget_rejected = metrics::OnlineStats::new();
        let mut revenue = metrics::OnlineStats::new();
        for &seed in &cfg.seeds {
            let scenario = Scenario {
                jobs: cfg.jobs,
                seed,
                ..Default::default()
            };
            let trace = scenario.build_trace();
            let budgets = BudgetModel::default()
                .assign(&mut sim::Rng64::new(seed).split("budgets"), trace.jobs());
            let cluster = scenario.cluster();
            let cfg_engine = ProportionalConfig::default();
            // Stream through the RMS facade with a *borrowed* policy so
            // the accumulated economy (revenue, budget rejections) stays
            // readable after the run.
            let stream = |policy: &mut (dyn librisk::ShareAdmission + Send)| {
                let mut rms = ClusterRms::proportional(cluster.clone(), cfg_engine, policy);
                let mut sink = OnlineReport::new();
                drive_trace(&mut rms, &trace, &mut sink);
                sink
            };
            let (report, rev, brej) = match inner {
                Inner::Libra => {
                    let mut p = LibraBudget::new(Libra::new(), PricingModel::default(), budgets);
                    let r = stream(&mut p);
                    (r, p.revenue(), p.budget_rejections())
                }
                Inner::LibraRisk => {
                    let mut p =
                        LibraBudget::new(LibraRisk::paper(), PricingModel::default(), budgets);
                    let r = stream(&mut p);
                    (r, p.revenue(), p.budget_rejections())
                }
            };
            fulfilled.push(report.fulfilled_pct());
            accepted.push(report.accepted() as f64);
            budget_rejected.push(brej as f64);
            revenue.push(rev / 1000.0);
        }
        t.push_row(vec![
            label.to_string(),
            f(fulfilled.mean(), 1),
            f(accepted.mean(), 0),
            f(budget_rejected.mean(), 0),
            f(revenue.mean(), 0),
        ]);
    }
    t
}

/// A summary table over the *whole* policy catalogue at the default
/// scenario (trace estimates): the quick-reference comparison the paper's
/// prose makes across sections, plus our extensions.
pub fn policy_summary_table(cfg: &FigureConfig) -> Table {
    use crate::scenario::Scenario;
    let policies = [
        PolicyKind::Fcfs,
        PolicyKind::EdfNoAdmission,
        PolicyKind::Edf,
        PolicyKind::EdfBackfill,
        PolicyKind::Qops,
        PolicyKind::QopsHard,
        PolicyKind::Libra,
        PolicyKind::LibraRisk,
    ];
    let mut t = Table::new(
        "Policy catalogue at the default scenario (trace estimates)",
        &[
            "policy",
            "fulfilled %",
            "high-urgency %",
            "low-urgency %",
            "avg slowdown",
            "rejected",
            "utilization",
        ],
    );
    let f = metrics::table::fmt_f;
    for policy in policies {
        let mut fulfilled = metrics::OnlineStats::new();
        let mut high = metrics::OnlineStats::new();
        let mut low = metrics::OnlineStats::new();
        let mut slowdown = metrics::OnlineStats::new();
        let mut rejected = metrics::OnlineStats::new();
        let mut util = metrics::OnlineStats::new();
        for &seed in &cfg.seeds {
            let scenario = Scenario {
                jobs: cfg.jobs,
                seed,
                ..Default::default()
            };
            let r = scenario.run(policy);
            fulfilled.push(r.fulfilled_pct());
            high.push(r.fulfilled_pct_of(workload::Urgency::High));
            low.push(r.fulfilled_pct_of(workload::Urgency::Low));
            slowdown.push(r.avg_slowdown());
            rejected.push(r.rejected() as f64);
            util.push(r.utilization);
        }
        t.push_row(vec![
            policy.name().to_string(),
            f(fulfilled.mean(), 1),
            f(high.mean(), 1),
            f(low.mean(), 1),
            f(slowdown.mean(), 2),
            f(rejected.mean(), 0),
            f(util.mean(), 2),
        ]);
    }
    t
}

/// The §4 trace-statistics table: paper-reported vs generated values.
pub fn trace_stats_table(cfg: &FigureConfig) -> Table {
    let scenario = Scenario {
        jobs: cfg.jobs,
        ..Default::default()
    };
    let trace = scenario.build_trace();
    let stats = trace.stats(scenario.nodes);
    let mut t = Table::new(
        "SDSC SP2 subset statistics (paper §4 vs synthetic trace)",
        &["statistic", "paper", "synthetic"],
    );
    let f = |x: f64, d: usize| metrics::table::fmt_f(x, d);
    t.push_row(vec!["jobs".into(), "3000".into(), stats.jobs.to_string()]);
    t.push_row(vec![
        "mean inter-arrival (s)".into(),
        "2131".into(),
        f(stats.mean_inter_arrival, 0),
    ]);
    t.push_row(vec![
        "mean runtime (s)".into(),
        "9720 (2.7 h)".into(),
        f(stats.mean_runtime, 0),
    ]);
    t.push_row(vec![
        "mean processors".into(),
        "17".into(),
        f(stats.mean_procs, 1),
    ]);
    t.push_row(vec![
        "over-estimated jobs (%)".into(),
        "\"often over estimated\"".into(),
        f(100.0 * stats.overestimated_fraction, 1),
    ]);
    t.push_row(vec![
        "mean estimate/runtime".into(),
        "\u{2014}".into(),
        f(stats.mean_estimate_factor, 2),
    ]);
    t.push_row(vec![
        "offered load".into(),
        "\u{2014}".into(),
        f(stats.offered_load, 2),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> FigureConfig {
        FigureConfig {
            jobs: 50,
            seeds: vec![1],
            threads: 2,
        }
    }

    #[test]
    fn fig1_has_four_panels_with_three_policies() {
        let cfg = FigureConfig {
            jobs: 40,
            seeds: vec![1],
            threads: 2,
        };
        // Restrict the sweep cost by reusing the public API on a tiny
        // trace; the grid is still the paper's 10 points.
        let fig = fig1(&cfg);
        assert_eq!(fig.panels.len(), 4);
        for p in &fig.panels {
            assert_eq!(p.series.len(), 3);
            assert_eq!(p.series[0].len(), 10);
        }
        let table = fig.panels[0].to_table();
        assert_eq!(table.row_count(), 10);
    }

    #[test]
    fn trace_stats_table_has_expected_rows() {
        let t = trace_stats_table(&tiny_cfg());
        assert_eq!(t.row_count(), 7);
        assert!(t.to_markdown().contains("mean runtime"));
    }

    #[test]
    fn trace_analysis_tables_cover_all_views() {
        let tables = trace_analysis_tables(&tiny_cfg());
        assert_eq!(tables.len(), 4);
        assert!(tables[0].title().contains("Runtime"));
        assert!(tables[3].to_markdown().contains("GrossOver"));
    }

    #[test]
    fn budget_table_reports_both_policies() {
        let t = budget_table(&tiny_cfg());
        assert_eq!(t.row_count(), 2);
        let md = t.to_markdown();
        assert!(md.contains("Libra+Budget"));
        assert!(md.contains("LibraRisk+Budget"));
    }

    #[test]
    fn risk_profile_table_covers_policies_and_measures() {
        let t = risk_profile_table(&tiny_cfg());
        assert_eq!(t.row_count(), 6); // 3 policies × 2 measures
        assert!(t.to_markdown().contains("ExpansionFactor"));
    }

    #[test]
    fn convergence_table_reports_cis() {
        let t = convergence_table(&FigureConfig {
            jobs: 60,
            seeds: vec![1, 2, 3, 4, 5],
            threads: 2,
        });
        assert_eq!(t.row_count(), 3);
        assert!(t.to_markdown().contains("5 seeds"));
    }

    #[test]
    fn heterogeneity_figure_has_two_panels() {
        let fig = heterogeneity(&tiny_cfg());
        assert_eq!(fig.panels.len(), 2);
        assert_eq!(fig.panels[0].series.len(), 3);
        assert_eq!(fig.panels[0].series[0].len(), 4);
    }

    #[test]
    fn churn_figure_has_four_panels_over_the_mtbf_grid() {
        let fig = churn(&tiny_cfg());
        assert_eq!(fig.panels.len(), 4);
        for p in &fig.panels {
            assert_eq!(p.series.len(), 3, "one line per paper policy");
            assert_eq!(p.series[0].len(), 4, "one point per MTBF level");
        }
        // The Kill fulfilled panel must not silently equal the Requeue
        // one: the sweeps really ran under different recovery policies.
        let means = |panel: &Panel| -> Vec<(f64, f64)> {
            panel.series.iter().flat_map(|s| s.mean_points()).collect()
        };
        assert_ne!(means(&fig.panels[0]), means(&fig.panels[1]));
    }
}
