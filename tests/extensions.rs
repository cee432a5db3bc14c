//! Integration tests for the extension systems built around the paper:
//! QoPS soft deadlines, EDF backfilling and the projection ablation.

use experiments::{EstimateRegime, Scenario};
use librisk::prelude::*;
use librisk::QopsConfig;

fn scenario(jobs: usize) -> Scenario {
    Scenario {
        jobs,
        ..Default::default()
    }
}

#[test]
fn qops_slack_buys_acceptance_at_scale() {
    let trace = scenario(400).build_trace();
    let cluster = Cluster::sdsc_sp2();
    let hard =
        ClusterRms::qops(cluster.clone(), QopsConfig { slack_factor: 1.0 }).run_to_report(&trace);
    let soft =
        ClusterRms::qops(cluster.clone(), QopsConfig { slack_factor: 1.5 }).run_to_report(&trace);
    assert!(
        soft.accepted() >= hard.accepted(),
        "slack 1.5 accepted {} < slack 1.0 accepted {}",
        soft.accepted(),
        hard.accepted()
    );
    // The soft controller books more work overall…
    assert!(soft.accepted() > 0 && hard.accepted() > 0);
    // …and both remain internally consistent.
    for r in [&hard, &soft] {
        assert_eq!(r.accepted() + r.rejected(), r.submitted());
        assert!(r.fulfilled() <= r.accepted());
    }
}

#[test]
fn backfilling_never_hurts_waiting_narrow_jobs_much() {
    let s = scenario(400);
    let plain = s.run(PolicyKind::Edf);
    let backfill = s.run(PolicyKind::EdfBackfill);
    // Aggressive backfilling reuses idle processors: average slowdown of
    // fulfilled jobs must not regress.
    assert!(
        backfill.avg_slowdown() <= plain.avg_slowdown() + 0.05,
        "backfill slowdown {:.2} vs plain {:.2}",
        backfill.avg_slowdown(),
        plain.avg_slowdown()
    );
    // And fulfilment stays in the same neighbourhood or better.
    assert!(backfill.fulfilled_pct() >= plain.fulfilled_pct() - 2.0);
}

#[test]
fn naive_projection_over_admits_and_collapses() {
    let s = Scenario {
        jobs: 400,
        estimates: EstimateRegime::Trace,
        ..Default::default()
    };
    let paper = s.run(PolicyKind::LibraRisk);
    let naive = s.run(PolicyKind::LibraRiskNaiveProjection);
    // The frozen-rate projection sees zero risk on any node without late
    // jobs, so early on it over-admits heavily; the resulting pile-up of
    // late jobs is what its σ-test reacts to *afterwards* (late jobs do
    // disperse even under the naive projection). Net effect: far more
    // completed-but-late jobs and a collapsed fulfilment rate.
    assert!(
        naive.delayed() > 2 * paper.delayed(),
        "naive delayed {} vs paper {}",
        naive.delayed(),
        paper.delayed()
    );
    assert!(
        naive.fulfilled_pct() + 20.0 < paper.fulfilled_pct(),
        "naive {:.1}% vs paper {:.1}%",
        naive.fulfilled_pct(),
        paper.fulfilled_pct()
    );
}

#[test]
fn qops_soft_deadline_holders_exceed_hard_deadline_holders() {
    // Count jobs that met the *soft* deadline (1.2×) vs the hard one:
    // the soft set must contain the hard set.
    let trace = scenario(300).build_trace();
    let report = ClusterRms::qops(Cluster::sdsc_sp2(), QopsConfig { slack_factor: 1.2 })
        .run_to_report(&trace);
    let mut hard_ok = 0;
    let mut soft_ok = 0;
    for r in &report.records {
        if let Outcome::Completed { finish, .. } = r.outcome {
            let resp = (finish - r.job.submit).as_secs();
            if resp <= r.job.deadline.as_secs() {
                hard_ok += 1;
            }
            if resp <= 1.2 * r.job.deadline.as_secs() {
                soft_ok += 1;
            }
        }
    }
    assert_eq!(hard_ok, report.fulfilled());
    assert!(soft_ok >= hard_ok);
}
