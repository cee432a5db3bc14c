//! End-to-end integration: every policy over a realistic scenario, with
//! cross-crate invariants checked on the full reports.

use experiments::{EstimateRegime, Scenario};
use librisk::prelude::*;

const ALL_POLICIES: [PolicyKind; 13] = [
    PolicyKind::Edf,
    PolicyKind::EdfNoAdmission,
    PolicyKind::Fcfs,
    PolicyKind::Libra,
    PolicyKind::LibraRisk,
    PolicyKind::LibraRiskStrict,
    PolicyKind::LibraRiskBestFit,
    PolicyKind::LibraStrictShares,
    PolicyKind::LibraRiskStrictShares,
    PolicyKind::LibraRiskNaiveProjection,
    PolicyKind::EdfBackfill,
    PolicyKind::Qops,
    PolicyKind::QopsHard,
];

fn scenario() -> Scenario {
    Scenario {
        jobs: 250,
        ..Default::default()
    }
}

#[test]
fn every_policy_completes_with_consistent_accounting() {
    for policy in ALL_POLICIES {
        let report = scenario().run(policy);
        assert_eq!(report.submitted(), 250, "{policy}");
        assert_eq!(
            report.accepted() + report.rejected(),
            report.submitted(),
            "{policy}: outcomes partition the submissions"
        );
        assert!(
            report.fulfilled() <= report.accepted(),
            "{policy}: only completed jobs can be fulfilled"
        );
        assert!(
            (0.0..=100.0).contains(&report.fulfilled_pct()),
            "{policy}: percentage in range"
        );
        assert!(
            (0.0..=1.0 + 1e-9).contains(&report.utilization),
            "{policy}: utilisation {} in [0,1]",
            report.utilization
        );
        if report.fulfilled() > 0 {
            assert!(
                report.avg_slowdown() >= 1.0 - 1e-9,
                "{policy}: slowdown {} cannot beat full-speed execution",
                report.avg_slowdown()
            );
        }
    }
}

#[test]
fn simulations_are_deterministic() {
    for policy in [PolicyKind::Edf, PolicyKind::Libra, PolicyKind::LibraRisk] {
        let a = scenario().run(policy);
        let b = scenario().run(policy);
        assert_eq!(a.fulfilled(), b.fulfilled(), "{policy}");
        assert_eq!(a.rejected(), b.rejected(), "{policy}");
        assert!(
            (a.avg_slowdown() - b.avg_slowdown()).abs() < 1e-12,
            "{policy}"
        );
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(
                ra.outcome, rb.outcome,
                "{policy}: per-job outcomes identical"
            );
        }
    }
}

#[test]
fn fulfilled_jobs_meet_their_deadline_exactly_by_definition() {
    for policy in ALL_POLICIES {
        let report = scenario().run(policy);
        for r in &report.records {
            if r.fulfilled() {
                let Outcome::Completed { finish, started } = r.outcome else {
                    panic!("fulfilled implies completed");
                };
                assert!(finish <= r.job.absolute_deadline(), "{policy}");
                assert!(started >= r.job.submit, "{policy}: causality");
                assert!(finish > r.job.submit, "{policy}: positive response time");
            }
        }
    }
}

#[test]
fn headline_result_librarisk_dominates_libra_under_trace_estimates() {
    let scenario = Scenario {
        jobs: 500,
        estimates: EstimateRegime::Trace,
        ..Default::default()
    };
    let libra = scenario.run(PolicyKind::Libra);
    let librarisk = scenario.run(PolicyKind::LibraRisk);
    assert!(
        librarisk.fulfilled_pct() > libra.fulfilled_pct() + 5.0,
        "LibraRisk ({:.1}%) must clearly beat Libra ({:.1}%) with trace estimates",
        librarisk.fulfilled_pct(),
        libra.fulfilled_pct()
    );
    assert!(
        librarisk.avg_slowdown() < libra.avg_slowdown(),
        "LibraRisk slowdown ({:.2}) must beat Libra ({:.2})",
        librarisk.avg_slowdown(),
        libra.avg_slowdown()
    );
}

#[test]
fn librarisk_beats_edf_under_trace_estimates() {
    // The paper's claim over EDF, at the seeds the seed-sensitivity
    // table averages. `results/full_run.md` measures the gap at 8.70
    // points with CI95 half-widths 1.10 (EDF) and 0.32 (LibraRisk); the
    // mean gap must stay above 8.70 - (1.10 + 0.32) = 7.28.
    let mean_fulfilled = |policy: PolicyKind| {
        let total: f64 = (1..=5)
            .map(|seed| {
                Scenario {
                    estimates: EstimateRegime::Trace,
                    seed,
                    ..Default::default()
                }
                .run_online(policy)
                .fulfilled_pct()
            })
            .sum();
        total / 5.0
    };
    let edf = mean_fulfilled(PolicyKind::Edf);
    let librarisk = mean_fulfilled(PolicyKind::LibraRisk);
    assert!(
        librarisk - edf > 7.28,
        "LibraRisk ({librarisk:.2}%) must beat EDF ({edf:.2}%) by more than 7.28 points"
    );
}

#[test]
#[ignore = "release-only: run by ci.sh"]
fn libra_full_size_counts_are_pinned() {
    // Libra and Libra-SS over the benchmark's `paper-100k` and
    // `churn-requeue` inputs at seed 1: exact fulfilled and rejected
    // counts, so any change to Libra's decide that moves one verdict
    // fails here.
    let paper = Scenario {
        jobs: 100_000,
        seed: 1,
        estimates: EstimateRegime::Trace,
        ..Default::default()
    };
    let churn = Scenario {
        jobs: 50_000,
        node_mtbf: 1e6,
        node_mttr: 14_400.0,
        recovery: RecoveryPolicy::Requeue,
        ..paper.clone()
    };
    let pins = [
        (&paper, PolicyKind::Libra, 56_018, 33_817),
        (&paper, PolicyKind::LibraStrictShares, 54_294, 34_193),
        (&churn, PolicyKind::Libra, 28_514, 16_967),
        (&churn, PolicyKind::LibraStrictShares, 27_790, 17_216),
    ];
    for (scenario, policy, fulfilled, rejected) in pins {
        let report = scenario.run_online(policy);
        assert_eq!(
            (report.fulfilled(), report.rejected()),
            (fulfilled, rejected),
            "{policy} over {} jobs (mtbf {})",
            scenario.jobs,
            scenario.node_mtbf
        );
    }
}

#[test]
fn accurate_estimates_close_the_gap() {
    let scenario = Scenario {
        jobs: 500,
        estimates: EstimateRegime::Accurate,
        ..Default::default()
    };
    let libra = scenario.run(PolicyKind::Libra);
    let librarisk = scenario.run(PolicyKind::LibraRisk);
    assert!(
        (librarisk.fulfilled_pct() - libra.fulfilled_pct()).abs() < 3.0,
        "with accurate estimates LibraRisk ({:.1}%) ≈ Libra ({:.1}%)",
        librarisk.fulfilled_pct(),
        libra.fulfilled_pct()
    );
}

#[test]
fn strict_risk_ablation_collapses_to_libra_like_behaviour() {
    let scenario = Scenario {
        jobs: 400,
        estimates: EstimateRegime::Trace,
        ..Default::default()
    };
    let libra = scenario.run(PolicyKind::Libra);
    let strict = scenario.run(PolicyKind::LibraRiskStrict);
    let librarisk = scenario.run(PolicyKind::LibraRisk);
    // The strict (mu = 1) variant gives up the over-estimation tolerance:
    // it should land near Libra and clearly below LibraRisk.
    assert!(
        (strict.fulfilled_pct() - libra.fulfilled_pct()).abs() < 6.0,
        "strict {:.1}% vs libra {:.1}%",
        strict.fulfilled_pct(),
        libra.fulfilled_pct()
    );
    assert!(
        librarisk.fulfilled_pct() > strict.fulfilled_pct() + 5.0,
        "librarisk {:.1}% vs strict {:.1}%",
        librarisk.fulfilled_pct(),
        strict.fulfilled_pct()
    );
}

#[test]
fn no_admission_control_baselines_are_much_worse_under_load() {
    let scenario = Scenario {
        jobs: 400,
        arrival_delay_factor: 0.2, // heavy workload
        estimates: EstimateRegime::Trace,
        ..Default::default()
    };
    let edf = scenario.run(PolicyKind::Edf);
    let edf_noac = scenario.run(PolicyKind::EdfNoAdmission);
    let fcfs = scenario.run(PolicyKind::Fcfs);
    assert!(
        edf.fulfilled_pct() > edf_noac.fulfilled_pct() + 10.0,
        "EDF {:.1}% vs EDF-NoAC {:.1}%: admission control must matter under load",
        edf.fulfilled_pct(),
        edf_noac.fulfilled_pct()
    );
    assert!(
        edf.fulfilled_pct() > fcfs.fulfilled_pct() + 10.0,
        "EDF {:.1}% vs FCFS {:.1}%",
        edf.fulfilled_pct(),
        fcfs.fulfilled_pct()
    );
}

#[test]
fn churn_degrades_fulfilment_and_requeue_recovers_part_of_it() {
    let span = 250.0 * workload::params::MEAN_INTER_ARRIVAL_SECS;
    let churned = |recovery: RecoveryPolicy| Scenario {
        node_mtbf: span / 3.0,
        node_mttr: span / 30.0,
        recovery,
        ..scenario()
    };
    for policy in [PolicyKind::LibraRisk, PolicyKind::Edf, PolicyKind::Qops] {
        let calm = scenario().run(policy);
        let kill = churned(RecoveryPolicy::Kill).run(policy);
        let requeue = churned(RecoveryPolicy::Requeue).run(policy);
        assert!(calm.churn.is_empty(), "{policy}: fault-free run is clean");
        assert!(
            kill.churn.kills > 0,
            "{policy}: an ~83-failure plan must hit resident jobs"
        );
        assert!(
            kill.fulfilled_pct() < calm.fulfilled_pct(),
            "{policy}: churn must cost fulfilment ({:.1}% vs {:.1}%)",
            kill.fulfilled_pct(),
            calm.fulfilled_pct()
        );
        assert_eq!(requeue.churn.kills, 0, "{policy}: requeue never kills");
        assert!(
            requeue.churn.requeues > 0,
            "{policy}: displaced jobs are re-admitted"
        );
        // Accounting stays a partition of the submissions in every mode.
        for r in [&kill, &requeue] {
            assert_eq!(r.accepted() + r.rejected(), r.submitted(), "{policy}");
        }
    }
}

#[test]
fn rejected_jobs_never_execute_and_accepted_jobs_always_finish() {
    for policy in [PolicyKind::Libra, PolicyKind::LibraRisk, PolicyKind::Edf] {
        let report = scenario().run(policy);
        for r in &report.records {
            match r.outcome {
                Outcome::Rejected { at, .. } => {
                    assert!(at >= r.job.submit, "{policy}: rejection after submission");
                }
                Outcome::Completed { started, finish } => {
                    assert!(
                        finish > started || r.job.runtime.as_secs() < 1e-3,
                        "{policy}"
                    );
                }
                Outcome::Killed { .. } => {
                    unreachable!("{policy}: no fault plan, nothing can be killed")
                }
            }
        }
    }
}
