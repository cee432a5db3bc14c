//! Batch entry points for driving a trace through either execution
//! engine.
//!
//! The cluster RMS is "the only single interface for users to submit jobs
//! in the cluster" (§3): every job of the trace arrives at its submit
//! time, the admission control decides, and accepted jobs execute to
//! completion (hard deadlines are never enforced by killing — a late job
//! simply counts as unfulfilled).
//!
//! [`run_proportional`] and [`run_queued`] are thin wrappers over the
//! online [`ClusterRms`] facade driven by
//! [`drive_trace`](crate::rms::drive_trace) — one generic loop for every
//! policy. The bespoke per-engine event loops this module once carried
//! are gone; their behaviour is pinned bitwise by the golden fixture in
//! `tests/fixtures/golden_outcomes.txt` (see `tests/differential_rms.rs`).

use crate::policy::ShareAdmission;
use crate::queue::QueuePolicy;
use crate::report::SimulationReport;
use crate::rms::ClusterRms;
use cluster::proportional::ProportionalConfig;
use cluster::Cluster;
use workload::Trace;

/// Runs a proportional-share admission control (Libra, LibraRisk, …) over
/// a trace and reports per-job outcomes.
pub fn run_proportional(
    cluster: Cluster,
    cfg: ProportionalConfig,
    policy: &mut (dyn ShareAdmission + Send),
    trace: &Trace,
) -> SimulationReport {
    ClusterRms::proportional(cluster, cfg, policy).run_to_report(trace)
}

/// Runs a space-shared queueing policy (EDF, EDF-NoAC, FCFS) over a trace.
pub fn run_queued(cluster: Cluster, policy: QueuePolicy, trace: &Trace) -> SimulationReport {
    ClusterRms::queued(cluster, policy).run_to_report(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libra::Libra;
    use crate::libra_risk::LibraRisk;
    use crate::queue::QueueDiscipline;
    use crate::report::Outcome;
    use sim::{SimDuration, SimTime};
    use workload::{Job, JobId, Urgency};

    fn job(id: u64, submit: f64, runtime: f64, estimate: f64, procs: u32, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
            procs,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::Low,
        }
    }

    fn two_node_cluster() -> Cluster {
        Cluster::homogeneous(2, 168.0)
    }

    #[test]
    fn libra_accepts_and_completes_feasible_jobs() {
        let trace = Trace::new(vec![
            job(0, 0.0, 50.0, 50.0, 1, 200.0),
            job(1, 10.0, 50.0, 50.0, 1, 200.0),
        ]);
        let report = run_proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            &mut Libra::new(),
            &trace,
        );
        assert_eq!(report.submitted(), 2);
        assert_eq!(report.fulfilled(), 2);
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.policy, "Libra");
    }

    #[test]
    fn libra_rejects_overcommitment_librarisk_accepts_certain_case() {
        // Eight identical single-node jobs each demanding share 1.0 arrive
        // together on a 2-node cluster: Libra takes two (one per node),
        // rejects the rest.
        let jobs: Vec<Job> = (0..8)
            .map(|i| job(i, 0.0, 100.0, 100.0, 1, 100.0))
            .collect();
        let trace = Trace::new(jobs);
        let libra = run_proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            &mut Libra::new(),
            &trace,
        );
        assert_eq!(libra.accepted(), 2);
        assert_eq!(libra.rejected(), 6);
        assert_eq!(libra.fulfilled(), 2);
    }

    #[test]
    fn librarisk_tolerates_overestimates_that_libra_rejects() {
        // One job per node: estimate 3× the deadline, actual runtime well
        // inside it. Libra rejects (share 3 > 1); LibraRisk accepts (lone
        // job → σ = 0) and the job fulfils its deadline.
        let trace = Trace::new(vec![job(0, 0.0, 50.0, 300.0, 1, 100.0)]);
        let libra = run_proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            &mut Libra::new(),
            &trace,
        );
        assert_eq!(libra.fulfilled(), 0);
        assert_eq!(libra.rejected(), 1);
        let lr = run_proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            &mut LibraRisk::paper(),
            &trace,
        );
        assert_eq!(lr.rejected(), 0);
        assert_eq!(lr.fulfilled(), 1, "over-estimated job meets its deadline");
    }

    #[test]
    fn edf_queues_and_reselects_by_deadline() {
        // One processor; job 0 occupies it; jobs 1 and 2 queue. Job 2
        // arrives later but has the earlier absolute deadline → runs first.
        let trace = Trace::new(vec![
            job(0, 0.0, 100.0, 100.0, 1, 1000.0),
            job(1, 1.0, 10.0, 10.0, 1, 5000.0), // abs deadline 5001
            job(2, 2.0, 10.0, 10.0, 1, 500.0),  // abs deadline 502
        ]);
        let report = run_queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            &trace,
        );
        assert_eq!(report.fulfilled(), 3);
        let finish = |i: usize| match report.records[i].outcome {
            Outcome::Completed { finish, .. } => finish.as_secs(),
            _ => panic!("completed"),
        };
        assert_eq!(finish(0), 100.0);
        assert_eq!(finish(2), 110.0, "earlier deadline overtakes");
        assert_eq!(finish(1), 120.0);
    }

    #[test]
    fn edf_rejects_selected_job_that_cannot_meet_deadline() {
        let trace = Trace::new(vec![
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            // Needs 100 s but its deadline is 50 s after submission — by
            // the time it is selected (t=0, queue head check) it already
            // cannot meet the deadline.
            job(1, 0.0, 100.0, 100.0, 1, 50.0),
        ]);
        let report = run_queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            &trace,
        );
        assert_eq!(report.rejected(), 1);
        assert!(matches!(
            report.records[1].outcome,
            Outcome::Rejected { .. }
        ));
        assert_eq!(report.fulfilled(), 1);
    }

    #[test]
    fn edf_noac_never_rejects_but_misses_deadlines() {
        let trace = Trace::new(vec![
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            job(1, 0.0, 100.0, 100.0, 1, 50.0),
        ]);
        let report = run_queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, false),
            &trace,
        );
        assert_eq!(report.rejected(), 0);
        assert_eq!(report.accepted(), 2);
        assert!(report.fulfilled() < 2);
    }

    #[test]
    fn fcfs_runs_in_arrival_order() {
        let trace = Trace::new(vec![
            job(0, 0.0, 100.0, 100.0, 1, 10_000.0),
            job(1, 1.0, 10.0, 10.0, 1, 20.0), // urgent but FCFS ignores it
        ]);
        let report = run_queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::Fifo, false),
            &trace,
        );
        let finish = |i: usize| match report.records[i].outcome {
            Outcome::Completed { finish, .. } => finish.as_secs(),
            _ => panic!("completed"),
        };
        assert_eq!(finish(0), 100.0);
        assert_eq!(finish(1), 110.0);
        assert_eq!(report.fulfilled(), 1);
    }

    #[test]
    fn backfill_lets_small_jobs_jump_a_blocked_wide_head() {
        // Two processors. Job 0 takes one; job 1 (the EDF head) needs both
        // and blocks; job 2 needs one and fits the idle processor.
        let trace = Trace::new(vec![
            job(0, 0.0, 100.0, 100.0, 1, 1000.0),
            job(1, 1.0, 50.0, 50.0, 2, 500.0), // head (earliest deadline)
            job(2, 2.0, 30.0, 30.0, 1, 2000.0),
        ]);
        let plain = run_queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            &trace,
        );
        let backfill = run_queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true).with_backfill(true),
            &trace,
        );
        let finish = |r: &SimulationReport, i: usize| match r.records[i].outcome {
            Outcome::Completed { finish, .. } => finish.as_secs(),
            _ => panic!("completed"),
        };
        // Without backfilling job 2 waits behind the blocked head.
        assert_eq!(finish(&plain, 2), 180.0);
        // With backfilling it runs immediately on the idle processor.
        assert_eq!(finish(&backfill, 2), 32.0);
        // The head itself is not harmed here (it still waits for job 0).
        assert_eq!(finish(&plain, 1), 150.0);
        assert_eq!(finish(&backfill, 1), 150.0);
    }

    #[test]
    fn job_wider_than_machine_is_rejected_everywhere() {
        let trace = Trace::new(vec![job(0, 0.0, 10.0, 10.0, 5, 100.0)]);
        let q = run_queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            &trace,
        );
        assert_eq!(q.rejected(), 1);
        let p = run_proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            &mut LibraRisk::paper(),
            &trace,
        );
        assert_eq!(p.rejected(), 1);
    }

    #[test]
    fn every_job_gets_exactly_one_outcome() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 5.0, 30.0, 45.0, 1 + (i % 2) as u32, 120.0))
            .collect();
        let trace = Trace::new(jobs);
        for report in [
            run_proportional(
                two_node_cluster(),
                ProportionalConfig::default(),
                &mut Libra::new(),
                &trace,
            ),
            run_proportional(
                two_node_cluster(),
                ProportionalConfig::default(),
                &mut LibraRisk::paper(),
                &trace,
            ),
            run_queued(
                two_node_cluster(),
                QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
                &trace,
            ),
        ] {
            assert_eq!(report.submitted(), 40);
            assert_eq!(report.accepted() + report.rejected(), 40);
        }
    }

    #[test]
    fn utilization_is_reported() {
        let trace = Trace::new(vec![job(0, 0.0, 100.0, 100.0, 2, 150.0)]);
        let report = run_queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            &trace,
        );
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }
}
