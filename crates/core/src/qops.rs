//! QoPS-style soft-deadline admission control (related work, §2).
//!
//! The paper contrasts its hard-deadline controls with QoPS (Islam et
//! al., Cluster'04), which "allows soft deadlines by defining a slack
//! factor for each job so that earlier jobs can be delayed up to the
//! slack factor if necessary to accommodate later more urgent jobs". This
//! module holds that idea's schedulability test; the space-shared queued
//! backend runs it at arrival as an *extension* policy
//! ([`ClusterRms::qops`](crate::rms::ClusterRms::qops)):
//!
//! * jobs wait in a deadline-ordered queue (EDF, no backfilling, the
//!   head blocks);
//! * admission happens **at arrival**: the test list-schedules the
//!   running + queued + new jobs in EDF order over the processor pool
//!   (using runtime estimates; a running job frees its processors at
//!   `started + estimate`) and accepts the new job iff every job's
//!   projected completion stays within `submit + slack_factor × deadline`;
//! * the *reported* SLA metric stays the paper's hard deadline, so QoPS
//!   trades certainty for acceptance: with slack > 1 it books more jobs,
//!   some of which miss their hard deadline but satisfy their soft one.
//!
//! With `slack_factor = 1` this degenerates to a hard-deadline
//! schedulability test at arrival.

/// Configuration of the QoPS-style controller.
#[derive(Clone, Copy, Debug)]
pub struct QopsConfig {
    /// Multiplier on each job's relative deadline used by the arrival-time
    /// schedulability test (≥ 1; the soft deadline).
    pub slack_factor: f64,
}

impl Default for QopsConfig {
    fn default() -> Self {
        QopsConfig { slack_factor: 1.2 }
    }
}

/// A job the projector must account for: how much estimated work remains
/// and how wide it is. `idx` is the job's submission sequence number,
/// which breaks deadline ties.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pending {
    pub(crate) idx: u64,
    pub(crate) procs: u32,
    pub(crate) remaining_est: f64,
    pub(crate) abs_deadline: f64,
    pub(crate) soft_deadline: f64,
}

/// List-schedules `pending` (EDF order by absolute deadline) onto
/// processors whose current free times are `free_at`, starting at `now`.
/// Returns `true` iff every job's projected completion meets its soft
/// deadline.
///
/// `free_at` carries one entry per processor: the instant it becomes
/// available (now for idle processors, the running job's estimated finish
/// otherwise).
pub(crate) fn schedulable(now: f64, mut free_at: Vec<f64>, mut pending: Vec<Pending>) -> bool {
    pending.sort_by(|a, b| {
        a.abs_deadline
            .partial_cmp(&b.abs_deadline)
            .expect("finite deadlines")
            .then(a.idx.cmp(&b.idx))
    });
    for job in &pending {
        let k = job.procs as usize;
        if k > free_at.len() {
            return false;
        }
        // The k earliest-free processors; the job starts when the last of
        // them frees up.
        free_at.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let start = free_at[k - 1].max(now);
        let finish = start + job.remaining_est;
        if finish > job.soft_deadline {
            return false;
        }
        for slot in free_at.iter_mut().take(k) {
            *slot = finish;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;
    use crate::rms::ClusterRms;
    use cluster::Cluster;
    use sim::{SimDuration, SimTime};
    use workload::{Job, JobId, Trace, Urgency};

    fn job(id: u64, submit: f64, runtime: f64, procs: u32, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(runtime),
            procs,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::Low,
        }
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, 168.0)
    }

    #[test]
    fn lone_feasible_job_is_accepted_and_fulfilled() {
        let trace = Trace::new(vec![job(0, 0.0, 100.0, 2, 300.0)]);
        let report = ClusterRms::qops(cluster(4), QopsConfig::default()).run_to_report(&trace);
        assert_eq!(report.fulfilled(), 1);
        assert_eq!(report.rejected(), 0);
    }

    #[test]
    fn infeasible_job_is_rejected_at_arrival() {
        // Even the soft deadline (1.2 × 50 = 60 < runtime 100) cannot hold.
        let trace = Trace::new(vec![job(0, 0.0, 100.0, 1, 50.0)]);
        let report = ClusterRms::qops(cluster(2), QopsConfig::default()).run_to_report(&trace);
        assert_eq!(report.rejected(), 1);
    }

    #[test]
    fn slack_admits_jobs_a_hard_test_would_refuse() {
        // Two jobs on one processor, both with deadline 100 and runtime
        // 60: the second would finish at 120 > 100 (hard) but within the
        // soft deadline 150 (slack 1.5).
        let jobs = vec![job(0, 0.0, 60.0, 1, 100.0), job(1, 0.0, 60.0, 1, 100.0)];
        let hard = ClusterRms::qops(cluster(1), QopsConfig { slack_factor: 1.0 })
            .run_to_report(&Trace::new(jobs.clone()));
        assert_eq!(hard.accepted(), 1, "hard test refuses the overflow job");
        let soft = ClusterRms::qops(cluster(1), QopsConfig { slack_factor: 1.5 })
            .run_to_report(&Trace::new(jobs));
        assert_eq!(soft.accepted(), 2, "slack books both");
        // The overflow job misses its hard deadline, so only one is
        // fulfilled under the paper's metric.
        assert_eq!(soft.fulfilled(), 1);
    }

    #[test]
    fn admission_protects_queued_jobs_soft_deadlines() {
        // Queued job 1 would be pushed past its soft deadline by job 2 →
        // job 2 is rejected, job 1 keeps its promise.
        let jobs = vec![
            job(0, 0.0, 100.0, 1, 120.0), // runs immediately
            job(1, 1.0, 50.0, 1, 160.0),  // queued: finish ~150, soft 193
            job(2, 2.0, 100.0, 1, 100.0), // earlier deadline: would preempt
                                          // job 1's slot and push it late
        ];
        let report = ClusterRms::qops(cluster(1), QopsConfig { slack_factor: 1.2 })
            .run_to_report(&Trace::new(jobs));
        assert!(matches!(
            report.records[2].outcome,
            Outcome::Rejected { .. }
        ));
        assert!(report.records[1].fulfilled());
    }

    #[test]
    fn wider_than_cluster_is_rejected() {
        let trace = Trace::new(vec![job(0, 0.0, 10.0, 5, 100.0)]);
        let report = ClusterRms::qops(cluster(2), QopsConfig::default()).run_to_report(&trace);
        assert_eq!(report.rejected(), 1);
    }

    #[test]
    #[should_panic(expected = "slack factor")]
    fn slack_below_one_panics() {
        ClusterRms::qops(cluster(1), QopsConfig { slack_factor: 0.5 })
            .run_to_report(&Trace::new(vec![]));
    }

    #[test]
    fn schedulable_helper_orders_by_deadline() {
        // Two 1-proc jobs on one processor: the later-deadline job waits.
        let pending = vec![
            Pending {
                idx: 0,
                procs: 1,
                remaining_est: 50.0,
                abs_deadline: 200.0,
                soft_deadline: 200.0,
            },
            Pending {
                idx: 1,
                procs: 1,
                remaining_est: 50.0,
                abs_deadline: 60.0,
                soft_deadline: 60.0,
            },
        ];
        // EDF order: job 1 first (finishes 50 ≤ 60), then job 0 (100 ≤ 200).
        assert!(schedulable(0.0, vec![0.0], pending.clone()));
        // On a busy processor (free at 20) job 1 finishes at 70 > 60.
        assert!(!schedulable(0.0, vec![20.0], pending));
    }
}
