//! Space-shared queueing comparators: EDF (with the paper's relaxed
//! admission control), EDF without admission control, and FCFS.
//!
//! Unlike Libra/LibraRisk these do **not** reject at submission: jobs wait
//! in a queue, and EDF re-selects whenever an earlier-deadline job arrives
//! during the wait. The paper grants EDF a *relaxed* admission control:
//! "EDF only rejects a selected job prior to execution if its deadline has
//! expired or its deadline cannot be met based on its runtime estimate."

use sim::SimTime;
use workload::Job;

/// A submission waiting in a space-shared queue: the RMS facade's
/// submission sequence number plus the job itself. Online arrivals own
/// their jobs (there is no trace to index into), so queue operations run
/// over these entries; `seq` reproduces the trace-index tie-breaking of
/// the batch loops exactly.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// Submission sequence number (submission order, 0-based).
    pub seq: u64,
    /// The waiting job.
    pub job: Job,
}

/// EDF's selection key: absolute deadline, then submission order.
fn edf_key(q: &QueuedJob) -> (SimTime, u64) {
    (q.job.absolute_deadline(), q.seq)
}

/// Order in which queued jobs are selected to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Earliest (absolute) deadline first.
    EarliestDeadline,
    /// First come, first served.
    Fifo,
}

/// A space-shared queueing policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Selection order.
    pub discipline: QueueDiscipline,
    /// Whether the relaxed admission test is applied when a job is
    /// selected to start.
    pub admission: bool,
    /// Aggressive backfilling: when the head of the queue is blocked,
    /// later jobs that fit the idle processors (and pass the admission
    /// test) may start ahead of it. No reservation is taken for the head
    /// (EASY-style aggressive backfilling, Mu'alem & Feitelson).
    pub backfill: bool,
}

impl QueuePolicy {
    /// Creates a policy (no backfilling).
    pub fn new(discipline: QueueDiscipline, admission: bool) -> Self {
        QueuePolicy {
            discipline,
            admission,
            backfill: false,
        }
    }

    /// Enables or disables aggressive backfilling.
    pub fn with_backfill(mut self, on: bool) -> Self {
        self.backfill = on;
        self
    }

    /// Display name of the policy.
    pub fn name(&self) -> &'static str {
        match (self.discipline, self.admission, self.backfill) {
            (QueueDiscipline::EarliestDeadline, true, false) => "EDF",
            (QueueDiscipline::EarliestDeadline, true, true) => "EDF-BF",
            (QueueDiscipline::EarliestDeadline, false, false) => "EDF-NoAC",
            (QueueDiscipline::EarliestDeadline, false, true) => "EDF-NoAC-BF",
            (QueueDiscipline::Fifo, true, _) => "FCFS-AC",
            (QueueDiscipline::Fifo, false, _) => "FCFS",
        }
    }

    /// Picks which queued job (by position in `queue`) should be
    /// considered next. EDF ties break by submission sequence number, the
    /// order [`QueuePolicy::backfill_order`] and QoPS's schedulability
    /// test use too.
    pub fn select_queued(&self, queue: &[QueuedJob]) -> Option<usize> {
        match self.discipline {
            QueueDiscipline::Fifo => (!queue.is_empty()).then_some(0),
            QueueDiscipline::EarliestDeadline => queue
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| edf_key(q))
                .map(|(pos, _)| pos),
        }
    }

    /// Backfill candidate order: every queue position sorted by
    /// `(absolute deadline, submission order)`. Position 0 of this order
    /// is the blocked head — callers skip it and try the rest against the
    /// idle processors.
    pub fn backfill_order(&self, queue: &[QueuedJob]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..queue.len()).collect();
        order.sort_by_key(|&pos| edf_key(&queue[pos]));
        order
    }

    /// The relaxed admission test at selection time: `false` means the
    /// selected job must be rejected (deadline expired, or infeasible by
    /// its runtime estimate).
    pub fn admit_at_start(&self, job: &Job, now: SimTime) -> bool {
        if !self.admission {
            return true;
        }
        now + job.estimate <= job.absolute_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;
    use workload::{JobId, Urgency};

    fn job(id: u64, submit: f64, estimate: f64, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(estimate),
            estimate: SimDuration::from_secs(estimate),
            procs: 1,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn names() {
        assert_eq!(
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true).name(),
            "EDF"
        );
        assert_eq!(
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, false).name(),
            "EDF-NoAC"
        );
        assert_eq!(
            QueuePolicy::new(QueueDiscipline::Fifo, false).name(),
            "FCFS"
        );
    }

    fn owned(jobs: &[Job]) -> Vec<QueuedJob> {
        jobs.iter()
            .enumerate()
            .map(|(i, j)| QueuedJob {
                seq: i as u64,
                job: j.clone(),
            })
            .collect()
    }

    #[test]
    fn edf_selects_earliest_absolute_deadline() {
        let queue = owned(&[
            job(0, 0.0, 10.0, 500.0), // abs deadline 500
            job(1, 5.0, 10.0, 100.0), // abs deadline 105
            job(2, 9.0, 10.0, 200.0), // abs deadline 209
        ]);
        let p = QueuePolicy::new(QueueDiscipline::EarliestDeadline, true);
        assert_eq!(p.select_queued(&queue), Some(1));
    }

    #[test]
    fn edf_tie_breaks_by_submit_order() {
        let queue = owned(&[job(0, 0.0, 10.0, 100.0), job(1, 0.0, 10.0, 100.0)]);
        let p = QueuePolicy::new(QueueDiscipline::EarliestDeadline, true);
        assert_eq!(p.select_queued(&queue), Some(0));
    }

    #[test]
    fn fifo_selects_front() {
        let queue = owned(&[job(0, 0.0, 10.0, 500.0), job(1, 1.0, 10.0, 5.0)]);
        let p = QueuePolicy::new(QueueDiscipline::Fifo, false);
        assert_eq!(p.select_queued(&queue), Some(0));
        assert_eq!(p.select_queued(&[]), None);
    }

    #[test]
    fn backfill_order_sorts_by_deadline_then_seq() {
        let p = QueuePolicy::new(QueueDiscipline::EarliestDeadline, true).with_backfill(true);
        let owned = vec![
            QueuedJob {
                seq: 0,
                job: job(0, 0.0, 10.0, 500.0),
            },
            QueuedJob {
                seq: 1,
                job: job(1, 0.0, 10.0, 100.0),
            },
            QueuedJob {
                seq: 2,
                job: job(2, 0.0, 10.0, 100.0),
            },
        ];
        assert_eq!(p.backfill_order(&owned), vec![1, 2, 0]);
    }

    #[test]
    fn relaxed_admission_rejects_infeasible_at_start() {
        let p = QueuePolicy::new(QueueDiscipline::EarliestDeadline, true);
        let j = job(0, 0.0, 100.0, 150.0); // abs deadline 150
        assert!(p.admit_at_start(&j, SimTime::from_secs(50.0))); // 50+100 = 150 ≤ 150
        assert!(!p.admit_at_start(&j, SimTime::from_secs(51.0))); // 151 > 150
                                                                  // Expired deadline is implied by the same test.
        assert!(!p.admit_at_start(&j, SimTime::from_secs(200.0)));
    }

    #[test]
    fn no_admission_never_rejects() {
        let p = QueuePolicy::new(QueueDiscipline::EarliestDeadline, false);
        let j = job(0, 0.0, 100.0, 150.0);
        assert!(p.admit_at_start(&j, SimTime::from_secs(10_000.0)));
    }
}
