//! Per-job outcomes and the aggregate report every experiment consumes.

use cluster::NodeId;
use obs::{keys, Registry};
use sim::SimTime;
use workload::{Job, Urgency};

pub use obs::RejectReason;

/// What happened to one submitted job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// The admission control turned the job away.
    Rejected {
        /// When the rejection happened (submission for Libra/LibraRisk;
        /// selection time for EDF's relaxed control).
        at: SimTime,
        /// The stable machine-readable cause.
        reason: RejectReason,
    },
    /// The job ran to completion (possibly past its deadline).
    Completed {
        /// When execution began.
        started: SimTime,
        /// When the actual work finished.
        finish: SimTime,
    },
    /// The job was accepted but died with a failed node (the `Kill`
    /// recovery policy, or no capacity story at all): the SLA is lost.
    Killed {
        /// The fault instant.
        at: SimTime,
        /// The node whose failure took the job down.
        node: NodeId,
    },
}

impl Outcome {
    /// The instant the outcome became final: the rejection instant, the
    /// completion finish, or the fault instant of a kill. Every event
    /// stream a single RMS emits is nondecreasing in this timestamp, so
    /// it is the merge key for combining shard streams in time order.
    pub fn resolved_at(&self) -> SimTime {
        match *self {
            Outcome::Rejected { at, .. } => at,
            Outcome::Completed { finish, .. } => finish,
            Outcome::Killed { at, .. } => at,
        }
    }
}

/// A job together with its outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// The submitted job.
    pub job: Job,
    /// What happened to it.
    pub outcome: Outcome,
}

impl JobRecord {
    /// `true` when the job completed within its hard deadline (the SLA).
    pub fn fulfilled(&self) -> bool {
        match self.outcome {
            Outcome::Rejected { .. } | Outcome::Killed { .. } => false,
            Outcome::Completed { finish, .. } => finish <= self.job.absolute_deadline(),
        }
    }

    /// Eq. 3: `max(0, (finish − submit) − deadline)`; `None` unless
    /// completed.
    pub fn delay(&self) -> Option<f64> {
        match self.outcome {
            Outcome::Rejected { .. } | Outcome::Killed { .. } => None,
            Outcome::Completed { finish, .. } => Some(
                ((finish - self.job.submit) - self.job.deadline)
                    .as_secs()
                    .max(0.0),
            ),
        }
    }

    /// Response time (`finish − submit`, includes waiting); `None` unless
    /// completed.
    pub fn response_time(&self) -> Option<f64> {
        match self.outcome {
            Outcome::Rejected { .. } | Outcome::Killed { .. } => None,
            Outcome::Completed { finish, .. } => Some((finish - self.job.submit).as_secs()),
        }
    }

    /// Slowdown: response time over minimum runtime required; `None`
    /// unless completed.
    pub fn slowdown(&self) -> Option<f64> {
        self.response_time().map(|r| r / self.job.runtime.as_secs())
    }
}

/// Node-churn degradation aggregates: how much damage the fault plan did
/// and how the recovery policy coped. Shards [`merge`](ChurnStats::merge)
/// exactly like the tallies they contain.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChurnStats {
    /// `NodeDown` events applied to the engine.
    pub node_failures: u64,
    /// `NodeUp` events applied to the engine.
    pub node_restores: u64,
    /// Resident jobs killed by a node failure (`RecoveryPolicy::Kill`).
    pub kills: u64,
    /// Resident jobs displaced and re-admitted (`RecoveryPolicy::Requeue`).
    pub requeues: u64,
    /// Requeued jobs the admission control then rejected *late* — the
    /// accepted-then-broken SLAs a risk-aware control should minimise.
    pub requeue_rejects: u64,
    /// Deadline-fulfilment of jobs that went through at least one
    /// requeue: the fulfilled-ratio-under-churn.
    pub requeued_fulfilled: metrics::Tally,
}

impl ChurnStats {
    /// Folds another shard's churn aggregates into this one.
    pub fn merge(&mut self, other: &ChurnStats) {
        self.node_failures += other.node_failures;
        self.node_restores += other.node_restores;
        self.kills += other.kills;
        self.requeues += other.requeues;
        self.requeue_rejects += other.requeue_rejects;
        self.requeued_fulfilled.merge(&other.requeued_fulfilled);
    }

    /// `true` when no churn touched the run (fault-free or empty plan).
    pub fn is_empty(&self) -> bool {
        self.node_failures == 0 && self.node_restores == 0
    }

    /// Feeds the churn aggregates into a metrics registry (counters
    /// overwrite-by-delta is pointless for a snapshot, so callers dump
    /// once per run).
    pub fn export_metrics(&self, registry: &mut Registry) {
        registry.add("rms_churn_node_failures_total", self.node_failures);
        registry.add("rms_churn_node_restores_total", self.node_restores);
        registry.add("rms_churn_kills_total", self.kills);
        registry.add("rms_churn_requeues_total", self.requeues);
        registry.add("rms_churn_requeue_rejects_total", self.requeue_rejects);
        registry.set_gauge(
            "rms_churn_requeued_fulfilled_pct",
            self.requeued_fulfilled.pct(),
        );
    }
}

/// Aggregate result of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationReport {
    /// Name of the admission-control policy that produced the run.
    pub policy: String,
    /// One record per submitted job, in submission order.
    pub records: Vec<JobRecord>,
    /// Mean processor utilisation over the run.
    pub utilization: f64,
    /// Node-churn degradation aggregates (all-zero on fault-free runs).
    pub churn: ChurnStats,
}

impl SimulationReport {
    /// Number of submitted jobs.
    pub fn submitted(&self) -> usize {
        self.records.len()
    }

    /// Number of accepted jobs: everything the admission control let in,
    /// whether it later completed or died with a failed node.
    pub fn accepted(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    Outcome::Completed { .. } | Outcome::Killed { .. }
                )
            })
            .count()
    }

    /// Number of accepted jobs killed by node failures.
    pub fn killed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Killed { .. }))
            .count()
    }

    /// Number of rejected jobs.
    pub fn rejected(&self) -> usize {
        self.submitted() - self.accepted()
    }

    /// Rejection counts broken down by [`RejectReason`], indexed like
    /// [`RejectReason::ALL`].
    pub fn rejections_by_reason(&self) -> [usize; RejectReason::ALL.len()] {
        let mut counts = [0usize; RejectReason::ALL.len()];
        for r in &self.records {
            if let Outcome::Rejected { reason, .. } = r.outcome {
                counts[reason.index()] += 1;
            }
        }
        counts
    }

    /// Number of rejections with the given cause.
    pub fn rejected_for(&self, reason: RejectReason) -> usize {
        self.rejections_by_reason()[reason.index()]
    }

    /// Number of jobs completed within their deadline.
    pub fn fulfilled(&self) -> usize {
        self.records.iter().filter(|r| r.fulfilled()).count()
    }

    /// The paper's headline metric: jobs with deadlines fulfilled as a
    /// percentage of **all submitted** jobs.
    pub fn fulfilled_pct(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        100.0 * self.fulfilled() as f64 / self.submitted() as f64
    }

    /// The paper's second metric: mean slowdown over **fulfilled** jobs
    /// only (0 when none fulfilled).
    pub fn avg_slowdown(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in &self.records {
            if r.fulfilled() {
                sum += r.slowdown().expect("fulfilled implies completed");
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean delay (Eq. 3) over completed jobs (0 when none completed).
    pub fn avg_delay(&self) -> f64 {
        let delays: Vec<f64> = self.records.iter().filter_map(|r| r.delay()).collect();
        if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        }
    }

    /// Number of completed jobs that missed their deadline.
    pub fn delayed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Completed { .. }) && !r.fulfilled())
            .count()
    }

    /// Fulfilled percentage restricted to one urgency class.
    pub fn fulfilled_pct_of(&self, urgency: Urgency) -> f64 {
        let class: Vec<&JobRecord> = self
            .records
            .iter()
            .filter(|r| r.job.urgency == urgency)
            .collect();
        if class.is_empty() {
            return 0.0;
        }
        100.0 * class.iter().filter(|r| r.fulfilled()).count() as f64 / class.len() as f64
    }

    /// Folds another shard's batch report into this one — the documented
    /// shard-merge path for the batch collector: run one
    /// [`ReportCollector`] per shard, build each shard's report, then
    /// fold them together.
    ///
    /// Records are concatenated (callers who need global submission
    /// order sort by their own key afterwards — per-shard `seq` values
    /// overlap), utilisation is averaged weighted by each side's record
    /// count (empty shards don't dilute the mean), and churn merges via
    /// [`ChurnStats::merge`]. Every derived statistic (counts,
    /// percentages, means) is then computed over the union of records,
    /// so merge order cannot change any of them. The policy name is
    /// kept from `self`; merging reports of different policies is a
    /// caller bug and panics in debug builds.
    pub fn merge(&mut self, other: &SimulationReport) {
        debug_assert_eq!(
            self.policy, other.policy,
            "merging reports of different policies"
        );
        let (w1, w2) = (self.records.len() as f64, other.records.len() as f64);
        if w1 + w2 > 0.0 {
            self.utilization = (self.utilization * w1 + other.utilization * w2) / (w1 + w2);
        }
        self.records.extend(other.records.iter().cloned());
        self.churn.merge(&other.churn);
    }
}

/// Streaming consumer of per-job outcomes.
///
/// The RMS facade emits one [`JobRecord`] per submitted job, in
/// *resolution* order (rejections at submission or selection time,
/// completions as they finish). `seq` is the job's submission sequence
/// number — submission order, 0-based — so sinks that need submission
/// order can restore it without the facade buffering anything.
pub trait ReportSink {
    /// One job's outcome became final. Called exactly once per submitted
    /// job.
    fn record(&mut self, seq: u64, record: JobRecord);
}

/// The batch sink: collects every record and reassembles the classic
/// [`SimulationReport`] (records in submission order) — exactly what the
/// retired per-loop report assembly produced.
#[derive(Clone, Debug, Default)]
pub struct ReportCollector {
    records: Vec<Option<JobRecord>>,
}

impl ReportCollector {
    /// An empty collector.
    pub fn new() -> Self {
        ReportCollector::default()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the collector into a full report.
    ///
    /// # Panics
    /// Panics if any submitted job never resolved (a facade bug).
    pub fn into_report(self, policy: String, utilization: f64) -> SimulationReport {
        let records: Vec<JobRecord> = self
            .records
            .into_iter()
            .map(|r| r.expect("every submitted job resolves to exactly one outcome"))
            .collect();
        SimulationReport {
            policy,
            records,
            utilization,
            churn: ChurnStats::default(),
        }
    }
}

impl ReportSink for ReportCollector {
    fn record(&mut self, seq: u64, record: JobRecord) {
        let i = seq as usize;
        if i >= self.records.len() {
            self.records.resize(i + 1, None);
        }
        assert!(self.records[i].is_none(), "job {seq} resolved twice");
        self.records[i] = Some(record);
    }
}

/// The streaming sink: folds each record into O(1) online aggregates
/// (counts, [`metrics::Tally`] rates, Welford moments) so arbitrarily
/// long traces summarise without a per-job outcome buffer.
///
/// Accessors mirror [`SimulationReport`]'s; means are Welford means, so
/// they may differ from the batch report's naive sums in the last few
/// ulps — everything else (counts, percentages) is identical.
///
/// The fields are crate-visible so the checkpoint's REPORT codec reads
/// and rebuilds a summary directly.
#[derive(Clone, Debug, Default)]
pub struct OnlineReport {
    pub(crate) fulfilled: metrics::Tally,
    pub(crate) accepted: metrics::Tally,
    pub(crate) high_fulfilled: metrics::Tally,
    pub(crate) low_fulfilled: metrics::Tally,
    pub(crate) slowdown: metrics::OnlineStats,
    pub(crate) delay: metrics::OnlineStats,
    pub(crate) response: metrics::OnlineStats,
    pub(crate) killed: u64,
    pub(crate) reject_reasons: [u64; RejectReason::ALL.len()],
    pub(crate) churn: ChurnStats,
    pub(crate) utilization: f64,
}

impl OnlineReport {
    /// An empty summary.
    pub fn new() -> Self {
        OnlineReport::default()
    }

    /// Sets the run's mean utilisation (available from the engine only
    /// after the drain).
    pub fn set_utilization(&mut self, utilization: f64) {
        self.utilization = utilization;
    }

    /// Mean processor utilisation of the run.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Number of submitted jobs.
    pub fn submitted(&self) -> u64 {
        self.fulfilled.total()
    }

    /// Number of accepted jobs (completed or killed by a node failure).
    pub fn accepted(&self) -> u64 {
        self.accepted.hits()
    }

    /// Number of accepted jobs killed by node failures.
    pub fn killed(&self) -> u64 {
        self.killed
    }

    /// Number of rejected jobs.
    pub fn rejected(&self) -> u64 {
        self.accepted.total() - self.accepted.hits()
    }

    /// Number of jobs completed within their deadline.
    pub fn fulfilled(&self) -> u64 {
        self.fulfilled.hits()
    }

    /// Rejection counts broken down by [`RejectReason`], indexed like
    /// [`RejectReason::ALL`].
    pub fn rejections_by_reason(&self) -> [u64; RejectReason::ALL.len()] {
        self.reject_reasons
    }

    /// Number of rejections with the given cause.
    pub fn rejected_for(&self, reason: RejectReason) -> u64 {
        self.reject_reasons[reason.index()]
    }

    /// Number of completed jobs that missed their deadline.
    pub fn delayed(&self) -> u64 {
        self.accepted() - self.killed() - self.fulfilled()
    }

    /// The paper's headline metric: % of submitted jobs fulfilled.
    pub fn fulfilled_pct(&self) -> f64 {
        self.fulfilled.pct()
    }

    /// Mean slowdown over fulfilled jobs (0 when none fulfilled).
    pub fn avg_slowdown(&self) -> f64 {
        self.slowdown.mean()
    }

    /// Mean deadline delay (Eq. 3) over completed jobs.
    pub fn avg_delay(&self) -> f64 {
        self.delay.mean()
    }

    /// Mean response time over completed jobs.
    pub fn avg_response_time(&self) -> f64 {
        self.response.mean()
    }

    /// Fulfilled percentage restricted to one urgency class.
    pub fn fulfilled_pct_of(&self, urgency: Urgency) -> f64 {
        match urgency {
            Urgency::High => self.high_fulfilled.pct(),
            Urgency::Low => self.low_fulfilled.pct(),
        }
    }

    /// Node-churn degradation aggregates (set by the RMS after a run).
    pub fn churn(&self) -> &ChurnStats {
        &self.churn
    }

    /// Installs the run's churn aggregates (available from the RMS only
    /// after the drain, like utilisation).
    pub fn set_churn(&mut self, churn: ChurnStats) {
        self.churn = churn;
    }

    /// Folds another shard's summary into this one, so a sharded sweep
    /// can summarise per-worker and combine afterwards. Utilisation is
    /// averaged weighted by submitted jobs; everything else merges via
    /// the underlying tallies and Welford moments.
    pub fn merge(&mut self, other: &OnlineReport) {
        let (w1, w2) = (self.submitted() as f64, other.submitted() as f64);
        if w1 + w2 > 0.0 {
            self.utilization = (self.utilization * w1 + other.utilization * w2) / (w1 + w2);
        }
        self.fulfilled.merge(&other.fulfilled);
        self.accepted.merge(&other.accepted);
        self.high_fulfilled.merge(&other.high_fulfilled);
        self.low_fulfilled.merge(&other.low_fulfilled);
        self.slowdown.merge(&other.slowdown);
        self.delay.merge(&other.delay);
        self.response.merge(&other.response);
        self.killed += other.killed;
        for (mine, theirs) in self.reject_reasons.iter_mut().zip(&other.reject_reasons) {
            *mine += theirs;
        }
        self.churn.merge(&other.churn);
    }

    /// Feeds the summary into a metrics registry — the bridge between
    /// the streaming report and the Prometheus-style dump.
    pub fn export_metrics(&self, registry: &mut Registry) {
        registry.add(keys::DECISIONS, self.submitted());
        registry.add(keys::ACCEPTED, self.accepted());
        registry.add(keys::REJECTED, self.rejected());
        registry.add(keys::RESOLVED, self.submitted());
        registry.add(keys::FULFILLED, self.fulfilled());
        registry.add(keys::OVERDUE, self.delayed());
        registry.add(keys::KILLED, self.killed());
        for reason in RejectReason::ALL {
            let n = self.rejected_for(reason);
            if n > 0 {
                registry.add(reason.counter_key(), n);
            }
        }
        registry.set_gauge(keys::UTILIZATION, self.utilization());
        if !self.churn.is_empty() {
            self.churn.export_metrics(registry);
        }
    }
}

impl ReportSink for OnlineReport {
    fn record(&mut self, _seq: u64, record: JobRecord) {
        let fulfilled = record.fulfilled();
        self.fulfilled.observe(fulfilled);
        self.accepted.observe(matches!(
            record.outcome,
            Outcome::Completed { .. } | Outcome::Killed { .. }
        ));
        if matches!(record.outcome, Outcome::Killed { .. }) {
            self.killed += 1;
        }
        if let Outcome::Rejected { reason, .. } = record.outcome {
            self.reject_reasons[reason.index()] += 1;
        }
        match record.job.urgency {
            Urgency::High => self.high_fulfilled.observe(fulfilled),
            Urgency::Low => self.low_fulfilled.observe(fulfilled),
        }
        if fulfilled {
            self.slowdown
                .push(record.slowdown().expect("fulfilled implies completed"));
        }
        if let Some(d) = record.delay() {
            self.delay.push(d);
        }
        if let Some(r) = record.response_time() {
            self.response.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;
    use workload::JobId;

    fn job(id: u64, submit: f64, runtime: f64, deadline: f64, urgency: Urgency) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(runtime),
            procs: 1,
            deadline: SimDuration::from_secs(deadline),
            urgency,
        }
    }

    fn completed(j: Job, finish: f64) -> JobRecord {
        JobRecord {
            outcome: Outcome::Completed {
                started: j.submit,
                finish: SimTime::from_secs(finish),
            },
            job: j,
        }
    }

    fn rejected(j: Job) -> JobRecord {
        JobRecord {
            outcome: Outcome::Rejected {
                at: j.submit,
                reason: RejectReason::NoFit,
            },
            job: j,
        }
    }

    fn killed(j: Job, at: f64) -> JobRecord {
        JobRecord {
            outcome: Outcome::Killed {
                at: SimTime::from_secs(at),
                node: NodeId(3),
            },
            job: j,
        }
    }

    #[test]
    fn fulfilment_respects_hard_deadline() {
        // Deadline at 100+200=300.
        let on_time = completed(job(1, 100.0, 50.0, 200.0, Urgency::Low), 300.0);
        assert!(on_time.fulfilled());
        assert_eq!(on_time.delay(), Some(0.0));
        let late = completed(job(2, 100.0, 50.0, 200.0, Urgency::Low), 300.1);
        assert!(!late.fulfilled());
        assert!((late.delay().unwrap() - 0.1).abs() < 1e-9);
        assert!(!rejected(job(3, 0.0, 1.0, 2.0, Urgency::Low)).fulfilled());
    }

    #[test]
    fn slowdown_is_response_over_runtime() {
        let r = completed(job(1, 100.0, 50.0, 500.0, Urgency::Low), 250.0);
        assert_eq!(r.response_time(), Some(150.0));
        assert_eq!(r.slowdown(), Some(3.0));
        assert_eq!(
            rejected(job(2, 0.0, 1.0, 2.0, Urgency::Low)).slowdown(),
            None
        );
    }

    #[test]
    fn report_aggregates() {
        let report = SimulationReport {
            policy: "test".into(),
            records: vec![
                completed(job(1, 0.0, 100.0, 200.0, Urgency::High), 150.0), // fulfilled
                completed(job(2, 0.0, 100.0, 200.0, Urgency::Low), 260.0),  // late by 60
                rejected(job(3, 0.0, 100.0, 200.0, Urgency::Low)),
            ],
            utilization: 0.5,
            churn: ChurnStats::default(),
        };
        assert_eq!(report.submitted(), 3);
        assert_eq!(report.accepted(), 2);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.fulfilled(), 1);
        assert_eq!(report.delayed(), 1);
        assert!((report.fulfilled_pct() - 100.0 / 3.0).abs() < 1e-9);
        // Slowdown only over the fulfilled job: 150/100.
        assert!((report.avg_slowdown() - 1.5).abs() < 1e-9);
        // Delay averaged over the two completed jobs: (0 + 60)/2.
        assert!((report.avg_delay() - 30.0).abs() < 1e-9);
        assert_eq!(report.fulfilled_pct_of(Urgency::High), 100.0);
        assert_eq!(report.fulfilled_pct_of(Urgency::Low), 0.0);
    }

    #[test]
    fn collector_restores_submission_order() {
        let mut sink = ReportCollector::new();
        assert!(sink.is_empty());
        // Records arrive in resolution order; seq restores submission order.
        sink.record(
            1,
            completed(job(11, 0.0, 100.0, 200.0, Urgency::Low), 150.0),
        );
        sink.record(0, rejected(job(10, 0.0, 100.0, 200.0, Urgency::Low)));
        assert_eq!(sink.len(), 2);
        let report = sink.into_report("p".into(), 0.25);
        assert_eq!(report.records[0].job.id, JobId(10));
        assert_eq!(report.records[1].job.id, JobId(11));
        assert_eq!(report.utilization, 0.25);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn collector_rejects_double_resolution() {
        let mut sink = ReportCollector::new();
        sink.record(0, rejected(job(1, 0.0, 1.0, 2.0, Urgency::Low)));
        sink.record(0, rejected(job(1, 0.0, 1.0, 2.0, Urgency::Low)));
    }

    #[test]
    fn online_report_matches_batch_aggregates() {
        let records = vec![
            completed(job(1, 0.0, 100.0, 200.0, Urgency::High), 150.0),
            completed(job(2, 0.0, 100.0, 200.0, Urgency::Low), 260.0),
            rejected(job(3, 0.0, 100.0, 200.0, Urgency::Low)),
        ];
        let batch = SimulationReport {
            policy: "test".into(),
            records: records.clone(),
            utilization: 0.5,
            churn: ChurnStats::default(),
        };
        let mut online = OnlineReport::new();
        for (i, r) in records.into_iter().enumerate() {
            online.record(i as u64, r);
        }
        online.set_utilization(0.5);
        assert_eq!(online.submitted(), batch.submitted() as u64);
        assert_eq!(online.accepted(), batch.accepted() as u64);
        assert_eq!(online.rejected(), batch.rejected() as u64);
        assert_eq!(online.fulfilled(), batch.fulfilled() as u64);
        assert_eq!(online.delayed(), batch.delayed() as u64);
        assert!((online.fulfilled_pct() - batch.fulfilled_pct()).abs() < 1e-12);
        assert!((online.avg_slowdown() - batch.avg_slowdown()).abs() < 1e-12);
        assert!((online.avg_delay() - batch.avg_delay()).abs() < 1e-12);
        assert_eq!(online.fulfilled_pct_of(Urgency::High), 100.0);
        assert_eq!(online.fulfilled_pct_of(Urgency::Low), 0.0);
        assert_eq!(online.utilization(), 0.5);
    }

    #[test]
    fn killed_jobs_are_accepted_but_never_fulfilled() {
        let k = killed(job(1, 0.0, 100.0, 1000.0, Urgency::High), 40.0);
        assert!(!k.fulfilled());
        assert_eq!(k.delay(), None);
        assert_eq!(k.response_time(), None);
        assert_eq!(k.slowdown(), None);

        let report = SimulationReport {
            policy: "churn".into(),
            records: vec![
                completed(job(1, 0.0, 100.0, 200.0, Urgency::High), 150.0),
                killed(job(2, 0.0, 100.0, 1000.0, Urgency::Low), 40.0),
                rejected(job(3, 0.0, 100.0, 200.0, Urgency::Low)),
            ],
            utilization: 0.5,
            churn: ChurnStats::default(),
        };
        // The killed job counts as accepted (its SLA was taken on) but
        // neither fulfilled nor delayed (it never completed).
        assert_eq!(report.accepted(), 2);
        assert_eq!(report.killed(), 1);
        assert_eq!(report.rejected(), 1);
        assert_eq!(report.fulfilled(), 1);
        assert_eq!(report.delayed(), 0);

        let mut online = OnlineReport::new();
        for (i, r) in report.records.iter().cloned().enumerate() {
            online.record(i as u64, r);
        }
        assert_eq!(online.accepted(), 2);
        assert_eq!(online.killed(), 1);
        assert_eq!(online.rejected(), 1);
        assert_eq!(online.delayed(), 0);
    }

    #[test]
    fn churn_stats_merge_adds_shards() {
        let mut a = ChurnStats {
            node_failures: 2,
            node_restores: 1,
            kills: 3,
            requeues: 4,
            requeue_rejects: 1,
            requeued_fulfilled: metrics::Tally::default(),
        };
        a.requeued_fulfilled.observe(true);
        let mut b = ChurnStats {
            node_failures: 1,
            ..ChurnStats::default()
        };
        b.requeued_fulfilled.observe(false);
        a.merge(&b);
        assert_eq!(a.node_failures, 3);
        assert_eq!(a.node_restores, 1);
        assert_eq!(a.kills, 3);
        assert_eq!(a.requeues, 4);
        assert_eq!(a.requeue_rejects, 1);
        assert_eq!(a.requeued_fulfilled.total(), 2);
        assert_eq!(a.requeued_fulfilled.hits(), 1);
        assert!(!a.is_empty());
        assert!(ChurnStats::default().is_empty());
    }

    #[test]
    fn online_report_merge_matches_single_pass() {
        let records = [
            completed(job(1, 0.0, 100.0, 200.0, Urgency::High), 150.0),
            completed(job(2, 0.0, 100.0, 200.0, Urgency::Low), 260.0),
            rejected(job(3, 0.0, 100.0, 200.0, Urgency::Low)),
            killed(job(4, 0.0, 100.0, 400.0, Urgency::High), 50.0),
        ];
        let mut whole = OnlineReport::new();
        for (i, r) in records.iter().cloned().enumerate() {
            whole.record(i as u64, r);
        }
        whole.set_utilization(0.5);

        // Split the same records across two shards and merge.
        let (mut left, mut right) = (OnlineReport::new(), OnlineReport::new());
        for (i, r) in records.iter().cloned().enumerate() {
            if i < 2 {
                left.record(i as u64, r);
            } else {
                right.record(i as u64, r);
            }
        }
        left.set_utilization(0.6);
        right.set_utilization(0.4);
        right.set_churn(ChurnStats {
            node_failures: 1,
            kills: 1,
            ..ChurnStats::default()
        });
        left.merge(&right);

        assert_eq!(left.submitted(), whole.submitted());
        assert_eq!(left.accepted(), whole.accepted());
        assert_eq!(left.killed(), whole.killed());
        assert_eq!(left.rejected(), whole.rejected());
        assert_eq!(left.fulfilled(), whole.fulfilled());
        assert_eq!(left.delayed(), whole.delayed());
        assert!((left.fulfilled_pct() - whole.fulfilled_pct()).abs() < 1e-12);
        assert!((left.avg_slowdown() - whole.avg_slowdown()).abs() < 1e-12);
        assert!((left.avg_delay() - whole.avg_delay()).abs() < 1e-12);
        // Weighted utilisation: (0.6·2 + 0.4·2) / 4.
        assert!((left.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(left.churn().node_failures, 1);
        assert_eq!(left.churn().kills, 1);
    }

    #[test]
    fn rejection_reasons_are_tallied_everywhere() {
        let mut over_risk = rejected(job(4, 0.0, 100.0, 200.0, Urgency::Low));
        over_risk.outcome = Outcome::Rejected {
            at: SimTime::ZERO,
            reason: RejectReason::OverRisk,
        };
        let records = vec![
            completed(job(1, 0.0, 100.0, 200.0, Urgency::High), 150.0),
            rejected(job(2, 0.0, 100.0, 200.0, Urgency::Low)),
            rejected(job(3, 0.0, 100.0, 200.0, Urgency::Low)),
            over_risk,
        ];
        let batch = SimulationReport {
            policy: "test".into(),
            records: records.clone(),
            utilization: 0.5,
            churn: ChurnStats::default(),
        };
        assert_eq!(batch.rejected_for(RejectReason::NoFit), 2);
        assert_eq!(batch.rejected_for(RejectReason::OverRisk), 1);
        assert_eq!(batch.rejected_for(RejectReason::Width), 0);
        assert_eq!(batch.rejections_by_reason().iter().sum::<usize>(), 3);

        let mut online = OnlineReport::new();
        for (i, r) in records.into_iter().enumerate() {
            online.record(i as u64, r);
        }
        assert_eq!(online.rejected_for(RejectReason::NoFit), 2);
        assert_eq!(online.rejected_for(RejectReason::OverRisk), 1);
        assert_eq!(online.rejections_by_reason().iter().sum::<u64>(), 3);

        // Merge adds the breakdowns.
        let mut other = OnlineReport::new();
        other.record(0, rejected(job(9, 0.0, 1.0, 2.0, Urgency::Low)));
        online.merge(&other);
        assert_eq!(online.rejected_for(RejectReason::NoFit), 3);

        // And the registry export carries them.
        let mut registry = Registry::new();
        online.export_metrics(&mut registry);
        assert_eq!(registry.counter(keys::REJECTED), 4);
        assert_eq!(
            registry.counter(RejectReason::NoFit.counter_key()),
            3,
            "{}",
            registry.to_prometheus()
        );
        assert_eq!(registry.counter(RejectReason::Width.counter_key()), 0);
    }

    #[test]
    fn churn_stats_export_metrics() {
        let mut churn = ChurnStats {
            node_failures: 2,
            node_restores: 1,
            kills: 1,
            requeues: 3,
            requeue_rejects: 1,
            requeued_fulfilled: metrics::Tally::default(),
        };
        churn.requeued_fulfilled.observe(true);
        churn.requeued_fulfilled.observe(false);
        let mut registry = Registry::new();
        churn.export_metrics(&mut registry);
        assert_eq!(registry.counter("rms_churn_node_failures_total"), 2);
        assert_eq!(registry.counter("rms_churn_requeues_total"), 3);
        assert_eq!(
            registry.gauge("rms_churn_requeued_fulfilled_pct"),
            Some(50.0)
        );
    }

    #[test]
    fn empty_report_is_benign() {
        let report = SimulationReport {
            policy: "empty".into(),
            records: vec![],
            utilization: 0.0,
            churn: ChurnStats::default(),
        };
        assert_eq!(report.fulfilled_pct(), 0.0);
        assert_eq!(report.avg_slowdown(), 0.0);
        assert_eq!(report.avg_delay(), 0.0);
        assert_eq!(report.fulfilled_pct_of(Urgency::High), 0.0);
    }
}
