//! The online cluster RMS facade.
//!
//! The paper's model is inherently *online*: "the cluster RMS is the only
//! single interface for users to submit jobs in the cluster" (§3), with an
//! irrevocable accept/reject verdict at each arrival. [`ClusterRms`] is
//! that interface as an API — any front-end (a trace replayer, a server,
//! a fuzzer) drives it one job at a time:
//!
//! * [`ClusterRms::submit`] — present one arrival at its submission
//!   instant and get the irrevocable [`Decision`];
//! * [`ClusterRms::advance`] — move virtual time forward, streaming each
//!   job outcome ([`JobEvent`]) as it resolves;
//! * [`ClusterRms::drain`] — run the residual workload to completion.
//!
//! One [`ExecutionBackend`] wraps the two execution substrates that
//! previously each owned a bespoke batch event loop: the proportional-
//! share engine (Libra/LibraRisk, §3) and the space-shared queueing
//! engine (EDF/FCFS, §4). The QoPS soft-deadline controller (related
//! work, §2) is EDF dispatch on the same pool plus a schedulability test
//! at arrival. [`drive_trace`] is the single generic batch driver: it
//! replays a trace's arrivals in submit order through the facade.
//!
//! # Equivalence contract
//!
//! `advance(to)` brings the RMS to exactly the state an arrival at `to`
//! would observe, so interleaving extra `advance` calls at arbitrary
//! intermediate instants never changes any outcome (property-tested in
//! `tests/differential_rms.rs`). Concretely: the proportional engine is
//! only ever advanced at its own event instants plus submission instants
//! (the same set of rate-recomputation points the batch loop's wake
//! events produced), and space-shared completions at exactly `to` stay
//! pending until after the arrivals at `to`, reproducing the FIFO
//! arrival-before-completion dispatch order of the batch loops.
//!
//! # Irrevocability invariant
//!
//! A [`Decision::Accepted`] or [`Decision::Rejected`] verdict never
//! changes afterwards (the paper's SLA model: terms cannot change after
//! submission, and rejected jobs do not return). [`Decision::Queued`]
//! defers the verdict to the substrate's selection rule; the eventual
//! outcome arrives exactly once through a [`JobEvent`].
//!
//! Node churn ([`ClusterRms::with_faults`]) bends the invariant in one
//! deliberate place: a job displaced by a node failure under
//! [`RecoveryPolicy::Requeue`] is re-admitted against its *remaining*
//! deadline, so a previously accepted job can resolve as a **late
//! rejection** — exactly the accepted-then-broken SLA the paper's risk
//! story is about. Under [`RecoveryPolicy::Kill`] it resolves as
//! [`Outcome::Killed`] instead. Either way every submitted job still
//! resolves exactly once. A fault at instant `t` applies *before* any
//! arrival at `t`; an RMS with an empty plan behaves bitwise identically
//! to one without fault injection.

use crate::policy::ShareAdmission;
use crate::qops::{schedulable, Pending, QopsConfig};
use crate::queue::{QueueDiscipline, QueuePolicy, QueuedJob};
use crate::report::{
    ChurnStats, JobRecord, Outcome, ReportCollector, ReportSink, SimulationReport,
};
use cluster::proportional::{CompletedJob, ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, FaultKind, FaultPlan, NodeId, RecoveryPolicy, SpaceSharedCluster};
use obs::{keys, DecisionAudit, Event, GaugeDelta, Recorder, RejectReason, ResolvedKind, Verdict};
use sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::iter;
use std::time::Instant;
use workload::{Job, JobId, Trace};

/// The verdict an arrival receives at submission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Irrevocably accepted: proportional share starts accepted jobs at
    /// their submission instant.
    Accepted,
    /// Irrevocably rejected at submission, with the stable
    /// machine-readable cause. The matching rejection [`JobEvent`] is
    /// emitted by the next
    /// [`ClusterRms::advance`]/[`ClusterRms::drain`] call.
    Rejected(RejectReason),
    /// Enqueued on a space-shared substrate: the final outcome (a
    /// completion, or a rejection at selection time) arrives later as a
    /// [`JobEvent`].
    Queued,
}

impl Decision {
    /// The observability-layer mirror of this verdict.
    pub fn verdict(self) -> Verdict {
        match self {
            Decision::Accepted => Verdict::Accepted,
            Decision::Rejected(reason) => Verdict::Rejected(reason),
            Decision::Queued => Verdict::Queued,
        }
    }
}

/// A borrowed recorder threaded through the hook sites; `None` (the
/// default) behaves like [`obs::NoopRecorder`] at the cost of one
/// branch per site. The `Send` bound keeps [`ClusterRms`] movable to a
/// router worker thread.
type Obs<'a> = Option<&'a mut (dyn Recorder + Send + 'a)>;

/// Reborrows the facade's recorder slot for one backend call.
/// (`Option::as_deref_mut` cannot shorten the trait object's lifetime
/// bound — the coercion below can.)
fn reborrow<'a, 'p>(slot: &'a mut Option<&'p mut (dyn Recorder + Send + 'p)>) -> Obs<'a> {
    match slot.as_mut() {
        Some(r) => Some(&mut **r),
        None => None,
    }
}

/// Emits the decision audit event and updates the verdict counters +
/// decide-latency histogram. `timed` is the decide call's start and end
/// instants, when it was timed: the event is stamped at the end, so the
/// recorder reads no clock of its own. Callers have already checked
/// [`Recorder::enabled`].
fn note_decision(
    rec: &mut (dyn Recorder + '_),
    now: SimTime,
    seq: u64,
    job_id: u64,
    decision: Decision,
    audit: DecisionAudit,
    timed: Option<(Instant, Instant)>,
) {
    let latency_ns = timed.map_or(0, |(start, end)| (end - start).as_nanos() as u64);
    let event = Event::Decision {
        seq,
        job: job_id,
        verdict: decision.verdict(),
        audit,
        latency_ns,
    };
    match timed {
        Some((_, end)) => rec.record_at(now.as_secs(), end, event),
        None => rec.record(now.as_secs(), event),
    }
    if let Some(reg) = rec.registry_mut() {
        reg.inc(keys::DECISIONS);
        match decision {
            Decision::Accepted => reg.inc(keys::ACCEPTED),
            Decision::Rejected(_) => reg.inc(keys::REJECTED),
            Decision::Queued => reg.inc(keys::QUEUED),
        }
        reg.observe(
            keys::DECIDE_LATENCY,
            keys::DECIDE_LATENCY_BOUNDS,
            latency_ns as f64,
        );
        if let Some(g) = audit.gauge {
            reg.set_gauge(g.key, g.after);
            if let Some((hist_key, bounds)) = keys::gauge_histogram(g.key) {
                reg.observe(hist_key, bounds, g.after);
            }
        }
    }
}

/// A resolved job outcome, streamed by
/// [`ClusterRms::advance`]/[`ClusterRms::drain`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobEvent {
    /// Submission sequence number (0-based submission order).
    pub seq: u64,
    /// The job together with its final outcome.
    pub record: JobRecord,
}

impl JobEvent {
    fn new(seq: u64, job: Job, outcome: Outcome) -> Self {
        JobEvent {
            seq,
            record: JobRecord { job, outcome },
        }
    }
}

/// The execution substrate behind the facade: one variant per engine the
/// paper evaluates.
// One instance lives per `ClusterRms` (never stored in collections), so
// the proportional engine's arena headers dominating the enum size is
// irrelevant; boxing it would only add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
pub enum ExecutionBackend<'p> {
    /// Deadline-based proportional share with decide-at-arrival admission
    /// (Libra, LibraRisk and ablations, §3).
    Proportional(ProportionalBackend<'p>),
    /// Space-shared queueing (EDF/FCFS, optional backfilling, §4), and
    /// QoPS-style soft-deadline schedulability control at arrival on the
    /// same pool (§2).
    Queued(QueuedBackend),
}

/// Classifies a job too wide to start: wider than the cluster
/// ([`RejectReason::Width`]) or only than the nodes up
/// ([`RejectReason::NodeDown`]); `None` when it fits the nodes up.
fn width_refusal(procs: u32, nodes: usize, up: usize) -> Option<RejectReason> {
    let procs = procs as usize;
    if procs > nodes {
        Some(RejectReason::Width)
    } else if procs > up {
        Some(RejectReason::NodeDown)
    } else {
        None
    }
}

/// Proportional-share backend: the engine plus the admission policy
/// consulted at each arrival.
pub struct ProportionalBackend<'p> {
    pub(crate) engine: ProportionalCluster,
    pub(crate) policy: Box<dyn ShareAdmission + Send + 'p>,
    /// Submission sequence of each resident job (removed at completion,
    /// so the map stays bounded by the resident count).
    pub(crate) seq_of: HashMap<JobId, u64>,
    /// Reused completion buffer for `advance_into`, so the per-event
    /// advance path stays allocation-free in steady state.
    pub(crate) completed_buf: Vec<CompletedJob>,
}

impl ProportionalBackend<'_> {
    /// Advances the engine through every internal event at or before
    /// `to` — exactly the rate-recomputation instants the batch loop's
    /// wake events produced — emitting completions as they fire.
    fn catch_up(&mut self, to: SimTime, events: &mut Vec<JobEvent>) {
        // The outermost advance bracket on this thread: phases marked
        // below (and inside the engine) tile this span, which anchors
        // the profiler's coverage ratio. Nested brackets are free.
        let _adv = obs::phase::advance_span();
        while let Some(t) = self.engine.next_event_time() {
            obs::phase::lap_mark(obs::phase::Phase::EventHeapPop);
            if t > to {
                break;
            }
            self.advance_engine(t, events);
        }
    }

    fn advance_engine(&mut self, to: SimTime, events: &mut Vec<JobEvent>) {
        let _adv = obs::phase::advance_span();
        let mut completed = std::mem::take(&mut self.completed_buf);
        self.engine.advance_into(to, &mut completed);
        for done in completed.drain(..) {
            // A completion without a sequence mapping means the job
            // already resolved through another path (e.g. displaced by a
            // fault): the outcome is final, so drop the stale completion
            // rather than double-resolve or crash the whole run.
            let Some(seq) = self.seq_of.remove(&done.job.id) else {
                debug_assert!(false, "completed {} was never mapped", done.job.id);
                continue;
            };
            events.push(JobEvent::new(
                seq,
                done.job,
                Outcome::Completed {
                    started: done.started,
                    finish: done.finish,
                },
            ));
        }
        self.completed_buf = completed;
        obs::phase::lap_mark(obs::phase::Phase::CompletionEmit);
    }

    /// Applies a node failure at `at`: the engine is advanced to the
    /// fault instant (completions at or before it fire first), every
    /// displaced gang is killed or re-admitted per `recovery`, and the
    /// node stops being an admission target.
    fn fail(
        &mut self,
        at: SimTime,
        node: NodeId,
        recovery: RecoveryPolicy,
        churn: &mut ChurnStats,
        requeued: &mut HashMap<u64, Job>,
        events: &mut Vec<JobEvent>,
    ) {
        self.sync(at, events);
        for d in self.engine.fail_node(node, at) {
            let Some(seq) = self.seq_of.remove(&d.job.id) else {
                debug_assert!(false, "displaced {} was never mapped", d.job.id);
                continue;
            };
            match recovery {
                RecoveryPolicy::Kill => {
                    churn.kills += 1;
                    events.push(JobEvent::new(seq, d.job, Outcome::Killed { at, node }));
                }
                RecoveryPolicy::Requeue => {
                    churn.requeues += 1;
                    requeued.entry(seq).or_insert_with(|| d.job.clone());
                    // Re-submit against the *remaining* deadline: the SLA
                    // keeps its original absolute deadline, and progress
                    // made before the fault is preserved (the engine's
                    // proportional shares checkpoint implicitly).
                    let remaining_deadline = d.job.absolute_deadline() - at;
                    if !remaining_deadline.is_positive() || d.remaining_work <= 0.0 {
                        events.push(JobEvent::new(
                            seq,
                            d.job,
                            Outcome::Rejected {
                                at,
                                reason: RejectReason::Deadline,
                            },
                        ));
                        continue;
                    }
                    let retry = Job {
                        submit: at,
                        runtime: SimDuration::from_secs(d.remaining_work),
                        estimate: SimDuration::from_secs(d.remaining_est.max(1e-9)),
                        deadline: remaining_deadline,
                        ..d.job.clone()
                    };
                    match self.policy.decide(&self.engine, &retry) {
                        Some(nodes) => {
                            self.seq_of.insert(retry.id, seq);
                            self.engine.admit(retry, nodes, at);
                        }
                        // The late reject: admission no longer finds room
                        // for the survivor under its shrunken deadline.
                        None => events.push(JobEvent::new(
                            seq,
                            d.job,
                            Outcome::Rejected {
                                at,
                                reason: self.reject_reason(&retry),
                            },
                        )),
                    }
                }
            }
        }
    }

    fn restore(&mut self, at: SimTime, node: NodeId, events: &mut Vec<JobEvent>) {
        self.sync(at, events);
        self.engine.restore_node(node, at);
    }

    /// Brings the engine to `now`, an arrival, fault or restore
    /// instant: every internal event up to it, then the instant's own
    /// advance the batch loop performed at every dispatched event
    /// (dt ≥ 0).
    fn sync(&mut self, now: SimTime, events: &mut Vec<JobEvent>) {
        self.catch_up(now, events);
        self.advance_engine(now, events);
    }

    /// Whether `id` is resident (admitted and not yet resolved).
    fn holds(&self, id: JobId) -> bool {
        self.seq_of.contains_key(&id)
    }

    /// Why the policy refused `job`: too wide for the cluster or for the
    /// nodes up, else the policy's own reason. An arrival and a requeue
    /// are classified alike.
    fn reject_reason(&self, job: &Job) -> RejectReason {
        width_refusal(
            job.procs,
            self.engine.cluster().len(),
            self.engine.up_nodes(),
        )
        .unwrap_or_else(|| self.policy.reject_reason())
    }

    /// Decides an arrival the engine has been [`Self::sync`]ed to.
    fn submit(
        &mut self,
        seq: u64,
        job: Job,
        now: SimTime,
        events: &mut Vec<JobEvent>,
        obs: Obs<'_>,
    ) -> Decision {
        // Audit state is gathered *around* `decide`, never inside it, so
        // a recorded run decides exactly as an unrecorded one.
        let recording = obs.as_ref().is_some_and(|r| r.enabled());
        // Policy audit gauges (share/risk sweeps) are the one hook with
        // a real price — recorders opt in per `wants_audit_gauges`.
        let want_gauges = recording && obs.as_ref().is_some_and(|r| r.wants_audit_gauges());
        let before = if want_gauges {
            self.policy.audit_gauge(&self.engine)
        } else {
            None
        };
        let started = recording.then(Instant::now);
        let decided = self.policy.decide(&self.engine, &job);
        let timed = started.map(|t| (t, Instant::now()));
        let job_id = job.id.0;
        let (decision, best_fit_node) = match decided {
            Some(nodes) => {
                let best = nodes.first().map(|n| n.0);
                self.seq_of.insert(job.id, seq);
                self.engine.admit(job, nodes, now);
                (Decision::Accepted, best)
            }
            None => {
                let reason = self.reject_reason(&job);
                events.push(JobEvent::new(
                    seq,
                    job,
                    Outcome::Rejected { at: now, reason },
                ));
                (Decision::Rejected(reason), None)
            }
        };
        if recording {
            let rec = obs.expect("recording implies a recorder");
            let after = match decision {
                // A rejection leaves the engine untouched, so the gauge
                // cannot have moved: reuse the first sample.
                Decision::Rejected(_) => before,
                _ if want_gauges => self.policy.audit_gauge(&self.engine),
                _ => None,
            };
            let gauge = match (before, after) {
                (Some((key, b)), Some((_, a))) => Some(GaugeDelta {
                    key,
                    before: b,
                    after: a,
                }),
                _ => None,
            };
            let audit = DecisionAudit {
                best_fit_node,
                gauge,
            };
            note_decision(rec, now, seq, job_id, decision, audit, timed);
            // Evaluation-volume counters: how much projection work the
            // decision ran vs avoided via replayed group verdicts and the
            // dominance and risk screens.
            if let Some(stats) = self.policy.last_decision_stats() {
                if let Some(reg) = rec.registry_mut() {
                    reg.add(keys::PROJECTIONS_RUN_TOTAL, stats.projections_run);
                    reg.add(keys::PROJECTIONS_AVOIDED_TOTAL, stats.projections_avoided());
                    reg.add(keys::DECISION_CLASSES_TOTAL, stats.distinct_classes);
                    reg.add(keys::SCREENED_ZERO_RISK_TOTAL, stats.screen_hits);
                    reg.add(keys::SCREENED_RISKY_TOTAL, stats.risk_screen_hits);
                }
            }
        }
        decision
    }

    fn drain(&mut self, events: &mut Vec<JobEvent>) {
        while let Some(t) = self.engine.next_event_time() {
            self.advance_engine(t, events);
        }
        debug_assert!(self.engine.is_empty(), "engine drained");
    }
}

/// Space-shared queueing backend: the processor pool, the waiting queue,
/// the selection policy and, under QoPS, the arrival-time test.
pub struct QueuedBackend {
    pub(crate) policy: QueuePolicy,
    /// QoPS's schedulability test at arrival. Only [`ClusterRms::qops`]
    /// sets it, beside EDF selection with neither a selection-time test
    /// nor backfilling, so the head of the queue blocks.
    pub(crate) qops: Option<QopsConfig>,
    pub(crate) pool: SpaceSharedCluster,
    pub(crate) queue: Vec<QueuedJob>,
    pub(crate) seq_of: HashMap<JobId, u64>,
}

impl QueuedBackend {
    /// Processes every pending completion strictly before `bound` (all of
    /// them when `bound` is `None`), re-running the dispatch loop at each
    /// completion instant. Completions at exactly `bound` stay pending:
    /// the batch loop dispatched arrivals before same-instant completions
    /// (FIFO by schedule order), and submissions at `bound` must observe
    /// the same state.
    fn catch_up(&mut self, bound: Option<SimTime>, events: &mut Vec<JobEvent>) {
        while let Some(t) = self.pool.next_completion_time() {
            if bound.is_some_and(|b| t >= b) {
                break;
            }
            let (job, started, finish) = self.pool.complete_next();
            // See `ProportionalBackend::advance_engine`: a missing
            // mapping means the job already resolved elsewhere — skip the
            // stale completion instead of crashing the run.
            let Some(seq) = self.seq_of.remove(&job.id) else {
                debug_assert!(false, "completed {} was never mapped", job.id);
                self.dispatch(finish, events);
                continue;
            };
            events.push(JobEvent::new(
                seq,
                job,
                Outcome::Completed { started, finish },
            ));
            self.dispatch(finish, events);
        }
    }

    /// Applies a node failure at `at`. The displaced job (if the node was
    /// hosting one) is killed or requeued per `recovery` — a space-shared
    /// substrate cannot checkpoint, so a requeued job restarts from
    /// scratch. Under QoPS it must pass the arrival test again, evaluated
    /// now and so against what is left of its deadline; EDF and FCFS
    /// queue it, and the selection rule's admission test re-evaluates it.
    /// Queued jobs wider than the surviving capacity can never start and
    /// are rejected on the spot.
    fn fail(
        &mut self,
        at: SimTime,
        node: NodeId,
        recovery: RecoveryPolicy,
        churn: &mut ChurnStats,
        requeued: &mut HashMap<u64, Job>,
        events: &mut Vec<JobEvent>,
    ) {
        self.catch_up(Some(at), events);
        if let Some((job, _started)) = self.pool.fail_node(node, at) {
            if let Some(seq) = self.seq_of.remove(&job.id) {
                match recovery {
                    RecoveryPolicy::Kill => {
                        churn.kills += 1;
                        events.push(JobEvent::new(seq, job, Outcome::Killed { at, node }));
                    }
                    RecoveryPolicy::Requeue => {
                        churn.requeues += 1;
                        requeued.entry(seq).or_insert_with(|| job.clone());
                        let refusal = if self.qops.is_some() {
                            self.refusal(&job, seq, at)
                        } else {
                            None
                        };
                        self.settle(seq, job, at, refusal, events);
                    }
                }
            } else {
                debug_assert!(false, "displaced {} was never mapped", job.id);
            }
        }
        self.reject_wider_than_capacity(at, events);
        self.dispatch(at, events);
    }

    fn restore(&mut self, at: SimTime, node: NodeId, events: &mut Vec<JobEvent>) {
        self.catch_up(Some(at), events);
        self.pool.restore_node(node, at);
        self.dispatch(at, events);
    }

    fn reject_wider_than_capacity(&mut self, at: SimTime, events: &mut Vec<JobEvent>) {
        let cap = self.pool.up_procs();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].job.procs as usize > cap {
                let entry = self.queue.remove(i);
                events.push(JobEvent::new(
                    entry.seq,
                    entry.job,
                    Outcome::Rejected {
                        at,
                        reason: RejectReason::NodeDown,
                    },
                ));
            } else {
                i += 1;
            }
        }
    }

    /// The dispatch loop of the batch scheduler, verbatim: selected jobs
    /// start while they fit; a selection that fails the relaxed admission
    /// test is rejected (letting the next candidate through); the blocked
    /// head stalls the queue unless backfilling is on.
    fn dispatch(&mut self, now: SimTime, events: &mut Vec<JobEvent>) {
        while let Some(pos) = self.policy.select_queued(&self.queue) {
            let entry = &self.queue[pos];
            if !self.policy.admit_at_start(&entry.job, now) {
                let entry = self.queue.remove(pos);
                events.push(JobEvent::new(
                    entry.seq,
                    entry.job,
                    Outcome::Rejected {
                        at: now,
                        reason: RejectReason::Deadline,
                    },
                ));
                continue;
            }
            if self.pool.can_start(&entry.job) {
                let entry = self.queue.remove(pos);
                self.seq_of.insert(entry.job.id, entry.seq);
                self.pool.start(entry.job, now);
            } else {
                break;
            }
        }
        // Aggressive backfilling: while the head is blocked, start any
        // later job (in selection order) that fits the idle processors
        // and passes the admission test. Candidates that fail either
        // check are merely skipped, not rejected — they were not
        // "selected" in the paper's sense.
        if self.policy.backfill {
            loop {
                let mut started_one = false;
                let order = self.policy.backfill_order(&self.queue);
                for &pos in order.iter().skip(1) {
                    let entry = &self.queue[pos];
                    if self.pool.can_start(&entry.job)
                        && self.policy.admit_at_start(&entry.job, now)
                    {
                        let entry = self.queue.remove(pos);
                        self.seq_of.insert(entry.job.id, entry.seq);
                        self.pool.start(entry.job, now);
                        started_one = true;
                        break;
                    }
                }
                if !started_one {
                    break;
                }
            }
        }
    }

    /// Whether `id` is running or waiting in the queue.
    fn holds(&self, id: JobId) -> bool {
        self.seq_of.contains_key(&id) || self.queue.iter().any(|q| q.job.id == id)
    }

    /// The verdict on `job` arriving at `now`: a job too wide for the
    /// nodes up can never start; under QoPS, one that fails the
    /// schedulability test is over the risk it may take. `None` queues it.
    fn refusal(&self, job: &Job, seq: u64, now: SimTime) -> Option<RejectReason> {
        width_refusal(job.procs, self.pool.cluster().len(), self.pool.up_procs()).or_else(|| {
            let cfg = self.qops?;
            (!self.is_schedulable(cfg, now, job, seq)).then_some(RejectReason::OverRisk)
        })
    }

    /// Queues the job, or resolves it as rejected at `at` for `refusal`.
    fn settle(
        &mut self,
        seq: u64,
        job: Job,
        at: SimTime,
        refusal: Option<RejectReason>,
        events: &mut Vec<JobEvent>,
    ) {
        match refusal {
            None => self.queue.push(QueuedJob { seq, job }),
            Some(reason) => events.push(JobEvent::new(seq, job, Outcome::Rejected { at, reason })),
        }
    }

    /// The QoPS arrival-time schedulability test: the running jobs'
    /// estimated finishes, every queued job and `extra` (as `extra_seq`)
    /// list-scheduled in EDF order against their soft deadlines.
    fn is_schedulable(&self, cfg: QopsConfig, now: SimTime, extra: &Job, extra_seq: u64) -> bool {
        let now_s = now.as_secs();
        let soft = |j: &Job| j.submit.as_secs() + cfg.slack_factor * j.deadline.as_secs();
        // One free time per processor up: a running job holds its
        // processors until its *estimated* finish, the rest are free now.
        let mut free_at: Vec<f64> = self
            .pool
            .running()
            .flat_map(|(job, started)| {
                let est_finish = started.as_secs() + job.estimate.as_secs();
                iter::repeat_n(est_finish.max(now_s), job.procs as usize)
            })
            .collect();
        free_at.resize(self.pool.up_procs(), now_s);
        let pending = self
            .queue
            .iter()
            .map(|q| (q.seq, &q.job))
            .chain([(extra_seq, extra)])
            .map(|(idx, j)| Pending {
                idx,
                procs: j.procs,
                remaining_est: j.estimate.as_secs(),
                abs_deadline: j.absolute_deadline().as_secs(),
                soft_deadline: soft(j),
            })
            .collect();
        schedulable(now_s, free_at, pending)
    }

    /// Decides an arrival once completions before `now` are caught up.
    fn submit(
        &mut self,
        seq: u64,
        job: Job,
        now: SimTime,
        events: &mut Vec<JobEvent>,
        obs: Obs<'_>,
    ) -> Decision {
        let recording = obs.as_ref().is_some_and(|r| r.enabled());
        let started = recording.then(Instant::now);
        let depth_before = self.queue.len();
        let job_id = job.id.0;
        let refusal = self.refusal(&job, seq, now);
        self.settle(seq, job, now, refusal, events);
        let decision = refusal.map_or(Decision::Queued, Decision::Rejected);
        if let Some(rec) = obs {
            if recording {
                let audit = DecisionAudit {
                    best_fit_node: None,
                    gauge: Some(GaugeDelta {
                        key: "queue_depth",
                        before: depth_before as f64,
                        after: self.queue.len() as f64,
                    }),
                };
                let timed = started.map(|t| (t, Instant::now()));
                note_decision(rec, now, seq, job_id, decision, audit, timed);
            }
        }
        self.dispatch(now, events);
        decision
    }

    fn drain(&mut self, events: &mut Vec<JobEvent>) {
        self.catch_up(None, events);
        assert!(self.queue.is_empty(), "queue drained at end of simulation");
    }
}

/// The online RMS facade: one submit/advance/drain state machine over any
/// [`ExecutionBackend`]. It owns the backend plus every piece of
/// bookkeeping the state machine needs — virtual clock, submission
/// sequencing, buffered outcome events, the fault-plan cursor, churn
/// aggregates, requeue originals and the optional recorder — so one
/// `ClusterRms` is exactly one shard of a
/// [`ShardedRms`](crate::router::ShardedRms).
///
/// No field references anything outside the struct (the recorder is an
/// exclusive borrow, the policy box is `Send`), so a shard moves
/// wholesale onto a worker thread — that is what lets the router fan N
/// of these out on `std::thread::scope` workers. The compile-time
/// assertion below keeps this true as fields evolve.
pub struct ClusterRms<'p> {
    pub(crate) backend: ExecutionBackend<'p>,
    pub(crate) policy_name: String,
    pub(crate) now: SimTime,
    pub(crate) next_seq: u64,
    pub(crate) events: Vec<JobEvent>,
    /// Scheduled node churn, consumed as time advances (empty by
    /// default — structurally inert).
    pub(crate) plan: FaultPlan,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) churn: ChurnStats,
    /// Originally submitted form of every job that went through at least
    /// one requeue, keyed by sequence: outcomes are reported (and the SLA
    /// judged) against the job as originally submitted, not the
    /// shrunken-deadline retry. Entries leave on resolution.
    pub(crate) requeued: HashMap<u64, Job>,
    /// Optional borrowed recorder observing this RMS. `None` (the
    /// default) short-circuits every hook to a single branch; any
    /// recorder leaves outcomes bitwise identical.
    pub(crate) recorder: Option<&'p mut (dyn Recorder + Send + 'p)>,
}

// A shard must be free-standing so the router can move it onto a scoped
// worker thread. If a future field smuggles in a non-`Send` handle (an
// `Rc`, a thread-bound cache, a non-`Send` trait object), this fails to
// compile right here instead of surfacing as a distant router error.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ClusterRms<'static>>();
};

impl<'p> ClusterRms<'p> {
    fn new(backend: ExecutionBackend<'p>, policy_name: String) -> Self {
        ClusterRms {
            backend,
            policy_name,
            now: SimTime::ZERO,
            next_seq: 0,
            events: Vec::new(),
            plan: FaultPlan::empty(),
            recovery: RecoveryPolicy::default(),
            churn: ChurnStats::default(),
            requeued: HashMap::new(),
            recorder: None,
        }
    }

    /// A proportional-share RMS (Libra, LibraRisk, ablations) over the
    /// given cluster and engine configuration.
    pub fn proportional(
        cluster: Cluster,
        cfg: ProportionalConfig,
        policy: impl ShareAdmission + Send + 'p,
    ) -> Self {
        let policy_name = policy.name();
        ClusterRms::new(
            ExecutionBackend::Proportional(ProportionalBackend {
                engine: ProportionalCluster::new(cluster, cfg),
                policy: Box::new(policy),
                seq_of: HashMap::new(),
                completed_buf: Vec::new(),
            }),
            policy_name,
        )
    }

    /// A space-shared queueing RMS (EDF, EDF-NoAC, FCFS, backfilling).
    pub fn queued(cluster: Cluster, policy: QueuePolicy) -> Self {
        let policy_name = policy.name().to_string();
        ClusterRms::space_shared(cluster, policy, None, policy_name)
    }

    /// A QoPS-style soft-deadline RMS: EDF dispatch on the space-shared
    /// pool, with the head blocking, and a schedulability test at
    /// arrival.
    ///
    /// # Panics
    /// Panics if `cfg.slack_factor < 1`.
    pub fn qops(cluster: Cluster, cfg: QopsConfig) -> Self {
        assert!(cfg.slack_factor >= 1.0, "slack factor must be ≥ 1");
        ClusterRms::space_shared(
            cluster,
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, false),
            Some(cfg),
            format!("QoPS(sf={})", cfg.slack_factor),
        )
    }

    fn space_shared(
        cluster: Cluster,
        policy: QueuePolicy,
        qops: Option<QopsConfig>,
        policy_name: String,
    ) -> Self {
        ClusterRms::new(
            ExecutionBackend::Queued(QueuedBackend {
                policy,
                qops,
                pool: SpaceSharedCluster::new(cluster),
                queue: Vec::new(),
                seq_of: HashMap::new(),
            }),
            policy_name,
        )
    }

    /// Overrides the policy name used in reports.
    pub fn with_policy_name(mut self, name: impl Into<String>) -> Self {
        self.policy_name = name.into();
        self
    }

    /// Installs a node-churn plan and the recovery policy for displaced
    /// jobs. Fault events apply as time advances, each *before* any job
    /// arrival at the same instant; an empty plan leaves the RMS bitwise
    /// identical to one built without this call.
    pub fn with_faults(mut self, plan: FaultPlan, recovery: RecoveryPolicy) -> Self {
        self.plan = plan;
        self.recovery = recovery;
        self
    }

    /// Attaches a recorder observing every submission, decision, fault
    /// and resolution. The recorder is borrowed, so the caller keeps
    /// ownership and can export the trace after the run. Recording is
    /// behaviourally inert: outcomes are bitwise identical with any
    /// recorder (or none), and a disabled recorder costs one branch per
    /// hook site. The recorder must be `Send` so the shard can follow
    /// its RMS onto a router worker thread.
    ///
    /// Returns the facade re-parameterised at the recorder's lifetime
    /// (`ClusterRms` is invariant over `'p` because of the `&mut`
    /// recorder slot, so a `ClusterRms<'static>` from
    /// [`PolicyKind::rms`](crate::policy::PolicyKind::rms) could
    /// otherwise never borrow a stack-local recorder).
    pub fn with_recorder<'r>(self, recorder: &'r mut (dyn Recorder + Send + 'r)) -> ClusterRms<'r>
    where
        'p: 'r,
    {
        ClusterRms {
            backend: self.backend,
            policy_name: self.policy_name,
            now: self.now,
            next_seq: self.next_seq,
            events: self.events,
            plan: self.plan,
            recovery: self.recovery,
            churn: self.churn,
            requeued: self.requeued,
            recorder: Some(recorder),
        }
    }

    /// Display name of the admission policy driving this RMS.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Churn degradation aggregates accumulated so far (all-zero on a
    /// fault-free run). Complete after [`ClusterRms::drain`].
    pub fn churn(&self) -> &ChurnStats {
        &self.churn
    }

    /// The recovery policy applied to jobs displaced by node failures.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The execution backend (for observability; mutation goes through
    /// [`ClusterRms::submit`]/[`ClusterRms::advance`]).
    pub fn backend(&self) -> &ExecutionBackend<'p> {
        &self.backend
    }

    /// Latest instant the facade has observed (last submit/advance).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Jobs currently resident, running, or waiting in a queue.
    pub fn in_flight(&self) -> usize {
        match &self.backend {
            ExecutionBackend::Proportional(b) => b.engine.len(),
            ExecutionBackend::Queued(b) => b.pool.running_jobs() + b.queue.len(),
        }
    }

    /// Mean processor utilisation up to the last processed instant
    /// (meaningful after [`ClusterRms::drain`]).
    pub fn utilization(&self) -> f64 {
        match &self.backend {
            ExecutionBackend::Proportional(b) => b.engine.utilization(),
            ExecutionBackend::Queued(b) => b.pool.utilization(),
        }
    }

    /// Consumes and applies every scheduled fault event at or before
    /// `to`, catching the backend up to each fault instant first so
    /// completions and faults interleave in time order. A no-op (no
    /// branches into any backend) when the plan is empty.
    fn apply_faults_through(&mut self, to: SimTime) {
        while let Some(e) = self.plan.next_at_or_before(to) {
            if let Some(rec) = self.recorder.as_deref_mut() {
                if rec.enabled() {
                    let (event, counter) = match e.kind {
                        FaultKind::NodeDown => {
                            (Event::NodeDown { node: e.node.0 }, keys::NODE_DOWN)
                        }
                        FaultKind::NodeUp => (Event::NodeUp { node: e.node.0 }, keys::NODE_UP),
                    };
                    rec.record(e.at.as_secs(), event);
                    if let Some(reg) = rec.registry_mut() {
                        reg.inc(counter);
                    }
                }
            }
            match e.kind {
                FaultKind::NodeDown => {
                    self.churn.node_failures += 1;
                    match &mut self.backend {
                        ExecutionBackend::Proportional(b) => b.fail(
                            e.at,
                            e.node,
                            self.recovery,
                            &mut self.churn,
                            &mut self.requeued,
                            &mut self.events,
                        ),
                        ExecutionBackend::Queued(b) => b.fail(
                            e.at,
                            e.node,
                            self.recovery,
                            &mut self.churn,
                            &mut self.requeued,
                            &mut self.events,
                        ),
                    }
                }
                FaultKind::NodeUp => {
                    self.churn.node_restores += 1;
                    match &mut self.backend {
                        ExecutionBackend::Proportional(b) => {
                            b.restore(e.at, e.node, &mut self.events)
                        }
                        ExecutionBackend::Queued(b) => b.restore(e.at, e.node, &mut self.events),
                    }
                }
            }
        }
    }

    /// Rewrites buffered events of requeued jobs before they stream out:
    /// the record carries the job as originally submitted (the SLA under
    /// judgement), the fulfilled-under-churn tally observes the
    /// resolution, and a late rejection is counted. A no-op on fault-free
    /// runs (the map is only populated by requeues).
    fn finalize_churn(&mut self) {
        if self.requeued.is_empty() {
            return;
        }
        for e in &mut self.events {
            if let Some(original) = self.requeued.remove(&e.seq) {
                if matches!(e.record.outcome, Outcome::Rejected { .. }) {
                    self.churn.requeue_rejects += 1;
                }
                e.record.job = original;
                self.churn.requeued_fulfilled.observe(e.record.fulfilled());
            }
        }
    }

    /// Presents one arrival at its submission instant and returns the
    /// irrevocable decision. Outcome events (including the rejection
    /// record for a [`Decision::Rejected`] verdict) are buffered and
    /// streamed by the next [`ClusterRms::advance`]/[`ClusterRms::drain`].
    ///
    /// Malformed jobs (non-finite times, non-positive runtime, estimate
    /// or deadline, zero processors, negative submit time — see
    /// [`Job::validate`]) are rejected here, before any backend state is
    /// touched: an RMS front-end faces untrusted submissions, and a
    /// nonsensical SLA must produce a verdict, not a panic deep inside an
    /// engine. So is a submission at a non-finite `now`, or at a `now`
    /// before an earlier submission or advance, which is rejected at the
    /// current clock and moves neither the clock nor the fault plan, and
    /// a job whose id is still in flight (resident, running or queued
    /// once the backend has caught up to `now`): it would otherwise
    /// collide with its namesake's bookkeeping. All three reject with
    /// [`RejectReason::InvalidJob`].
    pub fn submit(&mut self, job: Job, now: SimTime) -> Decision {
        let valid_now = now.as_secs().is_finite() && now >= self.now;
        let now = if valid_now {
            self.now = now;
            self.apply_faults_through(now);
            now
        } else {
            self.now
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(rec) = self.recorder.as_deref_mut() {
            if rec.enabled() {
                rec.record(
                    now.as_secs(),
                    Event::Submit {
                        seq,
                        job: job.id.0,
                        procs: job.procs,
                        estimate_secs: job.estimate.as_secs(),
                        deadline_secs: job.deadline.as_secs(),
                    },
                );
            }
        }
        if !valid_now || job.validate().is_err() {
            return self.reject_invalid(seq, job, now);
        }
        // Catch up to the arrival first, so a job that resolved by `now`
        // no longer counts as in flight.
        let in_flight = match &mut self.backend {
            ExecutionBackend::Proportional(b) => {
                b.sync(now, &mut self.events);
                b.holds(job.id)
            }
            ExecutionBackend::Queued(b) => {
                b.catch_up(Some(now), &mut self.events);
                b.holds(job.id)
            }
        };
        if in_flight {
            return self.reject_invalid(seq, job, now);
        }
        let rec = reborrow(&mut self.recorder);
        match &mut self.backend {
            ExecutionBackend::Proportional(b) => b.submit(seq, job, now, &mut self.events, rec),
            ExecutionBackend::Queued(b) => b.submit(seq, job, now, &mut self.events, rec),
        }
    }

    /// Rejects a submission no backend may see — malformed, or reusing
    /// the id of a job still in flight — with [`RejectReason::InvalidJob`].
    fn reject_invalid(&mut self, seq: u64, job: Job, now: SimTime) -> Decision {
        let reason = RejectReason::InvalidJob;
        let job_id = job.id.0;
        self.events.push(JobEvent::new(
            seq,
            job,
            Outcome::Rejected { at: now, reason },
        ));
        if let Some(rec) = self.recorder.as_deref_mut() {
            if rec.enabled() {
                note_decision(
                    rec,
                    now,
                    seq,
                    job_id,
                    Decision::Rejected(reason),
                    DecisionAudit::default(),
                    None,
                );
            }
        }
        Decision::Rejected(reason)
    }

    /// Advances virtual time to `to` and streams every job outcome that
    /// resolved. Brings the RMS to exactly the state an arrival at `to`
    /// would observe, so extra calls at intermediate instants never
    /// change results.
    ///
    /// A non-finite `to`, or a `to` before an earlier submission or
    /// advance, is treated like a submission at such an instant: it
    /// moves neither the clock nor the fault plan, and only the outcomes
    /// already buffered stream out.
    pub fn advance(&mut self, to: SimTime) -> impl Iterator<Item = JobEvent> + '_ {
        let from = self.now;
        if to.as_secs().is_finite() && to >= self.now {
            self.now = to;
            self.apply_faults_through(to);
            match &mut self.backend {
                ExecutionBackend::Proportional(b) => b.catch_up(to, &mut self.events),
                ExecutionBackend::Queued(b) => b.catch_up(Some(to), &mut self.events),
            }
        }
        self.finalize_churn();
        self.record_span(from, self.now);
        self.events.drain(..)
    }

    /// Records the advance span, the resolutions it streamed, and the
    /// post-span utilisation/in-flight gauges. Called after
    /// `ClusterRms::finalize_churn` so the audited records are the ones
    /// the caller observes. The span's events share one wall-clock
    /// stamp: they are recorded back to back.
    fn record_span(&mut self, from: SimTime, to: SimTime) {
        if !self.recorder.as_ref().is_some_and(|r| r.enabled()) {
            return;
        }
        let utilization = self.utilization();
        let in_flight = self.in_flight() as f64;
        let rec = self
            .recorder
            .as_deref_mut()
            .expect("enabled() implies a recorder");
        let wall = Instant::now();
        rec.record_at(
            to.as_secs(),
            wall,
            Event::AdvanceSpan {
                start_secs: from.as_secs(),
                end_secs: to.as_secs(),
                events: self.events.len() as u64,
            },
        );
        for e in &self.events {
            let (kind, at) = match e.record.outcome {
                Outcome::Rejected { at, reason } => (ResolvedKind::Rejected(reason), at),
                Outcome::Completed { finish, .. } => (ResolvedKind::Completed, finish),
                Outcome::Killed { at, .. } => (ResolvedKind::Killed, at),
            };
            rec.record_at(
                at.as_secs(),
                wall,
                Event::JobResolved {
                    seq: e.seq,
                    job: e.record.job.id.0,
                    outcome: kind,
                },
            );
            if let Some(reg) = rec.registry_mut() {
                reg.inc(keys::RESOLVED);
                match kind {
                    ResolvedKind::Rejected(reason) => reg.inc(reason.counter_key()),
                    ResolvedKind::Completed if e.record.fulfilled() => reg.inc(keys::FULFILLED),
                    ResolvedKind::Completed => reg.inc(keys::OVERDUE),
                    ResolvedKind::Killed => reg.inc(keys::KILLED),
                }
            }
        }
        if let Some(reg) = rec.registry_mut() {
            reg.set_gauge(keys::UTILIZATION, utilization);
            reg.set_gauge(keys::IN_FLIGHT, in_flight);
        }
    }

    /// Runs the residual workload to completion and streams the remaining
    /// outcomes. After `drain` every submitted job has resolved.
    pub fn drain(&mut self) -> impl Iterator<Item = JobEvent> + '_ {
        let from = self.now;
        // Residual fault events interleave with residual completions:
        // each application catches the backend up to its instant first.
        while let Some(t) = self.plan.next_instant() {
            self.now = self.now.max(t);
            self.apply_faults_through(t);
        }
        match &mut self.backend {
            ExecutionBackend::Proportional(b) => b.drain(&mut self.events),
            ExecutionBackend::Queued(b) => b.drain(&mut self.events),
        }
        if let Some(last) = self.events.last() {
            if let Outcome::Completed { finish, .. } = last.record.outcome {
                self.now = self.now.max(finish);
            }
        }
        self.finalize_churn();
        let to = self.now;
        self.record_span(from, to);
        self.events.drain(..)
    }

    /// Replays a full trace through [`drive_trace`] and assembles the
    /// classic batch [`SimulationReport`].
    pub fn run_to_report(mut self, trace: &Trace) -> SimulationReport {
        let mut sink = ReportCollector::new();
        drive_trace(&mut self, trace, &mut sink);
        let mut report = sink.into_report(self.policy_name.clone(), self.utilization());
        report.churn = self.churn;
        report
    }
}

/// The single generic batch driver: submits each job at its arrival
/// instant, in submit order with ties kept in trace order, and streams
/// resolved outcomes into `sink`.
///
/// The facade is *pulled* to each arrival instant; the engines report
/// their own next event times, so no event queue is needed beside them.
pub fn drive_trace(rms: &mut ClusterRms<'_>, trace: &Trace, sink: &mut dyn ReportSink) {
    let mut arrivals: Vec<&Job> = trace.jobs().iter().collect();
    arrivals.sort_by_key(|j| j.submit);
    for job in arrivals {
        for e in rms.advance(job.submit) {
            sink.record(e.seq, e.record);
        }
        rms.submit(job.clone(), job.submit);
    }
    for e in rms.drain() {
        sink.record(e.seq, e.record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libra::Libra;
    use crate::libra_risk::LibraRisk;
    use sim::SimDuration;
    use workload::Urgency;

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

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
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
        let report = ClusterRms::proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .run_to_report(&trace);
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
        let libra = ClusterRms::proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .run_to_report(&trace);
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
        let libra = ClusterRms::proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .run_to_report(&trace);
        assert_eq!(libra.fulfilled(), 0);
        assert_eq!(libra.rejected(), 1);
        let lr = ClusterRms::proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            LibraRisk::paper(),
        )
        .run_to_report(&trace);
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
        let report = ClusterRms::queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
        )
        .run_to_report(&trace);
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
        let report = ClusterRms::queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
        )
        .run_to_report(&trace);
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
        let report = ClusterRms::queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, false),
        )
        .run_to_report(&trace);
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
        let report = ClusterRms::queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::Fifo, false),
        )
        .run_to_report(&trace);
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
        let plain = ClusterRms::queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
        )
        .run_to_report(&trace);
        let backfill = ClusterRms::queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true).with_backfill(true),
        )
        .run_to_report(&trace);
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
        let q = ClusterRms::queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
        )
        .run_to_report(&trace);
        assert_eq!(q.rejected(), 1);
        let p = ClusterRms::proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            LibraRisk::paper(),
        )
        .run_to_report(&trace);
        assert_eq!(p.rejected(), 1);
    }

    #[test]
    fn every_job_gets_exactly_one_outcome() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 5.0, 30.0, 45.0, 1 + (i % 2) as u32, 120.0))
            .collect();
        let trace = Trace::new(jobs);
        for report in [
            ClusterRms::proportional(
                two_node_cluster(),
                ProportionalConfig::default(),
                Libra::new(),
            )
            .run_to_report(&trace),
            ClusterRms::proportional(
                two_node_cluster(),
                ProportionalConfig::default(),
                LibraRisk::paper(),
            )
            .run_to_report(&trace),
            ClusterRms::queued(
                two_node_cluster(),
                QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            )
            .run_to_report(&trace),
        ] {
            assert_eq!(report.submitted(), 40);
            assert_eq!(report.accepted() + report.rejected(), 40);
        }
    }

    #[test]
    fn utilization_is_reported() {
        let trace = Trace::new(vec![job(0, 0.0, 100.0, 100.0, 2, 150.0)]);
        let report = ClusterRms::queued(
            two_node_cluster(),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
        )
        .run_to_report(&trace);
        assert!((report.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn drive_trace_replays_arrivals_in_stable_submit_order() {
        // Out-of-order and tied submit times, set after construction so
        // the trace keeps its own order.
        let mut trace = Trace::new((0..6).map(|i| job(i, 0.0, 60.0, 60.0, 1, 100.0)).collect());
        for (j, submit) in trace
            .jobs_mut()
            .iter_mut()
            .zip([30.0, 10.0, 10.0, 0.0, 30.0, 10.0])
        {
            j.submit = t(submit);
        }
        // Sorted by submit, ties in trace order: 3 (t=0); 1, 2, 5 (t=10);
        // 0, 4 (t=30). On one node the tied jobs compete, so the order
        // decides who runs.
        let order = [3, 1, 2, 5, 0, 4];
        let backends: [fn() -> ClusterRms<'static>; 3] = [
            || {
                ClusterRms::proportional(
                    Cluster::homogeneous(1, 168.0),
                    ProportionalConfig::default(),
                    Libra::new(),
                )
            },
            || {
                ClusterRms::queued(
                    Cluster::homogeneous(1, 168.0),
                    QueuePolicy::new(QueueDiscipline::Fifo, false),
                )
            },
            || ClusterRms::qops(Cluster::homogeneous(1, 168.0), QopsConfig::default()),
        ];
        for make in backends {
            let by_driver = make().run_to_report(&trace);
            let mut rms = make();
            let mut sink = ReportCollector::new();
            for &i in &order {
                let job = &trace[i];
                for e in rms.advance(job.submit) {
                    sink.record(e.seq, e.record);
                }
                rms.submit(job.clone(), job.submit);
            }
            for e in rms.drain() {
                sink.record(e.seq, e.record);
            }
            let by_hand = sink.into_report(rms.policy_name().to_string(), rms.utilization());
            assert_eq!(by_driver.records, by_hand.records, "{}", by_hand.policy);
            let ids: Vec<usize> = by_driver
                .records
                .iter()
                .map(|r| r.job.id.0 as usize)
                .collect();
            assert_eq!(ids, order, "{}", by_hand.policy);
            assert!(by_driver.rejected() > 0 || by_driver.delayed() > 0);
        }
    }

    #[test]
    fn online_submit_advance_drain_roundtrip() {
        let mut rms = ClusterRms::proportional(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        );
        assert_eq!(rms.policy_name(), "Libra");
        let d = rms.submit(job(0, 0.0, 50.0, 50.0, 1, 200.0), t(0.0));
        assert_eq!(d, Decision::Accepted);
        assert_eq!(rms.in_flight(), 1);
        // Nothing resolves before the job's completion.
        assert_eq!(rms.advance(t(10.0)).count(), 0);
        let d = rms.submit(job(1, 10.0, 50.0, 50.0, 1, 200.0), t(10.0));
        assert_eq!(d, Decision::Accepted);
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| matches!(e.record.outcome, Outcome::Completed { .. })));
        assert_eq!(rms.submitted(), 2);
        assert_eq!(rms.in_flight(), 0);
        assert!(rms.utilization() > 0.0);
    }

    #[test]
    fn proportional_rejection_streams_through_events() {
        let mut rms = ClusterRms::proportional(
            Cluster::homogeneous(1, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        );
        // Saturate the node, then overcommit.
        assert_eq!(
            rms.submit(job(0, 0.0, 100.0, 100.0, 1, 100.0), t(0.0)),
            Decision::Accepted
        );
        assert_eq!(
            rms.submit(job(1, 0.0, 100.0, 100.0, 1, 100.0), t(0.0)),
            Decision::Rejected(RejectReason::NoFit)
        );
        let events: Vec<JobEvent> = rms.advance(t(0.0)).collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 1);
        assert_eq!(
            events[0].record.outcome,
            Outcome::Rejected {
                at: t(0.0),
                reason: RejectReason::NoFit
            }
        );
    }

    #[test]
    fn queued_defers_the_verdict_to_events() {
        let mut rms = ClusterRms::queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
        );
        assert_eq!(
            rms.submit(job(0, 0.0, 100.0, 100.0, 1, 200.0), t(0.0)),
            Decision::Queued
        );
        // Infeasible once selected: rejected at selection time, streamed.
        assert_eq!(
            rms.submit(job(1, 0.0, 100.0, 100.0, 1, 50.0), t(0.0)),
            Decision::Queued
        );
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 2);
        let rejected: Vec<u64> = events
            .iter()
            .filter(|e| matches!(e.record.outcome, Outcome::Rejected { .. }))
            .map(|e| e.seq)
            .collect();
        assert_eq!(rejected, vec![1]);
    }

    #[test]
    fn qops_rejects_unschedulable_arrivals_immediately() {
        let mut rms = ClusterRms::qops(Cluster::homogeneous(1, 168.0), QopsConfig::default());
        assert_eq!(
            rms.submit(job(0, 0.0, 100.0, 100.0, 1, 50.0), t(0.0)),
            Decision::Rejected(RejectReason::OverRisk)
        );
        assert_eq!(rms.drain().count(), 1);
    }

    #[test]
    fn advance_is_idempotent_between_events() {
        let mk = || {
            let mut rms = ClusterRms::proportional(
                Cluster::homogeneous(2, 168.0),
                ProportionalConfig::default(),
                Libra::new(),
            );
            rms.submit(job(0, 0.0, 500.0, 500.0, 1, 2000.0), t(0.0));
            rms
        };
        let mut plain = mk();
        plain.submit(job(1, 900.0, 100.0, 100.0, 1, 400.0), t(900.0));
        let a: Vec<JobEvent> = plain.drain().collect();
        let mut chatty = mk();
        // Arbitrary intermediate advances (including repeats) must not
        // change any outcome — they only stream it earlier.
        let mut b: Vec<JobEvent> = Vec::new();
        for s in [100.0, 100.0, 250.0, 777.7] {
            b.extend(chatty.advance(t(s)));
        }
        chatty.submit(job(1, 900.0, 100.0, 100.0, 1, 400.0), t(900.0));
        b.extend(chatty.drain());
        assert_eq!(a, b);
    }

    #[test]
    fn submissions_cannot_go_backwards() {
        let mut rms = ClusterRms::queued(
            Cluster::homogeneous(1, 168.0),
            QueuePolicy::new(QueueDiscipline::Fifo, false),
        );
        assert_eq!(
            rms.submit(job(0, 10.0, 1.0, 1.0, 1, 10.0), t(10.0)),
            Decision::Queued
        );
        assert_eq!(
            rms.submit(job(1, 5.0, 1.0, 1.0, 1, 10.0), t(5.0)),
            Decision::Rejected(RejectReason::InvalidJob)
        );
        assert_eq!(rms.now(), t(10.0), "a backwards submission moved the clock");
        // A backwards advance streams only what is buffered: the
        // rejection, not job 0's completion at 11 s.
        let early: Vec<JobEvent> = rms.advance(t(5.0)).collect();
        assert_eq!(rms.now(), t(10.0), "a backwards advance moved the clock");
        assert_eq!(early.len(), 1);
        assert_eq!(
            early[0].record.outcome,
            Outcome::Rejected {
                at: t(10.0),
                reason: RejectReason::InvalidJob
            }
        );
        let mut seqs: Vec<u64> = early.iter().map(|e| e.seq).collect();
        seqs.extend(rms.drain().map(|e| e.seq));
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1], "each submission resolves exactly once");
    }

    #[test]
    #[should_panic(expected = "slack factor")]
    fn qops_slack_below_one_panics() {
        ClusterRms::qops(
            Cluster::homogeneous(1, 168.0),
            QopsConfig { slack_factor: 0.5 },
        );
    }

    #[test]
    fn empty_trace_produces_empty_report() {
        let rms = ClusterRms::qops(Cluster::homogeneous(2, 168.0), QopsConfig::default());
        let report = rms.run_to_report(&Trace::new(vec![]));
        assert_eq!(report.submitted(), 0);
        assert_eq!(report.utilization, 0.0);
    }

    fn down(at: f64, node: u32) -> cluster::FaultEvent {
        cluster::FaultEvent {
            at: t(at),
            node: NodeId(node),
            kind: FaultKind::NodeDown,
        }
    }

    fn up(at: f64, node: u32) -> cluster::FaultEvent {
        cluster::FaultEvent {
            at: t(at),
            node: NodeId(node),
            kind: FaultKind::NodeUp,
        }
    }

    #[test]
    fn malformed_submissions_are_rejected_not_panicked() {
        let base = job(0, 10.0, 50.0, 50.0, 1, 200.0);
        let zero_estimate = Job {
            estimate: SimDuration::from_secs(0.0),
            ..base.clone()
        };
        let negative_estimate = Job {
            estimate: SimDuration::from_secs(-5.0),
            ..base.clone()
        };
        let zero_runtime = Job {
            runtime: SimDuration::from_secs(0.0),
            ..base.clone()
        };
        let expired_deadline = Job {
            deadline: SimDuration::from_secs(-1.0),
            ..base.clone()
        };
        let zero_procs = Job {
            procs: 0,
            ..base.clone()
        };
        for (label, bad) in [
            ("zero estimate", zero_estimate),
            ("negative estimate", negative_estimate),
            ("zero runtime", zero_runtime),
            ("deadline before submission", expired_deadline),
            ("zero procs", zero_procs),
        ] {
            let mut rms = ClusterRms::proportional(
                Cluster::homogeneous(2, 168.0),
                ProportionalConfig::default(),
                Libra::new(),
            );
            assert_eq!(
                rms.submit(bad, t(10.0)),
                Decision::Rejected(RejectReason::InvalidJob),
                "{label} must be rejected at submit"
            );
            let events: Vec<JobEvent> = rms.drain().collect();
            assert_eq!(events.len(), 1, "{label} still resolves exactly once");
            assert_eq!(
                events[0].record.outcome,
                Outcome::Rejected {
                    at: t(10.0),
                    reason: RejectReason::InvalidJob
                }
            );
            // And a well-formed job afterwards is unaffected.
            assert_eq!(
                rms.submit(job(1, 10.0, 50.0, 50.0, 1, 200.0), t(10.0)),
                Decision::Accepted
            );
        }
    }

    fn libra_risk_rms() -> ClusterRms<'static> {
        ClusterRms::proportional(
            Cluster::homogeneous(4, 168.0),
            ProportionalConfig::default(),
            crate::libra_risk::LibraRisk::paper(),
        )
    }

    #[test]
    fn infinite_submission_instant_is_rejected_without_moving_the_clock() {
        let mut rms = libra_risk_rms();
        assert_eq!(
            rms.submit(job(0, 10.0, 50.0, 50.0, 1, 200.0), t(10.0)),
            Decision::Accepted
        );
        for now in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                rms.submit(job(1, 10.0, 50.0, 50.0, 1, 200.0), t(now)),
                Decision::Rejected(RejectReason::InvalidJob),
                "now = {now}"
            );
            assert_eq!(rms.now(), t(10.0), "now = {now} moved the clock");
        }
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 3);
        let rejected_at: Vec<SimTime> = events
            .iter()
            .filter_map(|e| match e.record.outcome {
                Outcome::Rejected { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        assert_eq!(rejected_at, vec![t(10.0), t(10.0)]);
    }

    #[test]
    fn infinite_runtime_is_rejected_and_drain_returns() {
        let mut rms = libra_risk_rms();
        let endless = Job {
            runtime: SimDuration::from_secs(f64::INFINITY),
            ..job(0, 0.0, 50.0, 50.0, 1, 200.0)
        };
        assert_eq!(
            rms.submit(endless, t(0.0)),
            Decision::Rejected(RejectReason::InvalidJob)
        );
        assert_eq!(rms.drain().count(), 1);
    }

    #[test]
    fn duplicate_in_flight_ids_are_rejected_before_any_backend() {
        use crate::policy::PolicyKind;
        for kind in PolicyKind::ALL {
            let mut rms = kind.rms(&Cluster::homogeneous(4, 168.0));
            let mut events: Vec<JobEvent> = Vec::new();
            // A full-width job keeps every node busy; job 7 then runs
            // beside it (proportional) or waits behind it (queued).
            let first = rms.submit(job(1, 0.0, 100.0, 100.0, 4, 10_000.0), t(0.0));
            assert!(
                !matches!(first, Decision::Rejected(_)),
                "{kind:?}: {first:?}"
            );
            let seven = rms.submit(job(7, 0.0, 100.0, 100.0, 1, 10_000.0), t(0.0));
            assert!(
                !matches!(seven, Decision::Rejected(_)),
                "{kind:?}: {seven:?}"
            );
            events.extend(rms.advance(t(1.0)));
            assert_eq!(
                rms.submit(job(7, 1.0, 100.0, 100.0, 1, 10_000.0), t(1.0)),
                Decision::Rejected(RejectReason::InvalidJob),
                "{kind:?}: an in-flight id must be refused"
            );
            assert_eq!(
                rms.in_flight(),
                2,
                "{kind:?}: the refused job reached a backend"
            );
            // Once job 7 resolved, its id is free again.
            events.extend(rms.advance(t(20_000.0)));
            let again = rms.submit(job(7, 20_000.0, 100.0, 100.0, 1, 10_000.0), t(20_000.0));
            assert_ne!(
                again,
                Decision::Rejected(RejectReason::InvalidJob),
                "{kind:?}"
            );
            events.extend(rms.drain());
            let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            seqs.sort_unstable();
            assert_eq!(
                seqs,
                vec![0, 1, 2, 3],
                "{kind:?}: every submission resolves once"
            );
            let dup = events
                .iter()
                .find(|e| e.seq == 2)
                .expect("duplicate resolved");
            assert_eq!(
                dup.record.outcome,
                Outcome::Rejected {
                    at: t(1.0),
                    reason: RejectReason::InvalidJob
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn kill_recovery_streams_a_killed_outcome() {
        let mut rms = ClusterRms::proportional(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(10.0, 0)]),
            RecoveryPolicy::Kill,
        );
        // Best fit on an empty homogeneous cluster lands on node 0.
        assert_eq!(
            rms.submit(job(0, 0.0, 100.0, 100.0, 1, 400.0), t(0.0)),
            Decision::Accepted
        );
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].record.outcome,
            Outcome::Killed {
                at: t(10.0),
                node: NodeId(0)
            }
        );
        assert!(!events[0].record.fulfilled());
        assert_eq!(rms.churn().node_failures, 1);
        assert_eq!(rms.churn().kills, 1);
        assert_eq!(rms.churn().requeues, 0);
    }

    #[test]
    fn requeued_job_is_readmitted_and_reported_as_submitted() {
        let mut rms = ClusterRms::proportional(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(40.0, 0)]),
            RecoveryPolicy::Requeue,
        );
        let original = job(0, 0.0, 100.0, 100.0, 1, 1000.0);
        assert_eq!(rms.submit(original.clone(), t(0.0)), Decision::Accepted);
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 1);
        // The record carries the job as submitted, and the SLA is judged
        // against the *original* deadline: 40s of progress survives the
        // checkpoint, the remaining 60s restart on node 1 → finish at 100.
        assert_eq!(events[0].record.job, original);
        match events[0].record.outcome {
            Outcome::Completed { started, finish } => {
                assert_eq!(started, t(40.0));
                assert!((finish.as_secs() - 100.0).abs() < 1e-6, "finish {finish}");
            }
            ref other => panic!("expected completion, got {other:?}"),
        }
        assert!(events[0].record.fulfilled());
        assert_eq!(rms.churn().requeues, 1);
        assert_eq!(rms.churn().requeue_rejects, 0);
        assert_eq!(rms.churn().requeued_fulfilled.hits(), 1);
        assert_eq!(rms.churn().requeued_fulfilled.total(), 1);
    }

    #[test]
    fn requeue_can_reject_a_previously_accepted_job_late() {
        // One node: once it fails there is nowhere to requeue to.
        let mut rms = ClusterRms::proportional(
            Cluster::homogeneous(1, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(50.0, 0)]),
            RecoveryPolicy::Requeue,
        );
        let original = job(0, 0.0, 100.0, 100.0, 1, 200.0);
        assert_eq!(rms.submit(original.clone(), t(0.0)), Decision::Accepted);
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].record.job, original);
        // No node is up, so the requeue is refused as `submit` would
        // refuse the same job: `NodeDown`, not the policy's `NoFit`.
        assert_eq!(
            events[0].record.outcome,
            Outcome::Rejected {
                at: t(50.0),
                reason: RejectReason::NodeDown
            }
        );
        assert_eq!(rms.churn().requeues, 1);
        assert_eq!(rms.churn().requeue_rejects, 1);
        assert_eq!(rms.churn().requeued_fulfilled.hits(), 0);
        assert_eq!(rms.churn().requeued_fulfilled.total(), 1);
    }

    #[test]
    fn requeued_gang_wider_than_the_survivors_is_rejected_node_down() {
        // A 2-wide gang on 2 nodes loses one: the requeue is classified
        // as `submit` would classify the same job, not as a policy
        // rejection.
        let mut rms = ClusterRms::proportional(
            two_node_cluster(),
            ProportionalConfig::default(),
            LibraRisk::paper(),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(50.0, 0)]),
            RecoveryPolicy::Requeue,
        );
        let original = job(0, 0.0, 100.0, 100.0, 2, 1000.0);
        assert_eq!(rms.submit(original.clone(), t(0.0)), Decision::Accepted);
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].record.job, original);
        assert_eq!(
            events[0].record.outcome,
            Outcome::Rejected {
                at: t(50.0),
                reason: RejectReason::NodeDown
            }
        );
        assert_eq!(rms.churn().requeues, 1);
        assert_eq!(rms.churn().requeue_rejects, 1);
    }

    #[test]
    fn equal_deadlines_start_in_submission_order() {
        // A blocker holds the one node; two waiters share an absolute
        // deadline (2 + 98 = 1 + 99 = 100) but carry `submit` fields
        // opposite to their submission order. Under EDF and QoPS alike
        // the earlier submission starts first.
        let cluster = || Cluster::homogeneous(1, 168.0);
        let rmses = [
            ClusterRms::queued(
                cluster(),
                QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            ),
            ClusterRms::qops(cluster(), QopsConfig::default()),
        ];
        for mut rms in rmses {
            let name = rms.policy_name().to_string();
            rms.submit(job(0, 0.0, 10.0, 10.0, 1, 1000.0), t(0.0));
            for (id, submit, deadline) in [(1, 2.0, 98.0), (2, 1.0, 99.0)] {
                let waiter = job(id, submit, 10.0, 10.0, 1, deadline);
                assert_eq!(rms.submit(waiter, t(1.0)), Decision::Queued, "{name}");
            }
            let mut started: Vec<(u64, f64)> = rms
                .drain()
                .map(|e| match e.record.outcome {
                    Outcome::Completed { started, .. } => (e.seq, started.as_secs()),
                    other => panic!("{name}: seq {} resolved as {other:?}", e.seq),
                })
                .collect();
            started.sort_by_key(|&(seq, _)| seq);
            assert_eq!(started, [(0, 0.0), (1, 10.0), (2, 20.0)], "{name}");
        }
    }

    #[test]
    fn queued_fail_kills_resident_and_rejects_too_wide_waiters() {
        let mut rms = ClusterRms::queued(
            Cluster::homogeneous(2, 168.0),
            QueuePolicy::new(QueueDiscipline::Fifo, false),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(10.0, 0), up(20.0, 0)]),
            RecoveryPolicy::Kill,
        );
        // Both 2-wide: the first runs, the second waits.
        rms.submit(job(0, 0.0, 100.0, 100.0, 2, 4000.0), t(0.0));
        rms.submit(job(1, 0.0, 100.0, 100.0, 2, 4000.0), t(0.0));
        // A 2-wide submission while one node is down is rejected outright.
        let mid = rms.submit(job(2, 15.0, 10.0, 10.0, 2, 4000.0), t(15.0));
        assert_eq!(mid, Decision::Rejected(RejectReason::NodeDown));
        // After the restore a 2-wide job is admissible again.
        assert_eq!(
            rms.submit(job(3, 30.0, 10.0, 10.0, 2, 4000.0), t(30.0)),
            Decision::Queued
        );
        let events: Vec<JobEvent> = rms.drain().collect();
        let outcome_of = |seq: u64| {
            events
                .iter()
                .find(|e| e.seq == seq)
                .map(|e| e.record.outcome)
                .expect("resolved")
        };
        assert_eq!(
            outcome_of(0),
            Outcome::Killed {
                at: t(10.0),
                node: NodeId(0)
            }
        );
        // The waiting 2-wide job cannot ever start on 1 surviving node.
        assert_eq!(
            outcome_of(1),
            Outcome::Rejected {
                at: t(10.0),
                reason: RejectReason::NodeDown
            }
        );
        assert_eq!(
            outcome_of(2),
            Outcome::Rejected {
                at: t(15.0),
                reason: RejectReason::NodeDown
            }
        );
        assert!(matches!(outcome_of(3), Outcome::Completed { .. }));
        assert_eq!(events.len(), 4, "every job resolves exactly once");
        assert_eq!(rms.churn().node_failures, 1);
        assert_eq!(rms.churn().node_restores, 1);
        assert_eq!(rms.churn().kills, 1);
    }

    #[test]
    fn utilization_excludes_down_node_seconds() {
        // Node 0 is down for the whole run on both substrates: the one
        // surviving processor works the entire span, so utilisation must
        // read 1.0, not the 0.5 a total-capacity denominator would give.
        let mut queued = ClusterRms::queued(
            Cluster::homogeneous(2, 168.0),
            QueuePolicy::new(QueueDiscipline::Fifo, false),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(0.0, 0)]),
            RecoveryPolicy::Kill,
        );
        assert_eq!(
            queued.submit(job(0, 0.0, 100.0, 100.0, 1, 4000.0), t(0.0)),
            Decision::Queued
        );
        assert_eq!(queued.drain().count(), 1);
        assert!(
            (queued.utilization() - 1.0).abs() < 1e-9,
            "queued under churn: {}",
            queued.utilization()
        );

        let mut prop = ClusterRms::proportional(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        )
        .with_faults(
            FaultPlan::from_events(vec![down(0.0, 0)]),
            RecoveryPolicy::Kill,
        );
        assert_eq!(
            prop.submit(job(0, 0.0, 100.0, 100.0, 1, 4000.0), t(0.0)),
            Decision::Accepted
        );
        assert_eq!(prop.drain().count(), 1);
        assert!(
            (prop.utilization() - 1.0).abs() < 1e-9,
            "proportional under churn: {}",
            prop.utilization()
        );
    }

    #[test]
    fn qops_requeue_reruns_the_schedulability_test() {
        let mut rms = ClusterRms::qops(Cluster::homogeneous(2, 168.0), QopsConfig::default())
            .with_faults(
                FaultPlan::from_events(vec![down(50.0, 0)]),
                RecoveryPolicy::Requeue,
            );
        // Tight deadline: after losing 50s to the fault, a from-scratch
        // restart cannot finish by the soft deadline → late reject.
        let original = job(0, 0.0, 100.0, 100.0, 2, 110.0);
        assert_eq!(rms.submit(original.clone(), t(0.0)), Decision::Queued);
        let events: Vec<JobEvent> = rms.drain().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].record.job, original);
        // The 2-wide survivor cannot refit on the 1 remaining node.
        assert_eq!(
            events[0].record.outcome,
            Outcome::Rejected {
                at: t(50.0),
                reason: RejectReason::NodeDown
            }
        );
        assert_eq!(rms.churn().requeues, 1);
        assert_eq!(rms.churn().requeue_rejects, 1);
    }

    #[test]
    fn empty_fault_plan_is_structurally_inert() {
        let run = |faulted: bool| {
            let mut rms = ClusterRms::proportional(
                Cluster::homogeneous(4, 168.0),
                ProportionalConfig::default(),
                Libra::new(),
            );
            if faulted {
                rms = rms.with_faults(FaultPlan::empty(), RecoveryPolicy::Requeue);
            }
            for i in 0..20u64 {
                let s = i as f64 * 17.0;
                rms.submit(job(i, s, 120.0, 140.0, 1 + (i % 2) as u32, 400.0), t(s));
            }
            let mut events: Vec<JobEvent> = rms.drain().collect();
            events.sort_by_key(|e| e.seq);
            (events, *rms.churn())
        };
        let (plain, _) = run(false);
        let (faulted, churn) = run(true);
        assert_eq!(plain, faulted);
        assert!(churn.is_empty());
    }

    /// Counts the facade's `audit_gauge` calls on the policy it wraps.
    struct GaugeCounter {
        inner: crate::libra_risk::LibraRisk,
        calls: std::cell::Cell<u64>,
    }

    impl ShareAdmission for GaugeCounter {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
            self.inner.decide(engine, job)
        }

        fn reject_reason(&self) -> RejectReason {
            self.inner.reject_reason()
        }

        fn audit_gauge(&self, engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
            self.calls.set(self.calls.get() + 1);
            self.inner.audit_gauge(engine)
        }
    }

    #[test]
    fn rejection_reuses_the_gauge_sample_taken_before_it() {
        // A rejection leaves the engine untouched, so the facade samples
        // the gauge once for it and twice for an acceptance.
        let mut policy = GaugeCounter {
            inner: crate::libra_risk::LibraRisk::paper(),
            calls: std::cell::Cell::new(0),
        };
        let mut rec = obs::TraceRecorder::new(1024).with_audit_gauges();
        let (mut accepted, mut rejected) = (0u64, 0u64);
        {
            let mut rms = ClusterRms::proportional(
                Cluster::homogeneous(2, 168.0),
                ProportionalConfig::default(),
                &mut policy,
            )
            .with_recorder(&mut rec);
            for i in 0..24u64 {
                let s = i as f64 * 11.0;
                // Long tight jobs crowd both nodes into risk; every
                // fifth asks for three nodes of two.
                let procs = if i % 5 == 4 { 3 } else { 1 };
                match rms.submit(job(i, s, 90.0, 90.0, procs, 100.0), t(s)) {
                    Decision::Accepted => accepted += 1,
                    Decision::Rejected(_) => rejected += 1,
                    Decision::Queued => unreachable!("proportional share never queues"),
                }
            }
            rms.drain().for_each(drop);
        }
        assert!(accepted > 0, "no acceptance exercised");
        assert!(rejected > accepted, "too few rejections exercised");
        assert_eq!(policy.calls.get(), rejected + 2 * accepted);
        let (mut audited_rejections, mut over_risk) = (0, 0);
        for e in rec.events() {
            if let Event::Decision {
                verdict: Verdict::Rejected(reason),
                audit,
                ..
            } = e.event
            {
                let g = audit.gauge.expect("gauges were requested");
                assert_eq!(g.before.to_bits(), g.after.to_bits());
                audited_rejections += 1;
                over_risk += u64::from(reason == RejectReason::OverRisk);
            }
        }
        assert_eq!(audited_rejections, rejected);
        assert!(over_risk > 0, "no policy rejection exercised");
    }
}
