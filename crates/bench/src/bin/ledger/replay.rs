//! The load model: one client replays a trace in virtual time, closed
//! loop. Per arrival it advances its RMS to the arrival instant (every
//! `cadence` arrivals), streams the resolved outcomes into an
//! `OnlineReport`, and submits the job; it drains at the end. The caller
//! drives the RMS clock, so no backlog can build up.
//!
//! Beside the client replay sits the engine-level decomposition: the
//! fault-free admission path rebuilt from `ProportionalCluster` and
//! `ShareAdmission` calls, so the advance path, the decision and the
//! admit can be timed one by one.

use crate::probe::{Probe, Span};
use crate::workload::{Inputs, Spec};
use cluster::proportional::{CompletedJob, ProportionalCluster, ProportionalConfig};
use cluster::NodeId;
use librisk::libra_risk::LibraRisk;
use librisk::policy::{DecisionStats, ShareAdmission};
use librisk::{
    job_hash_shard, ChurnStats, ClusterRms, Decision, JobEvent, OnlineReport, Outcome, ReportSink,
    RouterError, ShardedRms,
};
use sim::SimTime;
use std::time::Instant;
use workload::Job;

/// What the client observed, folded as it streamed.
pub struct Seen {
    pub report: OnlineReport,
    /// Accepted at submission, by submission seq.
    pub verdicts: Vec<bool>,
    /// How often each seq resolved; anything but 1 is a failed job.
    resolutions: Vec<u8>,
    /// Events whose seq was never submitted.
    stray: u64,
    /// Events that resolved before the one streamed ahead of them.
    pub out_of_order: u64,
    last_at: SimTime,
    /// `(job id, finish bits)` of every completion, sorted once the
    /// replay ends.
    pub completions: Vec<(u64, u64)>,
    pub events: u64,
}

impl Seen {
    fn new(jobs: usize) -> Self {
        Seen {
            report: OnlineReport::new(),
            verdicts: Vec::with_capacity(jobs),
            resolutions: vec![0; jobs],
            stray: 0,
            out_of_order: 0,
            last_at: SimTime::ZERO,
            completions: Vec::with_capacity(jobs),
            events: 0,
        }
    }

    fn record(&mut self, e: JobEvent, probe: &mut impl Probe) {
        self.events += 1;
        let at = e.record.outcome.resolved_at();
        if at < self.last_at {
            self.out_of_order += 1;
        }
        self.last_at = at;
        match self.resolutions.get_mut(e.seq as usize) {
            Some(n) => *n = n.saturating_add(1),
            None => self.stray += 1,
        }
        if let Outcome::Completed { finish, .. } = e.record.outcome {
            self.completions
                .push((e.record.job.id.0, finish.as_secs().to_bits()));
        }
        probe.time(Span::ReportRecord, || self.report.record(e.seq, e.record));
    }

    /// Jobs not resolved exactly once, or whose verdict differs from
    /// `reference`.
    pub fn failed_ops(&self, reference: &[bool]) -> u64 {
        let wrong = self
            .resolutions
            .iter()
            .enumerate()
            .filter(|&(seq, &n)| n != 1 || self.verdicts.get(seq) != reference.get(seq))
            .count() as u64;
        wrong + self.stray
    }
}

/// What the client drives: a `ClusterRms`, a `ShardedRms`, or the same
/// partition on independent `ClusterRms`es.
pub trait Target {
    fn advance(
        &mut self,
        to: SimTime,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError>;
    fn submit(&mut self, job: Job, now: SimTime, probe: &mut impl Probe) -> Decision;
    fn drain(&mut self, out: &mut Vec<JobEvent>, probe: &mut impl Probe)
        -> Result<(), RouterError>;
    fn churn(&self) -> ChurnStats;
}

/// One `ClusterRms`, telling advances over a fault instant from the rest.
pub struct Facade {
    rms: ClusterRms<'static>,
    fault_at: Vec<SimTime>,
    next_fault: usize,
}

impl Facade {
    pub fn new(spec: &Spec, inputs: &Inputs) -> Self {
        Facade {
            rms: spec.shard_rms(inputs),
            fault_at: inputs.plan.events().iter().map(|e| e.at).collect(),
            next_fault: 0,
        }
    }
}

impl Target for Facade {
    fn advance(
        &mut self,
        to: SimTime,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError> {
        let first = self.next_fault;
        while self
            .fault_at
            .get(self.next_fault)
            .is_some_and(|&at| at <= to)
        {
            self.next_fault += 1;
        }
        let span = if self.next_fault > first {
            Span::RmsAdvanceFault
        } else {
            Span::RmsAdvance
        };
        probe.time(span, || out.extend(self.rms.advance(to)));
        Ok(())
    }

    fn submit(&mut self, job: Job, now: SimTime, probe: &mut impl Probe) -> Decision {
        probe.time(Span::RmsSubmit, || self.rms.submit(job, now))
    }

    fn drain(
        &mut self,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError> {
        probe.time(Span::RmsDrain, || out.extend(self.rms.drain()));
        Ok(())
    }

    fn churn(&self) -> ChurnStats {
        *self.rms.churn()
    }
}

impl Target for ShardedRms<'_> {
    fn advance(
        &mut self,
        to: SimTime,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError> {
        probe.time(Span::RouterFanout, || {
            self.advance_with(to, |e| out.push(e))
        })
    }

    fn submit(&mut self, job: Job, now: SimTime, probe: &mut impl Probe) -> Decision {
        probe.time(Span::RouterSubmit, || ShardedRms::submit(self, job, now))
    }

    fn drain(
        &mut self,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError> {
        probe.time(Span::RouterFanout, || self.drain_with(|e| out.push(e)))
    }

    fn churn(&self) -> ChurnStats {
        ShardedRms::churn(self)
    }
}

/// The router's `job_hash_shard` partition on independent `ClusterRms`es,
/// advanced one after another on the caller's thread.
pub struct Independent {
    shards: Vec<Facade>,
    /// Per shard: local submission seq → global submission seq.
    global_of: Vec<Vec<u64>>,
    next_seq: u64,
    local: Vec<JobEvent>,
}

impl Independent {
    pub fn new(spec: &Spec, inputs: &Inputs) -> Self {
        Independent {
            shards: (0..spec.shards)
                .map(|_| Facade::new(spec, inputs))
                .collect(),
            global_of: vec![Vec::new(); spec.shards],
            next_seq: 0,
            local: Vec::new(),
        }
    }

    fn remap(&mut self, shard: usize, out: &mut Vec<JobEvent>) {
        let map = &self.global_of[shard];
        out.extend(self.local.drain(..).map(|mut e| {
            e.seq = map[e.seq as usize];
            e
        }));
    }
}

impl Target for Independent {
    fn advance(
        &mut self,
        to: SimTime,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError> {
        for s in 0..self.shards.len() {
            self.shards[s].advance(to, &mut self.local, probe)?;
            self.remap(s, out);
        }
        Ok(())
    }

    fn submit(&mut self, job: Job, now: SimTime, probe: &mut impl Probe) -> Decision {
        let s = job_hash_shard(job.id, self.shards.len());
        self.global_of[s].push(self.next_seq);
        self.next_seq += 1;
        self.shards[s].submit(job, now, probe)
    }

    fn drain(
        &mut self,
        out: &mut Vec<JobEvent>,
        probe: &mut impl Probe,
    ) -> Result<(), RouterError> {
        for s in 0..self.shards.len() {
            self.shards[s].drain(&mut self.local, probe)?;
            self.remap(s, out);
        }
        Ok(())
    }

    fn churn(&self) -> ChurnStats {
        let mut total = ChurnStats::default();
        for s in &self.shards {
            total.merge(&s.churn());
        }
        total
    }
}

/// Arrivals per timed segment of a replay.
pub const SEGMENT: usize = 1024;

pub struct Replay {
    pub wall_s: f64,
    pub seen: Seen,
    /// Per arrival: from the start of the client's work for it (its
    /// advance, if any) to `submit` returning, ns.
    pub verdict_ns: Vec<u64>,
    /// The wall split at every `SEGMENT`th arrival, ns; the last segment
    /// holds the arrivals left over and the drain. Sums to `wall_s`.
    pub segment_ns: Vec<u64>,
    pub churn: ChurnStats,
    pub error: Option<String>,
}

pub fn replay(
    target: &mut impl Target,
    jobs: &[Job],
    cadence: usize,
    probe: &mut impl Probe,
) -> Replay {
    let mut seen = Seen::new(jobs.len());
    let mut verdict_ns = Vec::with_capacity(jobs.len());
    let mut segment_ns = Vec::with_capacity(jobs.len() / SEGMENT + 1);
    let mut buf = Vec::new();
    let mut error = None;
    let t0 = Instant::now();
    let mut marked = 0;
    let mut split = || {
        let end = t0.elapsed().as_nanos() as u64;
        let segment = end - marked;
        marked = end;
        segment
    };
    for (i, job) in jobs.iter().enumerate() {
        probe.arrival(i);
        let now = job.submit;
        let start = Instant::now();
        if i % cadence == 0 {
            if let Err(e) = target.advance(now, &mut buf, probe) {
                error.get_or_insert(e.to_string());
            }
            for e in buf.drain(..) {
                seen.record(e, probe);
            }
        }
        let decision = target.submit(job.clone(), now, probe);
        verdict_ns.push(start.elapsed().as_nanos() as u64);
        seen.verdicts.push(decision == Decision::Accepted);
        if (i + 1) % SEGMENT == 0 {
            segment_ns.push(split());
        }
    }
    if let Err(e) = target.drain(&mut buf, probe) {
        error.get_or_insert(e.to_string());
    }
    for e in buf.drain(..) {
        seen.record(e, probe);
    }
    segment_ns.push(split());
    let wall_s = marked as f64 * 1e-9;
    seen.completions.sort_unstable();
    Replay {
        wall_s,
        seen,
        verdict_ns,
        segment_ns,
        churn: target.churn(),
        error,
    }
}

/// The client's own driver: the `ClusterRms` itself when unsharded,
/// else the router.
pub fn primary(spec: &Spec, inputs: &Inputs, probe: &mut impl Probe) -> Replay {
    let jobs = inputs.trace.jobs();
    if spec.shards == 1 {
        replay(&mut Facade::new(spec, inputs), jobs, spec.cadence, probe)
    } else {
        replay(&mut spec.router(inputs), jobs, spec.cadence, probe)
    }
}

/// The other side of the same partition: a 1-shard router when
/// unsharded, else the independent `ClusterRms`es.
pub fn partner(spec: &Spec, inputs: &Inputs, probe: &mut impl Probe) -> Replay {
    let jobs = inputs.trace.jobs();
    if spec.shards == 1 {
        replay(&mut spec.router(inputs), jobs, spec.cadence, probe)
    } else {
        replay(
            &mut Independent::new(spec, inputs),
            jobs,
            spec.cadence,
            probe,
        )
    }
}

#[derive(Default)]
pub struct Decomposed {
    /// Verdicts by submission seq.
    pub verdicts: Vec<bool>,
    pub completions: Vec<(u64, u64)>,
    /// Sums over every decision.
    pub stats: DecisionStats,
    pub decides: u64,
    pub accepts: u64,
}

/// One partition's engine and policy, called the way the facade's
/// proportional backend calls them.
struct Part {
    engine: ProportionalCluster,
    policy: LibraRisk,
    buf: Vec<CompletedJob>,
}

impl Part {
    fn advance(&mut self, to: SimTime, out: &mut Decomposed, probe: &mut impl Probe) {
        probe.time(Span::EngineAdvance, || {
            self.engine.advance_into(to, &mut self.buf)
        });
        out.completions.extend(
            self.buf
                .drain(..)
                .map(|d| (d.job.id.0, d.finish.as_secs().to_bits())),
        );
    }

    /// Every internal event at or before `to`, then `to` itself.
    fn catch_up(&mut self, to: SimTime, out: &mut Decomposed, probe: &mut impl Probe) {
        while let Some(t) = probe.time(Span::EngineNextEvent, || self.engine.next_event_time()) {
            if t > to {
                break;
            }
            self.advance(t, out, probe);
        }
        self.advance(to, out, probe);
    }

    fn drain(&mut self, out: &mut Decomposed, probe: &mut impl Probe) {
        while let Some(t) = probe.time(Span::EngineNextEvent, || self.engine.next_event_time()) {
            self.advance(t, out, probe);
        }
    }

    fn decide(
        &mut self,
        job: &Job,
        out: &mut Decomposed,
        probe: &mut impl Probe,
    ) -> Option<Vec<NodeId>> {
        let nodes = probe.time(Span::Decide, || self.policy.decide(&self.engine, job));
        if let Some(s) = self.policy.last_decision_stats() {
            let t = &mut out.stats;
            t.nodes_considered += s.nodes_considered;
            t.projections_run += s.projections_run;
            t.screen_hits += s.screen_hits;
            t.class_hits += s.class_hits;
            t.pairing_hits += s.pairing_hits;
            t.kernel_bails += s.kernel_bails;
            t.memo_hits += s.memo_hits;
        }
        out.decides += 1;
        out.accepts += u64::from(nodes.is_some());
        nodes
    }

    fn admit(&mut self, job: Job, nodes: Vec<NodeId>, now: SimTime, probe: &mut impl Probe) {
        probe.time(Span::EngineAdmit, || self.engine.admit(job, nodes, now));
    }
}

/// The workload's arrivals on a machine that never fails: recovery after
/// a node failure is the facade's own policy, so the decomposition
/// leaves it out and ignores `inputs.plan`.
pub fn decompose(spec: &Spec, inputs: &Inputs, probe: &mut impl Probe) -> Decomposed {
    let mut parts: Vec<Part> = (0..spec.shards)
        .map(|_| Part {
            engine: ProportionalCluster::new(inputs.part.clone(), ProportionalConfig::default()),
            policy: LibraRisk::paper(),
            buf: Vec::new(),
        })
        .collect();
    let mut out = Decomposed::default();
    for job in inputs.trace.jobs() {
        let now = job.submit;
        let part = &mut parts[job_hash_shard(job.id, spec.shards)];
        part.catch_up(now, &mut out, probe);
        let nodes = part.decide(job, &mut out, probe);
        out.verdicts.push(nodes.is_some());
        if let Some(nodes) = nodes {
            part.admit(job.clone(), nodes, now, probe);
        }
    }
    for part in &mut parts {
        part.drain(&mut out, probe);
    }
    out.completions.sort_unstable();
    out
}
