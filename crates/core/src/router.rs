//! The shard router: N independent [`ClusterRms`] instances behind one
//! submit/advance/drain facade.
//!
//! The unified driver is advance-bound at roughly 10⁵ jobs/s per
//! `ClusterRms`, so the next order of magnitude comes from running many
//! RMS instances, not from a cheaper kernel. [`ShardedRms`] owns N
//! shards — each a full [`ClusterRms`] over its own slice of the
//! machine — routes every arrival to exactly one shard by a hash of
//! its id ([`RouteBy::JobHash`]), and fans `advance`/`drain` out to one
//! scoped worker thread per shard. Each worker streams its resolved
//! [`JobEvent`]s through a bounded SPSC mailbox; the caller's thread
//! runs a barrier-free k-way merge that emits the union of all shard
//! streams in resolution-timestamp order, with every `seq` remapped to
//! the router-wide submission order.
//!
//! # Why sharding preserves the paper's semantics
//!
//! The Libra economy model is per-cluster by construction: an admission
//! decision consults only the shares (or risk projections) of the nodes
//! inside one cluster. A shard therefore behaves *exactly* like an
//! independent `ClusterRms` over its sub-cluster — same decisions, same
//! outcomes, bitwise. With [`RouteBy::JobHash`] the placement of a job
//! depends only on its id, so an N-shard run is structurally equal to
//! the union of N independent single-shard runs over the same
//! partition of the workload (property-tested in
//! `tests/sharded_rms.rs`, and a 1-shard router reproduces the plain
//! facade bitwise).
//!
//! # Mailbox protocol
//!
//! Each worker owns the producer side of one bounded SPSC mailbox and
//! the caller's thread owns all consumer sides. Events travel in
//! chunks (`CHUNK` events per send) so producer and consumer exchange
//! one lock + condvar signal per few hundred events rather than per
//! event. A worker closes its mailbox after its last chunk; the merge
//! terminates when every mailbox is closed and drained. The merge is
//! barrier-free: the caller starts emitting as soon as the earliest
//! head is known, while other shards are still working.

use crate::report::ChurnStats;
use crate::rms::{ClusterRms, Decision, JobEvent};
use sim::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};
use workload::{Job, JobId};

/// A structured router failure: construction without shards, or a shard
/// worker that panicked mid-fan-out. The second case is the router's
/// crash containment — a poisoned shard degrades into an error on the
/// caller's thread instead of cascading a panic through the mailbox
/// locks and aborting the merge.
#[derive(Debug)]
pub enum RouterError {
    /// [`ShardedRms::new`] was given an empty shard vector.
    NoShards,
    /// A shard worker panicked during `advance`/`drain`. Events merged
    /// before the failure were already emitted; the named shard's state
    /// must be considered corrupt (rebuild or restore it from a
    /// checkpoint before further use).
    ShardPanicked {
        /// Index of the shard whose worker panicked.
        shard: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoShards => write!(f, "a sharded RMS needs at least one shard"),
            RouterError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// Events per mailbox send: large enough to amortise the lock + condvar
/// handshake, small enough to keep the merge streaming.
const CHUNK: usize = 256;

/// Mailbox capacity in chunks. Bounds the memory of a fast producer
/// ahead of a slow consumer at `MAILBOX_CAP * CHUNK` buffered events
/// per shard.
const MAILBOX_CAP: usize = 8;

/// How the router places an arrival onto a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteBy {
    /// Stable hash of the job id ([`job_hash_shard`]). Placement depends
    /// only on the job itself, so an N-shard run equals the union of N
    /// independent single-shard runs — the property the differential
    /// suite pins.
    JobHash,
}

/// The stable [`RouteBy::JobHash`] placement: a Fibonacci hash of the
/// job id's high mixing bits, reduced modulo the shard count. Exposed so
/// tests (and external drivers) can reproduce the partition a router
/// will choose.
pub fn job_hash_shard(id: JobId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
}

/// Bounded SPSC mailbox carrying chunks of events from one shard worker
/// to the merging caller thread.
struct Mailbox<T> {
    inner: Mutex<MailboxInner<T>>,
    /// Signalled when a chunk arrives or the box closes (consumer waits).
    recv_cv: Condvar,
    /// Signalled when a chunk leaves (producer waits while full).
    send_cv: Condvar,
}

struct MailboxInner<T> {
    chunks: VecDeque<Vec<T>>,
    closed: bool,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                chunks: VecDeque::new(),
                closed: false,
            }),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        }
    }

    /// Enqueues one chunk, blocking while the box is full. Lock
    /// poisoning is recovered, not propagated: the mailbox holds plain
    /// data (chunks + a closed flag) that stays structurally valid at
    /// every instant a panic could unwind through it, and recovering
    /// here is what lets a panicking worker degrade into a
    /// [`RouterError::ShardPanicked`] instead of poisoning every
    /// sibling's send.
    fn send(&self, chunk: Vec<T>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.chunks.len() >= MAILBOX_CAP {
            // Backpressure: the producer outran the merge. Timed only
            // when it actually happens, so an uncontended send stays
            // one enabled-check away from the uninstrumented path.
            let _wait = obs::phase::span(obs::phase::Phase::MailboxSendWait);
            while inner.chunks.len() >= MAILBOX_CAP {
                inner = self
                    .send_cv
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        inner.chunks.push_back(chunk);
        obs::phase::observe_mailbox_depth(inner.chunks.len());
        drop(inner);
        self.recv_cv.notify_one();
    }

    /// Marks the producer side finished; `recv` drains what remains and
    /// then reports the end of the stream.
    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.recv_cv.notify_one();
    }

    /// Dequeues the next chunk, blocking until one arrives; `None` once
    /// the box is closed and drained.
    fn recv(&self) -> Option<Vec<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(chunk) = inner.chunks.pop_front() {
                drop(inner);
                self.send_cv.notify_one();
                return Some(chunk);
            }
            if inner.closed {
                return None;
            }
            // Merge lag: the consumer is ahead of this shard's stream.
            let _wait = obs::phase::span(obs::phase::Phase::MailboxRecvWait);
            inner = self
                .recv_cv
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// N [`ClusterRms`] shards behind one online facade: route-on-submit,
/// fan-out-and-merge on advance/drain. See the module docs for the
/// protocol and the semantics argument.
pub struct ShardedRms<'p> {
    pub(crate) shards: Vec<ClusterRms<'p>>,
    pub(crate) next_seq: u64,
    /// Per shard: local submission seq → router-wide submission seq.
    /// Workers remap every streamed event through this table, so merged
    /// [`JobEvent::seq`] values are global submission order.
    pub(crate) global_of: Vec<Vec<u64>>,
    /// Churn aggregates inherited from shards that were retired by a
    /// shrinking reshard restore (see [`crate::ckpt::restore_sharded`]);
    /// folded into [`ShardedRms::churn`] so history survives the
    /// reconfiguration. Zero on routers that never resharded.
    pub(crate) carried_churn: ChurnStats,
}

impl<'p> ShardedRms<'p> {
    /// Builds a router over the given shards; errs on an empty shard
    /// vector (there is nothing to route to).
    pub fn new(shards: Vec<ClusterRms<'p>>, route: RouteBy) -> Result<Self, RouterError> {
        let RouteBy::JobHash = route;
        if shards.is_empty() {
            return Err(RouterError::NoShards);
        }
        let n = shards.len();
        Ok(ShardedRms {
            shards,
            next_seq: 0,
            global_of: vec![Vec::new(); n],
            carried_churn: ChurnStats::default(),
        })
    }

    /// Reassembles a router from checkpointed parts (the ckpt module's
    /// restore path). The caller upholds the invariant: one
    /// `global_of` table per shard.
    pub(crate) fn from_parts(
        shards: Vec<ClusterRms<'p>>,
        next_seq: u64,
        global_of: Vec<Vec<u64>>,
        carried_churn: ChurnStats,
    ) -> Self {
        debug_assert_eq!(shards.len(), global_of.len());
        ShardedRms {
            shards,
            next_seq,
            global_of,
            carried_churn,
        }
    }

    /// Number of shards behind the router.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, for inspection (mutation goes through the router).
    pub fn shards(&self) -> &[ClusterRms<'p>] {
        &self.shards
    }

    /// Total jobs submitted through the router.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Jobs currently resident, running or queued across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.in_flight()).sum()
    }

    /// Merged churn aggregates across all shards, including aggregates
    /// carried over from shards retired by a reshard restore.
    pub fn churn(&self) -> ChurnStats {
        let mut total = self.carried_churn;
        for s in &self.shards {
            total.merge(s.churn());
        }
        total
    }

    /// Mean processor utilisation across shards, weighted by each
    /// shard's submitted-job count (matching
    /// [`OnlineReport::merge`](crate::report::OnlineReport::merge)).
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.submitted()).sum();
        if total == 0 {
            return 0.0;
        }
        self.shards
            .iter()
            .map(|s| s.utilization() * s.submitted() as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Routes one arrival to its shard and returns the shard's
    /// irrevocable decision. Runs entirely on the caller's thread — the
    /// shard decides synchronously, exactly as an unsharded
    /// [`ClusterRms::submit`] would over the shard's sub-cluster.
    ///
    /// # Panics
    /// Panics if `now` precedes an earlier submission or advance.
    pub fn submit(&mut self, job: Job, now: SimTime) -> Decision {
        self.submit_routed(job, now).1
    }

    /// [`ShardedRms::submit`], also reporting which shard took the job.
    pub fn submit_routed(&mut self, job: Job, now: SimTime) -> (usize, Decision) {
        let _submit = obs::phase::span(obs::phase::Phase::RouterSubmit);
        // The hash maps an id to the same shard every time, so a
        // duplicate of an in-flight id reaches the shard that holds it,
        // whose own in-flight check rejects it as `InvalidJob`.
        let shard = job_hash_shard(job.id, self.shards.len());
        self.global_of[shard].push(self.next_seq);
        self.next_seq += 1;
        (shard, self.shards[shard].submit(job, now))
    }

    /// Advances every shard to `to` and returns the merged stream of
    /// resolved outcomes, in resolution-timestamp order with global
    /// submission-order `seq`s. See [`ShardedRms::advance_with`] for the
    /// streaming form.
    ///
    /// # Panics
    /// Panics if `to` precedes an earlier submission or advance.
    pub fn advance(&mut self, to: SimTime) -> Result<Vec<JobEvent>, RouterError> {
        let mut out = Vec::new();
        self.advance_with(to, |e| out.push(e))?;
        Ok(out)
    }

    /// Advances every shard to `to` on its own scoped worker thread and
    /// streams the merged outcomes into `emit` as they become available
    /// (barrier-free: the earliest events flow while later shards still
    /// work). `emit` runs on the caller's thread.
    ///
    /// A panicking shard worker does not abort the fan-out: its mailbox
    /// closes, the surviving shards finish their advance and stream
    /// their events, and the first failure comes back as
    /// [`RouterError::ShardPanicked`] after the merge completes.
    pub fn advance_with(
        &mut self,
        to: SimTime,
        emit: impl FnMut(JobEvent),
    ) -> Result<(), RouterError> {
        self.fan_out(Some(to), emit)
    }

    /// Drains every shard to completion and returns the merged residual
    /// outcomes (see [`ShardedRms::advance`] for ordering).
    pub fn drain(&mut self) -> Result<Vec<JobEvent>, RouterError> {
        let mut out = Vec::new();
        self.drain_with(|e| out.push(e))?;
        Ok(out)
    }

    /// Streaming form of [`ShardedRms::drain`] (see
    /// [`ShardedRms::advance_with`] for the failure contract).
    pub fn drain_with(&mut self, emit: impl FnMut(JobEvent)) -> Result<(), RouterError> {
        self.fan_out(None, emit)
    }

    /// Fans one advance (`Some(to)`) or drain (`None`) out to the
    /// shards and merges the streams. A single shard short-circuits to
    /// an inline pass — no thread, no mailbox — which keeps the 1-shard
    /// router on the plain facade's perf envelope and makes the bitwise
    /// 1-shard differential structural (a 1-shard panic therefore
    /// propagates like the plain facade's would).
    ///
    /// Multi-shard workers run inside `catch_unwind`: a panicking shard
    /// closes its mailbox (so the merge still terminates), the payload
    /// is carried back to the caller's thread, and the first failure
    /// surfaces as [`RouterError::ShardPanicked`] once every surviving
    /// stream has been merged.
    fn fan_out(
        &mut self,
        to: Option<SimTime>,
        mut emit: impl FnMut(JobEvent),
    ) -> Result<(), RouterError> {
        let shards = &mut self.shards;
        let global_of = &self.global_of;
        if shards.len() == 1 {
            let map = &global_of[0];
            let remap = |mut e: JobEvent| {
                e.seq = map[e.seq as usize];
                e
            };
            match to {
                Some(t) => shards[0].advance(t).map(remap).for_each(&mut emit),
                None => shards[0].drain().map(remap).for_each(&mut emit),
            }
            return Ok(());
        }
        let mailboxes: Vec<Mailbox<JobEvent>> = (0..shards.len()).map(|_| Mailbox::new()).collect();
        let mut failure: Option<(usize, String)> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards.len());
            for (i, ((shard, mb), map)) in
                shards.iter_mut().zip(&mailboxes).zip(global_of).enumerate()
            {
                handles.push((
                    i,
                    scope.spawn(move || {
                        let result = catch_unwind(AssertUnwindSafe(|| match to {
                            Some(t) => pump(shard.advance(t), map, mb),
                            None => pump(shard.drain(), map, mb),
                        }))
                        .map_err(|payload| {
                            // The pump never reached its close: release
                            // the consumer so the merge can terminate.
                            mb.close();
                            panic_message(payload.as_ref())
                        });
                        // Fold this worker's profiler spans into the
                        // globals before the join: the scope does not
                        // order thread-local destructors before it.
                        obs::phase::flush();
                        result
                    }),
                ));
            }
            merge_mailboxes(&mailboxes, &mut emit);
            for (i, handle) in handles {
                let msg = match handle.join() {
                    Ok(Ok(())) => continue,
                    Ok(Err(msg)) => msg,
                    // The worker closure itself panicked outside the
                    // catch (out of memory unwinds, say): same contract.
                    Err(payload) => panic_message(payload.as_ref()),
                };
                if failure.is_none() {
                    failure = Some((i, msg));
                }
            }
        });
        match failure {
            Some((shard, message)) => Err(RouterError::ShardPanicked { shard, message }),
            None => Ok(()),
        }
    }
}

/// Renders a panic payload for [`RouterError::ShardPanicked`]: the
/// string forms `panic!` produces, or a placeholder for exotic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker side of the mailbox protocol: remap local seqs to global ones
/// and ship events in chunks, closing the box at the end of the stream.
fn pump(events: impl Iterator<Item = JobEvent>, map: &[u64], mb: &Mailbox<JobEvent>) {
    let mut chunk = Vec::with_capacity(CHUNK);
    for mut e in events {
        e.seq = map[e.seq as usize];
        chunk.push(e);
        if chunk.len() == CHUNK {
            mb.send(std::mem::replace(&mut chunk, Vec::with_capacity(CHUNK)));
        }
    }
    if !chunk.is_empty() {
        mb.send(chunk);
    }
    mb.close();
}

/// Caller side: k-way merge of the shard streams by resolution
/// timestamp. Each shard's own stream is nondecreasing in
/// [`Outcome::resolved_at`](crate::report::Outcome::resolved_at) (the
/// facade resolves outcomes in time order), so comparing only the
/// current heads yields a globally time-ordered merge; equal timestamps
/// break ties by global submission seq, which is unique.
fn merge_mailboxes(mailboxes: &[Mailbox<JobEvent>], emit: &mut impl FnMut(JobEvent)) {
    let _merge = obs::phase::span(obs::phase::Phase::RouterMerge);
    let n = mailboxes.len();
    let mut bufs: Vec<std::vec::IntoIter<JobEvent>> =
        (0..n).map(|_| Vec::new().into_iter()).collect();
    let mut heads: Vec<Option<JobEvent>> = (0..n).map(|_| None).collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::with_capacity(n);
    let next_of = |buf: &mut std::vec::IntoIter<JobEvent>, mb: &Mailbox<JobEvent>| loop {
        if let Some(e) = buf.next() {
            return Some(e);
        }
        match mb.recv() {
            Some(chunk) => *buf = chunk.into_iter(),
            None => return None,
        }
    };
    for s in 0..n {
        if let Some(e) = next_of(&mut bufs[s], &mailboxes[s]) {
            heap.push(Reverse((e.record.outcome.resolved_at(), e.seq, s)));
            heads[s] = Some(e);
        }
    }
    while let Some(Reverse((_, _, s))) = heap.pop() {
        let e = heads[s].take().expect("head present for popped shard");
        emit(e);
        if let Some(e) = next_of(&mut bufs[s], &mailboxes[s]) {
            heap.push(Reverse((e.record.outcome.resolved_at(), e.seq, s)));
            heads[s] = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libra::Libra;
    use cluster::proportional::ProportionalConfig;
    use cluster::Cluster;
    use sim::SimDuration;
    use workload::Urgency;

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

    fn shard() -> ClusterRms<'static> {
        ClusterRms::proportional(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        )
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The first `per` ids [`job_hash_shard`] places on each of `n`
    /// shards, interleaved so consecutive ids land on shards
    /// 0, 1, …, n-1, 0, 1, ….
    fn spread_ids(n: usize, per: usize) -> Vec<u64> {
        let mut on: Vec<Vec<u64>> = vec![Vec::new(); n];
        for id in 0.. {
            if on.iter().all(|ids| ids.len() == per) {
                break;
            }
            let s = job_hash_shard(JobId(id), n);
            if on[s].len() < per {
                on[s].push(id);
            }
        }
        (0..per)
            .flat_map(|i| on.iter().map(move |ids| ids[i]))
            .collect()
    }

    #[test]
    fn mailbox_delivers_in_order_and_terminates() {
        let mb: Mailbox<u32> = Mailbox::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for base in 0..32u32 {
                    mb.send((base * 4..base * 4 + 4).collect());
                }
                mb.close();
                obs::phase::flush();
            });
            let mut got = Vec::new();
            while let Some(chunk) = mb.recv() {
                got.extend(chunk);
            }
            assert_eq!(got, (0..128).collect::<Vec<u32>>());
        });
        // Closed and drained: recv keeps reporting the end of stream.
        assert_eq!(mb.recv(), None);
    }

    #[test]
    fn duplicate_in_flight_ids_go_back_to_their_shard() {
        use crate::report::Outcome;
        use obs::RejectReason;
        let mut rms = ShardedRms::new(vec![shard(), shard()], RouteBy::JobHash).unwrap();
        let mut events = Vec::new();
        let (home, first) = rms.submit_routed(job(7, 0.0, 100.0, 1, 10_000.0), t(0.0));
        assert_eq!(first, Decision::Accepted);
        events.extend(rms.advance(t(1.0)).unwrap());
        let (shard, dup) = rms.submit_routed(job(7, 1.0, 100.0, 1, 10_000.0), t(1.0));
        assert_eq!(
            dup,
            Decision::Rejected(RejectReason::InvalidJob),
            "an in-flight id must be refused"
        );
        assert_eq!(shard, home);
        assert_eq!(rms.in_flight(), 1, "the duplicate was admitted");
        // Once job 7 resolved, its id is free again.
        events.extend(rms.advance(t(20_000.0)).unwrap());
        let again = rms.submit(job(7, 20_000.0, 100.0, 1, 10_000.0), t(20_000.0));
        assert_eq!(again, Decision::Accepted);
        events.extend(rms.drain().unwrap());
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2], "every submission resolves once");
        let dup = events
            .iter()
            .find(|e| e.seq == 1)
            .expect("duplicate resolved");
        assert_eq!(
            dup.record.outcome,
            Outcome::Rejected {
                at: t(1.0),
                reason: RejectReason::InvalidJob
            }
        );
    }

    #[test]
    fn job_hash_is_order_independent_and_in_range() {
        for shards in [1usize, 2, 4, 8, 64] {
            for id in 0..256u64 {
                let s = job_hash_shard(JobId(id), shards);
                assert!(s < shards);
                assert_eq!(s, job_hash_shard(JobId(id), shards));
            }
        }
    }

    #[test]
    fn merged_stream_is_time_ordered_with_global_seqs() {
        let mut rms = ShardedRms::new(vec![shard(), shard()], RouteBy::JobHash).unwrap();
        // Alternating shards and staggered runtimes, so completions
        // interleave across shards.
        for (i, id) in spread_ids(2, 4).into_iter().enumerate() {
            let d = rms.submit(job(id, 0.0, 40.0 + 13.0 * i as f64, 1, 5000.0), t(0.0));
            assert_eq!(d, Decision::Accepted);
        }
        let events = rms.drain().unwrap();
        assert_eq!(events.len(), 8);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let stamps: Vec<SimTime> = events
            .iter()
            .map(|e| e.record.outcome.resolved_at())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "time-ordered");
        seqs.sort_unstable();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>(), "global seqs, each once");
        assert_eq!(rms.submitted(), 8);
        assert_eq!(rms.in_flight(), 0);
        assert!(rms.utilization() > 0.0);
    }

    #[test]
    fn empty_router_is_a_constructor_error() {
        let err = ShardedRms::new(Vec::new(), RouteBy::JobHash)
            .err()
            .expect("zero shards must be refused");
        assert!(matches!(err, RouterError::NoShards));
        assert_eq!(err.to_string(), "a sharded RMS needs at least one shard");
    }

    /// A recorder that (when armed) panics on worker-side events
    /// (advance spans), staying quiet through the caller-thread submit
    /// hooks — the smallest way to detonate a shard worker mid-fan-out.
    /// The disarmed instances exist so every shard shares one recorder
    /// lifetime (`ClusterRms` is invariant over it).
    struct AdvanceBomb {
        armed: bool,
    }

    impl obs::Recorder for AdvanceBomb {
        fn record(&mut self, _sim_secs: f64, event: obs::Event) {
            if self.armed && matches!(event, obs::Event::AdvanceSpan { .. }) {
                panic!("advance bomb detonated");
            }
        }
    }

    #[test]
    fn panicking_shard_degrades_into_a_structured_error() {
        let mut b0 = AdvanceBomb { armed: false };
        let mut b1 = AdvanceBomb { armed: true };
        let mut b2 = AdvanceBomb { armed: false };
        let shards = vec![
            shard().with_recorder(&mut b0),
            shard().with_recorder(&mut b1),
            shard().with_recorder(&mut b2),
        ];
        let mut rms = ShardedRms::new(shards, RouteBy::JobHash).unwrap();
        for (i, id) in spread_ids(3, 2).into_iter().enumerate() {
            let (shard, _) =
                rms.submit_routed(job(id, 0.0, 40.0 + 9.0 * i as f64, 1, 5000.0), t(0.0));
            assert_eq!(shard, i % 3);
        }
        let mut events = Vec::new();
        let err = rms
            .drain_with(|e| events.push(e))
            .expect_err("the bombed shard must surface as an error");
        match err {
            RouterError::ShardPanicked { shard, message } => {
                assert_eq!(shard, 1);
                assert!(message.contains("advance bomb"), "payload: {message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The surviving shards still streamed their outcomes (shards 0
        // and 2 took four of the six jobs) and the router stays usable
        // for inspection — no poisoned locks, no aborted process.
        assert_eq!(events.len(), 4);
        assert_eq!(rms.submitted(), 6);
        let _ = rms.utilization();
    }
}
