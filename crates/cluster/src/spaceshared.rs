//! Space-shared processor pool (the substrate EDF and FCFS run on).
//!
//! Each processor executes a single job at a time (§4: EDF "executes only
//! a single job on a processor at any time (space-shared)"). Starting a
//! job occupies `numproc` processors for exactly its actual runtime
//! (scaled by the slowest allocated node's speed factor); the finish
//! instant is known at start, so the caller schedules one completion
//! event per started job.

use crate::cluster::Cluster;
use crate::node::NodeId;
use sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use workload::{Job, JobId};

/// A running space-shared job.
#[derive(Clone, Debug)]
struct RunningJob {
    job: Job,
    nodes: Vec<NodeId>,
    started: SimTime,
    finish: SimTime,
    /// Start order, used to break ties among simultaneous finishes the
    /// same way an event queue would (FIFO by schedule order).
    seq: u64,
}

/// Canonical state of one running job, as carried by [`PoolSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunningSnapshot {
    /// The job itself.
    pub job: Job,
    /// Allocated nodes, in allocation order.
    pub nodes: Vec<NodeId>,
    /// Start instant.
    pub started: SimTime,
    /// Precomputed finish instant.
    pub finish: SimTime,
    /// Start sequence (finish-tie breaker).
    pub seq: u64,
}

/// Canonical state of a [`SpaceSharedCluster`], sufficient to rebuild
/// the pool bit-for-bit: the free list and finish heap are derived.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PoolSnapshot {
    /// Running jobs in ascending-id order.
    pub running: Vec<RunningSnapshot>,
    /// Busy processor-seconds over `[0, last_update]`.
    pub busy_integral: f64,
    /// Down processor-seconds over `[0, last_update]`.
    pub down_integral: f64,
    /// Instant up to which the integrals are accounted.
    pub last_update: SimTime,
    /// Next start sequence to hand out.
    pub start_seq: u64,
    /// Per-node down flags.
    pub down: Vec<bool>,
}

/// The space-shared cluster engine.
#[derive(Clone, Debug)]
pub struct SpaceSharedCluster {
    cluster: Cluster,
    free: Vec<NodeId>,
    running: BTreeMap<JobId, RunningJob>,
    busy_integral: f64,
    /// Processor-seconds spent down over `[0, last_update]`; excluded
    /// from the utilisation denominator (churn is lost capacity, not
    /// idleness). Exactly `0.0` on fault-free runs, keeping their
    /// utilisation bitwise unchanged.
    down_integral: f64,
    last_update: SimTime,
    /// Min-heap of `(finish, start seq, id)` surfacing the next
    /// completion without an external event queue. Entries for jobs
    /// completed through [`SpaceSharedCluster::complete`] go stale and
    /// are lazily discarded when they reach the top.
    finish_heap: BinaryHeap<Reverse<(SimTime, u64, JobId)>>,
    start_seq: u64,
    /// Per-node down flags; a down node is neither free nor busy.
    down: Vec<bool>,
    down_count: usize,
}

impl SpaceSharedCluster {
    /// Creates an idle pool over the cluster.
    pub fn new(cluster: Cluster) -> Self {
        // Free list kept sorted descending so `pop` hands out the
        // lowest-id node first (deterministic allocations).
        let mut free: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id).collect();
        free.reverse();
        let down = vec![false; cluster.len()];
        SpaceSharedCluster {
            cluster,
            free,
            running: BTreeMap::new(),
            busy_integral: 0.0,
            down_integral: 0.0,
            last_update: SimTime::ZERO,
            finish_heap: BinaryHeap::new(),
            start_seq: 0,
            down,
            down_count: 0,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of idle processors.
    pub fn free_procs(&self) -> usize {
        self.free.len()
    }

    /// Number of running jobs.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// Each running job with its start instant, in ascending-id order.
    pub fn running(&self) -> impl Iterator<Item = (&Job, SimTime)> {
        self.running.values().map(|r| (&r.job, r.started))
    }

    /// `true` when the job can start right now.
    pub fn can_start(&self, job: &Job) -> bool {
        job.procs as usize <= self.free.len()
    }

    /// Returns a node to the free pool at its sorted (descending-id)
    /// position. Ids are unique, so the pool after k insertions is
    /// exactly the list the historical `extend + sort` produced — minus
    /// the full re-sort per completion/fail/restore event.
    fn free_insert(&mut self, n: NodeId) {
        let pos = self.free.partition_point(|x| *x > n);
        self.free.insert(pos, n);
    }

    /// Starts a job at `now` on the lowest-id free processors; returns the
    /// completion instant the caller must schedule.
    ///
    /// # Panics
    /// Panics if not enough processors are free.
    pub fn start(&mut self, job: Job, now: SimTime) -> SimTime {
        assert!(
            self.can_start(&job),
            "{} needs {} procs, {} free",
            job.id,
            job.procs,
            self.free.len()
        );
        self.account(now);
        let mut nodes = Vec::with_capacity(job.procs as usize);
        for _ in 0..job.procs {
            nodes.push(self.free.pop().expect("checked free count"));
        }
        // On heterogeneous nodes the gang advances at the slowest member.
        let slowest = nodes
            .iter()
            .map(|n| self.cluster.speed_factor(*n))
            .fold(f64::INFINITY, f64::min);
        let duration = SimDuration::from_secs(job.runtime.as_secs() / slowest);
        let finish = now + duration;
        let id = job.id;
        let seq = self.start_seq;
        self.start_seq += 1;
        self.finish_heap.push(Reverse((finish, seq, id)));
        self.running.insert(
            id,
            RunningJob {
                job,
                nodes,
                started: now,
                finish,
                seq,
            },
        );
        finish
    }

    /// The instant of the earliest pending completion, if any job is
    /// running. Simultaneous finishes are surfaced in start order, so
    /// repeatedly draining [`SpaceSharedCluster::complete_next`] visits
    /// completions exactly as an event queue with FIFO ties would.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        while let Some(Reverse((finish, seq, id))) = self.finish_heap.peek().copied() {
            match self.running.get(&id) {
                Some(r) if r.seq == seq => return Some(finish),
                // Stale: completed out-of-band via `complete`.
                _ => {
                    self.finish_heap.pop();
                }
            }
        }
        None
    }

    /// Completes the earliest-finishing running job (start order breaks
    /// ties), freeing its processors and accounting utilisation up to its
    /// finish instant. Returns `(job, started, finish)`.
    ///
    /// # Panics
    /// Panics if no job is running.
    pub fn complete_next(&mut self) -> (Job, SimTime, SimTime) {
        let finish = self
            .next_completion_time()
            .expect("complete_next on an idle pool");
        let Reverse((_, _, id)) = self.finish_heap.pop().expect("peeked entry present");
        let (job, started) = self.complete(id, finish);
        (job, started, finish)
    }

    /// Completes a running job at `now`, freeing its processors. Returns
    /// `(job, started)`.
    ///
    /// # Panics
    /// Panics if the job is not running or `now` differs from its
    /// precomputed finish instant.
    pub fn complete(&mut self, id: JobId, now: SimTime) -> (Job, SimTime) {
        self.account(now);
        let r = self
            .running
            .remove(&id)
            .unwrap_or_else(|| panic!("{id} is not running"));
        assert_eq!(
            r.finish, now,
            "{id} completes at {:?}, not {:?}",
            r.finish, now
        );
        for &n in &r.nodes {
            self.free_insert(n);
        }
        (r.job, r.started)
    }

    /// `true` when the node has not been failed (or has been restored).
    #[inline]
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.down[node.0 as usize]
    }

    /// Number of processors that are not down (free or busy).
    pub fn up_procs(&self) -> usize {
        self.cluster.len() - self.down_count
    }

    /// Fails a node at `now`. An idle node simply leaves the free pool;
    /// a hosting node displaces its resident gang job — the *whole* gang
    /// loses its work, the job's other processors are freed, and the
    /// displaced `(job, started)` is returned for the caller's recovery
    /// policy. The job's pending finish-heap entry goes stale and is
    /// lazily discarded, exactly like an out-of-band `complete`.
    ///
    /// # Panics
    /// Panics if the node is already down.
    pub fn fail_node(&mut self, node: NodeId, now: SimTime) -> Option<(Job, SimTime)> {
        assert!(self.node_is_up(node), "{node} is already down");
        self.account(now);
        self.down[node.0 as usize] = true;
        self.down_count += 1;
        if let Some(pos) = self.free.iter().position(|n| *n == node) {
            self.free.remove(pos);
            return None;
        }
        let id = self
            .running
            .iter()
            .find(|(_, r)| r.nodes.contains(&node))
            .map(|(id, _)| *id)
            .expect("a non-free up node hosts a job");
        let r = self.running.remove(&id).expect("found above");
        for &n in r.nodes.iter().filter(|n| **n != node) {
            self.free_insert(n);
        }
        Some((r.job, r.started))
    }

    /// Restores a failed node at `now`: it rejoins the free pool empty.
    ///
    /// # Panics
    /// Panics if the node is not down.
    pub fn restore_node(&mut self, node: NodeId, now: SimTime) {
        assert!(!self.node_is_up(node), "{node} is not down");
        self.account(now);
        self.down[node.0 as usize] = false;
        self.down_count -= 1;
        self.free_insert(node);
    }

    /// Mean processor utilisation over `[0, now]`, relative to the
    /// capacity that was actually *up* — processor-seconds spent down
    /// are excluded from the denominator. Call after the final
    /// completion to get the run's figure.
    pub fn utilization(&self) -> f64 {
        let elapsed = self.last_update.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let capacity = elapsed * self.cluster.len() as f64 - self.down_integral;
        if capacity <= 0.0 {
            return 0.0;
        }
        self.busy_integral / capacity
    }

    /// Extracts the canonical pool state (see [`PoolSnapshot`]).
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            // BTreeMap iteration is ascending by id already.
            running: self
                .running
                .values()
                .map(|r| RunningSnapshot {
                    job: r.job.clone(),
                    nodes: r.nodes.clone(),
                    started: r.started,
                    finish: r.finish,
                    seq: r.seq,
                })
                .collect(),
            busy_integral: self.busy_integral,
            down_integral: self.down_integral,
            last_update: self.last_update,
            start_seq: self.start_seq,
            down: self.down.clone(),
        }
    }

    /// Rebuilds a pool from a snapshot over `cluster`. The free list
    /// (up nodes hosting nothing, sorted descending) and the finish
    /// heap are reconstructed from the canonical state; the result is
    /// observationally identical to the pool the snapshot was taken
    /// from — the only difference is the absence of stale finish-heap
    /// entries, which the live pool discards lazily anyway.
    ///
    /// Returns a description of the first violated invariant instead of
    /// panicking, so checkpoint restore can surface corruption as a
    /// structured error.
    pub fn from_snapshot(cluster: Cluster, snap: &PoolSnapshot) -> Result<Self, String> {
        let n = cluster.len();
        if snap.down.len() != n {
            return Err(format!(
                "down flags cover {} nodes, cluster has {n}",
                snap.down.len()
            ));
        }
        let mut hosted = vec![false; n];
        let mut running = BTreeMap::new();
        let mut finish_heap = BinaryHeap::new();
        for r in &snap.running {
            if r.nodes.is_empty() || r.nodes.len() != r.job.procs as usize {
                return Err(format!("{} node list does not match procs", r.job.id));
            }
            if r.seq >= snap.start_seq {
                return Err(format!("{} seq beyond start_seq", r.job.id));
            }
            for node in &r.nodes {
                let i = node.0 as usize;
                if i >= n {
                    return Err(format!("{} hosts on unknown {node}", r.job.id));
                }
                if hosted[i] {
                    return Err(format!("{node} hosts two jobs"));
                }
                if snap.down[i] {
                    return Err(format!("{} hosts on down {node}", r.job.id));
                }
                hosted[i] = true;
            }
            finish_heap.push(Reverse((r.finish, r.seq, r.job.id)));
            if running
                .insert(
                    r.job.id,
                    RunningJob {
                        job: r.job.clone(),
                        nodes: r.nodes.clone(),
                        started: r.started,
                        finish: r.finish,
                        seq: r.seq,
                    },
                )
                .is_some()
            {
                return Err(format!("{} appears twice", r.job.id));
            }
        }
        // Free = up and not hosting, descending so `pop` hands out the
        // lowest id first (the invariant `free_insert` maintains).
        let free: Vec<NodeId> = (0..n)
            .rev()
            .filter(|&i| !snap.down[i] && !hosted[i])
            .map(|i| NodeId(i as u32))
            .collect();
        let down_count = snap.down.iter().filter(|d| **d).count();
        Ok(SpaceSharedCluster {
            cluster,
            free,
            running,
            busy_integral: snap.busy_integral,
            down_integral: snap.down_integral,
            last_update: snap.last_update,
            finish_heap,
            start_seq: snap.start_seq,
            down: snap.down.clone(),
            down_count,
        })
    }

    fn account(&mut self, now: SimTime) {
        assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).as_secs();
        // Down nodes are neither free nor busy: they deliver no work.
        let busy = self.cluster.len() - self.free.len() - self.down_count;
        self.busy_integral += busy as f64 * dt;
        // Skipped entirely when nothing is down so fault-free runs stay
        // bitwise identical to the pre-churn accounting.
        if self.down_count > 0 {
            self.down_integral += self.down_count as f64 * dt;
        }
        self.last_update = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Urgency;

    fn job(id: u64, runtime: f64, procs: u32) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::ZERO,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(runtime),
            procs,
            deadline: SimDuration::from_secs(runtime * 2.0),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn start_and_complete_roundtrip() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(4, 168.0));
        assert_eq!(p.free_procs(), 4);
        let finish = p.start(job(1, 100.0, 3), SimTime::ZERO);
        assert_eq!(finish, SimTime::from_secs(100.0));
        assert_eq!(p.free_procs(), 1);
        assert_eq!(p.running_jobs(), 1);
        let (j, started) = p.complete(JobId(1), finish);
        assert_eq!(j.id, JobId(1));
        assert_eq!(started, SimTime::ZERO);
        assert_eq!(p.free_procs(), 4);
    }

    #[test]
    fn can_start_checks_capacity() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(4, 168.0));
        p.start(job(1, 10.0, 3), SimTime::ZERO);
        assert!(p.can_start(&job(2, 10.0, 1)));
        assert!(!p.can_start(&job(3, 10.0, 2)));
    }

    #[test]
    #[should_panic(expected = "procs")]
    fn overcommit_panics() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.start(job(1, 10.0, 3), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn completing_unknown_job_panics() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.complete(JobId(9), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "completes at")]
    fn completing_at_wrong_instant_panics() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.start(job(1, 100.0, 1), SimTime::ZERO);
        p.complete(JobId(1), SimTime::from_secs(50.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn accounting_rejects_time_travel() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.start(job(1, 100.0, 1), SimTime::from_secs(10.0));
        p.start(job(2, 100.0, 1), SimTime::from_secs(5.0));
    }

    #[test]
    fn heterogeneous_gang_runs_at_slowest_member() {
        let nodes = vec![
            crate::node::Node::new(NodeId(0), 168.0),
            crate::node::Node::new(NodeId(1), 336.0),
        ];
        let c = Cluster::new(nodes, 168.0);
        let mut p = SpaceSharedCluster::new(c);
        // Lowest ids first → gets node 0 (slow) and node 1 (fast): the
        // gang runs at factor 1.0.
        let finish = p.start(job(1, 100.0, 2), SimTime::ZERO);
        assert_eq!(finish, SimTime::from_secs(100.0));
    }

    #[test]
    fn fast_node_alone_shortens_runtime() {
        let nodes = vec![
            crate::node::Node::new(NodeId(0), 336.0),
            crate::node::Node::new(NodeId(1), 168.0),
        ];
        let c = Cluster::new(nodes, 168.0);
        let mut p = SpaceSharedCluster::new(c);
        let finish = p.start(job(1, 100.0, 1), SimTime::ZERO);
        // Node 0 (factor 2) is handed out first.
        assert_eq!(finish, SimTime::from_secs(50.0));
    }

    #[test]
    fn utilization_integrates_busy_processors() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        let f = p.start(job(1, 100.0, 1), SimTime::ZERO);
        p.complete(JobId(1), f);
        // One of two processors busy for the whole span.
        assert!((p.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn next_completion_surfaces_in_finish_then_start_order() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(4, 168.0));
        assert_eq!(p.next_completion_time(), None);
        p.start(job(1, 100.0, 1), SimTime::ZERO);
        p.start(job(2, 50.0, 1), SimTime::ZERO);
        p.start(job(3, 50.0, 1), SimTime::ZERO);
        assert_eq!(p.next_completion_time(), Some(SimTime::from_secs(50.0)));
        // Ties break by start order: job 2 before job 3.
        let (j, started, finish) = p.complete_next();
        assert_eq!(j.id, JobId(2));
        assert_eq!(started, SimTime::ZERO);
        assert_eq!(finish, SimTime::from_secs(50.0));
        let (j, _, _) = p.complete_next();
        assert_eq!(j.id, JobId(3));
        let (j, _, finish) = p.complete_next();
        assert_eq!(j.id, JobId(1));
        assert_eq!(finish, SimTime::from_secs(100.0));
        assert_eq!(p.next_completion_time(), None);
        assert_eq!(p.free_procs(), 4);
    }

    #[test]
    fn out_of_band_complete_leaves_no_stale_surfacing() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.start(job(1, 10.0, 1), SimTime::ZERO);
        p.start(job(2, 20.0, 1), SimTime::ZERO);
        // Complete job 1 through the legacy by-id path; the heap entry it
        // left behind must be skipped.
        p.complete(JobId(1), SimTime::from_secs(10.0));
        assert_eq!(p.next_completion_time(), Some(SimTime::from_secs(20.0)));
        let (j, _, _) = p.complete_next();
        assert_eq!(j.id, JobId(2));
    }

    #[test]
    #[should_panic(expected = "idle pool")]
    fn complete_next_on_idle_pool_panics() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.complete_next();
    }

    #[test]
    fn failing_idle_node_shrinks_capacity() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(3, 168.0));
        assert_eq!(p.fail_node(NodeId(1), SimTime::ZERO), None);
        assert_eq!(p.free_procs(), 2);
        assert_eq!(p.up_procs(), 2);
        assert!(!p.node_is_up(NodeId(1)));
        // Allocation skips the down node.
        p.start(job(1, 10.0, 2), SimTime::ZERO);
        let r = p.running.get(&JobId(1)).unwrap();
        assert_eq!(r.nodes, vec![NodeId(0), NodeId(2)]);
        p.restore_node(NodeId(1), SimTime::from_secs(5.0));
        assert_eq!(p.up_procs(), 3);
        assert_eq!(p.free_procs(), 1);
    }

    #[test]
    fn failing_hosting_node_displaces_the_whole_gang() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(4, 168.0));
        p.start(job(1, 100.0, 3), SimTime::ZERO);
        p.start(job(2, 100.0, 1), SimTime::ZERO);
        let (j, started) = p.fail_node(NodeId(1), SimTime::from_secs(30.0)).unwrap();
        assert_eq!(j.id, JobId(1));
        assert_eq!(started, SimTime::ZERO);
        // Nodes 0 and 2 come back free; node 1 is down, node 3 still busy.
        assert_eq!(p.free, vec![NodeId(2), NodeId(0)]);
        assert_eq!(p.running_jobs(), 1);
        // The displaced job's finish-heap entry is stale, not surfaced.
        assert_eq!(p.next_completion_time(), Some(SimTime::from_secs(100.0)));
        let (j, _, _) = p.complete_next();
        assert_eq!(j.id, JobId(2));
    }

    #[test]
    fn down_nodes_do_not_count_as_busy_in_utilization() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.fail_node(NodeId(0), SimTime::ZERO);
        let f = p.start(job(1, 100.0, 1), SimTime::ZERO);
        p.complete(JobId(1), f);
        // The one *up* processor was busy the whole span; the down node
        // is lost capacity, not idleness.
        assert!((p.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn down_time_leaves_the_utilization_denominator() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        // Both up: one of two processors busy over [0, 100] → 100 busy
        // proc-seconds of 200 available.
        let f = p.start(job(1, 100.0, 1), SimTime::ZERO);
        p.complete(JobId(1), f);
        assert!((p.utilization() - 0.5).abs() < 1e-9);
        // Node 0 down over [100, 200] while the other runs: +100 busy of
        // +100 available → 200 busy / 300 available overall.
        p.fail_node(NodeId(0), f);
        let f2 = p.start(job(2, 100.0, 1), f);
        p.complete(JobId(2), f2);
        assert!((p.utilization() - 200.0 / 300.0).abs() < 1e-9);
        // Restoring the node resumes full-capacity accounting: an idle
        // [200, 300] adds 200 available proc-seconds and no busy ones.
        p.restore_node(NodeId(0), f2);
        p.account(SimTime::from_secs(300.0));
        assert!((p.utilization() - 200.0 / 500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(2, 168.0));
        p.fail_node(NodeId(0), SimTime::ZERO);
        p.fail_node(NodeId(0), SimTime::ZERO);
    }

    #[test]
    fn processors_are_reused_deterministically() {
        let mut p = SpaceSharedCluster::new(Cluster::homogeneous(3, 168.0));
        let f1 = p.start(job(1, 10.0, 2), SimTime::ZERO);
        p.start(job(2, 50.0, 1), SimTime::ZERO);
        p.complete(JobId(1), f1);
        assert_eq!(p.free_procs(), 2);
        // Restarting grabs the lowest ids again.
        let _ = p.start(job(3, 10.0, 2), f1);
        assert_eq!(p.free_procs(), 0);
    }
}
