//! The live deadline-based proportional-share execution engine (§3.1).
//!
//! Every resident job on a node requires processor share
//! `s_ij = remaining_runtime_ij / remaining_deadline_i` (Eq. 1). The
//! engine turns shares into execution *rates* (renormalising when a node
//! is overloaded), advances all jobs piecewise-linearly between events,
//! and recomputes rates at every event.
//!
//! Two parallel notions of "remaining work" are tracked:
//!
//! * **actual** remaining work — decides when the job really completes;
//! * **estimated** remaining work — what the scheduler believes, seeded
//!   from the user estimate.
//!
//! When the estimate is an over-estimate the job completes while the
//! scheduler still believes work remains (capacity was held
//! conservatively); when it is an under-estimate the estimated work
//! exhausts first and the engine re-arms a *residual* estimate — the job
//! overruns, its share stays occupied longer than promised, and
//! co-resident jobs get squeezed. Those are precisely the two failure
//! modes of inaccurate estimates the paper studies.
//!
//! Multi-processor jobs are gang-scheduled over `numproc` nodes: the job's
//! progress rate is the minimum rate its nodes grant (a slower member
//! stalls the gang; surplus allocation on faster members idles).
//!
//! # Storage layout
//!
//! Residents live in a slot arena: scalar hot fields (`rate`,
//! `remaining_work`, `remaining_est`, cached deadline) are struct-of-arrays
//! vectors indexed by a stable slot, and the cold per-job state (the `Job`
//! itself, start instant, overrun count) sits in a parallel `meta` arena
//! touched only on structural events. A gang's member nodes are kept
//! once, as its run in a flat arena (`gang_nodes`). Iteration order is
//! fixed by `order`, the live slots sorted by ascending `JobId` — exactly
//! the order the previous `BTreeMap` storage iterated in, so every
//! floating-point reduction (share totals, busy integrals, event-gap
//! minima) accumulates in the same sequence and stays bitwise identical
//! to the retained [`ProportionalCluster::advance_reference`] oracle.
//!
//! The advance hot path is allocation-free: share totals, the per-slot
//! share scratch, and the completion/victim worklists are engine-owned
//! buffers reused across calls. The share totals (one per resident-set
//! group, see `totals_scratch`) are kept exact at every change, but
//! rates and the next event gap are derived only when something reads
//! them (see `settle`), so an instant's advance, admissions and failure
//! evictions share one rate pass.

use crate::cluster::Cluster;
use crate::node::NodeId;
use crate::projection::{ProjectedJob, ShareDiscipline, EPS_DEADLINE, EPS_WORK};
use sim::{SimDuration, SimTime};
use workload::{Job, JobId};

/// The projection-input view of a not-yet-admitted job: its *full*
/// estimate over its absolute deadline (exactly what
/// [`ProportionalCluster::node_projection`] appends as the tentative
/// `extra` job).
pub fn projected_job(job: &Job) -> ProjectedJob {
    ProjectedJob {
        remaining_est: job.estimate.as_secs().max(EPS_WORK),
        abs_deadline: job.absolute_deadline().as_secs(),
    }
}

/// When a job overruns its estimate, the scheduler re-arms its belief to
/// `RESIDUAL_FRACTION × original_estimate`, floored at [`RESIDUAL_FLOOR`].
pub const RESIDUAL_FRACTION: f64 = 0.05;

/// Minimum re-armed residual estimate, reference-seconds.
pub const RESIDUAL_FLOOR: f64 = 30.0;

/// Upper bound on the gap between rate recomputations, seconds: keeps
/// shares tracking their continuously-drifting ideal between sparse
/// events, and wakes a node whose residents are all rate-starved with no
/// deadline ahead.
pub const MAX_QUANTUM: f64 = 3600.0;

/// Applies the quantum cap and the zero-step floor to a raw event gap.
/// The cap also turns an infinite gap (every resident rate-starved with
/// no deadline ahead) into a conservative wake.
// Not `clamp`: `min` maps a NaN gap to the quantum, `clamp` would pass
// it through.
#[allow(clippy::manual_clamp)]
fn bound_event_gap(dt: f64) -> f64 {
    // Never return a zero step: float fuzz could stall the caller loop.
    dt.min(MAX_QUANTUM).max(1e-3)
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProportionalConfig {
    /// How spare node capacity is treated (Libra's published allocation is
    /// [`ShareDiscipline::Strict`]).
    pub discipline: ShareDiscipline,
}

impl Default for ProportionalConfig {
    fn default() -> Self {
        ProportionalConfig {
            // Work-conserving matches GridSim's time-shared machines (the
            // paper's substrate): the Eq. 1 share is the *guaranteed
            // minimum*, and spare capacity is redistributed proportionally.
            // `Strict` (jobs run at exactly their share, spare capacity
            // idles) is kept as an ablation.
            discipline: ShareDiscipline::WorkConserving,
        }
    }
}

/// A job that finished execution.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// The job.
    pub job: Job,
    /// When it started executing (its admission instant — proportional
    /// share starts jobs immediately).
    pub started: SimTime,
    /// When its actual work completed.
    pub finish: SimTime,
    /// How many times it overran its (re-armed) estimate.
    pub overruns: u32,
}

/// A resident job evicted by a node failure, with the progress state the
/// caller's recovery policy needs (a gang job dies with *any* of its
/// member nodes; its survivors' capacity is freed).
#[derive(Clone, Debug)]
pub struct DisplacedJob {
    /// The job as admitted.
    pub job: Job,
    /// When it started executing.
    pub started: SimTime,
    /// Actual work left, reference-seconds.
    pub remaining_work: f64,
    /// Scheduler-believed work left, reference-seconds.
    pub remaining_est: f64,
    /// How many times it had overrun its estimate.
    pub overruns: u32,
}

/// Canonical state of one resident job, as carried by
/// [`EngineSnapshot`]. Everything else in the arena (rates, cached
/// deadlines, widths, per-node summaries, scratch) is derived.
#[derive(Clone, Debug, PartialEq)]
pub struct ResidentSnapshot {
    /// The job as admitted.
    pub job: Job,
    /// Allocated nodes, in allocation order.
    pub nodes: Vec<NodeId>,
    /// `node_positions[i]` is this job's index within node
    /// `nodes[i]`'s resident list. The per-node list order is
    /// scheduler-visible (share folds and projections iterate it), so a
    /// restore must reproduce it exactly — it is *not* derivable from
    /// admission order once `swap_remove`s have happened.
    pub node_positions: Vec<u32>,
    /// When it started executing.
    pub started: SimTime,
    /// How many times it has overrun its estimate.
    pub overruns: u32,
    /// Actual work left, reference-seconds.
    pub remaining_work: f64,
    /// Scheduler-believed work left, reference-seconds.
    pub remaining_est: f64,
}

/// Canonical state of a [`ProportionalCluster`], sufficient to rebuild
/// the engine bit-for-bit at a quiescent instant (rates clean, no
/// event pending before `last_update`).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct EngineSnapshot {
    /// Residents in ascending-id order (the canonical iteration order).
    pub residents: Vec<ResidentSnapshot>,
    /// Instant the engine state is valid for.
    pub last_update: SimTime,
    /// Delivered reference-seconds over `[0, last_update]`.
    pub busy_integral: f64,
    /// Node-seconds spent down over `[0, last_update]`.
    pub down_integral: f64,
    /// Per-node down flags.
    pub down: Vec<bool>,
}

/// Cold per-resident state, touched only on structural events (admission,
/// completion, eviction, overrun re-arm).
#[derive(Clone, Debug)]
struct ResidentMeta {
    job: Job,
    started: SimTime,
    overruns: u32,
}

/// The proportional-share cluster engine.
#[derive(Clone, Debug)]
pub struct ProportionalCluster {
    cluster: Cluster,
    cfg: ProportionalConfig,
    /// Cached `cluster.speed_factor(n)` per node — the cluster is
    /// immutable after construction, so the cached value is the bitwise
    /// same factor every recompute would otherwise re-derive.
    speeds: Vec<f64>,
    /// The one speed factor every node shares, when all are bitwise
    /// equal (finite and positive); lets a gang's rate come from its
    /// busiest member alone (see [`ProportionalCluster::gang_rate`]).
    uniform_speed: Option<f64>,
    // ---- slot arena (parallel vectors indexed by slot) ----
    /// Owning job id per slot (stale for free slots).
    ids: Vec<JobId>,
    rate: Vec<f64>,
    remaining_work: Vec<f64>,
    remaining_est: Vec<f64>,
    /// Cached `job.absolute_deadline().as_secs()`.
    abs_deadline: Vec<f64>,
    /// Gang width: the length of the slot's run in [`Self::gang_nodes`].
    width: Vec<u32>,
    /// Start of the gang's member-node run in [`Self::gang_nodes`].
    gang_start: Vec<u32>,
    /// Flat arena of gang member-node indices: slot `s` occupies
    /// `gang_nodes[gang_start[s]..gang_start[s] + width[s]]`, in
    /// allocation order. The run is the one record of a gang's members:
    /// removal, the index upkeep, the reference oracles and `snapshot`
    /// all read it. A released slot's run stays intact until the slot is
    /// reused (`merge_groups` reads it after the release) and is left
    /// behind as dead entries; `admit` compacts the arena once dead
    /// entries outnumber live ones (see `compact_gang_nodes`).
    gang_nodes: Vec<u32>,
    /// Parallel to `gang_nodes`: slot `s`'s **cover**, the distinct
    /// resident-set groups its members belong to, in no particular order,
    /// occupies `cover[gang_start[s]..gang_start[s] + cover_len[s]]` —
    /// the head of the slot's own run, which always has room, since a
    /// gang covers at most as many groups as it has members. Both
    /// recompute passes walk the cover instead of the member nodes.
    /// `split_groups` and `merge_groups` keep every cover exact.
    cover: Vec<u32>,
    /// Groups in each slot's cover (see [`Self::cover`]).
    cover_len: Vec<u32>,
    /// Live entries of `gang_nodes`: the summed width of resident slots.
    gang_live: usize,
    /// Per-slot Eq. 1 share computed by recompute pass 1 and consumed by
    /// pass 2 (engine-owned scratch; garbage between recomputes).
    share_scratch: Vec<f64>,
    /// Cold state; `None` marks a free slot.
    meta: Vec<Option<ResidentMeta>>,
    /// Live slots sorted by ascending `JobId` — the canonical iteration
    /// order of every per-resident reduction (see module docs).
    order: Vec<u32>,
    free_slots: Vec<u32>,
    /// Arena slots resident per node, in admission order (removals
    /// `swap_remove`, mirroring the historical `Vec<JobId>` lists). A
    /// removal finds its entry by scanning the list: lists are short (a
    /// mean of 1.6 entries per node on `paper-100k`, 3.1 on `overload-4x`).
    node_jobs: Vec<Vec<u32>>,
    last_update: SimTime,
    busy_integral: f64,
    /// Node-seconds spent down over `[0, last_update]` — subtracted from
    /// the utilisation denominator so a half-dead cluster running flat
    /// out reads as fully utilised, not half. Stays exactly `0.0` on
    /// fault-free runs, keeping their utilisation bitwise unchanged.
    down_integral: f64,
    /// Earliest absolute deadline among each node's residents
    /// (`+inf` when empty), maintained at membership changes so the
    /// admission screen reads one packed array instead of walking
    /// `node_jobs` per candidate. Deadlines are fixed per job, so plain
    /// advances and estimate re-arms cannot move it.
    node_min_dl: Vec<f64>,
    /// Per-node XOR of [`slot_mix`] over the node's resident slots
    /// (`0` when empty), maintained in O(1) wherever a slot joins or
    /// leaves a node's list: see [`ProportionalCluster::node_set_hash`].
    set_hash: Vec<u64>,
    // ---- resident-set index (see [`ProportionalCluster::node_group`]) ----
    /// Group id per node: two nodes share one iff they hold the same
    /// resident slot set and bitwise-equal speeds.
    group_of: Vec<u32>,
    /// Member count per group id (`0` for a free id).
    group_size: Vec<u32>,
    /// Group ids no node carries.
    free_groups: Vec<u32>,
    /// Dense id of each node's speed bit pattern.
    speed_class: Vec<u32>,
    /// Per speed class, the group of its empty nodes (`NO_GROUP` while
    /// every node of that speed hosts a job).
    empty_group: Vec<u32>,
    /// Per-group scratch of `split_groups`/`merge_groups`, all zero
    /// between calls.
    group_scratch: Vec<u32>,
    /// Groups one `split_groups`/`merge_groups` call touched, each with
    /// its first gang member.
    touched_groups: Vec<(u32, u32)>,
    /// Per bucket of group keys (see `key_bucket`), the number of
    /// groups whose key falls in it. A removal searches for a group to
    /// merge with only when its shrunk set's bucket is counted.
    key_count: Vec<u32>,
    /// Minimum event-gap candidate over all residents, computed as a
    /// running min by recompute pass 2 (which already visits every
    /// resident). Valid whenever `rates_clean`; a reader settles first
    /// (see `settle`), after which
    /// [`ProportionalCluster::next_event_time`] is an O(1) read.
    next_dt: f64,
    /// `true` while `rate`/`next_dt` match the current resident state and
    /// `last_update`. Every writer (a sweeping advance, `admit`, an
    /// evicting `fail_node`) lowers it and leaves pass 2 to the next
    /// reader, so all the changes of one instant share one pass 2; a
    /// zero-width advance changes no input and leaves it alone.
    rates_clean: bool,
    /// Reusable worklist for completions discovered by the progress pass.
    completed_scratch: Vec<u32>,
    /// Reusable worklist for `fail_node` victims.
    victims_scratch: Vec<u32>,
    /// Eq. 2 share totals for the recompute passes, indexed by
    /// resident-set group (`group_of`), not by node: node `n`'s total is
    /// `totals_scratch[group_of[n]]`. The nodes of one group hold the
    /// same residents, so the ascending-id fold of their shares is one
    /// value, and each resident adds its share once per covered group.
    /// Zeroed with one `fill` per pass 1; entries of free group ids are
    /// garbage. Between public calls the totals and `share_scratch`
    /// always hold the pass-1 values of the current residents at
    /// `last_update` (zero for the empty groups): every writer, the
    /// reference oracles included, leaves them so.
    totals_scratch: Vec<f64>,
    /// Per-node down flags. A down node hosts no jobs and must never be
    /// an admission target.
    down: Vec<bool>,
    down_count: usize,
}

/// One job's event-gap candidate: earliest of actual completion,
/// estimated-work exhaustion, and deadline crossing. A rate-starved job
/// (share underflowed to zero against an astronomically loaded node)
/// offers no completion candidates — only its deadline, if any.
#[inline]
fn event_dt(
    rate: f64,
    remaining_work: f64,
    remaining_est: f64,
    abs_deadline: f64,
    now: f64,
) -> f64 {
    let mut dt = f64::INFINITY;
    if rate > 0.0 {
        // min(w, e) / r is bitwise min(w / r, e / r): division by a
        // positive rate is monotone and rounds each operand identically,
        // so taking the min first saves a division without moving a bit.
        dt = dt.min(remaining_work.min(remaining_est) / rate);
    }
    let to_deadline = abs_deadline - now;
    if to_deadline > EPS_WORK {
        dt = dt.min(to_deadline);
    }
    dt
}

/// A slot's contribution to [`ProportionalCluster::node_set_hash`]: the
/// splitmix64 finaliser of the slot index, so sets that differ in one
/// slot always hash apart and the low bits are usable as a table index.
#[inline]
fn slot_mix(s: u32) -> u64 {
    let mut z = (s as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `ProportionalCluster::empty_group` entry of a speed class with no
/// empty node.
const NO_GROUP: u32 = u32::MAX;

/// The `ProportionalCluster::key_count` bucket (of `buckets`, a power of
/// two) of a group with resident-set hash `set_hash` and speed class
/// `class`. The set hash's low bits are already mixed.
#[inline]
fn key_bucket(buckets: usize, set_hash: u64, class: u32) -> usize {
    (set_hash ^ u64::from(class).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize & (buckets - 1)
}

/// The set hash of a slot list: the XOR of each slot's mixed hash.
/// [`ProportionalCluster::node_set_hash`] maintains exactly this value
/// of [`ProportionalCluster::node_slots`] incrementally; this from-scratch
/// form is its differential oracle.
pub fn slot_set_hash(slots: &[u32]) -> u64 {
    slots.iter().fold(0, |h, &s| h ^ slot_mix(s))
}

impl ProportionalCluster {
    /// Creates an engine over the given cluster.
    pub fn new(cluster: Cluster, cfg: ProportionalConfig) -> Self {
        let n = cluster.len();
        let speeds: Vec<f64> = (0..n)
            .map(|i| cluster.speed_factor(NodeId(i as u32)))
            .collect();
        let uniform_speed = speeds.first().copied().filter(|&v| {
            v.is_finite() && v > 0.0 && speeds.iter().all(|w| w.to_bits() == v.to_bits())
        });
        // Every node starts empty, so the groups are the speed classes:
        // class `c`'s nodes form group `c`, and ids past the last class
        // are free.
        let mut class_bits: Vec<u64> = Vec::new();
        let speed_class: Vec<u32> = speeds
            .iter()
            .map(|v| {
                let pos = class_bits.iter().position(|&b| b == v.to_bits());
                pos.unwrap_or_else(|| {
                    class_bits.push(v.to_bits());
                    class_bits.len() - 1
                }) as u32
            })
            .collect();
        let classes = class_bits.len() as u32;
        let mut group_size = vec![0; n];
        for &c in &speed_class {
            group_size[c as usize] += 1;
        }
        let buckets = (8 * n).next_power_of_two();
        let mut key_count = vec![0; buckets];
        for c in 0..classes {
            key_count[key_bucket(buckets, 0, c)] += 1;
        }
        ProportionalCluster {
            cluster,
            cfg,
            speeds,
            uniform_speed,
            ids: Vec::new(),
            rate: Vec::new(),
            remaining_work: Vec::new(),
            remaining_est: Vec::new(),
            abs_deadline: Vec::new(),
            width: Vec::new(),
            gang_start: Vec::new(),
            gang_nodes: Vec::new(),
            cover: Vec::new(),
            cover_len: Vec::new(),
            gang_live: 0,
            share_scratch: Vec::new(),
            meta: Vec::new(),
            order: Vec::new(),
            free_slots: Vec::new(),
            node_jobs: vec![Vec::new(); n],
            last_update: SimTime::ZERO,
            busy_integral: 0.0,
            down_integral: 0.0,
            node_min_dl: vec![f64::INFINITY; n],
            set_hash: vec![0; n],
            group_of: speed_class.clone(),
            group_size,
            free_groups: (classes..n as u32).rev().collect(),
            speed_class,
            empty_group: (0..classes).collect(),
            group_scratch: vec![0; n],
            touched_groups: Vec::new(),
            key_count,
            next_dt: f64::INFINITY,
            rates_clean: true,
            completed_scratch: Vec::new(),
            victims_scratch: Vec::new(),
            totals_scratch: vec![0.0; n],
            down: vec![false; n],
            down_count: 0,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> &ProportionalConfig {
        &self.cfg
    }

    /// Instant the engine state is valid for.
    pub fn now(&self) -> SimTime {
        self.last_update
    }

    /// Number of resident (running) jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no job is resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Ids of jobs resident on a node, in resident-list order.
    pub fn jobs_on_node(&self, node: NodeId) -> impl Iterator<Item = JobId> + '_ {
        self.node_jobs[node.0 as usize]
            .iter()
            .map(move |&s| self.ids[s as usize])
    }

    /// Number of jobs resident on a node.
    pub fn resident_count(&self, node: NodeId) -> usize {
        self.node_jobs[node.0 as usize].len()
    }

    /// The node's resident arena slots, in resident-list order. Slots are
    /// opaque but stable between engine mutations: two nodes exposing the
    /// same slot set hold the *same* resident jobs, so any pure function
    /// of a node's resident multiset (risk kernels read it in canonical
    /// order) returns bitwise-identical results for both. The
    /// resident-set index ([`ProportionalCluster::node_group`]) groups
    /// nodes by exactly this set.
    pub fn node_slots(&self, node: NodeId) -> &[u32] {
        &self.node_jobs[node.0 as usize]
    }

    /// Order-free fingerprint of a node's resident *set*: the XOR of a
    /// mixed hash of each slot in [`ProportionalCluster::node_slots`]
    /// (`0` for an empty node). Equal sets always hash equal, whatever
    /// their list order; unequal sets may collide, so the resident-set
    /// index uses it only to skip candidates before comparing the sets
    /// themselves. Maintained in O(1) per slot by `admit`,
    /// `remove_from_node` and `from_snapshot` — the only places a slot
    /// joins or leaves a list.
    #[inline]
    pub fn node_set_hash(&self, node: NodeId) -> u64 {
        self.set_hash[node.0 as usize]
    }

    /// The node's group in the resident-set index: a dense id below the
    /// node count, shared by exactly the nodes that hold the same
    /// resident slot set and have bitwise-equal speeds. Between engine
    /// mutations any pure function of a node's residents and speed
    /// (a risk verdict in particular) is therefore a function of its
    /// group. Ids are labels: a mutation may renumber any group it
    /// touches.
    ///
    /// Kept exact at every membership change. An admission adds a fresh
    /// slot, which no node outside the gang holds, so it can only split
    /// groups (`split_groups`); a removal takes out a slot every member
    /// of each group it touches held, so it can only merge those groups
    /// with a group outside the gang, confirmed by comparing slot sets
    /// once (`merge_groups`).
    #[inline]
    pub fn node_group(&self, node: NodeId) -> u32 {
        self.group_of[node.0 as usize]
    }

    /// Cached speed factor of a node — bitwise the same value
    /// `cluster().speed_factor(node)` re-derives on every call (the
    /// cluster is immutable after construction), without the division.
    #[inline]
    pub fn node_speed(&self, node: NodeId) -> f64 {
        self.speeds[node.0 as usize]
    }

    /// Arena slot of a resident job, by binary search over the id-sorted
    /// iteration order.
    #[inline]
    fn slot_of(&self, id: JobId) -> Option<usize> {
        self.order
            .binary_search_by(|&s| self.ids[s as usize].cmp(&id))
            .ok()
            .map(|pos| self.order[pos] as usize)
    }

    /// Allocates an arena slot (recycling freed slots before growing).
    fn alloc_slot(&mut self) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            return s;
        }
        let s = self.ids.len() as u32;
        self.ids.push(JobId(u64::MAX));
        self.rate.push(0.0);
        self.remaining_work.push(0.0);
        self.remaining_est.push(0.0);
        self.abs_deadline.push(0.0);
        self.width.push(0);
        self.gang_start.push(0);
        self.cover_len.push(0);
        self.share_scratch.push(0.0);
        self.meta.push(None);
        s
    }

    /// Packs `gang_nodes` and `cover` down to only the live runs, each
    /// kept in its order, and repoints `gang_start`. Called by `admit`
    /// once dead entries outnumber live ones: the moves cost the live entries,
    /// which the dead ones it reclaims already paid for, so the arena
    /// stays within about twice its live size at amortised O(1) per entry
    /// — also under sustained load that never drains the engine empty.
    /// Runs move down in arena order, so none is overwritten before it
    /// has moved; `order` is borrowed for that order and re-sorted by id,
    /// which keeps the compaction in place and allocation-free.
    fn compact_gang_nodes(&mut self) {
        let mut live = std::mem::take(&mut self.order);
        live.sort_unstable_by_key(|&s| self.gang_start[s as usize]);
        let mut packed = 0;
        for &s in &live {
            let si = s as usize;
            let start = self.gang_start[si] as usize;
            let width = self.width[si] as usize;
            self.gang_nodes.copy_within(start..start + width, packed);
            let covered = self.cover_len[si] as usize;
            self.cover.copy_within(start..start + covered, packed);
            self.gang_start[si] = packed as u32;
            packed += width;
        }
        debug_assert_eq!(packed, self.gang_live);
        self.gang_nodes.truncate(packed);
        self.cover.truncate(packed);
        live.sort_unstable_by_key(|&s| self.ids[s as usize]);
        self.order = live;
    }

    /// Index upkeep for an admission: slot `s` has just joined every
    /// node of its run and no other. No node outside the gang holds the
    /// fresh slot, so no two groups can merge; each group the gang
    /// touches keeps its id if the gang covers all of it and otherwise
    /// splits, its gang members moving to a new id together (they held
    /// one set before and add the same slot). The new set's key is
    /// counted, and a covered group's old key uncounted.
    ///
    /// Covers: the new slot covers the touched groups' destinations.
    /// When a group `g` splits into `g` and `to`, every other resident of
    /// `g` sits on both halves, so `to` joins its cover; it is found on
    /// the gang's first member in `g`.
    fn split_groups(&mut self, s: u32) {
        let mut touched = std::mem::take(&mut self.touched_groups);
        touched.clear();
        let start = self.gang_start[s as usize] as usize;
        let run = start..start + self.width[s as usize] as usize;
        for &n in &self.gang_nodes[run.clone()] {
            let g = self.group_of[n as usize];
            if self.group_scratch[g as usize] == 0 {
                touched.push((g, n));
            }
            self.group_scratch[g as usize] += 1;
        }
        // Each touched group's scratch turns from its gang count into
        // the id its gang members move to.
        let buckets = self.key_count.len();
        for &(g, n) in &touched {
            let (g, n) = (g as usize, n as usize);
            let class = self.speed_class[n];
            self.group_scratch[g] = if self.group_scratch[g] == self.group_size[g] {
                self.key_count[key_bucket(buckets, self.set_hash[n] ^ slot_mix(s), class)] -= 1;
                if self.empty_group[class as usize] == g as u32 {
                    // The whole empty group took the job: no node of
                    // this speed is empty any more.
                    self.empty_group[class as usize] = NO_GROUP;
                }
                g as u32
            } else {
                self.free_groups.pop().expect("fewer groups than nodes")
            };
            self.key_count[key_bucket(buckets, self.set_hash[n], class)] += 1;
        }
        for (k, &(g, n)) in touched.iter().enumerate() {
            let to = self.group_scratch[g as usize];
            self.cover[start + k] = to;
            if to != g {
                for &r in &self.node_jobs[n as usize] {
                    if r != s {
                        let r = r as usize;
                        self.cover[self.gang_start[r] as usize + self.cover_len[r] as usize] = to;
                        self.cover_len[r] += 1;
                    }
                }
            }
        }
        self.cover_len[s as usize] = touched.len() as u32;
        for &n in &self.gang_nodes[run] {
            let ni = n as usize;
            let g = self.group_of[ni];
            let to = self.group_scratch[g as usize];
            if to != g {
                self.group_of[ni] = to;
                self.group_size[g as usize] -= 1;
                self.group_size[to as usize] += 1;
            }
        }
        for &(g, _) in &touched {
            self.group_scratch[g as usize] = 0;
        }
        self.touched_groups = touched;
    }

    /// Index upkeep for a removal: slot `s` has just left every node of
    /// its run, which its release leaves in place. Every member of a
    /// touched group held `s`, so each touched group lies wholly inside
    /// the gang and keeps its members; only its set shrank. Two touched groups cannot now hold the same
    /// set (both held `s`, so their old sets would have been equal too),
    /// so the only possible merge is with the one group outside the gang
    /// that already holds the shrunk set. Each group is settled at its
    /// first member in the run, and every member then moves to where its
    /// group went, so the walk stays linear in the gang width.
    ///
    /// Covers: when `g` merges into `into`, the residents left on `g`'s
    /// first member hold the shrunk set, so they already cover `into`;
    /// `g` is swap-removed from their covers.
    fn merge_groups(&mut self, s: u32) {
        let mut touched = std::mem::take(&mut self.touched_groups);
        touched.clear();
        let start = self.gang_start[s as usize] as usize;
        for k in start..start + self.width[s as usize] as usize {
            let r = self.gang_nodes[k] as usize;
            let g = self.group_of[r];
            if self.group_scratch[g as usize] == 0 {
                touched.push((g, r as u32));
                let (buckets, class) = (self.key_count.len(), self.speed_class[r]);
                self.key_count[key_bucket(buckets, self.set_hash[r] ^ slot_mix(s), class)] -= 1;
                let into = self.holder_of_shrunk_set(r, g);
                if into == g {
                    self.key_count[key_bucket(buckets, self.set_hash[r], class)] += 1;
                } else {
                    self.group_size[into as usize] += self.group_size[g as usize];
                    self.group_size[g as usize] = 0;
                    self.free_groups.push(g);
                    for &t in &self.node_jobs[r] {
                        let t = t as usize;
                        let (start, len) =
                            (self.gang_start[t] as usize, self.cover_len[t] as usize);
                        let run = &mut self.cover[start..start + len];
                        let k = run
                            .iter()
                            .position(|&c| c == g)
                            .expect("a resident covers its nodes' group");
                        run[k] = run[len - 1];
                        self.cover_len[t] -= 1;
                    }
                }
                self.group_scratch[g as usize] = into + 1;
            }
            self.group_of[r] = self.group_scratch[g as usize] - 1;
        }
        for &(g, _) in &touched {
            self.group_scratch[g as usize] = 0;
        }
        self.touched_groups = touched;
    }

    /// The group that node `r`'s group `g` joins after a removal shrank
    /// its set: the group outside the gang already holding that set and
    /// speed, or `g` itself when none does. An empty set's holders are
    /// its speed class's empty group. A nonempty set has no holder when
    /// no other group's key falls in its bucket, the common case;
    /// otherwise every holder also holds each of its slots, so the
    /// candidates are the gang members of its narrowest slot.
    fn holder_of_shrunk_set(&mut self, r: usize, g: u32) -> u32 {
        let class = self.speed_class[r];
        if self.node_jobs[r].is_empty() {
            if self.empty_group[class as usize] == NO_GROUP {
                self.empty_group[class as usize] = g;
            }
            return self.empty_group[class as usize];
        }
        if self.key_count[key_bucket(self.key_count.len(), self.set_hash[r], class)] == 0 {
            return g;
        }
        let t = *self.node_jobs[r]
            .iter()
            .min_by_key(|&&t| self.width[t as usize])
            .expect("the shrunk set is nonempty");
        self.members(t as usize)
            .iter()
            .map(|&m| m as usize)
            .find(|&m| {
                self.set_hash[m] == self.set_hash[r]
                    && self.group_of[m] != g
                    && self.speed_class[m] == class
                    && self.same_slot_set(m, r)
            })
            .map_or(g, |m| self.group_of[m])
    }

    /// `true` when nodes `a` and `b` list the same slots in any order.
    /// The lists hold distinct slots, so equal lengths plus `a ⊆ b`
    /// prove the sets equal.
    fn same_slot_set(&self, a: usize, b: usize) -> bool {
        let (sa, sb) = (&self.node_jobs[a], &self.node_jobs[b]);
        sa.len() == sb.len() && (sa == sb || sa.iter().all(|s| sb.contains(s)))
    }

    /// Places a job on the given nodes and starts it immediately.
    ///
    /// # Panics
    /// Panics if the engine state is stale (`now != self.now()`), the node
    /// count does not match `job.procs`, a node is down, or a node id
    /// repeats.
    pub fn admit(&mut self, job: Job, nodes: Vec<NodeId>, now: SimTime) {
        assert_eq!(now, self.last_update, "advance() the engine before admit()");
        assert_eq!(
            nodes.len(),
            job.procs as usize,
            "{} needs {} nodes, got {}",
            job.id,
            job.procs,
            nodes.len()
        );
        let est = job.estimate.as_secs().max(EPS_WORK);
        let work = job.runtime.as_secs().max(EPS_WORK);
        if self.gang_nodes.len() - self.gang_live > self.gang_live {
            self.compact_gang_nodes();
        }
        let s = self.alloc_slot();
        let si = s as usize;
        self.gang_start[si] = self.gang_nodes.len() as u32;
        self.width[si] = nodes.len() as u32;
        self.gang_live += nodes.len();
        let dl = job.absolute_deadline().as_secs();
        for n in &nodes {
            assert!(self.node_is_up(*n), "cannot admit {} onto down {n}", job.id);
            let ni = n.0 as usize;
            let list = &mut self.node_jobs[ni];
            // The fresh slot sits on no list yet, so finding it at the
            // tail means this node came earlier in the gang.
            assert!(list.last() != Some(&s), "duplicate node in allocation");
            list.push(s);
            self.gang_nodes.push(n.0);
            self.cover.push(0);
            self.set_hash[ni] ^= slot_mix(s);
            self.node_min_dl[ni] = self.node_min_dl[ni].min(dl);
        }
        self.split_groups(s);
        let id = job.id;
        self.ids[si] = id;
        self.rate[si] = 0.0;
        self.remaining_work[si] = work;
        self.remaining_est[si] = est;
        self.abs_deadline[si] = dl;
        self.meta[si] = Some(ResidentMeta {
            job,
            started: now,
            overruns: 0,
        });
        let pos = match self
            .order
            .binary_search_by(|&x| self.ids[x as usize].cmp(&id))
        {
            Ok(_) => panic!("{id} is already resident"),
            Err(pos) => {
                self.order.insert(pos, s);
                pos
            }
        };
        // Pass 1 only; pass 2 waits for the next reader. When the new
        // job's id sorts last (ids are issued monotonically, so this is
        // the common case), the reference's from-zero job-id order sum
        // over each of its nodes is exactly the old total plus the new
        // share — same left-fold, same bits. Each touched group `g` moved
        // its gang members to `to` (`g` itself when the gang covered all
        // of it), so `to`'s total is `g`'s plus the share, and `g`'s stays
        // put. A fresh `to` is no touched group, so no total is read
        // after its write. Any other case reruns pass 1.
        if pos + 1 == self.order.len() {
            let now_s = now.as_secs();
            let rd = (self.abs_deadline[si] - now_s).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            self.share_scratch[si] = share;
            for &(g, n) in &self.touched_groups {
                let to = self.group_of[n as usize] as usize;
                self.totals_scratch[to] = self.totals_scratch[g as usize] + share;
            }
        } else {
            self.recompute_pass1();
        }
        self.rates_clean = false;
    }

    /// Advances the engine to `to`, returning jobs whose actual work
    /// completed (their `finish` is `to`; the caller must not advance past
    /// [`ProportionalCluster::next_event_time`]).
    pub fn advance(&mut self, to: SimTime) -> Vec<CompletedJob> {
        let mut out = Vec::new();
        self.advance_into(to, &mut out);
        out
    }

    /// [`ProportionalCluster::advance`] into a caller-owned buffer
    /// (cleared first) — the allocation-free variant for driver hot loops.
    /// In steady state (warm buffers) this performs zero heap allocations.
    ///
    /// One sweep over `order` (ascending job id) applies progress and
    /// builds recompute pass 1 — every survivor's Eq. 1 share at `to`,
    /// summed into the group totals — and leaves pass 2 to the next
    /// reader of rates, whatever the sweep completed or re-armed. The
    /// sweep itself reads every rate, so it settles pending ones (at the
    /// old instant) first. Bitwise equal to
    /// [`ProportionalCluster::advance_reference`], which sums the totals
    /// from zero over the survivors in ascending job-id order *after*
    /// removing the completed jobs:
    ///
    /// * a job that completes in the sweep adds no share, so each node's
    ///   total is the left fold, from `0.0`, of exactly the survivors'
    ///   shares in ascending job-id order — the reference's fold, term
    ///   for term (removing a completed slot later changes no survivor's
    ///   share or order);
    /// * a re-armed job's share is computed in place from its re-armed
    ///   estimate — the same expression on the same operands the
    ///   reference evaluates after the sweep;
    /// * every other survivor's share reads the post-progress estimate,
    ///   exactly as the reference does.
    ///
    /// The fold runs over the groups before the completions leave them.
    /// That moves no bit: a group a removal merges into another already
    /// holds the same survivors, hence the same total, and a group it
    /// empties holds `0.0`.
    ///
    /// A surviving gang's cover is walked once per advance, to add its
    /// share to each covered group's total; a completing gang walks
    /// none.
    pub fn advance_into(&mut self, to: SimTime, out: &mut Vec<CompletedJob>) {
        out.clear();
        assert!(to >= self.last_update, "cannot advance backwards");
        // Phase-profiler lap boundary: the caller's dispatch since its
        // last mark (the catch-up loop's event pop, or the bracket's
        // open) joins the event-pop tile.
        obs::phase::lap_mark(obs::phase::Phase::EventHeapPop);
        let dt = (to - self.last_update).as_secs();
        let now = to;
        // `0 * dt` adds exactly 0.0 for positive dt, but skipping the
        // accumulation entirely when no node is down keeps fault-free
        // runs bitwise identical to the pre-churn accounting.
        if dt > 0.0 && self.down_count > 0 {
            self.down_integral += self.down_count as f64 * dt;
        }
        if dt > 0.0 && !self.order.is_empty() {
            self.settle();
            let now_s = now.as_secs();
            let mut completed = std::mem::take(&mut self.completed_scratch);
            completed.clear();
            self.totals_scratch.fill(0.0);
            for &s in &self.order {
                let si = s as usize;
                let progress = self.rate[si] * dt;
                self.busy_integral += progress * f64::from(self.width[si]);
                self.remaining_work[si] -= progress;
                self.remaining_est[si] -= progress;
                let share = if self.remaining_work[si] <= EPS_WORK {
                    // A completing job holds no share.
                    completed.push(s);
                    continue;
                } else if self.remaining_est[si] <= EPS_WORK {
                    // Overrun: the scheduler's belief was exhausted but the
                    // job is still running — re-arm a residual estimate.
                    let m = self.meta[si].as_mut().expect("resident has meta");
                    m.overruns += 1;
                    let re = (RESIDUAL_FRACTION * m.job.estimate.as_secs()).max(RESIDUAL_FLOOR);
                    self.remaining_est[si] = re;
                    let rd = (self.abs_deadline[si] - now_s).max(EPS_DEADLINE);
                    let share = re.max(EPS_WORK) / rd;
                    self.share_scratch[si] = share;
                    share
                } else {
                    let rd = (self.abs_deadline[si] - now_s).max(EPS_DEADLINE);
                    let share = self.remaining_est[si].max(EPS_WORK) / rd;
                    self.share_scratch[si] = share;
                    share
                };
                let start = self.gang_start[si] as usize;
                for &g in &self.cover[start..start + self.cover_len[si] as usize] {
                    self.totals_scratch[g as usize] += share;
                }
            }
            obs::phase::lap_mark(obs::phase::Phase::ProgressPass);
            for &s in &completed {
                let r = self.remove_resident(s);
                out.push(CompletedJob {
                    job: r.job,
                    started: r.started,
                    finish: now,
                    overruns: r.overruns,
                });
            }
            self.completed_scratch = completed;
            obs::phase::lap_mark(obs::phase::Phase::CompletionEmit);
            // Totals and shares are current for exactly the survivors
            // (see above); rates wait for their next reader.
            self.rates_clean = false;
        }
        self.last_update = now;
    }

    /// Reference implementation of [`ProportionalCluster::advance`]: the
    /// pre-arena algorithm shape — fresh worklist allocations, removals
    /// after the sweep, and an unconditional full rate recompute even for
    /// zero-width steps. Kept as the
    /// differential-test oracle; an engine driven exclusively through
    /// this path produces bitwise identical rates, completions,
    /// integrals, and event times.
    pub fn advance_reference(&mut self, to: SimTime) -> Vec<CompletedJob> {
        assert!(to >= self.last_update, "cannot advance backwards");
        self.settle();
        let dt = (to - self.last_update).as_secs();
        let now = to;
        if dt > 0.0 && self.down_count > 0 {
            self.down_integral += self.down_count as f64 * dt;
        }
        let mut completed_slots: Vec<u32> = Vec::new();
        if dt > 0.0 && !self.order.is_empty() {
            for idx in 0..self.order.len() {
                let s = self.order[idx];
                let si = s as usize;
                let progress = self.rate[si] * dt;
                self.busy_integral += progress * f64::from(self.width[si]);
                self.remaining_work[si] -= progress;
                self.remaining_est[si] -= progress;
                if self.remaining_work[si] <= EPS_WORK {
                    completed_slots.push(s);
                } else if self.remaining_est[si] <= EPS_WORK {
                    let m = self.meta[si].as_mut().expect("resident has meta");
                    self.remaining_est[si] =
                        (RESIDUAL_FRACTION * m.job.estimate.as_secs()).max(RESIDUAL_FLOOR);
                    m.overruns += 1;
                }
            }
        }
        let mut completed = Vec::with_capacity(completed_slots.len());
        for s in completed_slots {
            let r = self.remove_resident(s);
            completed.push(CompletedJob {
                job: r.job,
                started: r.started,
                finish: now,
                overruns: r.overruns,
            });
        }
        self.last_update = now;
        self.recompute_rates_reference();
        completed
    }

    /// `true` when the node has not been failed (or has been restored).
    #[inline]
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.down[node.0 as usize]
    }

    /// Number of nodes currently up.
    pub fn up_nodes(&self) -> usize {
        self.cluster.len() - self.down_count
    }

    /// Fails a node at the engine's current instant, evicting every
    /// resident job whose gang touches it (the survivors' slots are
    /// freed). The node stops being an admission target until
    /// [`ProportionalCluster::restore_node`]; evicted jobs are returned
    /// with their progress state for the caller's recovery policy. The
    /// engine keeps no cache to invalidate: an eviction reruns recompute
    /// pass 1, leaving pass 2 to the next reader of rates (so the
    /// caller's re-admissions at this instant share it), and every later
    /// admission test reads the live resident lists and down flags.
    ///
    /// # Panics
    /// Panics if the engine state is stale (`now != self.now()`) or the
    /// node is already down.
    pub fn fail_node(&mut self, node: NodeId, now: SimTime) -> Vec<DisplacedJob> {
        assert_eq!(
            now, self.last_update,
            "advance() the engine before fail_node()"
        );
        assert!(self.node_is_up(node), "{node} is already down");
        self.down[node.0 as usize] = true;
        self.down_count += 1;
        let mut victims = std::mem::take(&mut self.victims_scratch);
        victims.clear();
        victims.extend_from_slice(&self.node_jobs[node.0 as usize]);
        let mut displaced = Vec::with_capacity(victims.len());
        for &s in &victims {
            let si = s as usize;
            let remaining_work = self.remaining_work[si];
            let remaining_est = self.remaining_est[si];
            let r = self.remove_resident(s);
            displaced.push(DisplacedJob {
                job: r.job,
                started: r.started,
                remaining_work,
                remaining_est,
                overruns: r.overruns,
            });
        }
        if !victims.is_empty() {
            self.recompute_pass1();
        }
        self.victims_scratch = victims;
        displaced
    }

    /// Restores a failed node at the engine's current instant: it comes
    /// back empty and becomes an admission target again (clearing its
    /// down flag is the whole change; it hosts nothing, so no rate
    /// moves).
    ///
    /// # Panics
    /// Panics if the engine state is stale or the node is not down.
    pub fn restore_node(&mut self, node: NodeId, now: SimTime) {
        assert_eq!(
            now, self.last_update,
            "advance() the engine before restore_node()"
        );
        assert!(!self.node_is_up(node), "{node} is not down");
        self.down[node.0 as usize] = false;
        self.down_count -= 1;
    }

    /// Takes a resident off the iteration order and every node list it
    /// sits on, frees its slot, keeps the resident-set index exact, and
    /// returns its cold state.
    fn remove_resident(&mut self, s: u32) -> ResidentMeta {
        let id = self.ids[s as usize];
        let pos = self
            .order
            .binary_search_by(|&x| self.ids[x as usize].cmp(&id))
            .expect("released job in iteration order");
        self.order.remove(pos);
        self.free_slots.push(s);
        self.gang_live -= self.width[s as usize] as usize;
        let r = self.meta[s as usize].take().expect("released job resident");
        let start = self.gang_start[s as usize] as usize;
        for k in start..start + self.width[s as usize] as usize {
            self.remove_from_node(self.gang_nodes[k] as usize, s);
        }
        self.merge_groups(s);
        r
    }

    /// Removes slot `s` from node `ni`'s resident list: `swap_remove` at
    /// the slot's position, found by scanning the (short) list, so the
    /// last resident takes its place and the list order every share fold
    /// and snapshot reads is the one the lists have always had.
    fn remove_from_node(&mut self, ni: usize, s: u32) {
        let list = &mut self.node_jobs[ni];
        let pos = list
            .iter()
            .position(|&r| r == s)
            .expect("a resident sits on its members' lists");
        list.swap_remove(pos);
        self.set_hash[ni] ^= slot_mix(s);
        // Only the job holding the minimum can move it. Min-fold over
        // f64 is order-independent (deadlines are finite and positive),
        // so a rebuild over the post-swap list yields the same bits any
        // other order would.
        if self.abs_deadline[s as usize] == self.node_min_dl[ni] {
            let list = &self.node_jobs[ni];
            self.node_min_dl[ni] = list
                .iter()
                .fold(f64::INFINITY, |m, &r| m.min(self.abs_deadline[r as usize]));
        }
    }

    /// The next instant the engine needs to be advanced to: the earliest
    /// of any job's actual completion, estimated-work exhaustion, deadline
    /// crossing, or the configured quantum. `None` when idle.
    ///
    /// Settles pending rates first (recompute pass 2, once per instant
    /// however many changes preceded it), then reads the event-gap
    /// minimum pass 2 tracked while it was visiting every resident
    /// anyway: O(1) when the rates are already settled. The retired full
    /// scan survives as [`ProportionalCluster::next_event_time_scan`];
    /// the two are bitwise identical (property-tested in
    /// `tests/proptest_engine.rs`).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        if self.order.is_empty() {
            return None;
        }
        self.settle();
        Some(self.last_update + SimDuration::from_secs(bound_event_gap(self.next_dt)))
    }

    /// Reference implementation of [`ProportionalCluster::next_event_time`]:
    /// a full scan over resident jobs, reading the rates as they stand.
    /// Kept as an independent oracle for differential tests, so it never
    /// settles: call it after a reader has (debug builds assert so).
    pub fn next_event_time_scan(&self) -> Option<SimTime> {
        if self.order.is_empty() {
            return None;
        }
        debug_assert!(self.rates_clean, "next_event_time_scan on unsettled rates");
        let now = self.last_update.as_secs();
        let mut dt = f64::INFINITY;
        for &s in &self.order {
            let si = s as usize;
            dt = dt.min(event_dt(
                self.rate[si],
                self.remaining_work[si],
                self.remaining_est[si],
                self.abs_deadline[si],
                now,
            ));
        }
        Some(self.last_update + SimDuration::from_secs(bound_event_gap(dt)))
    }

    /// Earliest absolute deadline among the node's residents (`+∞` when
    /// idle) — one of the two inputs the pre-kernel zero-risk screen
    /// needs (deadlines are per-job constants, so the minimum is exact
    /// and order-free). Served from a packed per-node array maintained
    /// at membership changes, so a candidate sweep touching every node
    /// stays out of the per-node resident lists.
    #[inline]
    pub fn node_min_deadline(&self, node: NodeId) -> f64 {
        let cached = self.node_min_dl[node.0 as usize];
        debug_assert_eq!(
            cached.to_bits(),
            self.node_jobs[node.0 as usize]
                .iter()
                .fold(f64::INFINITY, |m, &s| m.min(self.abs_deadline[s as usize]))
                .to_bits(),
            "stale node_min_dl for {node}"
        );
        cached
    }

    /// The node's Eq. 2 resident share total at the current instant,
    /// served from the group totals recompute pass 1 keeps exact at
    /// every change (already summed from exactly these floored shares),
    /// settled rates or not. The accumulation order differs from
    /// [`ProportionalCluster::node_total_share`] (global job-id order vs
    /// resident-list order), so the result may differ in the last ulp —
    /// fine for margin-bearing consumers like the zero-risk screen, not
    /// for bitwise-pinned ones.
    pub fn node_share_total_now(&self, node: NodeId) -> f64 {
        self.totals_scratch[self.group_of[node.0 as usize] as usize]
    }

    /// `(abs_deadline, remaining_est.max(EPS_WORK))` bit patterns of one
    /// arena slot — the projection-visible state of a resident, exactly
    /// as [`ProportionalCluster::node_projection`] emits it.
    /// Read a node's slots through [`ProportionalCluster::node_slots`]
    /// with the engine borrowed: a completion or removal frees a slot for
    /// reuse, so a slot index held across a mutation may name another
    /// job.
    #[inline]
    pub fn slot_projection_bits(&self, s: u32) -> (u64, u64) {
        let si = s as usize;
        (
            self.abs_deadline[si].to_bits(),
            self.remaining_est[si].max(EPS_WORK).to_bits(),
        )
    }

    /// Scheduler-visible projection input for one node: the resident jobs'
    /// remaining *estimated* work and absolute deadlines, plus optionally
    /// a tentative new job (whose estimate is taken in full).
    pub fn node_projection(&self, node: NodeId, extra: Option<&Job>) -> Vec<ProjectedJob> {
        self.node_jobs[node.0 as usize]
            .iter()
            .map(|&s| ProjectedJob {
                remaining_est: self.remaining_est[s as usize].max(EPS_WORK),
                abs_deadline: self.abs_deadline[s as usize],
            })
            .chain(extra.map(projected_job))
            .collect()
    }

    /// The Eq. 1 share a not-yet-admitted job would require, evaluated at
    /// the engine's current instant (full estimate over remaining
    /// deadline).
    pub fn job_share(&self, job: &Job) -> f64 {
        let now = self.last_update.as_secs();
        job.estimate.as_secs().max(EPS_WORK)
            / (job.absolute_deadline().as_secs() - now).max(EPS_DEADLINE)
    }

    /// Sum of required shares on a node, evaluated with current beliefs
    /// (Eq. 2), plus optionally a tentative new job.
    ///
    /// Summation is left-to-right in resident order with the tentative
    /// job last — a fixed order, so every caller testing the same node
    /// and job (Libra's `decide` and `decide_reference`) gets the same
    /// bits.
    pub fn node_total_share(&self, node: NodeId, extra: Option<&Job>) -> f64 {
        let now = self.last_update.as_secs();
        let mut sum = 0.0;
        for &s in &self.node_jobs[node.0 as usize] {
            let si = s as usize;
            sum += self.remaining_est[si].max(EPS_WORK)
                / (self.abs_deadline[si] - now).max(EPS_DEADLINE);
        }
        if let Some(j) = extra {
            sum += self.job_share(j);
        }
        sum
    }

    /// Mean processor utilisation over `[0, now]`, relative to the
    /// capacity that was actually *up*: node-seconds spent down are
    /// excluded from the denominator, so churn does not read as idleness.
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

    /// Current execution rate of a resident job (reference-seconds per
    /// second), if resident. Settles pending rates first.
    pub fn rate_of(&mut self, id: JobId) -> Option<f64> {
        self.settle();
        self.slot_of(id).map(|si| self.rate[si])
    }

    /// Remaining *estimated* work of a resident job, if resident.
    pub fn remaining_est_of(&self, id: JobId) -> Option<f64> {
        self.slot_of(id).map(|si| self.remaining_est[si])
    }

    /// Derives pending rates and the event-gap minimum: recompute pass 2
    /// from the totals pass 1 keeps exact. A no-op once settled, so
    /// every reader calls it and an instant's changes (advance sweep,
    /// admissions, evictions) share one pass 2.
    /// Bitwise inert: pass 2 is a pure function of the totals, shares,
    /// remaining work, deadlines and `last_update`, so one run after the
    /// instant's last change writes what an eager run after each change
    /// would have written last.
    fn settle(&mut self) {
        if self.rates_clean {
            return;
        }
        self.recompute_pass2();
        obs::phase::lap_mark(obs::phase::Phase::RecomputeSweep);
    }

    /// Recompute pass 1: every live slot's Eq. 1 share from current
    /// beliefs, summed into the totals of the groups it covers in the
    /// reference's ascending job-id order (float sums are
    /// fold-order-sensitive). Every node of a group holds the same
    /// residents, so its per-node fold in the reference is this group
    /// fold term for term, and the rates pass 2 derives from them are
    /// bitwise identical to
    /// [`ProportionalCluster::recompute_rates_reference`]. Leaves pass 2
    /// pending. Allocation-free: totals and shares live in engine-owned
    /// scratch.
    fn recompute_pass1(&mut self) {
        let now = self.last_update.as_secs();
        self.totals_scratch.fill(0.0);
        for &s in &self.order {
            let si = s as usize;
            let rd = (self.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            self.share_scratch[si] = share;
            let start = self.gang_start[si] as usize;
            for &g in &self.cover[start..start + self.cover_len[si] as usize] {
                self.totals_scratch[g as usize] += share;
            }
        }
        self.rates_clean = false;
    }

    /// Pass 2 of the rate recompute: rates (gang = min over member
    /// nodes, a lone node being a one-member gang) and the running
    /// event-gap minimum, consuming the group totals and per-slot shares
    /// pass 1 left in engine scratch. Run only by `settle`.
    fn recompute_pass2(&mut self) {
        let now = self.last_update.as_secs();
        let strict = matches!(self.cfg.discipline, ShareDiscipline::Strict);
        let mut min_dt = f64::INFINITY;
        for &s in &self.order {
            let si = s as usize;
            let rate = self.gang_rate(si, strict);
            // The share (and hence the rate) can underflow to exactly
            // zero when a co-resident share is astronomically inflated;
            // `event_dt` and the projection kernel tolerate that.
            debug_assert!(rate.is_finite() && rate >= 0.0);
            self.rate[si] = rate;
            min_dt = min_dt.min(event_dt(
                rate,
                self.remaining_work[si],
                self.remaining_est[si],
                self.abs_deadline[si],
                now,
            ));
        }
        self.next_dt = min_dt;
        self.rates_clean = true;
    }

    /// A gang's rate: the min over its member nodes of
    /// `share / denom * speed`, from the group totals pass 1 left in
    /// scratch. A one-node job's cover is its node's group, so its rate
    /// is that node's `share / denom * speed`, bit for bit.
    ///
    /// With one speed for every node, the min is the busiest member's:
    /// IEEE division by a positive denominator and multiplication by a
    /// positive speed are both monotone (correctly rounded, so a larger
    /// exact result never rounds below a smaller one), and the member
    /// holding the max denominator yields exactly its own bits — so one
    /// max over the member totals and one division replace a division
    /// per member without moving a bit. The member totals are exactly
    /// the totals of the covered groups, so the max runs over the cover,
    /// in its own order: a max over non-NaN values is exact and
    /// independent of order, and the one order-sensitive case, a
    /// `+0.0`/`-0.0` tie, gives a zero denominator (the member-wise
    /// fallback under `WorkConserving`, `1.0` under `Strict`) either
    /// way. Both folds skip NaN (the max through its `>` test, the min
    /// through `f64::min`), so NaN totals drop out of either alike. The
    /// member-wise loop stays for mixed speeds and for the degenerate
    /// denominators (zero, infinite, or no non-NaN total) and shares
    /// (NaN) where the argument does not hold.
    #[inline]
    fn gang_rate(&self, si: usize, strict: bool) -> f64 {
        let share = self.share_scratch[si];
        let start = self.gang_start[si] as usize;
        let denom_of = |total: f64| if strict { total.max(1.0) } else { total };
        if let Some(speed) = self.uniform_speed {
            // `t > m` skips a NaN total just as `f64::max` would, but
            // lowers to one max instruction instead of a NaN-aware
            // select sequence on the fold's dependency chain.
            let mut busiest = f64::NEG_INFINITY;
            for &g in &self.cover[start..start + self.cover_len[si] as usize] {
                let t = self.totals_scratch[g as usize];
                if t > busiest {
                    busiest = t;
                }
            }
            let denom = denom_of(busiest);
            let rate = share / denom * speed;
            if denom > 0.0 && denom < f64::INFINITY && !rate.is_nan() {
                return rate;
            }
        }
        let mut rate = f64::INFINITY;
        for &ni in self.members(si) {
            let ni = ni as usize;
            let total = self.totals_scratch[self.group_of[ni] as usize];
            rate = rate.min(share / denom_of(total) * self.speeds[ni]);
        }
        rate
    }

    /// The member nodes of slot `si`'s gang, in allocation order.
    fn members(&self, si: usize) -> &[u32] {
        let start = self.gang_start[si] as usize;
        &self.gang_nodes[start..start + self.width[si] as usize]
    }

    /// Reference implementation of the engine's private rate recompute
    /// (`recompute_pass1` + `recompute_pass2`): per-node totals in a
    /// fresh allocation, no resident-set groups or covers, and the
    /// event-gap minimum recovered by a separate full scan. Kept as the
    /// differential-test oracle. It installs its rates, then rebuilds
    /// the engine's pass-1 scratch, which the fast paths extend and read.
    pub fn recompute_rates_reference(&mut self) {
        let now = self.last_update.as_secs();
        let mut totals = vec![0.0f64; self.cluster.len()];
        for &s in &self.order {
            let si = s as usize;
            let rd = (self.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            for &n in self.members(si) {
                totals[n as usize] += share;
            }
        }
        for &s in &self.order {
            let si = s as usize;
            let rd = (self.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            let mut rate = f64::INFINITY;
            for &n in self.members(si) {
                let total = totals[n as usize];
                let denom = match self.cfg.discipline {
                    ShareDiscipline::Strict => total.max(1.0),
                    ShareDiscipline::WorkConserving => total,
                };
                let node_rate = share / denom * self.cluster.speed_factor(NodeId(n));
                rate = rate.min(node_rate);
            }
            debug_assert!(rate.is_finite() && rate >= 0.0);
            self.rate[si] = rate;
        }
        let mut min_dt = f64::INFINITY;
        for &s in &self.order {
            let si = s as usize;
            min_dt = min_dt.min(event_dt(
                self.rate[si],
                self.remaining_work[si],
                self.remaining_est[si],
                self.abs_deadline[si],
                now,
            ));
        }
        self.recompute_pass1();
        self.next_dt = min_dt;
        self.rates_clean = true;
    }

    /// Extracts the canonical engine state (see [`EngineSnapshot`]).
    /// Valid at any quiescent instant — i.e. whenever the facade could
    /// also accept a `submit` or `advance`.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            residents: self
                .order
                .iter()
                .map(|&s| {
                    let si = s as usize;
                    let m = self.meta[si].as_ref().expect("resident has meta");
                    let members = self.members(si);
                    ResidentSnapshot {
                        job: m.job.clone(),
                        nodes: members.iter().map(|&n| NodeId(n)).collect(),
                        node_positions: members
                            .iter()
                            .map(|&n| {
                                let list = &self.node_jobs[n as usize];
                                list.iter().position(|&r| r == s).expect("listed") as u32
                            })
                            .collect(),
                        started: m.started,
                        overruns: m.overruns,
                        remaining_work: self.remaining_work[si],
                        remaining_est: self.remaining_est[si],
                    }
                })
                .collect(),
            last_update: self.last_update,
            busy_integral: self.busy_integral,
            down_integral: self.down_integral,
            down: self.down.clone(),
        }
    }

    /// Rebuilds an engine from a snapshot. Canonical state is injected
    /// verbatim; every derived structure — group share totals,
    /// min-deadline and set-hash summaries, the resident-set index and
    /// covers, scratch — is recomputed from it, and rates and the event-gap
    /// minimum are left for the first reader to settle. The totals are
    /// the same from-zero ascending-job-id fold every live recompute
    /// uses, so the restored engine is bitwise equal to the one the
    /// snapshot was taken from.
    ///
    /// Returns a description of the first violated invariant instead of
    /// panicking, so checkpoint restore can surface corruption as a
    /// structured error.
    pub fn from_snapshot(
        cluster: Cluster,
        cfg: ProportionalConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, String> {
        let n = cluster.len();
        if snap.down.len() != n {
            return Err(format!(
                "down flags cover {} nodes, cluster has {n}",
                snap.down.len()
            ));
        }
        let mut eng = ProportionalCluster::new(cluster, cfg);
        eng.down = snap.down.clone();
        eng.down_count = snap.down.iter().filter(|d| **d).count();
        eng.busy_integral = snap.busy_integral;
        eng.down_integral = snap.down_integral;
        eng.last_update = snap.last_update;
        // Per-node resident lists are placed by recorded position, so
        // each list must receive exactly its residents' positions as a
        // permutation of 0..len.
        let mut node_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (slot, r) in snap.residents.iter().enumerate() {
            let s = slot as u32;
            if slot > 0 && snap.residents[slot - 1].job.id >= r.job.id {
                return Err("residents not in ascending-id order".into());
            }
            if r.nodes.is_empty()
                || r.nodes.len() != r.job.procs as usize
                || r.nodes.len() != r.node_positions.len()
            {
                return Err(format!("{} node list does not match procs", r.job.id));
            }
            if !(r.remaining_work.is_finite()
                && r.remaining_work > 0.0
                && r.remaining_est.is_finite()
                && r.remaining_est > 0.0)
            {
                return Err(format!("{} has non-positive remaining work", r.job.id));
            }
            let dl = r.job.absolute_deadline().as_secs();
            let real_s = eng.alloc_slot();
            debug_assert_eq!(real_s, s, "blank engine allocates slots in order");
            eng.gang_start[slot] = eng.gang_nodes.len() as u32;
            eng.width[slot] = r.nodes.len() as u32;
            let mut seen = r.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != r.nodes.len() {
                return Err(format!("{} allocation repeats a node", r.job.id));
            }
            for (node, &pos) in r.nodes.iter().zip(&r.node_positions) {
                let ni = node.0 as usize;
                if ni >= n {
                    return Err(format!("{} hosts on unknown {node}", r.job.id));
                }
                if snap.down[ni] {
                    return Err(format!("{} hosts on down {node}", r.job.id));
                }
                let list = &mut node_lists[ni];
                let pos = pos as usize;
                if list.len() <= pos {
                    list.resize(pos + 1, u32::MAX);
                }
                if list[pos] != u32::MAX {
                    return Err(format!("{node} position {pos} claimed twice"));
                }
                list[pos] = s;
                eng.gang_nodes.push(node.0);
                eng.cover.push(0);
                eng.set_hash[ni] ^= slot_mix(s);
                eng.node_min_dl[ni] = eng.node_min_dl[ni].min(dl);
            }
            // Replaying each resident's admission split rebuilds the
            // index: splits depend only on group ids and sizes, never on
            // list order. The covers of earlier residents are rebuilt
            // below, once the node lists they are found through exist.
            eng.split_groups(s);
            eng.ids[slot] = r.job.id;
            eng.remaining_work[slot] = r.remaining_work;
            eng.remaining_est[slot] = r.remaining_est;
            eng.abs_deadline[slot] = dl;
            eng.gang_live += r.nodes.len();
            eng.meta[slot] = Some(ResidentMeta {
                job: r.job.clone(),
                started: r.started,
                overruns: r.overruns,
            });
            eng.order.push(s);
        }
        for (ni, list) in node_lists.into_iter().enumerate() {
            if list.contains(&u32::MAX) {
                return Err(format!("node {ni} resident positions have a gap"));
            }
            eng.node_jobs[ni] = list;
        }
        for slot in 0..snap.residents.len() {
            let start = eng.gang_start[slot] as usize;
            let mut len = 0;
            for k in start..start + eng.width[slot] as usize {
                let g = eng.group_of[eng.gang_nodes[k] as usize];
                if !eng.cover[start..start + len].contains(&g) {
                    eng.cover[start + len] = g;
                    len += 1;
                }
            }
            eng.cover_len[slot] = len as u32;
        }
        eng.recompute_pass1();
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use sim::SimDuration;
    use workload::Urgency;

    fn cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, 168.0)
    }

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

    /// Drives the engine until all jobs complete; returns (job, finish).
    fn run_to_completion(engine: &mut ProportionalCluster) -> Vec<CompletedJob> {
        let mut done = Vec::new();
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            done.extend(engine.advance(t));
            guard += 1;
            assert!(guard < 100_000, "engine did not converge");
        }
        done
    }

    fn on_node(e: &ProportionalCluster, n: u32) -> Vec<JobId> {
        e.jobs_on_node(NodeId(n)).collect()
    }

    fn strict_cfg() -> ProportionalConfig {
        ProportionalConfig {
            discipline: ShareDiscipline::Strict,
        }
    }

    #[test]
    fn accurate_single_job_meets_deadline_exactly_under_strict() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        // Required share 0.5 → rate 0.5 → finish at 200.
        assert!((e.rate_of(JobId(0)).unwrap() - 0.5).abs() < 1e-12);
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].finish.as_secs() - 200.0).abs() < 1e-3,
            "finish {:?}",
            done[0].finish
        );
        assert_eq!(done[0].overruns, 0);
        assert!(e.is_empty());
    }

    #[test]
    fn work_conserving_runs_at_full_speed_when_alone() {
        // Work-conserving is the default discipline.
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        assert!((e.rate_of(JobId(0)).unwrap() - 1.0).abs() < 1e-12);
        let done = run_to_completion(&mut e);
        assert!((done[0].finish.as_secs() - 100.0).abs() < 1e-3);
    }

    #[test]
    fn overestimated_job_finishes_when_actual_work_done() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        // Estimate 4× the runtime, deadline 400: share = 1.0 (est 400 / dl
        // 400)... the scheduler thinks the job needs the whole node.
        e.admit(
            job(0, 0.0, 100.0, 400.0, 1, 400.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let done = run_to_completion(&mut e);
        // Actual work 100 at rate 1.0 → finishes at ~100, well before the
        // deadline, despite the scheduler's inflated belief.
        assert!(
            (done[0].finish.as_secs() - 100.0).abs() < 1e-3,
            "finish {:?}",
            done[0].finish
        );
        assert_eq!(done[0].overruns, 0);
    }

    #[test]
    fn underestimated_job_overruns_and_still_completes() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        // Estimate 50, actual 100, deadline 100: share starts at 0.5.
        e.admit(
            job(0, 0.0, 100.0, 50.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        assert!(done[0].overruns >= 1, "overruns {}", done[0].overruns);
        // It must finish eventually — after its deadline.
        assert!(done[0].finish.as_secs() > 100.0);
        // And the engine must never lose the job.
        assert!(e.is_empty());
    }

    #[test]
    fn overloaded_node_squeezes_coresidents() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        // Two jobs each demanding share 0.75: the node is overloaded and
        // both run slower than required.
        e.admit(
            job(0, 0.0, 75.0, 75.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 75.0, 75.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let r0 = e.rate_of(JobId(0)).unwrap();
        assert!((r0 - 0.5).abs() < 1e-9, "rate {r0}");
        let done = run_to_completion(&mut e);
        for d in &done {
            assert!(
                d.finish.as_secs() > 100.0 + 1.0,
                "both jobs miss: {:?}",
                d.finish
            );
        }
    }

    #[test]
    fn gang_job_advances_at_slowest_member_rate() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // Node 0 also hosts a competing job → gang member on node 0 is
        // slower than on node 1.
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 125.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 50.0, 50.0, 2, 100.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        // Node 0: shares 0.8 + 0.5 = 1.3 (overloaded) → gang rate on node
        // 0 = 0.5/1.3; node 1: share 0.5 alone → rate 0.5. Gang = min.
        let gang = e.rate_of(JobId(1)).unwrap();
        assert!((gang - 0.5 / 1.3).abs() < 1e-9, "gang rate {gang}");
    }

    #[test]
    fn gang_rate_falls_back_member_wise_on_degenerate_inputs() {
        // The member-wise min over `share / denom * speed`, as
        // `recompute_rates_reference` folds it.
        fn member_wise(e: &ProportionalCluster, si: usize, strict: bool) -> f64 {
            let share = e.share_scratch[si];
            e.members(si).iter().fold(f64::INFINITY, |rate, &n| {
                let total = e.totals_scratch[e.group_of[n as usize] as usize];
                let denom = if strict { total.max(1.0) } else { total };
                rate.min(share / denom * e.cluster.speed_factor(NodeId(n)))
            })
        }
        let mixed = Cluster::new(
            vec![
                Node::new(NodeId(0), 84.0),
                Node::new(NodeId(1), 336.0),
                Node::new(NodeId(2), 168.0),
            ],
            168.0,
        );
        for (c, uniform) in [(cluster(3), true), (mixed, false)] {
            let mut e = ProportionalCluster::new(c, ProportionalConfig::default());
            assert_eq!(e.uniform_speed.is_some(), uniform);
            // Totals are per resident-set group: one-node residents on
            // two of the gang's members put its three members in three
            // groups, so each case sets each member's total on its own.
            e.admit(
                job(1, 0.0, 100.0, 100.0, 1, 400.0),
                vec![NodeId(0)],
                SimTime::ZERO,
            );
            e.admit(
                job(2, 0.0, 100.0, 100.0, 1, 400.0),
                vec![NodeId(1)],
                SimTime::ZERO,
            );
            e.admit(
                job(0, 0.0, 100.0, 100.0, 3, 400.0),
                vec![NodeId(2), NodeId(0), NodeId(1)],
                SimTime::ZERO,
            );
            let groups = [0, 1, 2].map(|n| e.group_of[n]);
            assert!(
                groups[0] != groups[1] && groups[1] != groups[2] && groups[0] != groups[2],
                "members share a group: {groups:?}"
            );
            let si = e.slot_of(JobId(0)).unwrap();
            // (share, member totals): a zero share over zero totals (the
            // one-division form would give 0/0 = NaN where every member
            // is skipped), zero totals under a positive share, an
            // infinite member total, one and only NaN member totals, a
            // NaN share, and the ordinary case.
            let cases = [
                (0.0, [0.0, 0.0, 0.0]),
                (0.25, [0.0, 0.0, 0.0]),
                (0.25, [0.5, f64::INFINITY, 0.25]),
                (0.25, [f64::NAN, 0.5, 0.25]),
                (0.25, [f64::NAN, f64::NAN, f64::NAN]),
                (0.0, [0.5, 2.0, 0.25]),
                (f64::NAN, [0.5, 2.0, 0.25]),
                (0.25, [0.5, 2.0, 0.25]),
            ];
            for (share, totals) in cases {
                e.share_scratch[si] = share;
                for (&g, &total) in groups.iter().zip(&totals) {
                    e.totals_scratch[g as usize] = total;
                }
                for strict in [false, true] {
                    assert_eq!(
                        e.gang_rate(si, strict).to_bits(),
                        member_wise(&e, si, strict).to_bits(),
                        "share {share}, totals {totals:?}, strict {strict}, uniform {uniform}"
                    );
                }
            }
            // Work-conserving 0/0 lands on the fallback's +inf, not NaN.
            e.share_scratch[si] = 0.0;
            e.totals_scratch.fill(0.0);
            assert_eq!(e.gang_rate(si, false), f64::INFINITY);
        }
    }

    #[test]
    fn fail_node_evicts_gangs_and_frees_survivor_capacity() {
        let mut e = ProportionalCluster::new(cluster(3), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 2, 400.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 100.0, 100.0, 1, 400.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
        e.admit(
            job(2, 0.0, 100.0, 100.0, 1, 400.0),
            vec![NodeId(2)],
            SimTime::ZERO,
        );
        let t = SimTime::from_secs(50.0);
        e.advance(t);
        let displaced = e.fail_node(NodeId(0), t);
        // Only the gang touching node 0 dies; its progress is reported.
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].job.id, JobId(0));
        assert!(displaced[0].remaining_work < 100.0);
        assert!(!e.node_is_up(NodeId(0)));
        assert_eq!(e.up_nodes(), 2);
        // Node 1 lost its gang member: only job 1 remains there.
        assert_eq!(on_node(&e, 1), vec![JobId(1)]);
        assert!(on_node(&e, 0).is_empty());
        // The survivors still drain to completion.
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 2);
        e.restore_node(NodeId(0), e.now());
        assert!(e.node_is_up(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "onto down")]
    fn admitting_onto_down_node_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.fail_node(NodeId(1), SimTime::ZERO);
        e.admit(
            job(0, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_node_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.fail_node(NodeId(1), SimTime::ZERO);
        e.fail_node(NodeId(1), SimTime::ZERO);
    }

    #[test]
    fn fail_node_rebalances_shared_node_rates() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // Two jobs share node 1; one also spans node 0.
        e.admit(
            job(0, 0.0, 100.0, 100.0, 2, 200.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
        let squeezed = e.rate_of(JobId(1)).unwrap();
        e.fail_node(NodeId(0), SimTime::ZERO);
        // With the gang evicted, job 1 owns node 1 again.
        assert!(e.rate_of(JobId(0)).is_none());
        assert!(e.rate_of(JobId(1)).unwrap() > squeezed);
    }

    #[test]
    fn utilization_accounts_gang_width() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        let cfg_now = SimTime::ZERO;
        e.admit(
            job(0, 0.0, 100.0, 100.0, 2, 100.0),
            vec![NodeId(0), NodeId(1)],
            cfg_now,
        );
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        // Share 1.0 on both nodes → full utilisation of both for 100 s.
        assert!(
            (e.utilization() - 1.0).abs() < 1e-6,
            "util {}",
            e.utilization()
        );
    }

    #[test]
    fn arrivals_mid_run_redistribute_rates() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        // Advance halfway, then a second job arrives requiring share 0.8.
        let t = SimTime::from_secs(100.0);
        let done = e.advance(t);
        assert!(done.is_empty());
        assert!((e.remaining_est_of(JobId(0)).unwrap() - 50.0).abs() < 1e-9);
        e.admit(job(1, 100.0, 80.0, 80.0, 1, 100.0), vec![NodeId(0)], t);
        // Node now has shares 0.5 + 0.8 = 1.3 → job 0's rate drops.
        let r0 = e.rate_of(JobId(0)).unwrap();
        assert!((r0 - 0.5 / 1.3).abs() < 1e-9, "rate {r0}");
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn node_total_share_matches_eq2() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 60.0, 60.0, 1, 120.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let s = e.node_total_share(NodeId(0), None);
        assert!((s - 0.5).abs() < 1e-9);
        let new = job(1, 0.0, 30.0, 30.0, 1, 100.0);
        let s2 = e.node_total_share(NodeId(0), Some(&new));
        assert!((s2 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn projection_input_includes_tentative_job() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 60.0, 60.0, 1, 120.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let new = job(1, 0.0, 30.0, 30.0, 1, 100.0);
        let pj = e.node_projection(NodeId(0), Some(&new));
        assert_eq!(pj.len(), 2);
        assert_eq!(pj[1].remaining_est, 30.0);
        assert_eq!(pj[1].abs_deadline, 100.0);
    }

    #[test]
    #[should_panic(expected = "advance() the engine")]
    fn stale_admit_panics() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::from_secs(5.0),
        );
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn wrong_node_count_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 2, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_node_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 2, 100.0),
            vec![NodeId(0), NodeId(0)],
            SimTime::ZERO,
        );
    }

    #[test]
    fn queries_on_absent_jobs_return_none() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        assert_eq!(e.rate_of(JobId(7)), None);
        assert_eq!(e.remaining_est_of(JobId(7)), None);
        e.admit(
            job(7, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
        assert_eq!(on_node(&e, 1), vec![JobId(7)]);
        assert!(on_node(&e, 0).is_empty());
        assert_eq!(e.resident_count(NodeId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_rejects_time_travel() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.advance(SimTime::from_secs(5.0));
        e.advance(SimTime::from_secs(1.0));
    }

    #[test]
    fn idle_engine_has_no_next_event() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        assert!(e.next_event_time().is_none());
        assert_eq!(e.utilization(), 0.0);
    }

    #[test]
    fn quantum_bounds_event_gap() {
        // A lone job whose completion (1e5 s) and deadline (1e6 s) both
        // lie far beyond the quantum wakes the engine at the quantum.
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 1e5, 1e5, 1, 1e6),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let next = e.next_event_time().unwrap();
        assert_eq!(next.as_secs(), MAX_QUANTUM);
    }

    #[test]
    fn cached_next_event_matches_scan_through_a_busy_run() {
        let mut e = ProportionalCluster::new(cluster(4), ProportionalConfig::default());
        let mut id = 0u64;
        let mut t = 0.0;
        for round in 0..40 {
            // Admit a small burst with varied shapes.
            for k in 0..3 {
                let node = NodeId(((round + k) % 4) as u32);
                e.admit(
                    job(
                        id,
                        t,
                        20.0 + 7.0 * k as f64,
                        25.0,
                        1,
                        90.0 + 11.0 * k as f64,
                    ),
                    vec![node],
                    SimTime::from_secs(t),
                );
                assert_eq!(
                    e.next_event_time().map(|t| t.as_secs().to_bits()),
                    e.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                    "cached and scan diverged after admit"
                );
                id += 1;
            }
            let next = e.next_event_time().expect("jobs resident");
            t = next.as_secs();
            e.advance(next);
            assert_eq!(
                e.next_event_time().map(|t| t.as_secs().to_bits()),
                e.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                "cached and scan diverged after advance"
            );
        }
        // Drain to idle; the two must agree at every event.
        while let Some(next) = e.next_event_time() {
            assert_eq!(
                e.next_event_time().map(|t| t.as_secs().to_bits()),
                e.next_event_time_scan().map(|t| t.as_secs().to_bits())
            );
            e.advance(next);
        }
        assert!(e.is_empty());
        assert!(e.next_event_time_scan().is_none());
    }

    #[test]
    fn swap_remove_keeps_slots_consistent() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // Five jobs on node 0 with staggered finishes, one gang job over
        // both nodes: removals from the middle of node 0's list move its
        // last entry into the leaver's place. Equal estimates give equal
        // shares, so the staggered runtimes finish one at a time.
        for i in 0..5 {
            e.admit(
                job(i, 0.0, 10.0 + 10.0 * i as f64, 60.0, 1, 500.0),
                vec![NodeId(0)],
                SimTime::ZERO,
            );
        }
        e.admit(
            job(9, 0.0, 25.0, 60.0, 2, 500.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        let mut lists = vec![(0..5).chain([9]).map(JobId).collect(), vec![JobId(9)]];
        let mut advances_completing = 0;
        while let Some(next) = e.next_event_time() {
            let done = e.advance(next);
            advances_completing += usize::from(!done.is_empty());
            for c in done {
                swap_remove_from_lists(&mut lists, c.job.id);
            }
            assert_lists_match(&e, &lists);
            assert_removal_bookkeeping(&e);
        }
        assert_eq!(advances_completing, 6, "one completion per advance");
        assert!(on_node(&e, 0).is_empty());
        assert!(on_node(&e, 1).is_empty());
    }

    #[test]
    fn rate_starved_resident_gets_conservative_wake() {
        // Job 1's share underflows to zero next to an astronomically
        // inflated co-resident: the engine must neither panic nor stall.
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 1e300, 1, 1.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 10.0, 1e-6, 1, 1e300),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        assert_eq!(e.rate_of(JobId(1)), Some(0.0), "share underflows to zero");
        let next = e.next_event_time().expect("resident jobs");
        assert!(next > e.now(), "wake must move time forward");
        assert!(
            next.as_secs() <= e.now().as_secs() + MAX_QUANTUM,
            "wake is quantum-bounded"
        );
        assert_eq!(
            e.next_event_time().map(|t| t.as_secs().to_bits()),
            e.next_event_time_scan().map(|t| t.as_secs().to_bits())
        );
        // The engine keeps making progress events even while one job is
        // starved (job 0 completes, then job 1 recovers the full node).
        let mut done = Vec::new();
        let mut guard = 0;
        while let Some(t) = e.next_event_time() {
            done.extend(e.advance(t));
            guard += 1;
            assert!(guard < 100_000, "engine did not converge");
        }
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn advance_matches_reference_under_long_churn() {
        // Long-lived residents under steady event churn: the fast path
        // (scratch buffers, cached event minimum, in-sweep pass 1)
        // must stay bitwise identical to the reference at every step.
        let mut fast = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        let mut refr = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        for i in 0..8 {
            let j = job(i, 0.0, 1e6, 1e6, 1, 2e6);
            fast.admit(j.clone(), vec![NodeId((i % 2) as u32)], SimTime::ZERO);
            refr.admit(j, vec![NodeId((i % 2) as u32)], SimTime::ZERO);
        }
        for step in 1..500u64 {
            let t = SimTime::from_secs(step as f64);
            let a = fast.advance(t);
            let b = refr.advance_reference(t);
            assert_eq!(a.len(), b.len());
            assert_eq!(
                fast.next_event_time().map(|t| t.as_secs().to_bits()),
                refr.next_event_time().map(|t| t.as_secs().to_bits()),
                "fast and reference diverged at step {step}"
            );
            for i in 0..8 {
                assert_eq!(
                    fast.rate_of(JobId(i)).map(f64::to_bits),
                    refr.rate_of(JobId(i)).map(f64::to_bits)
                );
                assert_eq!(
                    fast.remaining_est_of(JobId(i)).map(f64::to_bits),
                    refr.remaining_est_of(JobId(i)).map(f64::to_bits)
                );
            }
            assert_eq!(fast.utilization().to_bits(), refr.utilization().to_bits());
        }
    }

    #[test]
    fn gang_arena_stays_bounded_under_load_that_never_drains() {
        // A resident that outlives the run keeps the engine from ever
        // draining, so only `admit`'s compaction can reclaim the runs
        // completed gangs leave behind. Rates stay bitwise equal to a
        // twin driven through the reference paths.
        let mut fast = ProportionalCluster::new(cluster(8), ProportionalConfig::default());
        let mut refr = ProportionalCluster::new(cluster(8), ProportionalConfig::default());
        let anchor = job(0, 0.0, 1e9, 1e9, 2, 2e9);
        fast.admit(anchor.clone(), vec![NodeId(6), NodeId(7)], SimTime::ZERO);
        refr.admit(anchor, vec![NodeId(6), NodeId(7)], SimTime::ZERO);
        let (mut admitted, mut compactions) = (2usize, 0);
        for i in 1..1500u64 {
            let now = fast.now();
            let width = 1 + (i % 6) as u32;
            let nodes: Vec<NodeId> = (0..width).map(|k| NodeId((i as u32 + k) % 8)).collect();
            let j = job(i, now.as_secs(), 5.0 + (i % 7) as f64, 8.0, width, 400.0);
            let before = fast.gang_nodes.len();
            fast.admit(j.clone(), nodes.clone(), now);
            refr.admit(j, nodes, now);
            refr.recompute_rates_reference();
            admitted += width as usize;
            if fast.gang_nodes.len() < before {
                compactions += 1;
            }
            assert!(
                fast.gang_nodes.len() <= 2 * fast.gang_live + 6,
                "arena {} entries for {} live at admission {i}",
                fast.gang_nodes.len(),
                fast.gang_live
            );
            // Six seconds between arrivals: about 60% load on the free
            // nodes, so gangs complete as fast as they arrive.
            let target = now + SimDuration::from_secs(6.0);
            loop {
                let next = fast
                    .next_event_time()
                    .expect("anchor keeps the engine busy");
                let to = next.min(target);
                let a = fast.advance(to);
                let b = refr.advance_reference(to);
                assert_eq!(a.len(), b.len());
                if to == target {
                    break;
                }
            }
            // Jobs finish within a few dozen admissions; the anchor stays.
            for id in std::iter::once(0).chain(i.saturating_sub(64)..=i) {
                assert_eq!(
                    fast.rate_of(JobId(id)).map(f64::to_bits),
                    refr.rate_of(JobId(id)).map(f64::to_bits),
                    "rate of job {id} diverged at admission {i}"
                );
            }
        }
        let live: usize = fast
            .order
            .iter()
            .map(|&s| fast.width[s as usize] as usize)
            .sum();
        assert_eq!(fast.gang_live, live);
        assert!(compactions > 0, "the arena was never compacted");
        assert!(
            fast.gang_nodes.len() * 10 < admitted,
            "the arena kept dead runs"
        );
    }

    #[test]
    fn zero_dt_advance_skips_recompute_bitwise_inertly() {
        // Same-instant advances must change neither any rate bit nor the
        // next event time.
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        for i in 0..4 {
            e.admit(
                job(i, 0.0, 50.0 + i as f64, 60.0, 1, 200.0),
                vec![NodeId((i % 2) as u32)],
                SimTime::ZERO,
            );
        }
        let t = SimTime::from_secs(7.0);
        e.advance(t);
        let rates: Vec<u64> = (0..4)
            .map(|i| e.rate_of(JobId(i)).unwrap().to_bits())
            .collect();
        let next = e.next_event_time().map(|t| t.as_secs().to_bits());
        for _ in 0..5 {
            let done = e.advance(t);
            assert!(done.is_empty());
        }
        assert_eq!(e.next_event_time().map(|t| t.as_secs().to_bits()), next);
        for (i, bits) in rates.iter().enumerate() {
            assert_eq!(e.rate_of(JobId(i as u64)).unwrap().to_bits(), *bits);
        }
    }

    /// The index's bookkeeping against its partition: sizes count the
    /// members, the free list holds exactly the memberless ids, each
    /// speed class names the group of its empty nodes (none when it has
    /// no empty node), and the scratch is clear between calls. Each
    /// resident's cover is the set of its members' groups, and every
    /// node's group total is current (see `assert_share_totals_current`).
    fn assert_index_consistent(e: &ProportionalCluster) {
        let n = e.cluster.len();
        let mut size = vec![0u32; n];
        for &g in &e.group_of {
            size[g as usize] += 1;
        }
        assert_eq!(size, e.group_size, "group sizes");
        let mut free = e.free_groups.clone();
        free.sort_unstable();
        let unused: Vec<u32> = (0..n as u32).filter(|&g| size[g as usize] == 0).collect();
        assert_eq!(free, unused, "free group ids");
        for (c, &g) in e.empty_group.iter().enumerate() {
            let empty: Vec<usize> = (0..n)
                .filter(|&i| e.speed_class[i] as usize == c && e.node_jobs[i].is_empty())
                .collect();
            if g == NO_GROUP {
                assert!(empty.is_empty(), "class {c} has empty nodes but no group");
            } else {
                assert!(!empty.is_empty(), "class {c} names an empty group of none");
                assert!(empty.iter().all(|&i| e.group_of[i] == g));
            }
        }
        assert!(
            e.group_scratch.iter().all(|&x| x == 0),
            "scratch left dirty"
        );
        let mut keys = vec![0u32; e.key_count.len()];
        for g in 0..n as u32 {
            if let Some(m) = (0..n).find(|&m| e.group_of[m] == g) {
                keys[key_bucket(e.key_count.len(), e.set_hash[m], e.speed_class[m])] += 1;
            }
        }
        assert_eq!(keys, e.key_count, "group key counts");
        for &s in &e.order {
            let si = s as usize;
            let start = e.gang_start[si] as usize;
            let mut cover = e.cover[start..start + e.cover_len[si] as usize].to_vec();
            cover.sort_unstable();
            let mut want: Vec<u32> = e
                .members(si)
                .iter()
                .map(|&m| e.group_of[m as usize])
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(cover, want, "cover of {}", e.ids[si]);
        }
        assert_share_totals_current(e);
    }

    /// The pass-1 scratch is current: every node's served share total is
    /// bitwise the from-zero ascending-id fold of its residents' Eq. 1
    /// shares at `last_update`, the fold the reference recompute sums.
    fn assert_share_totals_current(e: &ProportionalCluster) {
        let now = e.last_update.as_secs();
        let mut fold = vec![0.0f64; e.cluster.len()];
        for &s in &e.order {
            let si = s as usize;
            let rd = (e.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = e.remaining_est[si].max(EPS_WORK) / rd;
            for &m in e.members(si) {
                fold[m as usize] += share;
            }
        }
        for (ni, want) in fold.iter().enumerate() {
            assert_eq!(
                e.node_share_total_now(NodeId(ni as u32)).to_bits(),
                want.to_bits(),
                "share total of node {ni} at {}",
                e.last_update
            );
        }
    }

    /// Takes `id` out of every modelled node list the way the engine's
    /// removal must: the list's last entry moves into its place.
    fn swap_remove_from_lists(lists: &mut [Vec<JobId>], id: JobId) {
        for list in lists {
            if let Some(p) = list.iter().position(|&j| j == id) {
                list.swap_remove(p);
            }
        }
    }

    /// The engine's per-node resident lists, order included, against a
    /// model of them: the order is scheduler-visible (Libra's share fold,
    /// projections and checkpoint positions read it).
    fn assert_lists_match(e: &ProportionalCluster, lists: &[Vec<JobId>]) {
        for (n, want) in lists.iter().enumerate() {
            assert_eq!(&on_node(e, n as u32), want, "resident list of node {n}");
        }
    }

    /// One random engine mutation of the churn tests, with job id `id`:
    /// half the time a gang of up to `max_width` up nodes, placed in
    /// shuffled node order, with a deadline from a small set so residents
    /// of one node often share its minimum; otherwise an advance to the
    /// next event, a node failure or restore, or a snapshot round trip.
    /// `lists` models the per-node resident lists through every step.
    fn churn_step(
        e: &mut ProportionalCluster,
        lists: &mut [Vec<JobId>],
        rng: &mut sim::Rng64,
        id: u64,
        max_width: u64,
    ) {
        let nodes = e.cluster.len() as u32;
        let now = e.now();
        match rng.below(8) {
            0..=3 => {
                let mut up: Vec<NodeId> = (0..nodes)
                    .map(NodeId)
                    .filter(|&n| e.node_is_up(n))
                    .collect();
                for k in (1..up.len()).rev() {
                    up.swap(k, rng.below(k as u64 + 1) as usize);
                }
                let width = 1 + rng.below(max_width) as usize;
                if width <= up.len() {
                    up.truncate(width);
                    let runtime = rng.uniform(1.0, 400.0);
                    let deadline = 100.0 * (1 + rng.below(6)) as f64;
                    let mut j = job(id, 0.0, runtime, runtime, width as u32, deadline);
                    j.submit = now;
                    for n in &up {
                        lists[n.0 as usize].push(j.id);
                    }
                    e.admit(j, up, now);
                }
            }
            4 | 5 => {
                if let Some(t) = e.next_event_time() {
                    for c in e.advance(t) {
                        swap_remove_from_lists(lists, c.job.id);
                    }
                }
            }
            6 => {
                let n = NodeId(rng.below(u64::from(nodes)) as u32);
                if e.node_is_up(n) {
                    for d in e.fail_node(n, now) {
                        swap_remove_from_lists(lists, d.job.id);
                    }
                } else {
                    e.restore_node(n, now);
                }
            }
            _ => {
                let snap = e.snapshot();
                *e = ProportionalCluster::from_snapshot(e.cluster.clone(), *e.config(), &snap)
                    .expect("a live snapshot restores");
            }
        }
    }

    #[test]
    fn set_index_bookkeeping_survives_gang_churn() {
        // Mixed speeds, gangs up to 6 wide, node failures and restores,
        // and snapshot round trips.
        let mixed = Cluster::new(
            (0..12)
                .map(|i| Node::new(NodeId(i), [168.0, 336.0, 84.0][i as usize % 3]))
                .collect(),
            168.0,
        );
        let mut e = ProportionalCluster::new(mixed, ProportionalConfig::default());
        assert_index_consistent(&e);
        let mut lists = vec![Vec::new(); 12];
        let mut rng = sim::Rng64::new(11);
        for i in 0..600u64 {
            churn_step(&mut e, &mut lists, &mut rng, i, 6);
            assert_index_consistent(&e);
            assert_removal_bookkeeping(&e);
            assert_lists_match(&e, &lists);
        }
    }

    /// The node lists against the gang runs, with plain asserts so
    /// release builds check it too: every node-list entry is a resident
    /// whose run names the node; each resident sits exactly once on each
    /// of its members' lists; and each node's cached minimum deadline is
    /// the fold over its list.
    fn assert_removal_bookkeeping(e: &ProportionalCluster) {
        for (ni, list) in e.node_jobs.iter().enumerate() {
            for (p, &s) in list.iter().enumerate() {
                assert!(e.meta[s as usize].is_some(), "listed slot at {ni}[{p}]");
                assert!(
                    e.members(s as usize).contains(&(ni as u32)),
                    "{ni}[{p}] lists a gang that does not cover it"
                );
            }
            let min = list
                .iter()
                .fold(f64::INFINITY, |m, &s| m.min(e.abs_deadline[s as usize]));
            assert_eq!(
                e.node_min_dl[ni].to_bits(),
                min.to_bits(),
                "node {ni} min deadline"
            );
        }
        for &s in &e.order {
            for &n in e.members(s as usize) {
                let listed = e.node_jobs[n as usize].iter().filter(|&&r| r == s).count();
                assert_eq!(listed, 1, "{} on node {n}", e.ids[s as usize]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn removal_bookkeeping_survives_wide_gang_churn(
            nodes in 2usize..10,
            seed in 0u64..u64::MAX,
            steps in 1u64..200,
        ) {
            // Gangs up to the whole cluster.
            let mut e = ProportionalCluster::new(cluster(nodes), ProportionalConfig::default());
            let mut lists = vec![Vec::new(); nodes];
            let mut rng = sim::Rng64::new(seed);
            for i in 0..steps {
                churn_step(&mut e, &mut lists, &mut rng, i, nodes as u64);
                assert_removal_bookkeeping(&e);
                assert_index_consistent(&e);
                assert_lists_match(&e, &lists);
            }
        }
    }

    #[test]
    fn reference_paths_leave_the_share_totals_current() {
        // An engine driven only through the oracles: gangs admitted at
        // each instant, then either a lone reference recompute or a
        // reference advance to the next event. The fast paths read and
        // extend the share totals after either, so both must leave them
        // current.
        let mut e = ProportionalCluster::new(cluster(6), ProportionalConfig::default());
        let mut rng = sim::Rng64::new(5);
        for i in 0..300u64 {
            let now = e.now();
            let width = 1 + rng.below(3) as u32;
            let first = rng.below(6) as u32;
            let nodes = (0..width).map(|k| NodeId((first + 2 * k) % 6)).collect();
            let mut j = job(i, 0.0, rng.uniform(1.0, 300.0), 150.0, width, 400.0);
            j.submit = now;
            e.admit(j, nodes, now);
            if i % 3 == 0 {
                e.recompute_rates_reference();
            } else {
                let to = e.next_event_time().expect("a job is resident");
                e.advance_reference(to);
            }
            assert_share_totals_current(&e);
        }
    }

    #[test]
    fn work_is_conserved_across_many_jobs() {
        // Total delivered work equals the sum of runtimes regardless of
        // contention (single node, serial jobs).
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        for i in 0..5 {
            e.admit(
                job(i, 0.0, 40.0, 40.0, 1, 150.0 + 10.0 * i as f64),
                vec![NodeId(0)],
                SimTime::ZERO,
            );
        }
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 5);
        let makespan = done.iter().map(|d| d.finish.as_secs()).fold(0.0, f64::max);
        // 200 s of work on one processor: cannot finish before 200 s.
        assert!(makespan >= 200.0 - 1e-3, "makespan {makespan}");
        // busy integral == total work delivered.
        assert!((e.utilization() * makespan - 200.0).abs() < 1.0);
    }
}
