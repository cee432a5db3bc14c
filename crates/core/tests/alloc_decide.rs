//! Steady-state allocation audit for the *decision* path: once scratch
//! buffers are warm, `decide` must not touch the heap beyond the accepted
//! node list it hands back — no per-decision worklists, no growth of the
//! per-group verdict array, no projection-input or workspace churn. Rejections return
//! `None` and must therefore be exactly zero-allocation; acceptances may
//! allocate only the returned `Vec<NodeId>` (one allocation). A `dt > 0`
//! advance between decisions moves the residents' remaining work, so
//! each measured decision gathers and sorts fresh projection inputs and
//! re-runs the screens and the verdict kernel. Decisions repeated at one
//! unchanged engine state, as when several jobs arrive at the same
//! instant, are measured too. A counting global allocator makes the claim checkable;
//! the allocator is process-global, so this file holds a single
//! `#[test]`.

use cluster::proportional::{ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, NodeId};
use librisk::libra::Libra;
use librisk::libra_risk::LibraRisk;
use librisk::policy::ShareAdmission;
use sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workload::{Job, JobId, Urgency};

/// `System`, with every allocation and reallocation counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn job(id: u64, runtime: f64, estimate: f64, deadline: f64, submit: SimTime) -> Job {
    Job {
        id: JobId(id),
        submit,
        runtime: SimDuration::from_secs(runtime),
        estimate: SimDuration::from_secs(estimate),
        procs: 1,
        deadline: SimDuration::from_secs(deadline),
        urgency: Urgency::Low,
    }
}

/// Advances by a tiny positive step (well under the next event gap, so
/// residency never changes) purely to move every resident's remaining
/// work: the next decision projects new inputs on every node it reaches.
fn nudge(engine: &mut ProportionalCluster) {
    let now = engine.now();
    let gap = engine
        .next_event_time()
        .map(|t| (t - now).as_secs())
        .unwrap_or(1.0);
    engine.advance(now + SimDuration::from_secs((gap * 0.001).clamp(1e-6, 1.0)));
}

/// Runs `iters` varied decisions against `engine`, each preceded by a
/// work-moving nudge when `fresh` is set (otherwise all at the current
/// engine state), and returns `(allocations, accepts)` counted around
/// the `decide` calls only.
fn measure<P: ShareAdmission>(
    policy: &mut P,
    engine: &mut ProportionalCluster,
    iters: usize,
    base_est: f64,
    deadline: f64,
    fresh: bool,
) -> (u64, u64) {
    let mut allocs = 0u64;
    let mut accepts = 0u64;
    for i in 0..iters {
        if fresh {
            nudge(engine);
        }
        // Vary the estimate so the candidate differs every iteration.
        let j = job(
            90_000 + i as u64,
            100.0,
            base_est + i as f64,
            deadline,
            engine.now(),
        );
        let before = ALLOCS.load(Ordering::Relaxed);
        let d = policy.decide(engine, &j);
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
        if d.is_some() {
            accepts += 1;
        }
    }
    (allocs, accepts)
}

#[test]
fn steady_state_decide_allocates_only_accepted_node_lists() {
    // Saturated regime: every node carries one heavy resident whose
    // estimate dwarfs its deadline, in 16 distinct shapes so the screens
    // and the verdict kernel stay busy. A tight-deadline candidate is
    // provably risky everywhere -> every decision rejects.
    let mut engine = ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
    let nodes = engine.cluster().len();
    for i in 0..nodes {
        let est = 20_000.0 + (i % 16) as f64 * 500.0;
        engine.admit(
            job(i as u64, 50_000.0, est, 3_000.0, SimTime::ZERO),
            vec![NodeId(i as u32)],
            SimTime::ZERO,
        );
    }
    let mut lr = LibraRisk::paper();
    let mut libra = Libra::new();
    // Warm-up sizes every scratch buffer: group verdicts, projection input,
    // projection workspace, the suitable-node worklist.
    measure(&mut lr, &mut engine, 48, 5_000.0, 800.0, true);
    measure(&mut libra, &mut engine, 48, 5_000.0, 800.0, true);
    let (lr_allocs, lr_accepts) = measure(&mut lr, &mut engine, 256, 5_000.0, 800.0, true);
    assert_eq!(lr_accepts, 0, "saturated cluster accepted a risky job");
    assert_eq!(
        lr_allocs, 0,
        "LibraRisk reject path allocated {lr_allocs} times over 256 decisions"
    );
    // The same reject path with every decision at one unchanged engine
    // state: nothing may be kept per repeated state either.
    let (lr_allocs, lr_accepts) = measure(&mut lr, &mut engine, 256, 5_000.0, 800.0, false);
    assert_eq!(lr_accepts, 0, "saturated cluster accepted a risky job");
    assert_eq!(
        lr_allocs, 0,
        "LibraRisk same-state reject path allocated {lr_allocs} times over 256 decisions"
    );
    let (l_allocs, l_accepts) = measure(&mut libra, &mut engine, 256, 5_000.0, 800.0, true);
    assert_eq!(l_accepts, 0, "saturated cluster accepted an infeasible job");
    assert_eq!(
        l_allocs, 0,
        "Libra reject path allocated {l_allocs} times over 256 decisions"
    );

    // Lightly loaded regime: half the nodes empty, generous deadlines ->
    // every decision accepts. The only permitted allocation is the
    // returned node list itself (one per accept).
    let mut light = ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
    for i in 0..nodes / 2 {
        let est = 100.0 + (i % 16) as f64 * 10.0;
        light.admit(
            job(i as u64, 90_000.0, est, 90_000.0, SimTime::ZERO),
            vec![NodeId(i as u32)],
            SimTime::ZERO,
        );
    }
    let mut lr = LibraRisk::paper();
    let mut libra = Libra::new();
    measure(&mut lr, &mut light, 48, 10.0, 50_000.0, true);
    measure(&mut libra, &mut light, 48, 10.0, 50_000.0, true);
    let (lr_allocs, lr_accepts) = measure(&mut lr, &mut light, 256, 10.0, 50_000.0, true);
    assert_eq!(lr_accepts, 256, "light cluster rejected a safe job");
    assert!(
        lr_allocs <= lr_accepts,
        "LibraRisk accept path allocated {lr_allocs} times for {lr_accepts} node lists"
    );
    let (l_allocs, l_accepts) = measure(&mut libra, &mut light, 256, 10.0, 50_000.0, true);
    assert_eq!(l_accepts, 256, "light cluster rejected a feasible job");
    assert!(
        l_allocs <= l_accepts,
        "Libra accept path allocated {l_allocs} times for {l_accepts} node lists"
    );
}
