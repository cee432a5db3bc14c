//! Steady-state allocation audit: once its scratch buffers are warm, the
//! proportional engine's advance path must not touch the heap at all —
//! no per-event worklists, no per-recompute totals, no completion-buffer
//! churn — and neither does an admission: a gang's members live only in
//! the engine's own arena, whose capacity is warm. A counting global
//! allocator makes the claim checkable instead of asserted in comments.
//! One test per binary: the allocator is process-global, so this file
//! intentionally holds a single `#[test]`.

use cluster::proportional::{CompletedJob, ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, NodeId};
use sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
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

fn job(id: u64, runtime: f64, estimate: f64, deadline: f64) -> Job {
    Job {
        id: JobId(id),
        submit: SimTime::ZERO,
        runtime: SimDuration::from_secs(runtime),
        estimate: SimDuration::from_secs(estimate),
        procs: 1,
        deadline: SimDuration::from_secs(deadline),
        urgency: Urgency::Low,
    }
}

#[test]
fn steady_state_advance_allocates_nothing() {
    // An event-heavy load: staggered runtimes and deadlines, a third of
    // the jobs under-estimating so overrun re-arms fire mid-drain.
    let mut engine = ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
    let nodes = engine.cluster().len();
    for i in 0..256usize {
        let runtime = 300.0 + (i as f64 * 7.919) % 700.0;
        let est_factor = [0.5, 1.0, 2.0][i % 3];
        let deadline = 2_000.0 + (i as f64 * 13.37) % 6_000.0;
        let mut j = job(i as u64, runtime, (runtime * est_factor).max(1.0), deadline);
        j.runtime = SimDuration::from_secs(runtime);
        engine.admit(j, vec![NodeId((i % nodes) as u32)], SimTime::ZERO);
    }
    // Completed jobs are replaced by fresh admissions so residency — and
    // with it the slot arena — stays in its steady regime, exactly like
    // the driver's loop. Warm-up: the first 600 replacements, which size
    // every engine-owned buffer (completion worklist, totals, caller
    // buffer, free slots) and carry the gang-node arena past two
    // compactions to its high-water capacity. Measured window: the next
    // 1,000 event advances, including completions, overrun re-arms and
    // rate recomputes, and the replacements they trigger, counted apart.
    // The caller's node list is built outside the count (the engine
    // drops it, and frees are not counted).
    let mut buf: Vec<CompletedJob> = Vec::with_capacity(64);
    let mut advance_allocs = 0u64;
    let mut admit_allocs = 0u64;
    let mut admits = 0u64;
    let mut measured = 0usize;
    let mut next_id = 10_000u64;
    let mut host: HashMap<JobId, NodeId> = (0..256u64)
        .map(|i| (JobId(i), NodeId((i % nodes as u64) as u32)))
        .collect();
    while measured < 1_000 {
        let warm = next_id >= 10_600;
        let t = engine
            .next_event_time()
            .expect("replacements keep the engine busy");
        let before = ALLOCS.load(Ordering::Relaxed);
        engine.advance_into(t, &mut buf);
        if warm {
            advance_allocs += ALLOCS.load(Ordering::Relaxed) - before;
            measured += 1;
        }
        for done in buf.iter() {
            let i = next_id as usize;
            let runtime = 300.0 + (i as f64 * 7.919) % 700.0;
            let est_factor = [0.5, 1.0, 2.0][i % 3];
            let deadline = 2_000.0 + (i as f64 * 13.37) % 6_000.0;
            let mut j = job(next_id, runtime, (runtime * est_factor).max(1.0), deadline);
            j.submit = engine.now();
            j.runtime = SimDuration::from_secs(runtime);
            // The replacement takes the finished job's node, so no node's
            // resident list outgrows its warm capacity.
            let node = host.remove(&done.job.id).expect("admitted job has a host");
            host.insert(j.id, node);
            let target = vec![node];
            let before = ALLOCS.load(Ordering::Relaxed);
            engine.admit(j, target, engine.now());
            if warm {
                admit_allocs += ALLOCS.load(Ordering::Relaxed) - before;
                admits += 1;
            }
            next_id += 1;
        }
    }
    assert_eq!(
        advance_allocs, 0,
        "steady-state advance allocated {advance_allocs} times over {measured} advances"
    );
    assert!(admits > 100, "too few measured admissions ({admits})");
    assert_eq!(
        admit_allocs, 0,
        "steady-state admit allocated {admit_allocs} times over {admits} admissions"
    );
}
