//! Differential suite for the shard router.
//!
//! Two oracles pin [`ShardedRms`] to the unsharded facade:
//!
//! 1. **1-shard bitwise identity.** A router over a single shard must
//!    reproduce a plain [`ClusterRms`] run event-for-event — same seqs,
//!    same outcome instants to the bit — both on the full policy
//!    catalogue (the golden-fixture scenario) and on the 2,000-job golden
//!    workload, where LibraRisk's fulfilled count is pinned at 1563 (the
//!    benchmark ledger's `GOLDEN_FULFILLED`, in its `oracle.rs`).
//!
//! 2. **Union-of-independent-runs.** With [`RouteBy::JobHash`], a job's
//!    placement depends only on its id, so an N-shard run must be
//!    structurally equal to N *independent* single-`ClusterRms` runs over
//!    the hash partition of the workload — per-job outcomes, churn
//!    aggregates, everything. The proptest drives both arms with
//!    interleaved submit/advance under per-shard churn plans (fail +
//!    restore events firing mid-run) for shards ∈ {2, 4, 8}.
//!
//! On top of the routing oracles, the aggregate merge laws are pinned:
//! [`OnlineReport::merge`] and `ChurnStats::merge` must be associative
//! and commutative (counts exactly; Welford float moments to tight
//! relative tolerance — their merge is not bitwise associative).

use cluster::Cluster;
use librisk::prelude::*;
use librisk::report::JobRecord;
use librisk::{job_hash_shard, PolicyKind};
use proptest::prelude::*;
use sim::{Rng64, SimDuration, SimTime};
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;

/// The golden-fixture scenario: 16 nodes, SDSC-SP2-like jobs with the
/// paper's deadline model (mirrors `differential_rms.rs`).
fn synthetic_trace(jobs: usize, seed: u64) -> Trace {
    let mut trace = SyntheticSdscSp2 {
        jobs,
        ..Default::default()
    }
    .generate(seed);
    DeadlineModel::default().assign(&mut Rng64::new(seed ^ 0x9e37), trace.jobs_mut());
    trace
}

/// The golden workload: 2000 SDSC-SP2-like jobs (trace seed 11,
/// deadline seed 12) on the full 128-node machine.
fn bench_trace() -> Trace {
    let mut trace = SyntheticSdscSp2 {
        jobs: 2000,
        ..Default::default()
    }
    .generate(11);
    DeadlineModel::default().assign(&mut Rng64::new(12), trace.jobs_mut());
    trace
}

/// Fingerprint of one outcome with bit-exact instants.
fn key(outcome: &Outcome) -> (u8, u64, u64) {
    match *outcome {
        Outcome::Rejected { at, .. } => (0, at.as_secs().to_bits(), 0),
        Outcome::Completed { started, finish } => {
            (1, started.as_secs().to_bits(), finish.as_secs().to_bits())
        }
        Outcome::Killed { at, .. } => (2, at.as_secs().to_bits(), 0),
    }
}

/// Drives a trace through a plain facade, advancing to each arrival.
fn run_plain(mut rms: ClusterRms<'_>, trace: &Trace) -> Vec<(u64, JobRecord)> {
    let mut out = Vec::new();
    for job in trace.jobs() {
        out.extend(rms.advance(job.submit).map(|e| (e.seq, e.record)));
        rms.submit(job.clone(), job.submit);
    }
    out.extend(rms.drain().map(|e| (e.seq, e.record)));
    out
}

/// The same drive through a router.
fn run_sharded(rms: &mut ShardedRms<'_>, trace: &Trace) -> Vec<(u64, JobRecord)> {
    let mut out = Vec::new();
    for job in trace.jobs() {
        out.extend(
            rms.advance(job.submit)
                .expect("no shard panics in the oracle drive")
                .into_iter()
                .map(|e| (e.seq, e.record)),
        );
        rms.submit(job.clone(), job.submit);
    }
    out.extend(
        rms.drain()
            .expect("no shard panics in the oracle drive")
            .into_iter()
            .map(|e| (e.seq, e.record)),
    );
    out
}

/// A 1-shard router is the plain facade, bitwise, for every policy in
/// the catalogue on the golden-fixture scenario.
#[test]
fn one_shard_router_is_bitwise_identical_for_every_policy() {
    for seed in [7u64, 4242] {
        let trace = synthetic_trace(180, seed);
        let cluster = Cluster::homogeneous(16, 168.0);
        for kind in PolicyKind::ALL {
            let plain = run_plain(kind.rms(&cluster), &trace);
            let mut router = ShardedRms::new(vec![kind.rms(&cluster)], RouteBy::JobHash).unwrap();
            let sharded = run_sharded(&mut router, &trace);
            assert_eq!(
                plain.len(),
                sharded.len(),
                "{kind:?} seed {seed}: event counts"
            );
            for ((ps, pr), (ss, sr)) in plain.iter().zip(&sharded) {
                assert_eq!(ps, ss, "{kind:?} seed {seed}: seq diverged");
                assert_eq!(pr.job, sr.job, "{kind:?} seed {seed} seq {ps}: job");
                assert_eq!(
                    key(&pr.outcome),
                    key(&sr.outcome),
                    "{kind:?} seed {seed} seq {ps}: outcome bits diverged"
                );
            }
        }
    }
}

/// The bench-workload golden pin: LibraRisk through a 1-shard router on
/// the full 128-node machine fulfils exactly the committed golden count
/// and matches the plain facade event-for-event.
#[test]
fn one_shard_router_reproduces_bench_golden_fulfilled() {
    let trace = bench_trace();
    let cluster = Cluster::sdsc_sp2();

    let plain = run_plain(PolicyKind::LibraRisk.rms(&cluster), &trace);
    let mut router =
        ShardedRms::new(vec![PolicyKind::LibraRisk.rms(&cluster)], RouteBy::JobHash).unwrap();
    let sharded = run_sharded(&mut router, &trace);

    assert_eq!(plain.len(), sharded.len());
    for ((ps, pr), (ss, sr)) in plain.iter().zip(&sharded) {
        assert_eq!(ps, ss);
        assert_eq!(pr.job, sr.job);
        assert_eq!(key(&pr.outcome), key(&sr.outcome), "seq {ps}");
    }

    let fulfilled =
        |records: &[(u64, JobRecord)]| records.iter().filter(|(_, r)| r.fulfilled()).count() as u64;
    assert_eq!(
        fulfilled(&sharded),
        1563,
        "golden fulfilled count (the ledger's GOLDEN_FULFILLED, oracle.rs)"
    );
    assert_eq!(fulfilled(&plain), 1563);
    assert_eq!(router.submitted(), trace.len() as u64);
    assert_eq!(router.in_flight(), 0);
}

/// A per-shard churn plan: fail + restore events across the span of the
/// trace, distinct per shard.
fn shard_churn_plan(trace: &Trace, nodes: usize, seed: u64) -> FaultPlan {
    let span = trace
        .jobs()
        .last()
        .map(|j| j.submit.as_secs())
        .unwrap_or(0.0)
        + 5_000.0;
    FaultPlan::exponential(
        nodes,
        span / 4.0,
        span / 16.0,
        SimTime::from_secs(span),
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The union oracle: an N-shard JobHash run with per-shard churn
    // plans and interleaved advances equals N independent single-shard
    // runs over the hash partition — per-job outcome bits, per-shard
    // churn, merged churn, and the global-seq mapping all agree.
    #[test]
    fn hash_placement_equals_union_of_independent_runs(
        seed in 0u64..200,
        fracs in proptest::collection::vec(0.0..1.0f64, 1..4),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        kind_idx in 0usize..3,
    ) {
        let kind = [PolicyKind::LibraRisk, PolicyKind::EdfBackfill, PolicyKind::Qops][kind_idx];
        let trace = synthetic_trace(48, seed);
        let sub_cluster = Cluster::homogeneous(4, 168.0);
        let plans: Vec<FaultPlan> = (0..shards)
            .map(|s| shard_churn_plan(&trace, 4, 0xC0FFEE ^ seed ^ (s as u64) << 8))
            .collect();

        // Arm 1: the router.
        let mut router = ShardedRms::new(
            (0..shards)
                .map(|s| {
                    kind.rms(&sub_cluster)
                        .with_faults(plans[s].clone(), RecoveryPolicy::Requeue)
                })
                .collect(),
            RouteBy::JobHash,
        )
        .unwrap();
        let mut merged: Vec<(u64, JobRecord)> = Vec::new();
        let mut prev = SimTime::ZERO;
        let collect = |events: Vec<JobEvent>, out: &mut Vec<(u64, JobRecord)>| {
            out.extend(events.into_iter().map(|e| (e.seq, e.record)));
        };
        for (i, job) in trace.jobs().iter().enumerate() {
            let gap = job.submit - prev;
            if gap > SimDuration::ZERO {
                let frac = fracs[i % fracs.len()].clamp(0.0, 0.999);
                let mid = prev + SimDuration::from_secs(gap.as_secs() * frac);
                collect(router.advance(mid).unwrap(), &mut merged);
            }
            collect(router.advance(job.submit).unwrap(), &mut merged);
            let (placed, _) = router.submit_routed(job.clone(), job.submit);
            prop_assert_eq!(placed, job_hash_shard(job.id, shards), "hash placement");
            prev = job.submit;
        }
        collect(router.drain().unwrap(), &mut merged);
        prop_assert_eq!(merged.len(), trace.len(), "every job resolves once");
        let stamps: Vec<SimTime> = merged
            .iter()
            .map(|(_, r)| r.outcome.resolved_at())
            .collect();
        prop_assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "merged stream is time-ordered"
        );
        let router_churn = router.churn();

        // Arm 2: N independent plain facades over the hash partition,
        // driven with the *same* advance schedule.
        let mut oracle: Vec<Option<(u8, u64, u64)>> = vec![None; trace.len()];
        let mut oracle_churn = ChurnStats::default();
        for (s, plan) in plans.iter().enumerate().take(shards) {
            let mut rms = kind
                .rms(&sub_cluster)
                .with_faults(plan.clone(), RecoveryPolicy::Requeue);
            // Shard-local seq → position in the full trace.
            let mut global: Vec<usize> = Vec::new();
            let mut prev = SimTime::ZERO;
            let take = |events: Vec<(u64, JobRecord)>,
                            global: &[usize],
                            oracle: &mut Vec<Option<(u8, u64, u64)>>| {
                for (seq, record) in events {
                    oracle[global[seq as usize]] = Some(key(&record.outcome));
                }
            };
            for (i, job) in trace.jobs().iter().enumerate() {
                let gap = job.submit - prev;
                if gap > SimDuration::ZERO {
                    let frac = fracs[i % fracs.len()].clamp(0.0, 0.999);
                    let mid = prev + SimDuration::from_secs(gap.as_secs() * frac);
                    let evs: Vec<_> = rms.advance(mid).map(|e| (e.seq, e.record)).collect();
                    take(evs, &global, &mut oracle);
                }
                let evs: Vec<_> = rms.advance(job.submit).map(|e| (e.seq, e.record)).collect();
                take(evs, &global, &mut oracle);
                if job_hash_shard(job.id, shards) == s {
                    global.push(i);
                    rms.submit(job.clone(), job.submit);
                }
                prev = job.submit;
            }
            let evs: Vec<_> = rms.drain().map(|e| (e.seq, e.record)).collect();
            take(evs, &global, &mut oracle);
            oracle_churn.merge(rms.churn());
        }

        for (seq, record) in &merged {
            prop_assert_eq!(
                Some(key(&record.outcome)),
                oracle[*seq as usize],
                "{:?} shards {} seq {}: sharded run diverged from independent-run union",
                kind, shards, seq
            );
        }
        prop_assert_eq!(
            router_churn, oracle_churn,
            "merged churn equals the union of per-shard churn"
        );
    }
}

// ---------------------------------------------------------------------
// Merge laws for the shard-mergeable aggregates.
// ---------------------------------------------------------------------

/// Strategy for one synthetic job record covering all outcome kinds,
/// both urgencies and every rejection reason.
fn arb_record() -> impl Strategy<Value = JobRecord> {
    (
        (0u64..5_000, 0.0..1e4f64, 1.0..500.0f64, 1u32..32),
        (
            1.0..2e3f64,
            any::<bool>(),
            0usize..3,
            0.0..1e3f64,
            0usize..RejectReason::ALL.len(),
        ),
    )
        .prop_map(
            |((id, submit, runtime, procs), (deadline, high, kind, skew, reason))| {
                let job = Job {
                    id: JobId(id),
                    submit: SimTime::from_secs(submit),
                    runtime: SimDuration::from_secs(runtime),
                    estimate: SimDuration::from_secs(runtime * 1.5),
                    procs,
                    deadline: SimDuration::from_secs(deadline),
                    urgency: if high { Urgency::High } else { Urgency::Low },
                };
                let at = SimTime::from_secs(submit + skew);
                let outcome = match kind {
                    0 => Outcome::Rejected {
                        at,
                        reason: RejectReason::ALL[reason],
                    },
                    // `skew` decides whether the deadline is made or
                    // missed, so both fulfilled and delayed jobs appear.
                    1 => Outcome::Completed {
                        started: at,
                        finish: at + SimDuration::from_secs(runtime),
                    },
                    _ => Outcome::Killed {
                        at,
                        node: cluster::NodeId(0),
                    },
                };
                JobRecord { job, outcome }
            },
        )
}

/// Folds records into an [`OnlineReport`] shard summary.
fn report_of(records: &[JobRecord], utilization: f64) -> OnlineReport {
    let mut sink = OnlineReport::new();
    for (i, r) in records.iter().enumerate() {
        sink.record(i as u64, r.clone());
    }
    sink.set_utilization(utilization);
    sink
}

/// Exact count-level fingerprint of a summary.
fn counts(r: &OnlineReport) -> Vec<u64> {
    let mut out = vec![
        r.submitted(),
        r.accepted(),
        r.rejected(),
        r.fulfilled(),
        r.delayed(),
        r.killed(),
    ];
    out.extend(r.rejections_by_reason());
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Float-stat fingerprint, compared to tight relative tolerance (Welford
/// merges are order-sensitive in the last ulps, not in any digit that
/// matters).
fn floats(r: &OnlineReport) -> [f64; 5] {
    [
        r.utilization(),
        r.fulfilled_pct(),
        r.avg_slowdown(),
        r.avg_delay(),
        r.avg_response_time(),
    ]
}

fn arb_churn() -> impl Strategy<Value = ChurnStats> {
    (
        0u64..100,
        0u64..100,
        0u64..50,
        0u64..50,
        0u64..20,
        0u64..30,
        0u64..30,
    )
        .prop_map(|(nf, nr, kills, requeues, rejects, hits, misses)| {
            let mut c = ChurnStats {
                node_failures: nf,
                node_restores: nr,
                kills,
                requeues,
                requeue_rejects: rejects,
                ..Default::default()
            };
            for _ in 0..hits {
                c.requeued_fulfilled.observe(true);
            }
            for _ in 0..misses {
                c.requeued_fulfilled.observe(false);
            }
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // OnlineReport::merge is associative and commutative: counts match
    // exactly, float moments to 1e-9 relative.
    #[test]
    fn online_report_merge_is_associative_and_commutative(
        ra in proptest::collection::vec(arb_record(), 0..40),
        rb in proptest::collection::vec(arb_record(), 0..40),
        rc in proptest::collection::vec(arb_record(), 0..40),
        ua in 0.0..1.0f64,
        ub in 0.0..1.0f64,
        uc in 0.0..1.0f64,
    ) {
        let (a, b, c) = (report_of(&ra, ua), report_of(&rb, ub), report_of(&rc, uc));

        // ((a ⊕ b) ⊕ c) vs (a ⊕ (b ⊕ c)).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(counts(&left), counts(&right), "associativity: counts");
        for (x, y) in floats(&left).iter().zip(floats(&right)) {
            prop_assert!(close(*x, y), "associativity: {} vs {}", x, y);
        }

        // (a ⊕ b) vs (b ⊕ a).
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(counts(&ab), counts(&ba), "commutativity: counts");
        for (x, y) in floats(&ab).iter().zip(floats(&ba)) {
            prop_assert!(close(*x, y), "commutativity: {} vs {}", x, y);
        }

        // The merged whole equals one sink fed everything (counts).
        let mut all = Vec::new();
        all.extend_from_slice(&ra);
        all.extend_from_slice(&rb);
        all.extend_from_slice(&rc);
        let whole = report_of(&all, 0.0);
        prop_assert_eq!(counts(&left), counts(&whole), "merge equals one big sink");
    }

    // ChurnStats::merge is exactly associative and commutative — every
    // field is an integer tally.
    #[test]
    fn churn_stats_merge_is_associative_and_commutative(
        a in arb_churn(),
        b in arb_churn(),
        c in arb_churn(),
    ) {
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right, "associativity");

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba, "commutativity");

        let mut with_empty = a;
        with_empty.merge(&ChurnStats::default());
        prop_assert_eq!(with_empty, a, "default is the identity");
    }
}
