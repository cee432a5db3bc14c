//! Differential property tests for the incremental admission decision
//! path.
//!
//! The `decide` of every share-based policy (the proportional-share
//! members of `PolicyKind::PAPER` — Libra and LibraRisk — plus every
//! LibraRisk ablation variant) must return decisions *identical* to its
//! from-scratch `decide_reference` — accept/reject and the exact chosen
//! node list — over randomized admit/advance/complete sequences. Any
//! divergence means a screen, the per-decision set table or a reused
//! scratch buffer let unsound or stale state through (a `now` leaking
//! across decisions, say) and would silently change simulation results.

use cluster::proportional::{ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, NodeId};
use librisk::libra::Libra;
use librisk::libra_risk::{LibraRisk, NodeOrdering};
use librisk::policy::ShareAdmission;
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use workload::{Job, JobId, Urgency};

/// One randomized arrival: job shape plus how far to advance afterwards.
#[derive(Debug, Clone)]
struct Arrival {
    runtime: f64,
    est_factor: f64,
    deadline: f64,
    procs: u32,
    /// Fraction of the next event gap to advance after the decision
    /// (0 → next arrival at the same instant; 1 → land on the event).
    advance_frac: f64,
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (
        1.0..2_000.0f64,
        0.2..6.0f64,
        10.0..10_000.0f64,
        1u32..4,
        0.0..1.0f64,
    )
        .prop_map(
            |(runtime, est_factor, deadline, procs, advance_frac)| Arrival {
                runtime,
                est_factor,
                deadline,
                procs,
                advance_frac,
            },
        )
}

fn job_at(id: u64, a: &Arrival, now: SimTime) -> Job {
    Job {
        id: JobId(id),
        submit: now,
        runtime: SimDuration::from_secs(a.runtime),
        estimate: SimDuration::from_secs(a.runtime * a.est_factor),
        procs: a.procs,
        deadline: SimDuration::from_secs(a.deadline),
        urgency: Urgency::Low,
    }
}

/// Feeds a randomized trace through one policy, asserting at every
/// arrival that the cached decision equals the from-scratch reference,
/// then applying the decision so caches face real admissions,
/// completions, overrun re-arms, and time advances.
fn assert_cached_matches_reference<P, R>(
    policy: &mut P,
    reference: R,
    arrivals: &[Arrival],
    nodes: usize,
) where
    P: ShareAdmission,
    R: Fn(&P, &ProportionalCluster, &Job) -> Option<Vec<NodeId>>,
{
    let cfg = ProportionalConfig::default();
    let mut engine = ProportionalCluster::new(Cluster::homogeneous(nodes, 168.0), cfg);
    for (i, a) in arrivals.iter().enumerate() {
        let now = engine.now();
        let j = job_at(i as u64, a, now);
        let cached = policy.decide(&engine, &j);
        let scratch = reference(policy, &engine, &j);
        assert_eq!(
            cached,
            scratch,
            "{}: cached decision diverged from reference at arrival {i}",
            policy.name()
        );
        if let Some(alloc) = cached {
            engine.admit(j, alloc, now);
        }
        if a.advance_frac > 0.0 {
            if let Some(next) = engine.next_event_time() {
                let dt = (next - now).as_secs() * a.advance_frac;
                engine.advance(now + SimDuration::from_secs(dt));
            }
        }
    }
    // Drain: decisions already verified; the engine must still converge.
    let mut guard = 0;
    while let Some(t) = engine.next_event_time() {
        engine.advance(t);
        guard += 1;
        assert!(guard < 200_000, "engine failed to converge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn libra_cached_equals_from_scratch(
        arrivals in proptest::collection::vec(arrival(), 1..40),
    ) {
        let mut p = Libra::new();
        assert_cached_matches_reference(
            &mut p,
            |p: &Libra, e, j| p.decide_reference(e, j),
            &arrivals,
            6,
        );
    }

    #[test]
    fn libra_risk_cached_equals_from_scratch(
        arrivals in proptest::collection::vec(arrival(), 1..40),
    ) {
        let mut p = LibraRisk::paper();
        assert_cached_matches_reference(
            &mut p,
            |p: &LibraRisk, e, j| p.decide_reference(e, j),
            &arrivals,
            6,
        );
    }

    #[test]
    fn libra_risk_variants_cached_equal_from_scratch(
        arrivals in proptest::collection::vec(arrival(), 1..24),
    ) {
        for variant in [
            LibraRisk::paper().require_unit_mu(true),
            LibraRisk::paper().with_naive_projection(true),
            LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst),
        ] {
            let mut p = variant;
            assert_cached_matches_reference(
                &mut p,
                |p: &LibraRisk, e, j| p.decide_reference(e, j),
                &arrivals,
                4,
            );
        }
    }
}

// The 128-node sweep uses fewer cases: the from-scratch reference is
// O(nodes × residents²) per arrival, so each case is much heavier than
// the 6-node ones above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn decisions_match_reference_at_128_nodes(
        arrivals in proptest::collection::vec(arrival(), 1..48),
    ) {
        let mut libra = Libra::new();
        assert_cached_matches_reference(
            &mut libra,
            |p: &Libra, e, j| p.decide_reference(e, j),
            &arrivals,
            128,
        );
        let mut lr = LibraRisk::paper();
        assert_cached_matches_reference(
            &mut lr,
            |p: &LibraRisk, e, j| p.decide_reference(e, j),
            &arrivals,
            128,
        );
    }
}

/// One churn action, folded over the live node state: the target's
/// current up/down status decides between `fail_node` and
/// `restore_node`, so any index sequence is valid and both transitions
/// get exercised against the same decision stream.
fn apply_churn(engine: &mut ProportionalCluster, target: u32) {
    let node = NodeId(target % engine.cluster().len() as u32);
    let now = engine.now();
    if engine.node_is_up(node) {
        // Displaced jobs are dropped: the point here is cache
        // invalidation, not recovery policy (covered elsewhere).
        engine.fail_node(node, now);
    } else {
        engine.restore_node(node, now);
    }
}

/// Mirrors [`assert_cached_matches_reference`] with node churn woven
/// between arrivals: every decision the classified scan produces after a
/// `fail_node`/`restore_node` must still equal the from-scratch
/// reference's verdict and node list. Each arrival is decided twice at
/// the same engine state, and both answers must equal the reference.
fn assert_cached_matches_reference_under_churn<P, R>(
    policy: &mut P,
    reference: R,
    arrivals: &[Arrival],
    churn: &[u32],
    nodes: usize,
) where
    P: ShareAdmission,
    R: Fn(&P, &ProportionalCluster, &Job) -> Option<Vec<NodeId>>,
{
    let cfg = ProportionalConfig::default();
    let mut engine = ProportionalCluster::new(Cluster::homogeneous(nodes, 168.0), cfg);
    for (i, a) in arrivals.iter().enumerate() {
        if let Some(&target) = churn.get(i % churn.len().max(1)) {
            if (target as usize) < nodes {
                apply_churn(&mut engine, target);
            }
        }
        let now = engine.now();
        let j = job_at(i as u64, a, now);
        let cached = policy.decide(&engine, &j);
        let repeated = policy.decide(&engine, &j);
        let scratch = reference(policy, &engine, &j);
        assert_eq!(
            cached,
            scratch,
            "{}: cached decision diverged from reference at arrival {i} (churned)",
            policy.name()
        );
        assert_eq!(
            repeated,
            scratch,
            "{}: repeated decision diverged from reference at arrival {i} (churned)",
            policy.name()
        );
        if let Some(alloc) = cached {
            engine.admit(j, alloc, now);
        }
        if a.advance_frac > 0.0 {
            if let Some(next) = engine.next_event_time() {
                let dt = (next - now).as_secs() * a.advance_frac;
                engine.advance(now + SimDuration::from_secs(dt));
            }
        }
    }
    let mut guard = 0;
    while let Some(t) = engine.next_event_time() {
        engine.advance(t);
        guard += 1;
        assert!(guard < 200_000, "engine failed to converge");
    }
}

// Tentpole pin: the classified candidate scan (resident-set table,
// verdict-kernel bail-outs, screens) under *churn* at full cluster
// width. Fewer cases for the same reason as the fault-free 128-node
// sweep: the from-scratch reference is the expensive half.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn decisions_match_reference_at_128_nodes_under_churn(
        arrivals in proptest::collection::vec(arrival(), 1..40),
        // A draw below the node count churns that node; the upper half
        // of the range is a no-op step (~50% churn density).
        churn in proptest::collection::vec(0u32..256, 1..40),
    ) {
        let mut libra = Libra::new();
        assert_cached_matches_reference_under_churn(
            &mut libra,
            |p: &Libra, e, j| p.decide_reference(e, j),
            &arrivals,
            &churn,
            128,
        );
        let mut lr = LibraRisk::paper();
        assert_cached_matches_reference_under_churn(
            &mut lr,
            |p: &LibraRisk, e, j| p.decide_reference(e, j),
            &arrivals,
            &churn,
            128,
        );
    }
}

/// The risk screen against the from-scratch reference on the load it
/// was built for: 5,000 arrivals of the synthetic SDSC-SP2 trace at a
/// quarter of the inter-arrival gaps (4x the paper's load), with trace
/// estimates and the default deadline model, on the paper's 128 nodes.
/// Every decision must equal `decide_reference`, and the screen must
/// actually have settled nodes along the way.
#[test]
fn overload_replay_matches_reference_and_exercises_the_risk_screen() {
    use sim::Rng64;
    use workload::deadlines::DeadlineModel;
    use workload::params::{SDSC_SP2_NODES, SDSC_SP2_SPEC_RATING};
    use workload::synthetic::SyntheticSdscSp2;

    let seed = 1;
    let mut trace = SyntheticSdscSp2 {
        jobs: 5_000,
        ..Default::default()
    }
    .generate(seed);
    let mut deadline_rng = Rng64::new(seed).split("deadline-model");
    DeadlineModel::default().assign(&mut deadline_rng, trace.jobs_mut());
    trace.scale_arrivals(0.25);

    let cluster = Cluster::homogeneous(SDSC_SP2_NODES, SDSC_SP2_SPEC_RATING);
    let mut engine = ProportionalCluster::new(cluster, ProportionalConfig::default());
    let mut lr = LibraRisk::paper();
    let (mut risk_screens, mut accepted) = (0u64, 0usize);
    for (i, job) in trace.jobs().iter().enumerate() {
        while let Some(t) = engine.next_event_time() {
            if t > job.submit {
                break;
            }
            engine.advance(t);
        }
        engine.advance(job.submit);
        let cached = lr.decide(&engine, job);
        risk_screens += lr.last_decision_stats().expect("stats").risk_screen_hits;
        assert_eq!(
            cached,
            lr.decide_reference(&engine, job),
            "arrival {i} diverged from the reference"
        );
        if let Some(nodes) = cached {
            accepted += 1;
            engine.admit(job.clone(), nodes, job.submit);
        }
    }
    assert!(risk_screens > 0, "the risk screen never fired");
    assert!(
        accepted < trace.len(),
        "an overloaded replay must reject some arrivals"
    );
}

/// The set table against the from-scratch reference on gang-heavy load:
/// 2,000 arrivals of the synthetic SDSC-SP2 trace (17-processor gangs on
/// average) at the paper's load on its 128 nodes, under the id and
/// load orderings (the latter always sweeps every node). Every decision
/// must equal `decide_reference`, and the table must have settled nodes
/// by replaying an earlier node's verdict for the same resident set.
#[test]
fn gang_replay_matches_reference_and_hits_the_set_table() {
    use sim::Rng64;
    use workload::deadlines::DeadlineModel;
    use workload::params::{SDSC_SP2_NODES, SDSC_SP2_SPEC_RATING};
    use workload::synthetic::SyntheticSdscSp2;

    let seed = 3;
    let mut trace = SyntheticSdscSp2 {
        jobs: 2_000,
        ..Default::default()
    }
    .generate(seed);
    let mut deadline_rng = Rng64::new(seed).split("deadline-model");
    DeadlineModel::default().assign(&mut deadline_rng, trace.jobs_mut());

    for mut lr in [
        LibraRisk::paper(),
        LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst),
    ] {
        let cluster = Cluster::homogeneous(SDSC_SP2_NODES, SDSC_SP2_SPEC_RATING);
        let mut engine = ProportionalCluster::new(cluster, ProportionalConfig::default());
        let mut set_hits = 0u64;
        for (i, job) in trace.jobs().iter().enumerate() {
            while let Some(t) = engine.next_event_time() {
                if t > job.submit {
                    break;
                }
                engine.advance(t);
            }
            engine.advance(job.submit);
            let cached = lr.decide(&engine, job);
            set_hits += lr.last_decision_stats().expect("stats").class_hits;
            assert_eq!(
                cached,
                lr.decide_reference(&engine, job),
                "{} arrival {i} diverged from the reference",
                lr.name()
            );
            if let Some(nodes) = cached {
                engine.admit(job.clone(), nodes, job.submit);
            }
        }
        assert!(set_hits > 0, "{}: the set table never hit", lr.name());
    }
}
