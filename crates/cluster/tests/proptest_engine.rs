//! Property-based invariants of the execution engines and the delay
//! projection.

use cluster::projection::{self, node_risk, project_finishes, ProjectedJob, ShareDiscipline};
use cluster::proportional::{slot_set_hash, ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, Node, NodeId, SpaceSharedCluster};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use workload::{Job, JobId, Urgency};

fn job(id: u64, runtime: f64, estimate: f64, procs: u32, deadline: f64) -> Job {
    Job {
        id: JobId(id),
        submit: SimTime::ZERO,
        runtime: SimDuration::from_secs(runtime),
        estimate: SimDuration::from_secs(estimate),
        procs,
        deadline: SimDuration::from_secs(deadline),
        urgency: Urgency::Low,
    }
}

#[derive(Debug, Clone)]
struct RawJob {
    runtime: f64,
    est_factor: f64,
    deadline: f64,
    procs: u32,
}

fn raw_job() -> impl Strategy<Value = RawJob> {
    (1.0..5_000.0f64, 0.2..6.0f64, 10.0..20_000.0f64, 1u32..4).prop_map(
        |(runtime, est_factor, deadline, procs)| RawJob {
            runtime,
            est_factor,
            deadline,
            procs,
        },
    )
}

fn discipline() -> impl Strategy<Value = ShareDiscipline> {
    prop_oneof![
        Just(ShareDiscipline::Strict),
        Just(ShareDiscipline::WorkConserving)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_always_terminates_and_conserves_work(
        raws in proptest::collection::vec(raw_job(), 1..12),
        disc in discipline(),
    ) {
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let mut total_work = 0.0;
        for (i, r) in raws.iter().enumerate() {
            let j = job(i as u64, r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            total_work += r.runtime * f64::from(r.procs);
            let nodes: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            engine.admit(j, nodes, SimTime::ZERO);
        }
        let mut finishes = Vec::new();
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            for done in engine.advance(t) {
                // A job can never finish before its full-speed runtime.
                prop_assert!(
                    (done.finish - done.started).as_secs() >= done.job.runtime.as_secs() - 1e-3
                );
                finishes.push(done);
            }
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to converge");
        }
        prop_assert!(engine.is_empty());
        prop_assert_eq!(finishes.len(), raws.len());
        // Work conservation: delivered work equals the sum of runtimes
        // (scaled by gang width), measured through the utilisation
        // integral.
        let makespan = engine.now().as_secs();
        let delivered = engine.utilization() * makespan * 4.0;
        prop_assert!(
            (delivered - total_work).abs() < 1e-3 * total_work.max(1.0) + 1e-3,
            "delivered {delivered} vs submitted {total_work}"
        );
        prop_assert!(engine.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn projection_outputs_are_sane(
        jobs in proptest::collection::vec((1.0..10_000.0f64, -5_000.0..50_000.0f64), 1..20),
        now in 0.0..1_000.0f64,
        disc in discipline(),
    ) {
        let pjs: Vec<ProjectedJob> = jobs
            .iter()
            .map(|&(est, dl)| ProjectedJob { remaining_est: est, abs_deadline: dl })
            .collect();
        let finishes = project_finishes(&pjs, now, 1.0, disc);
        prop_assert_eq!(finishes.len(), pjs.len());
        for &f in &finishes {
            prop_assert!(f.is_finite());
            prop_assert!(f >= now - 1e-9, "finish {f} before now {now}");
        }
        // Unit capacity: the last projected finish cannot beat the total
        // estimated work.
        let total: f64 = pjs.iter().map(|p| p.remaining_est).sum();
        let last = finishes.iter().cloned().fold(0.0, f64::max);
        prop_assert!(last - now >= total - 1e-6 * total.max(1.0) - 1e-6,
            "last {last} now {now} total {total}");

        let (mu, sigma) = node_risk(&pjs, now, 1.0, disc);
        prop_assert!(mu >= 1.0 - 1e-9, "mu {mu} below the metric's minimum");
        prop_assert!(sigma >= 0.0);
        prop_assert!(mu.is_finite() && sigma.is_finite());
    }

    #[test]
    fn zero_risk_iff_all_deadline_delays_equal(
        ests in proptest::collection::vec(10.0..1_000.0f64, 1..8),
    ) {
        // All jobs share one deadline far in the future → all meet it →
        // dd all 1 → zero risk.
        let pjs: Vec<ProjectedJob> = ests
            .iter()
            .map(|&e| ProjectedJob { remaining_est: e, abs_deadline: 1e9 })
            .collect();
        let (mu, sigma) = node_risk(&pjs, 0.0, 1.0, ShareDiscipline::WorkConserving);
        prop_assert!((mu - 1.0).abs() < 1e-9);
        prop_assert!(projection::is_zero_risk(sigma));
    }

    #[test]
    fn heap_next_event_time_equals_full_scan(
        raws in proptest::collection::vec(raw_job(), 1..16),
        gaps in proptest::collection::vec(0.0..1.5f64, 1..16),
        disc in discipline(),
    ) {
        // Differential: the lazy-heap `next_event_time` must be bitwise
        // identical to the retired full scan after every admit and every
        // advance of a randomized interleaving — including advances to
        // fractions of the event gap (mid-segment wakes) and advances
        // exactly onto events (completions, overrun re-arms).
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let check = |e: &ProportionalCluster, ctx: &str| {
            assert_eq!(
                e.next_event_time().map(|t| t.as_secs().to_bits()),
                e.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                "heap vs scan diverged {ctx}"
            );
        };
        for (id, (r, gap)) in raws.iter().zip(&gaps).enumerate() {
            let now = engine.now();
            let mut j = job(id as u64, r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            j.submit = now;
            let nodes: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            engine.admit(j, nodes, now);
            check(&engine, "after admit");
            // Advance a random fraction of the proposed gap (0 → no-op
            // advance, 1 lands exactly on the event so completions and
            // overrun re-arms are exercised too).
            if let Some(next) = engine.next_event_time() {
                let dt = (next - now).as_secs() * gap.min(1.0);
                engine.advance(now + SimDuration::from_secs(dt));
                check(&engine, "after advance");
            }
        }
        // Drain to idle, checking at every event.
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            check(&engine, "while draining");
            engine.advance(t);
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to converge");
        }
        prop_assert!(engine.next_event_time_scan().is_none());
    }

    #[test]
    fn workspace_projection_is_bitwise_identical(
        jobs in proptest::collection::vec((1.0..10_000.0f64, -5_000.0..50_000.0f64), 0..20),
        now in 0.0..1_000.0f64,
        speed in 0.5..4.0f64,
        disc in discipline(),
    ) {
        // Differential: the zero-allocation workspace kernel against the
        // allocating entry points, over arbitrary job mixes. Both the
        // projected finishes and the (μ, σ) pair must match bitwise.
        let pjs: Vec<ProjectedJob> = jobs
            .iter()
            .map(|&(est, dl)| ProjectedJob { remaining_est: est, abs_deadline: dl })
            .collect();
        let mut ws = projection::ProjectionWorkspace::new();
        let mut out = Vec::new();
        // Run twice through the same workspace: the second pass exercises
        // warm (dirty) buffers.
        for pass in 0..2 {
            let want = project_finishes(&pjs, now, speed, disc);
            ws.project_finishes_into(&pjs, now, speed, disc, &mut out);
            prop_assert_eq!(
                want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "finishes diverged on pass {}", pass
            );
            let (mu_a, sigma_a) = node_risk(&pjs, now, speed, disc);
            let b = ws.node_risk_summary_with(&pjs, now, speed, disc);
            prop_assert_eq!(mu_a.to_bits(), b.mu.to_bits(), "mu diverged on pass {}", pass);
            prop_assert_eq!(sigma_a.to_bits(), b.sigma.to_bits(), "sigma diverged on pass {}", pass);
        }
    }

    #[test]
    fn space_shared_never_overcommits(
        widths in proptest::collection::vec(1u32..5, 1..20),
    ) {
        let total = 8usize;
        let mut pool = SpaceSharedCluster::new(Cluster::homogeneous(total, 168.0));
        let mut running: Vec<(JobId, SimTime)> = Vec::new();
        let mut clock = SimTime::ZERO;
        for (i, &w) in widths.iter().enumerate() {
            let j = job(i as u64, 100.0, 100.0, w, 1e6);
            if pool.can_start(&j) {
                let fin = pool.start(j, clock);
                running.push((JobId(i as u64), fin));
                prop_assert!(pool.free_procs() <= total);
            } else {
                // Free the earliest-finishing job and retry once.
                running.sort_by_key(|(_, f)| *f);
                if let Some((id, fin)) = running.first().cloned() {
                    clock = fin;
                    pool.complete(id, fin);
                    running.remove(0);
                }
                let j = job(i as u64, 100.0, 100.0, w, 1e6);
                if pool.can_start(&j) {
                    let fin = pool.start(j, clock);
                    running.push((JobId(i as u64), fin));
                }
            }
            let busy: usize = total - pool.free_procs();
            prop_assert!(busy <= total);
        }
    }
}

/// `(remaining_est, deadline offset from now)`: tiny to large work, with
/// a deadline already past, inside the `EPS_DEADLINE` floor, near the
/// work itself (shares around 1) or far ahead.
fn risk_job() -> impl Strategy<Value = (f64, f64)> {
    (
        prop_oneof![1e-8..1e-3f64, 0.5..500.0f64, 100.0..50_000.0f64],
        0u32..4,
        -5_000.0..-0.5f64,
        -0.5..2.0f64,
        prop_oneof![0.3..3.0f64, 0.97..1.08f64],
        1.0..80_000.0f64,
    )
        .prop_map(|(rem, kind, past, edge, per_work, far)| {
            let offset = match kind {
                0 => past,
                1 => edge,
                2 => rem * per_work,
                _ => far,
            };
            (rem, offset)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The risk screen is a proof, not a heuristic: whenever it fires,
    // the kernel — in any resident order, full or verdict form — must
    // not read the node as zero-risk. Past-deadline residents,
    // overloaded nodes, speeds other than 1, `now` up to the magnitude
    // guard and up to 64 jobs are all in range.
    #[test]
    fn risk_screen_never_disagrees_with_the_kernel(
        residents in prop_oneof![
            proptest::collection::vec(risk_job(), 1..4),
            proptest::collection::vec(risk_job(), 1..64),
        ],
        candidates in proptest::collection::vec(risk_job(), 1..4),
        now in prop_oneof![
            Just(0.0),
            0.0..2e6f64,
            (projection::RISK_SCREEN_GUARD - 3e5)..projection::RISK_SCREEN_GUARD,
        ],
        speed in prop_oneof![Just(1.0), 0.05..1.0f64, 1.0..8.0f64],
    ) {
        let wc = ShareDiscipline::WorkConserving;
        let pj = |&(rem, off): &(f64, f64)| ProjectedJob { remaining_est: rem, abs_deadline: now + off };
        let base: Vec<ProjectedJob> = residents.iter().map(pj).collect();
        let mut canon = base.clone();
        projection::canonicalize_projection(&mut canon);
        let mut ws = projection::ProjectionWorkspace::new();
        for cand in candidates.iter().map(pj) {
            let fired = projection::screens_risky(wc, speed, base.iter().copied(), cand, now);
            prop_assert!(
                !projection::screens_risky(ShareDiscipline::Strict, speed, base.iter().copied(), cand, now),
                "the screen must decline strict shares"
            );
            if !fired {
                continue;
            }
            for order in [&base, &canon] {
                let mut all = order.clone();
                all.push(cand);
                let (_, sigma) = node_risk(&all, now, speed, wc);
                prop_assert!(
                    !projection::is_zero_risk(sigma),
                    "screened risky, kernel σ = {:e}: {:?} at now {} speed {}",
                    sigma, all, now, speed
                );
            }
            let mut all = canon.clone();
            all.push(cand);
            if let Some(s) = ws.node_risk_verdict_with(&all, now, speed, wc) {
                prop_assert!(!projection::is_zero_risk(s.sigma), "verdict kernel σ = {:e}", s.sigma);
            }
        }
    }

    // The verdict form of the kernel only ever cuts a run short: where it
    // answers, it answers with the full kernel's summary bit for bit;
    // where it bails, the full kernel reads the node as risky; and a lone
    // job, which has nothing to disperse against, never bails.
    #[test]
    fn verdict_kernel_agrees_with_full_kernel(
        jobs in prop_oneof![
            proptest::collection::vec(risk_job(), 1..4),
            proptest::collection::vec(risk_job(), 1..65),
            // Light loads with distant deadlines, which run to the end.
            proptest::collection::vec((1.0..100.0f64, 1e4..1e5f64), 1..65),
        ],
        now in prop_oneof![Just(0.0), 0.0..2e6f64],
        speed in prop_oneof![Just(1.0), 0.05..1.0f64, 1.0..8.0f64],
        disc in discipline(),
    ) {
        let pjs: Vec<ProjectedJob> = jobs
            .iter()
            .map(|&(rem, off)| ProjectedJob { remaining_est: rem, abs_deadline: now + off })
            .collect();
        let mut ws = projection::ProjectionWorkspace::new();
        for slice in [&pjs[..1], &pjs[..]] {
            let full = ws.node_risk_summary_with(slice, now, speed, disc);
            match ws.node_risk_verdict_with(slice, now, speed, disc) {
                Some(s) => prop_assert!(
                    s.bits_eq(&full),
                    "verdict {:?} vs full {:?} on {:?}", s, full, slice
                ),
                None => {
                    prop_assert!(slice.len() > 1, "a lone job bailed: {:?}", slice);
                    prop_assert!(
                        !projection::is_zero_risk(full.sigma),
                        "bailed, but the full kernel's σ = {:e} on {:?}", full.sigma, slice
                    );
                }
            }
        }
    }
}

#[test]
fn projection_matches_engine_for_feasible_accurate_jobs() {
    // When estimates are exact and the node is feasible, the engine's
    // actual finishes must equal the projection's predictions.
    let cfg = ProportionalConfig {
        discipline: ShareDiscipline::Strict,
        max_quantum: None,
        ..Default::default()
    };
    let mut engine = ProportionalCluster::new(Cluster::homogeneous(1, 168.0), cfg);
    let specs = [(100.0, 400.0), (50.0, 1_000.0), (20.0, 2_000.0)];
    let mut pjs = Vec::new();
    for (i, &(rt, dl)) in specs.iter().enumerate() {
        engine.admit(job(i as u64, rt, rt, 1, dl), vec![NodeId(0)], SimTime::ZERO);
        pjs.push(ProjectedJob {
            remaining_est: rt,
            abs_deadline: dl,
        });
    }
    let predicted = project_finishes(&pjs, 0.0, 1.0, ShareDiscipline::Strict);
    let mut actual = vec![0.0; specs.len()];
    while let Some(t) = engine.next_event_time() {
        for done in engine.advance(t) {
            actual[done.job.id.0 as usize] = done.finish.as_secs();
        }
    }
    for (p, a) in predicted.iter().zip(&actual) {
        assert!((p - a).abs() < 1e-3, "projected {p} vs actual {a}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn same_instant_advance_batches_are_bitwise_inert(
        raws in proptest::collection::vec(raw_job(), 1..14),
        gaps in proptest::collection::vec(0.0..1.5f64, 1..14),
        repeats in proptest::collection::vec(0usize..4, 1..14),
        disc in discipline(),
    ) {
        // Differential: an engine that receives *batches* of advances at
        // identical timestamps (zero-dt re-advances after every real
        // step, as same-instant event clusters in the driver produce)
        // must stay bitwise identical to a twin that advances exactly
        // once per distinct instant through the single-step reference
        // path. Zero-dt calls must neither complete anything, nor move
        // any rate, nor disturb the next event time.
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut batched = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let mut single = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let mut buf = Vec::new();
        let ids: Vec<u64> = (0..raws.len() as u64).collect();
        let check = |b: &ProportionalCluster, s: &ProportionalCluster, ids: &[u64], ctx: &str| {
            assert_eq!(
                b.next_event_time().map(|t| t.as_secs().to_bits()),
                s.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                "next event diverged {ctx}"
            );
            for &id in ids {
                let id = workload::JobId(id);
                assert_eq!(
                    b.rate_of(id).map(f64::to_bits),
                    s.rate_of(id).map(f64::to_bits),
                    "rate of {id} diverged {ctx}"
                );
                assert_eq!(
                    b.remaining_est_of(id).map(f64::to_bits),
                    s.remaining_est_of(id).map(f64::to_bits),
                    "remaining_est of {id} diverged {ctx}"
                );
            }
            assert_eq!(
                b.utilization().to_bits(),
                s.utilization().to_bits(),
                "utilization diverged {ctx}"
            );
        };
        for (i, (r, gap)) in raws.iter().zip(&gaps).enumerate() {
            let now = batched.now();
            let mut j = job(ids[i], r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            j.submit = now;
            let nodes: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            batched.admit(j.clone(), nodes.clone(), now);
            single.admit(j, nodes, now);
            check(&batched, &single, &ids, "after admit");
            if let Some(next) = batched.next_event_time() {
                let dt = (next - now).as_secs() * gap.min(1.0);
                let to = now + SimDuration::from_secs(dt);
                batched.advance_into(to, &mut buf);
                let batched_done: Vec<(u64, u64)> = buf
                    .iter()
                    .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                    .collect();
                // Zero-dt re-advances to the *same* instant: each must be
                // a bitwise no-op and complete nothing.
                for _ in 0..repeats[i % repeats.len()] {
                    batched.advance_into(to, &mut buf);
                    prop_assert!(buf.is_empty(), "zero-dt advance completed a job");
                }
                let single_done: Vec<(u64, u64)> = single
                    .advance_reference(to)
                    .iter()
                    .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                    .collect();
                prop_assert_eq!(batched_done, single_done, "completions diverged");
                check(&batched, &single, &ids, "after same-instant batch");
            }
        }
        // Drain both to idle through their respective paths, with a
        // zero-dt echo after every batched step.
        let mut guard = 0;
        while let Some(t) = batched.next_event_time() {
            batched.advance_into(t, &mut buf);
            let batched_done: Vec<(u64, u64)> = buf
                .iter()
                .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                .collect();
            batched.advance_into(t, &mut buf);
            prop_assert!(buf.is_empty(), "zero-dt drain advance completed a job");
            let single_done: Vec<(u64, u64)> = single
                .advance_reference(t)
                .iter()
                .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                .collect();
            prop_assert_eq!(batched_done, single_done, "drain completions diverged");
            check(&batched, &single, &ids, "while draining");
            guard += 1;
            prop_assert!(guard < 200_000, "engines failed to converge");
        }
        prop_assert!(single.next_event_time_scan().is_none());
    }
}

#[derive(Debug, Clone)]
struct WideJob {
    runtime: f64,
    est_factor: f64,
    deadline: f64,
    width: u32,
    offset: u32,
}

fn wide_job() -> impl Strategy<Value = WideJob> {
    (
        1.0..5_000.0f64,
        0.2..6.0f64,
        10.0..20_000.0f64,
        1u32..17,
        0u32..16,
    )
        .prop_map(|(runtime, est_factor, deadline, width, offset)| WideJob {
            runtime,
            est_factor,
            deadline,
            width,
            offset,
        })
}

/// 16 nodes: unit speed, one shared non-unit speed, or mixed ratings.
fn cluster16(kind: u32) -> Cluster {
    let rating = |i: u32| match kind {
        0 => 168.0,
        1 => 100.0,
        _ => [84.0, 168.0, 200.0, 336.0][i as usize % 4],
    };
    Cluster::new(
        (0..16).map(|i| Node::new(NodeId(i), rating(i))).collect(),
        168.0,
    )
}

/// Bitwise view of everything the fast and reference paths must agree
/// on: every rate, the cached and scanned next event, and the snapshot
/// (whose `Debug` form prints each f64 in round-trip precision).
fn assert_twins(fast: &ProportionalCluster, twin: &ProportionalCluster, ids: u64, ctx: &str) {
    for id in 0..ids {
        let id = JobId(id);
        assert_eq!(
            fast.rate_of(id).map(f64::to_bits),
            twin.rate_of(id).map(f64::to_bits),
            "rate of {id} diverged {ctx}"
        );
    }
    let bits = |t: Option<SimTime>| t.map(|t| t.as_secs().to_bits());
    assert_eq!(
        bits(fast.next_event_time()),
        bits(twin.next_event_time_scan()),
        "next event diverged {ctx}"
    );
    assert_eq!(
        bits(fast.next_event_time()),
        bits(fast.next_event_time_scan()),
        "cached next event diverged from the scan {ctx}"
    );
    assert_eq!(
        format!("{:?}", fast.snapshot()),
        format!("{:?}", twin.snapshot()),
        "snapshot diverged {ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn wide_gangs_match_the_reference_bitwise(
        raws in proptest::collection::vec(wide_job(), 1..24),
        gaps in proptest::collection::vec(0.0..1.5f64, 1..24),
        kind in 0u32..3,
        disc in discipline(),
    ) {
        // Differential: gangs up to the full 16-node width, on uniform
        // and mixed-speed clusters, through the incremental engine
        // against a twin whose every rate comes from
        // `recompute_rates_reference` (directly after each admit, and
        // inside `advance_reference`).
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut fast = ProportionalCluster::new(cluster16(kind), cfg);
        let mut twin = ProportionalCluster::new(cluster16(kind), cfg);
        let ids = raws.len() as u64;
        let mut buf = Vec::new();
        let done_bits = |done: &[cluster::CompletedJob]| -> Vec<(u64, u64)> {
            done.iter().map(|d| (d.job.id.0, d.finish.as_secs().to_bits())).collect()
        };
        for (i, r) in raws.iter().enumerate() {
            let now = fast.now();
            let mut j = job(i as u64, r.runtime, r.runtime * r.est_factor, r.width, r.deadline);
            j.submit = now;
            let nodes: Vec<NodeId> = (0..r.width).map(|k| NodeId((r.offset + k) % 16)).collect();
            fast.admit(j.clone(), nodes.clone(), now);
            twin.admit(j, nodes, now);
            twin.recompute_rates_reference();
            assert_twins(&fast, &twin, ids, "after admit");
            if let Some(next) = fast.next_event_time() {
                let dt = (next - now).as_secs() * gaps[i % gaps.len()].min(1.0);
                let to = now + SimDuration::from_secs(dt);
                fast.advance_into(to, &mut buf);
                let want = twin.advance_reference(to);
                prop_assert_eq!(done_bits(&buf), done_bits(&want), "completions diverged");
                assert_twins(&fast, &twin, ids, "after advance");
            }
        }
        let mut guard = 0;
        while let Some(t) = fast.next_event_time() {
            fast.advance_into(t, &mut buf);
            let want = twin.advance_reference(t);
            prop_assert_eq!(done_bits(&buf), done_bits(&want), "drain completions diverged");
            assert_twins(&fast, &twin, ids, "while draining");
            guard += 1;
            prop_assert!(guard < 200_000, "engines failed to converge");
        }
        prop_assert!(twin.next_event_time_scan().is_none());
    }
}

/// One step of the set-hash churn: admit a gang, advance, fail or
/// restore a node, or round-trip the engine through a snapshot.
#[derive(Debug, Clone)]
enum SetOp {
    Admit(WideJob),
    Advance(f64),
    Fail(u32),
    Restore(u32),
    Snapshot,
}

fn set_op() -> impl Strategy<Value = SetOp> {
    // Admissions and advances listed twice: drawn twice as often.
    prop_oneof![
        wide_job().prop_map(SetOp::Admit),
        wide_job().prop_map(SetOp::Admit),
        (0.0..1.5f64).prop_map(SetOp::Advance),
        (0.0..1.5f64).prop_map(SetOp::Advance),
        (0u32..16).prop_map(SetOp::Fail),
        (0u32..16).prop_map(SetOp::Restore),
        Just(SetOp::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn node_set_hash_matches_a_scan_of_the_slots(
        ops in proptest::collection::vec(set_op(), 1..48),
        kind in 0u32..3,
        disc in discipline(),
    ) {
        // The O(1)-maintained set hash against the from-scratch XOR over
        // each node's slot list, after every kind of membership change.
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(cluster16(kind), cfg);
        for (i, op) in ops.iter().enumerate() {
            let now = engine.now();
            match op {
                SetOp::Admit(r) => {
                    let nodes: Vec<NodeId> = (0..16)
                        .map(|k| NodeId((r.offset + k) % 16))
                        .filter(|&n| engine.node_is_up(n))
                        .take(r.width as usize)
                        .collect();
                    if nodes.len() == r.width as usize {
                        let est = r.runtime * r.est_factor;
                        let mut j = job(i as u64, r.runtime, est, r.width, r.deadline);
                        j.submit = now;
                        engine.admit(j, nodes, now);
                    }
                }
                SetOp::Advance(frac) => {
                    if let Some(next) = engine.next_event_time() {
                        let dt = (next - now).as_secs() * frac.min(1.0);
                        engine.advance(now + SimDuration::from_secs(dt));
                    }
                }
                SetOp::Fail(n) => {
                    if engine.node_is_up(NodeId(*n)) {
                        engine.fail_node(NodeId(*n), now);
                    }
                }
                SetOp::Restore(n) => {
                    if !engine.node_is_up(NodeId(*n)) {
                        engine.restore_node(NodeId(*n), now);
                    }
                }
                SetOp::Snapshot => {
                    let snap = engine.snapshot();
                    engine = ProportionalCluster::from_snapshot(cluster16(kind), cfg, &snap)
                        .expect("a live snapshot restores");
                }
            }
            for n in 0..16 {
                let node = NodeId(n);
                prop_assert_eq!(
                    engine.node_set_hash(node),
                    slot_set_hash(engine.node_slots(node)),
                    "set hash of {} stale after op {} ({:?})",
                    node,
                    i,
                    op
                );
            }
        }
    }

    #[test]
    fn same_sweep_completions_and_rearms_match_the_reference_bitwise(
        pairs in proptest::collection::vec(wide_job(), 1..10),
        kind in 0u32..3,
        disc in discipline(),
    ) {
        // Each pair puts two gangs on one node set with one estimate and
        // one deadline: equal shares, hence equal rates, so both exhaust
        // the estimate in the same advance — the first (runtime equal to
        // the estimate) completes while the second (runtime larger)
        // overruns and re-arms. Landing on every event, the engine must
        // match a twin driven through `advance_reference` bitwise.
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut fast = ProportionalCluster::new(cluster16(kind), cfg);
        let mut twin = ProportionalCluster::new(cluster16(kind), cfg);
        let ids = 2 * pairs.len() as u64;
        for (i, r) in pairs.iter().enumerate() {
            let nodes: Vec<NodeId> = (0..r.width).map(|k| NodeId((r.offset + k) % 16)).collect();
            let est = r.runtime;
            let done = job(2 * i as u64, est, est, r.width, r.deadline);
            let overrun = job(2 * i as u64 + 1, est * (1.5 + r.est_factor), est, r.width, r.deadline);
            for j in [done, overrun] {
                fast.admit(j.clone(), nodes.clone(), SimTime::ZERO);
                twin.admit(j, nodes.clone(), SimTime::ZERO);
            }
        }
        twin.recompute_rates_reference();
        assert_twins(&fast, &twin, ids, "after admission");
        let (mut buf, mut both) = (Vec::new(), 0);
        let mut guard = 0;
        while let Some(t) = fast.next_event_time() {
            let overruns = |e: &ProportionalCluster| -> u32 {
                e.snapshot().residents.iter().map(|r| r.overruns).sum()
            };
            let overruns_before = overruns(&fast);
            fast.advance_into(t, &mut buf);
            let want = twin.advance_reference(t);
            let bits = |d: &[cluster::CompletedJob]| -> Vec<(u64, u64)> {
                d.iter().map(|d| (d.job.id.0, d.finish.as_secs().to_bits())).collect()
            };
            prop_assert_eq!(bits(&buf), bits(&want), "completions diverged");
            assert_twins(&fast, &twin, ids, "after advance");
            let survivors_rearmed = overruns(&fast) > overruns_before;
            if survivors_rearmed && !buf.is_empty() {
                both += 1;
            }
            guard += 1;
            prop_assert!(guard < 200_000, "engines failed to converge");
        }
        prop_assert!(both > 0, "no advance completed and re-armed jobs together");
    }
}
