//! Oracles: independent computations every timed number must agree with
//! before it is reported.

use crate::probe::{Off, Probe};
use crate::replay::{self, decompose, partner, Decomposed, Replay};
use crate::workload::{Inputs, Pins, Spec};
use cluster::Cluster;
use librisk::{
    drive_trace, job_hash_shard, OnlineReport, PolicyKind, RejectReason, RouteBy, ShardedRms,
};
use sim::Rng64;
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;
use workload::{Trace, Urgency};

/// The repository's bench golden: 2,000 synthetic jobs fulfil exactly
/// 1,563 deadlines under LibraRisk, through the facade and through a
/// 1-shard router alike.
pub const GOLDEN_FULFILLED: u64 = 1563;

pub fn golden() -> Vec<String> {
    let mut trace = SyntheticSdscSp2 {
        jobs: 2000,
        ..Default::default()
    }
    .generate(11);
    DeadlineModel::default().assign(&mut Rng64::new(12), trace.jobs_mut());
    let cluster = Cluster::sdsc_sp2();
    let mut sink = OnlineReport::new();
    drive_trace(&mut PolicyKind::LibraRisk.rms(&cluster), &trace, &mut sink);
    let mut router = ShardedRms::new(vec![PolicyKind::LibraRisk.rms(&cluster)], RouteBy::JobHash)
        .expect("one shard");
    let routed = replay::replay(&mut router, trace.jobs(), 1, &mut Off);
    let mut failures = Vec::new();
    for (path, fulfilled) in [
        ("ClusterRms", sink.fulfilled()),
        ("1-shard ShardedRms", routed.seen.report.fulfilled()),
    ] {
        if fulfilled != GOLDEN_FULFILLED {
            failures.push(format!(
                "golden: {path} fulfilled {fulfilled}, expected {GOLDEN_FULFILLED}"
            ));
        }
    }
    failures
}

/// An `OnlineReport` as comparable integers: the counts, then (when
/// `exact`) the bits of its means, which depend on the order records
/// arrived in.
pub fn summary(r: &OnlineReport, exact: bool) -> Vec<u64> {
    let mut v = vec![
        r.submitted(),
        r.accepted(),
        r.rejected(),
        r.fulfilled(),
        r.killed(),
        r.delayed(),
    ];
    v.extend(
        RejectReason::ALL
            .iter()
            .map(|&reason| r.rejected_for(reason)),
    );
    if exact {
        v.extend(
            [
                r.avg_slowdown(),
                r.avg_delay(),
                r.avg_response_time(),
                r.fulfilled_pct_of(Urgency::High),
                r.fulfilled_pct_of(Urgency::Low),
            ]
            .map(f64::to_bits),
        );
    }
    v
}

/// `drive_trace` over each partition's share of the trace, merged.
fn driven(spec: &Spec, inputs: &Inputs) -> OnlineReport {
    let mut total = OnlineReport::new();
    for shard in 0..spec.shards {
        let part = Trace::new(
            inputs
                .trace
                .jobs()
                .iter()
                .filter(|j| job_hash_shard(j.id, spec.shards) == shard)
                .cloned()
                .collect(),
        );
        let mut sink = OnlineReport::new();
        drive_trace(&mut spec.shard_rms(inputs), &part, &mut sink);
        total.merge(&sink);
    }
    total
}

/// The seed whose full-size results `workload::SPECS` pins.
pub const PIN_SEED: u64 = 1;

/// Checks a report of the pinned seed's inputs against the pins.
pub fn check_pins(spec: &Spec, report: &OnlineReport, failures: &mut Vec<String>) {
    let got = Pins {
        submitted: report.submitted(),
        accepted: report.accepted(),
        fulfilled: report.fulfilled(),
    };
    if let Some(pins) = spec.pins.filter(|&p| p != got) {
        failures.push(format!(
            "{}: seed-{PIN_SEED} pins {pins:?}, got {got:?}",
            spec.name
        ));
    }
}

/// One untimed client replay of the pinned seed's inputs, checked
/// against the pins. Whatever a run's seed, this replay is the same.
pub fn pinned(spec: &Spec, failures: &mut Vec<String>) -> Replay {
    let r = replay::primary(spec, &spec.setup(PIN_SEED).0, &mut Off);
    if let Some(e) = &r.error {
        failures.push(format!("{}: pinned replay: {e}", spec.name));
    }
    if r.seen.failed_ops(&r.seen.verdicts) > 0 {
        failures.push(format!(
            "{}: pinned replay resolved a job other than once",
            spec.name
        ));
    }
    check_pins(spec, &r.seen.report, failures);
    r
}

/// The replays of one workload, checked against each other.
pub struct Checked {
    pub primary: Replay,
    pub partner: Replay,
    pub decomposed: Decomposed,
    pub failures: Vec<String>,
}

/// What `drive_trace` reports on `inputs`, as `summary` gives it: every
/// count, and bitwise means when unsharded (merged means depend on
/// stream order).
pub fn driven_summary(spec: &Spec, inputs: &Inputs) -> Vec<u64> {
    summary(&driven(spec, inputs), spec.shards == 1)
}

/// Runs the client's replay, its partner and the engine decomposition,
/// each under its own probe, and checks that:
/// - each agrees with `drive_trace` on the same inputs (bitwise when
///   unsharded, in every count when sharded, since merged means depend
///   on stream order);
/// - the client and its partner give every job the same verdict;
/// - the decomposition's verdicts and (job id, finish bits) multiset
///   equal the client's, or with node churn, those of an untimed client
///   replay of the same arrivals without the churn;
/// - every job resolves exactly once, and the client's stream is
///   nondecreasing in resolution time.
pub fn cross_check<P: Probe>(spec: &Spec, inputs: &Inputs, probes: &mut [P; 3]) -> Checked {
    let [p0, p1, p2] = probes;
    let primary = replay::primary(spec, inputs, p0);
    let partner = partner(spec, inputs, p1);
    let decomposed = decompose(spec, inputs, p2);
    let exact = spec.shards == 1;
    let want = driven_summary(spec, inputs);
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("{}: {what}", spec.name));
        }
    };
    for (who, r) in [("client", &primary), ("partner", &partner)] {
        check(
            summary(&r.seen.report, exact) == want,
            &format!("{who} report differs from drive_trace"),
        );
        check(r.error.is_none(), &format!("{who} failed: {:?}", r.error));
        check(
            r.seen.failed_ops(&primary.seen.verdicts) == 0,
            &format!("{who} resolved a job other than once or changed a verdict"),
        );
    }
    check(
        primary.seen.out_of_order == 0,
        "client stream not in resolution-time order",
    );
    let calm;
    let base = if inputs.plan.is_empty() {
        &primary.seen
    } else {
        calm = replay::primary(spec, &inputs.without_faults(), &mut Off).seen;
        &calm
    };
    check(
        decomposed.verdicts == base.verdicts,
        "decomposition verdicts differ from the client's",
    );
    check(
        decomposed.completions == base.completions,
        "decomposition completions differ from the client's",
    );
    Checked {
        primary,
        partner,
        decomposed,
        failures,
    }
}
