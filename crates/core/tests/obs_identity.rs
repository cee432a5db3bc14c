//! Recorders must be behaviourally inert.
//!
//! The observability layer promises that attaching any `Recorder` to the
//! online facade — the default none, an explicit `NoopRecorder`, or a
//! full ring-buffer `TraceRecorder` (including one small enough to
//! overflow) — leaves every policy's outcome stream **bitwise**
//! identical. A divergence means a hook leaked into the decision path
//! (e.g. an audit gauge perturbing a policy cache), which would make
//! "turn on tracing" change simulation results.

use cluster::{Cluster, FaultEvent, FaultKind, FaultPlan, NodeId, RecoveryPolicy};
use librisk::policy::PolicyKind;
use librisk::report::Outcome;
use librisk::rms::ClusterRms;
use obs::{Event, NoopRecorder, Recorder, TraceRecorder};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use workload::{Job, JobId, Urgency};

/// One randomized arrival, relative to the previous one.
#[derive(Debug, Clone)]
struct Arrival {
    gap: f64,
    runtime: f64,
    est_factor: f64,
    deadline: f64,
    procs: u32,
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (
        0.0..300.0f64,
        1.0..800.0f64,
        0.2..4.0f64,
        20.0..5_000.0f64,
        1u32..4,
    )
        .prop_map(|(gap, runtime, est_factor, deadline, procs)| Arrival {
            gap,
            runtime,
            est_factor,
            deadline,
            procs,
        })
}

/// A down/up pair for one node, expressed in absolute seconds.
fn churn_plan(down_at: f64, outage: f64, node: u32) -> FaultPlan {
    FaultPlan::from_events(vec![
        FaultEvent {
            at: SimTime::from_secs(down_at),
            node: NodeId(node),
            kind: FaultKind::NodeDown,
        },
        FaultEvent {
            at: SimTime::from_secs(down_at + outage),
            node: NodeId(node),
            kind: FaultKind::NodeUp,
        },
    ])
}

/// Exact-bits fingerprint of one resolved outcome.
fn fingerprint(seq: u64, outcome: &Outcome) -> (u64, u8, u64, u64) {
    match *outcome {
        Outcome::Rejected { at, reason } => (seq, reason.index() as u8, at.as_secs().to_bits(), 0),
        Outcome::Completed { started, finish } => (
            seq,
            100,
            started.as_secs().to_bits(),
            finish.as_secs().to_bits(),
        ),
        Outcome::Killed { at, node } => (seq, 101, at.as_secs().to_bits(), u64::from(node.0)),
    }
}

/// Runs one policy over the arrivals (with a mid-run advance per job and
/// a node outage) and returns every outcome fingerprint + the final
/// utilization bits.
fn run(
    kind: PolicyKind,
    arrivals: &[Arrival],
    down_at: f64,
    outage: f64,
    recorder: Option<&mut (dyn Recorder + Send)>,
) -> (Vec<(u64, u8, u64, u64)>, u64) {
    let cluster = Cluster::homogeneous(3, 168.0);
    let rms = kind
        .rms(&cluster)
        .with_faults(churn_plan(down_at, outage, 0), RecoveryPolicy::Requeue);
    match recorder {
        Some(rec) => drive(rms.with_recorder(rec), arrivals),
        None => drive(rms, arrivals),
    }
}

fn drive(mut rms: ClusterRms<'_>, arrivals: &[Arrival]) -> (Vec<(u64, u8, u64, u64)>, u64) {
    let mut out = Vec::new();
    let mut now = 0.0;
    for (i, a) in arrivals.iter().enumerate() {
        now += a.gap;
        let t = SimTime::from_secs(now);
        for e in rms.advance(t) {
            out.push(fingerprint(e.seq, &e.record.outcome));
        }
        let job = Job {
            id: JobId(i as u64),
            submit: t,
            runtime: SimDuration::from_secs(a.runtime),
            estimate: SimDuration::from_secs(a.runtime * a.est_factor),
            procs: a.procs,
            deadline: SimDuration::from_secs(a.deadline),
            urgency: Urgency::Low,
        };
        rms.submit(job, t);
    }
    for e in rms.drain() {
        out.push(fingerprint(e.seq, &e.record.outcome));
    }
    out.sort_unstable();
    (out, rms.utilization().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // No recorder, `NoopRecorder`, a roomy `TraceRecorder` with audit
    // gauges enabled (the only hook that runs policy code), and a
    // 16-slot ring that certainly overflows: all four runs must agree
    // bit-for-bit, for all 13 policies, under churn.
    #[test]
    fn any_recorder_leaves_all_policies_bitwise_identical(
        arrivals in proptest::collection::vec(arrival(), 5..25),
        down_at in 10.0..2_000.0f64,
        outage in 10.0..1_000.0f64,
    ) {
        for kind in PolicyKind::ALL {
            let plain = run(kind, &arrivals, down_at, outage, None);
            let mut noop = NoopRecorder;
            let with_noop = run(kind, &arrivals, down_at, outage, Some(&mut noop));
            prop_assert_eq!(&plain, &with_noop, "{:?}: noop recorder diverged", kind);
            let mut ring = TraceRecorder::new(4096).with_audit_gauges();
            let with_ring = run(kind, &arrivals, down_at, outage, Some(&mut ring));
            prop_assert_eq!(&plain, &with_ring, "{:?}: ring recorder diverged", kind);
            prop_assert!(!ring.is_empty(), "{:?}: ring recorded nothing", kind);
            let mut tiny = TraceRecorder::new(16);
            let with_tiny = run(kind, &arrivals, down_at, outage, Some(&mut tiny));
            prop_assert_eq!(&plain, &with_tiny, "{:?}: overflowing ring diverged", kind);
            // The tiny ring dropped the oldest events and said so.
            prop_assert_eq!(tiny.len() as u64 + tiny.dropped(), ring.len() as u64 + ring.dropped(),
                "{:?}: ring accounting leaked events", kind);
            if ring.len() > 16 {
                prop_assert!(tiny.dropped() > 0, "{:?}: overflow not counted", kind);
                // The tiny ring keeps exactly the newest events. Compare
                // by label + sim time: latency/wall stamps legitimately
                // differ between the two runs.
                let kept: Vec<_> = tiny
                    .events()
                    .map(|e| (e.event.label(), e.sim_secs.to_bits()))
                    .collect();
                let suffix: Vec<_> = ring
                    .events()
                    .skip(ring.len() - tiny.len())
                    .map(|e| (e.event.label(), e.sim_secs.to_bits()))
                    .collect();
                prop_assert_eq!(kept, suffix, "{:?}: ring did not keep the newest suffix", kind);
            }
        }
    }

    // The phase profiler is process-global state the engine hooks read
    // on every advance and decide — exactly the shape of plumbing that
    // could leak into a decision if a hook ever did more than observe.
    // Profiler-on runs must stay bitwise identical to profiler-off for
    // all 13 policies under churn, and must actually have profiled.
    #[test]
    fn enabled_profiler_leaves_all_policies_bitwise_identical(
        arrivals in proptest::collection::vec(arrival(), 5..20),
        down_at in 10.0..2_000.0f64,
        outage in 10.0..1_000.0f64,
    ) {
        obs::phase::reset();
        for kind in PolicyKind::ALL {
            obs::phase::set_enabled(false);
            let plain = run(kind, &arrivals, down_at, outage, None);
            obs::phase::set_enabled(true);
            let profiled = run(kind, &arrivals, down_at, outage, None);
            obs::phase::set_enabled(false);
            prop_assert_eq!(&plain, &profiled, "{:?}: profiler-on run diverged", kind);
        }
        // Aggregated across all 13 profiled runs the profiler must have
        // seen real work (individual policies may reject everything).
        let snap = obs::phase::snapshot();
        prop_assert!(
            snap.counter(obs::phase::Phase::AdvanceTotal.ns_key()) > 0,
            "profiler saw no advance work"
        );
        prop_assert!(
            snap.counter(obs::phase::Phase::ProgressPass.calls_key()) > 0,
            "no progress-pass laps recorded"
        );
        obs::phase::reset();
    }

    // The JSONL and Chrome trace exporters round-trip through the
    // bundled JSON parser for arbitrary recorded runs — one line per
    // event, and a Chrome event per span/instant.
    #[test]
    fn exports_parse_back(
        arrivals in proptest::collection::vec(arrival(), 3..12),
        down_at in 10.0..1_000.0f64,
    ) {
        let mut ring = TraceRecorder::new(8192).with_audit_gauges();
        run(PolicyKind::LibraRisk, &arrivals, down_at, 50.0, Some(&mut ring));
        let jsonl = ring.to_jsonl();
        let mut lines = 0;
        for line in jsonl.lines() {
            let v = obs::json::parse(line).expect("JSONL line parses");
            prop_assert!(v.get("type").and_then(|t| t.as_str()).is_some());
            prop_assert!(v.get("sim_secs").and_then(|t| t.as_f64()).is_some());
            lines += 1;
        }
        prop_assert_eq!(lines, ring.len());
        let trace = obs::json::parse(&ring.to_chrome_trace()).expect("chrome trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        prop_assert_eq!(events.len(), ring.len());
        let spans = ring
            .events()
            .filter(|e| matches!(e.event, Event::AdvanceSpan { .. }))
            .count();
        let complete = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        prop_assert_eq!(spans, complete);
    }
}
