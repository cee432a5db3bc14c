//! Release-mode timing gates: turning on a feature that must not change
//! outcomes — an empty fault plan, a recorder, the phase profiler — may
//! cost the unified driver only a bounded share of its throughput.
//!
//! Every probe replays the 2,000-job golden trace (SDSC-SP2-like, trace
//! seed 11, deadline seed 12) through LibraRisk on the 128-node machine,
//! in interleaved rounds: each round replays the plain driver and then
//! each feature arm back to back, so a contended stretch of the host
//! slows both sides of a round's ratio alike. A gate reads the mean or
//! median of the per-round ratios, never a single replay. Bitwise
//! inertness is pinned elsewhere (`differential_rms.rs`,
//! `obs_identity.rs`); here the golden fulfilled count only anchors that
//! every replay did the same work.
//!
//! The gates time wall clock, so they are ignored in the default test
//! run. Run them in release, one at a time:
//!
//! ```text
//! cargo test --release -q -p librisk --test overhead_gates -- --ignored --test-threads=1
//! ```

use cluster::{Cluster, FaultPlan, RecoveryPolicy};
use librisk::{drive_trace, NoopRecorder, OnlineReport, PolicyKind, Recorder, TraceRecorder};
use obs::phase;
use sim::Rng64;
use std::time::Instant;
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;
use workload::Trace;

/// Deadlines the golden trace fulfils under LibraRisk.
const GOLDEN_FULFILLED: u64 = 1563;

/// What a replay attaches to the RMS.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    Plain,
    EmptyPlan,
    Noop,
    Ring,
}

fn golden_trace() -> Trace {
    if cfg!(debug_assertions) {
        panic!("timing gate: run with --release");
    }
    let mut trace = SyntheticSdscSp2 {
        jobs: 2000,
        ..Default::default()
    }
    .generate(11);
    DeadlineModel::default().assign(&mut Rng64::new(12), trace.jobs_mut());
    trace
}

/// Jobs per second of one replay of `trace`, RMS set-up included.
fn replay(trace: &Trace, arm: Arm) -> f64 {
    let mut recorder: Option<Box<dyn Recorder + Send>> = match arm {
        Arm::Noop => Some(Box::new(NoopRecorder)),
        Arm::Ring => Some(Box::new(TraceRecorder::new(1 << 16))),
        Arm::Plain | Arm::EmptyPlan => None,
    };
    let mut sink = OnlineReport::new();
    let t = Instant::now();
    let mut rms = PolicyKind::LibraRisk.rms(&Cluster::sdsc_sp2());
    if arm == Arm::EmptyPlan {
        rms = rms.with_faults(FaultPlan::empty(), RecoveryPolicy::Requeue);
    }
    match recorder.as_deref_mut() {
        Some(rec) => drive_trace(&mut rms.with_recorder(rec), trace, &mut sink),
        None => drive_trace(&mut rms, trace, &mut sink),
    }
    let jobs_per_s = trace.len() as f64 / t.elapsed().as_secs_f64();
    assert_eq!(
        sink.fulfilled(),
        GOLDEN_FULFILLED,
        "{arm:?} changed outcomes"
    );
    jobs_per_s
}

/// `rounds` interleaved rounds of `arms`: per arm after the first, its
/// throughput ratio to the first arm's replay of the same round.
fn round_ratios(rounds: usize, arms: &mut [&mut dyn FnMut() -> f64]) -> Vec<Vec<f64>> {
    let mut ratios = vec![Vec::with_capacity(rounds); arms.len() - 1];
    for _ in 0..rounds {
        let base = arms[0]();
        for (r, arm) in ratios.iter_mut().zip(&mut arms[1..]) {
            r.push(arm() / base);
        }
    }
    ratios
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    xs[xs.len() / 2]
}

#[test]
#[ignore = "timing gate: release-only, run by ci.sh"]
fn empty_fault_plan_costs_under_a_quarter_of_driver_throughput() {
    let trace = golden_trace();
    let ratios = round_ratios(
        7,
        &mut [&mut || replay(&trace, Arm::Plain), &mut || {
            replay(&trace, Arm::EmptyPlan)
        }],
    );
    let mean = ratios[0].iter().sum::<f64>() / ratios[0].len() as f64;
    eprintln!("empty plan / plain: mean {mean:.3} over {:.3?}", ratios[0]);
    assert!(
        mean > 0.75,
        "empty fault plan costs more than 25% driver throughput (ratio {mean:.3})"
    );
}

#[test]
#[ignore = "timing gate: release-only, run by ci.sh"]
fn recorders_cost_under_a_tenth_of_driver_throughput() {
    let trace = golden_trace();
    let mut ratios = round_ratios(
        9,
        &mut [
            &mut || replay(&trace, Arm::Plain),
            &mut || replay(&trace, Arm::Noop),
            &mut || replay(&trace, Arm::Ring),
        ],
    );
    let ring = median(ratios.pop().expect("ring arm"));
    let noop = median(ratios.pop().expect("noop arm"));
    eprintln!("recorder / plain: noop median {noop:.3}, ring median {ring:.3}");
    assert!(
        ring > 0.90,
        "ring recorder costs more than 10% driver throughput (median ratio {ring:.3})"
    );
    assert!(
        noop > 0.90,
        "noop recorder costs more than 10% driver throughput (median ratio {noop:.3})"
    );
}

#[test]
#[ignore = "timing gate: release-only, run by ci.sh"]
fn phase_profiler_costs_under_a_tenth_of_driver_throughput() {
    let trace = golden_trace();
    phase::set_enabled(false);
    let ratios = round_ratios(
        9,
        &mut [&mut || replay(&trace, Arm::Plain), &mut || {
            phase::reset();
            phase::set_enabled(true);
            let jobs_per_s = replay(&trace, Arm::Plain);
            phase::set_enabled(false);
            jobs_per_s
        }],
    );
    phase::reset();
    let on = median(ratios.into_iter().next().expect("profiler arm"));
    eprintln!("profiler on / off: median {on:.3}");
    assert!(
        on > 0.90,
        "phase profiler costs more than 10% driver throughput (median ratio {on:.3})"
    );
}
