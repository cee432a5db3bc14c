//! Hostile input: a job whose times are not finite, or a submission at a
//! non-finite instant or at one before the clock, must end in an
//! `InvalidJob` rejection that leaves the clock where it was, never in a
//! panic or an endless drain; an advance to a non-finite instant or to
//! one before the clock must leave the clock where it was too.

use cluster::Cluster;
use librisk::prelude::*;
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use workload::{Job, JobId, Urgency};

fn job(id: u64, submit: f64, runtime: f64, estimate: f64, deadline: f64) -> Job {
    Job {
        id: JobId(id),
        submit: SimTime::from_secs(submit),
        runtime: SimDuration::from_secs(runtime),
        estimate: SimDuration::from_secs(estimate),
        procs: 1,
        deadline: SimDuration::from_secs(deadline),
        urgency: Urgency::Low,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn non_finite_times_are_rejected_and_drain_returns(
        // Bit k < 5 set: field k (runtime, estimate, deadline, the job's
        // submit time, the submission instant) is infinite. The matching
        // bit of `negative` picks its sign. Bit 5 set: a finite
        // submission instant is `back` seconds before the clock. At least
        // one bit is set.
        infinite in 1u32..64,
        negative in 0u32..32,
        back in 0.001..1_000.0f64,
        runtime in 1.0..500.0f64,
        est_factor in 0.2..4.0f64,
        deadline_factor in 1.0..6.0f64,
        at in 0.0..1_000.0f64,
    ) {
        let mut rms = PolicyKind::LibraRisk.rms(&Cluster::homogeneous(4, 168.0));
        let first = job(0, at, runtime, runtime * est_factor, runtime * deadline_factor);
        rms.submit(first, SimTime::from_secs(at));
        let pick = |k: u32, finite: f64| {
            if infinite & (1 << k) == 0 {
                finite
            } else if negative & (1 << k) == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        };
        let hostile = job(
            1,
            pick(3, at),
            pick(0, runtime),
            pick(1, runtime * est_factor),
            pick(2, runtime * deadline_factor),
        );
        let instant = if infinite & (1 << 5) == 0 { at } else { at - back };
        let now = SimTime::from_secs(pick(4, instant));
        prop_assert_eq!(
            rms.submit(hostile, now),
            Decision::Rejected(RejectReason::InvalidJob)
        );
        prop_assert_eq!(rms.now(), SimTime::from_secs(at), "the clock moved");
        // `drain` must return: both submissions resolve exactly once.
        let outcomes: Vec<Outcome> = rms.drain().map(|e| e.record.outcome).collect();
        prop_assert_eq!(outcomes.len(), 2);
        prop_assert!(outcomes.contains(&Outcome::Rejected {
            at: SimTime::from_secs(at),
            reason: RejectReason::InvalidJob,
        }));
    }

    #[test]
    fn non_finite_advance_moves_nothing_and_later_submits_decide(
        // 0: +∞, 1: −∞, 2: `back` seconds before the clock.
        target in 0u32..3,
        back in 0.001..1_000.0f64,
        runtime in 1.0..500.0f64,
        est_factor in 0.2..4.0f64,
        deadline_factor in 1.0..6.0f64,
        at in 0.0..1_000.0f64,
        gap in 0.0..2_000.0f64,
    ) {
        let to = SimTime::from_secs(match target {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => at - back,
        });
        let first = job(0, at, runtime, runtime * est_factor, runtime * deadline_factor);
        // Wider than the cluster: its rejection is buffered at `at`.
        let mut wide = job(1, at, runtime, runtime * est_factor, runtime * deadline_factor);
        wide.procs = 5;
        let later = job(2, at + gap, runtime, runtime * est_factor, runtime * deadline_factor);
        let cluster = Cluster::homogeneous(4, 168.0);

        // The same submissions without the hostile advance.
        let mut plain = PolicyKind::LibraRisk.rms(&cluster);
        plain.submit(first.clone(), SimTime::from_secs(at));
        plain.submit(wide.clone(), SimTime::from_secs(at));
        let mut want: Vec<(u64, Outcome)> =
            plain.advance(SimTime::from_secs(at)).map(|e| (e.seq, e.record.outcome)).collect();
        let want_decision = plain.submit(later.clone(), later.submit);
        want.extend(plain.drain().map(|e| (e.seq, e.record.outcome)));

        let mut rms = PolicyKind::LibraRisk.rms(&cluster);
        rms.submit(first, SimTime::from_secs(at));
        rms.submit(wide, SimTime::from_secs(at));
        // Only the buffered rejection streams; the clock stays put.
        let mut got: Vec<(u64, Outcome)> =
            rms.advance(to).map(|e| (e.seq, e.record.outcome)).collect();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].0, 1);
        prop_assert_eq!(rms.now(), SimTime::from_secs(at), "the clock moved");
        // A finite submission afterwards is decided as if the advance had
        // not happened, and every job resolves exactly once.
        prop_assert_eq!(rms.submit(later.clone(), later.submit), want_decision);
        got.extend(rms.drain().map(|e| (e.seq, e.record.outcome)));
        got.sort_by_key(|&(seq, _)| seq);
        want.sort_by_key(|&(seq, _)| seq);
        prop_assert_eq!(got, want);
    }
}
