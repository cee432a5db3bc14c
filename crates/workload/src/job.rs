//! The job model of the paper (§3).

use sim::{SimDuration, SimTime};

/// Stable job identity (position in the trace).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Deadline urgency class (§4 of the paper: a high-urgency class with a low
/// `deadline/runtime` factor and a low-urgency class with a high factor).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Urgency {
    /// Short deadline relative to runtime.
    High,
    /// Long deadline relative to runtime.
    Low,
}

/// A rigid parallel job with an SLA deadline.
///
/// * `runtime` is the *actual* time to complete the job when allocated the
///   full share of a reference-rating processor (the paper's `runtime_i`);
///   it never includes waiting time.
/// * `estimate` is what the **user told the scheduler** — the admission
///   controls only ever see `estimate`, never `runtime`.
/// * `deadline` is relative to `submit`; the SLA is
///   `finish − submit ≤ deadline` (hard deadline, Eq. 3).
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Stable identity.
    pub id: JobId,
    /// Absolute submission instant.
    pub submit: SimTime,
    /// Actual runtime at full processor share on a reference-rating node.
    pub runtime: SimDuration,
    /// User-supplied runtime estimate (what admission control sees).
    pub estimate: SimDuration,
    /// Minimum number of processors required (`numproc_i`, rigid).
    pub procs: u32,
    /// Deadline relative to submission (`deadline_i`).
    pub deadline: SimDuration,
    /// Urgency class the deadline was drawn from.
    pub urgency: Urgency,
}

impl Job {
    /// The absolute instant by which the job must finish.
    #[inline]
    pub fn absolute_deadline(&self) -> SimTime {
        self.submit + self.deadline
    }

    /// The deadline/runtime factor this job was assigned (always > 1 in the
    /// paper's methodology).
    #[inline]
    pub fn deadline_factor(&self) -> f64 {
        self.deadline.as_secs() / self.runtime.as_secs()
    }

    /// Ratio `estimate / runtime`: 1 is perfectly accurate, > 1 is
    /// over-estimated, < 1 under-estimated.
    #[inline]
    pub fn estimate_factor(&self) -> f64 {
        self.estimate.as_secs() / self.runtime.as_secs()
    }

    /// `true` when the user estimate is at least the actual runtime.
    #[inline]
    pub fn is_overestimated(&self) -> bool {
        self.estimate >= self.runtime
    }

    /// Validates the invariants every generator/parser must uphold.
    pub fn validate(&self) -> Result<(), String> {
        // Every time must be finite: a job with infinite work never
        // completes, and an infinite instant makes the engine's next time
        // step `∞ − ∞`.
        for (field, secs) in [
            ("runtime", self.runtime.as_secs()),
            ("estimate", self.estimate.as_secs()),
            ("deadline", self.deadline.as_secs()),
            ("submit time", self.submit.as_secs()),
        ] {
            if !secs.is_finite() {
                return Err(format!("{}: non-finite {field}", self.id));
            }
        }
        if !self.absolute_deadline().as_secs().is_finite() {
            return Err(format!("{}: absolute deadline overflows", self.id));
        }
        if self.runtime.as_secs() <= 0.0 {
            return Err(format!("{}: non-positive runtime", self.id));
        }
        if self.estimate.as_secs() <= 0.0 {
            return Err(format!("{}: non-positive estimate", self.id));
        }
        if self.procs == 0 {
            return Err(format!("{}: zero processors", self.id));
        }
        if self.deadline.as_secs() <= 0.0 {
            return Err(format!("{}: non-positive deadline", self.id));
        }
        if self.submit < SimTime::ZERO {
            return Err(format!("{}: negative submit time", self.id));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            id: JobId(1),
            submit: SimTime::from_secs(100.0),
            runtime: SimDuration::from_secs(50.0),
            estimate: SimDuration::from_secs(80.0),
            procs: 4,
            deadline: SimDuration::from_secs(150.0),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn absolute_deadline_is_submit_plus_relative() {
        assert_eq!(job().absolute_deadline(), SimTime::from_secs(250.0));
    }

    #[test]
    fn factors() {
        let j = job();
        assert!((j.deadline_factor() - 3.0).abs() < 1e-12);
        assert!((j.estimate_factor() - 1.6).abs() < 1e-12);
        assert!(j.is_overestimated());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut j = job();
        assert!(j.validate().is_ok());
        j.procs = 0;
        assert!(j.validate().is_err());
        let mut j = job();
        j.runtime = SimDuration::from_secs(0.0);
        assert!(j.validate().is_err());
        let mut j = job();
        j.deadline = SimDuration::from_secs(-1.0);
        assert!(j.validate().is_err());
        let mut j = job();
        j.estimate = SimDuration::from_secs(0.0);
        assert!(j.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_times() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let secs = SimDuration::from_secs(v);
            for (field, j) in [
                (
                    "runtime",
                    Job {
                        runtime: secs,
                        ..job()
                    },
                ),
                (
                    "estimate",
                    Job {
                        estimate: secs,
                        ..job()
                    },
                ),
                (
                    "deadline",
                    Job {
                        deadline: secs,
                        ..job()
                    },
                ),
                (
                    "submit",
                    Job {
                        submit: SimTime::from_secs(v),
                        ..job()
                    },
                ),
            ] {
                assert!(j.validate().is_err(), "{field} = {v} passed");
            }
        }
        // Finite fields whose sum overflows: the absolute deadline is +∞.
        let mut j = job();
        j.submit = SimTime::from_secs(f64::MAX);
        j.deadline = SimDuration::from_secs(f64::MAX);
        assert!(j.validate().is_err());
    }
}
