//! The economic half of the original Libra system (Sherwani et al.,
//! SP&E 2004 — the paper's ref \[14\]).
//!
//! The published Libra is a *computational-economy* scheduler: a user
//! submits a job with a deadline **and a budget**, the cluster quotes a
//! price, and the job is admitted only if (a) the price fits the budget
//! and (b) the deadline is feasible (the share test the paper evaluates).
//! The ICPP'06 paper isolates the deadline half; this module restores the
//! budget half as an extension so the library covers the whole substrate:
//!
//! * **Pricing** follows Libra's published cost function
//!   `cost = α·E + β·E/D` for runtime estimate `E` and deadline `D`
//!   (per requested processor): a resource-usage term plus an urgency
//!   premium — tighter deadlines cost more.
//! * **Budgets** are synthesised per job from the *actual* runtime (users
//!   budget for the work they believe they need) with a tunable
//!   generosity spread.
//!
//! The composite policy rejects a job when the quote exceeds its budget,
//! otherwise defers to any inner share-based admission control (Libra or
//! LibraRisk), and reports the revenue actually earned — enabling
//! provider-utility comparisons like those of the paper's §2 related work
//! (Irwin et al., Popovici & Wilkes).

use crate::policy::{DecisionStats, ShareAdmission};
use cluster::proportional::ProportionalCluster;
use cluster::NodeId;
use sim::Rng64;
use std::collections::HashMap;
use workload::{Job, JobId};

/// Libra's published two-term cost function.
#[derive(Clone, Copy, Debug)]
pub struct PricingModel {
    /// Cost per estimated runtime second per processor (resource term).
    pub alpha: f64,
    /// Weight of the urgency term `E/D` (deadline premium).
    pub beta: f64,
}

impl Default for PricingModel {
    fn default() -> Self {
        // α keeps the resource term dominant for relaxed jobs; β makes a
        // deadline equal to the estimate (E/D = 1) double the base rate.
        PricingModel {
            alpha: 1.0,
            beta: 3600.0,
        }
    }
}

impl PricingModel {
    /// Quotes the price of a job: `procs × (α·E + β·E/D)`.
    pub fn quote(&self, job: &Job) -> f64 {
        let e = job.estimate.as_secs();
        let d = job.deadline.as_secs().max(1.0);
        f64::from(job.procs) * (self.alpha * e + self.beta * e / d)
    }
}

/// Synthesises per-job budgets: `budget = quote_at_accurate × generosity`
/// where the quote uses the job's *actual* runtime (what the user truly
/// needs) and generosity is log-uniform in `[min, max]`.
#[derive(Clone, Copy, Debug)]
pub struct BudgetModel {
    /// Pricing the users anticipate.
    pub pricing: PricingModel,
    /// Lower generosity bound (> 0; < 1 means under-budgeted users).
    pub min_generosity: f64,
    /// Upper generosity bound.
    pub max_generosity: f64,
}

impl Default for BudgetModel {
    fn default() -> Self {
        BudgetModel {
            pricing: PricingModel::default(),
            // Users pad budgets the way they pad estimates: generosity
            // log-uniform up to 10× covers typical quote inflation while
            // leaving the bottom quartile genuinely budget-constrained.
            min_generosity: 1.0,
            max_generosity: 10.0,
        }
    }
}

impl BudgetModel {
    /// Draws budgets for every job (keyed by id).
    pub fn assign(&self, rng: &mut Rng64, jobs: &[Job]) -> HashMap<JobId, f64> {
        assert!(
            0.0 < self.min_generosity && self.min_generosity <= self.max_generosity,
            "invalid generosity range"
        );
        jobs.iter()
            .map(|j| {
                // Users budget against the work they actually need.
                let mut accurate = j.clone();
                accurate.estimate = accurate.runtime;
                let base = self.pricing.quote(&accurate);
                let g = (rng.uniform(self.min_generosity.ln(), self.max_generosity.ln())).exp();
                (j.id, base * g)
            })
            .collect()
    }
}

/// Budget-gated admission: quote first, then defer to the inner policy.
/// The inner policy's reject reason, audit gauge and decision stats
/// show through, except for a budget-gate rejection: the closed
/// [`obs::RejectReason`] set has no budget code, so it reports
/// [`obs::RejectReason::NoFit`], with empty stats because nothing was
/// evaluated.
pub struct LibraBudget<P: ShareAdmission> {
    inner: P,
    pricing: PricingModel,
    budgets: HashMap<JobId, f64>,
    revenue: f64,
    budget_rejections: usize,
    /// Whether the last `decide` was turned away by the budget gate.
    gated: bool,
}

impl<P: ShareAdmission> LibraBudget<P> {
    /// Wraps an inner share policy with budget gating.
    pub fn new(inner: P, pricing: PricingModel, budgets: HashMap<JobId, f64>) -> Self {
        LibraBudget {
            inner,
            pricing,
            budgets,
            revenue: 0.0,
            budget_rejections: 0,
            gated: false,
        }
    }

    /// Revenue earned from accepted jobs so far.
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// Jobs turned away because the quote exceeded the budget.
    pub fn budget_rejections(&self) -> usize {
        self.budget_rejections
    }
}

impl<P: ShareAdmission> ShareAdmission for LibraBudget<P> {
    fn name(&self) -> String {
        format!("{}+Budget", self.inner.name())
    }

    fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        let quote = self.pricing.quote(job);
        let budget = self.budgets.get(&job.id).copied().unwrap_or(f64::INFINITY);
        self.gated = quote > budget;
        if self.gated {
            self.budget_rejections += 1;
            return None;
        }
        let nodes = self.inner.decide(engine, job)?;
        self.revenue += quote;
        Some(nodes)
    }

    fn reject_reason(&self) -> obs::RejectReason {
        if self.gated {
            obs::RejectReason::NoFit
        } else {
            self.inner.reject_reason()
        }
    }

    fn audit_gauge(&self, engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
        self.inner.audit_gauge(engine)
    }

    fn last_decision_stats(&self) -> Option<DecisionStats> {
        if self.gated {
            Some(DecisionStats::default())
        } else {
            self.inner.last_decision_stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libra_risk::LibraRisk;
    use cluster::proportional::ProportionalConfig;
    use cluster::Cluster;
    use sim::{SimDuration, SimTime};
    use workload::Urgency;

    fn job(id: u64, estimate: f64, runtime: f64, deadline: f64) -> Job {
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
    fn quote_charges_urgency_premium() {
        let pricing = PricingModel::default();
        let relaxed = job(0, 3600.0, 3600.0, 36_000.0); // E/D = 0.1
        let urgent = job(1, 3600.0, 3600.0, 3600.0); // E/D = 1
        let q_relaxed = pricing.quote(&relaxed);
        let q_urgent = pricing.quote(&urgent);
        assert!(q_urgent > q_relaxed);
        // Resource term α·E = 3600 for both; premium β·E/D adds 360 to
        // the relaxed quote and 3600 (a full doubling of the base) to the
        // urgent one.
        assert!((q_relaxed - 3960.0).abs() < 1e-9, "relaxed {q_relaxed}");
        assert!((q_urgent - 7200.0).abs() < 1e-9, "urgent {q_urgent}");
    }

    #[test]
    fn quote_scales_with_width() {
        let pricing = PricingModel::default();
        let narrow = job(0, 100.0, 100.0, 1000.0);
        let mut wide = narrow.clone();
        wide.procs = 8;
        assert!((pricing.quote(&wide) / pricing.quote(&narrow) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn budgets_are_positive_and_spread() {
        let jobs: Vec<Job> = (0..200).map(|i| job(i, 500.0, 400.0, 2000.0)).collect();
        let budgets = BudgetModel::default().assign(&mut Rng64::new(5), &jobs);
        assert_eq!(budgets.len(), 200);
        let values: Vec<f64> = budgets.values().copied().collect();
        assert!(values.iter().all(|&b| b > 0.0));
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 2.0, "generosity spread visible: {min}..{max}");
    }

    #[test]
    fn over_quoted_job_is_rejected_and_earns_nothing() {
        let engine = ProportionalCluster::new(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
        );
        // Budget below any possible quote.
        let mut budgets = HashMap::new();
        budgets.insert(JobId(0), 0.01);
        let mut policy = LibraBudget::new(LibraRisk::paper(), PricingModel::default(), budgets);
        assert!(policy
            .decide(&engine, &job(0, 100.0, 100.0, 1000.0))
            .is_none());
        assert_eq!(policy.budget_rejections(), 1);
        assert_eq!(policy.revenue(), 0.0);
    }

    #[test]
    fn affordable_job_defers_to_inner_policy_and_books_revenue() {
        let engine = ProportionalCluster::new(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
        );
        let j = job(0, 100.0, 100.0, 1000.0);
        let quote = PricingModel::default().quote(&j);
        let mut budgets = HashMap::new();
        budgets.insert(JobId(0), quote * 2.0);
        let mut policy = LibraBudget::new(LibraRisk::paper(), PricingModel::default(), budgets);
        let nodes = policy.decide(&engine, &j).expect("accepted");
        assert_eq!(nodes.len(), 1);
        assert!((policy.revenue() - quote).abs() < 1e-9);
        assert_eq!(policy.budget_rejections(), 0);
        assert_eq!(policy.name(), "LibraRisk+Budget");
    }

    #[test]
    fn unknown_job_id_is_treated_as_unlimited_budget() {
        let engine = ProportionalCluster::new(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
        );
        let mut policy =
            LibraBudget::new(LibraRisk::paper(), PricingModel::default(), HashMap::new());
        assert!(policy
            .decide(&engine, &job(7, 100.0, 100.0, 1000.0))
            .is_some());
    }

    #[test]
    fn end_to_end_budget_run_accounts_revenue() {
        use crate::rms::ClusterRms;
        use workload::Trace;
        let jobs: Vec<Job> = (0..30)
            .map(|i| {
                let mut j = job(i, 400.0, 300.0, 4000.0);
                j.submit = SimTime::from_secs(i as f64 * 500.0);
                j
            })
            .collect();
        let trace = Trace::new(jobs);
        let budgets = BudgetModel {
            min_generosity: 0.3,
            max_generosity: 1.5,
            ..Default::default()
        }
        .assign(&mut Rng64::new(9), trace.jobs());
        let mut policy = LibraBudget::new(LibraRisk::paper(), PricingModel::default(), budgets);
        let report = ClusterRms::proportional(
            Cluster::homogeneous(8, 168.0),
            ProportionalConfig::default(),
            &mut policy,
        )
        .run_to_report(&trace);
        assert_eq!(report.submitted(), 30);
        // Some users are under-budgeted (generosity < needed markup for
        // the over-estimated quote) → budget rejections occur.
        assert!(policy.budget_rejections() > 0);
        assert!(policy.revenue() > 0.0);
        assert_eq!(report.accepted(), report.submitted() - report.rejected());
    }
}
