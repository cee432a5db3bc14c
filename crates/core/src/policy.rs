//! The admission-policy abstraction and the catalogue of ready-made
//! policies.

use crate::libra::Libra;
use crate::libra_risk::{LibraRisk, NodeOrdering};
use crate::qops::QopsConfig;
use crate::queue::{QueueDiscipline, QueuePolicy};
use crate::report::SimulationReport;
use crate::rms::ClusterRms;
use cluster::projection::ShareDiscipline;
use cluster::proportional::{ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, NodeId};
use workload::{Job, Trace};

/// Evaluation-volume accounting for one admission decision: how many
/// nodes the candidate scan looked at and how much projection work the
/// pre-kernel machinery (dominance and risk screens, the resident-set
/// table) avoided. Costless to maintain — a handful of counter bumps per
/// decision — so policies keep it unconditionally and the facade samples
/// it into the metrics registry when a recorder is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Up nodes the scan actually evaluated (early exits excluded).
    pub nodes_considered: u64,
    /// Projection-kernel executions the decision performed.
    pub projections_run: u64,
    /// Nodes proven suitable by the pre-kernel dominance screen alone.
    pub screen_hits: u64,
    /// Nodes proven unsuitable by the pre-kernel risk screen alone.
    pub risk_screen_hits: u64,
    /// Nodes settled by the verdict of an earlier node with the same
    /// resident set (and speed) in this decision: later members of a
    /// resident-set group replaying its first member's verdict.
    pub class_hits: u64,
    /// Retired: always `0`. It counted cross-decision pairing replays,
    /// which per-set verdicts subsumed; kept so records that read it
    /// keep their shape.
    pub pairing_hits: u64,
    /// Kernel runs (counted in `projections_run`) that ended in an early
    /// σ certification instead of a full timeline simulation.
    pub kernel_bails: u64,
    /// Retired: always `0`; kept so records that read it keep their
    /// shape.
    pub memo_hits: u64,
    /// Resident sets evaluated this decision: the considered nodes that
    /// did not replay a group verdict.
    pub distinct_classes: u64,
}

impl DecisionStats {
    /// Evaluations that did not run the projection kernel.
    pub fn projections_avoided(&self) -> u64 {
        self.nodes_considered.saturating_sub(self.projections_run)
    }
}

/// Decision logic of a proportional-share admission control (Libra,
/// LibraRisk and variants).
///
/// `decide` is consulted once per arriving job with the engine advanced to
/// the submission instant; returning `Some(nodes)` accepts the job onto
/// exactly `job.procs` distinct nodes, `None` rejects it irrevocably (the
/// paper's model: SLA terms cannot change after submission, and rejected
/// jobs do not return).
///
/// `decide` takes `&mut self` so implementations can reuse scratch
/// buffers across decisions. Neither built-in policy keeps per-node state
/// from one decision to the next: Libra scans every node's share total
/// afresh, and LibraRisk's group verdicts live for one decision. An
/// implementation that does memoise across decisions may assume a policy
/// instance is consulted about **one** engine for its whole life —
/// create a fresh instance per simulation, as [`PolicyKind::run`] does.
pub trait ShareAdmission {
    /// Display name of the policy (used in reports and figures).
    fn name(&self) -> String;

    /// Accept (with a node allocation) or reject the job.
    fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>>;

    /// The stable machine-readable cause a `None` from
    /// [`ShareAdmission::decide`] maps to in the audit log and reports
    /// (width and node-down rejections are classified by the facade
    /// before this is consulted).
    fn reject_reason(&self) -> obs::RejectReason {
        obs::RejectReason::NoFit
    }

    /// The headline admission gauge for the decision audit log — e.g.
    /// Libra's peak node share sum, LibraRisk's cluster risk. Sampled
    /// around each decision (never inside it), and only when a recorder
    /// is enabled; it takes `&self`, so sampling cannot change
    /// subsequent decisions. The facade samples once before `decide` and
    /// again only after an acceptance: a rejection leaves the engine
    /// untouched, so its first sample stands for both. `None` when the
    /// policy has no natural gauge.
    fn audit_gauge(&self, _engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
        None
    }

    /// Evaluation-volume counters of the most recent
    /// [`ShareAdmission::decide`] call, for the facade's metrics and the
    /// benchmark's `decide.*` counters. `None` when the policy does not
    /// track them (Libra, which runs no projections; queue-based
    /// policies; external implementations).
    fn last_decision_stats(&self) -> Option<DecisionStats> {
        None
    }
}

/// A mutable borrow of a policy is itself a policy — lets callers keep
/// ownership (to read the policy's state after the run, as the decision
/// proptests and the facade's gauge-sampling test do) while the RMS
/// facade drives the borrow.
impl<T: ShareAdmission + ?Sized> ShareAdmission for &mut T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        (**self).decide(engine, job)
    }

    fn reject_reason(&self) -> obs::RejectReason {
        (**self).reject_reason()
    }

    fn audit_gauge(&self, engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
        (**self).audit_gauge(engine)
    }

    fn last_decision_stats(&self) -> Option<DecisionStats> {
        (**self).last_decision_stats()
    }
}

/// The catalogue of policies the paper (and our ablations) evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Non-preemptive Earliest Deadline First with the paper's relaxed
    /// admission control (§4).
    Edf,
    /// EDF without any admission control (jobs never rejected) — the
    /// paper notes this "performs much worse".
    EdfNoAdmission,
    /// First-come first-served space sharing, no admission control — the
    /// classic cluster RMS baseline (§2: existing RMSs implement no
    /// admission control).
    Fcfs,
    /// Deadline-based proportional share with share-feasibility admission
    /// and best-fit node selection (§3.1).
    Libra,
    /// Libra enhanced with the zero-risk-of-deadline-delay test
    /// (§3.3, Algorithm 1) — the paper's contribution.
    LibraRisk,
    /// Ablation: LibraRisk that additionally requires the projected mean
    /// deadline-delay `μ_j` to be 1 (no *certain* delay either). Collapses
    /// the over-estimation tolerance — expected to behave like Libra.
    LibraRiskStrict,
    /// Ablation: LibraRisk selecting zero-risk nodes best-fit (most loaded
    /// first) instead of Algorithm 1's node-id order.
    LibraRiskBestFit,
    /// Ablation: Libra on a strict-share engine (each job runs at exactly
    /// its Eq. 1 share; spare capacity idles) instead of the default
    /// work-conserving engine.
    LibraStrictShares,
    /// Ablation: LibraRisk on a strict-share engine.
    LibraRiskStrictShares,
    /// Ablation: LibraRisk with the naive single-segment delay projection
    /// (rates frozen; overload reads as certain, hence zero-risk). Expected
    /// to over-admit and miss deadlines.
    LibraRiskNaiveProjection,
    /// Extension: EDF with EASY-style aggressive backfilling (blocked
    /// head; later fitting jobs may jump ahead).
    EdfBackfill,
    /// Extension: QoPS-style soft-deadline admission control (related
    /// work, §2) with the default slack factor 1.2.
    Qops,
    /// Extension: the QoPS controller with slack factor 1 — a hard
    /// schedulability test at arrival.
    QopsHard,
}

impl PolicyKind {
    /// All policies the paper's figures compare.
    pub const PAPER: [PolicyKind; 3] = [PolicyKind::Edf, PolicyKind::Libra, PolicyKind::LibraRisk];

    /// Every policy in the catalogue.
    pub const ALL: [PolicyKind; 13] = [
        PolicyKind::Edf,
        PolicyKind::EdfNoAdmission,
        PolicyKind::Fcfs,
        PolicyKind::Libra,
        PolicyKind::LibraRisk,
        PolicyKind::LibraRiskStrict,
        PolicyKind::LibraRiskBestFit,
        PolicyKind::LibraStrictShares,
        PolicyKind::LibraRiskStrictShares,
        PolicyKind::LibraRiskNaiveProjection,
        PolicyKind::EdfBackfill,
        PolicyKind::Qops,
        PolicyKind::QopsHard,
    ];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Edf => "EDF",
            PolicyKind::EdfNoAdmission => "EDF-NoAC",
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::Libra => "Libra",
            PolicyKind::LibraRisk => "LibraRisk",
            PolicyKind::LibraRiskStrict => "LibraRisk-Strict",
            PolicyKind::LibraRiskBestFit => "LibraRisk-BestFit",
            PolicyKind::LibraStrictShares => "Libra-SS",
            PolicyKind::LibraRiskStrictShares => "LibraRisk-SS",
            PolicyKind::LibraRiskNaiveProjection => "LibraRisk-NaiveProj",
            PolicyKind::EdfBackfill => "EDF-BF",
            PolicyKind::Qops => "QoPS",
            PolicyKind::QopsHard => "QoPS-Hard",
        }
    }

    /// Builds the online RMS facade for this policy over a cluster —
    /// ready for job-by-job [`ClusterRms::submit`] calls or a batch
    /// [`ClusterRms::run_to_report`].
    pub fn rms(self, cluster: &Cluster) -> ClusterRms<'static> {
        let default_cfg = ProportionalConfig::default();
        let strict_shares = ProportionalConfig {
            discipline: ShareDiscipline::Strict,
        };
        match self {
            PolicyKind::Edf => ClusterRms::queued(
                cluster.clone(),
                QueuePolicy::new(QueueDiscipline::EarliestDeadline, true),
            ),
            PolicyKind::EdfNoAdmission => ClusterRms::queued(
                cluster.clone(),
                QueuePolicy::new(QueueDiscipline::EarliestDeadline, false),
            ),
            PolicyKind::Fcfs => ClusterRms::queued(
                cluster.clone(),
                QueuePolicy::new(QueueDiscipline::Fifo, false),
            ),
            PolicyKind::Libra => {
                ClusterRms::proportional(cluster.clone(), default_cfg, Libra::new())
            }
            PolicyKind::LibraRisk => {
                ClusterRms::proportional(cluster.clone(), default_cfg, LibraRisk::paper())
            }
            PolicyKind::LibraRiskStrict => ClusterRms::proportional(
                cluster.clone(),
                default_cfg,
                LibraRisk::paper().require_unit_mu(true),
            ),
            PolicyKind::LibraRiskBestFit => ClusterRms::proportional(
                cluster.clone(),
                default_cfg,
                LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst),
            ),
            PolicyKind::LibraStrictShares => ClusterRms::proportional(
                cluster.clone(),
                strict_shares,
                Libra::new().with_name("Libra-SS"),
            ),
            PolicyKind::LibraRiskStrictShares => ClusterRms::proportional(
                cluster.clone(),
                strict_shares,
                LibraRisk::paper().with_name("LibraRisk-SS"),
            ),
            PolicyKind::LibraRiskNaiveProjection => ClusterRms::proportional(
                cluster.clone(),
                default_cfg,
                LibraRisk::paper().with_naive_projection(true),
            ),
            PolicyKind::EdfBackfill => ClusterRms::queued(
                cluster.clone(),
                QueuePolicy::new(QueueDiscipline::EarliestDeadline, true).with_backfill(true),
            ),
            PolicyKind::Qops => {
                ClusterRms::qops(cluster.clone(), QopsConfig::default()).with_policy_name("QoPS")
            }
            PolicyKind::QopsHard => {
                ClusterRms::qops(cluster.clone(), QopsConfig { slack_factor: 1.0 })
                    .with_policy_name("QoPS-Hard")
            }
        }
    }

    /// Runs a full simulation of this policy over a trace — the one
    /// generic driver over the online facade, for every policy.
    pub fn run(self, cluster: &Cluster, trace: &Trace) -> SimulationReport {
        self.rms(cluster).run_to_report(trace)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn every_policy_builds_a_facade() {
        for kind in PolicyKind::ALL {
            let rms = kind.rms(&Cluster::homogeneous(2, 168.0));
            assert!(!rms.policy_name().is_empty(), "{kind:?}");
            assert_eq!(rms.submitted(), 0);
        }
    }

    #[test]
    fn paper_set_is_edf_libra_librarisk() {
        let names: Vec<&str> = PolicyKind::PAPER.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["EDF", "Libra", "LibraRisk"]);
    }
}
