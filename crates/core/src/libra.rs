//! Libra: deadline-based proportional-share admission control (§3.1).
//!
//! A node `j` is suitable for a new job when the total required share —
//! every resident job's `remaining_runtime / remaining_deadline` plus the
//! new job's `estimate / deadline` — fits in the node's unit capacity
//! (Eq. 1–2). Suitable nodes are ranked **best-fit**: "nodes that have the
//! least available processor time after accepting the new job will be
//! selected first so that nodes are saturated to their maximum".
//!
//! Because the test consumes the runtime *estimate*, over-estimation makes
//! Libra refuse jobs that would in fact have met their deadlines — the
//! core weakness the paper demonstrates.

use crate::policy::ShareAdmission;
use cluster::proportional::ProportionalCluster;
use cluster::NodeId;
use workload::Job;

/// Slack tolerated on the unit-capacity test, absorbing float fuzz.
pub const SHARE_EPSILON: f64 = 1e-9;

/// The Libra admission control.
///
/// Each decision is a plain scan: every up node's Eq. 2 share total,
/// tentative job included, is tested against unit capacity, and the
/// suitable nodes are ranked best-fit. No state is kept between
/// decisions; the only field besides the name is the reused candidate
/// buffer, which keeps a rejection allocation-free.
#[derive(Clone, Debug)]
pub struct Libra {
    name: String,
    suitable: Vec<(f64, NodeId)>,
}

impl Default for Libra {
    fn default() -> Self {
        Self::new()
    }
}

impl Libra {
    /// Creates the policy.
    pub fn new() -> Self {
        Libra {
            name: "Libra".to_string(),
            suitable: Vec::new(),
        }
    }

    /// Renames the policy (for ablation variants sharing the logic).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The decision logic with fresh allocations: every node's share
    /// total is summed from scratch, tentative job included. Kept as the
    /// differential reference — `decide` must return bitwise-identical
    /// rankings.
    pub fn decide_reference(&self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        let want = job.procs as usize;
        if want > engine.up_nodes() {
            return None;
        }
        let mut suitable: Vec<(f64, NodeId)> = Vec::new();
        for node in engine.cluster().nodes() {
            if !engine.node_is_up(node.id) {
                continue;
            }
            let with_new = engine.node_total_share(node.id, Some(job));
            if with_new <= 1.0 + SHARE_EPSILON {
                suitable.push((with_new, node.id));
            }
        }
        if suitable.len() < want {
            return None;
        }
        suitable.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("shares are finite")
                .then(a.1.cmp(&b.1))
        });
        Some(suitable.into_iter().take(want).map(|(_, id)| id).collect())
    }
}

impl ShareAdmission for Libra {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn reject_reason(&self) -> obs::RejectReason {
        // Libra's only failure mode (once width and down nodes are ruled
        // out) is an infeasible share sum somewhere: no fit.
        obs::RejectReason::NoFit
    }

    fn audit_gauge(&self, engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
        // The peak node share sum: the quantity Eq. 1–2 tests against
        // unit capacity. Read-only over up nodes, so sampling it around
        // a decision cannot perturb the decision stream.
        let mut peak = 0.0_f64;
        for node in engine.cluster().nodes() {
            if engine.node_is_up(node.id) {
                peak = peak.max(engine.node_total_share(node.id, None));
            }
        }
        Some(("peak_share", peak))
    }

    fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        let want = job.procs as usize;
        if want > engine.up_nodes() {
            return None;
        }
        self.suitable.clear();
        for node in engine.cluster().nodes() {
            if !engine.node_is_up(node.id) {
                continue;
            }
            let with_new = engine.node_total_share(node.id, Some(job));
            if with_new <= 1.0 + SHARE_EPSILON {
                self.suitable.push((with_new, node.id));
            }
        }
        if self.suitable.len() < want {
            return None;
        }
        // Rank by the share each node would have *after* accepting the
        // job — fullest first (best fit), ties to the lower node id.
        self.suitable.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("shares are finite")
                .then(a.1.cmp(&b.1))
        });
        Some(self.suitable.iter().take(want).map(|&(_, id)| id).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::proportional::ProportionalConfig;
    use cluster::Cluster;
    use sim::{SimDuration, SimTime};
    use workload::{JobId, Urgency};

    fn engine(nodes: usize) -> ProportionalCluster {
        ProportionalCluster::new(
            Cluster::homogeneous(nodes, 168.0),
            ProportionalConfig::default(),
        )
    }

    fn job(id: u64, estimate: f64, procs: u32, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::ZERO,
            runtime: SimDuration::from_secs(estimate),
            estimate: SimDuration::from_secs(estimate),
            procs,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn accepts_feasible_job_on_empty_cluster() {
        let mut libra = Libra::new();
        let e = engine(4);
        let nodes = libra.decide(&e, &job(0, 50.0, 2, 100.0)).expect("accepted");
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn rejects_job_whose_estimate_exceeds_deadline() {
        // Share = 200/100 = 2 > 1 on every node.
        let mut libra = Libra::new();
        let e = engine(4);
        assert!(libra.decide(&e, &job(0, 200.0, 1, 100.0)).is_none());
    }

    #[test]
    fn rejects_when_not_enough_suitable_nodes() {
        let mut libra = Libra::new();
        let mut e = engine(2);
        // Fill node 0 and node 1 with share 0.8 each.
        for (i, n) in [(1u64, 0u32), (2, 1)] {
            e.admit(job(i, 80.0, 1, 100.0), vec![NodeId(n)], SimTime::ZERO);
        }
        // A job needing share 0.5 fits on no node; procs=1 → reject.
        assert!(libra.decide(&e, &job(3, 50.0, 1, 100.0)).is_none());
        // But share 0.2 fits on both → a 2-proc job is accepted.
        assert!(libra.decide(&e, &job(4, 20.0, 2, 100.0)).is_some());
    }

    #[test]
    fn best_fit_prefers_fullest_suitable_node() {
        let mut libra = Libra::new();
        let mut e = engine(3);
        // node0 at share 0.6, node1 at 0.3, node2 empty.
        e.admit(job(1, 60.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        e.admit(job(2, 30.0, 1, 100.0), vec![NodeId(1)], SimTime::ZERO);
        // New job share 0.3: fits everywhere; best fit = node0 (0.9 after).
        let nodes = libra.decide(&e, &job(3, 30.0, 1, 100.0)).unwrap();
        assert_eq!(nodes, vec![NodeId(0)]);
        // Share 0.5: node0 would reach 1.1 → unsuitable; best fit = node1.
        let nodes = libra.decide(&e, &job(4, 50.0, 1, 100.0)).unwrap();
        assert_eq!(nodes, vec![NodeId(1)]);
    }

    #[test]
    fn ties_break_by_node_id() {
        let mut libra = Libra::new();
        let e = engine(3);
        let nodes = libra.decide(&e, &job(0, 50.0, 2, 100.0)).unwrap();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn rejects_wider_than_cluster() {
        let mut libra = Libra::new();
        let e = engine(2);
        assert!(libra.decide(&e, &job(0, 1.0, 3, 100.0)).is_none());
    }

    #[test]
    fn cached_decisions_match_reference_through_state_changes() {
        let mut libra = Libra::new();
        let mut e = engine(4);
        let mut t = 0.0;
        for round in 0..30 {
            let j = job(
                100 + round as u64,
                20.0 + (round % 7) as f64 * 11.0,
                1 + (round % 2) as u32,
                120.0,
            );
            let cached = libra.decide(&e, &j);
            let reference = libra.decide_reference(&e, &j);
            assert_eq!(cached, reference, "round {round}");
            if let Some(nodes) = cached {
                e.admit(j, nodes, sim::SimTime::from_secs(t));
            }
            if round % 3 == 2 {
                if let Some(next) = e.next_event_time() {
                    t = next.as_secs();
                    e.advance(next);
                }
            }
        }
    }

    #[test]
    fn exactly_full_node_is_still_suitable() {
        let mut libra = Libra::new();
        let mut e = engine(1);
        e.admit(job(1, 50.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        // 0.5 + 0.5 = 1.0 exactly: accepted.
        assert!(libra.decide(&e, &job(2, 50.0, 1, 100.0)).is_some());
        // 0.5 + 0.500001 > 1: rejected.
        assert!(libra.decide(&e, &job(3, 50.0001, 1, 100.0)).is_none());
    }
}
