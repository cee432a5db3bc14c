//! LibraRisk: admission by zero risk of deadline delay (§3.3, Algorithm 1).
//!
//! For every node the policy tentatively adds the new job, projects each
//! resident job's finish time under the proportional-share dynamics using
//! the scheduler's *current beliefs* (remaining estimates), converts the
//! projected delays into the deadline-delay metric (Eq. 4) and computes
//! the node's risk `σ_j` (Eq. 6). The node is suitable iff `σ_j = 0`, and
//! the job is accepted iff at least `numproc` suitable nodes exist.
//!
//! Two properties make this different from — and under inaccurate
//! estimates better than — Libra's share test:
//!
//! 1. `σ_j` is a *dispersion*, so a projected delay that would hit every
//!    job on the node equally (most importantly: a lone job whose inflated
//!    estimate exceeds its deadline) reads as **certainty, not risk** —
//!    the job is accepted, and because real estimates are mostly
//!    over-estimates it usually meets its deadline anyway.
//! 2. The projection consumes the engine's live remaining estimates,
//!    including the re-armed residuals of currently *overrunning*
//!    (under-estimated) jobs — a node already in trouble projects unequal
//!    delays and is avoided, where Libra would happily keep loading it.

use crate::policy::{DecisionStats, ShareAdmission};
use crate::risk_cache::SetTable;
use cluster::projection::{
    canonicalize_projection, is_zero_risk, node_risk, node_risk_single_segment, screens_risky,
    screens_zero_risk, ProjectedJob, ProjectionWorkspace, RiskSummary, EPS_DEADLINE,
};
use cluster::proportional::{projected_job, ProportionalCluster};
use cluster::NodeId;
use workload::Job;

/// How suitable (zero-risk) nodes are ordered before taking the first
/// `numproc` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeOrdering {
    /// Ascending node id — the literal reading of Algorithm 1 (the loop
    /// appends suitable nodes in index order).
    ById,
    /// Most-loaded (by current total share) first — saturates nodes like
    /// Libra's best fit.
    MostLoadedFirst,
}

/// Tolerance on the projected mean deadline-delay when
/// [`LibraRisk::require_unit_mu`] is enabled.
pub const MU_EPSILON: f64 = 1e-9;

/// Cluster-wide aggregate of per-node resident risk contributions,
/// folded in node-id order.
#[derive(Clone, Debug)]
pub struct ClusterRisk {
    /// Per-node contributions, indexed by node id.
    pub contributions: Vec<RiskSummary>,
    /// Total resident jobs projected across the cluster.
    pub jobs: usize,
    /// Σ over nodes of each contribution's `dd_sum`, left-to-right in
    /// node-id order.
    pub dd_sum: f64,
    /// Σ over nodes of each contribution's `dd_sq_sum`, same order.
    pub dd_sq_sum: f64,
    /// Number of nodes whose resident-only `σ_j` reads as nonzero risk.
    pub risky_nodes: usize,
}

impl ClusterRisk {
    /// Cluster-mean deadline-delay over all resident jobs (1.0 when the
    /// cluster is empty — no jobs, no delay).
    pub fn mean_dd(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.dd_sum / self.jobs as f64
        }
    }

    /// `true` when every field (including each per-node contribution)
    /// matches `other` bitwise.
    pub fn bits_eq(&self, other: &ClusterRisk) -> bool {
        self.jobs == other.jobs
            && self.risky_nodes == other.risky_nodes
            && self.dd_sum.to_bits() == other.dd_sum.to_bits()
            && self.dd_sq_sum.to_bits() == other.dd_sq_sum.to_bits()
            && self.contributions.len() == other.contributions.len()
            && self
                .contributions
                .iter()
                .zip(&other.contributions)
                .all(|(a, b)| a.bits_eq(b))
    }
}

/// The LibraRisk admission control.
///
/// The decision loop keeps no per-node state between decisions and is
/// allocation-free after warm-up: a per-decision set table settles nodes
/// holding a resident set already evaluated, two screens settle nodes
/// whose verdict their bounds prove, the paper variant skips the
/// projection of an empty node outright (a lone tentative job's
/// deadline-delay has no dispersion, so its `σ_j` is exactly zero), and
/// every other node is read off the engine's slots into one reusable job
/// buffer and projected in a reusable [`ProjectionWorkspace`].
#[derive(Clone, Debug)]
pub struct LibraRisk {
    name: String,
    ordering: NodeOrdering,
    require_unit_mu: bool,
    naive_projection: bool,
    /// Projection input of the node being evaluated: its residents in
    /// canonical order, the candidate last.
    jobs: Vec<ProjectedJob>,
    ws: ProjectionWorkspace,
    zero_risk: Vec<NodeId>,
    /// Per-decision resident-set table: `(set hash, speed)` → the first
    /// node evaluated with that resident set and its verdict, so each
    /// distinct set is evaluated once per decision (see
    /// [`same_resident_set`] for why a confirmed hit replays exactly the
    /// verdict an evaluation would return). Cleared at the top of each
    /// decision; never reused across engine states.
    sets: SetTable,
    /// Evaluation-volume counters of the most recent `decide` call.
    stats: DecisionStats,
}

impl Default for LibraRisk {
    fn default() -> Self {
        Self::paper()
    }
}

/// A resident's projection input, read from its engine arena slot.
fn slot_job(engine: &ProportionalCluster, s: u32) -> ProjectedJob {
    let (dl, rem) = engine.slot_projection_bits(s);
    ProjectedJob {
        remaining_est: f64::from_bits(rem),
        abs_deadline: f64::from_bits(dl),
    }
}

/// `true` when nodes `a` and `b` have bitwise-equal speeds and hold the
/// same resident set — the confirmation behind every set-table hit.
///
/// A node's verdict is a function of its resident *multiset* (and the
/// speed, the candidate, `now` and the discipline, all fixed within one
/// decision): the kernel and the single-segment projection read the
/// canonical `(deadline, remaining)` order, as `decide_reference` does,
/// and every shortcut in front of them — both screens and the empty-node
/// path — returns the verdict they would. While `decide` holds the
/// engine borrowed, a slot names one resident in one state, so equal
/// slot sets are equal multisets, and replaying the verdict of a node
/// with the same set returns exactly the verdict evaluating this one
/// would.
///
/// Resident lists hold distinct slots, so equal lengths plus `a ⊆ b`
/// prove the sets equal; lists usually agree in order too (a gang lands
/// on its members in one admission order), which the slice compare
/// settles before the O(k²) containment walk.
fn same_resident_set(engine: &ProportionalCluster, a: NodeId, b: NodeId) -> bool {
    let (sa, sb) = (engine.node_slots(a), engine.node_slots(b));
    engine.node_speed(a).to_bits() == engine.node_speed(b).to_bits()
        && sa.len() == sb.len()
        && (sa == sb || sa.iter().all(|s| sb.contains(s)))
}

impl LibraRisk {
    /// The policy exactly as published: zero-σ suitability, node-id order.
    pub fn paper() -> Self {
        LibraRisk {
            name: "LibraRisk".to_string(),
            ordering: NodeOrdering::ById,
            require_unit_mu: false,
            naive_projection: false,
            jobs: Vec::new(),
            ws: ProjectionWorkspace::new(),
            zero_risk: Vec::new(),
            sets: SetTable::new(),
            stats: DecisionStats::default(),
        }
    }

    /// Algorithm 1 without shortcuts: every node is projected from
    /// scratch with freshly allocated buffers. Kept as the differential
    /// reference — `decide` must return identical decisions.
    ///
    /// Residents are projected in canonical multiset order
    /// ([`canonicalize_projection`], tentative candidate appended last),
    /// matching `decide`: the projected `(μ_j, σ_j)` are then
    /// well-defined functions of the resident multiset rather than of
    /// the engine's internal slot order.
    pub fn decide_reference(&self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        let want = job.procs as usize;
        if want > engine.up_nodes() {
            return None;
        }
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let mut zero_risk_nodes: Vec<NodeId> = Vec::new();
        for node in engine.cluster().nodes() {
            if !engine.node_is_up(node.id) {
                continue;
            }
            let mut projected = engine.node_projection(node.id, None);
            canonicalize_projection(&mut projected);
            projected.push(projected_job(job));
            let speed = engine.cluster().speed_factor(node.id);
            let (mu, sigma) = if self.naive_projection {
                node_risk_single_segment(&projected, now, speed, discipline)
            } else {
                node_risk(&projected, now, speed, discipline)
            };
            let suitable =
                is_zero_risk(sigma) && (!self.require_unit_mu || (mu - 1.0).abs() <= MU_EPSILON);
            if suitable {
                zero_risk_nodes.push(node.id);
            }
        }
        if zero_risk_nodes.len() < want {
            return None;
        }
        self.order_nodes(&mut zero_risk_nodes, engine);
        zero_risk_nodes.truncate(want);
        Some(zero_risk_nodes)
    }

    fn order_nodes(&self, nodes: &mut [NodeId], engine: &ProportionalCluster) {
        match self.ordering {
            NodeOrdering::ById => {} // already ascending by construction
            NodeOrdering::MostLoadedFirst => {
                nodes.sort_by(|a, b| {
                    let sa = engine.node_total_share(*a, None);
                    let sb = engine.node_total_share(*b, None);
                    sb.partial_cmp(&sa).expect("finite shares").then(a.cmp(b))
                });
            }
        }
    }

    /// Renames the policy (for ablation variants).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Changes the suitable-node ordering.
    pub fn with_ordering(mut self, ordering: NodeOrdering) -> Self {
        self.ordering = ordering;
        if ordering != NodeOrdering::ById && self.name == "LibraRisk" {
            self.name = format!("LibraRisk-{ordering:?}");
        }
        self
    }

    /// Ablation knob: replace the piecewise delay projection with the
    /// naive single-segment one (rates frozen at admission time). Under
    /// overload every deadline-delay then coincides, so σ_j degenerates
    /// to 0 and the policy accepts anything that fits — quantifying how
    /// much the projection's event recomputation contributes.
    pub fn with_naive_projection(mut self, on: bool) -> Self {
        self.naive_projection = on;
        if on && self.name == "LibraRisk" {
            self.name = "LibraRisk-NaiveProj".to_string();
        }
        self
    }

    /// Ablation knob: additionally require the projected mean
    /// deadline-delay `μ_j` to be 1 (i.e. no projected delay at all, not
    /// even a certain one). This forfeits the over-estimation tolerance.
    pub fn require_unit_mu(mut self, on: bool) -> Self {
        self.require_unit_mu = on;
        if on && self.name == "LibraRisk" {
            self.name = "LibraRisk-Strict".to_string();
        }
        self
    }

    /// The cluster-wide risk aggregate over *resident* jobs only (no
    /// tentative candidate): every node re-projected from scratch. A
    /// decision reads the engine without mutating it, so a rejected
    /// candidate leaves the aggregate bitwise unchanged.
    ///
    /// Always evaluated with the paper's piecewise projection (ablation
    /// knobs affect decisions, not this diagnostic). Down nodes keep
    /// their slot in `contributions` (a node failure evicts every
    /// resident, so the slot reads as an empty, zero-risk summary).
    pub fn cluster_risk(engine: &ProportionalCluster) -> ClusterRisk {
        let n = engine.cluster().len();
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let mut out = ClusterRisk {
            contributions: Vec::with_capacity(n),
            jobs: 0,
            dd_sum: 0.0,
            dd_sq_sum: 0.0,
            risky_nodes: 0,
        };
        for node in engine.cluster().nodes() {
            let mut jobs = engine.node_projection(node.id, None);
            canonicalize_projection(&mut jobs);
            let speed = engine.cluster().speed_factor(node.id);
            let s =
                ProjectionWorkspace::new().node_risk_summary_with(&jobs, now, speed, discipline);
            out.jobs += s.count;
            out.dd_sum += s.dd_sum;
            out.dd_sq_sum += s.dd_sq_sum;
            if !is_zero_risk(s.sigma) {
                out.risky_nodes += 1;
            }
            out.contributions.push(s);
        }
        out
    }
}

impl ShareAdmission for LibraRisk {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn reject_reason(&self) -> obs::RejectReason {
        // Past the width/down screens, LibraRisk refuses a job because
        // admitting it somewhere would risk a deadline delay.
        obs::RejectReason::OverRisk
    }

    fn audit_gauge(&self, engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
        // Mean projected deadline-delay factor across resident jobs
        // (1.0 = no delay). `cluster_risk` only reads the engine, so
        // auditing it around a decision leaves the decision stream
        // bitwise intact.
        Some(("cluster_risk", Self::cluster_risk(engine).mean_dd()))
    }

    fn last_decision_stats(&self) -> Option<DecisionStats> {
        Some(self.stats)
    }

    fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        // A decision that returns at the width screen evaluated nothing —
        // report zeros rather than a stale prior decision's counters.
        self.stats = DecisionStats::default();
        let want = job.procs as usize;
        if want > engine.up_nodes() {
            return None;
        }
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let tentative = projected_job(job);
        // Algorithm 1, lines 1–11: evaluate σ_j per node with the new job
        // tentatively added — proving most verdicts *without* running the
        // projection kernel. Per node, cheapest sufficient evidence wins:
        // the set table replays the verdict of any node with the same
        // resident set and speed evaluated earlier this decision; the
        // zero-risk screen settles nodes with provable headroom in a
        // handful of flops; the risk screen settles nodes whose
        // finish-time bounds alone prove dispersion in one pass over the
        // residents; and only what survives all three runs the kernel.
        self.zero_risk.clear();
        self.sets.begin(engine.cluster().len());
        let mut stats = DecisionStats::default();
        // Profiler: the scan span brackets the whole node loop; the
        // classify/kernel spans below nest inside it (they are a
        // breakdown of scan time, not disjoint phases). All three are
        // stride-sampled per decision so an enabled profiler stays
        // inside the <10% throughput budget.
        let fine = obs::phase::decision_sampled();
        let scan_span = fine.then(|| obs::phase::span(obs::phase::Phase::CandidateScan));
        // One classify span covers each run of pre-kernel work — set
        // table lookups and both screens — and closes before a node's
        // projection input is gathered: a span per lookup would cost more
        // than the lookups it times.
        let mut classify = None;
        let total_nodes = engine.cluster().len();
        let cand_share = tentative.remaining_est / (tentative.abs_deadline - now).max(EPS_DEADLINE);
        for (scanned, node) in engine.cluster().nodes().iter().enumerate() {
            // Certain-rejection early-exit: even if this node and every
            // later one turned out suitable, fewer than `want` could
            // exist — the answer is already `None`, and nothing below
            // observes the skipped evaluations (`zero_risk` is
            // per-decision scratch).
            if self.zero_risk.len() + (total_nodes - scanned) < want {
                break;
            }
            // A down node is never suitable, however empty it looks (the
            // empty-node fast path below would otherwise admit onto it).
            if !engine.node_is_up(node.id) {
                continue;
            }
            stats.nodes_considered += 1;
            let speed = engine.node_speed(node.id);
            // Set table: one evaluation per distinct resident set. The
            // key is the engine's O(1) set hash mixed with the speed; a
            // hit is confirmed against the representative's slots, so a
            // hash collision only costs the evaluation below.
            let set_key = engine.node_set_hash(node.id) ^ speed.to_bits().rotate_left(32);
            if classify.is_none() {
                classify = fine.then(|| obs::phase::span(obs::phase::Phase::EquivClassify));
            }
            let known = self.sets.get(set_key, |rep| {
                same_resident_set(engine, NodeId(rep), node.id)
            });
            let share_total = engine.node_share_total_now(node.id);
            let min_dl = engine.node_min_deadline(node.id);
            let suitable = if let Some(suitable) = known {
                stats.class_hits += 1;
                suitable
            } else if screens_zero_risk(discipline, speed, share_total, min_dl, tentative, now) {
                // Dominance screen: enough capacity headroom that every
                // resident plus the candidate provably finishes at least
                // `EPS_DEADLINE` early, which forces dd = 1.0 for every
                // job → μ_j = 1.0 and σ_j = 0.0 *bitwise* (proof at
                // [`screens_zero_risk`]) — suitable under every variant
                // without projecting. The inputs come straight from the
                // engine (the rate recompute's per-node share totals and
                // a deadline min), so a screened node costs O(1) and
                // never reads its residents. The engine total may
                // differ from the canonical-order sum in the last ulp;
                // the screen's `SCREEN_HEADROOM` margin absorbs that, and
                // a fired screen equals the kernel verdict either way.
                stats.screen_hits += 1;
                true
            } else if min_dl.is_infinite()
                && engine.resident_count(node.id) == 0
                && !self.require_unit_mu
                && !self.naive_projection
            {
                // `min_dl == +∞` pre-gates the resident-list read:
                // residents carry finite deadlines, so an occupied node
                // short-circuits here without touching its list header
                // (the count read stays as the authoritative confirm).
                // Empty-node fast path: a lone job's deadline-delay is a
                // single sample, so its population dispersion — Eq. 6's
                // σ_j — is exactly 0.0 however late the projection runs.
                // `node_risk` computes `sqrt(max(0, dd·dd − μ·μ))` with
                // μ = dd, which is exactly 0.0 too, so skipping the
                // projection cannot flip a decision.
                true
            } else if !self.naive_projection
                && (share_total + cand_share > speed
                    || min_dl.min(tentative.abs_deadline) - now < EPS_DEADLINE)
                && screens_risky(
                    discipline,
                    speed,
                    engine
                        .node_slots(node.id)
                        .iter()
                        .map(|&s| slot_job(engine, s)),
                    tentative,
                    now,
                )
            {
                // Risk screen, the dominance screen's mirror: no job
                // outruns its node and the node drains all its work by
                // `now + Σrem/speed`, and when those bounds alone put two
                // deadline-delays further apart than the verdict kernel's
                // bail-out gap (plus a float allowance) σ_j is provably
                // nonzero (proof at [`screens_risky`]) — unsuitable under
                // every variant the screen runs for. The bounds ignore
                // resident order, so the residents are read straight off
                // the engine's slots: a screened node skips the sort and
                // the kernel. It can only fire when
                // some job is late even at full speed, which takes a
                // share above the node's speed or a deadline inside the
                // `EPS_DEADLINE` floor: the O(1) pre-check on the engine's
                // share total keeps under-loaded nodes off the pass.
                stats.risk_screen_hits += 1;
                false
            } else {
                classify = None;
                // Canonical evaluation order, as in `decide_reference`:
                // the projection (and hence every (μ_j, σ_j) bit pattern)
                // is a function of the resident *multiset*, so nodes with
                // the same set replay each other's verdicts exactly.
                self.jobs.clear();
                self.jobs.extend(
                    engine
                        .node_slots(node.id)
                        .iter()
                        .map(|&s| slot_job(engine, s)),
                );
                canonicalize_projection(&mut self.jobs);
                self.jobs.push(tentative);
                let _kernel = fine.then(|| obs::phase::span(obs::phase::Phase::VerdictKernel));
                stats.projections_run += 1;
                let (mu, sigma) = if self.naive_projection {
                    node_risk_single_segment(&self.jobs, now, speed, discipline)
                } else {
                    // Verdict kernel: an early σ certification stands for
                    // the same unsuitable verdict the full run would give.
                    // A lone candidate never bails, so Strict reads its
                    // exact μ.
                    let s = self
                        .ws
                        .node_risk_verdict_with(&self.jobs, now, speed, discipline)
                        .unwrap_or_else(|| {
                            stats.kernel_bails += 1;
                            RiskSummary::PROVABLY_RISKY
                        });
                    (s.mu, s.sigma)
                };
                is_zero_risk(sigma) && (!self.require_unit_mu || (mu - 1.0).abs() <= MU_EPSILON)
            };
            if known.is_none() {
                stats.distinct_classes += 1;
                self.sets.insert(set_key, node.id.0, suitable);
            }
            if suitable {
                self.zero_risk.push(node.id);
                // Under ById ordering the final answer is "the first
                // `want` suitable nodes in ascending id" — once they are
                // in hand no later node can enter the decision, so the
                // scan may stop. Rejections still require the full sweep
                // (we must prove fewer than `want` exist), and the
                // most-loaded ordering needs the complete suitable set
                // to sort.
                if self.ordering == NodeOrdering::ById && self.zero_risk.len() == want {
                    break;
                }
            }
        }
        drop(classify);
        drop(scan_span);
        self.stats = stats;
        if obs::phase::enabled() {
            use obs::phase::Counter as C;
            obs::phase::add(C::DominanceScreens, stats.screen_hits);
            obs::phase::add(C::RiskScreens, stats.risk_screen_hits);
            obs::phase::add(C::EquivClassHits, stats.class_hits);
            obs::phase::add(C::KernelBails, stats.kernel_bails);
            obs::phase::add(C::ProjectionsRun, stats.projections_run);
        }
        // Lines 12–18: accept iff enough suitable nodes exist.
        if self.zero_risk.len() < want {
            return None;
        }
        let mut ranked = std::mem::take(&mut self.zero_risk);
        self.order_nodes(&mut ranked, engine);
        let out: Vec<NodeId> = ranked.iter().take(want).copied().collect();
        self.zero_risk = ranked; // hand the warm buffer back for reuse
        Some(out)
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
            urgency: Urgency::High,
        }
    }

    #[test]
    fn accepts_feasible_job_like_libra() {
        let mut lr = LibraRisk::paper();
        let e = engine(4);
        let nodes = lr.decide(&e, &job(0, 50.0, 2, 100.0)).expect("accepted");
        assert_eq!(
            nodes,
            vec![NodeId(0), NodeId(1)],
            "Algorithm 1 takes nodes in id order"
        );
    }

    #[test]
    fn accepts_certainly_late_lone_job_that_libra_rejects() {
        // estimate 300 > deadline 100: Libra's share test says 3 > 1 →
        // reject; LibraRisk sees a single projected deadline-delay value
        // (σ = 0) → accept. This is the over-estimation tolerance.
        let mut lr = LibraRisk::paper();
        let mut libra = crate::libra::Libra::new();
        let e = engine(1);
        let j = job(0, 300.0, 1, 100.0);
        assert!(libra.decide(&e, &j).is_none());
        assert!(lr.decide(&e, &j).is_some());
    }

    #[test]
    fn strict_variant_rejects_certainly_late_lone_job() {
        let mut strict = LibraRisk::paper().require_unit_mu(true);
        let e = engine(1);
        assert!(strict.decide(&e, &job(0, 300.0, 1, 100.0)).is_none());
        // But a genuinely feasible job is still accepted.
        assert!(strict.decide(&e, &job(1, 50.0, 1, 100.0)).is_some());
        assert_eq!(strict.name(), "LibraRisk-Strict");
    }

    #[test]
    fn rejects_when_projection_shows_unequal_delays() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(1);
        // Resident job: share 0.8 with deadline 100.
        e.admit(job(1, 80.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        // New job with a different deadline pushing the node into overload:
        // the earlier-deadline job is projected late, the later one less so
        // → σ > 0 → reject.
        assert!(lr.decide(&e, &job(2, 80.0, 1, 200.0)).is_none());
        // A small job that keeps the node feasible is accepted.
        assert!(lr.decide(&e, &job(3, 10.0, 1, 200.0)).is_some());
    }

    #[test]
    fn avoids_node_with_overrunning_job() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(2);
        // An under-estimated job on node 0: estimate 50, actual 500,
        // deadline 100.
        let mut sick = job(1, 50.0, 1, 100.0);
        sick.runtime = SimDuration::from_secs(500.0);
        e.admit(sick, vec![NodeId(0)], SimTime::ZERO);
        // Run past the estimate and the deadline: the job overruns; its
        // re-armed residual now projects real delay on node 0.
        let mut t = e.next_event_time().unwrap();
        for _ in 0..20 {
            let done = e.advance(t);
            if !done.is_empty() {
                break;
            }
            match e.next_event_time() {
                Some(next) if next.as_secs() < 160.0 => t = next,
                _ => break,
            }
        }
        assert!(!e.is_empty(), "sick job must still be running");
        // New job with a comfortable deadline: node 0 projects unequal
        // delays (sick job late, new job fine) → only node 1 is zero-risk.
        let nodes = lr
            .decide(&e, &job(2, 50.0, 1, 1000.0))
            .expect("node 1 available");
        assert_eq!(nodes, vec![NodeId(1)]);
    }

    #[test]
    fn ordering_variants_pick_different_nodes() {
        let mut e = engine(3);
        // Load node 1 lightly.
        e.admit(job(1, 10.0, 1, 100.0), vec![NodeId(1)], SimTime::ZERO);
        let j = job(2, 10.0, 1, 100.0);
        let mut p_id = LibraRisk::paper();
        let mut p_most = LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst);
        assert_eq!(p_id.decide(&e, &j).unwrap(), vec![NodeId(0)]);
        assert_eq!(p_most.decide(&e, &j).unwrap(), vec![NodeId(1)]);
    }

    #[test]
    fn naive_projection_accepts_the_overload_the_paper_variant_refuses() {
        let mut e = engine(1);
        e.admit(job(1, 80.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        let j = job(2, 80.0, 1, 200.0);
        // Piecewise projection: unequal delays → reject (see
        // rejects_when_projection_shows_unequal_delays).
        assert!(LibraRisk::paper().decide(&e, &j).is_none());
        // Naive projection: all delays coincide → zero risk → accept.
        let mut naive = LibraRisk::paper().with_naive_projection(true);
        assert!(naive.decide(&e, &j).is_some());
        assert_eq!(naive.name(), "LibraRisk-NaiveProj");
    }

    #[test]
    fn cached_decisions_match_reference_through_state_changes() {
        for variant in [
            LibraRisk::paper(),
            LibraRisk::paper().require_unit_mu(true),
            LibraRisk::paper().with_naive_projection(true),
            LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst),
        ] {
            let mut lr = variant;
            let mut e = engine(4);
            let mut t = 0.0;
            for round in 0..30 {
                let j = job(
                    100 + round as u64,
                    20.0 + (round % 7) as f64 * 13.0,
                    1 + (round % 2) as u32,
                    110.0 + (round % 3) as f64 * 40.0,
                );
                let cached = lr.decide(&e, &j);
                let reference = lr.decide_reference(&e, &j);
                assert_eq!(cached, reference, "{} round {round}", lr.name());
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
    }

    #[test]
    fn repeated_decisions_match_reference_across_state_changes() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(2);
        let j = job(0, 80.0, 1, 100.0);
        let first = lr.decide(&e, &j);
        // Same engine state, same candidate shape under a different id:
        // the repeated decision must equal both the first answer and the
        // from-scratch reference.
        let j2 = job(99, 80.0, 1, 100.0);
        assert_eq!(lr.decide(&e, &j2), first);
        assert_eq!(lr.decide(&e, &j2), lr.decide_reference(&e, &j2));
        // After an admission the decision follows the new state.
        e.admit(job(1, 90.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        assert_eq!(lr.decide(&e, &j2), lr.decide_reference(&e, &j2));

        // Advancing an *empty* cluster moves `now` and nothing else, and
        // the decision must still follow `now`. Shape chosen
        // so the strict decision flips: at t=0 the job finishes by its
        // deadline (μ = 1 → accept), at t=30 it cannot (μ > 1 → reject).
        let mut strict = LibraRisk::paper().require_unit_mu(true);
        let mut e2 = engine(2);
        let ja = job(5, 80.0, 1, 100.0);
        assert!(strict.decide(&e2, &ja).is_some());
        e2.advance(SimTime::from_secs(30.0));
        assert_eq!(strict.decide(&e2, &ja), strict.decide_reference(&e2, &ja));
        assert!(strict.decide(&e2, &ja).is_none());
    }

    #[test]
    fn cluster_risk_matches_reference_and_ignores_rejections() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(3);
        let idle = LibraRisk::cluster_risk(&e);
        assert_eq!(idle.jobs, 0);
        assert_eq!(idle.risky_nodes, 0);
        assert_eq!(idle.mean_dd(), 1.0);
        assert!(idle
            .contributions
            .iter()
            .all(|c| c.bits_eq(&RiskSummary::EMPTY)));

        e.admit(job(1, 80.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        e.admit(job(2, 80.0, 1, 200.0), vec![NodeId(0)], SimTime::ZERO);
        e.admit(job(3, 40.0, 1, 400.0), vec![NodeId(1)], SimTime::ZERO);
        let loaded = LibraRisk::cluster_risk(&e);
        assert_eq!(loaded.jobs, 3);
        assert_eq!(loaded.contributions.len(), 3);
        assert!(loaded.risky_nodes >= 1, "node 0 is overloaded unevenly");
        // Each contribution is the node's own from-scratch projection.
        let mut node0 = e.node_projection(NodeId(0), None);
        canonicalize_projection(&mut node0);
        let want = ProjectionWorkspace::new().node_risk_summary_with(
            &node0,
            0.0,
            e.cluster().speed_factor(NodeId(0)),
            e.config().discipline,
        );
        assert!(loaded.contributions[0].bits_eq(&want));

        // A rejected candidate must leave the aggregate bitwise unchanged.
        assert!(lr.decide(&e, &job(4, 500.0, 3, 120.0)).is_none());
        assert!(LibraRisk::cluster_risk(&e).bits_eq(&loaded));
        assert_eq!(lr.audit_gauge(&e), Some(("cluster_risk", loaded.mean_dd())));
    }

    #[test]
    fn rejects_wider_than_cluster() {
        let mut lr = LibraRisk::paper();
        let e = engine(2);
        assert!(lr.decide(&e, &job(0, 1.0, 3, 100.0)).is_none());
    }

    #[test]
    fn set_table_hits_confirm_the_resident_set() {
        // Node 0 holds {1, 2}; node 1 holds the same set in the other
        // list order (job 3 leaving swaps 2 to the front); nodes 2 and 3
        // both hold {4, 5}, a different set of the same size.
        let mut e = engine(4);
        let long = |id| job(id, 1e6, 1, 1e7);
        e.admit(job(3, 1.0, 1, 2.0), vec![NodeId(1)], SimTime::ZERO);
        for id in [1, 2] {
            let mut j = long(id);
            j.procs = 2;
            e.admit(j, vec![NodeId(0), NodeId(1)], SimTime::ZERO);
        }
        for id in [4, 5] {
            let mut j = long(id);
            j.procs = 2;
            e.admit(j, vec![NodeId(2), NodeId(3)], SimTime::ZERO);
        }
        while e.resident_count(NodeId(1)) == 3 {
            let t = e.next_event_time().unwrap();
            e.advance(t);
        }
        assert_eq!(e.len(), 4, "only job 3 completed");
        assert_ne!(e.node_slots(NodeId(0)), e.node_slots(NodeId(1)));
        let same = |a: u32, b: u32| same_resident_set(&e, NodeId(a), NodeId(b));
        assert!(same(0, 1) && same(2, 3));
        assert!(!same(0, 2) && !same(1, 3));
        // Force both sets under one key: each gets back its own verdict.
        let mut sets = SetTable::new();
        sets.begin(4);
        sets.insert(7, 0, true);
        assert_eq!(sets.get(7, |rep| same(rep, 2)), None);
        sets.insert(7, 2, false);
        assert_eq!(sets.get(7, |rep| same(rep, 1)), Some(true));
        assert_eq!(sets.get(7, |rep| same(rep, 3)), Some(false));
    }

    #[test]
    fn multiprocessor_job_needs_enough_zero_risk_nodes() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(2);
        // Make node 0 risky: overload it with heterogeneous deadlines.
        e.admit(job(1, 90.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        let j2 = job(2, 90.0, 2, 300.0);
        // Node 0 would project unequal delays with j2 added; node 1 is
        // clean — but j2 needs two nodes → reject.
        assert!(lr.decide(&e, &j2).is_none());
        // The same job needing one node is accepted on node 1.
        let j3 = job(3, 90.0, 1, 300.0);
        assert_eq!(lr.decide(&e, &j3).unwrap(), vec![NodeId(1)]);
    }
}
