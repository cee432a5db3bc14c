//! What-if delay projection (the analytical core of §3.2/§3.3).
//!
//! Given the jobs resident on one node — described only by what the
//! scheduler *believes* (remaining estimated work) and their absolute
//! deadlines — this module simulates the deadline-proportional-share
//! engine forward to predict each job's finish time, derives the paper's
//! quantities:
//!
//! * `delay_i` (Eq. 3) — projected lateness beyond the deadline;
//! * `deadline_delay_i` (Eq. 4) — `(delay_i + rd_i) / rd_i`, ≥ 1;
//! * `μ_j` (Eq. 5) and the **risk** `σ_j` (Eq. 6) — mean and population
//!   standard deviation of the deadline-delay values on the node.
//!
//! A subtle and load-bearing property of Eq. 6: `σ_j` measures the
//! *dispersion* of projected deadline-delays, not their level. A node
//! whose jobs would all be *equally* delayed (in particular a node holding
//! a single job) has `σ_j = 0` even though delay is projected. LibraRisk
//! therefore accepts jobs whose inflated runtime estimates make them look
//! infeasible to Libra's share test — and when those estimates are
//! over-estimates (the common case in real traces) the jobs actually meet
//! their deadlines. That asymmetry is the mechanism behind the paper's
//! headline result.

/// Floor applied to a remaining deadline before dividing by it, seconds.
/// Prevents an already-late job from producing an infinite share or an
/// infinite deadline-delay.
pub const EPS_DEADLINE: f64 = 1.0;

/// Work (reference-seconds) below which a job counts as finished.
pub const EPS_WORK: f64 = 1e-6;

/// `σ_j` below this threshold counts as zero risk.
pub const SIGMA_ZERO: f64 = 1e-9;

/// Minimum relative headroom `1 − S` the pre-kernel screen demands in
/// addition to its absolute [`EPS_DEADLINE`] margin (see
/// [`screens_zero_risk`]). Accumulated kernel float error is bounded by a
/// few hundred ulps of the time scale; a relative margin of 1e-9 leaves
/// four orders of magnitude of slack above that.
pub const SCREEN_HEADROOM: f64 = 1e-9;

/// Scheduler-visible view of one resident job used for projection.
#[derive(Clone, Copy, Debug)]
pub struct ProjectedJob {
    /// Remaining *estimated* work, reference-seconds (> 0).
    pub remaining_est: f64,
    /// Absolute deadline, seconds on the simulation clock.
    pub abs_deadline: f64,
}

/// How node capacity is shared among resident jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShareDiscipline {
    /// Each job runs at exactly its required share when the node is not
    /// overloaded (`rate = s_i / max(S, 1)`); leftover capacity idles.
    /// This is Libra's published allocation.
    Strict,
    /// Leftover capacity is redistributed proportionally
    /// (`rate = s_i / S`), so under-loaded nodes finish jobs early.
    WorkConserving,
}

/// A node's projected deadline-delay summary — the **risk contribution**
/// admission layers cache per node and aggregate cluster-wide.
///
/// Stores the raw moments of the node's deadline-delay values (`Σdd`,
/// `Σdd²`, count) alongside the derived `(μ_j, σ_j)` pair. The derived
/// values are computed with exactly the same operations, in the same
/// order, as [`risk`] — so a cached summary reproduces the from-scratch
/// `(μ, σ)` bitwise, and two summaries can be compared for exact
/// equality in differential tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RiskSummary {
    /// Number of projected jobs the summary covers.
    pub count: usize,
    /// Sum of the deadline-delay values (Eq. 4), in projection order.
    pub dd_sum: f64,
    /// Sum of squared deadline-delay values, in projection order.
    pub dd_sq_sum: f64,
    /// Eq. 5: mean deadline-delay `μ_j` (1.0 for an empty node).
    pub mu: f64,
    /// Eq. 6: the risk `σ_j` (population standard deviation; 0.0 when
    /// empty).
    pub sigma: f64,
}

impl RiskSummary {
    /// The empty-node summary: no jobs, no risk — matches
    /// `risk(&[]) == (1.0, 0.0)`.
    pub const EMPTY: RiskSummary = RiskSummary {
        count: 0,
        dd_sum: 0.0,
        dd_sq_sum: 0.0,
        mu: 1.0,
        sigma: 0.0,
    };

    /// Sentinel for a node whose projection was cut short because its
    /// risk was *certified* nonzero mid-run (see
    /// [`ProjectionWorkspace::node_risk_verdict_prefixed`]): `σ = +∞`
    /// fails every zero-risk test and `μ = +∞` fails every unit-mean
    /// test, so the sentinel decides exactly like the exact summary
    /// would — the raw moments are deliberately infinite too, so any
    /// accidental aggregate consumer surfaces immediately instead of
    /// silently absorbing partial sums.
    pub const PROVABLY_RISKY: RiskSummary = RiskSummary {
        count: 0,
        dd_sum: f64::INFINITY,
        dd_sq_sum: f64::INFINITY,
        mu: f64::INFINITY,
        sigma: f64::INFINITY,
    };

    /// Builds the summary from deadline-delay values with the identical
    /// float operations [`risk`] performs (left-to-right sums, then
    /// `sqrt(max(0, Σdd²/n − μ²))`).
    pub fn from_dds(dds: &[f64]) -> RiskSummary {
        if dds.is_empty() {
            return RiskSummary::EMPTY;
        }
        let n = dds.len() as f64;
        let dd_sum = dds.iter().sum::<f64>();
        let dd_sq_sum = dds.iter().map(|d| d * d).sum::<f64>();
        let mu = dd_sum / n;
        let var = dd_sq_sum / n - mu * mu;
        RiskSummary {
            count: dds.len(),
            dd_sum,
            dd_sq_sum,
            mu,
            sigma: var.max(0.0).sqrt(),
        }
    }

    /// `true` when `(μ, σ)` of `self` and `other` match bitwise.
    pub fn bits_eq(&self, other: &RiskSummary) -> bool {
        self.count == other.count
            && self.dd_sum.to_bits() == other.dd_sum.to_bits()
            && self.dd_sq_sum.to_bits() == other.dd_sq_sum.to_bits()
            && self.mu.to_bits() == other.mu.to_bits()
            && self.sigma.to_bits() == other.sigma.to_bits()
    }
}

/// Fills `keys` with the node's **canonical load fingerprint**: the
/// `(abs_deadline, remaining_est)` bit patterns of every resident job,
/// sorted ascending. Returns a length-seeded fx-style hash of the
/// canonical sequence.
///
/// Two nodes with equal canonical keys hold the same multiset of
/// projected jobs, so — at a fixed `(now, speed, discipline, candidate)`
/// — the projection kernel computes the same `(μ_j, σ_j)` for them *up
/// to float summation order*: two permutations of the same multiset can
/// differ in the last ulp, which matters precisely where `σ_j` sits at
/// cancellation-noise scale near the zero-risk threshold. Admission
/// layers therefore rewrite every projection input into canonical order
/// ([`canonicalize_projection`]), making the computed bits a function of
/// the multiset, not of arbitrary resident slot order; the fingerprint
/// lets diagnostics and tests check a cached canonical list against a
/// from-scratch one.
///
/// Deadlines and remaining work are positive finite, so the bit patterns
/// order exactly like the values and the sort needs no float comparator.
pub fn canonical_class_keys(jobs: &[ProjectedJob], keys: &mut Vec<(u64, u64)>) -> u64 {
    keys.clear();
    keys.extend(jobs.iter().map(class_key_bits));
    keys.sort_unstable();
    class_hash(keys.iter().copied(), keys.len())
}

/// A job's canonical sort key: its `(abs_deadline, remaining_est)` bits.
fn class_key_bits(j: &ProjectedJob) -> (u64, u64) {
    (j.abs_deadline.to_bits(), j.remaining_est.to_bits())
}

fn class_hash(keys: impl Iterator<Item = (u64, u64)>, len: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (len as u64);
    for (dl, rem) in keys {
        h = (h.rotate_left(23) ^ dl).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h.rotate_left(23) ^ rem).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// Computes the kernel's *first-segment* shares for a resident job list —
/// `remaining_est.max(EPS_WORK) / (abs_deadline − now).max(EPS_DEADLINE)`
/// per job, in job order — into `shares`, and returns their left-to-right
/// sum: exactly the float operations, in exactly the order, the
/// projection kernel's opening share pass performs.
///
/// Admission layers cache the result per node (valid while the node's
/// epoch — which pins both residents and `now` for occupied nodes —
/// is unchanged) and hand it back via
/// [`ProjectionWorkspace::node_risk_delta_prefixed`], so the shared
/// prefix of every "residents + candidate" evaluation is computed once
/// per node state instead of once per candidate.
pub fn first_segment_shares(jobs: &[ProjectedJob], now: f64, shares: &mut Vec<f64>) -> f64 {
    shares.clear();
    let mut sum = 0.0;
    for j in jobs {
        let rd = (j.abs_deadline - now).max(EPS_DEADLINE);
        let s = j.remaining_est.max(EPS_WORK) / rd;
        shares.push(s);
        sum += s;
    }
    sum
}

/// Rewrites a projection input into **canonical order**: ascending
/// `(abs_deadline, remaining_est)` bit patterns — the same order
/// [`canonical_class_keys`] fingerprints.
///
/// `(μ_j, σ_j)` are symmetric functions of the job multiset, but their
/// floating-point evaluation is not: summation order leaks the node's
/// arbitrary resident slot order (admission history) into the last ulp,
/// which can flip a verdict when `σ_j` sits at cancellation-noise scale
/// near the zero-risk threshold. Canonicalizing before every projection
/// makes the computed bits order-free, so (a) equal-class nodes replay
/// each other's results bit-exactly, and (b) a node's risk verdict no
/// longer depends on the order jobs happened to be admitted in.
///
/// The sort is in-place, unstable and comparator-free (positive finite
/// floats: bit order = value order) — no allocation, so it is safe in
/// the zero-allocation decision path.
pub fn canonicalize_projection(jobs: &mut [ProjectedJob]) {
    jobs.sort_unstable_by_key(class_key_bits);
}

/// Earliest absolute deadline among `jobs` (+∞ for an empty node).
pub fn min_abs_deadline(jobs: &[ProjectedJob]) -> f64 {
    jobs.iter()
        .fold(f64::INFINITY, |m, j| m.min(j.abs_deadline))
}

/// The pre-kernel **dominance screen**: `true` when "this node + the
/// candidate" is *provably* zero-risk — the projection kernel would
/// compute `σ_j = 0.0` and `μ_j = 1.0` bitwise-exactly — so the
/// candidate scan may mark the node suitable without projecting at all.
///
/// The proof obligation, and why each condition is required:
///
/// * **Work-conserving discipline.** Under [`ShareDiscipline::Strict`]
///   each job runs at exactly its share and finishes exactly at its
///   deadline — zero margin, so float fuzz (or the floor distortion
///   below) can push a finish past the deadline. Under work-conserving
///   sharing with total share `S < 1`, every rate is `s_i/S > s_i`,
///   shares are non-increasing across segment refreshes, and every job
///   finishes at least `rd_i·(1 − S)` before its deadline.
/// * **`speed ≥ 1`.** Rates scale by the speed factor; a slower node
///   would invalidate the `rate ≥ share` step of that argument.
/// * **`min_rd·(1 − S_with) ≥ EPS_DEADLINE`** where `min_rd` is the
///   smallest remaining deadline (residents and candidate) and `S_with`
///   the total first-segment share with the candidate added. This keeps
///   every job's finish at least one second clear of its deadline, which
///   in particular means no job is ever *alive* inside the final
///   [`EPS_DEADLINE`] window before its own deadline — the one place the
///   kernel's deadline floor would rewrite `rem/rd` as `rem/1.0`,
///   destroying the share's deadline urgency and (against a large-share
///   co-resident) potentially making the job genuinely late. `S ≤ 1`
///   alone is *not* sufficient; the margin is what rules the floor out.
/// * **`1 − S_with ≥ SCREEN_HEADROOM`.** The absolute margin is asserted
///   about real-number dynamics; a relative headroom far above the
///   kernel's accumulated float error makes the float finishes land on
///   the same side of the deadline.
///
/// When every projected finish beats its deadline, each
/// `delay = max(f − dl, 0)` is exactly `0.0`, each deadline-delay is
/// `rd/rd = 1.0` exactly, and Eq. 5/6 give `μ = 1.0`, `σ = 0.0` in exact
/// float arithmetic — so the screen agrees with the kernel *bitwise*,
/// for the paper policy and for the `require_unit_mu` and
/// `naive_projection` ablations alike (the single-segment projection
/// obeys the same `finish ≤ dl − rd(1−S)` bound).
pub fn screens_zero_risk(
    discipline: ShareDiscipline,
    speed_factor: f64,
    resident_share_sum: f64,
    min_resident_deadline: f64,
    candidate: ProjectedJob,
    now: f64,
) -> bool {
    if !matches!(discipline, ShareDiscipline::WorkConserving) || speed_factor < 1.0 {
        return false;
    }
    let cand_rd = (candidate.abs_deadline - now).max(EPS_DEADLINE);
    let s_with = resident_share_sum + candidate.remaining_est.max(EPS_WORK) / cand_rd;
    let headroom = 1.0 - s_with;
    let min_rd = min_resident_deadline.min(candidate.abs_deadline) - now;
    // NaN anywhere fails every comparison → conservative `false`.
    headroom >= SCREEN_HEADROOM && min_rd.is_finite() && min_rd * headroom >= EPS_DEADLINE
}

/// Magnitude guard of [`screens_risky`]: `|now|`, the node's total work
/// and its drain time must stay within 2³⁰ (seconds, or
/// reference-seconds of work — about 34 years), and the speed factor
/// too. Under it an ulp of any time or work value the kernel touches is
/// at most 2⁻²², far below [`EPS_WORK`].
pub const RISK_SCREEN_GUARD: f64 = 1_073_741_824.0;

/// The pre-kernel **risk screen**, the mirror image of
/// [`screens_zero_risk`]: `true` when "`residents` + `candidate`" is
/// *provably* risky — the projection kernel would compute
/// `σ_j ≥ SIGMA_ZERO` — so the candidate scan may mark the node
/// unsuitable without projecting. The rule ignores resident order.
///
/// **Bounds.** With `rem_k = max(remaining_est, EPS_WORK)` and `dd_k(f)`
/// the Eq. 4 value of a finish `f` (computed as the kernel's summary
/// does, with `rd_k = max(dl_k − now, EPS_DEADLINE)`):
///
/// * *No job outruns its node.* A kernel rate is `share / Σshares ·
///   speed`, and a float sum of non-negative terms is at least each
///   term, so every rate is at most `speed`, bitwise. Job `k` cannot
///   finish before `now + rem_k/speed`: `lb_k = dd_k(now + rem_k/speed)`.
/// * *A work-conserving node drains by `T = now + Σrem/speed`*: its
///   rates sum to `speed` while any job is alive. `ub_k = dd_k(T)`.
///
/// `dd_k` is non-decreasing in the finish, so `lb_k ≤ dd_k ≤ ub_k`.
/// `ub_k` decreases in `dl_k`, so the smallest `ub` is the latest
/// deadline's and the largest (`D` below) the earliest deadline's: one
/// pass over the jobs suffices. If `max lb − min ub ≥ g`, the two
/// extremes are distinct jobs (one job has `lb ≤ ub`) whose
/// deadline-delays differ by at least `g`, so, as at
/// [`VERDICT_BAIL_GAP`], the population variance is at least `g²/(2n)`.
///
/// **Float allowance.** The bounds hold for real-number dynamics; the
/// kernel runs a float trajectory. With `u = 2⁻⁵³`, `M = max(|now|, |T|)`
/// and at most `2n` segments (see the guard below): each segment rounds
/// `t` by at most `u·M` and each remaining work by at most `2u·rem_k`; a
/// finishing job may leave up to `EPS_WORK` unserved; the rates sum to
/// `speed·(1 ± (n+2)u)`. Every float finish therefore lies within
/// `slack = EPS_WORK/speed + 32(n+2)·u·(M+1)` of its real bound (the
/// count is about `10n + 16` ulps of `M`; 32 leaves a 3× margin). Since
/// `rd ≥ EPS_DEADLINE = 1`, a deadline-delay moves no more than its
/// finish, and evaluating one (in the kernel or here) adds at most
/// `3.1u·D`. Finally the kernel's σ comes from its float
/// deadline-delays through Eq. 5/6, whose cancellation costs at most
/// `4(n+2)u·D²` of variance, with `D = max ub + slack` bounding every
/// deadline-delay. The screen fires when
///
/// `max lb − min ub ≥ VERDICT_BAIL_GAP + 2·slack + 16u·D + D·√(16n(n+2)u)`.
///
/// The kernel's deadline-delays then differ by `g ≥ VERDICT_BAIL_GAP +
/// D·√(16n(n+2)u)`, so its computed variance is at least
/// `g²/(2n) − 4(n+2)u·D² ≥ VERDICT_BAIL_GAP²/(2n) ≥ 1.2e-14` for
/// `n ≤ VERDICT_BAIL_MAX_JOBS` — far above `SIGMA_ZERO² = 1e-18`. The
/// node is unsuitable under every decision variant, as the full
/// projection (or a verdict kernel that bails first) would conclude.
///
/// **Preconditions**, each needed by the argument:
///
/// * [`ShareDiscipline::WorkConserving`]: under `Strict` an under-loaded
///   node idles, so `T` bounds nothing.
/// * A finite `speed` in `(0, RISK_SCREEN_GUARD]`: the rate bound, and a
///   normal-range `dt ≥ EPS_WORK/speed`.
/// * `2 ≤ n ≤ VERDICT_BAIL_MAX_JOBS`, counting the candidate: a lone
///   job's σ is exactly zero, and the variance floor needs the cap.
/// * Finite deadlines, and `|now|`, `Σrem` and `T` within
///   [`RISK_SCREEN_GUARD`]. Under this guard every kernel segment
///   retires a completion or a deadline crossing, so the kernel ends
///   within `n + n ≤ 2n < 2n + 8` segments and never takes its fuzz
///   fallback, which would pin survivors to a finish before their `lb`:
///   - `dt` is finite and positive: the largest share has rate at least
///     `speed/(n+1)`, so its completion candidate is finite, and every
///     candidate is positive;
///   - if job `c`'s completion ends the segment, `dt = rem_c/r_c`
///     rounded, and `rem_c − r_c·dt` leaves at most `2.2u·rem_c ≤
///     2.2u·Σrem < EPS_WORK`, so `c` completes;
///   - if job `c`'s deadline ends it, `t + (dl_c − t)` rounded lands
///     within `3.1u·M < EPS_WORK` of `dl_c` (which is at most `T` plus
///     slack, or it would not be the first event), so `c` is past its
///     deadline for the rest of the run.
///
/// NaN or infinite inputs fail a guard: the screen then declines.
pub fn screens_risky(
    discipline: ShareDiscipline,
    speed_factor: f64,
    residents: impl ExactSizeIterator<Item = ProjectedJob>,
    candidate: ProjectedJob,
    now: f64,
) -> bool {
    let n = residents.len() + 1;
    // Written so that a NaN anywhere fails a comparison and declines.
    let admissible = matches!(discipline, ShareDiscipline::WorkConserving)
        && speed_factor > 0.0
        && speed_factor <= RISK_SCREEN_GUARD
        && (2..=VERDICT_BAIL_MAX_JOBS).contains(&n)
        && now.abs() <= RISK_SCREEN_GUARD;
    if !admissible {
        return false;
    }
    let mut work = 0.0;
    let mut max_lb = f64::NEG_INFINITY;
    let mut min_dl = f64::INFINITY;
    let mut max_dl = f64::NEG_INFINITY;
    for j in residents.chain(std::iter::once(candidate)) {
        let (rem, dl) = (j.remaining_est.max(EPS_WORK), j.abs_deadline);
        if !dl.is_finite() {
            return false;
        }
        work += rem;
        let lb = deadline_delay((now + rem / speed_factor - dl).max(0.0), dl, now);
        if lb > max_lb {
            max_lb = lb;
        }
        min_dl = min_dl.min(dl);
        max_dl = max_dl.max(dl);
    }
    let t_end = now + work / speed_factor;
    let bounded = work <= RISK_SCREEN_GUARD && t_end <= RISK_SCREEN_GUARD;
    if !bounded {
        return false;
    }
    let min_ub = deadline_delay((t_end - max_dl).max(0.0), max_dl, now);
    let max_ub = deadline_delay((t_end - min_dl).max(0.0), min_dl, now);
    let u = f64::EPSILON / 2.0;
    let nf = n as f64;
    let slack =
        EPS_WORK / speed_factor + 32.0 * (nf + 2.0) * u * (t_end.abs().max(now.abs()) + 1.0);
    let d = max_ub + slack;
    let allowance = 2.0 * slack + 16.0 * u * d + d * (16.0 * nf * (nf + 2.0) * u).sqrt();
    max_lb - min_ub >= VERDICT_BAIL_GAP + allowance
}

/// Caller-owned scratch buffers for the projection kernel.
///
/// [`project_finishes`] and [`node_risk`] allocate several vectors per
/// call — per *segment*, even, in the original formulation — which
/// dominates the admission hot path where the same projection runs for
/// every candidate node of every arriving job. A `ProjectionWorkspace`
/// owns all of that scratch: after the first call at a given node size
/// every subsequent call is allocation-free (buffers are `clear()`ed and
/// refilled, capacity is retained).
///
/// All workspace entry points are *bitwise identical* to their
/// allocating counterparts: same floating-point operations in the same
/// order. The differential property tests in `tests/proptest_engine.rs`
/// pin that equivalence.
#[derive(Clone, Debug, Default)]
pub struct ProjectionWorkspace {
    /// Staging buffer for callers assembling a job list (see [`Self::stage`]).
    jobs: Vec<ProjectedJob>,
    rem: Vec<f64>,
    alive: Vec<bool>,
    shares: Vec<f64>,
    rates: Vec<f64>,
    finish: Vec<f64>,
    dds: Vec<f64>,
}

/// Fused Eq. 3 + Eq. 4 + Eq. 5/6: derives the node's [`RiskSummary`]
/// from projected finishes. Same per-element operations, in the same
/// order, as `delays_from_finishes` → `deadline_delay` → [`risk`].
fn summarize_into(
    jobs: &[ProjectedJob],
    finish: &[f64],
    now: f64,
    dds: &mut Vec<f64>,
) -> RiskSummary {
    dds.clear();
    for (j, &f) in jobs.iter().zip(finish.iter()) {
        let delay = (f - j.abs_deadline).max(0.0);
        let rd = (j.abs_deadline - now).max(EPS_DEADLINE);
        dds.push((delay + rd) / rd);
    }
    RiskSummary::from_dds(dds)
}

impl ProjectionWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and returns the staging buffer, for callers that need to
    /// assemble a job list without allocating one. Fill it, then call
    /// [`Self::node_risk_staged`] (or [`Self::staged_finishes_into`]).
    pub fn stage(&mut self) -> &mut Vec<ProjectedJob> {
        self.jobs.clear();
        &mut self.jobs
    }

    /// The currently staged jobs (what [`Self::stage`] was filled with).
    pub fn staged(&self) -> &[ProjectedJob] {
        &self.jobs
    }

    /// [`project_finishes`] into a caller-owned output buffer, reusing
    /// this workspace's scratch. `finish` is cleared and refilled; no
    /// heap allocation happens once buffers have warmed up to the node
    /// size.
    pub fn project_finishes_into(
        &mut self,
        jobs: &[ProjectedJob],
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
        finish: &mut Vec<f64>,
    ) {
        projection_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            None,
            &mut self.rem,
            &mut self.alive,
            &mut self.shares,
            &mut self.rates,
            finish,
        );
    }

    /// [`node_risk`] without allocation: projects finishes and derives
    /// `(μ_j, σ_j)` entirely inside this workspace's buffers.
    pub fn node_risk_with(
        &mut self,
        jobs: &[ProjectedJob],
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> (f64, f64) {
        let s = self.node_risk_summary_with(jobs, now, speed_factor, discipline);
        (s.mu, s.sigma)
    }

    /// [`Self::node_risk_with`] returning the full [`RiskSummary`]
    /// (raw deadline-delay moments plus the derived `(μ, σ)`).
    pub fn node_risk_summary_with(
        &mut self,
        jobs: &[ProjectedJob],
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> RiskSummary {
        let Self {
            rem,
            alive,
            shares,
            rates,
            finish,
            dds,
            ..
        } = self;
        projection_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            None,
            rem,
            alive,
            shares,
            rates,
            finish,
        );
        summarize_into(jobs, finish, now, dds)
    }

    /// [`Self::node_risk_with`] over the staged job list.
    pub fn node_risk_staged(
        &mut self,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> (f64, f64) {
        let s = self.node_risk_summary_staged(now, speed_factor, discipline);
        (s.mu, s.sigma)
    }

    /// [`Self::node_risk_staged`] returning the full [`RiskSummary`].
    pub fn node_risk_summary_staged(
        &mut self,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> RiskSummary {
        let Self {
            jobs,
            rem,
            alive,
            shares,
            rates,
            finish,
            dds,
        } = self;
        projection_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            None,
            rem,
            alive,
            shares,
            rates,
            finish,
        );
        summarize_into(jobs, finish, now, dds)
    }

    /// Delta-projection entry point for the admission hot path: evaluates
    /// "node `base` + one hypothetical job" in a single call, warm-starting
    /// from a node's cached base projection input instead of making the
    /// caller re-assemble a job list.
    ///
    /// `base` is the node's resident projection input (what decision
    /// layers cache per node against the engine's epoch counter); `extra`
    /// is the tentative candidate, appended last — the same order
    /// `ProportionalCluster::node_projection(node, Some(job))` produces,
    /// so the result is bitwise identical to the from-scratch path.
    pub fn node_risk_delta(
        &mut self,
        base: &[ProjectedJob],
        extra: ProjectedJob,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> RiskSummary {
        let stage = self.stage();
        stage.extend_from_slice(base);
        stage.push(extra);
        self.node_risk_summary_staged(now, speed_factor, discipline)
    }

    /// [`Self::node_risk_delta`] with a **shared-prefix warm start**: the
    /// caller supplies the base jobs' first-segment shares and their
    /// left-to-right sum (from [`first_segment_shares`], computed once
    /// per node state), and the kernel's opening share pass runs only
    /// for the appended candidate. Bitwise identical to the cold path —
    /// the cached prefix replays the same float values and the same
    /// summation order.
    #[allow(clippy::too_many_arguments)]
    pub fn node_risk_delta_prefixed(
        &mut self,
        base: &[ProjectedJob],
        base_shares: &[f64],
        base_share_sum: f64,
        extra: ProjectedJob,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> RiskSummary {
        debug_assert_eq!(base.len(), base_shares.len());
        let stage = self.stage();
        stage.extend_from_slice(base);
        stage.push(extra);
        let Self {
            jobs,
            rem,
            alive,
            shares,
            rates,
            finish,
            dds,
        } = self;
        projection_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            Some((base_shares, base_share_sum)),
            rem,
            alive,
            shares,
            rates,
            finish,
        );
        summarize_into(jobs, finish, now, dds)
    }

    /// [`Self::node_risk_delta_prefixed`] for the admission *verdict*
    /// path: returns `None` as soon as the partial projection certifies
    /// the node risky (σ provably far above [`SIGMA_ZERO`] — see
    /// [`VERDICT_BAIL_GAP`] for the bound), and the exact summary
    /// otherwise. `None` and the exact summary produce the same
    /// admission verdict under every decision variant, so callers that
    /// only consume the verdict (not the raw moments) may use this
    /// interchangeably with the exact entry point; overloaded nodes —
    /// precisely the expensive projections — usually certify within the
    /// first few segments instead of simulating their whole timeline.
    #[allow(clippy::too_many_arguments)]
    pub fn node_risk_verdict_prefixed(
        &mut self,
        base: &[ProjectedJob],
        base_shares: &[f64],
        base_share_sum: f64,
        extra: ProjectedJob,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> Option<RiskSummary> {
        debug_assert_eq!(base.len(), base_shares.len());
        let stage = self.stage();
        stage.extend_from_slice(base);
        stage.push(extra);
        let Self {
            jobs,
            rem,
            alive,
            shares,
            rates,
            finish,
            dds,
        } = self;
        let bailed = projection_verdict_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            Some((base_shares, base_share_sum)),
            rem,
            alive,
            shares,
            rates,
            finish,
        );
        if bailed {
            None
        } else {
            Some(summarize_into(jobs, finish, now, dds))
        }
    }

    /// [`Self::node_risk_summary_with`] with every first-segment share
    /// precomputed (the resident-only evaluation admission layers cache
    /// per node): the kernel skips its whole opening share pass.
    pub fn node_risk_summary_prefixed(
        &mut self,
        jobs: &[ProjectedJob],
        first_shares: &[f64],
        share_sum: f64,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
    ) -> RiskSummary {
        debug_assert_eq!(jobs.len(), first_shares.len());
        let Self {
            rem,
            alive,
            shares,
            rates,
            finish,
            dds,
            ..
        } = self;
        projection_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            Some((first_shares, share_sum)),
            rem,
            alive,
            shares,
            rates,
            finish,
        );
        summarize_into(jobs, finish, now, dds)
    }

    /// [`Self::project_finishes_into`] over the staged job list.
    pub fn staged_finishes_into(
        &mut self,
        now: f64,
        speed_factor: f64,
        discipline: ShareDiscipline,
        finish: &mut Vec<f64>,
    ) {
        let Self {
            jobs,
            rem,
            alive,
            shares,
            rates,
            ..
        } = self;
        projection_kernel(
            jobs,
            now,
            speed_factor,
            discipline,
            None,
            rem,
            alive,
            shares,
            rates,
            finish,
        );
    }
}

/// The piecewise-constant-rate projection over caller-owned buffers.
///
/// Scratch buffers (`rem`, `alive`, `shares`) and the output (`finish`)
/// are cleared and refilled; their capacity is reused across calls.
///
/// `warm` optionally carries precomputed first-segment shares for a
/// *prefix* of `jobs` together with their left-to-right sum (what
/// [`first_segment_shares`] produced for the same prefix at the same
/// `now`): the opening share pass then starts from the cached sum and
/// computes shares only for the suffix — the same float operations in
/// the same order, so the warm start is bitwise-neutral.
#[allow(clippy::too_many_arguments)]
fn projection_kernel(
    jobs: &[ProjectedJob],
    now: f64,
    speed_factor: f64,
    discipline: ShareDiscipline,
    warm: Option<(&[f64], f64)>,
    rem: &mut Vec<f64>,
    alive: &mut Vec<bool>,
    shares: &mut Vec<f64>,
    rates: &mut Vec<f64>,
    finish: &mut Vec<f64>,
) {
    assert!(speed_factor > 0.0);
    let n = jobs.len();
    finish.clear();
    finish.resize(n, 0.0);
    if n == 0 {
        return;
    }
    rem.clear();
    rem.extend(jobs.iter().map(|j| j.remaining_est.max(EPS_WORK)));
    alive.clear();
    alive.resize(n, true);
    // Sized once: dead entries keep stale values, which no loop below
    // reads (every access is `alive`-guarded), so hoisting the clears
    // out of the segment loop is bitwise-neutral.
    shares.clear();
    shares.resize(n, 0.0);
    rates.clear();
    rates.resize(n, 0.0);
    let (jobs, rem) = (&jobs[..n], &mut rem[..n]);
    let (alive, shares, rates) = (&mut alive[..n], &mut shares[..n], &mut rates[..n]);
    let strict = matches!(discipline, ShareDiscipline::Strict);
    let mut alive_count = n;
    let mut t = now;
    // Shares for the first segment; later segments refresh theirs inside
    // the advance pass below (the advance already walks the same indices
    // in the same order, so folding the share refresh in saves a whole
    // pass per segment without reordering any float op). A warm prefix
    // replays its cached shares and running sum instead of recomputing.
    let mut total_share = 0.0;
    let mut first = 0;
    if let Some((pre, pre_sum)) = warm {
        debug_assert!(pre.len() <= n, "warm prefix longer than the job list");
        first = pre.len().min(n);
        shares[..first].copy_from_slice(&pre[..first]);
        total_share = pre_sum;
    }
    for i in first..n {
        let rd = (jobs[i].abs_deadline - t).max(EPS_DEADLINE);
        shares[i] = rem[i] / rd;
        total_share += shares[i];
    }
    // Each job contributes at most one completion and one deadline
    // crossing; the +8 absorbs float-fuzz re-loops.
    let max_steps = 2 * n + 8;
    for _ in 0..max_steps {
        if alive_count == 0 {
            break;
        }
        let denom = if strict {
            total_share.max(1.0)
        } else {
            total_share
        };
        // Rates are fixed per segment; the segment length is the first
        // completion or first deadline crossing. One fused pass: each
        // rate is computed once and fed into the running `dt` minimum in
        // the same ascending-index order the split loops used, so every
        // comparison sees identical values. The minimum is a plain `<`
        // fold rather than `f64::min`: candidates are never NaN (positive
        // work over a positive rate, or a deadline gap above `EPS_WORK`),
        // and even a NaN would be ignored by both forms alike, so the
        // fold is bitwise the same without `min`'s NaN handling on the
        // dependency chain.
        let mut dt = f64::INFINITY;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let r = shares[i] / denom * speed_factor;
            rates[i] = r;
            // A share can underflow to zero (tiny remaining work against
            // an astronomically inflated co-resident share); such a job
            // contributes no completion candidate — `min(x, ∞)` is `x`,
            // so skipping is bitwise-neutral when rates are positive.
            if r > 0.0 {
                let x = rem[i] / r;
                if x < dt {
                    dt = x;
                }
            }
            let to_deadline = jobs[i].abs_deadline - t;
            if to_deadline > EPS_WORK && to_deadline < dt {
                dt = to_deadline;
            }
        }
        if !(dt.is_finite() && dt > 0.0) {
            // Every surviving job is rate-starved with no deadline
            // crossing ahead: nothing will ever complete. Stop and let
            // the fallback below pin survivors at the current time.
            break;
        }
        // Advance the segment, refreshing each survivor's share for the
        // next segment in the same ascending-index walk: the share values
        // and the `total_share` summation order are exactly those the
        // standalone share pass produced.
        let t_next = t + dt;
        total_share = 0.0;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            rem[i] -= rates[i] * dt;
            if rem[i] <= EPS_WORK {
                alive[i] = false;
                alive_count -= 1;
                finish[i] = t_next;
            } else {
                let rd = (jobs[i].abs_deadline - t_next).max(EPS_DEADLINE);
                shares[i] = rem[i] / rd;
                total_share += shares[i];
            }
        }
        t = t_next;
    }
    // Pathological fuzz fallback: finish whatever survived "now".
    for i in 0..n {
        if alive[i] {
            finish[i] = t;
        }
    }
}

/// Minimum separation between two projected deadline-delay values that
/// certifies `σ_j` nonzero without finishing the projection.
///
/// Soundness: a population of `n` values containing two entries that
/// differ by `g` has variance at least `g²/(2n)` (both entries deviate
/// from any mean by a combined squared distance of `g²/2`), so
/// `σ ≥ g/√(2n)`. With `g = 1e-5` and `n ≤` [`VERDICT_BAIL_MAX_JOBS`],
/// that floor is `≥ 1.1e-7` — two orders of magnitude above
/// [`SIGMA_ZERO`] — and it holds for the *reference* kernel's σ as well:
/// the deadline-delays the bail-out compares are bitwise the values the
/// full run would feed into [`RiskSummary::from_dds`] (the early exit
/// changes which operations are skipped, never the ones performed), and
/// the reference's computed σ can undercut the mathematical floor only
/// by summation-cancellation noise of a few ulp of 1.0 (~1e-15 in the
/// variance), far below `g²/(2n) ≥ 1.2e-14`. A certified-risky node is
/// therefore unsuitable under every decision variant, exactly as the
/// finished projection would have concluded.
pub const VERDICT_BAIL_GAP: f64 = 1e-5;

/// Job-count ceiling for the early bail-out: past this, the
/// `g²/(2n)` variance floor approaches summation-noise scale, so the
/// kernel just runs to completion (exactness over speed).
pub const VERDICT_BAIL_MAX_JOBS: usize = 4096;

/// [`projection_kernel`] specialised for admission *verdicts*: identical
/// float work in identical order, but it stops — returning `true` — as
/// soon as the partial projection certifies `σ_j ≥` a sound floor far
/// above [`SIGMA_ZERO`] (see [`VERDICT_BAIL_GAP`]). Two separation
/// witnesses are tracked on the way:
///
/// - a *finished* job's deadline-delay is exact (its remaining segments
///   cannot move a finish time already emitted), and
/// - a job still alive past its deadline has `dd ≥ (t − dl + rd)/rd`
///   (its finish can only be later than the current segment start).
///
/// A positive gap between the smallest exact delay and the largest
/// lower bound always involves two distinct jobs (any one job's bound
/// never exceeds its own exact value), which is what the variance floor
/// needs. Returns `false` when the projection ran to completion, in
/// which case `finish` holds exactly what [`projection_kernel`] would
/// have produced.
#[allow(clippy::too_many_arguments)]
fn projection_verdict_kernel(
    jobs: &[ProjectedJob],
    now: f64,
    speed_factor: f64,
    discipline: ShareDiscipline,
    warm: Option<(&[f64], f64)>,
    rem: &mut Vec<f64>,
    alive: &mut Vec<bool>,
    shares: &mut Vec<f64>,
    rates: &mut Vec<f64>,
    finish: &mut Vec<f64>,
) -> bool {
    assert!(speed_factor > 0.0);
    let n = jobs.len();
    finish.clear();
    finish.resize(n, 0.0);
    if n == 0 {
        return false;
    }
    rem.clear();
    rem.extend(jobs.iter().map(|j| j.remaining_est.max(EPS_WORK)));
    alive.clear();
    alive.resize(n, true);
    shares.clear();
    shares.resize(n, 0.0);
    rates.clear();
    rates.resize(n, 0.0);
    let (jobs, rem) = (&jobs[..n], &mut rem[..n]);
    let (alive, shares, rates) = (&mut alive[..n], &mut shares[..n], &mut rates[..n]);
    let strict = matches!(discipline, ShareDiscipline::Strict);
    let bail = n <= VERDICT_BAIL_MAX_JOBS;
    // Smallest exact deadline-delay among finished jobs / largest lower
    // bound over any job's eventual delay.
    let mut min_fin = f64::INFINITY;
    let mut max_low = f64::NEG_INFINITY;
    let mut alive_count = n;
    let mut t = now;
    let mut total_share = 0.0;
    let mut first = 0;
    if let Some((pre, pre_sum)) = warm {
        debug_assert!(pre.len() <= n, "warm prefix longer than the job list");
        first = pre.len().min(n);
        shares[..first].copy_from_slice(&pre[..first]);
        total_share = pre_sum;
    }
    for i in first..n {
        let rd = (jobs[i].abs_deadline - t).max(EPS_DEADLINE);
        shares[i] = rem[i] / rd;
        total_share += shares[i];
    }
    let max_steps = 2 * n + 8;
    for _ in 0..max_steps {
        if alive_count == 0 {
            break;
        }
        let denom = if strict {
            total_share.max(1.0)
        } else {
            total_share
        };
        let mut dt = f64::INFINITY;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let r = shares[i] / denom * speed_factor;
            rates[i] = r;
            if r > 0.0 {
                let x = rem[i] / r;
                if x < dt {
                    dt = x;
                }
            }
            let to_deadline = jobs[i].abs_deadline - t;
            if to_deadline > EPS_WORK {
                if to_deadline < dt {
                    dt = to_deadline;
                }
            } else if bail && min_fin.is_finite() {
                // Alive past its deadline: finish ≥ t, so its eventual
                // dd is at least this (rd measured from `now`, exactly
                // as `summarize_into` will measure it).
                let rd = (jobs[i].abs_deadline - now).max(EPS_DEADLINE);
                let lb = ((t - jobs[i].abs_deadline).max(0.0) + rd) / rd;
                if lb > max_low {
                    max_low = lb;
                    if max_low - min_fin >= VERDICT_BAIL_GAP {
                        return true;
                    }
                }
            }
        }
        if !(dt.is_finite() && dt > 0.0) {
            break;
        }
        let t_next = t + dt;
        total_share = 0.0;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            rem[i] -= rates[i] * dt;
            if rem[i] <= EPS_WORK {
                alive[i] = false;
                alive_count -= 1;
                finish[i] = t_next;
                if bail {
                    let rd = (jobs[i].abs_deadline - now).max(EPS_DEADLINE);
                    let delay = (t_next - jobs[i].abs_deadline).max(0.0);
                    let dd = (delay + rd) / rd;
                    if dd < min_fin {
                        min_fin = dd;
                    }
                    if dd > max_low {
                        max_low = dd;
                    }
                    if max_low - min_fin >= VERDICT_BAIL_GAP {
                        return true;
                    }
                }
            } else {
                let rd = (jobs[i].abs_deadline - t_next).max(EPS_DEADLINE);
                shares[i] = rem[i] / rd;
                total_share += shares[i];
            }
        }
        t = t_next;
    }
    for i in 0..n {
        if alive[i] {
            finish[i] = t;
        }
    }
    false
}

/// Projects the absolute finish time of every job on one node of the
/// given speed factor, starting from `now`.
///
/// The projection replays the engine's piecewise-constant-rate dynamics:
/// shares are recomputed at every projected completion and at every
/// deadline crossing, matching `proportional::ProportionalCluster`.
///
/// Returns one absolute finish time per input job (same order).
///
/// This is the allocating convenience wrapper; hot paths should hold a
/// [`ProjectionWorkspace`] and call [`ProjectionWorkspace::project_finishes_into`].
pub fn project_finishes(
    jobs: &[ProjectedJob],
    now: f64,
    speed_factor: f64,
    discipline: ShareDiscipline,
) -> Vec<f64> {
    let mut finish = Vec::new();
    let mut ws = ProjectionWorkspace::new();
    ws.project_finishes_into(jobs, now, speed_factor, discipline, &mut finish);
    finish
}

/// Naive single-segment projection (ablation): freeze the initial rates
/// forever instead of recomputing at projected completions and deadline
/// crossings.
///
/// Under this simplification an overloaded node (total share `S > 1`)
/// projects *every* job to finish at `S × remaining_deadline` — all
/// deadline-delays equal `S`, so `σ_j = 0` **always** and the risk test
/// degenerates to "accept whenever enough processors exist". The
/// piecewise projection ([`project_finishes`]) is what lets Eq. 6
/// distinguish certain delay from dispersed delay; this function exists
/// to measure exactly how much that matters (see the
/// `LibraRisk-NaiveProj` ablation).
pub fn project_finishes_single_segment(
    jobs: &[ProjectedJob],
    now: f64,
    speed_factor: f64,
    discipline: ShareDiscipline,
) -> Vec<f64> {
    assert!(speed_factor > 0.0);
    if jobs.is_empty() {
        return Vec::new();
    }
    let mut total_share = 0.0;
    let shares: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let rd = (j.abs_deadline - now).max(EPS_DEADLINE);
            let s = j.remaining_est.max(EPS_WORK) / rd;
            total_share += s;
            s
        })
        .collect();
    let denom = match discipline {
        ShareDiscipline::Strict => total_share.max(1.0),
        ShareDiscipline::WorkConserving => total_share,
    };
    jobs.iter()
        .zip(&shares)
        .map(|(j, &s)| {
            let rate = s / denom * speed_factor;
            now + j.remaining_est.max(EPS_WORK) / rate
        })
        .collect()
}

/// [`node_risk`] computed with the naive single-segment projection.
pub fn node_risk_single_segment(
    jobs: &[ProjectedJob],
    now: f64,
    speed_factor: f64,
    discipline: ShareDiscipline,
) -> (f64, f64) {
    let finishes = project_finishes_single_segment(jobs, now, speed_factor, discipline);
    let delays = delays_from_finishes(jobs, &finishes);
    let dds: Vec<f64> = jobs
        .iter()
        .zip(&delays)
        .map(|(j, &d)| deadline_delay(d, j.abs_deadline, now))
        .collect();
    risk(&dds)
}

/// Eq. 3: projected delay of each job, `max(0, finish − abs_deadline)`.
pub fn delays_from_finishes(jobs: &[ProjectedJob], finishes: &[f64]) -> Vec<f64> {
    jobs.iter()
        .zip(finishes)
        .map(|(j, &f)| (f - j.abs_deadline).max(0.0))
        .collect()
}

/// Eq. 4: the deadline-delay metric
/// `(delay_i + remaining_deadline_i) / remaining_deadline_i`, evaluated at
/// `now`; the remaining deadline is floored at [`EPS_DEADLINE`].
pub fn deadline_delay(delay: f64, abs_deadline: f64, now: f64) -> f64 {
    let rd = (abs_deadline - now).max(EPS_DEADLINE);
    (delay + rd) / rd
}

/// Eq. 5 and Eq. 6: mean `μ_j` and risk `σ_j` (population standard
/// deviation) of a node's deadline-delay values. Returns `(μ, σ)`;
/// an empty node has `(1, 0)` — no jobs, no risk.
pub fn risk(dds: &[f64]) -> (f64, f64) {
    if dds.is_empty() {
        return (1.0, 0.0);
    }
    let n = dds.len() as f64;
    let mu = dds.iter().sum::<f64>() / n;
    let var = dds.iter().map(|d| d * d).sum::<f64>() / n - mu * mu;
    (mu, var.max(0.0).sqrt())
}

/// Full per-node risk evaluation: projects finishes, derives delays and
/// deadline-delays, returns `(μ_j, σ_j)`.
///
/// ```
/// use cluster::projection::{node_risk, ProjectedJob, ShareDiscipline};
///
/// // Two feasible jobs: everything meets its deadline, so no risk.
/// let calm = [
///     ProjectedJob { remaining_est: 50.0, abs_deadline: 100.0 },
///     ProjectedJob { remaining_est: 50.0, abs_deadline: 200.0 },
/// ];
/// let (mu, sigma) = node_risk(&calm, 0.0, 1.0, ShareDiscipline::WorkConserving);
/// assert!((mu - 1.0).abs() < 1e-9 && sigma < 1e-9);
///
/// // Overload with heterogeneous deadlines: delays disperse → risk.
/// let overloaded = [
///     ProjectedJob { remaining_est: 100.0, abs_deadline: 100.0 },
///     ProjectedJob { remaining_est: 100.0, abs_deadline: 200.0 },
/// ];
/// let (_, sigma) = node_risk(&overloaded, 0.0, 1.0, ShareDiscipline::WorkConserving);
/// assert!(sigma > 1e-9);
/// ```
pub fn node_risk(
    jobs: &[ProjectedJob],
    now: f64,
    speed_factor: f64,
    discipline: ShareDiscipline,
) -> (f64, f64) {
    ProjectionWorkspace::new().node_risk_with(jobs, now, speed_factor, discipline)
}

/// `true` when `sigma` counts as zero risk.
#[inline]
pub fn is_zero_risk(sigma: f64) -> bool {
    sigma < SIGMA_ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pj(remaining_est: f64, abs_deadline: f64) -> ProjectedJob {
        ProjectedJob {
            remaining_est,
            abs_deadline,
        }
    }

    #[test]
    fn empty_node_has_no_risk() {
        let (mu, sigma) = node_risk(&[], 0.0, 1.0, ShareDiscipline::Strict);
        assert_eq!((mu, sigma), (1.0, 0.0));
        assert!(project_finishes(&[], 0.0, 1.0, ShareDiscipline::Strict).is_empty());
    }

    #[test]
    fn feasible_jobs_finish_exactly_at_deadline_under_strict_shares() {
        // Two jobs, total share 0.75 ≤ 1: each runs at its required share
        // and meets its deadline exactly.
        let jobs = [pj(50.0, 100.0), pj(50.0, 200.0)];
        let f = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!((f[0] - 100.0).abs() < 1e-6, "finish {}", f[0]);
        assert!((f[1] - 200.0).abs() < 1e-6, "finish {}", f[1]);
        let (mu, sigma) = node_risk(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!((mu - 1.0).abs() < 1e-9);
        assert!(is_zero_risk(sigma));
    }

    #[test]
    fn work_conserving_finishes_early() {
        let jobs = [pj(50.0, 100.0), pj(50.0, 200.0)];
        // S = 0.75; rates scale to s/S: job 0 rate = (0.5/0.75) = 2/3.
        let f = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::WorkConserving);
        assert!(f[0] < 100.0 - 1e-6);
        assert!(f[1] < 200.0 - 1e-6);
        let (_, sigma) = node_risk(&jobs, 0.0, 1.0, ShareDiscipline::WorkConserving);
        assert!(is_zero_risk(sigma));
    }

    #[test]
    fn overload_with_heterogeneous_deadlines_has_risk() {
        // Total share 1.5: the earlier-deadline job is projected late while
        // the later one recovers after the first completes → dispersion.
        let jobs = [pj(100.0, 100.0), pj(100.0, 200.0)];
        let (mu, sigma) = node_risk(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(mu > 1.0);
        assert!(!is_zero_risk(sigma), "sigma {sigma}");
        let f = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(f[0] > 100.0 + 1.0, "early-deadline job is late: {}", f[0]);
    }

    #[test]
    fn single_infeasible_job_is_certain_hence_zero_risk() {
        // One job whose estimate (300) exceeds its deadline (100): it is
        // projected late, but there is nothing to disperse against, so
        // σ = 0 — the Eq. 6 property LibraRisk exploits.
        let jobs = [pj(300.0, 100.0)];
        let (mu, sigma) = node_risk(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(mu > 1.0, "projected late, mu {mu}");
        assert!(is_zero_risk(sigma), "sigma {sigma}");
    }

    #[test]
    fn projected_finish_respects_speed_factor() {
        let jobs = [pj(100.0, 1000.0)];
        let slow = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::WorkConserving);
        let fast = project_finishes(&jobs, 0.0, 2.0, ShareDiscipline::WorkConserving);
        assert!((slow[0] - 100.0).abs() < 1e-6);
        assert!((fast[0] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn already_late_job_contributes_capped_deadline_delay() {
        // Job whose deadline passed 50 s ago: remaining deadline floors at
        // EPS_DEADLINE, share is huge, and dd is large but finite.
        let jobs = [pj(10.0, -50.0), pj(10.0, 1000.0)];
        let (_, sigma) = node_risk(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(!is_zero_risk(sigma), "a sick node must read as risky");
        let f = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn single_segment_projection_makes_overload_look_certain() {
        // The same overloaded pair that the piecewise projection flags as
        // risky reads as zero-risk under the naive projection: with rates
        // frozen, both jobs finish at S × their remaining deadline and the
        // deadline-delays coincide at S.
        let jobs = [pj(100.0, 100.0), pj(100.0, 200.0)];
        let (mu_naive, sigma_naive) =
            node_risk_single_segment(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(
            (mu_naive - 1.5).abs() < 1e-9,
            "mu {mu_naive} should equal S"
        );
        assert!(is_zero_risk(sigma_naive), "sigma {sigma_naive}");
        let (_, sigma_piecewise) = node_risk(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        assert!(
            !is_zero_risk(sigma_piecewise),
            "piecewise sees the dispersion"
        );
    }

    #[test]
    fn single_segment_agrees_with_piecewise_when_feasible() {
        // No overload, no deadline crossings before completion: the two
        // projections coincide.
        let jobs = [pj(50.0, 100.0), pj(50.0, 200.0)];
        let a = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        let b = project_finishes_single_segment(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
        assert!(project_finishes_single_segment(&[], 0.0, 1.0, ShareDiscipline::Strict).is_empty());
    }

    #[test]
    fn delays_match_eq3() {
        let jobs = [pj(10.0, 100.0), pj(10.0, 5.0)];
        let d = delays_from_finishes(&jobs, &[90.0, 25.0]);
        assert_eq!(d, vec![0.0, 20.0]);
    }

    #[test]
    fn deadline_delay_matches_paper_example() {
        // The paper's §3.2 example: delay 20, remaining deadline 5 → dd 5;
        // same delay with remaining deadline 10 → dd 3.
        assert!((deadline_delay(20.0, 5.0, 0.0) - 5.0).abs() < 1e-12);
        assert!((deadline_delay(20.0, 10.0, 0.0) - 3.0).abs() < 1e-12);
        // Zero delay → the metric's minimum/best value 1.
        assert_eq!(deadline_delay(0.0, 100.0, 0.0), 1.0);
    }

    #[test]
    fn risk_of_identical_dds_is_zero() {
        let (mu, sigma) = risk(&[2.5, 2.5, 2.5]);
        assert_eq!(mu, 2.5);
        assert!(is_zero_risk(sigma));
    }

    #[test]
    fn risk_matches_population_stddev() {
        let (mu, sigma) = risk(&[1.0, 3.0]);
        assert_eq!(mu, 2.0);
        assert!((sigma - 1.0).abs() < 1e-12);
    }

    #[test]
    fn projection_conserves_capacity() {
        // However many jobs, total work cannot complete faster than
        // capacity 1 allows: sum of estimates = 300 → last finish ≥ 300.
        let jobs = [pj(100.0, 50.0), pj(100.0, 60.0), pj(100.0, 70.0)];
        let f = project_finishes(&jobs, 0.0, 1.0, ShareDiscipline::Strict);
        let last = f.iter().cloned().fold(0.0, f64::max);
        assert!(last >= 300.0 - 1e-6, "last finish {last}");
    }

    #[test]
    fn projection_starts_from_now() {
        let jobs = [pj(10.0, 1e9)];
        let f = project_finishes(&jobs, 500.0, 1.0, ShareDiscipline::WorkConserving);
        assert!((f[0] - 510.0).abs() < 1e-6);
    }

    #[test]
    fn workspace_matches_allocating_path_bitwise() {
        let cases: Vec<Vec<ProjectedJob>> = vec![
            vec![],
            vec![pj(300.0, 100.0)],
            vec![pj(50.0, 100.0), pj(50.0, 200.0)],
            vec![pj(100.0, 100.0), pj(100.0, 200.0)],
            vec![pj(10.0, -50.0), pj(10.0, 1000.0)],
            vec![pj(100.0, 50.0), pj(100.0, 60.0), pj(100.0, 70.0)],
        ];
        let mut ws = ProjectionWorkspace::new();
        let mut out = Vec::new();
        for disc in [ShareDiscipline::Strict, ShareDiscipline::WorkConserving] {
            for now in [0.0, 17.25, 1e6] {
                for jobs in &cases {
                    let want = project_finishes(jobs, now, 1.5, disc);
                    ws.project_finishes_into(jobs, now, 1.5, disc, &mut out);
                    assert_eq!(
                        want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "finishes must be bitwise identical"
                    );
                    let (mu_a, sig_a) = node_risk(jobs, now, 1.5, disc);
                    let (mu_b, sig_b) = ws.node_risk_with(jobs, now, 1.5, disc);
                    assert_eq!(mu_a.to_bits(), mu_b.to_bits());
                    assert_eq!(sig_a.to_bits(), sig_b.to_bits());
                }
            }
        }
    }

    #[test]
    fn workspace_reuses_capacity_after_warmup() {
        let jobs = [pj(100.0, 100.0), pj(100.0, 200.0), pj(50.0, 300.0)];
        let mut ws = ProjectionWorkspace::new();
        let mut out = Vec::new();
        ws.project_finishes_into(&jobs, 0.0, 1.0, ShareDiscipline::Strict, &mut out);
        let caps = (ws.rem.capacity(), ws.shares.capacity(), out.capacity());
        for _ in 0..64 {
            ws.project_finishes_into(&jobs, 0.0, 1.0, ShareDiscipline::Strict, &mut out);
        }
        assert_eq!(
            caps,
            (ws.rem.capacity(), ws.shares.capacity(), out.capacity()),
            "warm buffers must not reallocate"
        );
    }

    #[test]
    fn staged_path_matches_slice_path() {
        let jobs = [pj(80.0, 90.0), pj(20.0, 400.0)];
        let mut ws = ProjectionWorkspace::new();
        ws.stage().extend_from_slice(&jobs);
        let staged = ws.node_risk_staged(3.0, 2.0, ShareDiscipline::WorkConserving);
        let direct = node_risk(&jobs, 3.0, 2.0, ShareDiscipline::WorkConserving);
        assert_eq!(staged.0.to_bits(), direct.0.to_bits());
        assert_eq!(staged.1.to_bits(), direct.1.to_bits());

        ws.stage().extend_from_slice(&jobs);
        let mut a = Vec::new();
        ws.staged_finishes_into(3.0, 2.0, ShareDiscipline::WorkConserving, &mut a);
        let b = project_finishes(&jobs, 3.0, 2.0, ShareDiscipline::WorkConserving);
        assert_eq!(a, b);
    }

    #[test]
    fn risk_summary_matches_risk_bitwise() {
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![1.0],
            vec![2.5, 2.5, 2.5],
            vec![1.0, 3.0],
            vec![1.0, 1.7, 42.0, 1e6],
        ];
        for dds in &cases {
            let (mu, sigma) = risk(dds);
            let s = RiskSummary::from_dds(dds);
            assert_eq!(s.count, dds.len());
            assert_eq!(s.mu.to_bits(), mu.to_bits());
            assert_eq!(s.sigma.to_bits(), sigma.to_bits());
            assert!(s.bits_eq(&RiskSummary::from_dds(dds)));
        }
        assert!(RiskSummary::EMPTY.bits_eq(&RiskSummary::from_dds(&[])));
    }

    #[test]
    fn delta_projection_matches_staging_by_hand() {
        let base = [pj(80.0, 90.0), pj(20.0, 400.0), pj(100.0, 120.0)];
        let extra = pj(55.0, 250.0);
        let mut ws = ProjectionWorkspace::new();
        for disc in [ShareDiscipline::Strict, ShareDiscipline::WorkConserving] {
            for now in [0.0, 17.25] {
                let delta = ws.node_risk_delta(&base, extra, now, 1.5, disc);
                let mut all = base.to_vec();
                all.push(extra);
                let direct = node_risk(&all, now, 1.5, disc);
                assert_eq!(delta.mu.to_bits(), direct.0.to_bits());
                assert_eq!(delta.sigma.to_bits(), direct.1.to_bits());
            }
        }
        // Empty base: delta over [] + extra equals the single-job node.
        let delta = ws.node_risk_delta(&[], extra, 0.0, 1.0, ShareDiscipline::Strict);
        let direct = node_risk(&[extra], 0.0, 1.0, ShareDiscipline::Strict);
        assert_eq!(delta.mu.to_bits(), direct.0.to_bits());
        assert_eq!(delta.sigma.to_bits(), direct.1.to_bits());
    }

    #[test]
    fn canonical_class_keys_are_order_invariant_and_length_seeded() {
        let a = [pj(80.0, 90.0), pj(20.0, 400.0), pj(100.0, 120.0)];
        let b = [pj(100.0, 120.0), pj(80.0, 90.0), pj(20.0, 400.0)];
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        let ha = canonical_class_keys(&a, &mut ka);
        let hb = canonical_class_keys(&b, &mut kb);
        assert_eq!(ha, hb, "permutations share a class");
        assert_eq!(ka, kb);
        // A strict prefix is a different class even though every element
        // matches (length seeding).
        let hp = canonical_class_keys(&a[..2], &mut kb);
        assert_ne!(ha, hp);
        // Different loads are different classes.
        let c = [pj(80.0, 90.0), pj(20.0, 400.0), pj(100.0, 121.0)];
        let hc = canonical_class_keys(&c, &mut kb);
        assert_ne!(ha, hc);
        assert_eq!(canonical_class_keys(&[], &mut ka), {
            let mut k = Vec::new();
            canonical_class_keys(&[], &mut k)
        });
    }

    #[test]
    fn first_segment_shares_match_kernel_opening_pass_bitwise() {
        let jobs = [pj(80.0, 90.0), pj(20.0, 400.0), pj(1e-9, 0.5)];
        let now = 3.0;
        let mut shares = Vec::new();
        let sum = first_segment_shares(&jobs, now, &mut shares);
        let mut want_sum = 0.0;
        for (i, j) in jobs.iter().enumerate() {
            let rd = (j.abs_deadline - now).max(EPS_DEADLINE);
            let s = j.remaining_est.max(EPS_WORK) / rd;
            assert_eq!(shares[i].to_bits(), s.to_bits());
            want_sum += s;
        }
        assert_eq!(sum.to_bits(), want_sum.to_bits());
        assert_eq!(first_segment_shares(&[], 0.0, &mut shares), 0.0);
        assert!(shares.is_empty());
    }

    #[test]
    fn prefixed_paths_match_cold_paths_bitwise() {
        let base = [pj(80.0, 90.0), pj(20.0, 400.0), pj(100.0, 120.0)];
        let extra = pj(55.0, 250.0);
        let mut ws = ProjectionWorkspace::new();
        let mut shares = Vec::new();
        for disc in [ShareDiscipline::Strict, ShareDiscipline::WorkConserving] {
            for now in [0.0, 17.25] {
                let sum = first_segment_shares(&base, now, &mut shares);
                let warm = ws.node_risk_delta_prefixed(&base, &shares, sum, extra, now, 1.5, disc);
                let cold = ws.node_risk_delta(&base, extra, now, 1.5, disc);
                assert!(warm.bits_eq(&cold), "{disc:?} now {now}");
                let warm_base = ws.node_risk_summary_prefixed(&base, &shares, sum, now, 1.5, disc);
                let cold_base = ws.node_risk_summary_with(&base, now, 1.5, disc);
                assert!(warm_base.bits_eq(&cold_base), "{disc:?} now {now}");
            }
        }
        // Empty base: the warm prefix is empty and the candidate's share
        // is computed in-kernel.
        let sum = first_segment_shares(&[], 0.0, &mut shares);
        let warm = ws.node_risk_delta_prefixed(
            &[],
            &shares,
            sum,
            extra,
            0.0,
            1.0,
            ShareDiscipline::WorkConserving,
        );
        let cold = ws.node_risk_delta(&[], extra, 0.0, 1.0, ShareDiscipline::WorkConserving);
        assert!(warm.bits_eq(&cold));
    }

    #[test]
    fn screen_never_disagrees_with_the_kernel() {
        // Wherever the screen fires, the kernel must report exactly
        // σ = 0.0 and μ = 1.0 (bitwise) — for the piecewise and the
        // single-segment projections alike. A dense deterministic sweep
        // over share levels, deadline spreads and margins, including
        // values straddling the screen's margin condition.
        let mut ws = ProjectionWorkspace::new();
        let mut shares = Vec::new();
        let mut keys = Vec::new();
        let mut fired = 0usize;
        for i in 0..2000u64 {
            let r = |k: u64| {
                // Small deterministic hash → [0, 1).
                let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ k)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D);
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let now = r(1) * 100.0;
            let n = (r(2) * 4.0) as usize;
            let jobs: Vec<ProjectedJob> = (0..n)
                .map(|k| {
                    let rd = 0.5 + r(10 + k as u64) * 50.0;
                    let share = 0.05 + r(20 + k as u64) * 0.45;
                    pj(share * rd, now + rd)
                })
                .collect();
            let cand_rd = 0.5 + r(3) * 200.0;
            let cand = pj((0.01 + r(4) * 0.6) * cand_rd, now + cand_rd);
            let sum = first_segment_shares(&jobs, now, &mut shares);
            let min_dl = min_abs_deadline(&jobs);
            if screens_zero_risk(ShareDiscipline::WorkConserving, 1.0, sum, min_dl, cand, now) {
                fired += 1;
                let s = ws.node_risk_delta(&jobs, cand, now, 1.0, ShareDiscipline::WorkConserving);
                assert_eq!(s.sigma.to_bits(), 0.0f64.to_bits(), "case {i}: {jobs:?}");
                assert_eq!(s.mu.to_bits(), 1.0f64.to_bits(), "case {i}");
                let (mu1, sig1) = node_risk_single_segment(
                    &{
                        let mut all = jobs.clone();
                        all.push(cand);
                        all
                    },
                    now,
                    1.0,
                    ShareDiscipline::WorkConserving,
                );
                assert_eq!(sig1.to_bits(), 0.0f64.to_bits(), "case {i} (naive)");
                assert_eq!(mu1.to_bits(), 1.0f64.to_bits(), "case {i} (naive)");
            }
            // The class fingerprint must be insensitive to job order.
            let h = canonical_class_keys(&jobs, &mut keys);
            let mut rev = jobs.clone();
            rev.reverse();
            assert_eq!(h, canonical_class_keys(&rev, &mut keys));
        }
        assert!(
            fired > 100,
            "screen never fired ({fired}); sweep too strict"
        );
    }

    #[test]
    fn screen_declines_strict_shares_slow_nodes_and_thin_margins() {
        let cand = pj(10.0, 100.0);
        // Comfortable case fires under work-conserving, unit speed.
        assert!(screens_zero_risk(
            ShareDiscipline::WorkConserving,
            1.0,
            0.3,
            f64::INFINITY,
            cand,
            0.0
        ));
        // Strict shares: finishes land exactly on deadlines — no margin.
        assert!(!screens_zero_risk(
            ShareDiscipline::Strict,
            1.0,
            0.3,
            f64::INFINITY,
            cand,
            0.0
        ));
        // A slow node invalidates the rate ≥ share argument.
        assert!(!screens_zero_risk(
            ShareDiscipline::WorkConserving,
            0.9,
            0.3,
            f64::INFINITY,
            cand,
            0.0
        ));
        // Margin below EPS_DEADLINE: min_rd(1−S) = 100 × 0.005 = 0.5 < 1.
        assert!(!screens_zero_risk(
            ShareDiscipline::WorkConserving,
            1.0,
            0.895,
            f64::INFINITY,
            cand,
            0.0
        ));
        // A resident whose deadline is about to pass caps min_rd.
        assert!(!screens_zero_risk(
            ShareDiscipline::WorkConserving,
            1.0,
            0.3,
            0.5,
            cand,
            0.0
        ));
        // S ≥ 1 (headroom gone) never fires, whatever the deadlines.
        assert!(!screens_zero_risk(
            ShareDiscipline::WorkConserving,
            1.0,
            1.2,
            f64::INFINITY,
            cand,
            0.0
        ));
        // A candidate already inside its deadline's EPS window fails the
        // margin test via min_rd < 1.
        assert!(!screens_zero_risk(
            ShareDiscipline::WorkConserving,
            1.0,
            0.0,
            f64::INFINITY,
            pj(0.1, 0.5),
            0.0
        ));
    }

    #[test]
    fn screen_margin_exists_for_a_reason_floor_distortion() {
        // Why `S < 1` alone is not a sound screen: a segment boundary
        // landing inside a job's final EPS_DEADLINE window rewrites its
        // share from rem/rd to rem/1.0, collapsing its urgency against a
        // long-deadline co-resident. The screen must decline any node
        // whose margin allows a job to still be alive in that window —
        // here margin = min_rd·(1−S) ≈ 1.4 × 0.011 ≪ 1.
        let jobs = [pj(1.3, 1.4)];
        let cand = pj(60.0, 1000.0);
        let now = 0.0;
        let mut shares = Vec::new();
        let sum = first_segment_shares(&jobs, now, &mut shares);
        assert!(
            sum + 60.0 / 1000.0 < 1.0,
            "the naive share test would have passed"
        );
        assert!(!screens_zero_risk(
            ShareDiscipline::WorkConserving,
            1.0,
            sum,
            min_abs_deadline(&jobs),
            cand,
            now,
        ));
    }

    #[test]
    fn risk_screen_fires_on_a_late_job_beside_a_slack_one() {
        // Resident: 300 s of work due in 100 s, so dd ≥ 3 whatever
        // happens. Candidate: due in 1000 s, and the node drains all 310
        // s of work long before that, so its dd is exactly 1.
        let residents = [pj(300.0, 100.0)];
        let cand = pj(10.0, 1000.0);
        let wc = ShareDiscipline::WorkConserving;
        assert!(screens_risky(wc, 1.0, residents.iter().copied(), cand, 0.0));
        let (_, sigma) = node_risk(&[residents[0], cand], 0.0, 1.0, wc);
        assert!(!is_zero_risk(sigma), "sigma {sigma}");
        // The same node with the resident on time reads zero-risk, and
        // the screen must not fire.
        assert!(!screens_risky(
            wc,
            1.0,
            [pj(30.0, 100.0)].into_iter(),
            cand,
            0.0
        ));
    }

    #[test]
    fn risk_screen_declines_strict_bad_speeds_the_guard_and_lone_jobs() {
        let residents = [pj(300.0, 100.0)];
        let cand = pj(10.0, 1000.0);
        let wc = ShareDiscipline::WorkConserving;
        let fires = |disc, speed: f64, now: f64| {
            let shifted = residents.map(|j| pj(j.remaining_est, j.abs_deadline + now));
            let cand = pj(cand.remaining_est, cand.abs_deadline + now);
            screens_risky(disc, speed, shifted.into_iter(), cand, now)
        };
        assert!(fires(wc, 1.0, 0.0), "the baseline case fires");
        // Strict shares idle an under-loaded node: T bounds nothing.
        assert!(!fires(ShareDiscipline::Strict, 1.0, 0.0));
        // Zero, negative and non-finite speeds.
        for speed in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(!fires(wc, speed, 0.0), "speed {speed}");
        }
        // Past the magnitude guard: `now` itself, or the drain time.
        assert!(fires(wc, 1.0, RISK_SCREEN_GUARD - 1000.0));
        assert!(
            !fires(wc, 1.0, RISK_SCREEN_GUARD - 100.0),
            "T beyond the guard"
        );
        assert!(!fires(wc, 1.0, 2.0 * RISK_SCREEN_GUARD));
        assert!(!fires(wc, 1.0, f64::NAN));
        assert!(!screens_risky(
            wc,
            1.0,
            [pj(2.0 * RISK_SCREEN_GUARD, 100.0)].into_iter(),
            cand,
            0.0
        ));
        // A lone job has nothing to disperse against, however late.
        assert!(!screens_risky(
            wc,
            1.0,
            std::iter::empty(),
            pj(300.0, 100.0),
            0.0
        ));
        // A non-finite deadline anywhere.
        assert!(!screens_risky(
            wc,
            1.0,
            [pj(300.0, f64::INFINITY)].into_iter(),
            cand,
            0.0
        ));
    }

    #[test]
    fn risk_screen_bounds_hold_and_it_fires_often() {
        // A dense deterministic sweep of overloaded and past-deadline
        // nodes at several speeds: every projected finish lies between
        // the screen's bounds (no job outruns its node; the node drains
        // by `now + Σrem/speed`), and wherever the screen fires the
        // kernel reads risk.
        let wc = ShareDiscipline::WorkConserving;
        let mut fired = 0usize;
        for i in 0..2000u64 {
            let r = |k: u64| {
                let x = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ k)
                    .wrapping_mul(0x2545_F491_4F6C_DD1D);
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let now = r(1) * 1e5;
            let speed = 0.25 + r(2) * 3.0;
            let n = 2 + (r(3) * 12.0) as usize;
            let jobs: Vec<ProjectedJob> = (0..n as u64)
                .map(|k| pj(1.0 + r(10 + k) * 400.0, now - 50.0 + r(30 + k) * 600.0))
                .collect();
            let (residents, cand) = (&jobs[..n - 1], jobs[n - 1]);
            let f = project_finishes(&jobs, now, speed, wc);
            let drain = now + jobs.iter().map(|j| j.remaining_est).sum::<f64>() / speed;
            for (j, &fin) in jobs.iter().zip(&f) {
                assert!(
                    fin >= now + j.remaining_est / speed - 1e-6,
                    "case {i}: outran"
                );
                assert!(fin <= drain + 1e-6, "case {i}: {fin} after drain {drain}");
            }
            if screens_risky(wc, speed, residents.iter().copied(), cand, now) {
                fired += 1;
                let (_, sigma) = node_risk(&jobs, now, speed, wc);
                assert!(!is_zero_risk(sigma), "case {i}: {jobs:?}");
            }
        }
        assert!(fired > 500, "screen fired only {fired} times");
    }

    #[test]
    fn min_abs_deadline_handles_empty() {
        assert_eq!(min_abs_deadline(&[]), f64::INFINITY);
        assert_eq!(min_abs_deadline(&[pj(1.0, 5.0), pj(1.0, 3.0)]), 3.0);
    }

    #[test]
    fn rate_starved_job_does_not_panic_or_hang() {
        // Job 1's share underflows to zero against job 0's astronomically
        // inflated share (1e300 work due in 1 s): its completion candidate
        // would be ∞. The kernel must stay finite and terminate.
        let jobs = [pj(1e300, 1.0), pj(1e-6, 1e300)];
        for disc in [ShareDiscipline::Strict, ShareDiscipline::WorkConserving] {
            let f = project_finishes(&jobs, 0.0, 1.0, disc);
            assert!(f.iter().all(|x| x.is_finite()), "{f:?}");
            let (mu, sigma) = node_risk(&jobs, 0.0, 1.0, disc);
            assert!(mu.is_finite() && sigma.is_finite());
        }
    }
}
