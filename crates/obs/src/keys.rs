//! The static metric keys and histogram bucket bounds the RMS hooks
//! use — one shared vocabulary so exporters, dashboards and tests
//! never drift apart on spelling.

/// Total admission decisions (accepted + rejected + queued).
pub const DECISIONS: &str = "rms_decisions_total";
/// Decisions that admitted the job immediately.
pub const ACCEPTED: &str = "rms_accepted_total";
/// Decisions that turned the job away at submit.
pub const REJECTED: &str = "rms_rejected_total";
/// Decisions that parked the job in a wait queue.
pub const QUEUED: &str = "rms_queued_total";
/// Jobs that reached a terminal outcome.
pub const RESOLVED: &str = "rms_resolved_total";
/// Completions that met their deadline.
pub const FULFILLED: &str = "rms_fulfilled_total";
/// Completions that missed their deadline.
pub const OVERDUE: &str = "rms_overdue_total";
/// Jobs killed by node failure.
pub const KILLED: &str = "rms_killed_total";
/// Node failures applied from the fault plan.
pub const NODE_DOWN: &str = "rms_node_down_total";
/// Node repairs applied from the fault plan.
pub const NODE_UP: &str = "rms_node_up_total";

/// Projection-kernel executions across all decisions (LibraRisk family).
pub const PROJECTIONS_RUN_TOTAL: &str = "librarisk_projections_run_total";
/// Node evaluations settled *without* running the projection kernel —
/// dominance and risk screens, a replayed resident-set group verdict or
/// the empty-node path.
pub const PROJECTIONS_AVOIDED_TOTAL: &str = "librarisk_projections_avoided_total";
/// Resident sets evaluated (considered nodes that did not replay a
/// group verdict), summed over decisions (divide by [`DECISIONS`] for
/// sets/decision).
pub const DECISION_CLASSES_TOTAL: &str = "librarisk_decision_classes_total";
/// Node evaluations proven zero-risk by the pre-kernel dominance screen.
pub const SCREENED_ZERO_RISK_TOTAL: &str = "librarisk_screened_zero_risk_total";
/// Node evaluations proven risky by the pre-kernel risk screen.
pub const SCREENED_RISKY_TOTAL: &str = "librarisk_screened_risky_total";

/// Mean utilization of up capacity so far (gauge).
pub const UTILIZATION: &str = "rms_utilization";
/// Jobs currently resident or queued (gauge).
pub const IN_FLIGHT: &str = "rms_in_flight";

/// Wall-clock decide latency histogram, nanoseconds.
pub const DECIDE_LATENCY: &str = "rms_decide_latency_ns";
/// Bucket bounds for [`DECIDE_LATENCY`].
pub const DECIDE_LATENCY_BOUNDS: &[f64] = &[
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
];

/// Post-decision share-sum distribution (Libra family).
pub const SHARE_DIST: &str = "libra_peak_share_dist";
/// Bucket bounds for [`SHARE_DIST`] — shares live in `[0, 1]`.
pub const SHARE_BOUNDS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Post-decision cluster-risk distribution (LibraRisk family);
/// the measure is a mean delay-to-deadline ratio, 1.0 = on time.
pub const RISK_DIST: &str = "librarisk_cluster_risk_dist";
/// Bucket bounds for [`RISK_DIST`].
pub const RISK_BOUNDS: &[f64] = &[0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0];

/// Bucket bounds for the phase profiler's per-flush duration
/// histograms (`phase_*_ns`), nanoseconds. Spans sub-microsecond lap
/// slivers up to quarter-second stalls (a blocked mailbox send).
pub const PHASE_NS_BOUNDS: &[f64] = &[
    250.0,
    1_000.0,
    5_000.0,
    25_000.0,
    100_000.0,
    500_000.0,
    2_000_000.0,
    10_000_000.0,
    50_000_000.0,
    250_000_000.0,
];

/// Bucket bounds for [`crate::phase::MAILBOX_DEPTH_KEY`] — queued
/// chunks at send time; the router caps mailboxes at 8 chunks, so the
/// overflow bucket should stay empty.
pub const MAILBOX_DEPTH_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0];

/// Last-observed mailbox depth at send time (gauge, chunks).
pub const MAILBOX_DEPTH_LAST: &str = "router_mailbox_depth_last";

/// Histogram key + bounds for a policy audit-gauge key, when the
/// gauge has a meaningful distribution to track.
pub fn gauge_histogram(gauge_key: &str) -> Option<(&'static str, &'static [f64])> {
    match gauge_key {
        "peak_share" => Some((SHARE_DIST, SHARE_BOUNDS)),
        "cluster_risk" => Some((RISK_DIST, RISK_BOUNDS)),
        _ => None,
    }
}

/// Scrape-page `# HELP` text for a metric key, when we have one.
/// Plain one-liners here; [`crate::Registry::to_prometheus`] escapes
/// backslashes and newlines per the exposition grammar on the way out.
pub fn help(key: &str) -> Option<&'static str> {
    let fixed = match key {
        _ if key == DECISIONS => "Total admission decisions (accepted + rejected + queued).",
        _ if key == ACCEPTED => "Decisions that admitted the job immediately.",
        _ if key == REJECTED => "Decisions that turned the job away at submit.",
        _ if key == QUEUED => "Decisions that parked the job in a wait queue.",
        _ if key == RESOLVED => "Jobs that reached a terminal outcome.",
        _ if key == FULFILLED => "Completions that met their deadline.",
        _ if key == OVERDUE => "Completions that missed their deadline.",
        _ if key == KILLED => "Jobs killed by node failure.",
        _ if key == NODE_DOWN => "Node failures applied from the fault plan.",
        _ if key == NODE_UP => "Node repairs applied from the fault plan.",
        _ if key == UTILIZATION => "Mean utilization of up capacity so far.",
        _ if key == IN_FLIGHT => "Jobs currently resident or queued.",
        _ if key == DECIDE_LATENCY => "Wall-clock decide latency, nanoseconds.",
        _ if key == SHARE_DIST => "Post-decision share-sum distribution (Libra family).",
        _ if key == RISK_DIST => "Post-decision cluster-risk distribution (LibraRisk family).",
        _ if key == MAILBOX_DEPTH_LAST => "Last-observed mailbox depth at send time, chunks.",
        "obs_events_dropped_total" => "Ring-buffer events dropped (oldest-first) on overflow.",
        _ => "",
    };
    if !fixed.is_empty() {
        return Some(fixed);
    }
    crate::phase::help_key(key)
}
