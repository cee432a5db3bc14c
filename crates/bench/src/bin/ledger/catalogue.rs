//! Every metric the ledger reports, with its unit. BENCHMARK.json lists
//! the same names and units (a unit test keeps the two in step).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Measured with tracing off, over the timed repetitions.
pub const END_TO_END: [Metric; 6] = [
    m("jobs_per_s", "jobs/s"),
    m("verdict_p50_us", "us"),
    m("verdict_p99_us", "us"),
    m("fulfilled_pct", "%"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// From the traced pass whose client wall is the median. Layer names
/// follow the library's modules.
pub const PER_LAYER: [Metric; 52] = [
    m("workload.trace_build_s", "s"),
    m("rms.advance_s", "s"),
    m("rms.advance_calls", "count"),
    m("rms.advance_p99_us", "us"),
    m("rms.advance_nofault_s", "s"),
    m("rms.advance_fault_calls", "count"),
    m("rms.submit_s", "s"),
    m("rms.submit_p50_us", "us"),
    m("rms.submit_p99_us", "us"),
    m("rms.drain_s", "s"),
    m("engine.advance_s", "s"),
    m("engine.advance_calls", "count"),
    m("engine.advance_p50_ns", "ns"),
    m("engine.advance_p99_ns", "ns"),
    m("engine.next_event_s", "s"),
    m("engine.next_event_calls", "count"),
    m("engine.admit_s", "s"),
    m("engine.admit_calls", "count"),
    m("decide.busy_s", "s"),
    m("decide.calls", "count"),
    m("decide.p50_ns", "ns"),
    m("decide.p99_ns", "ns"),
    m("decide.accept_ratio", "ratio"),
    m("decide.nodes_considered", "count"),
    m("decide.projections_run", "count"),
    m("decide.screen_hits", "count"),
    m("decide.class_hits", "count"),
    m("decide.pairing_hits", "count"),
    m("decide.memo_hits", "count"),
    m("decide.kernel_bails", "count"),
    m("decide.kernel_avoided_ratio", "ratio"),
    m("router.submit_s", "s"),
    m("router.submit_p99_us", "us"),
    m("router.fanout_s", "s"),
    m("router.fanouts", "count"),
    m("router.fanout_p50_us", "us"),
    m("router.fanout_p99_us", "us"),
    m("router.events_merged", "count"),
    m("router.independent_s", "s"),
    m("router.parallel_speedup", "ratio"),
    m("report.record_s", "s"),
    m("report.records", "count"),
    m("fault.node_failures", "count"),
    m("fault.node_restores", "count"),
    m("fault.requeues", "count"),
    m("fault.requeue_rejects", "count"),
    m("fault.kills", "count"),
    m("driver.residual_s", "s"),
    m("driver.verdict_p999_us", "us"),
    m("trace.wall_s", "s"),
    m("trace.overhead_pct", "%"),
    m("trace.coverage", "ratio"),
];

pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}
