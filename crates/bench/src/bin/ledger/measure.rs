//! One workload in one process: time it, then check it.

use crate::catalogue::{Metric, END_TO_END, PER_LAYER};
use crate::oracle::{
    check_pins, cross_check, driven_summary, golden, pinned, summary, Checked, PIN_SEED,
};
use crate::probe::{quantiles, Alternating, Off, Span, Spans};
use crate::replay::{primary, Replay};
use crate::workload::Spec;
use librisk::OnlineReport;
use metrics::percentile::median;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// In catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The outcome every later replay of the same inputs must reproduce.
struct Reference {
    verdicts: Vec<bool>,
    report: OnlineReport,
}

impl Reference {
    fn of(r: &Replay) -> Self {
        Reference {
            verdicts: r.seen.verdicts.clone(),
            report: r.seen.report.clone(),
        }
    }

    /// Failed jobs of one replay; whole-run defects go to `failures`.
    fn check(&self, r: &Replay, name: &str, failures: &mut Vec<String>) -> u64 {
        if let Some(e) = &r.error {
            failures.push(format!("{name}: {e}"));
            return r.seen.verdicts.len() as u64;
        }
        if summary(&r.seen.report, true) != summary(&self.report, true) {
            failures.push(format!("{name}: report differs from the reference replay"));
        }
        if r.seen.out_of_order > 0 {
            failures.push(format!("{name}: stream not in resolution-time order"));
        }
        r.seen.failed_ops(&self.verdicts)
    }
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).expect("at least one sample")
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn ordered(
    catalogue: &[Metric],
    mut values: BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    catalogue
        .iter()
        .map(|m| {
            let v = values.remove(m.name);
            (
                m.name,
                v.unwrap_or_else(|| panic!("{} not computed", m.name)),
            )
        })
        .collect()
}

/// The fastest time of each segment and of each arrival over the timed
/// replays of one set of inputs. A replay is deterministic, so a segment
/// or an arrival does the same work in every replay, and only the host
/// differs. On a shared host other tenants slow the whole machine down
/// for stretches of seconds to minutes: one replay's throughput moves by
/// up to a third from the next, and a median over replays moves with the
/// share of the run that was slowed. The fastest time of each small piece
/// needs only one quiet moment per piece over the run, so it follows what
/// the code costs, and moves with the host only when no moment was quiet.
#[derive(Default)]
struct Floor {
    segment_ns: Vec<u64>,
    verdict_ns: Vec<u64>,
}

impl Floor {
    fn add(&mut self, r: &Replay) {
        for (floor, times) in [
            (&mut self.segment_ns, &r.segment_ns),
            (&mut self.verdict_ns, &r.verdict_ns),
        ] {
            if floor.is_empty() {
                floor.clone_from(times);
            }
            for (f, &t) in floor.iter_mut().zip(times) {
                *f = (*f).min(t);
            }
        }
    }

    fn wall_s(&self) -> f64 {
        self.segment_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    fn verdict_us(&self, qs: &[f64]) -> Vec<f64> {
        let ns = quantiles(self.verdict_ns.iter().copied(), qs);
        ns.into_iter().map(|q| q * 1e-3).collect()
    }
}

/// The fewest set-ups `setup_s` is a median of. A set-up takes 7 to 90
/// ms, so one stall of the host can double a single one.
const SETUPS: usize = 15;

/// Tracing off. The workload is replayed until `seconds` have passed, at
/// least once, each replay after a fresh, timed set-up, so the set-ups
/// spread across the run; a short run adds set-ups until there are
/// `SETUPS`. Throughput and verdict latencies are those of the replays'
/// `Floor`. Every replay must match the first, and then, unless `oracles`
/// is false, the first must match `drive_trace` on the same inputs. The
/// other cross-checks run in every traced run; here they would add three
/// replays to each run without checking a timed output.
///
/// The pins, the share of deadlines fulfilled and the peak resident set
/// come from the process's first client replay, which is always of the
/// pinned seed's inputs: at another seed an untimed replay of them comes
/// first, and at the pinned seed the first timed replay is that replay.
/// So none of the three depends on `seed`: at one seed the peak repeats
/// within a few percent, while across seeds it differs by up to half on
/// `churn-requeue`.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, oracles: bool) -> Run {
    let mut failures = golden();
    let pin = (seed != PIN_SEED).then(|| pinned(spec, &mut failures));
    let mut peak = pin.as_ref().map(|_| peak_rss_mib());
    let mut reference: Option<Reference> = None;
    let (mut attempted, mut failed) = (0, 0);
    let (mut floor, mut setups) = (Floor::default(), Vec::new());
    let start = Instant::now();
    loop {
        let (inputs, setup) = spec.setup(seed);
        setups.push(setup.total_s);
        let r = primary(spec, &inputs, &mut Off);
        peak.get_or_insert_with(peak_rss_mib);
        let reference = reference.get_or_insert_with(|| Reference::of(&r));
        failed += reference.check(&r, spec.name, &mut failures);
        attempted += r.verdict_ns.len() as u64;
        floor.add(&r);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    while setups.len() < SETUPS {
        setups.push(spec.setup(seed).1.total_s);
    }
    let reference = reference.expect("at least one replay ran");
    if oracles
        && summary(&reference.report, spec.shards == 1) != driven_summary(spec, &spec.setup(seed).0)
    {
        failures.push(format!(
            "{}: client report differs from drive_trace",
            spec.name
        ));
    }
    let pinned_report = match &pin {
        Some(p) => &p.seen.report,
        None => {
            check_pins(spec, &reference.report, &mut failures);
            &reference.report
        }
    };
    let fulfilled_pct = pinned_report.fulfilled_pct();
    let peak = peak.flatten().unwrap_or_else(|| {
        failures.push("VmHWM unavailable".into());
        f64::NAN
    });
    let verdict_us = floor.verdict_us(&[0.5, 0.99]);
    let values = BTreeMap::from([
        ("jobs_per_s", spec.jobs as f64 / floor.wall_s()),
        ("verdict_p50_us", verdict_us[0]),
        ("verdict_p99_us", verdict_us[1]),
        ("fulfilled_pct", fulfilled_pct),
        ("setup_s", med(setups)),
        ("peak_rss_mib", peak),
    ]);
    Run {
        attempted,
        failed,
        failures,
        metrics: ordered(&END_TO_END, values),
    }
}

/// Tracing on: alternate a client replay that traces every other
/// arrival (for the tracing overhead and the bare p99.9) with a traced
/// pass (client, partner and decomposition, each cross-checked) until
/// `seconds` have passed, at least once, each after a fresh set-up.
/// Per-layer numbers come from the pass whose client wall is the median,
/// so they add up. The pins are checked at the pinned seed only, since
/// no reported number depends on them here.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Run {
    let mut failures = golden();
    let mut reference: Option<Reference> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut passes = Vec::new();
    let (mut setups, mut slowdowns, mut p999s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let (inputs, setup) = spec.setup(seed);
        setups.push(setup);
        let r = primary(spec, &inputs, &mut Alternating::default());
        let mut probes: [Spans; 3] = Default::default();
        let checked = cross_check(spec, &inputs, &mut probes);
        failures.extend(checked.failures.iter().cloned());
        let reference = reference.get_or_insert_with(|| Reference::of(&checked.primary));
        for replay in [&r, &checked.primary] {
            failed += reference.check(replay, spec.name, &mut failures);
            attempted += replay.verdict_ns.len() as u64;
        }
        let arrivals = |parity| r.verdict_ns.iter().skip(parity).step_by(2).copied();
        let traced = quantiles(arrivals(0), &[0.5])[0];
        let bare = quantiles(arrivals(1), &[0.5, 0.999]);
        slowdowns.push(traced / bare[0]);
        p999s.push(bare[1] * 1e-3);
        passes.push(layers(spec, &checked, &probes));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if seed == PIN_SEED {
        let reference = reference.expect("at least one pass ran");
        check_pins(spec, &reference.report, &mut failures);
    }
    failures.sort();
    failures.dedup();
    for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
        if passes.iter().any(|p| p[m.name] != passes[0][m.name]) {
            failures.push(format!("{}: {} differs between passes", spec.name, m.name));
        }
    }
    passes.sort_by(|a, b| a["trace.wall_s"].total_cmp(&b["trace.wall_s"]));
    let mut values = passes.swap_remove((passes.len() - 1) / 2);
    values.insert(
        "workload.trace_build_s",
        med(setups.iter().map(|s| s.trace_build_s)),
    );
    values.insert("driver.verdict_p999_us", med(p999s));
    values.insert("trace.overhead_pct", (med(slowdowns) - 1.0) * 100.0);
    Run {
        attempted,
        failed,
        failures,
        metrics: ordered(&PER_LAYER, values),
    }
}

/// Per-layer numbers of one traced pass. The client's spans do not nest,
/// so what they leave of its wall is the driver's own residual.
fn layers(spec: &Spec, c: &Checked, probes: &[Spans; 3]) -> BTreeMap<&'static str, f64> {
    use Span::*;
    let [client, partner, engine] = probes;
    // The `ClusterRms` side and the router side of the partition.
    let ((rms, rms_run), (router, router_run)) = if spec.shards == 1 {
        ((client, &c.primary), (partner, &c.partner))
    } else {
        ((partner, &c.partner), (client, &c.primary))
    };
    let advance = [RmsAdvance, RmsAdvanceFault];
    let d = &c.decomposed;
    let s = &d.stats;
    let churn = &c.primary.churn;
    let us = 1e-3;
    BTreeMap::from([
        ("rms.advance_s", rms.total_s(&advance)),
        ("rms.advance_calls", rms.calls(&advance)),
        ("rms.advance_p99_us", rms.quantile_ns(&advance, 0.99) * us),
        ("rms.advance_nofault_s", rms.total_s(&[RmsAdvance])),
        ("rms.advance_fault_calls", rms.calls(&[RmsAdvanceFault])),
        ("rms.submit_s", rms.total_s(&[RmsSubmit])),
        ("rms.submit_p50_us", rms.quantile_ns(&[RmsSubmit], 0.5) * us),
        (
            "rms.submit_p99_us",
            rms.quantile_ns(&[RmsSubmit], 0.99) * us,
        ),
        ("rms.drain_s", rms.total_s(&[RmsDrain])),
        ("engine.advance_s", engine.total_s(&[EngineAdvance])),
        ("engine.advance_calls", engine.calls(&[EngineAdvance])),
        (
            "engine.advance_p50_ns",
            engine.quantile_ns(&[EngineAdvance], 0.5),
        ),
        (
            "engine.advance_p99_ns",
            engine.quantile_ns(&[EngineAdvance], 0.99),
        ),
        ("engine.next_event_s", engine.total_s(&[EngineNextEvent])),
        ("engine.next_event_calls", engine.calls(&[EngineNextEvent])),
        ("engine.admit_s", engine.total_s(&[EngineAdmit])),
        ("engine.admit_calls", engine.calls(&[EngineAdmit])),
        ("decide.busy_s", engine.total_s(&[Decide])),
        ("decide.calls", d.decides as f64),
        ("decide.p50_ns", engine.quantile_ns(&[Decide], 0.5)),
        ("decide.p99_ns", engine.quantile_ns(&[Decide], 0.99)),
        (
            "decide.accept_ratio",
            d.accepts as f64 / d.decides.max(1) as f64,
        ),
        ("decide.nodes_considered", s.nodes_considered as f64),
        ("decide.projections_run", s.projections_run as f64),
        ("decide.screen_hits", s.screen_hits as f64),
        ("decide.class_hits", s.class_hits as f64),
        ("decide.pairing_hits", s.pairing_hits as f64),
        ("decide.memo_hits", s.memo_hits as f64),
        ("decide.kernel_bails", s.kernel_bails as f64),
        (
            "decide.kernel_avoided_ratio",
            s.projections_avoided() as f64 / s.nodes_considered.max(1) as f64,
        ),
        ("router.submit_s", router.total_s(&[RouterSubmit])),
        (
            "router.submit_p99_us",
            router.quantile_ns(&[RouterSubmit], 0.99) * us,
        ),
        ("router.fanout_s", router.total_s(&[RouterFanout])),
        ("router.fanouts", router.calls(&[RouterFanout])),
        (
            "router.fanout_p50_us",
            router.quantile_ns(&[RouterFanout], 0.5) * us,
        ),
        (
            "router.fanout_p99_us",
            router.quantile_ns(&[RouterFanout], 0.99) * us,
        ),
        ("router.events_merged", router_run.seen.events as f64),
        ("router.independent_s", rms_run.wall_s),
        (
            "router.parallel_speedup",
            rms_run.wall_s / router_run.wall_s,
        ),
        ("report.record_s", client.total_s(&[ReportRecord])),
        ("report.records", client.calls(&[ReportRecord])),
        ("fault.node_failures", churn.node_failures as f64),
        ("fault.node_restores", churn.node_restores as f64),
        ("fault.requeues", churn.requeues as f64),
        ("fault.requeue_rejects", churn.requeue_rejects as f64),
        ("fault.kills", churn.kills as f64),
        ("driver.residual_s", c.primary.wall_s - client.all_s()),
        ("trace.wall_s", c.primary.wall_s),
        ("trace.coverage", client.all_s() / c.primary.wall_s),
    ])
}
