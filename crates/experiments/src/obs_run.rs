//! Observability-driven runs: the `timeline` figure and the `trace`
//! dump behind `experiments timeline` / `experiments trace`.
//!
//! Both drive one churn scenario through the online facade with a
//! recorder attached. `timeline` samples the facade's own gauges
//! (utilization, in-flight) plus the policy audit gauge captured from
//! decision events into [`metrics::Series`] curves and renders them as
//! one SVG; `trace` retains the full event stream in a ring and writes
//! the three export formats (JSONL, Chrome `trace_event`, Prometheus
//! text), re-parsing what it wrote so a corrupt exporter fails loudly
//! instead of producing an unloadable file.

use crate::figures::FigureConfig;
use crate::scenario::Scenario;
use cluster::RecoveryPolicy;
use librisk::rms::drive_trace;
use librisk::{OnlineReport, PolicyKind};
use metrics::svg::{self, SvgOptions};
use metrics::Series;
use obs::{DecisionAudit, Event, Recorder, TraceRecorder};
use workload::params;

/// The churn scenario both subcommands run: the standard trace with a
/// node outage rate high enough that the timeline visibly dips and the
/// trace contains `node_down`/`node_up` events.
pub fn obs_scenario(cfg: &FigureConfig) -> Scenario {
    let jobs = cfg.jobs;
    let span = jobs as f64 * params::MEAN_INTER_ARRIVAL_SECS;
    Scenario {
        jobs,
        seed: cfg.seeds.first().copied().unwrap_or(1),
        node_mtbf: span / 4.0,
        node_mttr: span / 40.0,
        recovery: RecoveryPolicy::Requeue,
        ..Default::default()
    }
}

/// Captures the policy audit gauge (peak share, cluster risk, queue
/// depth) from decision events as a time series, without retaining the
/// events themselves.
#[derive(Debug, Default)]
struct GaugeSampler {
    key: Option<&'static str>,
    samples: Vec<(f64, f64)>,
}

impl Recorder for GaugeSampler {
    fn wants_audit_gauges(&self) -> bool {
        true
    }

    fn record(&mut self, sim_secs: f64, event: Event) {
        if let Event::Decision {
            audit: DecisionAudit {
                gauge: Some(delta), ..
            },
            ..
        } = event
        {
            self.key.get_or_insert(delta.key);
            if self.key == Some(delta.key) {
                self.samples.push((sim_secs, delta.after));
            }
        }
    }
}

/// The assembled timeline: curves plus run-level context.
#[derive(Debug)]
pub struct Timeline {
    /// Mean utilization of up capacity, sampled per arrival.
    pub utilization: Series,
    /// Resident + queued jobs as a fraction of cluster size.
    pub in_flight: Series,
    /// The policy audit gauge over time, when the policy exposes one.
    pub gauge: Option<Series>,
    /// Jobs driven through the facade.
    pub jobs: usize,
}

impl Timeline {
    /// Renders the curves as one standalone SVG document.
    pub fn to_svg(&self, policy: PolicyKind) -> String {
        let mut series: Vec<&Series> = vec![&self.utilization, &self.in_flight];
        if let Some(g) = &self.gauge {
            series.push(g);
        }
        svg::render(
            &series,
            &SvgOptions {
                title: format!("{policy:?} under node churn ({} jobs)", self.jobs),
                x_label: "simulated time (s)".into(),
                y_label: "gauge value".into(),
                ..Default::default()
            },
        )
    }
}

/// Drives one policy over the churn scenario, sampling the facade
/// gauges at every arrival (thinned to at most ~240 points per curve).
pub fn timeline(scenario: &Scenario, policy: PolicyKind) -> Timeline {
    let trace = scenario.build_trace();
    let cluster = scenario.cluster();
    let nodes = cluster.len().max(1) as f64;
    let stride = (trace.len() / 240).max(1);
    let mut sampler = GaugeSampler::default();
    let mut utilization = Series::new("utilization");
    let mut in_flight = Series::new("in-flight / nodes");
    {
        let mut rms = policy
            .rms(&cluster)
            .with_faults(scenario.fault_plan(&trace), scenario.recovery)
            .with_recorder(&mut sampler);
        for (i, job) in trace.jobs().iter().enumerate() {
            let t = job.submit;
            let _ = rms.advance(t);
            rms.submit(job.clone(), t);
            if i % stride == 0 {
                utilization.observe(t.as_secs(), rms.utilization());
                in_flight.observe(t.as_secs(), rms.in_flight() as f64 / nodes);
            }
        }
        let _ = rms.drain();
        let end = rms.now().as_secs();
        utilization.observe(end, rms.utilization());
        in_flight.observe(end, rms.in_flight() as f64 / nodes);
    }
    let gauge = sampler.key.map(|key| {
        let mut s = Series::new(key);
        let thin = (sampler.samples.len() / 240).max(1);
        for (i, (t, v)) in sampler.samples.iter().enumerate() {
            if i % thin == 0 {
                s.observe(*t, *v);
            }
        }
        s
    });
    Timeline {
        utilization,
        in_flight,
        gauge,
        jobs: trace.len(),
    }
}

/// Drives one policy over the churn scenario with a ring recorder and
/// returns the recorder (events + registry) plus the run's aggregates.
pub fn trace_run(
    scenario: &Scenario,
    policy: PolicyKind,
    capacity: usize,
) -> (TraceRecorder, OnlineReport) {
    let trace = scenario.build_trace();
    let cluster = scenario.cluster();
    let mut recorder = TraceRecorder::new(capacity).with_audit_gauges();
    let mut sink = OnlineReport::new();
    {
        let mut rms = policy
            .rms(&cluster)
            .with_faults(scenario.fault_plan(&trace), scenario.recovery)
            .with_recorder(&mut recorder);
        drive_trace(&mut rms, &trace, &mut sink);
        sink.set_utilization(rms.utilization());
        sink.set_churn(*rms.churn());
    }
    (recorder, sink)
}

/// Re-parses both JSON exports of a recorded run, returning an error
/// string naming the first malformed artefact. The `trace` subcommand
/// and the CI smoke step call this before writing anything to disk.
pub fn validate_exports(recorder: &TraceRecorder) -> Result<(), String> {
    for (i, line) in recorder.to_jsonl().lines().enumerate() {
        let v = obs::json::parse(line).map_err(|e| format!("JSONL line {}: {e}", i + 1))?;
        if v.get("type").and_then(|t| t.as_str()).is_none() {
            return Err(format!("JSONL line {}: missing \"type\"", i + 1));
        }
    }
    let trace =
        obs::json::parse(&recorder.to_chrome_trace()).map_err(|e| format!("chrome trace: {e}"))?;
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("chrome trace: missing traceEvents array")?;
    if events.len() != recorder.len() {
        return Err(format!(
            "chrome trace: {} events for {} recorded",
            events.len(),
            recorder.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scenario {
        obs_scenario(&FigureConfig {
            jobs: 200,
            seeds: vec![1],
            threads: 1,
        })
    }

    #[test]
    fn timeline_samples_all_curves() {
        let t = timeline(&quick(), PolicyKind::LibraRisk);
        assert!(t.utilization.len() > 10);
        assert!(t.in_flight.len() > 10);
        let gauge = t.gauge.as_ref().expect("LibraRisk exposes cluster_risk");
        assert_eq!(gauge.name(), "cluster_risk");
        assert!(!gauge.is_empty());
        let svg = t.to_svg(PolicyKind::LibraRisk);
        assert!(svg.starts_with("<svg"), "renders a standalone SVG");
        assert!(svg.contains("cluster_risk"));
    }

    #[test]
    fn timeline_without_audit_gauge_has_two_curves() {
        let t = timeline(&quick(), PolicyKind::Fcfs);
        // Queued backends expose queue_depth; proportional-only gauges
        // are absent. Either way the figure renders.
        let svg = t.to_svg(PolicyKind::Fcfs);
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn trace_run_records_and_exports_validate() {
        let (rec, report) = trace_run(&quick(), PolicyKind::LibraRisk, 1 << 14);
        assert!(!rec.is_empty(), "events were recorded");
        assert_eq!(report.submitted(), 200);
        assert!(
            rec.registry().counter(obs::keys::DECISIONS) >= 200,
            "every submit produced a decision"
        );
        validate_exports(&rec).expect("exports parse back");
        assert!(rec
            .registry()
            .to_prometheus()
            .contains("rms_decisions_total"));
    }

    #[test]
    fn tiny_ring_still_validates() {
        let (rec, _) = trace_run(&quick(), PolicyKind::Edf, 32);
        assert!(rec.dropped() > 0, "ring overflowed as intended");
        validate_exports(&rec).expect("truncated ring still exports cleanly");
    }
}
