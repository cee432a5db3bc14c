//! Telemetry-plane runners: the `experiments profile` hot-path phase
//! breakdown and the `experiments serve` live HTTP drive.
//!
//! `profile` replays the golden 2000-job SDSC-SP2 trace (trace seed 11,
//! deadline seed 12; the one the benchmark ledger checks before timing)
//! through the plain LibraRisk facade with the [`obs::phase`] profiler
//! enabled, then reports where the wall clock went. Two invariants are
//! enforced, not just reported: the lap-tiled advance phases must cover
//! ≥ 90 % of the bracketing `advance_total` time (otherwise the taxonomy
//! has a hole and the breakdown is a lie), and the run must still fulfil
//! exactly the golden deadline count (the profiler is behaviourally
//! inert — a drifted count means a hook leaked into the engine).
//!
//! `serve` drives a [`ShardedRms`] over a synthetic workload while
//! publishing to a [`TelemetryHub`] served over HTTP by a
//! [`TelemetryServer`]: `/metrics` gets the phase/export registry,
//! `/healthz` per-shard liveness, `/snapshot` the most recent outcome
//! events as JSONL, and `/events` a live broadcast stream. The bound
//! address is printed as `TELEMETRY_ADDR=…` on stdout before the drive
//! starts, which is what the CI smoke step scrapes.

use cluster::Cluster;
use librisk::report::ReportSink;
use librisk::rms::drive_trace;
use librisk::{OnlineReport, PolicyKind, RouteBy, ShardedRms};
use obs::phase::{self, Counter, Phase};
use obs::{HealthReport, Registry, ShardHealth, TelemetryHub, TelemetryServer};
use sim::Rng64;
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;
use workload::Trace;

/// Jobs in the golden workload the profile replays.
pub const GOLDEN_JOBS: usize = 2_000;
/// The pinned fulfilled count for that workload (see the ledger's
/// `oracle.rs` and `sharded_rms.rs`).
pub const GOLDEN_FULFILLED: u64 = 1_563;

/// The lap-tiled advance phases — together they must cover the
/// `advance_total` bracket.
pub const ADVANCE_TILES: [Phase; 4] = [
    Phase::EventHeapPop,
    Phase::ProgressPass,
    Phase::RecomputeSweep,
    Phase::CompletionEmit,
];

/// The golden workload: SDSC-SP2-like
/// jobs (trace seed 11, deadline seed 12) on the full 128-node machine.
fn bench_trace(jobs: usize) -> Trace {
    let mut trace = SyntheticSdscSp2 {
        jobs,
        ..Default::default()
    }
    .generate(11);
    DeadlineModel::default().assign(&mut Rng64::new(12), trace.jobs_mut());
    trace
}

/// One phase's line in the profile breakdown.
#[derive(Debug, Clone, Copy)]
pub struct PhaseRow {
    /// The phase.
    pub phase: Phase,
    /// Total nanoseconds attributed.
    pub ns: u64,
    /// Entries (lap marks or span drops).
    pub calls: u64,
    /// Share of the `advance_total` bracket (only meaningful for the
    /// advance tiles; decide-path spans run outside the bracket).
    pub share_of_advance: f64,
    /// Upper-bound p99 of the per-flush duration distribution, ns.
    pub p99_ns: f64,
}

/// The assembled profile: per-phase rows, cache counters, and the
/// run-level anchors.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Jobs replayed.
    pub jobs: usize,
    /// Deadline-fulfilled completions (== [`GOLDEN_FULFILLED`] on the
    /// golden workload).
    pub fulfilled: u64,
    /// End-to-end wall clock of the drive, seconds.
    pub wall_secs: f64,
    /// Total nanoseconds inside `advance_total` brackets.
    pub advance_ns: u64,
    /// Sum of the advance tiles over [`Self::advance_ns`] — the phase
    /// taxonomy's coverage of the advance path.
    pub coverage: f64,
    /// Every phase that recorded anything, in taxonomy order.
    pub rows: Vec<PhaseRow>,
    /// Cache-machinery counters `(registry key, value)`, non-zero only.
    pub counters: Vec<(&'static str, u64)>,
}

/// Replays `jobs` of the golden workload through the plain LibraRisk
/// facade with the phase profiler on and assembles the breakdown.
///
/// # Panics
///
/// If the tiled phases cover less than 90 % of the advance bracket, or
/// if the golden-size run does not fulfil exactly [`GOLDEN_FULFILLED`]
/// — either way the profile would be misleading, so the subcommand
/// exits non-zero rather than printing it.
pub fn profile_probe(jobs: usize) -> ProfileReport {
    let trace = bench_trace(jobs);
    let cluster = Cluster::sdsc_sp2();
    phase::reset();
    phase::set_enabled(true);
    let mut sink = OnlineReport::new();
    let t0 = Instant::now();
    {
        let mut rms = PolicyKind::LibraRisk.rms(&cluster);
        drive_trace(&mut rms, &trace, &mut sink);
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    phase::set_enabled(false);
    let snap = phase::snapshot();
    phase::reset();

    let advance_ns = snap.ns(Phase::AdvanceTotal);
    let tiled: u64 = ADVANCE_TILES.iter().map(|&p| snap.ns(p)).sum();
    let coverage = tiled as f64 / advance_ns.max(1) as f64;
    let rows: Vec<PhaseRow> = Phase::ALL
        .into_iter()
        .filter(|&p| snap.calls(p) > 0)
        .map(|p| PhaseRow {
            phase: p,
            ns: snap.ns(p),
            calls: snap.calls(p),
            share_of_advance: snap.ns(p) as f64 / advance_ns.max(1) as f64,
            p99_ns: snap.quantile_ns(p, 0.99),
        })
        .collect();
    let counters: Vec<(&'static str, u64)> = Counter::ALL
        .into_iter()
        .map(|c| (c.key(), snap.counter(c)))
        .filter(|(_, v)| *v > 0)
        .collect();

    let report = ProfileReport {
        jobs,
        fulfilled: sink.fulfilled(),
        wall_secs,
        advance_ns,
        coverage,
        rows,
        counters,
    };
    assert!(
        report.coverage >= 0.90,
        "phase taxonomy covers only {:.1}% of the advance bracket \
         ({} of {} ns) — a hot phase is missing a lap mark",
        report.coverage * 100.0,
        tiled,
        advance_ns,
    );
    if jobs == GOLDEN_JOBS {
        assert_eq!(
            report.fulfilled, GOLDEN_FULFILLED,
            "profiler-on run drifted off the golden fulfilled count",
        );
    }
    report
}

impl ProfileReport {
    /// The per-phase rows as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("phase,key,ns_total,calls,share_of_advance,p99_ns\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{:.4},{:.0}\n",
                r.phase.name(),
                r.phase.ns_key(),
                r.ns,
                r.calls,
                r.share_of_advance,
                r.p99_ns,
            ));
        }
        out
    }

    /// The cache-machinery counters as CSV.
    pub fn counters_csv(&self) -> String {
        let mut out = String::from("counter,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("{k},{v}\n"));
        }
        out
    }

    /// Renders the breakdown as one standalone SVG: a stacked bar for
    /// the lap-tiled advance phases (plus the unattributed sliver) and
    /// a second stacked bar for the decide-path spans, both on the same
    /// nanosecond scale.
    pub fn to_svg(&self) -> String {
        const PALETTE: [&str; 6] = [
            "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#bab0ab",
        ];
        let tile_ns: Vec<(String, u64)> = ADVANCE_TILES
            .iter()
            .map(|&p| (p.name().to_string(), self.ns_of(p)))
            .collect();
        let tiled: u64 = tile_ns.iter().map(|(_, ns)| ns).sum();
        let mut advance_bar = tile_ns;
        advance_bar.push((
            "unattributed".to_string(),
            self.advance_ns.saturating_sub(tiled),
        ));
        let scan = self.ns_of(Phase::CandidateScan);
        let classify = self.ns_of(Phase::EquivClassify);
        let kernel = self.ns_of(Phase::VerdictKernel);
        let decide_bar = vec![
            ("equivalence classify".to_string(), classify),
            ("verdict kernel".to_string(), kernel),
            (
                "candidate scan (other)".to_string(),
                scan.saturating_sub(classify + kernel),
            ),
        ];
        let bars = [
            ("advance (lap-tiled)", advance_bar),
            ("decide (spans)", decide_bar),
        ];
        let scale_ns = bars
            .iter()
            .map(|(_, segs)| segs.iter().map(|(_, ns)| ns).sum::<u64>())
            .max()
            .unwrap_or(0)
            .max(1) as f64;

        let (width, bar_h, left, top, gap) = (760.0, 36.0, 170.0, 40.0, 28.0);
        let plot_w = width - left - 30.0;
        let mut out = String::new();
        let height = top + bars.len() as f64 * (bar_h + gap) + 26.0 * 6.0 + 20.0;
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
             viewBox=\"0 0 {width} {height}\" font-family=\"sans-serif\" font-size=\"12\">\n"
        ));
        out.push_str(&format!(
            "<text x=\"{left}\" y=\"20\" font-size=\"14\">Hot-path phase breakdown — \
             {} jobs, {} fulfilled, {:.1}% advance coverage</text>\n",
            self.jobs,
            self.fulfilled,
            self.coverage * 100.0,
        ));
        let mut y = top;
        let mut legend: Vec<(String, &str)> = Vec::new();
        for (label, segs) in &bars {
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{label}</text>\n",
                left - 8.0,
                y + bar_h * 0.65,
            ));
            let mut x = left;
            for (i, (name, ns)) in segs.iter().enumerate() {
                let w = plot_w * (*ns as f64 / scale_ns);
                let color = PALETTE[i % PALETTE.len()];
                if w > 0.0 {
                    out.push_str(&format!(
                        "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{bar_h}\" \
                         fill=\"{color}\"><title>{name}: {ns} ns</title></rect>\n"
                    ));
                }
                if legend.iter().all(|(n, _)| n != name) {
                    legend.push((name.clone(), color));
                }
                x += w;
            }
            y += bar_h + gap;
        }
        for (i, (name, color)) in legend.iter().enumerate() {
            let ly = y + i as f64 * 22.0;
            out.push_str(&format!(
                "<rect x=\"{left}\" y=\"{ly:.1}\" width=\"14\" height=\"14\" fill=\"{color}\"/>\n\
                 <text x=\"{:.1}\" y=\"{:.1}\">{name}</text>\n",
                left + 20.0,
                ly + 11.0,
            ));
        }
        out.push_str("</svg>\n");
        out
    }

    fn ns_of(&self, p: Phase) -> u64 {
        self.rows
            .iter()
            .find(|r| r.phase == p)
            .map(|r| r.ns)
            .unwrap_or(0)
    }
}

/// Knobs for the `serve` drive.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Jobs in the synthetic workload.
    pub jobs: usize,
    /// Shards the 128-node machine is split into.
    pub shards: usize,
    /// How long to keep serving after the drive finishes, seconds
    /// (cut short by `GET /shutdown`).
    pub linger_secs: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            jobs: 2_000,
            shards: 4,
            linger_secs: 30.0,
            seed: 1,
        }
    }
}

/// What the drive amounted to, for the subcommand's closing table.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Jobs submitted through the router.
    pub submitted: u64,
    /// Deadline-fulfilled completions.
    pub fulfilled: u64,
    /// Publish rounds (advance chunks) pushed to the hub.
    pub publishes: u64,
    /// Whether the linger ended via `GET /shutdown` (vs timing out).
    pub shut_down_remotely: bool,
}

/// Outcome events of recent advances kept for `/snapshot`.
const SNAPSHOT_RING: usize = 256;

/// Drives a sharded LibraRisk fleet over a synthetic workload while
/// serving live telemetry over HTTP, then lingers so scrapers can read
/// the final state. Prints `TELEMETRY_ADDR=<ip:port>` on stdout before
/// the drive starts.
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, String> {
    // Procs capped at 2 so every job fits even small shards (mirrors
    // the shard-scaling sweep).
    let mut trace = SyntheticSdscSp2 {
        jobs: opts.jobs,
        max_procs: 2,
        ..Default::default()
    }
    .generate(opts.seed);
    DeadlineModel::default().assign(&mut Rng64::new(opts.seed ^ 0x9e37), trace.jobs_mut());
    let shards = opts.shards.max(1);
    let nodes = (Cluster::sdsc_sp2().len() / shards).max(1);
    let sub = Cluster::homogeneous(nodes, 168.0);

    let hub = Arc::new(TelemetryHub::new());
    let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&hub))
        .map_err(|e| format!("cannot bind telemetry server: {e}"))?;
    println!("TELEMETRY_ADDR={}", server.local_addr());
    let _ = std::io::stdout().flush();

    phase::reset();
    phase::set_enabled(true);
    let mut router = ShardedRms::new(
        (0..shards)
            .map(|_| PolicyKind::LibraRisk.rms(&sub))
            .collect(),
        RouteBy::JobHash,
    )
    .map_err(|e| format!("cannot build router: {e:?}"))?;
    let mut sink = OnlineReport::new();
    let mut recent: VecDeque<String> = VecDeque::with_capacity(SNAPSHOT_RING);
    let chunk = (trace.len() / 64).max(1);
    let mut publishes = 0u64;
    for (i, job) in trace.jobs().iter().enumerate() {
        let now = job.submit;
        router.submit(job.clone(), now);
        if (i + 1) % chunk == 0 {
            publish_round(&hub, &mut router, &mut sink, &mut recent, now)?;
            publishes += 1;
        }
    }
    router
        .drain_with(|e| {
            push_event(&mut recent, &e);
            sink.record(e.seq, e.record);
        })
        .map_err(|e| format!("shard panicked during drain: {e:?}"))?;
    publish_state(&hub, &router, &recent);
    publishes += 1;
    phase::set_enabled(false);
    hub.broadcast(&format!(
        "{{\"type\":\"done\",\"submitted\":{},\"fulfilled\":{}}}",
        router.submitted(),
        sink.fulfilled(),
    ));

    let t0 = Instant::now();
    while !hub.closed() && t0.elapsed().as_secs_f64() < opts.linger_secs {
        std::thread::sleep(Duration::from_millis(100));
    }
    let shut_down_remotely = hub.closed();
    let summary = ServeSummary {
        submitted: router.submitted(),
        fulfilled: sink.fulfilled(),
        publishes,
        shut_down_remotely,
    };
    drop(router);
    server.shutdown();
    phase::reset();
    Ok(summary)
}

/// One advance chunk: advance every shard to "now", stream outcomes to
/// the report + the hub, then republish metrics/health/snapshot.
fn publish_round(
    hub: &Arc<TelemetryHub>,
    router: &mut ShardedRms<'_>,
    sink: &mut OnlineReport,
    recent: &mut VecDeque<String>,
    now: sim::SimTime,
) -> Result<(), String> {
    router
        .advance_with(now, |e| {
            let line = event_jsonl(&e);
            hub.broadcast(&line);
            push_line(recent, line);
            sink.record(e.seq, e.record);
        })
        .map_err(|e| format!("shard panicked during advance: {e:?}"))?;
    publish_state(hub, router, recent);
    Ok(())
}

/// Publishes the registry, health report, and snapshot ring.
fn publish_state(hub: &Arc<TelemetryHub>, router: &ShardedRms<'_>, recent: &VecDeque<String>) {
    let mut reg = Registry::new();
    phase::snapshot().export_into(&mut reg);
    hub.publish_registry(&reg);
    let watermark = router
        .shards()
        .iter()
        .map(|s| s.now().as_secs())
        .fold(0.0f64, f64::max);
    hub.set_health(HealthReport {
        ok: true,
        last_advance: watermark,
        shards: router
            .shards()
            .iter()
            .enumerate()
            .map(|(i, s)| ShardHealth {
                shard: i,
                in_flight: s.in_flight() as u64,
                submitted: s.submitted(),
                lag_secs: watermark - s.now().as_secs(),
            })
            .collect(),
    });
    let mut jsonl = String::new();
    for line in recent {
        jsonl.push_str(line);
        jsonl.push('\n');
    }
    hub.publish_snapshot(jsonl);
}

fn push_event(recent: &mut VecDeque<String>, e: &librisk::rms::JobEvent) {
    let line = event_jsonl(e);
    push_line(recent, line);
}

fn push_line(recent: &mut VecDeque<String>, line: String) {
    if recent.len() == SNAPSHOT_RING {
        recent.pop_front();
    }
    recent.push_back(line);
}

/// One resolved outcome as a JSONL line (hand-rolled; no serializer).
fn event_jsonl(e: &librisk::rms::JobEvent) -> String {
    use librisk::report::Outcome;
    let id = e.record.job.id.0;
    match e.record.outcome {
        Outcome::Completed { started, finish } => format!(
            "{{\"type\":\"job\",\"seq\":{},\"job\":{id},\"outcome\":\"completed\",\
             \"started\":{},\"finish\":{},\"fulfilled\":{}}}",
            e.seq,
            started.as_secs(),
            finish.as_secs(),
            e.record.fulfilled(),
        ),
        Outcome::Rejected { at, reason } => format!(
            "{{\"type\":\"job\",\"seq\":{},\"job\":{id},\"outcome\":\"rejected\",\
             \"at\":{},\"reason\":\"{}\"}}",
            e.seq,
            at.as_secs(),
            reason.code(),
        ),
        Outcome::Killed { at, node } => format!(
            "{{\"type\":\"job\",\"seq\":{},\"job\":{id},\"outcome\":\"killed\",\
             \"at\":{},\"node\":{}}}",
            e.seq,
            at.as_secs(),
            node.0,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both runners toggle the process-global profiler; serialize them.
    fn with_profiler_lock(f: impl FnOnce()) {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f();
    }

    #[test]
    fn quick_profile_covers_the_advance_bracket() {
        with_profiler_lock(|| {
            let report = profile_probe(250);
            assert!(report.coverage >= 0.90, "coverage {:.3}", report.coverage);
            assert!(report.advance_ns > 0);
            assert!(report
                .rows
                .iter()
                .any(|r| r.phase == Phase::ProgressPass && r.calls > 0));
            assert!(
                report
                    .counters
                    .iter()
                    .any(|(k, _)| *k == Counter::ProjectionsRun.key()),
                "decision counters recorded"
            );
            let csv = report.to_csv();
            assert!(csv.lines().count() > 3);
            assert!(csv.contains("phase_advance_total_ns_total"));
            let svg = report.to_svg();
            assert!(svg.starts_with("<svg"));
            assert!(svg.contains("progress pass"));
        });
    }

    #[test]
    fn serve_drive_publishes_and_returns_after_linger() {
        let opts = ServeOptions {
            jobs: 120,
            shards: 2,
            // A zero linger returns right after the drive; the HTTP
            // endpoints themselves are covered by obs's socket tests
            // and the CI smoke step.
            linger_secs: 0.0,
            seed: 1,
        };
        with_profiler_lock(|| {
            let summary = serve(&opts).expect("serve ran");
            assert_eq!(summary.submitted, 120);
            assert!(summary.publishes > 0);
            assert!(!summary.shut_down_remotely, "nobody called /shutdown");
        });
    }
}
