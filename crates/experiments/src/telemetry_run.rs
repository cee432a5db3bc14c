//! Telemetry-plane runner: the `experiments serve` live HTTP drive.
//!
//! `serve` drives a [`ShardedRms`] over a synthetic workload while
//! publishing to a [`TelemetryHub`] served over HTTP by a
//! [`TelemetryServer`]: `/metrics` gets the phase profiler's registry,
//! `/healthz` per-shard liveness, `/snapshot` the most recent outcome
//! events as JSONL, and `/events` a live broadcast stream. The bound
//! address is printed as `TELEMETRY_ADDR=…` on stdout before the drive
//! starts, which is what the CI smoke step scrapes.

use cluster::Cluster;
use librisk::report::ReportSink;
use librisk::{OnlineReport, PolicyKind, RouteBy, ShardedRms};
use obs::phase;
use obs::{HealthReport, ShardHealth, TelemetryHub, TelemetryServer};
use sim::Rng64;
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;

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
    hub.publish_registry(&phase::snapshot());
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

    /// Both tests toggle the process-global profiler; serialize them.
    fn with_profiler_lock(f: impl FnOnce()) {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f();
    }

    /// The lap-tiled advance phases must cover ≥ 90 % of the
    /// `advance_total` bracket on a profiled replay of the golden trace
    /// (trace seed 11, deadline seed 12; its first 250 jobs). Less means
    /// a hot phase lost its lap mark, and the per-phase keys `/metrics`
    /// serves would misattribute the advance path's time.
    #[test]
    fn quick_profile_covers_the_advance_bracket() {
        use librisk::rms::drive_trace;
        use obs::phase::{Counter, Phase};
        let mut trace = SyntheticSdscSp2 {
            jobs: 250,
            ..Default::default()
        }
        .generate(11);
        DeadlineModel::default().assign(&mut Rng64::new(12), trace.jobs_mut());
        with_profiler_lock(|| {
            phase::reset();
            phase::set_enabled(true);
            let mut rms = PolicyKind::LibraRisk.rms(&Cluster::sdsc_sp2());
            drive_trace(&mut rms, &trace, &mut OnlineReport::new());
            drop(rms);
            phase::set_enabled(false);
            let snap = phase::snapshot();
            phase::reset();
            let advance = snap.counter(Phase::AdvanceTotal.ns_key());
            let tiled: u64 = [
                Phase::EventHeapPop,
                Phase::ProgressPass,
                Phase::RecomputeSweep,
                Phase::CompletionEmit,
            ]
            .iter()
            .map(|p| snap.counter(p.ns_key()))
            .sum();
            assert!(advance > 0, "no advance bracket was sampled");
            assert!(
                tiled as f64 >= 0.90 * advance as f64,
                "lap tiles cover {tiled} of {advance} ns of the advance bracket"
            );
            assert!(snap.counter(Counter::ProjectionsRun.key()) > 0);
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
