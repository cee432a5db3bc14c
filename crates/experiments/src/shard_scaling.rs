//! The `shard-scaling` experiment: deadline-fulfilled jobs of the
//! [`librisk::ShardedRms`] router as the 128-node machine is split into
//! ever more (and ever smaller) LibraRisk shards.
//!
//! Every cell replays the *identical* tiled workload (arrivals capped at
//! 2 procs so they fit the smallest shard of the sweep) under
//! [`librisk::RouteBy::JobHash`] placement, so the curve isolates what
//! splitting the machine costs admission: each shard decides over fewer
//! nodes. It reports no timings; the ledger's `sharded-stream` and
//! `sharded-batch` workloads time the router. Because hash placement
//! depends only on the job id and the Libra economy is per-cluster, each
//! cell must resolve *bit-for-bit* the same outcomes as the union of
//! `shards` independent unsharded runs over the same hash partition —
//! the runner re-derives that oracle and refuses to report a row whose
//! fulfilled count diverges (for one shard, the oracle literally *is*
//! the unsharded run).

use crate::figures::FigureConfig;
use cluster::Cluster;
use librisk::report::ReportSink;
use librisk::{job_hash_shard, OnlineReport, PolicyKind, RouteBy, ShardedRms};
use metrics::svg::{self, SvgOptions};
use metrics::Series;
use sim::{Rng64, SimDuration};
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;
use workload::{Job, JobId};

/// The shard counts swept — the same ladder as the committed
/// `sharded_driver` benchmark baseline.
pub const SHARD_LADDER: [usize; 4] = [1, 4, 16, 64];

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ShardScalingRow {
    /// Shards behind the router (the 128 nodes split evenly).
    pub shards: usize,
    /// Jobs replayed end to end.
    pub jobs: u64,
    /// Deadline-fulfilled completions reported by the router run.
    pub fulfilled: u64,
    /// Fulfilled completions summed over `shards` independent unsharded
    /// runs of the same hash partition — must equal [`Self::fulfilled`].
    pub oracle_fulfilled: u64,
}

impl ShardScalingRow {
    /// Whether the router matched the union-of-unsharded-runs oracle.
    pub fn identity_ok(&self) -> bool {
        self.fulfilled == self.oracle_fulfilled
    }
}

/// Builds the tiled workload: the standard synthetic SDSC-SP2 arrival
/// process (procs capped at 2 so every job fits a 2-node shard), tiled
/// end to end until `total` jobs by shifting submit times by whole base
/// spans. Ids stay globally unique so hash placement is well defined.
fn tiled_workload(base_jobs: usize, total: u64, seed: u64) -> Vec<Job> {
    let mut trace = SyntheticSdscSp2 {
        jobs: base_jobs,
        max_procs: 2,
        ..Default::default()
    }
    .generate(seed);
    DeadlineModel::default().assign(&mut Rng64::new(seed ^ 0x9e37), trace.jobs_mut());
    let base = trace.jobs();
    let last = base.last().map(|j| j.submit.as_secs()).unwrap_or(0.0);
    let span = last + (last / base.len().max(1) as f64).max(1.0);
    (0..total)
        .map(|i| {
            let b = &base[(i % base.len() as u64) as usize];
            let mut j = b.clone();
            j.id = JobId(i);
            j.submit = b.submit + SimDuration::from_secs(span * (i / base.len() as u64) as f64);
            j
        })
        .collect()
}

/// Runs the sweep. Cells replay `25 ×` the configured trace size (so
/// even `--quick` drives a few thousand jobs per cell); each cell runs
/// through the router, then is checked against the unsharded oracle.
///
/// # Panics
///
/// If any cell's fulfilled count diverges from its oracle — a routing or
/// merge bug, never a tuning matter — so the subcommand exits non-zero
/// rather than plotting a wrong curve.
pub fn shard_scaling(cfg: &FigureConfig) -> Vec<ShardScalingRow> {
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let base_jobs = cfg.jobs.max(300);
    let total = base_jobs as u64 * 25;
    let workload = tiled_workload(base_jobs, total, seed);
    let mut rows = Vec::new();
    for shards in SHARD_LADDER {
        let nodes = (Cluster::sdsc_sp2().len() / shards).max(1);
        let sub = Cluster::homogeneous(nodes, 168.0);

        // Router run: advances chunked once per workload tile (the
        // facade's equivalence contract keeps chunked advancing
        // outcome-identical; rare fan-outs amortise the thread scope).
        let mut router = ShardedRms::new(
            (0..shards)
                .map(|_| PolicyKind::LibraRisk.rms(&sub))
                .collect(),
            RouteBy::JobHash,
        )
        .expect("shard ladder never builds an empty router");
        let mut sink = OnlineReport::new();
        for (i, job) in workload.iter().enumerate() {
            let now = job.submit;
            router.submit(job.clone(), now);
            if (i + 1) % base_jobs == 0 {
                router
                    .advance_with(now, |e| sink.record(e.seq, e.record))
                    .expect("no shard panics in the scaling sweep");
            }
        }
        router
            .drain_with(|e| sink.record(e.seq, e.record))
            .expect("no shard panics in the scaling sweep");

        // Oracle: one plain (unsharded) run per hash class over the same
        // sub-cluster, summed.
        let mut oracle_fulfilled = 0;
        for s in 0..shards {
            let mut rms = PolicyKind::LibraRisk.rms(&sub);
            let mut oracle = OnlineReport::new();
            for job in workload.iter() {
                if job_hash_shard(job.id, shards) == s {
                    rms.submit(job.clone(), job.submit);
                }
            }
            for e in rms.drain() {
                oracle.record(e.seq, e.record);
            }
            oracle_fulfilled += oracle.fulfilled();
        }

        let row = ShardScalingRow {
            shards,
            jobs: total,
            fulfilled: sink.fulfilled(),
            oracle_fulfilled,
        };
        assert!(
            row.identity_ok(),
            "shard-scaling identity check failed at {} shards: router fulfilled {} \
             vs union-of-unsharded-runs {}",
            row.shards,
            row.fulfilled,
            row.oracle_fulfilled,
        );
        rows.push(row);
    }
    rows
}

/// Renders the fulfilled-vs-shards curve as one standalone SVG.
pub fn shard_scaling_svg(rows: &[ShardScalingRow]) -> String {
    let mut s = Series::new("jobs fulfilled");
    for r in rows {
        s.observe(r.shards as f64, r.fulfilled as f64);
    }
    svg::render(
        &[&s],
        &SvgOptions {
            title: "Sharded router: deadline-fulfilled jobs".into(),
            x_label: "shards (128 nodes split evenly)".into(),
            y_label: "jobs fulfilled".into(),
            ..Default::default()
        },
    )
}

/// The sweep rows as CSV.
pub fn shard_scaling_csv(rows: &[ShardScalingRow]) -> String {
    let mut out = String::from("shards,jobs,fulfilled,oracle_fulfilled,identity\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            r.shards,
            r.jobs,
            r.fulfilled,
            r.oracle_fulfilled,
            if r.identity_ok() { "ok" } else { "MISMATCH" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_holds_identity_and_renders() {
        let cfg = FigureConfig::quick();
        let rows = shard_scaling(&cfg);
        assert_eq!(rows.len(), SHARD_LADDER.len());
        for r in &rows {
            assert!(r.identity_ok());
            assert!(r.fulfilled > 0);
        }
        // Every cell replays the identical workload, so the total
        // resolved volume matches across cells even though placement
        // differs; the 1-shard cell is the literal unsharded run.
        assert_eq!(rows[0].shards, 1);
        let csv = shard_scaling_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.contains(",ok"));
        let svg_doc = shard_scaling_svg(&rows);
        assert!(svg_doc.starts_with("<svg") || svg_doc.contains("<svg"));
    }
}
