//! Checkpoint probe behind `experiments checkpoint`.
//!
//! Reports the snapshot size of the crash-safety layer on the standard
//! churn scenario and validates the properties the layer promises,
//! failing loudly (panic → non-zero exit) if any breaks:
//!
//! * **normal form**: the restored RMS re-saves to exactly the loaded
//!   bytes, `save(restore(load(b))) == b`,
//! * **bitwise resume**: checkpointing mid-run and restoring into a
//!   blank RMS finishes with exactly the unbroken run's outcomes, and
//! * **loud corruption**: a flipped bit in the snapshot is detected as
//!   a structured error, never a silent misparse.

use crate::figures::FigureConfig;
use crate::obs_run::obs_scenario;
use cluster::RecoveryPolicy;
use librisk::ckpt;
use librisk::report::JobRecord;
use librisk::{ClusterRms, PolicyKind};
use workload::Job;

/// One checkpoint probe run: snapshot size plus validation verdicts.
#[derive(Debug)]
pub struct CheckpointProbe {
    /// Jobs in the scenario trace.
    pub jobs: usize,
    /// Jobs submitted before the snapshot was taken.
    pub cut: usize,
    /// Serialized snapshot size in bytes.
    pub snapshot_bytes: usize,
    /// Deadline-fulfilled count of the unbroken run (equals the resumed
    /// run's — asserted).
    pub fulfilled: u64,
    /// Whether a flipped bit in the snapshot surfaced as a structured
    /// error (asserted true).
    pub corruption_detected: bool,
}

impl CheckpointProbe {
    /// CSV rendering (one header + one row).
    pub fn to_csv(&self) -> String {
        format!(
            "jobs,cut,snapshot_bytes,fulfilled,corruption_detected\n\
             {},{},{},{},{}\n",
            self.jobs, self.cut, self.snapshot_bytes, self.fulfilled, self.corruption_detected,
        )
    }
}

/// Advances to each arrival and submits, folding resolved events into
/// `out`.
fn drive(rms: &mut ClusterRms<'_>, jobs: &[Job], out: &mut Vec<(u64, JobRecord)>) {
    for job in jobs {
        out.extend(rms.advance(job.submit).map(|e| (e.seq, e.record)));
        rms.submit(job.clone(), job.submit);
    }
}

fn fulfilled_count(records: &[(u64, JobRecord)]) -> u64 {
    records.iter().filter(|(_, r)| r.fulfilled()).count() as u64
}

/// Runs the probe on the standard churn scenario with
/// [`PolicyKind::LibraRisk`].
///
/// # Panics
///
/// If the restored RMS re-saves to different bytes, the resumed run
/// diverges from the unbroken run, or a corrupted snapshot loads — all
/// are crash-safety bugs, never tuning matters, so the subcommand exits
/// non-zero rather than printing a wrong table.
pub fn checkpoint_probe(cfg: &FigureConfig) -> CheckpointProbe {
    let policy = PolicyKind::LibraRisk;
    let scenario = obs_scenario(cfg);
    let trace = scenario.build_trace();
    let cluster = scenario.cluster();
    let plan = scenario.fault_plan(&trace);
    let cut = trace.len() / 2;

    // Unbroken arm.
    let mut unbroken = Vec::new();
    let mut rms = policy
        .rms(&cluster)
        .with_faults(plan.clone(), RecoveryPolicy::Requeue);
    drive(&mut rms, trace.jobs(), &mut unbroken);
    unbroken.extend(rms.drain().map(|e| (e.seq, e.record)));

    // Checkpointed arm: drive to the cut, snapshot, restore, continue.
    let mut resumed = Vec::new();
    let mut rms = policy
        .rms(&cluster)
        .with_faults(plan.clone(), RecoveryPolicy::Requeue);
    drive(&mut rms, &trace.jobs()[..cut], &mut resumed);
    let bytes = ckpt::save(&rms, None);
    drop(rms);
    let mut rms = ckpt::load(&bytes)
        .expect("fresh snapshot must load")
        .restore_into(policy.rms(&cluster))
        .expect("snapshot must restore into a matching blank");
    assert!(
        ckpt::save(&rms, None) == bytes,
        "the restored RMS re-saved to different bytes"
    );
    drive(&mut rms, &trace.jobs()[cut..], &mut resumed);
    resumed.extend(rms.drain().map(|e| (e.seq, e.record)));

    assert_eq!(
        unbroken.len(),
        resumed.len(),
        "resumed run resolved a different number of jobs"
    );
    for ((us, ur), (rs, rr)) in unbroken.iter().zip(&resumed) {
        assert_eq!(us, rs, "resumed run diverged from the unbroken run");
        assert_eq!(
            ur.fulfilled(),
            rr.fulfilled(),
            "seq {us}: resumed outcome diverged from the unbroken run"
        );
    }

    // Corruption smoke: one flipped bit mid-snapshot must be detected.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    let corruption_detected = ckpt::load(&corrupt).is_err();
    assert!(
        corruption_detected,
        "a corrupted snapshot loaded without an error"
    );

    CheckpointProbe {
        jobs: trace.len(),
        cut,
        snapshot_bytes: bytes.len(),
        fulfilled: fulfilled_count(&unbroken),
        corruption_detected,
    }
}
