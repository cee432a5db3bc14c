//! Crash-safety suite for `librisk::ckpt`.
//!
//! Three pillars pin the checkpoint subsystem:
//!
//! 1. **Bitwise resume.** Checkpointing at a random instant mid-run and
//!    restoring into a blank RMS must continue *bitwise identically* to
//!    the unbroken run — same event stream, same outcome instants to
//!    the bit, same churn and utilisation — for every policy in the
//!    catalogue, under node churn (proptest).
//!
//! 2. **Corruption is loud.** Any truncation and any bit flip anywhere
//!    in a snapshot must surface as a structured [`CkptError`] — never
//!    a panic, never a silently misparsed state (proptest). The
//!    [`CheckpointStore`] recovery path falls back past corrupt
//!    snapshots to the newest good one.
//!
//! 3. **Reshard restore.** Restoring an N-shard checkpoint into M
//!    blanks (grow and shrink) under [`RouteBy::JobHash`] stays equal
//!    to the union of independent per-shard runs: a job submitted
//!    before the reshard routes by `hash mod N`, after it by
//!    `hash mod M`. Shrinking onto non-quiescent shards is refused.
//!
//! A golden fixture (`tests/fixtures/golden.ckpt`) pins the wire format
//! itself: regenerate with `LIBRISK_REGEN_GOLDEN=1 cargo test -p
//! librisk --test checkpoint` after a deliberate format change (and
//! bump `ckpt::VERSION`). `golden_v1.ckpt` keeps a file of the retired
//! v1 layout, which must be refused by its version.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use cluster::Cluster;
use librisk::ckpt::{self, CkptError};
use librisk::prelude::*;
use librisk::report::JobRecord;
use librisk::{job_hash_shard, PolicyKind};
use proptest::prelude::*;
use sim::{Rng64, SimDuration, SimTime};
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;

/// The golden-fixture scenario (mirrors `sharded_rms.rs`).
fn synthetic_trace(jobs: usize, seed: u64) -> Trace {
    let mut trace = SyntheticSdscSp2 {
        jobs,
        ..Default::default()
    }
    .generate(seed);
    DeadlineModel::default().assign(&mut Rng64::new(seed ^ 0x9e37), trace.jobs_mut());
    trace
}

/// Fingerprint of one outcome with bit-exact instants.
fn key(outcome: &Outcome) -> (u8, u64, u64) {
    match *outcome {
        Outcome::Rejected { at, .. } => (0, at.as_secs().to_bits(), 0),
        Outcome::Completed { started, finish } => {
            (1, started.as_secs().to_bits(), finish.as_secs().to_bits())
        }
        Outcome::Killed { at, .. } => (2, at.as_secs().to_bits(), 0),
    }
}

/// A churn plan spanning the trace (fail + restore events mid-run).
fn churn_plan(trace: &Trace, nodes: usize, seed: u64) -> FaultPlan {
    let span = trace
        .jobs()
        .last()
        .map(|j| j.submit.as_secs())
        .unwrap_or(0.0)
        + 5_000.0;
    FaultPlan::exponential(
        nodes,
        span / 4.0,
        span / 16.0,
        SimTime::from_secs(span),
        seed,
    )
}

/// Advances to each arrival and submits, collecting resolved events.
fn drive(rms: &mut ClusterRms<'_>, jobs: &[Job], out: &mut Vec<(u64, JobRecord)>) {
    for job in jobs {
        out.extend(rms.advance(job.submit).map(|e| (e.seq, e.record)));
        rms.submit(job.clone(), job.submit);
    }
}

fn drain_into(rms: &mut ClusterRms<'_>, out: &mut Vec<(u64, JobRecord)>) {
    out.extend(rms.drain().map(|e| (e.seq, e.record)));
}

/// A fresh scratch directory under the system temp dir, unique per
/// call within this test process.
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("librisk-ckpt-{}-{label}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

// ---------------------------------------------------------------------
// Pillar 1: bitwise checkpoint/resume for every policy, under churn.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Checkpoint at a random instant + resume == the unbroken run, to
    // the bit, for the full policy catalogue under node churn. Also
    // pins canonical encoding: re-saving the restored RMS reproduces
    // the checkpoint bytes exactly.
    #[test]
    fn checkpoint_resume_is_bitwise_equal_for_every_policy(
        seed in 0u64..500,
        cut_frac in 0.0..1.0f64,
    ) {
        let trace = synthetic_trace(48, seed);
        let cluster = Cluster::homogeneous(8, 168.0);
        let plan = churn_plan(&trace, 8, seed ^ 0xFA11);
        let cut = ((trace.len() as f64 * cut_frac) as usize).min(trace.len());

        for kind in PolicyKind::ALL {
            // Unbroken arm.
            let mut unbroken = Vec::new();
            let mut rms = kind
                .rms(&cluster)
                .with_faults(plan.clone(), RecoveryPolicy::Requeue);
            drive(&mut rms, trace.jobs(), &mut unbroken);
            drain_into(&mut rms, &mut unbroken);
            let unbroken_util = rms.utilization();
            let unbroken_churn = *rms.churn();

            // Checkpointed arm: drive to the cut, snapshot, restore
            // into a blank, continue.
            let mut resumed = Vec::new();
            let mut rms = kind
                .rms(&cluster)
                .with_faults(plan.clone(), RecoveryPolicy::Requeue);
            drive(&mut rms, &trace.jobs()[..cut], &mut resumed);
            let bytes = ckpt::save(&rms, None);
            drop(rms);
            let loaded = ckpt::load(&bytes).unwrap();
            let mut rms = loaded.restore_into(kind.rms(&cluster)).unwrap();
            prop_assert_eq!(
                ckpt::save(&rms, None),
                bytes,
                "{:?}: re-saving the restored RMS must reproduce the snapshot",
                kind
            );
            drive(&mut rms, &trace.jobs()[cut..], &mut resumed);
            drain_into(&mut rms, &mut resumed);

            prop_assert_eq!(
                unbroken.len(),
                resumed.len(),
                "{:?} seed {} cut {}: event counts",
                kind, seed, cut
            );
            for ((us, ur), (rs, rr)) in unbroken.iter().zip(&resumed) {
                prop_assert_eq!(us, rs, "{:?}: seq diverged after resume", kind);
                prop_assert_eq!(&ur.job, &rr.job, "{:?} seq {}: job", kind, us);
                prop_assert_eq!(
                    key(&ur.outcome),
                    key(&rr.outcome),
                    "{:?} seed {} cut {} seq {}: outcome bits diverged after resume",
                    kind, seed, cut, us
                );
            }
            prop_assert_eq!(
                unbroken_util.to_bits(),
                rms.utilization().to_bits(),
                "{:?}: utilisation bits",
                kind
            );
            prop_assert_eq!(unbroken_churn, *rms.churn(), "{:?}: churn", kind);
        }
    }
}

// ---------------------------------------------------------------------
// Pillar 2: corruption injection — always a structured error.
// ---------------------------------------------------------------------

/// A representative mid-flight snapshot: residents + queue + pending
/// events + mid-cursor fault plan + a report section.
fn sample_snapshot() -> Vec<u8> {
    let trace = synthetic_trace(40, 77);
    let cluster = Cluster::homogeneous(8, 168.0);
    let plan = churn_plan(&trace, 8, 0xBADD);
    let mut rms = PolicyKind::LibraRisk
        .rms(&cluster)
        .with_faults(plan, RecoveryPolicy::Requeue);
    let mut sink = OnlineReport::new();
    for job in &trace.jobs()[..25] {
        for e in rms.advance(job.submit) {
            sink.record(e.seq, e.record);
        }
        rms.submit(job.clone(), job.submit);
    }
    ckpt::save(&rms, Some(&sink))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Every strict prefix of a snapshot fails to load with a structured
    // error (and never panics).
    #[test]
    fn truncation_is_always_detected(frac in 0.0..1.0f64) {
        let bytes = sample_snapshot();
        let cut = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        let err = ckpt::load(&bytes[..cut]).expect_err("truncated snapshot must not load");
        // Any variant but a filesystem error is a legitimate diagnosis.
        prop_assert!(!matches!(err, CkptError::Io(_)), "unexpected Io: {}", err);
    }

    // Bit flips at arbitrary offsets are always detected. (Multiple
    // flips may cancel; skip the no-op case by comparing buffers.)
    #[test]
    fn bit_flips_are_always_detected(
        flips in proptest::collection::vec((0usize..1_000_000, 0u32..8), 1..5),
    ) {
        let bytes = sample_snapshot();
        let mut corrupt = bytes.clone();
        for (off, bit) in flips {
            let off = off % corrupt.len();
            corrupt[off] ^= 1 << bit;
        }
        if corrupt != bytes {
            let err = ckpt::load(&corrupt).expect_err("corrupted snapshot must not load");
            prop_assert!(!matches!(err, CkptError::Io(_)), "unexpected Io: {}", err);
        }
    }
}

#[test]
fn version_bump_is_rejected_structurally() {
    // A reader refuses any version but its own by the version word alone,
    // before it parses a section: the next version, and the retired v1
    // layout (the golden fixture as committed before BACKEND dropped its
    // per-node busy vector), which would otherwise misparse as Malformed.
    let mut next = sample_snapshot();
    // Version is the u32 after the 8-byte magic.
    next[8..12].copy_from_slice(&(ckpt::VERSION + 1).to_le_bytes());
    let v1 =
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v1.ckpt"))
            .expect("retired v1 fixture");
    assert_eq!(v1[8..12], 1u32.to_le_bytes(), "the retired fixture is v1");
    for (bytes, version) in [(next, ckpt::VERSION + 1), (v1, 1)] {
        match ckpt::load(&bytes) {
            Err(CkptError::UnsupportedVersion(v)) => assert_eq!(v, version),
            Err(e) => panic!("v{version} refused as {e}, not as its version"),
            Ok(_) => panic!("v{version} loaded"),
        }
    }
    let mut garbage = sample_snapshot();
    garbage[0] ^= 0xFF;
    assert!(matches!(ckpt::load(&garbage), Err(CkptError::BadMagic)));
}

#[test]
fn store_falls_back_to_the_last_good_snapshot() {
    let dir = scratch_dir("store");
    let store = ckpt::CheckpointStore::open(&dir).unwrap();
    assert!(store.load_latest().unwrap().is_none(), "empty store");

    let good = store.save(&sample_snapshot()).unwrap();
    let newer = store.save(&sample_snapshot()).unwrap();
    assert_ne!(good, newer);

    // Tear the newest snapshot: recovery must fall back to `good`.
    let mut bytes = std::fs::read(&newer).unwrap();
    let cut = bytes.len() / 2;
    bytes.truncate(cut);
    std::fs::write(&newer, &bytes).unwrap();
    let (path, ckpt) = store.load_latest().unwrap().expect("good snapshot remains");
    assert_eq!(path, good);
    assert_eq!(ckpt.policy_name(), "LibraRisk");
    assert_eq!(ckpt.submitted(), 25);

    // Corrupt the last good one too: recovery reports "nothing usable",
    // not an error.
    let mut bytes = std::fs::read(&good).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&good, &bytes).unwrap();
    assert!(store.load_latest().unwrap().is_none());

    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Restore-target validation.
// ---------------------------------------------------------------------

#[test]
fn restore_refuses_a_mismatched_or_dirty_blank() {
    let bytes = sample_snapshot();
    let loaded = ckpt::load(&bytes).unwrap();
    let cluster = Cluster::homogeneous(8, 168.0);

    // Wrong policy.
    let err = loaded
        .restore_into(PolicyKind::Libra.rms(&cluster))
        .err()
        .expect("wrong policy must be refused");
    assert!(matches!(err, CkptError::Mismatch(_)), "{err}");

    // Wrong cluster.
    let err = loaded
        .restore_into(PolicyKind::LibraRisk.rms(&Cluster::homogeneous(4, 168.0)))
        .err()
        .expect("wrong cluster must be refused");
    assert!(matches!(err, CkptError::Mismatch(_)), "{err}");

    // Non-blank target.
    let mut dirty = PolicyKind::LibraRisk.rms(&cluster);
    let job = synthetic_trace(1, 3).jobs()[0].clone();
    let now = job.submit;
    dirty.submit(job, now);
    let err = loaded
        .restore_into(dirty)
        .err()
        .expect("dirty target must be refused");
    assert!(matches!(err, CkptError::Mismatch(_)), "{err}");

    // The matching blank restores fine.
    let restored = loaded
        .restore_into(PolicyKind::LibraRisk.rms(&cluster))
        .unwrap();
    assert_eq!(restored.submitted(), 25);
}

// ---------------------------------------------------------------------
// Report round-trip and the recorder's absence from the snapshot.
// ---------------------------------------------------------------------

#[test]
fn report_round_trip() {
    let trace = synthetic_trace(30, 9);
    let cluster = Cluster::homogeneous(8, 168.0);
    let mut rms = PolicyKind::LibraRisk.rms(&cluster);
    let mut sink = OnlineReport::new();
    for job in &trace.jobs()[..20] {
        for e in rms.advance(job.submit) {
            sink.record(e.seq, e.record);
        }
        rms.submit(job.clone(), job.submit);
    }
    sink.set_utilization(rms.utilization());
    let bytes = ckpt::save(&rms, Some(&sink));
    drop(rms);

    let report = ckpt::load(&bytes)
        .unwrap()
        .report()
        .expect("report section present");
    assert_eq!(report.submitted(), sink.submitted());
    assert_eq!(report.accepted(), sink.accepted());
    assert_eq!(report.rejected(), sink.rejected());
    assert_eq!(report.fulfilled(), sink.fulfilled());
    assert_eq!(
        report.avg_slowdown().to_bits(),
        sink.avg_slowdown().to_bits(),
        "float moments restore bitwise"
    );
    assert_eq!(report.utilization().to_bits(), sink.utilization().to_bits());
}

/// An attached recorder is not RMS state: the snapshot it was saved
/// beside is still a normal form, `save(restore(load(b))) == b`.
#[test]
fn snapshot_saved_with_a_recorder_is_a_normal_form() {
    let trace = synthetic_trace(30, 9);
    let cluster = Cluster::homogeneous(8, 168.0);
    let mut rec = TraceRecorder::new(64).with_audit_gauges();
    let mut rms = PolicyKind::LibraRisk.rms(&cluster).with_recorder(&mut rec);
    let mut sink = OnlineReport::new();
    for job in &trace.jobs()[..20] {
        for e in rms.advance(job.submit) {
            sink.record(e.seq, e.record);
        }
        rms.submit(job.clone(), job.submit);
    }
    let bytes = ckpt::save(&rms, Some(&sink));
    drop(rms);
    assert!(!rec.is_empty(), "the recorder saw the run");

    let loaded = ckpt::load(&bytes).unwrap();
    let restored = loaded
        .restore_into(PolicyKind::LibraRisk.rms(&cluster))
        .unwrap();
    assert_eq!(ckpt::save(&restored, loaded.report().as_ref()), bytes);
}

/// Tag 5 once carried a recorder ring. A CRC-valid section under it is
/// refused as malformed rather than skipped. The payload is a ring the
/// retired decoder accepted: capacity 1, nothing dropped, no audit
/// gauges, no events and an empty registry.
#[test]
fn retired_ring_section_is_refused() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes()); // capacity
    payload.extend_from_slice(&0u64.to_le_bytes()); // dropped
    payload.push(0); // audit gauges
    for _ in 0..4 {
        payload.extend_from_slice(&0u64.to_le_bytes()); // events, counters, gauges, histograms
    }
    let mut section = Vec::new();
    section.extend_from_slice(&5u32.to_le_bytes());
    section.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    section.extend_from_slice(&payload);
    let crc = ckpt::crc32(&section);
    section.extend_from_slice(&crc.to_le_bytes());

    let mut bytes = sample_snapshot();
    // The section count is the u32 after the magic and the version.
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(count + 1).to_le_bytes());
    bytes.extend_from_slice(&section);
    match ckpt::load(&bytes) {
        Err(CkptError::Malformed(why)) => assert_eq!(why, "unknown section tag 5"),
        Err(e) => panic!("tag 5 refused as {e}, not as malformed"),
        Ok(_) => panic!("a tag-5 section loaded"),
    }
}

// ---------------------------------------------------------------------
// Pillar 3: sharded checkpoints + reshard restore vs the union oracle.
// ---------------------------------------------------------------------

/// Offsets a trace so it can act as a disjoint "phase 2" workload:
/// fresh job ids and strictly later submit instants.
fn offset_trace(trace: &Trace, id_base: u64, time_base: f64) -> Vec<Job> {
    trace
        .jobs()
        .iter()
        .map(|j| {
            let mut job = j.clone();
            job.id = JobId(job.id.0 + id_base);
            job.submit += SimDuration::from_secs(time_base);
            job
        })
        .collect()
}

/// Runs the union oracle for one post-reshard shard: an independent
/// plain facade over exactly the jobs that hash to it in each phase,
/// driven with the same advance schedule as the router arms.
#[allow(clippy::too_many_arguments)]
fn union_oracle(
    kind: PolicyKind,
    sub: &Cluster,
    plan: Option<&FaultPlan>,
    phase1: &[Job],
    phase1_mod: (usize, usize),
    phase2: &[Job],
    phase2_mod: Option<(usize, usize)>,
    drain_between: bool,
) -> (BTreeMap<u64, (u8, u64, u64)>, ChurnStats) {
    let mut rms = kind.rms(sub);
    if let Some(plan) = plan {
        rms = rms.with_faults(plan.clone(), RecoveryPolicy::Requeue);
    }
    let mut events = Vec::new();
    let mut members: Vec<u64> = Vec::new();
    for job in phase1 {
        events.extend(rms.advance(job.submit).map(|e| (e.seq, e.record)));
        if job_hash_shard(job.id, phase1_mod.1) == phase1_mod.0 {
            members.push(job.id.0);
            rms.submit(job.clone(), job.submit);
        }
    }
    if drain_between {
        drain_into(&mut rms, &mut events);
    }
    if let Some((shard, modulus)) = phase2_mod {
        for job in phase2 {
            events.extend(rms.advance(job.submit).map(|e| (e.seq, e.record)));
            if job_hash_shard(job.id, modulus) == shard {
                members.push(job.id.0);
                rms.submit(job.clone(), job.submit);
            }
        }
    }
    drain_into(&mut rms, &mut events);
    let mut by_id = BTreeMap::new();
    for (seq, record) in events {
        assert_eq!(record.job.id.0, members[seq as usize]);
        by_id.insert(record.job.id.0, key(&record.outcome));
    }
    (by_id, *rms.churn())
}

#[test]
fn grow_reshard_matches_the_union_oracle() {
    let n = 2;
    let m = 4;
    let kind = PolicyKind::LibraRisk;
    let sub = Cluster::homogeneous(4, 168.0);
    let trace1 = synthetic_trace(36, 21);
    let phase1: Vec<Job> = trace1.jobs().to_vec();
    let span1 = phase1.last().unwrap().submit.as_secs() + 1e6;
    let phase2 = offset_trace(&synthetic_trace(36, 22), 100_000, span1);
    let plans: Vec<FaultPlan> = (0..n)
        .map(|s| churn_plan(&trace1, 4, 0xFEED ^ (s as u64) << 8))
        .collect();

    // Router arm: drive phase 1 on N shards mid-flight, checkpoint,
    // restore into M shards, drive phase 2, drain.
    let mut router = ShardedRms::new(
        (0..n)
            .map(|s| {
                kind.rms(&sub)
                    .with_faults(plans[s].clone(), RecoveryPolicy::Requeue)
            })
            .collect(),
        RouteBy::JobHash,
    )
    .unwrap();
    let mut submitted: Vec<u64> = Vec::new();
    let mut merged: Vec<(u64, JobRecord)> = Vec::new();
    for job in &phase1 {
        merged.extend(
            router
                .advance(job.submit)
                .unwrap()
                .into_iter()
                .map(|e| (e.seq, e.record)),
        );
        submitted.push(job.id.0);
        router.submit(job.clone(), job.submit);
    }
    let dir = scratch_dir("grow");
    ckpt::save_sharded(&router, &dir).unwrap();
    drop(router);

    let blanks: Vec<ClusterRms<'static>> = (0..m).map(|_| kind.rms(&sub)).collect();
    let mut router = ckpt::restore_sharded(&dir, blanks).unwrap();
    assert_eq!(router.submitted(), phase1.len() as u64);
    for job in &phase2 {
        merged.extend(
            router
                .advance(job.submit)
                .unwrap()
                .into_iter()
                .map(|e| (e.seq, e.record)),
        );
        submitted.push(job.id.0);
        let (placed, _) = router.submit_routed(job.clone(), job.submit);
        assert_eq!(placed, job_hash_shard(job.id, m), "post-reshard placement");
    }
    merged.extend(
        router
            .drain()
            .unwrap()
            .into_iter()
            .map(|e| (e.seq, e.record)),
    );
    assert_eq!(
        merged.len(),
        phase1.len() + phase2.len(),
        "every job resolves"
    );
    let mut router_by_id: BTreeMap<u64, (u8, u64, u64)> = BTreeMap::new();
    for (seq, record) in &merged {
        assert_eq!(record.job.id.0, submitted[*seq as usize], "seq→job mapping");
        router_by_id.insert(record.job.id.0, key(&record.outcome));
    }
    let router_churn = router.churn();

    // Oracle arm: M independent runs over the union partition.
    let mut oracle_by_id = BTreeMap::new();
    let mut oracle_churn = ChurnStats::default();
    for j in 0..m {
        let (by_id, churn) = union_oracle(
            kind,
            &sub,
            plans.get(j),
            &phase1,
            (j, n),
            &phase2,
            Some((j, m)),
            false,
        );
        oracle_churn.merge(&churn);
        oracle_by_id.extend(by_id);
    }
    assert_eq!(
        router_by_id, oracle_by_id,
        "grow reshard diverged from union"
    );
    assert_eq!(router_churn, oracle_churn, "grow reshard churn");
}

#[test]
fn shrink_reshard_matches_the_union_oracle_and_carries_churn() {
    let n = 4;
    let m = 2;
    let kind = PolicyKind::Qops;
    let sub = Cluster::homogeneous(4, 168.0);
    let trace1 = synthetic_trace(32, 31);
    let phase1: Vec<Job> = trace1.jobs().to_vec();
    let span1 = phase1.last().unwrap().submit.as_secs() + 1e7;
    let phase2 = offset_trace(&synthetic_trace(32, 32), 200_000, span1);
    let plans: Vec<FaultPlan> = (0..n)
        .map(|s| churn_plan(&trace1, 4, 0xD00D ^ (s as u64) << 8))
        .collect();

    // Phase 1 on N shards, drained to quiescence before shrinking.
    let mut router = ShardedRms::new(
        (0..n)
            .map(|s| {
                kind.rms(&sub)
                    .with_faults(plans[s].clone(), RecoveryPolicy::Requeue)
            })
            .collect(),
        RouteBy::JobHash,
    )
    .unwrap();
    let mut submitted: Vec<u64> = Vec::new();
    let mut merged: Vec<(u64, JobRecord)> = Vec::new();
    for job in &phase1 {
        merged.extend(
            router
                .advance(job.submit)
                .unwrap()
                .into_iter()
                .map(|e| (e.seq, e.record)),
        );
        submitted.push(job.id.0);
        router.submit(job.clone(), job.submit);
    }
    merged.extend(
        router
            .drain()
            .unwrap()
            .into_iter()
            .map(|e| (e.seq, e.record)),
    );
    let dir = scratch_dir("shrink");
    ckpt::save_sharded(&router, &dir).unwrap();
    drop(router);

    let blanks: Vec<ClusterRms<'static>> = (0..m).map(|_| kind.rms(&sub)).collect();
    let mut router = ckpt::restore_sharded(&dir, blanks).unwrap();
    for job in &phase2 {
        merged.extend(
            router
                .advance(job.submit)
                .unwrap()
                .into_iter()
                .map(|e| (e.seq, e.record)),
        );
        submitted.push(job.id.0);
        let (placed, _) = router.submit_routed(job.clone(), job.submit);
        assert_eq!(placed, job_hash_shard(job.id, m), "post-shrink placement");
    }
    merged.extend(
        router
            .drain()
            .unwrap()
            .into_iter()
            .map(|e| (e.seq, e.record)),
    );
    assert_eq!(merged.len(), phase1.len() + phase2.len());
    let mut router_by_id: BTreeMap<u64, (u8, u64, u64)> = BTreeMap::new();
    for (seq, record) in &merged {
        assert_eq!(record.job.id.0, submitted[*seq as usize], "seq→job mapping");
        router_by_id.insert(record.job.id.0, key(&record.outcome));
    }

    // Oracle: retired shards only see phase 1; surviving shards see
    // their phase-1 partition (mod N) plus the phase-2 partition
    // (mod M), with the same drain at the reshard boundary.
    let mut oracle_by_id = BTreeMap::new();
    let mut oracle_churn = ChurnStats::default();
    for (j, plan) in plans.iter().enumerate() {
        let phase2_mod = if j < m { Some((j, m)) } else { None };
        let (by_id, churn) = union_oracle(
            kind,
            &sub,
            Some(plan),
            &phase1,
            (j, n),
            &phase2,
            phase2_mod,
            true,
        );
        oracle_churn.merge(&churn);
        oracle_by_id.extend(by_id);
    }
    assert_eq!(
        router_by_id, oracle_by_id,
        "shrink reshard diverged from union"
    );
    assert_eq!(
        router.churn(),
        oracle_churn,
        "retired shards' churn must be carried across the shrink"
    );
}

#[test]
fn shrink_onto_in_flight_shards_is_refused() {
    let n = 4;
    let kind = PolicyKind::LibraRisk;
    let sub = Cluster::homogeneous(4, 168.0);
    let trace = synthetic_trace(40, 41);

    let mut router =
        ShardedRms::new((0..n).map(|_| kind.rms(&sub)).collect(), RouteBy::JobHash).unwrap();
    for job in trace.jobs() {
        router.advance(job.submit).unwrap();
        router.submit(job.clone(), job.submit);
    }
    assert!(router.in_flight() > 0, "scenario must leave work in flight");
    let dir = scratch_dir("shrink-refused");
    ckpt::save_sharded(&router, &dir).unwrap();
    drop(router);

    // At least one retired shard holds work, so shrinking must refuse.
    let blanks: Vec<ClusterRms<'static>> = (0..2).map(|_| kind.rms(&sub)).collect();
    let err = ckpt::restore_sharded(&dir, blanks)
        .err()
        .expect("shrink over in-flight shards must be refused");
    assert!(matches!(err, CkptError::Mismatch(_)), "{err}");

    // Same checkpoint restores fine at the original width.
    let blanks: Vec<ClusterRms<'static>> = (0..n).map(|_| kind.rms(&sub)).collect();
    let router = ckpt::restore_sharded(&dir, blanks).unwrap();
    assert_eq!(router.submitted(), trace.len() as u64);

    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Golden fixture: the committed wire format stays loadable.
// ---------------------------------------------------------------------

/// The fixture scenario: state and report sections.
fn golden_bytes() -> Vec<u8> {
    let trace = synthetic_trace(60, 5);
    let cluster = Cluster::homogeneous(8, 168.0);
    let plan = churn_plan(&trace, 8, 0x601D);
    let mut rms = PolicyKind::LibraRisk
        .rms(&cluster)
        .with_faults(plan, RecoveryPolicy::Requeue);
    let mut sink = OnlineReport::new();
    for job in &trace.jobs()[..37] {
        for e in rms.advance(job.submit) {
            sink.record(e.seq, e.record);
        }
        rms.submit(job.clone(), job.submit);
    }
    ckpt::save(&rms, Some(&sink))
}

#[test]
fn golden_checkpoint_fixture_stays_loadable() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.ckpt");
    let fresh = golden_bytes();
    if std::env::var_os("LIBRISK_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &fresh).unwrap();
    }
    let committed =
        std::fs::read(&path).expect("fixture missing — regenerate with LIBRISK_REGEN_GOLDEN=1");
    assert_eq!(
        committed, fresh,
        "checkpoint bytes for the fixture scenario drifted; if the wire \
         format changed deliberately, bump ckpt::VERSION and regenerate"
    );

    let loaded = ckpt::load(&committed).unwrap();
    assert_eq!(loaded.policy_name(), "LibraRisk");
    assert_eq!(loaded.submitted(), 37);
    assert!(loaded.report().is_some());

    // The committed snapshot restores and finishes the run.
    let cluster = Cluster::homogeneous(8, 168.0);
    let mut rms = loaded
        .restore_into(PolicyKind::LibraRisk.rms(&cluster))
        .unwrap();
    let trace = synthetic_trace(60, 5);
    let mut out = Vec::new();
    drive(&mut rms, &trace.jobs()[37..], &mut out);
    drain_into(&mut rms, &mut out);
    assert_eq!(rms.submitted(), 60);
    assert_eq!(rms.in_flight(), 0);
}

/// The QoPS fixture scenario: churn with requeues, cut at the 37th
/// arrival while two jobs run and two wait in the queue. Pins the
/// BACKEND section's running-finish list as well as the pool.
fn golden_qops_run(cut: usize) -> ClusterRms<'static> {
    let trace = synthetic_trace(60, 7);
    let cluster = Cluster::homogeneous(8, 168.0);
    let plan = churn_plan(&trace, 8, 0x9095);
    let mut rms = PolicyKind::Qops
        .rms(&cluster)
        .with_faults(plan, RecoveryPolicy::Requeue);
    let mut sink = Vec::new();
    drive(&mut rms, &trace.jobs()[..cut], &mut sink);
    rms
}

#[test]
fn golden_qops_checkpoint_fixture_stays_loadable() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_qops.ckpt");
    let cut = 37;
    let fresh = ckpt::save(&golden_qops_run(cut), None);
    if std::env::var_os("LIBRISK_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &fresh).unwrap();
    }
    let committed =
        std::fs::read(&path).expect("fixture missing — regenerate with LIBRISK_REGEN_GOLDEN=1");
    assert_eq!(
        committed, fresh,
        "QoPS checkpoint bytes for the fixture scenario drifted; if the \
         wire format changed deliberately, bump ckpt::VERSION and regenerate"
    );

    let loaded = ckpt::load(&committed).unwrap();
    assert_eq!(loaded.policy_name(), "QoPS");
    assert_eq!(loaded.submitted(), cut as u64);
    assert!(loaded.churn().requeues > 0, "the cut follows requeues");
    let at = loaded.now();

    // The committed snapshot restores and finishes the run exactly as
    // the unbroken run does.
    let cluster = Cluster::homogeneous(8, 168.0);
    let mut rms = loaded.restore_into(PolicyKind::Qops.rms(&cluster)).unwrap();
    let trace = synthetic_trace(60, 7);
    let mut resumed = Vec::new();
    drive(&mut rms, &trace.jobs()[cut..], &mut resumed);
    drain_into(&mut rms, &mut resumed);
    assert_eq!(rms.submitted(), 60);
    assert_eq!(rms.in_flight(), 0);

    let mut unbroken_rms = golden_qops_run(cut);
    let mut unbroken = Vec::new();
    drive(&mut unbroken_rms, &trace.jobs()[cut..], &mut unbroken);
    drain_into(&mut unbroken_rms, &mut unbroken);
    let fingerprint = |out: &[(u64, JobRecord)]| -> Vec<_> {
        out.iter()
            .map(|(s, r)| (*s, r.job.id, key(&r.outcome)))
            .collect()
    };
    assert_eq!(fingerprint(&resumed), fingerprint(&unbroken));
    assert_eq!(*rms.churn(), *unbroken_rms.churn());

    // Both halves of the backend were live at the cut: a job submitted
    // before it started before it (running), another after it (queued).
    let started: Vec<SimTime> = resumed
        .iter()
        .filter(|(seq, _)| *seq < cut as u64)
        .filter_map(|(_, r)| match r.outcome {
            Outcome::Completed { started, .. } => Some(started),
            _ => None,
        })
        .collect();
    assert!(
        started.iter().any(|s| *s < at),
        "a job was running at the cut"
    );
    assert!(
        started.iter().any(|s| *s > at),
        "a job was queued at the cut"
    );
}
