//! Crash-safe checkpoint/restore for the online RMS.
//!
//! A long replay (or a long-lived admission-control server) needs to
//! survive a crash without replaying the whole history. This module
//! serialises the *canonical* state of a [`ClusterRms`] — resident and
//! queued jobs, the admission queue, pending outcome events, the fault
//! plan cursor, churn aggregates, sequence counters, and optionally an
//! [`OnlineReport`] summary — into a versioned, zero-dependency binary
//! format, and rebuilds a bitwise-identical RMS from it: resuming from
//! a checkpoint taken at any quiescent instant produces the same
//! decisions, outcomes and aggregates as the unbroken run
//! (property-tested in `tests/checkpoint.rs` over every policy, under
//! churn).
//!
//! # Format
//!
//! ```text
//! magic "LRCKPT01" (8 bytes)
//! version: u32 LE
//! section count: u32 LE
//! section*: [tag u32][payload len u64][payload][crc32(tag, len, payload) u32]
//! ```
//!
//! Every multi-byte value is little-endian; `f64`s travel as raw IEEE
//! bits (`to_bits`), which is what makes restore *bitwise*, not just
//! approximately equal. Each section carries its own CRC-32 (IEEE), so
//! any torn write, truncation or bit flip is detected as a structured
//! [`CkptError`] — never a panic, never a silent misparse. Writes go
//! through [`write_atomic`] (temp file + `sync_all` + rename), so a
//! crash mid-write leaves the previous snapshot intact, and
//! [`CheckpointStore::load_latest`] falls back past corrupt snapshots
//! to the newest good one.
//!
//! Restore is *into a blank*: the caller rebuilds an empty RMS with the
//! same policy, cluster and configuration (checkpoints deliberately do
//! not serialise policy code), and [`Checkpoint::restore_into`]
//! validates the blank against the checkpoint's META section before
//! injecting state — a checkpoint can never silently restore onto the
//! wrong policy or machine.
//!
//! # Sharded checkpoints and resharding
//!
//! [`save_sharded`] writes one checkpoint per shard plus a manifest
//! (global sequence counter, per-shard seq tables, carried churn).
//! [`restore_sharded`] restores N checkpointed shards into M blanks:
//! growing (M > N) appends fresh shards, shrinking (M < N) requires the
//! retired shards to be quiescent and folds their churn aggregates into
//! the router's carried totals. The reconfigured run remains the union
//! of independent per-shard runs — jobs submitted before the reshard
//! route by `hash mod N`, jobs after it by `hash mod M` (pinned against
//! the union oracle in `tests/checkpoint.rs`).

use crate::queue::{QueueDiscipline, QueuedJob};
use crate::report::{ChurnStats, JobRecord, OnlineReport, Outcome};
use crate::rms::{ClusterRms, ExecutionBackend, JobEvent};
use crate::router::ShardedRms;
use cluster::projection::ShareDiscipline;
use cluster::proportional::{
    EngineSnapshot, ProportionalCluster, ResidentSnapshot, MAX_QUANTUM, RESIDUAL_FLOOR,
    RESIDUAL_FRACTION,
};
use cluster::{
    FaultEvent, FaultKind, FaultPlan, NodeId, PoolSnapshot, RecoveryPolicy, RunningSnapshot,
    SpaceSharedCluster,
};
use obs::RejectReason;
use sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use workload::{Job, JobId, Urgency};

/// File magic: identifies a librisk checkpoint container.
pub const MAGIC: [u8; 8] = *b"LRCKPT01";

/// Current container version. Bumped on any layout change; a reader
/// accepts only its own version and refuses any other, older or newer,
/// with [`CkptError::UnsupportedVersion`]. Version 1 also carried a
/// per-node delivered-work vector in the proportional BACKEND section.
pub const VERSION: u32 = 2;

const TAG_META: u32 = 1;
const TAG_SHARD: u32 = 2;
const TAG_BACKEND: u32 = 3;
const TAG_REPORT: u32 = 4;
// Tag 5 is retired (it held a recorder ring) and refused as unknown.
const TAG_MANIFEST: u32 = 6;

const KIND_PROPORTIONAL: u8 = 0;
const KIND_QUEUED: u8 = 1;
const KIND_QOPS: u8 = 2;

/// A structured checkpoint failure. Every way a snapshot can be wrong —
/// torn write, flipped bit, wrong version, state that fails its own
/// invariants, or a blank that does not match the checkpoint — maps to
/// a variant here; corruption is *never* surfaced as a panic.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The container version is not the one this reader understands.
    UnsupportedVersion(u32),
    /// The file ends before the declared structure does (torn write).
    Truncated,
    /// A section's payload does not match its CRC-32 (bit rot / flip).
    ChecksumMismatch {
        /// Tag of the failing section.
        section: u32,
    },
    /// The bytes decode but violate a structural invariant of the
    /// serialised state (the precise violation, for diagnostics).
    Malformed(String),
    /// The checkpoint is internally sound but does not match the
    /// restore target (wrong policy, different cluster, non-blank RMS).
    Mismatch(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (reader is v{VERSION})"
                )
            }
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            CkptError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CkptError::Mismatch(why) => write!(f, "checkpoint/target mismatch: {why}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

fn malformed(why: impl Into<String>) -> CkptError {
    CkptError::Malformed(why.into())
}

fn mismatch(why: impl Into<String>) -> CkptError {
    CkptError::Mismatch(why.into())
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — hand-rolled so the
// format stays zero-dependency.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte slice — the per-section integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Little-endian wire primitives.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, v: &str) {
        self.len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An `f64` that must not be NaN (time axis values; the newtypes
    /// panic on NaN, so the decoder rejects it first).
    fn finite_or_inf(&mut self) -> Result<f64, CkptError> {
        let v = self.f64()?;
        if v.is_nan() {
            return Err(malformed("NaN time value"));
        }
        Ok(v)
    }

    fn time(&mut self) -> Result<SimTime, CkptError> {
        Ok(SimTime::from_secs(self.finite_or_inf()?))
    }

    fn dur(&mut self) -> Result<SimDuration, CkptError> {
        Ok(SimDuration::from_secs(self.finite_or_inf()?))
    }

    fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("invalid bool byte {b}"))),
        }
    }

    /// An element count whose elements occupy at least `min_elem` bytes
    /// each — bounds the count by the remaining payload so a corrupt
    /// length cannot drive an absurd allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, CkptError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| CkptError::Truncated)?;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CkptError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid UTF-8 string"))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, CkptError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            b => Err(malformed(format!("invalid option tag {b}"))),
        }
    }

    fn done(&self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(malformed("trailing bytes after section payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Container.
// ---------------------------------------------------------------------

fn container(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let total: usize = sections.iter().map(|(_, p)| p.len() + 16).sum();
    let mut out = Vec::with_capacity(16 + total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        // The CRC covers tag + length + payload, so a flip anywhere in
        // a section (header included) is a checksum mismatch.
        let start = out.len();
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out
}

/// Splits a container into checksum-verified `(tag, payload)` sections.
/// Duplicate or unknown tags are rejected — together with the per-
/// section CRC this makes every single-bit corruption detectable.
fn split_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, CkptError> {
    let mut r = Reader::new(bytes);
    if r.take(8).map_err(|_| CkptError::BadMagic)? != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let n = r.u32()? as usize;
    if n.saturating_mul(16) > r.remaining() {
        return Err(CkptError::Truncated);
    }
    let mut sections: Vec<(u32, &[u8])> = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.pos;
        let tag = r.u32()?;
        if !matches!(
            tag,
            TAG_META | TAG_SHARD | TAG_BACKEND | TAG_REPORT | TAG_MANIFEST
        ) {
            return Err(malformed(format!("unknown section tag {tag}")));
        }
        if sections.iter().any(|(t, _)| *t == tag) {
            return Err(malformed(format!("duplicate section tag {tag}")));
        }
        let len = r.u64()?;
        let len = usize::try_from(len).map_err(|_| CkptError::Truncated)?;
        let payload = r.take(len)?;
        let crc = r.u32()?;
        if crc32(&bytes[start..start + 12 + len]) != crc {
            return Err(CkptError::ChecksumMismatch { section: tag });
        }
        sections.push((tag, payload));
    }
    r.done()?;
    Ok(sections)
}

// ---------------------------------------------------------------------
// Shared value codecs.
// ---------------------------------------------------------------------

fn put_job(w: &mut Writer, job: &Job) {
    w.u64(job.id.0);
    w.f64(job.submit.as_secs());
    w.f64(job.runtime.as_secs());
    w.f64(job.estimate.as_secs());
    w.u32(job.procs);
    w.f64(job.deadline.as_secs());
    w.u8(match job.urgency {
        Urgency::High => 0,
        Urgency::Low => 1,
    });
}

fn get_job(r: &mut Reader<'_>) -> Result<Job, CkptError> {
    Ok(Job {
        id: JobId(r.u64()?),
        submit: r.time()?,
        runtime: r.dur()?,
        estimate: r.dur()?,
        procs: r.u32()?,
        deadline: r.dur()?,
        urgency: match r.u8()? {
            0 => Urgency::High,
            1 => Urgency::Low,
            b => return Err(malformed(format!("invalid urgency {b}"))),
        },
    })
}

fn put_outcome(w: &mut Writer, outcome: &Outcome) {
    match *outcome {
        Outcome::Rejected { at, reason } => {
            w.u8(0);
            w.f64(at.as_secs());
            w.u8(reason.index() as u8);
        }
        Outcome::Completed { started, finish } => {
            w.u8(1);
            w.f64(started.as_secs());
            w.f64(finish.as_secs());
        }
        Outcome::Killed { at, node } => {
            w.u8(2);
            w.f64(at.as_secs());
            w.u32(node.0);
        }
    }
}

fn get_reason(r: &mut Reader<'_>) -> Result<RejectReason, CkptError> {
    let idx = r.u8()? as usize;
    RejectReason::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| malformed(format!("invalid reject reason {idx}")))
}

fn get_outcome(r: &mut Reader<'_>) -> Result<Outcome, CkptError> {
    match r.u8()? {
        0 => Ok(Outcome::Rejected {
            at: r.time()?,
            reason: get_reason(r)?,
        }),
        1 => Ok(Outcome::Completed {
            started: r.time()?,
            finish: r.time()?,
        }),
        2 => Ok(Outcome::Killed {
            at: r.time()?,
            node: NodeId(r.u32()?),
        }),
        b => Err(malformed(format!("invalid outcome tag {b}"))),
    }
}

fn put_churn(w: &mut Writer, c: &ChurnStats) {
    w.u64(c.node_failures);
    w.u64(c.node_restores);
    w.u64(c.kills);
    w.u64(c.requeues);
    w.u64(c.requeue_rejects);
    w.u64(c.requeued_fulfilled.total());
    w.u64(c.requeued_fulfilled.hits());
}

fn get_churn(r: &mut Reader<'_>) -> Result<ChurnStats, CkptError> {
    let (node_failures, node_restores, kills) = (r.u64()?, r.u64()?, r.u64()?);
    let (requeues, requeue_rejects) = (r.u64()?, r.u64()?);
    let (total, hits) = (r.u64()?, r.u64()?);
    if hits > total {
        return Err(malformed("tally hits exceed total"));
    }
    Ok(ChurnStats {
        node_failures,
        node_restores,
        kills,
        requeues,
        requeue_rejects,
        requeued_fulfilled: metrics::Tally::from_parts(total, hits),
    })
}

fn put_stats(w: &mut Writer, s: &metrics::OnlineStats) {
    let (n, mean, m2, min, max) = s.parts();
    w.u64(n);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

fn get_stats(r: &mut Reader<'_>) -> Result<metrics::OnlineStats, CkptError> {
    let n = r.u64()?;
    let (mean, m2, min, max) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    Ok(metrics::OnlineStats::from_parts(n, mean, m2, min, max))
}

fn put_tally(w: &mut Writer, t: &metrics::Tally) {
    w.u64(t.total());
    w.u64(t.hits());
}

fn get_tally(r: &mut Reader<'_>) -> Result<metrics::Tally, CkptError> {
    let (total, hits) = (r.u64()?, r.u64()?);
    if hits > total {
        return Err(malformed("tally hits exceed total"));
    }
    Ok(metrics::Tally::from_parts(total, hits))
}

/// A `(key, seq)` map serialised sorted-by-key: canonical bytes for a
/// `HashMap`, so identical states produce identical files.
fn put_seq_of(w: &mut Writer, map: &HashMap<JobId, u64>) {
    let mut pairs: Vec<(u64, u64)> = map.iter().map(|(id, seq)| (id.0, *seq)).collect();
    pairs.sort_unstable();
    w.len(pairs.len());
    for (id, seq) in pairs {
        w.u64(id);
        w.u64(seq);
    }
}

fn get_seq_of(r: &mut Reader<'_>) -> Result<Vec<(u64, u64)>, CkptError> {
    let n = r.count(16)?;
    let mut pairs = Vec::with_capacity(n);
    let mut last: Option<u64> = None;
    for _ in 0..n {
        let id = r.u64()?;
        let seq = r.u64()?;
        if last.is_some_and(|p| p >= id) {
            return Err(malformed("seq map keys not strictly ascending"));
        }
        last = Some(id);
        pairs.push((id, seq));
    }
    Ok(pairs)
}

// ---------------------------------------------------------------------
// META section.
// ---------------------------------------------------------------------

/// Identity echo of the RMS a checkpoint was taken from, compared (in
/// raw bits) against the restore target before any state is injected.
#[derive(Debug, PartialEq, Eq)]
struct Meta {
    kind: u8,
    policy_name: String,
    /// `(node id, rating bits)` per node, in inventory order.
    nodes: Vec<(u32, u64)>,
    reference_bits: u64,
    config: ConfigEcho,
}

#[derive(Debug, PartialEq, Eq)]
enum ConfigEcho {
    Proportional {
        discipline: u8,
        residual_fraction: u64,
        residual_floor: u64,
        max_quantum: Option<u64>,
    },
    Queued {
        discipline: u8,
        admission: bool,
        backfill: bool,
    },
    Qops {
        slack_bits: u64,
    },
}

fn discipline_code(d: ShareDiscipline) -> u8 {
    match d {
        ShareDiscipline::Strict => 0,
        ShareDiscipline::WorkConserving => 1,
    }
}

fn queue_discipline_code(d: QueueDiscipline) -> u8 {
    match d {
        QueueDiscipline::EarliestDeadline => 0,
        QueueDiscipline::Fifo => 1,
    }
}

fn meta_of(rms: &ClusterRms<'_>) -> Meta {
    let (kind, cluster, config) = match &rms.backend {
        ExecutionBackend::Proportional(b) => (
            KIND_PROPORTIONAL,
            b.engine.cluster(),
            ConfigEcho::Proportional {
                discipline: discipline_code(b.engine.config().discipline),
                residual_fraction: RESIDUAL_FRACTION.to_bits(),
                residual_floor: RESIDUAL_FLOOR.to_bits(),
                max_quantum: Some(MAX_QUANTUM.to_bits()),
            },
        ),
        ExecutionBackend::Queued(b) => match b.qops {
            None => (
                KIND_QUEUED,
                b.pool.cluster(),
                ConfigEcho::Queued {
                    discipline: queue_discipline_code(b.policy.discipline),
                    admission: b.policy.admission,
                    backfill: b.policy.backfill,
                },
            ),
            Some(cfg) => (
                KIND_QOPS,
                b.pool.cluster(),
                ConfigEcho::Qops {
                    slack_bits: cfg.slack_factor.to_bits(),
                },
            ),
        },
    };
    Meta {
        kind,
        policy_name: rms.policy_name.clone(),
        nodes: cluster
            .nodes()
            .iter()
            .map(|n| (n.id.0, n.rating.to_bits()))
            .collect(),
        reference_bits: cluster.reference_rating().to_bits(),
        config,
    }
}

fn encode_meta(rms: &ClusterRms<'_>) -> Vec<u8> {
    let meta = meta_of(rms);
    let mut w = Writer::default();
    w.u8(meta.kind);
    w.str(&meta.policy_name);
    w.len(meta.nodes.len());
    for (id, rating_bits) in meta.nodes {
        w.u32(id);
        w.u64(rating_bits);
    }
    w.u64(meta.reference_bits);
    match meta.config {
        ConfigEcho::Proportional {
            discipline,
            residual_fraction,
            residual_floor,
            max_quantum,
        } => {
            w.u8(discipline);
            w.u64(residual_fraction);
            w.u64(residual_floor);
            w.opt_f64(max_quantum.map(f64::from_bits));
        }
        ConfigEcho::Queued {
            discipline,
            admission,
            backfill,
        } => {
            w.u8(discipline);
            w.bool(admission);
            w.bool(backfill);
        }
        ConfigEcho::Qops { slack_bits } => w.u64(slack_bits),
    }
    w.buf
}

fn decode_meta(payload: &[u8]) -> Result<Meta, CkptError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let policy_name = r.str()?;
    let n = r.count(12)?;
    if n == 0 {
        return Err(malformed("cluster with zero nodes"));
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let bits = r.u64()?;
        nodes.push((id, bits));
    }
    let reference_bits = r.u64()?;
    let config = match kind {
        KIND_PROPORTIONAL => ConfigEcho::Proportional {
            discipline: match r.u8()? {
                d @ (0 | 1) => d,
                d => return Err(malformed(format!("invalid share discipline {d}"))),
            },
            residual_fraction: r.u64()?,
            residual_floor: r.u64()?,
            max_quantum: r.opt_f64()?.map(f64::to_bits),
        },
        KIND_QUEUED => ConfigEcho::Queued {
            discipline: match r.u8()? {
                d @ (0 | 1) => d,
                d => return Err(malformed(format!("invalid queue discipline {d}"))),
            },
            admission: r.bool()?,
            backfill: r.bool()?,
        },
        KIND_QOPS => ConfigEcho::Qops {
            slack_bits: r.u64()?,
        },
        k => return Err(malformed(format!("invalid backend kind {k}"))),
    };
    r.done()?;
    Ok(Meta {
        kind,
        policy_name,
        nodes,
        reference_bits,
        config,
    })
}

// ---------------------------------------------------------------------
// SHARD section (facade-level state).
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ShardSection {
    now: SimTime,
    next_seq: u64,
    recovery: RecoveryPolicy,
    churn: ChurnStats,
    plan_events: Vec<FaultEvent>,
    plan_cursor: usize,
    requeued: Vec<(u64, Job)>,
    events: Vec<JobEvent>,
}

fn encode_shard(rms: &ClusterRms<'_>) -> Vec<u8> {
    let mut w = Writer::default();
    w.f64(rms.now.as_secs());
    w.u64(rms.next_seq);
    w.u8(match rms.recovery {
        RecoveryPolicy::Kill => 0,
        RecoveryPolicy::Requeue => 1,
    });
    put_churn(&mut w, &rms.churn);
    let plan_events = rms.plan.events();
    w.len(plan_events.len());
    for e in plan_events {
        w.f64(e.at.as_secs());
        w.u32(e.node.0);
        w.u8(match e.kind {
            FaultKind::NodeDown => 0,
            FaultKind::NodeUp => 1,
        });
    }
    w.len(rms.plan.cursor());
    let mut requeued: Vec<(&u64, &Job)> = rms.requeued.iter().collect();
    requeued.sort_by_key(|(seq, _)| **seq);
    w.len(requeued.len());
    for (seq, job) in requeued {
        w.u64(*seq);
        put_job(&mut w, job);
    }
    w.len(rms.events.len());
    for e in &rms.events {
        w.u64(e.seq);
        put_job(&mut w, &e.record.job);
        put_outcome(&mut w, &e.record.outcome);
    }
    w.buf
}

fn decode_shard(payload: &[u8]) -> Result<ShardSection, CkptError> {
    let mut r = Reader::new(payload);
    let now = r.time()?;
    let next_seq = r.u64()?;
    let recovery = match r.u8()? {
        0 => RecoveryPolicy::Kill,
        1 => RecoveryPolicy::Requeue,
        b => return Err(malformed(format!("invalid recovery policy {b}"))),
    };
    let churn = get_churn(&mut r)?;
    let n_plan = r.count(13)?;
    let mut plan_events = Vec::with_capacity(n_plan);
    for _ in 0..n_plan {
        let at = r.time()?;
        let node = NodeId(r.u32()?);
        let kind = match r.u8()? {
            0 => FaultKind::NodeDown,
            1 => FaultKind::NodeUp,
            b => return Err(malformed(format!("invalid fault kind {b}"))),
        };
        plan_events.push(FaultEvent { at, node, kind });
    }
    if !plan_events.windows(2).all(|w| w[0].at <= w[1].at) {
        return Err(malformed("fault plan not time-ordered"));
    }
    let plan_cursor = r.u64()?;
    let plan_cursor = usize::try_from(plan_cursor).map_err(|_| malformed("cursor overflow"))?;
    if plan_cursor > plan_events.len() {
        return Err(malformed("fault plan cursor past the end"));
    }
    let n_req = r.count(8)?;
    let mut requeued = Vec::with_capacity(n_req);
    let mut last: Option<u64> = None;
    for _ in 0..n_req {
        let seq = r.u64()?;
        if last.is_some_and(|p| p >= seq) {
            return Err(malformed("requeued seqs not strictly ascending"));
        }
        last = Some(seq);
        let job = get_job(&mut r)?;
        requeued.push((seq, job));
    }
    let n_ev = r.count(8)?;
    let mut events = Vec::with_capacity(n_ev);
    for _ in 0..n_ev {
        let seq = r.u64()?;
        let job = get_job(&mut r)?;
        let outcome = get_outcome(&mut r)?;
        events.push(JobEvent {
            seq,
            record: JobRecord { job, outcome },
        });
    }
    for seq in requeued
        .iter()
        .map(|(s, _)| *s)
        .chain(events.iter().map(|e| e.seq))
    {
        if seq >= next_seq {
            return Err(malformed("seq beyond the submission counter"));
        }
    }
    r.done()?;
    Ok(ShardSection {
        now,
        next_seq,
        recovery,
        churn,
        plan_events,
        plan_cursor,
        requeued,
        events,
    })
}

// ---------------------------------------------------------------------
// BACKEND section (engine canonical state).
//
// Proportional: kind byte, residents (job, node list, node positions,
// start, overruns, remaining actual and estimated work), `last_update`,
// `busy_integral`, `down_integral`, per-node down flags, seq map.
// Queued (EDF/FCFS; QoPS adds its running list before the seq map):
// kind byte, pool, queue, seq map.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum BackendSection {
    Proportional {
        engine: EngineSnapshot,
        seq_of: Vec<(u64, u64)>,
    },
    /// EDF, FCFS and QoPS alike: QoPS's running list is derived from
    /// the pool, so only its consistency is checked at load.
    Queued {
        pool: PoolSnapshot,
        queue: Vec<(u64, Job)>,
        seq_of: Vec<(u64, u64)>,
    },
}

/// QoPS's running list as the BACKEND section carries it: `(seq, width,
/// estimated finish)` per running job in start order, derived from the
/// pool. A running job without a seq is left out (the seq-map cover
/// check refuses such a snapshot at restore).
fn qops_running(
    pool: &PoolSnapshot,
    seq_of: impl Fn(JobId) -> Option<u64>,
) -> Vec<(u64, u32, f64)> {
    let mut running: Vec<&RunningSnapshot> = pool.running.iter().collect();
    running.sort_by_key(|r| r.seq);
    running
        .into_iter()
        .filter_map(|r| {
            let finish = r.started.as_secs() + r.job.estimate.as_secs();
            Some((seq_of(r.job.id)?, r.job.procs, finish))
        })
        .collect()
}

fn put_pool(w: &mut Writer, snap: &PoolSnapshot) {
    w.len(snap.running.len());
    for rj in &snap.running {
        put_job(w, &rj.job);
        w.len(rj.nodes.len());
        for n in &rj.nodes {
            w.u32(n.0);
        }
        w.f64(rj.started.as_secs());
        w.f64(rj.finish.as_secs());
        w.u64(rj.seq);
    }
    w.f64(snap.busy_integral);
    w.f64(snap.down_integral);
    w.f64(snap.last_update.as_secs());
    w.u64(snap.start_seq);
    w.len(snap.down.len());
    for &d in &snap.down {
        w.bool(d);
    }
}

fn get_pool(r: &mut Reader<'_>) -> Result<PoolSnapshot, CkptError> {
    let n = r.count(8)?;
    let mut running = Vec::with_capacity(n);
    for _ in 0..n {
        let job = get_job(r)?;
        let n_nodes = r.count(4)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push(NodeId(r.u32()?));
        }
        running.push(RunningSnapshot {
            job,
            nodes,
            started: r.time()?,
            finish: r.time()?,
            seq: r.u64()?,
        });
    }
    let busy_integral = r.f64()?;
    let down_integral = r.f64()?;
    let last_update = r.time()?;
    let start_seq = r.u64()?;
    let n_down = r.count(1)?;
    let mut down = Vec::with_capacity(n_down);
    for _ in 0..n_down {
        down.push(r.bool()?);
    }
    Ok(PoolSnapshot {
        running,
        busy_integral,
        down_integral,
        last_update,
        start_seq,
        down,
    })
}

fn put_queue(w: &mut Writer, queue: &[QueuedJob]) {
    w.len(queue.len());
    for qj in queue {
        w.u64(qj.seq);
        put_job(w, &qj.job);
    }
}

fn get_queue(r: &mut Reader<'_>) -> Result<Vec<(u64, Job)>, CkptError> {
    let n = r.count(8)?;
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = r.u64()?;
        queue.push((seq, get_job(r)?));
    }
    let mut seqs: Vec<u64> = queue.iter().map(|(s, _)| *s).collect();
    seqs.sort_unstable();
    if seqs.windows(2).any(|w| w[0] == w[1]) {
        return Err(malformed("duplicate seq in queue"));
    }
    Ok(queue)
}

fn encode_backend(rms: &ClusterRms<'_>) -> Vec<u8> {
    let mut w = Writer::default();
    match &rms.backend {
        ExecutionBackend::Proportional(b) => {
            w.u8(KIND_PROPORTIONAL);
            let snap = b.engine.snapshot();
            w.len(snap.residents.len());
            for res in &snap.residents {
                put_job(&mut w, &res.job);
                w.len(res.nodes.len());
                for n in &res.nodes {
                    w.u32(n.0);
                }
                for p in &res.node_positions {
                    w.u32(*p);
                }
                w.f64(res.started.as_secs());
                w.u32(res.overruns);
                w.f64(res.remaining_work);
                w.f64(res.remaining_est);
            }
            w.f64(snap.last_update.as_secs());
            w.f64(snap.busy_integral);
            w.f64(snap.down_integral);
            w.len(snap.down.len());
            for &d in &snap.down {
                w.bool(d);
            }
            put_seq_of(&mut w, &b.seq_of);
        }
        ExecutionBackend::Queued(b) => {
            let pool = b.pool.snapshot();
            w.u8(if b.qops.is_some() {
                KIND_QOPS
            } else {
                KIND_QUEUED
            });
            put_pool(&mut w, &pool);
            put_queue(&mut w, &b.queue);
            if b.qops.is_some() {
                let running = qops_running(&pool, |id| b.seq_of.get(&id).copied());
                w.len(running.len());
                for (seq, width, finish) in running {
                    w.u64(seq);
                    w.u32(width);
                    w.f64(finish);
                }
            }
            put_seq_of(&mut w, &b.seq_of);
        }
    }
    w.buf
}

/// Decodes a BACKEND section into its backend kind and state.
fn decode_backend(payload: &[u8]) -> Result<(u8, BackendSection), CkptError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let section = match kind {
        KIND_PROPORTIONAL => {
            let n = r.count(8)?;
            let mut residents = Vec::with_capacity(n);
            for _ in 0..n {
                let job = get_job(&mut r)?;
                let width = r.count(8)?;
                let mut nodes = Vec::with_capacity(width);
                for _ in 0..width {
                    nodes.push(NodeId(r.u32()?));
                }
                let mut node_positions = Vec::with_capacity(width);
                for _ in 0..width {
                    node_positions.push(r.u32()?);
                }
                residents.push(ResidentSnapshot {
                    job,
                    nodes,
                    node_positions,
                    started: r.time()?,
                    overruns: r.u32()?,
                    remaining_work: r.f64()?,
                    remaining_est: r.f64()?,
                });
            }
            let last_update = r.time()?;
            let busy_integral = r.f64()?;
            let down_integral = r.f64()?;
            let n_down = r.count(1)?;
            let mut down = Vec::with_capacity(n_down);
            for _ in 0..n_down {
                down.push(r.bool()?);
            }
            BackendSection::Proportional {
                engine: EngineSnapshot {
                    residents,
                    last_update,
                    busy_integral,
                    down_integral,
                    down,
                },
                seq_of: get_seq_of(&mut r)?,
            }
        }
        KIND_QUEUED => BackendSection::Queued {
            pool: get_pool(&mut r)?,
            queue: get_queue(&mut r)?,
            seq_of: get_seq_of(&mut r)?,
        },
        KIND_QOPS => {
            let pool = get_pool(&mut r)?;
            let queue = get_queue(&mut r)?;
            let n = r.count(20)?;
            let mut running = Vec::with_capacity(n);
            for _ in 0..n {
                running.push((r.u64()?, r.u32()?, r.u64()?));
            }
            let seq_of = get_seq_of(&mut r)?;
            let seq_at = |id: JobId| {
                let at = seq_of.binary_search_by_key(&id.0, |(id, _)| *id).ok()?;
                Some(seq_of[at].1)
            };
            let derived = qops_running(&pool, seq_at)
                .into_iter()
                .map(|(seq, width, finish)| (seq, width, finish.to_bits()));
            if derived.ne(running) {
                return Err(malformed("qops running projection disagrees with the pool"));
            }
            BackendSection::Queued {
                pool,
                queue,
                seq_of,
            }
        }
        k => return Err(malformed(format!("invalid backend kind {k}"))),
    };
    r.done()?;
    Ok((kind, section))
}

// ---------------------------------------------------------------------
// REPORT section.
// ---------------------------------------------------------------------

fn encode_report(report: &OnlineReport) -> Vec<u8> {
    let mut w = Writer::default();
    put_tally(&mut w, &report.fulfilled);
    put_tally(&mut w, &report.accepted);
    put_tally(&mut w, &report.high_fulfilled);
    put_tally(&mut w, &report.low_fulfilled);
    put_stats(&mut w, &report.slowdown);
    put_stats(&mut w, &report.delay);
    put_stats(&mut w, &report.response);
    w.u64(report.killed);
    w.len(report.reject_reasons.len());
    for v in &report.reject_reasons {
        w.u64(*v);
    }
    put_churn(&mut w, &report.churn);
    w.f64(report.utilization);
    w.buf
}

fn decode_report(payload: &[u8]) -> Result<OnlineReport, CkptError> {
    let mut r = Reader::new(payload);
    let fulfilled = get_tally(&mut r)?;
    let accepted = get_tally(&mut r)?;
    let high_fulfilled = get_tally(&mut r)?;
    let low_fulfilled = get_tally(&mut r)?;
    let slowdown = get_stats(&mut r)?;
    let delay = get_stats(&mut r)?;
    let response = get_stats(&mut r)?;
    let killed = r.u64()?;
    let n = r.count(8)?;
    if n != RejectReason::ALL.len() {
        return Err(malformed(format!(
            "expected {} reject counters",
            RejectReason::ALL.len()
        )));
    }
    let mut reject_reasons = [0u64; RejectReason::ALL.len()];
    for slot in &mut reject_reasons {
        *slot = r.u64()?;
    }
    let churn = get_churn(&mut r)?;
    let utilization = r.f64()?;
    r.done()?;
    Ok(OnlineReport {
        fulfilled,
        accepted,
        high_fulfilled,
        low_fulfilled,
        slowdown,
        delay,
        response,
        killed,
        reject_reasons,
        churn,
        utilization,
    })
}

// ---------------------------------------------------------------------
// Checkpoint: save / load / restore.
// ---------------------------------------------------------------------

/// Serialises the canonical state of an RMS (plus, optionally, the
/// caller's [`OnlineReport`] sink) into a checkpoint container.
/// Identical state produces identical bytes — maps are serialised in
/// sorted order. An attached recorder is not part of that state and is
/// never saved.
pub fn save(rms: &ClusterRms<'_>, report: Option<&OnlineReport>) -> Vec<u8> {
    let mut sections = vec![
        (TAG_META, encode_meta(rms)),
        (TAG_SHARD, encode_shard(rms)),
        (TAG_BACKEND, encode_backend(rms)),
    ];
    if let Some(rep) = report {
        sections.push((TAG_REPORT, encode_report(rep)));
    }
    container(&sections)
}

/// A decoded, integrity-verified checkpoint, ready to restore into a
/// blank RMS.
#[derive(Debug)]
pub struct Checkpoint {
    meta: Meta,
    shard: ShardSection,
    backend: BackendSection,
    report: Option<OnlineReport>,
}

/// Parses and fully validates a checkpoint container. All structural
/// invariants are checked here; [`Checkpoint::restore_into`] only adds
/// the target-compatibility checks.
pub fn load(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
    let sections = split_sections(bytes)?;
    let find = |tag: u32| sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p);
    let meta = decode_meta(find(TAG_META).ok_or_else(|| malformed("missing META section"))?)?;
    let shard = decode_shard(find(TAG_SHARD).ok_or_else(|| malformed("missing SHARD section"))?)?;
    let (backend_kind, backend) =
        decode_backend(find(TAG_BACKEND).ok_or_else(|| malformed("missing BACKEND section"))?)?;
    if backend_kind != meta.kind {
        return Err(malformed("backend section kind disagrees with META"));
    }
    if find(TAG_MANIFEST).is_some() {
        return Err(malformed("manifest section in a shard checkpoint"));
    }
    let report = find(TAG_REPORT).map(decode_report).transpose()?;
    Ok(Checkpoint {
        meta,
        shard,
        backend,
        report,
    })
}

impl Checkpoint {
    /// Display name of the policy the checkpointed RMS was running.
    pub fn policy_name(&self) -> &str {
        &self.meta.policy_name
    }

    /// The instant the checkpoint was taken at.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// Jobs submitted up to the checkpoint.
    pub fn submitted(&self) -> u64 {
        self.shard.next_seq
    }

    /// Churn aggregates accumulated up to the checkpoint.
    pub fn churn(&self) -> &ChurnStats {
        &self.shard.churn
    }

    /// `true` when nothing is in flight: no residents, queued or
    /// running jobs, no buffered outcome events, no unresolved requeues
    /// and no pending fault events. Only quiescent shards may be
    /// retired by a shrinking reshard.
    pub fn is_quiescent(&self) -> bool {
        let backend_empty = match &self.backend {
            BackendSection::Proportional { engine, .. } => engine.residents.is_empty(),
            BackendSection::Queued { pool, queue, .. } => {
                pool.running.is_empty() && queue.is_empty()
            }
        };
        backend_empty
            && self.shard.events.is_empty()
            && self.shard.requeued.is_empty()
            && self.shard.plan_cursor == self.shard.plan_events.len()
    }

    /// The checkpointed [`OnlineReport`] summary, when one was saved.
    pub fn report(&self) -> Option<OnlineReport> {
        self.report.clone()
    }

    /// Verifies `blank` is a freshly-built RMS matching the
    /// checkpoint's identity (same backend kind, policy name, cluster
    /// inventory and engine configuration, all compared in raw bits).
    fn check_blank(&self, blank: &ClusterRms<'_>) -> Result<(), CkptError> {
        if blank.next_seq != 0
            || blank.now != SimTime::ZERO
            || !blank.events.is_empty()
            || !blank.requeued.is_empty()
            || blank.in_flight() != 0
            || !blank.plan.is_empty()
            || blank.churn != ChurnStats::default()
        {
            return Err(mismatch("restore target is not a blank RMS"));
        }
        let target = meta_of(blank);
        if target.kind != self.meta.kind {
            return Err(mismatch(format!(
                "backend kind {} but checkpoint has {}",
                target.kind, self.meta.kind
            )));
        }
        if target.policy_name != self.meta.policy_name {
            return Err(mismatch(format!(
                "policy {:?} but checkpoint was taken under {:?}",
                target.policy_name, self.meta.policy_name
            )));
        }
        if target.nodes != self.meta.nodes || target.reference_bits != self.meta.reference_bits {
            return Err(mismatch("cluster inventory differs from the checkpoint"));
        }
        if target.config != self.meta.config {
            return Err(mismatch("engine configuration differs from the checkpoint"));
        }
        Ok(())
    }

    /// Restores the checkpoint into a blank RMS built with the same
    /// policy, cluster and configuration, returning the resumed facade.
    /// All derived engine state (rates, free lists, finish heaps, share
    /// indexes, occupancy masks) is rebuilt from the canonical state,
    /// so the result is bitwise equal to the RMS the checkpoint was
    /// taken from.
    pub fn restore_into<'p>(&self, mut blank: ClusterRms<'p>) -> Result<ClusterRms<'p>, CkptError> {
        self.check_blank(&blank)?;
        match (&self.backend, &mut blank.backend) {
            (
                BackendSection::Proportional { engine, seq_of },
                ExecutionBackend::Proportional(b),
            ) => {
                check_seq_cover(
                    seq_of,
                    engine.residents.iter().map(|r| r.job.id.0),
                    self.shard.next_seq,
                    "resident",
                )?;
                let cluster = b.engine.cluster().clone();
                let cfg = *b.engine.config();
                b.engine = ProportionalCluster::from_snapshot(cluster, cfg, engine)
                    .map_err(CkptError::Malformed)?;
                b.seq_of = seq_of.iter().map(|(id, s)| (JobId(*id), *s)).collect();
                b.completed_buf = Vec::new();
            }
            (
                BackendSection::Queued {
                    pool,
                    queue,
                    seq_of,
                },
                ExecutionBackend::Queued(b),
            ) => {
                check_seq_cover(
                    seq_of,
                    pool.running.iter().map(|r| r.job.id.0),
                    self.shard.next_seq,
                    "running",
                )?;
                check_queue(queue, self.shard.next_seq)?;
                b.pool = SpaceSharedCluster::from_snapshot(b.pool.cluster().clone(), pool)
                    .map_err(CkptError::Malformed)?;
                b.queue = queue
                    .iter()
                    .map(|(seq, job)| QueuedJob {
                        seq: *seq,
                        job: job.clone(),
                    })
                    .collect();
                b.seq_of = seq_of.iter().map(|(id, s)| (JobId(*id), *s)).collect();
            }
            _ => return Err(mismatch("backend kind changed between load and restore")),
        }
        blank.now = self.shard.now;
        blank.next_seq = self.shard.next_seq;
        blank.events = self.shard.events.clone();
        blank.plan = FaultPlan::from_parts(self.shard.plan_events.clone(), self.shard.plan_cursor);
        blank.recovery = self.shard.recovery;
        blank.churn = self.shard.churn;
        blank.requeued = self
            .shard
            .requeued
            .iter()
            .map(|(seq, job)| (*seq, job.clone()))
            .collect();
        Ok(blank)
    }
}

/// Validates that a serialised seq map covers exactly the given in-
/// flight job ids, with every mapped seq below the submission counter.
fn check_seq_cover(
    seq_of: &[(u64, u64)],
    ids: impl Iterator<Item = u64>,
    next_seq: u64,
    what: &str,
) -> Result<(), CkptError> {
    let mut expect: Vec<u64> = ids.collect();
    expect.sort_unstable();
    if seq_of.len() != expect.len() || seq_of.iter().map(|(id, _)| *id).ne(expect.iter().copied()) {
        return Err(malformed(format!("seq map does not cover the {what} jobs")));
    }
    if seq_of.iter().any(|(_, seq)| *seq >= next_seq) {
        return Err(malformed("seq map entry beyond the submission counter"));
    }
    Ok(())
}

fn check_queue(queue: &[(u64, Job)], next_seq: u64) -> Result<(), CkptError> {
    if queue.iter().any(|(seq, _)| *seq >= next_seq) {
        return Err(malformed("queued seq beyond the submission counter"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Atomic persistence.
// ---------------------------------------------------------------------

/// Writes a snapshot crash-safely: the bytes land in a temp file that
/// is fsynced and then renamed over `path`, so a crash at any instant
/// leaves either the old snapshot or the new one — never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// A directory of numbered snapshots (`ckpt-NNNNNNNN.bin`) with
/// corruption-tolerant recovery: [`CheckpointStore::load_latest`] walks
/// newest-first and skips snapshots that fail integrity checks, so a
/// crash that tears the newest file falls back to the previous good one.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The directory snapshots live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Numbered snapshot files, ascending by sequence number.
    fn entries(&self) -> Result<Vec<(u64, PathBuf)>, CkptError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".bin"))
            else {
                continue;
            };
            if let Ok(seq) = num.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
        out.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Persists one snapshot under the next sequence number and
    /// returns its path.
    pub fn save(&self, bytes: &[u8]) -> Result<PathBuf, CkptError> {
        let next = self.entries()?.last().map_or(0, |(seq, _)| seq + 1);
        let path = self.dir.join(format!("ckpt-{next:08}.bin"));
        write_atomic(&path, bytes)?;
        Ok(path)
    }

    /// Loads the newest snapshot that passes every integrity check,
    /// skipping (not deleting) corrupt ones. `Ok(None)` when no good
    /// snapshot exists.
    pub fn load_latest(&self) -> Result<Option<(PathBuf, Checkpoint)>, CkptError> {
        for (_, path) in self.entries()?.into_iter().rev() {
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Ok(ckpt) = load(&bytes) {
                return Ok(Some((path, ckpt)));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Sharded checkpoints + reshard restore.
// ---------------------------------------------------------------------

/// Routing-level state of a [`ShardedRms`], stored in the manifest next
/// to the per-shard snapshots.
#[derive(Debug)]
pub struct Manifest {
    /// Number of shard snapshot files (`shard-<i>.ckpt`).
    pub shard_count: usize,
    /// Router-wide submission counter.
    pub next_seq: u64,
    /// Per shard: local seq → global seq table.
    pub global_of: Vec<Vec<u64>>,
    /// Churn carried from shards retired by earlier reshards.
    pub carried_churn: ChurnStats,
}

fn encode_manifest(rms: &ShardedRms<'_>) -> Vec<u8> {
    let mut w = Writer::default();
    w.len(rms.shards.len());
    // A route tag and a round-robin cursor: both 0 under the one route,
    // `RouteBy::JobHash`, and kept so the wire layout stays fixed.
    w.u8(0);
    w.u64(0);
    w.u64(rms.next_seq);
    w.len(rms.global_of.len());
    for table in &rms.global_of {
        w.len(table.len());
        for seq in table {
            w.u64(*seq);
        }
    }
    put_churn(&mut w, &rms.carried_churn);
    w.buf
}

fn decode_manifest(payload: &[u8]) -> Result<Manifest, CkptError> {
    let mut r = Reader::new(payload);
    let shard_count = r.count(0)?;
    if shard_count == 0 {
        return Err(malformed("manifest with zero shards"));
    }
    let route = r.u8()?;
    if route != 0 {
        return Err(malformed(format!("invalid route tag {route}")));
    }
    if r.u64()? != 0 {
        return Err(malformed("round-robin cursor under the hash route"));
    }
    let next_seq = r.u64()?;
    let n_tables = r.count(8)?;
    if n_tables != shard_count {
        return Err(malformed("one seq table per shard required"));
    }
    let mut global_of = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let n = r.count(8)?;
        let mut table = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            if seq >= next_seq {
                return Err(malformed("global seq beyond the submission counter"));
            }
            table.push(seq);
        }
        global_of.push(table);
    }
    let carried_churn = get_churn(&mut r)?;
    r.done()?;
    Ok(Manifest {
        shard_count,
        next_seq,
        global_of,
        carried_churn,
    })
}

/// Path of shard `i`'s snapshot under `dir`.
pub fn shard_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}.ckpt"))
}

/// Path of the router manifest under `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.ckpt")
}

/// Checkpoints every shard of a router plus its manifest into `dir`
/// (created if needed). Each file is written atomically; the manifest
/// goes last, so a crash mid-save leaves the previous manifest pointing
/// at the previous (still intact) shard set only if shard counts
/// changed — rewrite into a fresh directory when that matters.
pub fn save_sharded(rms: &ShardedRms<'_>, dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(rms.shards.len() + 1);
    for (i, shard) in rms.shards.iter().enumerate() {
        let path = shard_path(dir, i);
        write_atomic(&path, &save(shard, None))?;
        paths.push(path);
    }
    let path = manifest_path(dir);
    write_atomic(&path, &container(&[(TAG_MANIFEST, encode_manifest(rms))]))?;
    paths.push(path);
    Ok(paths)
}

/// Reads and validates the router manifest under `dir`.
pub fn load_manifest(dir: &Path) -> Result<Manifest, CkptError> {
    let bytes = fs::read(manifest_path(dir))?;
    let sections = split_sections(&bytes)?;
    match sections.as_slice() {
        [(TAG_MANIFEST, payload)] => decode_manifest(payload),
        _ => Err(malformed(
            "manifest file must hold exactly one manifest section",
        )),
    }
}

/// Restores a sharded checkpoint into `blanks.len()` shards — the live
/// reconfiguration path. With `M = blanks.len()` blanks and `N`
/// checkpointed shards:
///
/// * `M == N`: every shard restores in place.
/// * `M > N` (grow): shards `0..N` restore, `N..M` start blank. Under
///   the hash route, future jobs route by `hash mod M`.
/// * `M < N` (shrink): shards `0..M` restore; retired shards `M..N`
///   must be quiescent ([`Checkpoint::is_quiescent`]) and their churn
///   aggregates fold into the router's carried totals. Retired shards'
///   utilisation no longer contributes to [`ShardedRms::utilization`].
///
/// Each restored shard's blank must match its checkpoint (policy,
/// sub-cluster, configuration) exactly as in [`Checkpoint::restore_into`].
pub fn restore_sharded<'p>(
    dir: &Path,
    blanks: Vec<ClusterRms<'p>>,
) -> Result<ShardedRms<'p>, CkptError> {
    let manifest = load_manifest(dir)?;
    let n = manifest.shard_count;
    let m = blanks.len();
    if m == 0 {
        return Err(mismatch("cannot restore into zero shards"));
    }
    let mut checkpoints = Vec::with_capacity(n);
    for i in 0..n {
        let bytes = fs::read(shard_path(dir, i))?;
        checkpoints.push(load(&bytes)?);
    }
    let mut carried = manifest.carried_churn;
    let mut global_of = manifest.global_of;
    if m < n {
        for (i, ckpt) in checkpoints.iter().enumerate().skip(m) {
            if !ckpt.is_quiescent() {
                return Err(mismatch(format!(
                    "cannot shrink to {m} shards: shard {i} still has work in flight"
                )));
            }
            carried.merge(ckpt.churn());
        }
        global_of.truncate(m);
    }
    let mut shards = Vec::with_capacity(m);
    for (i, blank) in blanks.into_iter().enumerate() {
        if i < n.min(m) {
            shards.push(checkpoints[i].restore_into(blank)?);
        } else {
            shards.push(blank);
        }
    }
    global_of.resize_with(m, Vec::new);
    Ok(ShardedRms::from_parts(
        shards,
        manifest.next_seq,
        global_of,
        carried,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qops::QopsConfig;
    use cluster::Cluster;
    use sim::SimDuration;

    fn job(id: u64, runtime: f64, procs: u32) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::ZERO,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(runtime),
            procs,
            deadline: SimDuration::from_secs(10_000.0),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn qops_running_list_must_match_the_pool() {
        let mut rms = ClusterRms::qops(Cluster::homogeneous(2, 168.0), QopsConfig::default());
        // Two running jobs, one waiting behind them.
        for (id, procs) in [(0, 1), (1, 1), (2, 2)] {
            rms.submit(job(id, 100.0 + id as f64, procs), SimTime::ZERO);
        }
        let ExecutionBackend::Queued(b) = &rms.backend else {
            unreachable!("QoPS runs on the queued backend")
        };
        assert_eq!((b.pool.running_jobs(), b.queue.len()), (2, 1));
        // The running list sits after the kind byte, the pool and the
        // queue; the first finish after its count, seq and width.
        let mut head = Writer::default();
        head.u8(KIND_QOPS);
        put_pool(&mut head, &b.pool.snapshot());
        put_queue(&mut head, &b.queue);
        let finish_at = head.buf.len() + 8 + 8 + 4;
        let backend = encode_backend(&rms);
        let with_backend = |payload: Vec<u8>| {
            container(&[
                (TAG_META, encode_meta(&rms)),
                (TAG_SHARD, encode_shard(&rms)),
                (TAG_BACKEND, payload),
            ])
        };
        load(&with_backend(backend.clone())).expect("the consistent snapshot loads");

        let mut altered = backend;
        let finish = f64::from_le_bytes(altered[finish_at..finish_at + 8].try_into().unwrap());
        assert_eq!(finish, 100.0, "the first running job's estimated finish");
        altered[finish_at..finish_at + 8].copy_from_slice(&(finish + 1.0).to_le_bytes());
        match load(&with_backend(altered)) {
            Err(CkptError::Malformed(why)) => assert!(why.contains("running"), "{why}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
