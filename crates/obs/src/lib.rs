//! Zero-dependency observability for the online RMS.
//!
//! The simulation core answers *what* happened (accepted, rejected,
//! fulfilled); this crate answers *why* and *when*, while traffic is
//! still flowing. It deliberately depends on nothing — not even the
//! workspace's own `sim` crate — so every layer of the stack can emit
//! events into it without dependency cycles, and so the whole thing
//! stays trivially auditable.
//!
//! Three pieces:
//!
//! 1. **[`Recorder`]** — the hook trait the RMS calls at every
//!    interesting instant. [`NoopRecorder`] (the default) compiles the
//!    hooks down to a single branch; [`TraceRecorder`] keeps a bounded
//!    ring of structured [`Event`]s, dropping the *oldest* entries on
//!    overflow and counting the drops.
//! 2. **[`Registry`]** — a static-key metrics registry (counters,
//!    gauges, fixed-bucket histograms) with a Prometheus-style text
//!    dump. The ring recorder owns one and feeds it from the event
//!    stream.
//! 3. **Exporters** ([`export`]) — JSONL event log and Chrome
//!    `trace_event` JSON (open in `about:tracing` / Perfetto), plus a
//!    tiny JSON parser ([`json`]) so exported output can be validated
//!    round-trip without serde.
//!
//! The contract with the core is strict: recording must be
//! *behaviourally inert*. A recorder observes decisions, it never
//! participates in them — the core pins this with a bitwise-identity
//! property test over every policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod keys;
pub mod phase;
pub mod reason;
pub mod recorder;
pub mod registry;
pub mod serve;

pub use event::{DecisionAudit, Event, GaugeDelta, ResolvedKind, TimedEvent, Verdict};
pub use reason::RejectReason;
pub use recorder::{merge_traces, MergedTrace, NoopRecorder, Recorder, TraceRecorder};
pub use registry::{Histogram, Registry};
pub use serve::{HealthReport, ShardHealth, TelemetryHub, TelemetryServer};
