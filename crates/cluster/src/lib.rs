//! # `cluster` — the cluster substrate
//!
//! Models the machine the admission controls manage (the paper's IBM SP2
//! at SDSC: 128 computation nodes, each a single-processor node with a
//! SPEC rating):
//!
//! * [`node`] / [`cluster`] — node inventory with per-node SPEC ratings
//!   (heterogeneity supported; the paper's machine is homogeneous).
//! * [`proportional`] — the deadline-based **proportional processor
//!   share** execution engine Libra/LibraRisk run on: each resident job
//!   requires share `remaining_runtime / remaining_deadline`; rates are
//!   renormalised when a node is overloaded and recomputed at every event.
//!   The engine tracks *actual* work and *scheduler-believed* (estimated)
//!   work separately — the divergence between the two is the paper's
//!   entire subject.
//! * [`spaceshared`] — the space-shared processor pool EDF/FCFS run on
//!   (one job per processor, non-preemptive).
//! * [`projection`] — the node-local what-if simulation that admission
//!   controls use to project per-job delays, deadline-delay values
//!   (Eq. 4) and the risk `σ_j` (Eq. 6).
//! * [`fault`] — deterministic node-churn plans (seeded exponential
//!   MTBF/MTTR scripts) both execution engines consume via
//!   `fail_node`/`restore_node`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod node;
pub mod projection;
pub mod proportional;
pub mod spaceshared;

pub use cluster::Cluster;
pub use fault::{FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
pub use node::{Node, NodeId};
pub use proportional::{
    CompletedJob, DisplacedJob, EngineSnapshot, ProportionalCluster, ProportionalConfig,
    ResidentSnapshot,
};
pub use spaceshared::{PoolSnapshot, RunningSnapshot, SpaceSharedCluster};
