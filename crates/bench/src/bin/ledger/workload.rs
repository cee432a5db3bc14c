//! The five named workloads. Each is LibraRisk on the paper's machine
//! (128 nodes at SPEC rating 168) replaying a seeded synthetic SDSC-SP2
//! trace with trace estimates and the default deadline model; they differ
//! in load, node churn, and whether a shard router sits in front.

use cluster::{Cluster, FaultPlan, RecoveryPolicy};
use experiments::Scenario;
use librisk::{ClusterRms, PolicyKind, RouteBy, ShardedRms};
use std::hint::black_box;
use std::time::Instant;
use workload::params::SDSC_SP2_SPEC_RATING;
use workload::Trace;

/// What a full-size run at seed 1 must produce, exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pins {
    pub submitted: u64,
    pub accepted: u64,
    pub fulfilled: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub jobs: usize,
    /// Fig. 1's knob: inter-arrival gaps are multiplied by this.
    pub arrival_delay_factor: f64,
    /// Per-node mean time between failures, simulated seconds; 0 means
    /// fault-free.
    pub node_mtbf: f64,
    pub node_mttr: f64,
    /// Equal partitions of the machine. With 1 the client drives one
    /// `ClusterRms`; with more it drives a `ShardedRms` routing by
    /// `JobHash`.
    pub shards: usize,
    /// Arrivals per `advance`: 1 advances before every arrival.
    pub cadence: usize,
    /// `None` on smoke-size copies, which have no pins.
    pub pins: Option<Pins>,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "paper-100k",
        jobs: 100_000,
        arrival_delay_factor: 1.0,
        node_mtbf: 0.0,
        node_mttr: 0.0,
        shards: 1,
        cadence: 1,
        pins: Some(Pins {
            submitted: 100_000,
            accepted: 85_577,
            fulfilled: 74_756,
        }),
    },
    Spec {
        name: "overload-4x",
        jobs: 50_000,
        arrival_delay_factor: 0.25,
        node_mtbf: 0.0,
        node_mttr: 0.0,
        shards: 1,
        cadence: 1,
        pins: Some(Pins {
            submitted: 50_000,
            accepted: 29_196,
            fulfilled: 22_430,
        }),
    },
    Spec {
        name: "churn-requeue",
        jobs: 50_000,
        arrival_delay_factor: 1.0,
        node_mtbf: 1e6,
        node_mttr: 14_400.0,
        shards: 1,
        cadence: 1,
        pins: Some(Pins {
            submitted: 50_000,
            accepted: 43_307,
            fulfilled: 38_435,
        }),
    },
    Spec {
        name: "sharded-stream",
        jobs: 50_000,
        arrival_delay_factor: 1.0,
        node_mtbf: 0.0,
        node_mttr: 0.0,
        shards: 2,
        cadence: 1,
        pins: Some(Pins {
            submitted: 50_000,
            accepted: 39_363,
            fulfilled: 36_762,
        }),
    },
    Spec {
        name: "sharded-batch",
        jobs: 400_000,
        arrival_delay_factor: 1.0,
        node_mtbf: 0.0,
        node_mttr: 0.0,
        shards: 2,
        cadence: 1024,
        pins: Some(Pins {
            submitted: 400_000,
            accepted: 314_141,
            fulfilled: 292_792,
        }),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything generated from the seed: the arrivals, the churn plan and
/// the cluster one partition runs on.
pub struct Inputs {
    pub trace: Trace,
    pub plan: FaultPlan,
    pub part: Cluster,
}

impl Inputs {
    /// The same arrivals and partition on a machine that never fails.
    pub fn without_faults(&self) -> Inputs {
        Inputs {
            trace: self.trace.clone(),
            plan: FaultPlan::empty(),
            part: self.part.clone(),
        }
    }
}

/// Set-up cost of one workload, seconds.
pub struct Setup {
    pub trace_build_s: f64,
    pub total_s: f64,
}

impl Spec {
    /// The same workload at another size, without pins.
    #[cfg(test)]
    pub fn smoke(&self, jobs: usize) -> Spec {
        Spec {
            jobs,
            pins: None,
            ..*self
        }
    }

    fn scenario(&self, seed: u64) -> Scenario {
        Scenario {
            jobs: self.jobs,
            seed,
            arrival_delay_factor: self.arrival_delay_factor,
            node_mtbf: self.node_mtbf,
            node_mttr: self.node_mttr,
            recovery: RecoveryPolicy::Requeue,
            ..Scenario::default()
        }
    }

    /// Builds the inputs and the client's RMS (or router) once, timing
    /// both; the RMS is dropped, since every replay starts from a fresh
    /// one.
    pub fn setup(&self, seed: u64) -> (Inputs, Setup) {
        let t0 = Instant::now();
        let scenario = self.scenario(seed);
        let trace = scenario.build_trace();
        let trace_build_s = t0.elapsed().as_secs_f64();
        // The plan's node ids cover the whole machine, so only an
        // unpartitioned workload may carry one.
        assert!(self.node_mtbf == 0.0 || self.shards == 1);
        let inputs = Inputs {
            plan: scenario.fault_plan(&trace),
            trace,
            part: Cluster::homogeneous(scenario.nodes / self.shards, SDSC_SP2_SPEC_RATING),
        };
        if self.shards == 1 {
            black_box(self.shard_rms(&inputs));
        } else {
            black_box(self.router(&inputs));
        }
        let total_s = t0.elapsed().as_secs_f64();
        (
            inputs,
            Setup {
                trace_build_s,
                total_s,
            },
        )
    }

    /// One partition's RMS, with the workload's churn plan.
    pub fn shard_rms(&self, inputs: &Inputs) -> ClusterRms<'static> {
        PolicyKind::LibraRisk
            .rms(&inputs.part)
            .with_faults(inputs.plan.clone(), RecoveryPolicy::Requeue)
    }

    /// `shards` partitions behind the router (one partition when the
    /// workload is unsharded).
    pub fn router(&self, inputs: &Inputs) -> ShardedRms<'static> {
        let shards = (0..self.shards).map(|_| self.shard_rms(inputs)).collect();
        ShardedRms::new(shards, RouteBy::JobHash).expect("every workload has at least one shard")
    }
}
