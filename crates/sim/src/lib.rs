//! # `sim` — virtual time and reproducible randomness
//!
//! The shared substrate of the reproduction of Yeo & Buyya, *"Managing
//! Risk of Inaccurate Runtime Estimates for Deadline Constrained Job
//! Admission Control in Clusters"* (ICPP 2006), which evaluates on
//! GridSim. No event loop lives here: the online RMS facade
//! (`librisk::ClusterRms`) is pulled to each arrival instant, and the
//! execution engines report their own next event time. What every
//! crate shares is:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual-clock time axis with total
//!   ordering (non-NaN by construction).
//! * [`rng`] — a from-scratch xoshiro256++ PRNG with SplitMix64 seeding and
//!   named stream splitting, so every experiment is bit-reproducible across
//!   toolchains and platforms (no dependency on `rand`'s evolving output
//!   streams).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;

pub use rng::Rng64;
pub use time::{SimDuration, SimTime};
