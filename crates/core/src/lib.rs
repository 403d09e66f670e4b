//! `wormsim` — a reproduction of Boppana & Chalasani, *A Comparison of
//! Adaptive Wormhole Routing Algorithms* (ISCA 1993).
//!
//! The crate drives a flit-level torus/mesh simulator through the paper's
//! measurement methodology and regenerates its evaluation:
//!
//! * **Six routing algorithms** — e-cube, north-last, 2pn, phop, nhop, nbc —
//!   plus a deliberately deadlock-prone `naive` strawman
//!   ([`AlgorithmKind`]).
//! * **Three switching disciplines** — wormhole, virtual cut-through,
//!   store-and-forward ([`Switching`]).
//! * **The paper's workloads** — uniform, hotspot, local traffic, plus the
//!   classic permutations ([`TrafficConfig`]).
//! * **The paper's statistics** — stratified hop-class latency estimation
//!   with dual convergence criteria ([`stats`]).
//! * **Fault injection** — static and transient link/node failures with
//!   livelock guards, run budgets, and a structured [`RunOutcome`] per run
//!   ([`faults`], [`Experiment::faults`]).
//!
//! The main entry point is [`Experiment`]: configure a network and an
//! offered load (as a fraction of channel capacity, the paper's x-axis),
//! call [`Experiment::run`], and receive a [`RunResult`] with converged
//! latency and throughput estimates.
//!
//! # Quickstart
//!
//! ```
//! use wormsim::{Experiment, AlgorithmKind, TrafficConfig};
//! use wormsim::topology::Topology;
//!
//! // Average message latency of phop on an 8x8 torus at 30% offered load.
//! let result = Experiment::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
//!     .traffic(TrafficConfig::Uniform)
//!     .offered_load(0.3)
//!     .seed(1)
//!     .quick() // short schedule for doc tests; drop for real runs
//!     .run()?;
//! assert!(result.latency.mean() > 18.0); // at least the zero-load latency
//! assert!(result.achieved_utilization > 0.2);
//! # Ok::<(), wormsim::ExperimentError>(())
//! ```
//!
//! The paper's figures are available as presets: see [`presets`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
pub mod presets;
mod report;
mod result;
mod saturation;
mod schedule;
pub mod wire;

pub use experiment::{Experiment, ExperimentError};
pub use report::{format_results_table, format_sweep_csv};
pub use result::{ClassLatency, PanicInfo, RunOutcome, RunResult, SweepPoint, SweepSummary};
pub use saturation::{saturation_step, SaturationPoint, SaturationStep};
pub use schedule::MeasurementSchedule;
pub use wire::{wire_digest, WIRE_PROTOCOL};

// Re-export the substrate crates under stable names so downstream users
// need only one dependency.
pub use wormsim_engine as engine;
pub use wormsim_faults as faults;
pub use wormsim_observe as observe;
pub use wormsim_routing as routing;
pub use wormsim_stats as stats;
pub use wormsim_topology as topology;
pub use wormsim_traffic as traffic;
pub use wormsim_verify as verify;

// The most common types, re-exported flat for convenience.
pub use wormsim_engine::{
    CancelToken, EjectionModel, LivelockReport, NetworkBuilder, ObserverHandle, SelectionPolicy,
    Switching,
};
pub use wormsim_faults::{Fault, FaultPlan, FaultRegion, FaultTarget, Reachability};
pub use wormsim_observe::{ObserveConfig, RunManifest, Sample};
pub use wormsim_routing::AlgorithmKind;
pub use wormsim_stats::{ConfidenceInterval, ConvergencePolicy, ConvergenceStatus};
pub use wormsim_topology::{NodeId, Topology};
pub use wormsim_traffic::{ArrivalProcess, MessageLength, TrafficConfig};
