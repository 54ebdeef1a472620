//! # disagg-core
//!
//! The high-level API of the reproduction: it ties the photonic device
//! models, the rack fabric, the CPU/GPU simulators, and the workload
//! registries together into **experiment drivers** that regenerate every
//! table and figure of the paper's evaluation (Section VI), plus a
//! [`DisaggregatedRack`] façade that a
//! downstream user would start from.
//!
//! * [`rack_builder`] — build the paper's photonically-disaggregated rack
//!   (or variants) and summarize its properties.
//! * [`cpu_experiments`] — the gem5-equivalent CPU latency studies
//!   (Figs. 6, 7, 8, the CPU half of Fig. 12).
//! * [`gpu_experiments`] — the PPT-GPU-equivalent GPU latency studies
//!   (Figs. 9, 10, 11, the GPU half of Fig. 12).
//! * [`rack_analysis`] — the analytical results: Tables I–IV, the Fig. 5
//!   connectivity guarantee, power overhead, BER/FEC, bandwidth
//!   sufficiency, and the iso-performance comparison.
//! * [`sweep`] — the declarative scenario-sweep engine: cartesian
//!   [`SweepGrid`]s over rack topology, DWDM/FEC
//!   settings, fabric construction, and traffic pattern — or, on the
//!   temporal axis, phased demand timelines under wavelength-reallocation
//!   policies — executed in parallel with memoized fabric builds, plus the
//!   engine-backed paper artifacts ([`sweep::artifacts`]).
//! * [`sample`] — representative-scenario sampling over those grids
//!   (SimPoint for sweeps): cheap per-scenario feature vectors, seeded
//!   k-means, one weighted representative per cluster, and a reconstructed
//!   full-grid summary with declared error bounds.
//! * [`energy`] — per-scenario energy accounting (Section VI-C made
//!   dynamic): always-on vs utilization-scaled transceiver energy, FEC
//!   coding overhead, per-event wavelength-reconfiguration energy, and the
//!   switch/laser idle floor, surfaced as the
//!   [`EnergyStats`] block of every energy-enabled
//!   sweep.
//! * [`report`] — plain-text table formatting used by the bench binaries
//!   and the JSON-able [`SweepReport`] schema every
//!   sweep produces.
//!
//! The repository-level `ARCHITECTURE.md` documents how these modules sit
//! between the device/fabric crates below and the `bench` binaries above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod cpu_experiments;
pub mod energy;
pub mod gpu_experiments;
mod hash;
pub mod jobs;
pub mod rack_analysis;
pub mod rack_builder;
pub mod report;
pub mod sample;
pub mod sweep;

pub use cpu_experiments::{
    run_cpu_experiment, summarize_by_suite, CpuBenchmarkResult, CpuExperimentConfig, SuiteSummary,
};
pub use energy::{EnergyConfig, EnergyMode, EnergyModel, EnergyStats};
pub use gpu_experiments::{run_gpu_experiment, GpuBenchmarkResult, GpuExperimentConfig};
pub use jobs::{JobOutcome, JobRunner, JobSpec, RefusedShard};
pub use rack_analysis::RackAnalysis;
pub use rack_builder::{DisaggregatedRack, RackSummary};
pub use report::{ReuseStats, SamplingStats, SteerStats, SweepReport, SweepRow, ThroughputStats};
pub use sample::{ClusterPlan, SampleConfig};
pub use sweep::{Scenario, ScenarioLoad, ScenarioResult, SweepGrid, TimelineCase};

/// The paper's latency sweep for CPU/GPU studies, in nanoseconds:
/// baseline (0), the photonic sensitivity points (25, 30, 35), and the best
/// electronic switch (85).
pub const LATENCY_SWEEP_NS: [f64; 5] = [0.0, 25.0, 30.0, 35.0, 85.0];

/// The photonic design point (35 ns) used by most figures.
pub const PHOTONIC_LATENCY_NS: f64 = 35.0;

/// The best electronic-switch design point (85 ns) used by Fig. 12.
pub const ELECTRONIC_LATENCY_NS: f64 = 85.0;
