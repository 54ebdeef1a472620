//! # photonic-disagg
//!
//! Umbrella crate for the reproduction of *"Efficient Intra-Rack Resource
//! Disaggregation for HPC Using Co-Packaged DWDM Photonics"* (CLUSTER 2023).
//!
//! This crate simply re-exports the workspace crates so that examples and
//! downstream users have a single dependency:
//!
//! * [`photonics`] — photonic links, switches, FEC/BER and power models.
//! * [`fabric`] — the rack-scale optical fabric, the flow simulator with
//!   two-hop indirect routing, the epoch-based timeline simulator with
//!   wavelength-reallocation policies, and the electronic-switch baselines.
//! * [`cpusim`] — the trace-driven CPU timing simulator.
//! * [`gpusim`] — the analytical GPU timing simulator.
//! * [`workloads`] — synthetic benchmark kernels, production utilization
//!   distributions, traffic patterns, and phased demand timelines.
//! * [`rack`] — rack/node/MCM configuration and iso-performance analysis.
//! * [`core`] — experiment drivers that regenerate every table and figure
//!   of the paper, and the declarative scenario-sweep engine
//!   ([`core::sweep`]) that executes arbitrary
//!   topology/wavelength/fabric/workload grids in parallel.
//!
//! See the repository's `ARCHITECTURE.md` for the crate dependency DAG and
//! the data flow from the device models up to the paper artifacts.

pub use cpusim;
pub use disagg_core as core;
pub use fabric;
pub use gpusim;
pub use photonics;
pub use rack;
pub use workloads;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
