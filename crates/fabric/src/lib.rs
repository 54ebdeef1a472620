//! # fabric
//!
//! The rack-scale optical fabric of the paper: passive AWGR all-to-all
//! topologies, staggered spatial/wave-selective switch fabrics, a flow-level
//! wavelength-allocation simulator with two-hop indirect (Valiant) routing,
//! and the electronic-switch baselines the paper compares against
//! (Section V-B, Section IV, Section VI-A/D).
//!
//! * [`rackfabric`] — the full rack construction: 350 MCMs x 32 fibers x
//!   64 wavelengths connected either to six parallel cascaded AWGRs
//!   (case A) or to eleven staggered 256-port wave-selective/spatial
//!   switches (case B), with the paper's connectivity guarantees (≥5 direct
//!   wavelengths per MCM pair for AWGRs, ≥3 direct switch paths otherwise).
//! * [`flowsim`] — a flow-level simulator that allocates direct and indirect
//!   (Valiant) wavelength capacity to a demand matrix and reports
//!   satisfaction, hop counts, and latency.
//! * [`timeline`] — an epoch-based temporal simulator on top of [`flowsim`]:
//!   one demand matrix per reconfiguration interval, evaluated against a
//!   persistent wavelength assignment under static / greedy-re-steer /
//!   hysteresis reallocation policies (the Section VI-A bandwidth-steering
//!   argument made quantitative).
//! * [`flexgrid`] — an elastic optical spectrum layer over the same
//!   topologies: 12.5 GHz frequency slots per MCM pair, K-shortest-path
//!   candidate routing, a reach-limited modulation ladder, guardband
//!   enforcement, and a first-fit / best-fit / exact-fit × defragmentation
//!   policy zoo with an in-tree exhaustive oracle.
//! * [`electronic`] — PCIe Gen5 tree / Anton 3 / Rosetta-class electronic
//!   switch latency and bandwidth models (the 85 ns comparison point of
//!   Fig. 12).
//!
//! Demand matrices for [`flowsim`] come from `workloads::traffic`, and the
//! `core::sweep` engine sweeps this crate's topology knobs (rack size,
//! fibers, wavelengths, fabric kind) as grid axes. See the repository's
//! `ARCHITECTURE.md` for the full crate DAG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod electronic;
pub mod flexgrid;
pub mod flowsim;
pub mod rackfabric;
pub mod timeline;

pub use electronic::{ElectronicFabric, ElectronicSwitchKind};
pub use flexgrid::{
    link_slot_budget, modulation_for_hops, AdmissionPolicy, DefragPolicy, FlexEpochResult,
    FlexGridArena, FlexGridConfig, FlexGridReport, FlexGridSimulator, Lightpath, ModulationFormat,
    SpectrumAllocator, SpectrumPolicy, MODULATION_LADDER,
};
pub use flowsim::{Flow, FlowArena, FlowSimConfig, FlowSimReport, FlowSimulator};
pub use rackfabric::{FabricKey, FabricKind, FabricReport, RackFabric, RackFabricConfig};
pub use timeline::{
    EpochResult, ReallocationPolicy, TimelineArena, TimelineConfig, TimelineReport,
    TimelineSimulator,
};
