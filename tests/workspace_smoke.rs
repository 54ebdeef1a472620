//! Workspace smoke test: every member crate's public entry type constructs
//! from its default (or paper-default) configuration without panicking, and
//! the umbrella crate re-exports each of them under its canonical path.
//!
//! This is deliberately shallow — constructing is the contract. Deeper
//! behavior is covered by each crate's unit tests and `end_to_end.rs`.

use photonic_disagg::core::rack_analysis::RackAnalysis;
use photonic_disagg::core::rack_builder::DisaggregatedRack;
use photonic_disagg::cpusim::{CoreKind, CpuConfig, Simulator};
use photonic_disagg::fabric::flowsim::{FlowSimConfig, FlowSimulator};
use photonic_disagg::fabric::rackfabric::RackFabric;
use photonic_disagg::gpusim::{GpuConfig, GpuTimingModel};
use photonic_disagg::photonics::dwdm::DwdmLinkBuilder;
use photonic_disagg::photonics::fec::LinkErrorModel;
use photonic_disagg::rack::isoperf::IsoPerformanceAnalysis;
use photonic_disagg::rack::mcm::RackComposition;
use photonic_disagg::rack::power::RackPowerModel;
use photonic_disagg::workloads::production::ProductionDistributions;
use photonic_disagg::workloads::{cpu_benchmarks, gpu_applications};

#[test]
fn photonics_entry_types_construct() {
    let link = DwdmLinkBuilder::new().build();
    assert!(link.one_way_latency().ns() > 0.0);
    let fec = LinkErrorModel::paper_nominal();
    assert!(fec.analyze().effective_ber > 0.0);
}

#[test]
fn fabric_entry_types_construct() {
    let fabric = RackFabric::paper_awgr();
    assert!(fabric.report().min_direct_wavelengths >= 1);
    // The flow simulator constructs against the default config.
    let _sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
}

#[test]
fn cpusim_entry_type_constructs_and_runs() {
    for kind in [CoreKind::InOrder, CoreKind::OutOfOrder] {
        let sim = Simulator::new(CpuConfig::baseline(kind));
        let bench = &cpu_benchmarks()[0];
        let result = sim.run(&bench.trace(1_000));
        assert!(result.cycles > 0);
    }
}

#[test]
fn gpusim_entry_type_constructs_and_runs() {
    let model = GpuTimingModel::new(GpuConfig::default());
    let apps = gpu_applications();
    assert_eq!(apps.len(), 24);
    assert!(model.run(&apps[0]).total_cycles > 0.0);
}

#[test]
fn workloads_entry_types_construct() {
    assert!(!cpu_benchmarks().is_empty());
    let dist = ProductionDistributions::cori_haswell();
    assert_eq!(dist.sample_nodes_stable(8, 1).len(), 8);
}

#[test]
fn rack_entry_types_construct() {
    let composition = RackComposition::paper_rack();
    assert!(composition.total_mcms() > 0);
    let iso = IsoPerformanceAnalysis::paper();
    assert!(iso.chip_reduction() > 0.0);
    let power = RackPowerModel::paper_rack();
    assert!(power.photonic_overhead().overhead_percent() > 0.0);
}

#[test]
fn core_entry_types_construct() {
    let rack = DisaggregatedRack::paper_awgr();
    assert_eq!(rack.summary().total_mcms, 350);
    let analysis = RackAnalysis::paper();
    assert!(!analysis.headline_claims().is_empty());
}
