//! Cross-crate integration tests: build the paper's rack end to end and
//! check the headline qualitative results of the evaluation section hold
//! when all the pieces (photonic models, fabric, simulators, workloads,
//! provisioning analysis) are wired together the way the bench harness and
//! examples use them.

use photonic_disagg::core::cpu_experiments::{
    electronic_comparison, miss_rate_correlation, run_cpu_experiment_subset, summarize_by_suite,
    CpuExperimentConfig,
};
use photonic_disagg::core::gpu_experiments::{
    average_slowdown, run_gpu_experiment, GpuExperimentConfig,
};
use photonic_disagg::core::rack_analysis::RackAnalysis;
use photonic_disagg::core::rack_builder::DisaggregatedRack;
use photonic_disagg::cpusim::CoreKind;
use photonic_disagg::fabric::flowsim::{Flow, FlowSimConfig, FlowSimulator};
use photonic_disagg::fabric::rackfabric::FabricKind;
use photonic_disagg::workloads::cpu::CpuSuite;

/// The analytical evaluation (Tables I-IV, Fig. 5, power, BER, bandwidth,
/// iso-performance) reproduces every headline claim.
#[test]
fn analytical_claims_reproduce() {
    let analysis = RackAnalysis::paper();
    for (claim, holds) in analysis.headline_claims() {
        assert!(holds, "claim failed: {claim}");
    }
}

/// Building both fabric variants of the rack gives the paper's structure:
/// 350 MCMs, 6.4 TB/s escape, ~35 ns photonic latency, ~5% power overhead.
#[test]
fn rack_builder_matches_paper_structure() {
    let awgr = DisaggregatedRack::paper(FabricKind::ParallelAwgrs).summary();
    assert_eq!(awgr.total_mcms, 350);
    assert_eq!(awgr.fabric.planes, 6);
    assert!(awgr.disaggregation_latency_ns <= 38.0);
    assert!(awgr.photonic_overhead_percent < 7.0);

    let wss = DisaggregatedRack::paper(FabricKind::WaveSelective).summary();
    assert_eq!(wss.fabric.planes, 11);
    assert!(wss.fabric.needs_scheduler);
    assert!(!awgr.fabric.needs_scheduler);
}

/// CPU + GPU experiments, run at reduced scale, preserve the paper's
/// qualitative results: LLC-resident benchmarks are barely affected,
/// LLC-thrashing ones slow down substantially, slowdown tracks LLC miss
/// rate, the photonic fabric beats the electronic one everywhere, and GPUs
/// tolerate the latency better than CPUs.
#[test]
fn simulation_claims_reproduce_at_reduced_scale() {
    let names = [
        "swaptions",
        "streamcluster",
        "nw",
        "canneal",
        "ep",
        "backprop",
        "srad",
    ];
    let cfg = CpuExperimentConfig {
        latencies_ns: vec![0.0, 35.0, 85.0],
        core_kinds: vec![CoreKind::InOrder, CoreKind::OutOfOrder],
        ..CpuExperimentConfig::quick()
    };
    let results = run_cpu_experiment_subset(&cfg, |b| names.contains(&b.name.as_str()));
    // 3 PARSEC apps x 3 inputs + 1 NAS app x 3 classes + 3 Rodinia apps,
    // each on two core models.
    assert_eq!(results.len(), (3 * 3 + 3 + 3) * 2);

    // Latency-insensitive vs latency-sensitive classes.
    let slowdown = |name: &str, input: &str, kind: CoreKind| {
        results
            .iter()
            .find(|r| {
                r.benchmark.name == name
                    && r.benchmark.input.to_string() == input
                    && r.core_kind == kind
            })
            .and_then(|r| r.slowdown_at(35.0))
            .unwrap_or_else(|| panic!("missing result for {name}/{input}"))
    };
    assert!(slowdown("swaptions", "large", CoreKind::InOrder) < 3.0);
    assert!(slowdown("ep", "large", CoreKind::InOrder) < 3.0);
    assert!(slowdown("streamcluster", "small", CoreKind::InOrder) < 3.0);
    assert!(slowdown("streamcluster", "large", CoreKind::InOrder) > 20.0);
    assert!(slowdown("nw", "default", CoreKind::InOrder) > 20.0);
    assert!(slowdown("canneal", "large", CoreKind::InOrder) > 15.0);

    // Slowdown correlates with LLC miss rate across the subset.
    let corr = miss_rate_correlation(&results, 35.0, |r| r.core_kind == CoreKind::InOrder);
    assert!(corr.pearson.unwrap() > 0.5);

    // Photonic (35 ns) beats electronic (85 ns) for every benchmark.
    for row in electronic_comparison(&results, false) {
        assert!(row.speedup_percent >= -1e-9, "{}", row.benchmark);
    }

    // Suite summaries exist for each represented suite.
    let summaries = summarize_by_suite(&results, 35.0);
    assert!(summaries.iter().any(|s| s.suite == CpuSuite::Parsec));
    assert!(summaries.iter().any(|s| s.suite == CpuSuite::Rodinia));

    // GPUs tolerate the latency better than in-order CPUs on the worst case.
    let gpu = run_gpu_experiment(&GpuExperimentConfig::default());
    let gpu_avg = average_slowdown(&gpu, 35.0);
    assert!(gpu_avg < 10.0, "GPU average slowdown {gpu_avg:.1}%");
    let gpu_nw = gpu
        .iter()
        .find(|r| r.name == "nw")
        .and_then(|r| r.slowdown_at(35.0))
        .unwrap();
    assert!(gpu_nw < slowdown("nw", "default", CoreKind::InOrder));
}

/// The AWGR fabric carries a rack-scale demand matrix: every MCM pair's
/// modest demand is satisfied on direct wavelengths, and a single elephant
/// flow is satisfied with indirect routing.
#[test]
fn fabric_serves_rack_scale_demand() {
    let rack = DisaggregatedRack::paper(FabricKind::ParallelAwgrs);
    let sim = FlowSimulator::new(&rack.fabric, FlowSimConfig::default());

    let modest: Vec<Flow> = (0..349).map(|i| Flow::new(i, i + 1, 100.0)).collect();
    let report = sim.run(&modest);
    assert!((report.satisfaction() - 1.0).abs() < 1e-9);
    assert_eq!(report.indirect_fraction, 0.0);

    let elephant = vec![Flow::new(0, 175, 6000.0)];
    let report = sim.run(&elephant);
    assert!(report.satisfaction() > 0.99);
    assert!(report.allocations[0].indirect_gbps > 0.0);
}
