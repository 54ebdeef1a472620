//! Regenerates the Section VI-A1 bandwidth-sufficiency analysis: how often
//! the 125 Gbps direct MCM-MCM bandwidth (and a single 25 Gbps wavelength)
//! satisfies observed CPU-memory traffic, and the GPU bandwidth budget with
//! indirect routing. Also exercises the flow-level simulator on a rack-wide
//! demand matrix sampled from the production distributions.

use fabric::flowsim::{Flow, FlowSimConfig, FlowSimulator};
use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
use rack::bandwidth::{BandwidthSufficiency, GpuBandwidthBudget};
use workloads::production::ProductionDistributions;

fn main() {
    bench::cli::no_args();
    let s = BandwidthSufficiency::paper(200_000, 0xBEEF);
    println!(
        "Bandwidth sufficiency (Section VI-A1, {} samples)",
        s.samples
    );
    println!(
        "  direct 125 Gbps sufficient      : {:.3} % of the time",
        s.direct_125gbps_sufficient * 100.0
    );
    println!(
        "  single 25 Gbps wavelength enough: {:.3} % of the time",
        s.single_wavelength_sufficient * 100.0
    );

    let b = GpuBandwidthBudget::paper_awgr();
    println!("\nGPU bandwidth budget with indirect routing");
    println!(
        "  indirect reach              : {:.0} GB/s",
        b.indirect_reach_gbs
    );
    println!(
        "  HBM demand                  : {:.1} GB/s",
        b.hbm_demand_gbs
    );
    println!(
        "  headroom after HBM          : {:.1} GB/s",
        b.headroom_after_hbm_gbs
    );
    println!(
        "  GPU-GPU demand              : {:.1} GB/s",
        b.gpu_to_gpu_demand_gbs
    );
    println!(
        "  headroom after GPU traffic  : {:.1} GB/s",
        b.headroom_after_gpu_traffic_gbs
    );

    // Flow-level check: CPU-memory demand sampled from the production
    // distributions, one flow per CPU<->DDR4 MCM pair.
    let fabric = RackFabric::new(RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs));
    let dist = ProductionDistributions::cori_haswell();
    let nodes = dist.sample_nodes_stable(128, 7);
    let flows: Vec<Flow> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            // CPU MCMs occupy indices 0..10, DDR4 MCMs 312..350 in Table III
            // order; spread node i's CPU->memory demand across them.
            let src = (i % 10) as u32;
            let dst = 312 + (i % 38) as u32;
            Flow::new(src, dst, n.memory_bandwidth_gbs * 8.0)
        })
        .collect();
    let report = FlowSimulator::new(&fabric, FlowSimConfig::default()).run(&flows);
    println!("\nFlow-level simulation of sampled CPU->DDR4 demand (128 nodes)");
    println!("  offered      : {:.1} Gbps", report.offered_gbps);
    println!(
        "  satisfied    : {:.1} Gbps ({:.2}%)",
        report.satisfied_gbps,
        report.satisfaction() * 100.0
    );
    println!(
        "  direct only  : {:.1}% of flows",
        report.direct_only_fraction * 100.0
    );
    println!(
        "  indirect     : {:.1}% of flows",
        report.indirect_fraction * 100.0
    );
    println!("  mean latency : {:.1} ns", report.mean_latency_ns);
}
