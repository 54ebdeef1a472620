//! Verifies the Fig. 5 / Section V-B connectivity properties: with six
//! parallel AWGRs every MCM pair has at least five direct 25 Gbps
//! wavelengths (125 Gbps); with eleven staggered wave-selective switches
//! every pair shares at least three switches (2304 Gbps after
//! reconfiguration).

use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};

fn main() {
    bench::cli::no_args();
    for kind in [
        FabricKind::ParallelAwgrs,
        FabricKind::WaveSelective,
        FabricKind::Spatial,
    ] {
        let fabric = RackFabric::new(RackFabricConfig::paper_rack(kind));
        let r = fabric.report();
        println!("{kind:?}:");
        println!("  parallel planes           : {}", r.planes);
        println!("  min direct wavelengths    : {}", r.min_direct_wavelengths);
        println!("  max direct wavelengths    : {}", r.max_direct_wavelengths);
        println!(
            "  min direct bandwidth      : {:.0} Gbps",
            r.min_direct_bandwidth_gbps
        );
        println!(
            "  escape bandwidth per MCM  : {:.0} Gbps",
            r.escape_bandwidth_gbps
        );
        println!("  needs scheduler           : {}", r.needs_scheduler);
        println!();
    }
}
