//! Regenerates the Section VI-E iso-performance comparison: 4x fewer memory
//! modules, 2x fewer NICs, ~44% fewer chips at equal throughput; or ~7% more
//! chips for double the computational throughput.

use rack::isoperf::IsoPerformanceAnalysis;

fn main() {
    bench::cli::no_args();
    let a = IsoPerformanceAnalysis::paper();
    println!("Iso-performance comparison (Section VI-E)");
    println!(
        "{:<16} {:>10} {:>16}",
        "resource", "baseline", "disaggregated"
    );
    println!(
        "{:<16} {:>10} {:>16}",
        "CPUs", a.baseline.cpus, a.disaggregated.cpus
    );
    println!(
        "{:<16} {:>10} {:>16}",
        "GPUs", a.baseline.gpus, a.disaggregated.gpus
    );
    println!(
        "{:<16} {:>10} {:>16}",
        "NICs", a.baseline.nics, a.disaggregated.nics
    );
    println!(
        "{:<16} {:>10} {:>16}",
        "DDR4 modules", a.baseline.ddr4_modules, a.disaggregated.ddr4_modules
    );
    println!(
        "{:<16} {:>10} {:>16}",
        "total modules",
        a.baseline.total(),
        a.disaggregated.total()
    );
    println!("chip reduction: {:.1}%", a.chip_reduction() * 100.0);
    let (increase, throughput) = a.throughput_doubling_alternative(128);
    println!(
        "alternative: +128 compute packages = +{:.1}% chips for {:.1}x throughput",
        increase * 100.0,
        throughput
    );
}
