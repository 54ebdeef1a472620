//! Regenerates the Section VI-C power analysis: ~11 kW of photonics on a
//! ~210 kW rack, a ~5% overhead — computed through the sweep engine's
//! energy layer (`core::energy`). Pass `--json` for the `SweepReport` with
//! the full `EnergyStats` block, including the utilization-scaled
//! counterpoint to the paper's always-on assumption.

use disagg_core::sweep::artifacts;

fn main() {
    bench::cli::emit(artifacts::power_overhead);
}
