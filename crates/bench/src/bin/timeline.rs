//! Temporal bandwidth-steering sweeps: phased demand timelines under
//! wavelength-reallocation policies, through the `core::sweep` timeline
//! axis.
//!
//! ```text
//! cargo run --release --bin timeline -- \
//!     --mcms 32,64 --fabric awgr --schedule shifthot4,hpcmix,steady \
//!     --policy static,greedy,hyst0.9 --demand 400 --epochs 3 --json
//! ```
//!
//! Schedules: `shifthotN` (N-hot incast whose hot set rotates every phase),
//! `hpcmix` (halo -> ramp -> GPU burst -> drain, scales derived from the
//! GPU workload registry), `steady` (a single flat permutation phase),
//! `churn` (the elastic-churn workload). Policies: `static`, `greedy`,
//! `hystX` (re-steer below satisfaction X, `0 <= X <= 1`). The command line
//! is read by the scanner and flag table the grid binaries share
//! (`bench::cli`), and a grid that fails `SweepGrid::validate` (e.g.
//! `--mcms 1`) exits 2 naming the field. `--epochs` sets the epochs per
//! phase; `--smoke` runs a small fixed grid (the CI rot-check mode) and
//! refuses any flag but `--json` and `--threads` beside it. `--threads N`
//! sets the worker-thread count (default: `PD_THREADS`, then all available
//! cores); output bytes are identical at any thread count.

use bench::cli::Command;
use disagg_core::sweep::SweepGrid;
use fabric::ReallocationPolicy;
use workloads::{DemandTimeline, TrafficPattern};

/// The `--smoke` grid: 16 MCMs, `shifthot2,steady` at 400 Gbps with 2
/// epochs per phase, under `static,greedy`.
fn smoke_grid() -> SweepGrid {
    SweepGrid::named("timeline")
        .mcm_counts([16])
        .timelines([
            DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5),
            DemandTimeline::steady(TrafficPattern::Permutation { demand_gbps: 400.0 }, 8),
        ])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
        ])
}

fn main() {
    let args = Command {
        name: "timeline",
        grid: SweepGrid::named("timeline"),
        defaults: "--mcms 32 --schedule shifthot4,hpcmix --policy static,greedy --demand 400 \
                   --epochs 3",
        flags: "--mcms --fabric --schedule --policy --demand --epochs --latency --replicates \
                --seed --threads --json --smoke",
    }
    .parse();
    let report = if args.smoke {
        smoke_grid().run()
    } else {
        args.grid.run()
    };
    args.print(&report);
}
