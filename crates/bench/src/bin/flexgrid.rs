//! Flex-grid spectrum-allocation sweeps: phased demand timelines admitted
//! onto per-fiber 12.5 GHz frequency-slot boards under swept admission and
//! defragmentation policies, through the `core::sweep` spectrum axis.
//!
//! ```text
//! cargo run --release --bin flexgrid -- \
//!     --mcms 32,64 --fabric awgr --schedule churn,shifthot4 \
//!     --spectrum firstfit,bestfit+defrag,exactfit+repack \
//!     --demand 400 --epochs 3 --json
//! ```
//!
//! Schedules: `churn` (the elastic-churn spectrum workload: ramps change
//! the demand bit-patterns every epoch, forcing release/re-admit cycles),
//! `shifthotN` (N-hot incast whose hot set rotates every phase), `hpcmix`
//! (halo -> ramp -> GPU burst -> drain), `steady` (one flat permutation
//! phase). Spectrum policies are `SpectrumPolicy` labels: an admission rule
//! (`firstfit` | `bestfit` | `exactfit`) optionally suffixed with a
//! defragmentation rule (`+defrag` re-packs the board when an epoch blocks,
//! `+repack` re-packs every epoch). The command line is read by the
//! scanner and flag table the grid binaries share (`bench::cli`), and a
//! grid that fails `SweepGrid::validate` (e.g. `--mcms 1`) exits 2 naming
//! the field. `--epochs` sets the epochs per phase; `--smoke` emits the
//! small fixed CI grid pinned by `tests/golden/flexgrid_smoke.json`, and
//! refuses any flag but `--json` and `--threads` beside it. `--threads N`
//! sets the worker-thread count (default: `PD_THREADS`, then all available
//! cores); output bytes are identical at any thread count.

use bench::cli::Command;
use disagg_core::sweep::{artifacts, SweepGrid};

fn main() {
    let args = Command {
        name: "flexgrid",
        grid: SweepGrid::named("flexgrid"),
        defaults: "--mcms 32 --schedule churn,shifthot4 \
                   --spectrum firstfit,bestfit+defrag,exactfit+repack --demand 400 --epochs 3",
        flags: "--mcms --fabric --schedule --spectrum --demand --epochs --latency --replicates \
                --seed --threads --json --smoke",
    }
    .parse();
    // The fixed CI grid is pinned by tests/golden/flexgrid_smoke.json.
    let report = if args.smoke {
        artifacts::flexgrid_smoke().report
    } else {
        args.grid.run()
    };
    args.print(&report);
}
