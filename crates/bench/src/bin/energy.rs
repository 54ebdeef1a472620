//! Energy-aware scenario sweeps: the Section VI-C power budget made
//! dynamic, plus the reconfiguration-energy tradeoff between wavelength
//! reallocation policies.
//!
//! ```text
//! cargo run --release --bin energy -- \
//!     --mcms 32 --schedule shifthot4,hpcmix --policy static,greedy,hyst0.9 \
//!     --mode always,util --demand 400 --epochs 3 --json
//! ```
//!
//! With no flags the binary prints two reports:
//!
//! 1. **headline** — the paper's 350-MCM design point under both energy
//!    modes, reproducing the ~11 kW / ~5% Section VI-C totals under the
//!    always-on assumption and showing what utilization-scaled transceivers
//!    would save.
//! 2. **tradeoff** — the PR 3 demand timelines under static / greedy /
//!    hysteresis reallocation, with per-scenario joules, watts, pJ/bit and
//!    reconfiguration energy: how much satisfaction each re-steer buys and
//!    what it costs.
//!
//! Modes: `always` (transceivers at full rate, the paper's pessimistic
//! assumption), `util` (energy follows carried bits; indirect bits pay two
//! link traversals). Schedules and policies are those of `timeline`; the
//! command line is read by the scanner and flag table the grid binaries
//! share (`bench::cli`), and a tradeoff grid that fails
//! `SweepGrid::validate` (e.g. `--mcms 1`) exits 2 naming the field.
//! `--epoch-seconds` and `--reconfig-joules` tune the energy knobs;
//! `--smoke` runs the small fixed CI grid and refuses any flag but `--json`
//! and `--threads` beside it. `--threads N`
//! sets the worker-thread count (default: `PD_THREADS`, then all available
//! cores); output bytes are identical at any thread count. `--json` emits a
//! single document: `{"headline": <SweepReport>, "tradeoff": <SweepReport>}`
//! (just the one `SweepReport` in `--smoke` mode).

use bench::cli::Command;
use disagg_core::energy::{EnergyConfig, EnergyMode};
use disagg_core::report::format_sweep_report;
use disagg_core::sweep::{artifacts, SweepGrid};

/// The Section VI-C headline grid: the paper design point under both
/// energy modes.
fn headline_grid(config: EnergyConfig) -> SweepGrid {
    SweepGrid::named("energy-headline")
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .energy_config(config)
}

fn main() {
    let args = Command {
        name: "energy",
        grid: SweepGrid::named("energy-tradeoff"),
        defaults: "--mcms 32 --schedule shifthot4,hpcmix --policy static,greedy,hyst0.9 \
                   --mode always,util --demand 400 --epochs 3",
        flags: "--mcms --fabric --schedule --policy --mode --demand --epochs --epoch-seconds \
                --reconfig-joules --seed --threads --json --smoke",
    }
    .parse();
    if args.smoke {
        // The fixed CI grid, pinned by tests/golden/energy_smoke.json.
        args.print(&artifacts::energy_smoke().report);
        return;
    }

    let headline = headline_grid(args.grid.energy_config).run();
    let tradeoff = args.grid.run();

    if args.json {
        // One JSON document, like every other engine-backed binary: the two
        // reports wrapped under their names.
        println!(
            "{{\"headline\":{},\"tradeoff\":{}}}",
            headline.to_json(),
            tradeoff.to_json()
        );
        return;
    }

    print!("{}", format_sweep_report(&headline));
    if let Some((_, always_on)) = headline
        .energy
        .iter()
        .find(|(_, e)| e.mode == EnergyMode::AlwaysOn)
    {
        println!(
            "Section VI-C check: photonic power {:.1} kW, {:.1}% of compute/memory power \
             (paper: ~11 kW, ~5%)",
            always_on.watts() / 1000.0,
            always_on.photonic_compute_ratio() * 100.0
        );
    }
    println!();
    print!("{}", format_sweep_report(&tradeoff));
}
