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
//! link traversals). Schedules and policies are those of `timeline`; every
//! value follows the grammar shared by the grid binaries (`bench::cli`),
//! and a tradeoff grid that fails `SweepGrid::validate` (e.g. `--mcms 1`)
//! exits 2 naming the field. `--epoch-seconds` and `--reconfig-joules` tune
//! the energy knobs; `--smoke` runs the small fixed CI grid. `--threads N`
//! sets the worker-thread count (default: `PD_THREADS`, then all available
//! cores); output bytes are identical at any thread count. `--json` emits a
//! single document: `{"headline": <SweepReport>, "tradeoff": <SweepReport>}`
//! (just the one `SweepReport` in `--smoke` mode).

use std::process::exit;

use bench::cli::{
    fail, parse_count, parse_energy_modes, parse_fabrics, parse_list, parse_policies, parse_scalar,
    parse_schedules, validated,
};
use disagg_core::energy::{EnergyConfig, EnergyMode};
use disagg_core::report::format_sweep_report;
use disagg_core::sweep::{artifacts, configure_threads, SweepGrid};

fn usage() -> ! {
    eprintln!(
        "usage: energy [--mcms N,..] [--fabric awgr|wave|spatial,..] [--schedule S,..]\n\
         \x20             [--policy static|greedy|hystX,..] [--mode always|util,..]\n\
         \x20             [--demand GBPS] [--epochs N] [--epoch-seconds S]\n\
         \x20             [--reconfig-joules J] [--seed N] [--threads N] [--json] [--smoke]\n\
         schedules: shifthotN | hpcmix | steady | churn"
    );
    exit(2);
}

/// The Section VI-C headline grid: the paper design point under both
/// energy modes.
fn headline_grid(config: EnergyConfig) -> SweepGrid {
    SweepGrid::named("energy-headline")
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .energy_config(config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = SweepGrid::named("energy-tradeoff").mcm_counts([32]);
    let mut schedules = "shifthot4,hpcmix".to_string();
    let mut policies = "static,greedy,hyst0.9".to_string();
    let mut modes = "always,util".to_string();
    let mut demand = 400.0;
    let mut epochs_per_phase = 3u32;
    let mut config = EnergyConfig::default();
    let mut json = false;
    let mut smoke = false;
    let mut threads: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = || {
            i += 1;
            args.get(i)
                .cloned()
                .unwrap_or_else(|| fail(format_args!("{flag} needs a value")))
        };
        match flag {
            "--threads" => {
                threads = Some(parse_count("--threads", &take()));
            }
            "--mcms" => {
                let v = take();
                grid = grid.mcm_counts(parse_list("--mcms", &v));
            }
            "--fabric" => {
                let v = take();
                grid = grid.fabric_kinds(parse_fabrics(&v));
            }
            "--schedule" => schedules = take(),
            "--policy" => policies = take(),
            "--mode" => modes = take(),
            "--demand" => demand = parse_scalar("--demand", &take()),
            "--epochs" => epochs_per_phase = parse_count("--epochs", &take()),
            "--epoch-seconds" => {
                config.epoch_duration_s = parse_scalar("--epoch-seconds", &take());
            }
            "--reconfig-joules" => {
                config.reconfiguration_energy_j = parse_scalar("--reconfig-joules", &take());
            }
            "--seed" => {
                let v: u64 = parse_scalar("--seed", &take());
                grid = grid.base_seed(v);
            }
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("energy: unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }

    configure_threads(threads);
    if smoke {
        // The fixed CI grid, pinned by tests/golden/energy_smoke.json.
        let artifact = artifacts::energy_smoke();
        if json {
            println!("{}", artifact.report.to_json());
        } else {
            print!("{}", artifact.text);
        }
        return;
    }

    let grid = validated(
        grid.timelines(parse_schedules(&schedules, demand, epochs_per_phase))
            .realloc_policies(parse_policies(&policies))
            .energy_modes(parse_energy_modes(&modes))
            .energy_config(config),
    );
    let headline = headline_grid(config).run();
    let tradeoff = grid.run();

    if json {
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
