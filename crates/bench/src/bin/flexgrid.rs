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
//! `+repack` re-packs every epoch). Every value follows the grammar shared
//! by the grid binaries (`bench::cli`), and a grid that fails
//! `SweepGrid::validate` (e.g. `--mcms 1`) exits 2 naming the field.
//! `--epochs` sets the epochs per phase;
//! `--smoke` emits the small fixed CI grid pinned by
//! `tests/golden/flexgrid_smoke.json` and exits. `--threads N` sets the
//! worker-thread count (default: `PD_THREADS`, then all available cores);
//! output bytes are identical at any thread count.

use std::process::exit;

use bench::cli::{
    fail, parse_count, parse_fabrics, parse_list, parse_scalar, parse_schedules, parse_spectrum,
    validated,
};
use disagg_core::report::format_sweep_report;
use disagg_core::sweep::{artifacts, configure_threads, SweepGrid};

fn usage() -> ! {
    eprintln!(
        "usage: flexgrid [--mcms N,..] [--fabric awgr|wave|spatial,..] [--schedule S,..]\n\
         \x20               [--spectrum P,..] [--demand GBPS] [--epochs N]\n\
         \x20               [--latency NS,..] [--replicates N] [--seed N] [--threads N]\n\
         \x20               [--json] [--smoke]\n\
         schedules: churn | shifthotN | hpcmix | steady\n\
         spectrum : firstfit|bestfit|exactfit, optionally +defrag or +repack"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = SweepGrid::named("flexgrid").mcm_counts([32]);
    let mut schedules = "churn,shifthot4".to_string();
    let mut spectrum = "firstfit,bestfit+defrag,exactfit+repack".to_string();
    let mut demand = 400.0;
    let mut epochs_per_phase = 3u32;
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
            "--spectrum" => spectrum = take(),
            "--demand" => demand = parse_scalar("--demand", &take()),
            "--epochs" => epochs_per_phase = parse_count("--epochs", &take()),
            "--latency" => {
                let v = take();
                grid = grid.direct_latencies_ns(parse_list("--latency", &v));
            }
            "--replicates" => {
                let v: u32 = parse_count("--replicates", &take());
                grid = grid.replicates(v);
            }
            "--seed" => {
                let v: u64 = parse_scalar("--seed", &take());
                grid = grid.base_seed(v);
            }
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("flexgrid: unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }

    configure_threads(threads);
    if smoke {
        // The fixed CI grid, pinned by tests/golden/flexgrid_smoke.json.
        let artifact = artifacts::flexgrid_smoke();
        if json {
            println!("{}", artifact.report.to_json());
        } else {
            print!("{}", artifact.text);
        }
        return;
    }

    let grid = validated(
        grid.timelines(parse_schedules(&schedules, demand, epochs_per_phase))
            .spectrum_policies(parse_spectrum(&spectrum)),
    );
    let report = grid.run();
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", format_sweep_report(&report));
    }
}
