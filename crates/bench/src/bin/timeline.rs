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
//! `hystX` (re-steer below satisfaction X, `0 <= X <= 1`). Values follow
//! the grammar shared by the grid binaries (`bench::cli`), and a grid that
//! fails `SweepGrid::validate` (e.g. `--mcms 1`) exits 2 naming the field.
//! `--epochs` sets the epochs per phase; `--smoke` runs a small fixed grid
//! and exits (the CI rot-check mode). `--threads N` sets the worker-thread
//! count (default: `PD_THREADS`, then all available cores); output bytes
//! are identical at any thread count.

use std::process::exit;

use bench::cli::{
    fail, parse_count, parse_fabrics, parse_list, parse_policies, parse_scalar, parse_schedules,
    validated,
};
use disagg_core::report::format_sweep_report;
use disagg_core::sweep::{configure_threads, SweepGrid};

fn usage() -> ! {
    eprintln!(
        "usage: timeline [--mcms N,..] [--fabric awgr|wave|spatial,..] [--schedule S,..]\n\
         \x20               [--policy static|greedy|hystX,..] [--demand GBPS] [--epochs N]\n\
         \x20               [--latency NS,..] [--replicates N] [--seed N] [--threads N]\n\
         \x20               [--json] [--smoke]\n\
         schedules: shifthotN | hpcmix | steady | churn"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = SweepGrid::named("timeline").mcm_counts([32]);
    let mut schedules = "shifthot4,hpcmix".to_string();
    let mut policies = "static,greedy".to_string();
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
            "--policy" => policies = take(),
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
                eprintln!("timeline: unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }

    configure_threads(threads);
    if smoke {
        grid = grid.mcm_counts([16]);
        schedules = "shifthot2,steady".to_string();
        policies = "static,greedy".to_string();
        epochs_per_phase = 2;
    }

    let grid = validated(
        grid.timelines(parse_schedules(&schedules, demand, epochs_per_phase))
            .realloc_policies(parse_policies(&policies)),
    );
    let report = grid.run();
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", format_sweep_report(&report));
    }
}
