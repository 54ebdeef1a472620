//! Run an arbitrary user-defined scenario grid through the `core::sweep`
//! engine.
//!
//! Every axis takes a comma-separated list; unspecified axes stay at the
//! paper's design point (350-MCM AWGR rack, 64 x 25 Gbps wavelengths per
//! fiber, uniform 4-flows-per-MCM traffic at 100 Gbps, 35 ns latency).
//!
//! ```text
//! cargo run --release --bin sweep -- \
//!     --mcms 64,128,350 --fabric awgr,wave --pattern permutation,hotspot4 \
//!     --demand 400 --latency 25,35 --replicates 3 --json
//! ```
//!
//! Patterns: `uniformN` (N flows per MCM), `permutation`, `hotspotN`
//! (N hot destinations), `neighborN` (N neighbours per side), `alltoall`.
//! `--demand` sets the per-flow Gbps for every listed pattern. `--energy`
//! adds the energy-accounting axis (`always` and/or `util`), attaching
//! per-scenario joules/watts/pJ-per-bit metrics and the report's
//! `EnergyStats` block. The command line is read by the scanner and flag
//! table the grid binaries share (`bench::cli`), which prints the usage
//! text on `--help`; a bad value, an unknown flag, or a grid that fails
//! `SweepGrid::validate` (e.g. `--mcms 1`, `--fibers 0` or `--gbps nan`)
//! exits 2 naming the flag or field.
//!
//! Execution control: `--threads N` sets the worker-thread count (default:
//! the `PD_THREADS` environment variable, then all available cores) —
//! output bytes are identical at any thread count. For grids too large to
//! hold in memory, `--row-cap N` keeps only the first N rows (the summary
//! still aggregates everything) and `--shard-rows N` emits the rows as
//! self-contained report shards of N rows each (one JSON document per line
//! with `--json`), followed by the summary-only master report.
//!
//! `--sample K` runs the grid through the representative-scenario sampler
//! (`SweepGrid::run_sampled`): at most K scenarios are simulated, one
//! weighted representative per feature-space cluster, and the printed
//! summary reconstructs the full grid with declared error bounds.
//! `--sample-report` appends the `SamplingStats` block as one extra JSON
//! line (reduction factor, mean dispersion, per-metric bounds).
//!
//! Cross-scenario computation reuse (dedup-planned solving plus
//! demand-matrix memoization) is on by default and byte-exact;
//! `--no-reuse` disables it, solving every scenario independently —
//! useful for timing comparisons and as a paranoia switch. It conflicts
//! with `--sample`, which always reuses, and with `--bench`, which times
//! reuse on and off itself.
//!
//! `--bench FILE` times three pairs of runs in one pass and writes one
//! `bench::record` (`BENCH_sweep.json` in CI), each run repeated at least
//! 5 times and judged by its median: the fixed reference
//! grid at 1 thread vs the configured count (`parallel`), sampled vs
//! exhaustive execution of its replicate-inflated variant (`sample`), and
//! reuse on vs off over its energy/latency-crossed variant (`reuse`). The
//! run exits 1, naming each failed gate, when serial and parallel or reuse
//! on and off differ by a byte, a sampled metric misses its declared error
//! bound, sampling saves less than 10x or reuse less than 1.5x, parallel
//! efficiency lands below `--bench-floor EFF`, or single-thread throughput
//! below `--bench-sps-floor SPS` scenarios/sec. A measurement taken on a
//! machine with fewer cores than requested (`degraded: true`) refuses to
//! overwrite a non-degraded FILE; delete the file first to replace it.

use std::path::Path;
use std::process::exit;

use bench::cli::{fail, Command};
use bench::record::Record;
use disagg_core::energy::EnergyMode;
use disagg_core::sample::{reference_grid, SampleConfig};
use disagg_core::sweep::{StreamConfig, SweepGrid};

/// Time the three bench pairs, write their one record to `path`, then
/// exit 1 naming every gate that failed. Each timed run is repeated at
/// least 5 times after a warm-up (`bench::record`); every ratio and gate
/// below is taken over the medians.
///
/// Parallel runs use the record's *effective* count, `threads` clamped to
/// the cores ([`Record::new`]), and a degraded record refuses to overwrite
/// a non-degraded FILE (exit 1 before anything runs).
///
/// - `parallel`: the reference grid at 1 thread vs `threads`. The outputs
///   must be byte-identical; `parallel_efficiency` (speedup over the
///   effective count) must reach `efficiency_floor` and
///   `scenarios_per_sec_1_thread` must reach `sps_floor`, when set.
///   `matrices_reused` counts the serial run's memoized demand matrices.
/// - `sample`: the reference grid at 512 replicates (3072 scenarios),
///   exhaustive vs sampled with 48 clusters. Every reconstructed summary
///   metric must land within its declared error bound of the exhaustive
///   oracle, and the sampler must evaluate at least 10x fewer scenarios.
/// - `reuse`: the reference grid crossed with both energy modes and two
///   latencies (768 scenarios), reuse off vs on. The outputs must be
///   byte-identical and reuse at least 1.5x faster; energy variants always
///   share a solve, so healthy numbers sit well above 10x.
fn run_bench(path: &str, threads: usize, efficiency_floor: Option<f64>, sps_floor: Option<f64>) {
    let mut record = Record::new("sweep", threads, 5);
    let effective = record.threads();
    record.check_overwrite(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        exit(1);
    });
    let mut failures = Vec::new();
    let grid = reference_grid();
    record.fact("grid", format!("\"{}\"", grid.name));

    let serial = record.time("parallel/1_thread", || {
        rayon::with_max_threads(1, || grid.run())
    });
    let parallel = record.time("parallel/n_threads", || grid.run());
    let serial_s = record.median_ns("parallel/1_thread") / 1e9;
    let parallel_s = record.median_ns("parallel/n_threads") / 1e9;
    let identical = serial.to_json() == parallel.to_json();
    let scenarios = serial.rows.len();
    let speedup = serial_s / parallel_s;
    let efficiency = speedup / effective as f64;
    let sps_serial = scenarios as f64 / serial_s;
    if !identical {
        failures.push("serial vs parallel: outputs differ — determinism bug".to_string());
    }
    if let Some(floor) = efficiency_floor.filter(|&floor| efficiency < floor) {
        failures.push(format!(
            "--bench-floor: parallel efficiency {efficiency:.2} below {floor} \
             (speedup {speedup:.2} over {effective} effective core(s))"
        ));
    }
    if let Some(floor) = sps_floor.filter(|&floor| sps_serial < floor) {
        failures.push(format!(
            "--bench-sps-floor: single-thread throughput {sps_serial:.1} scenarios/s \
             below {floor}"
        ));
    }
    let matrices_reused = serial.reuse.map_or(0, |r| r.matrices_reused);
    for (key, value) in [
        ("scenarios", scenarios.to_string()),
        ("speedup", format!("{speedup:.2}")),
        ("parallel_efficiency", format!("{efficiency:.2}")),
        ("scenarios_per_sec_1_thread", format!("{sps_serial:.1}")),
        (
            "scenarios_per_sec_n_threads",
            format!("{:.1}", scenarios as f64 / parallel_s),
        ),
        ("matrices_reused", matrices_reused.to_string()),
        ("identical_output", identical.to_string()),
    ] {
        record.fact(&format!("parallel.{key}"), value);
    }

    let inflated = grid.clone().replicates(512);
    let config = SampleConfig::with_clusters(48);
    let exhaustive = record.time("sample/exhaustive", || inflated.run());
    let sampled = record.time("sample/sampled", || inflated.run_sampled(&config));
    let stats = sampled
        .sampling
        .clone()
        .expect("run_sampled attaches SamplingStats");
    let mut within_bounds = true;
    for (key, bound) in &stats.error_bounds {
        let estimate = sampled.summary_metric(key).unwrap_or(f64::NAN);
        let oracle = exhaustive.summary_metric(key).unwrap_or(f64::NAN);
        let error = (estimate - oracle).abs();
        // NaN (a missing metric) must count as a violation, not pass.
        if error.is_nan() || error > *bound {
            within_bounds = false;
            failures.push(format!(
                "sampled bound: {key} error {error:.6} exceeds declared bound {bound:.6} \
                 (sampled {estimate:.6} vs exhaustive {oracle:.6})"
            ));
        }
    }
    let reduction = stats.reduction();
    if reduction < 10.0 {
        failures.push(format!(
            "sampling reduction: {reduction:.1}x below the 10x floor"
        ));
    }
    let sample_speedup = record.median_ns("sample/exhaustive") / record.median_ns("sample/sampled");
    for (key, value) in [
        ("scenarios", stats.total.to_string()),
        ("clusters", stats.clusters.to_string()),
        ("evaluated", stats.evaluated.to_string()),
        ("reduction", format!("{reduction:.1}")),
        ("sample_speedup", format!("{sample_speedup:.2}")),
        ("mean_dispersion", format!("{:.4}", stats.mean_dispersion)),
        ("within_bounds", within_bounds.to_string()),
    ] {
        record.fact(&format!("sample.{key}"), value);
    }

    let crossed = grid
        .clone()
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .direct_latencies_ns([25.0, 35.0]);
    let no_reuse = StreamConfig {
        reuse: false,
        ..StreamConfig::default()
    };
    let off = record.time("reuse/off", || crossed.run_streaming(&no_reuse));
    let on = record.time("reuse/on", || {
        crossed.run_streaming(&StreamConfig::default())
    });
    let identical = on.to_json() == off.to_json();
    let speedup = record.median_ns("reuse/off") / record.median_ns("reuse/on");
    if !identical {
        failures.push("reuse on vs off: outputs differ — exactness bug".to_string());
    }
    if speedup < 1.5 {
        failures.push(format!("reuse speedup: {speedup:.2}x below the 1.5x floor"));
    }
    let stats = on.reuse.expect("reuse-on run attaches ReuseStats");
    for (key, value) in [
        ("scenarios", on.rows.len().to_string()),
        ("reuse_speedup", format!("{speedup:.2}")),
        ("groups", stats.groups.to_string()),
        ("leaders_solved", stats.leaders_solved.to_string()),
        ("followers_replayed", stats.followers_replayed.to_string()),
        ("matrices_reused", stats.matrices_reused.to_string()),
        ("hit_rate", format!("{:.3}", stats.hit_rate())),
        ("solver_s_saved", format!("{:.3}", stats.solver_s_saved)),
        ("identical_output", identical.to_string()),
    ] {
        record.fact(&format!("reuse.{key}"), value);
    }

    record.write(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        exit(1);
    });
    println!("{}", record.to_json());
    for failure in &failures {
        eprintln!("sweep: bench gate failed: {failure}");
    }
    if !failures.is_empty() {
        exit(1);
    }
}

fn main() {
    let args = Command {
        name: "sweep",
        grid: SweepGrid::named("sweep"),
        defaults: "--pattern uniform4 --demand 100",
        flags: "--mcms --fibers --wavelengths --gbps --fabric --pattern --demand --latency \
                --energy --replicates --seed --threads --row-cap --shard-rows --sample \
                --sample-report --no-reuse --bench --bench-floor --bench-sps-floor --json",
    }
    .parse();
    if args.sample.is_some()
        && (args.row_cap.is_some() || args.shard_rows.is_some() || args.bench.is_some())
    {
        fail("--sample conflicts with --row-cap/--shard-rows/--bench");
    }
    if args.no_reuse && (args.sample.is_some() || args.bench.is_some()) {
        fail("--no-reuse conflicts with --sample/--bench");
    }
    if args.sample_report && args.sample.is_none() {
        fail("--sample-report requires --sample K");
    }
    if let Some(path) = &args.bench {
        run_bench(path, args.threads, args.bench_floor, args.bench_sps_floor);
        return;
    }
    if let Some(clusters) = args.sample {
        let report = args
            .grid
            .run_sampled(&SampleConfig::with_clusters(clusters));
        args.print(&report);
        if args.sample_report {
            let stats = report.sampling.expect("run_sampled attaches SamplingStats");
            println!("{}", stats.to_json());
        }
        return;
    }
    let stream = StreamConfig {
        row_cap: args.row_cap,
        reuse: !args.no_reuse,
        ..StreamConfig::default()
    };
    if let Some(rows_per_shard) = args.shard_rows {
        // Sharded emission: each shard is a self-contained report, then the
        // summary-only master closes the stream.
        let master = args
            .grid
            .run_sharded(&stream, rows_per_shard, &mut |shard| args.print(&shard));
        args.print(&master);
        return;
    }
    args.print(&args.grid.run_streaming(&stream));
}
