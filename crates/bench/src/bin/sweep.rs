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
//! `EnergyStats` block. Values follow the grammar shared by the grid
//! binaries (`bench::cli`), and a grid that fails `SweepGrid::validate`
//! (e.g. `--mcms 1`, `--fibers 0` or `--gbps nan`) exits 2 naming the
//! field.
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
//! versioned JSON record (`BENCH_sweep.json` in CI): the fixed reference
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

use std::process::exit;
use std::time::Instant;

use bench::cli::{
    fail, parse_count, parse_energy_modes, parse_fabrics, parse_labels, parse_list, parse_scalar,
    validated,
};
use disagg_core::energy::EnergyMode;
use disagg_core::report::format_sweep_report;
use disagg_core::sample::{reference_grid, SampleConfig};
use disagg_core::sweep::{configure_threads, StreamConfig, SweepGrid};
use workloads::TrafficPattern;

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--mcms N,..] [--fibers N,..] [--wavelengths N,..] [--gbps X,..]\n\
         \x20            [--fabric awgr|wave|spatial,..] [--pattern P,..] [--demand GBPS]\n\
         \x20            [--latency NS,..] [--energy always|util,..] [--replicates N]\n\
         \x20            [--seed N] [--threads N] [--row-cap N] [--shard-rows N]\n\
         \x20            [--sample K] [--sample-report] [--no-reuse]\n\
         \x20            [--bench FILE] [--bench-floor EFF] [--bench-sps-floor SPS] [--json]\n\
         patterns: uniformN | permutation | hotspotN | neighborN | alltoall"
    );
    exit(2);
}

/// The traffic pattern named `label` at `demand_gbps` per flow; `None` for
/// an unknown name.
fn pattern(label: &str, demand_gbps: f64) -> Option<TrafficPattern> {
    let numbered = |prefix: &str| label.strip_prefix(prefix)?.parse().ok();
    if let Some(flows_per_mcm) = numbered("uniform") {
        return Some(TrafficPattern::Uniform {
            flows_per_mcm,
            demand_gbps,
        });
    }
    if let Some(hot_mcms) = numbered("hotspot") {
        return Some(TrafficPattern::HotSpot {
            hot_mcms,
            demand_gbps,
        });
    }
    if let Some(neighbors) = numbered("neighbor") {
        return Some(TrafficPattern::NearestNeighbor {
            neighbors,
            demand_gbps,
        });
    }
    match label {
        "permutation" => Some(TrafficPattern::Permutation { demand_gbps }),
        "alltoall" => Some(TrafficPattern::AllToAll { demand_gbps }),
        _ => None,
    }
}

/// Run `f` with at most `threads` pool workers, returning its output and
/// the wall clock it took in milliseconds.
fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = rayon::with_max_threads(threads, f);
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Time the three bench pairs, write their one `"version":5` record to
/// `path`, then exit 1 naming every gate that failed.
///
/// Requesting more threads than the machine has cannot buy parallelism,
/// so every parallel run uses the *effective* count `min(threads,
/// available_cores)`: the record's `threads` is that count,
/// `requested_threads` the CLI request, and `degraded` is true when the
/// clamp bit. A degraded measurement is a property of the machine, not the
/// code, so it refuses to overwrite a FILE whose record says
/// `"degraded":false` (exit 1 before anything runs).
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let effective = threads.min(cores).max(1);
    let degraded = cores < threads;
    if degraded {
        if let Ok(existing) = std::fs::read_to_string(path) {
            if existing.contains("\"degraded\":false") {
                eprintln!(
                    "sweep: degraded-overwrite refusal: {path} holds a non-degraded record and \
                     this measurement is degraded ({cores} core(s) for {threads} requested \
                     thread(s)); delete {path} first to replace it"
                );
                exit(1);
            }
        }
    }
    let mut failures = Vec::new();
    // Brief warm-up (one replicate of the grid) so the timed runs don't
    // charge cold allocator/page-cache effects to the serial measurement.
    let _ = timed(1, || reference_grid().replicates(1).run());

    let grid = reference_grid();
    let parallel = {
        let (serial, serial_ms) = timed(1, || grid.run());
        let (parallel, parallel_ms) = timed(effective, || grid.run());
        let identical = serial.to_json() == parallel.to_json();
        let scenarios = serial.rows.len();
        let speedup = serial_ms / parallel_ms;
        let efficiency = speedup / effective as f64;
        let sps_serial = scenarios as f64 / (serial_ms / 1e3);
        let sps_parallel = scenarios as f64 / (parallel_ms / 1e3);
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
        format!(
            "{{\"scenarios\":{scenarios},\"wall_ms_1_thread\":{serial_ms:.1},\
             \"wall_ms_n_threads\":{parallel_ms:.1},\"speedup\":{speedup:.2},\
             \"parallel_efficiency\":{efficiency:.2},\
             \"scenarios_per_sec_1_thread\":{sps_serial:.1},\
             \"scenarios_per_sec_n_threads\":{sps_parallel:.1},\
             \"matrices_reused\":{},\"identical_output\":{identical}}}",
            serial.reuse.map_or(0, |r| r.matrices_reused),
        )
    };

    let sample = {
        let inflated = grid.clone().replicates(512);
        let config = SampleConfig::with_clusters(48);
        let (exhaustive, exhaustive_ms) = timed(effective, || inflated.run());
        let (sampled, sampled_ms) = timed(effective, || inflated.run_sampled(&config));
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
        format!(
            "{{\"scenarios\":{},\"clusters\":{},\"evaluated\":{},\
             \"reduction\":{reduction:.1},\"wall_ms_exhaustive\":{exhaustive_ms:.1},\
             \"wall_ms_sampled\":{sampled_ms:.1},\"sample_speedup\":{:.2},\
             \"mean_dispersion\":{:.4},\"within_bounds\":{within_bounds}}}",
            stats.total,
            stats.clusters,
            stats.evaluated,
            exhaustive_ms / sampled_ms,
            stats.mean_dispersion,
        )
    };

    let reuse = {
        let crossed = grid
            .clone()
            .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
            .direct_latencies_ns([25.0, 35.0]);
        let no_reuse = StreamConfig {
            reuse: false,
            ..StreamConfig::default()
        };
        let (off, off_ms) = timed(effective, || crossed.run_streaming(&no_reuse));
        let (on, on_ms) = timed(effective, || {
            crossed.run_streaming(&StreamConfig::default())
        });
        let identical = on.to_json() == off.to_json();
        let speedup = off_ms / on_ms;
        if !identical {
            failures.push("reuse on vs off: outputs differ — exactness bug".to_string());
        }
        if speedup < 1.5 {
            failures.push(format!("reuse speedup: {speedup:.2}x below the 1.5x floor"));
        }
        let stats = on.reuse.expect("reuse-on run attaches ReuseStats");
        format!(
            "{{\"scenarios\":{},\"wall_ms_reuse_off\":{off_ms:.1},\
             \"wall_ms_reuse_on\":{on_ms:.1},\"reuse_speedup\":{speedup:.2},\
             \"groups\":{},\"leaders_solved\":{},\"followers_replayed\":{},\
             \"matrices_reused\":{},\"hit_rate\":{:.3},\"solver_s_saved\":{:.3},\
             \"identical_output\":{identical}}}",
            on.rows.len(),
            stats.groups,
            stats.leaders_solved,
            stats.followers_replayed,
            stats.matrices_reused,
            stats.hit_rate(),
            stats.solver_s_saved,
        )
    };

    let json = format!(
        "{{\"version\":5,\"grid\":\"{}\",\"available_cores\":{cores},\
         \"threads\":{effective},\"requested_threads\":{threads},\"degraded\":{degraded},\
         \"parallel\":{parallel},\"sample\":{sample},\"reuse\":{reuse}}}",
        grid.name,
    );
    std::fs::write(path, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("sweep: cannot write {path}: {e}");
        exit(1);
    });
    println!("{json}");
    for failure in &failures {
        eprintln!("sweep: bench gate failed: {failure}");
    }
    if !failures.is_empty() {
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = SweepGrid::named("sweep");
    let mut json = false;
    let mut demand_gbps = 100.0;
    let mut pattern_spec: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut row_cap: Option<usize> = None;
    let mut shard_rows: Option<usize> = None;
    let mut bench_path: Option<String> = None;
    let mut bench_floor: Option<f64> = None;
    let mut bench_sps_floor: Option<f64> = None;
    let mut sample_clusters: Option<usize> = None;
    let mut sample_report = false;
    let mut reuse = true;

    // `--demand` must apply to the patterns no matter the flag order, so
    // patterns are parsed after the full argument scan.
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--json" {
            json = true;
            i += 1;
            continue;
        }
        if flag == "--sample-report" {
            sample_report = true;
            i += 1;
            continue;
        }
        if flag == "--no-reuse" {
            reuse = false;
            i += 1;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let Some(value) = args.get(i + 1) else {
            usage()
        };
        match flag {
            "--mcms" => grid.mcm_counts = parse_list(flag, value),
            "--fibers" => grid.fibers_per_mcm = parse_list(flag, value),
            "--wavelengths" => grid.wavelengths_per_fiber = parse_list(flag, value),
            "--gbps" => grid.gbps_per_wavelength = parse_list(flag, value),
            "--fabric" => grid.fabric_kinds = parse_fabrics(value),
            "--pattern" => pattern_spec = Some(value.clone()),
            "--demand" => demand_gbps = parse_scalar::<f64>(flag, value),
            "--latency" => grid.direct_latencies_ns = parse_list(flag, value),
            "--energy" => grid.energy_modes = parse_energy_modes(value),
            "--replicates" => grid.replicates = parse_count(flag, value),
            "--seed" => grid.base_seed = parse_scalar::<u64>(flag, value),
            "--threads" => threads = Some(parse_count(flag, value)),
            "--row-cap" => row_cap = Some(parse_scalar::<usize>(flag, value)),
            "--shard-rows" => shard_rows = Some(parse_count(flag, value)),
            "--bench" => bench_path = Some(value.clone()),
            "--bench-floor" => bench_floor = Some(parse_scalar::<f64>(flag, value)),
            "--bench-sps-floor" => bench_sps_floor = Some(parse_scalar::<f64>(flag, value)),
            "--sample" => sample_clusters = Some(parse_count(flag, value)),
            _ => {
                eprintln!("sweep: unknown flag {flag:?}");
                usage();
            }
        }
        i += 2;
    }
    grid.patterns = match pattern_spec {
        Some(spec) => parse_labels(
            &spec,
            |v| pattern(v, demand_gbps),
            "pattern",
            "uniformN|permutation|hotspotN|neighborN|alltoall",
        ),
        None => vec![TrafficPattern::Uniform {
            flows_per_mcm: 4,
            demand_gbps,
        }],
    };
    let grid = validated(grid);
    let threads = configure_threads(threads);
    if sample_clusters.is_some()
        && (row_cap.is_some() || shard_rows.is_some() || bench_path.is_some())
    {
        fail("--sample conflicts with --row-cap/--shard-rows/--bench");
    }
    if !reuse && (sample_clusters.is_some() || bench_path.is_some()) {
        fail("--no-reuse conflicts with --sample/--bench");
    }
    if sample_report && sample_clusters.is_none() {
        fail("--sample-report requires --sample K");
    }
    if let Some(path) = bench_path {
        run_bench(&path, threads, bench_floor, bench_sps_floor);
        return;
    }
    if let Some(clusters) = sample_clusters {
        let report = grid.run_sampled(&SampleConfig::with_clusters(clusters));
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", format_sweep_report(&report));
        }
        if sample_report {
            let stats = report.sampling.expect("run_sampled attaches SamplingStats");
            println!("{}", stats.to_json());
        }
        return;
    }
    let stream = StreamConfig {
        row_cap,
        reuse,
        ..StreamConfig::default()
    };
    if let Some(rows_per_shard) = shard_rows {
        // Sharded emission: each shard is a self-contained report, then the
        // summary-only master closes the stream.
        let master = grid.run_sharded(&stream, rows_per_shard, &mut |shard| {
            if json {
                println!("{}", shard.to_json());
            } else {
                print!("{}", format_sweep_report(&shard));
            }
        });
        if json {
            println!("{}", master.to_json());
        } else {
            print!("{}", format_sweep_report(&master));
        }
        return;
    }
    let report = grid.run_streaming(&stream);
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", format_sweep_report(&report));
    }
}
