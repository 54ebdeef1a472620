//! Calibration dump: per-benchmark slowdowns, LLC miss rates, and suite
//! averages for the CPU and GPU studies. Used to check that the synthetic
//! workload parameters land the suite-level behaviour in the paper's ranges.
//!
//! `calibrate [SCALE [ACCESSES]]`: the CPU sweep shrinks the memory
//! system by SCALE (default 1) and traces ACCESSES accesses per benchmark
//! (default 400,000).

use disagg_core::cpu_experiments::{
    miss_rate_correlation, run_cpu_experiment, summarize_by_suite, CpuExperimentConfig,
};
use disagg_core::gpu_experiments::{
    average_slowdown, gpu_correlations, run_gpu_experiment, GpuExperimentConfig,
};
use disagg_core::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |index: usize, default: u32| {
        args.get(index).map_or(default, |arg| {
            arg.parse().unwrap_or_else(|_| bench::cli::refuse(arg))
        })
    };
    let (scale, accesses) = (number(0, 1), number(1, 400_000) as usize);
    if let Some(extra) = args.get(2) {
        bench::cli::refuse(extra);
    }

    let cfg = CpuExperimentConfig {
        accesses_per_benchmark: accesses,
        scale_divisor: scale,
        ..CpuExperimentConfig::default()
    };
    eprintln!("running CPU sweep: scale=1/{scale}, {accesses} accesses per benchmark ...");
    let start = std::time::Instant::now();
    let mut results = run_cpu_experiment(&cfg);
    results.sort_by(|a, b| {
        a.benchmark
            .id()
            .cmp(&b.benchmark.id())
            .then((a.core_kind as u8).cmp(&(b.core_kind as u8)))
    });
    eprintln!("CPU sweep took {:.1}s", start.elapsed().as_secs_f64());

    println!(
        "{}",
        report::format_cpu_results("Per-benchmark slowdowns", &results, &cfg.latencies_ns)
    );
    println!();
    let summaries = summarize_by_suite(&results, 35.0);
    println!(
        "{}",
        report::format_suite_summaries("Suite summaries at +35 ns", &summaries)
    );

    for kind in [cpusim::CoreKind::InOrder, cpusim::CoreKind::OutOfOrder] {
        let corr = miss_rate_correlation(&results, 35.0, |r| r.core_kind == kind);
        println!(
            "Pearson slowdown vs LLC miss rate ({kind}): {:?}",
            corr.pearson
        );
    }

    let gpu = run_gpu_experiment(&GpuExperimentConfig::default());
    println!(
        "\nGPU average slowdown @35ns: {:.2}%",
        average_slowdown(&gpu, 35.0)
    );
    let c = gpu_correlations(&gpu, 35.0);
    println!(
        "GPU correlations: miss={:?} hbm={:?} memfrac={:?}",
        c.with_l2_miss_rate, c.with_hbm_transactions, c.with_memory_fraction
    );
    println!(
        "{}",
        report::format_gpu_results("GPU slowdowns", &gpu, &[25.0, 30.0, 35.0, 85.0])
    );
}
