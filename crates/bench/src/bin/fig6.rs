//! Regenerates Fig. 6: average and maximum slowdown for each benchmark suite
//! and input-set size with 35 ns of additional LLC-to-memory latency, for
//! in-order (left panel) and out-of-order (right panel) cores.

use disagg_core::cpu_experiments::{run_cpu_experiment, summarize_by_suite, CpuExperimentConfig};
use disagg_core::report::format_suite_summaries;

fn main() {
    bench::cli::no_args();
    let cfg = CpuExperimentConfig {
        latencies_ns: vec![0.0, 35.0],
        ..CpuExperimentConfig::default()
    };
    let results = run_cpu_experiment(&cfg);
    let summaries = summarize_by_suite(&results, 35.0);
    println!(
        "{}",
        format_suite_summaries(
            "Fig. 6 — average / maximum slowdown per suite and input size (+35 ns)",
            &summaries
        )
    );
}
