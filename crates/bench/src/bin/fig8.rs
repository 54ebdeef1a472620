//! Regenerates Fig. 8: slowdown for 25, 30, and 35 ns of additional
//! LLC-to-memory latency for in-order and out-of-order cores.

use disagg_core::cpu_experiments::{run_cpu_experiment, summarize_by_suite, CpuExperimentConfig};
use disagg_core::report::format_suite_summaries;

fn main() {
    bench::cli::no_args();
    let cfg = CpuExperimentConfig {
        latencies_ns: vec![0.0, 25.0, 30.0, 35.0],
        ..CpuExperimentConfig::default()
    };
    let results = run_cpu_experiment(&cfg);
    for latency in [25.0, 30.0, 35.0] {
        let summaries = summarize_by_suite(&results, latency);
        println!(
            "{}",
            format_suite_summaries(
                &format!("Fig. 8 — slowdown with +{latency} ns of LLC-memory latency"),
                &summaries
            )
        );
    }
}
