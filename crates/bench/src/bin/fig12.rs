//! Regenerates Fig. 12: speedup of the photonically-disaggregated system
//! (+35 ns of memory latency) over an equivalent system built with modern
//! electronic switches (+85 ns), for CPU benchmarks (PARSEC counted once via
//! its medium inputs) and the 24 GPU applications.

use cpusim::CoreKind;
use disagg_core::cpu_experiments::{
    electronic_comparison, run_cpu_experiment, CpuExperimentConfig,
};
use disagg_core::gpu_experiments::{run_gpu_experiment, GpuExperimentConfig};

fn main() {
    bench::cli::no_args();
    let cfg = CpuExperimentConfig {
        latencies_ns: vec![0.0, 35.0, 85.0],
        ..CpuExperimentConfig::default()
    };
    let results = run_cpu_experiment(&cfg);
    let rows = electronic_comparison(&results, true);

    println!("Fig. 12 — speedup of photonic (35 ns) over electronic (85 ns) disaggregation");
    println!("\nCPU benchmarks (PARSEC/NAS deduplicated to one input size):");
    println!("{:<38} {:<9} {:>10}", "benchmark", "core", "speedup");
    for row in &rows {
        println!(
            "{:<38} {:<9} {:>9.1}%",
            row.benchmark,
            row.core_kind.to_string(),
            row.speedup_percent
        );
    }
    for kind in [CoreKind::InOrder, CoreKind::OutOfOrder] {
        let s: Vec<f64> = rows
            .iter()
            .filter(|r| r.core_kind == kind)
            .map(|r| r.speedup_percent)
            .collect();
        let avg = s.iter().sum::<f64>() / s.len().max(1) as f64;
        let max = s.iter().cloned().fold(0.0, f64::max);
        println!("{kind} CPU average speedup {avg:.1}%, maximum {max:.1}%");
    }

    let gpu = run_gpu_experiment(&GpuExperimentConfig {
        latencies_ns: vec![0.0, 35.0, 85.0],
        ..GpuExperimentConfig::default()
    });
    println!("\nGPU applications:");
    let mut speedups = Vec::new();
    for r in &gpu {
        let s = r.speedup_between(35.0, 85.0).unwrap_or(0.0);
        speedups.push(s);
        println!("{:<20} {:>9.2}%", r.name, s);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    println!("GPU average speedup {avg:.2}%, maximum {max:.2}%");
}
