//! GPU latency-sensitivity experiments (Section VI-B3 of the paper).
//!
//! Every GPU application profile is evaluated with the PPT-GPU-style
//! analytical model at several additional HBM latencies. From those runs the
//! harness derives:
//!
//! * Fig. 9 — per-application slowdown for 25/30/35 ns;
//! * Fig. 10 — slowdown vs. L2 miss rate and vs. HBM transactions per
//!   instruction, with Pearson correlations;
//! * Fig. 11 — the CPU-vs-GPU comparison on the shared Rodinia benchmarks;
//! * Fig. 12 (GPU half) — speedup of the photonic design over the
//!   electronic design.

use cpusim::pearson_correlation;
use gpusim::{ApplicationProfile, GpuConfig, GpuTimingModel};
use serde::{Deserialize, Serialize};
use workloads::gpu::gpu_applications;

/// Configuration of the GPU experiment sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuExperimentConfig {
    /// Additional HBM latencies to evaluate (ns); must include 0.
    pub latencies_ns: Vec<f64>,
    /// GPU hardware configuration.
    pub gpu: GpuConfig,
}

impl Default for GpuExperimentConfig {
    fn default() -> Self {
        GpuExperimentConfig {
            latencies_ns: crate::LATENCY_SWEEP_NS.to_vec(),
            gpu: GpuConfig::a100(),
        }
    }
}

/// Result of one GPU application across the latency sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuBenchmarkResult {
    /// Application name.
    pub name: String,
    /// Suite the application belongs to.
    pub suite: String,
    /// Baseline (0 ns extra) predicted cycles.
    pub baseline_cycles: f64,
    /// Application-level L2 (LLC) miss rate.
    pub l2_miss_rate: f64,
    /// HBM transactions per warp instruction.
    pub hbm_transactions_per_instruction: f64,
    /// Fraction of instructions that are memory instructions.
    pub memory_instruction_fraction: f64,
    /// (extra latency ns, slowdown %) pairs.
    pub slowdowns: Vec<(f64, f64)>,
    /// (extra latency ns, predicted cycles) pairs.
    pub cycles: Vec<(f64, f64)>,
}

impl GpuBenchmarkResult {
    /// Slowdown at a given latency point, if simulated.
    pub fn slowdown_at(&self, latency_ns: f64) -> Option<f64> {
        self.slowdowns
            .iter()
            .find(|(l, _)| (l - latency_ns).abs() < 1e-9)
            .map(|(_, s)| *s)
    }

    /// Cycles at a given latency point, if simulated.
    pub fn cycles_at(&self, latency_ns: f64) -> Option<f64> {
        self.cycles
            .iter()
            .find(|(l, _)| (l - latency_ns).abs() < 1e-9)
            .map(|(_, c)| *c)
    }

    /// Speedup (%) of the configuration at `fast_ns` over `slow_ns`.
    pub fn speedup_between(&self, fast_ns: f64, slow_ns: f64) -> Option<f64> {
        let fast = self.cycles_at(fast_ns)?;
        let slow = self.cycles_at(slow_ns)?;
        if fast <= 0.0 {
            return None;
        }
        Some((slow / fast - 1.0) * 100.0)
    }
}

fn run_app(app: &ApplicationProfile, config: &GpuExperimentConfig) -> GpuBenchmarkResult {
    let model = GpuTimingModel::new(config.gpu);
    let sweep = model.latency_sweep(app, &config.latencies_ns);
    let baseline = config
        .latencies_ns
        .iter()
        .position(|&l| l == 0.0)
        .map(|i| &sweep[i])
        .unwrap_or(&sweep[0]);
    let slowdowns = config
        .latencies_ns
        .iter()
        .zip(sweep.iter())
        .map(|(&l, r)| (l, r.slowdown_vs(baseline)))
        .collect();
    let cycles = config
        .latencies_ns
        .iter()
        .zip(sweep.iter())
        .map(|(&l, r)| (l, r.total_cycles))
        .collect();
    GpuBenchmarkResult {
        name: app.name.clone(),
        suite: app.suite.clone(),
        baseline_cycles: baseline.total_cycles,
        l2_miss_rate: app.l2_miss_rate(),
        hbm_transactions_per_instruction: app.hbm_transactions_per_instruction(),
        memory_instruction_fraction: app.memory_instruction_fraction(),
        slowdowns,
        cycles,
    }
}

/// Run the GPU experiment over all 24 registered applications, in parallel
/// through the sweep engine's [`parallel_map`](crate::sweep::parallel_map).
pub fn run_gpu_experiment(config: &GpuExperimentConfig) -> Vec<GpuBenchmarkResult> {
    crate::sweep::parallel_map(&gpu_applications(), |app| run_app(app, config))
}

/// The Fig. 10 correlations: slowdown vs L2 miss rate, vs HBM transactions
/// per instruction, and vs memory-instruction fraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuCorrelations {
    /// Pearson correlation of slowdown with L2 miss rate.
    pub with_l2_miss_rate: Option<f64>,
    /// Pearson correlation of slowdown with HBM transactions/instruction.
    pub with_hbm_transactions: Option<f64>,
    /// Pearson correlation of slowdown with memory-instruction fraction.
    pub with_memory_fraction: Option<f64>,
}

/// Compute the Fig. 10 correlations at one latency point.
pub fn gpu_correlations(results: &[GpuBenchmarkResult], latency_ns: f64) -> GpuCorrelations {
    let slowdowns: Vec<f64> = results
        .iter()
        .filter_map(|r| r.slowdown_at(latency_ns))
        .collect();
    let miss: Vec<f64> = results.iter().map(|r| r.l2_miss_rate).collect();
    let hbm: Vec<f64> = results
        .iter()
        .map(|r| r.hbm_transactions_per_instruction)
        .collect();
    let mem: Vec<f64> = results
        .iter()
        .map(|r| r.memory_instruction_fraction)
        .collect();
    GpuCorrelations {
        with_l2_miss_rate: pearson_correlation(&miss, &slowdowns),
        with_hbm_transactions: pearson_correlation(&hbm, &slowdowns),
        with_memory_fraction: pearson_correlation(&mem, &slowdowns),
    }
}

/// Average slowdown across all applications at one latency point.
pub fn average_slowdown(results: &[GpuBenchmarkResult], latency_ns: f64) -> f64 {
    let s: Vec<f64> = results
        .iter()
        .filter_map(|r| r.slowdown_at(latency_ns))
        .collect();
    if s.is_empty() {
        0.0
    } else {
        s.iter().sum::<f64>() / s.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results() -> Vec<GpuBenchmarkResult> {
        run_gpu_experiment(&GpuExperimentConfig::default())
    }

    #[test]
    fn all_24_applications_evaluated() {
        assert_eq!(results().len(), 24);
    }

    #[test]
    fn average_slowdown_near_paper_value() {
        // Paper: 5.35% average at +35 ns.
        let avg = average_slowdown(&results(), 35.0);
        assert!(
            avg > 3.0 && avg < 8.0,
            "average GPU slowdown {avg:.2}% should be near 5.35%"
        );
    }

    #[test]
    fn slowdown_increases_with_latency() {
        for r in results() {
            let s25 = r.slowdown_at(25.0).unwrap();
            let s30 = r.slowdown_at(30.0).unwrap();
            let s35 = r.slowdown_at(35.0).unwrap();
            let s85 = r.slowdown_at(85.0).unwrap();
            assert!(s25 <= s30 + 1e-9);
            assert!(s30 <= s35 + 1e-9);
            assert!(s35 <= s85 + 1e-9);
        }
    }

    #[test]
    fn correlations_match_paper_structure() {
        // Fig. 10: strong correlation with L2 miss rate (0.87) and HBM
        // transactions (0.79); no significant correlation with the fraction
        // of memory instructions.
        let res = results();
        let c = gpu_correlations(&res, 35.0);
        let miss = c.with_l2_miss_rate.unwrap();
        let hbm = c.with_hbm_transactions.unwrap();
        let mem = c.with_memory_fraction.unwrap();
        assert!(miss > 0.6, "L2 miss-rate correlation {miss:.2}");
        assert!(hbm > 0.5, "HBM transaction correlation {hbm:.2}");
        assert!(
            mem < miss && mem < hbm,
            "memory-fraction correlation ({mem:.2}) should be the weakest"
        );
    }

    #[test]
    fn photonic_beats_electronic_for_every_application() {
        for r in results() {
            let speedup = r.speedup_between(35.0, 85.0).unwrap();
            assert!(speedup >= -1e-9, "{}: speedup {speedup:.2}%", r.name);
        }
    }

    #[test]
    fn rodinia_intersection_max_slowdown_close_to_paper() {
        // Fig. 11: GPUs tolerate the extra latency with a maximum slowdown
        // of ~12% across the shared Rodinia benchmarks.
        let res = results();
        let shared = workloads::cpu::rodinia_cpu_gpu_intersection();
        let max = res
            .iter()
            .filter(|r| shared.contains(&r.name.as_str()))
            .filter_map(|r| r.slowdown_at(35.0))
            .fold(f64::MIN, f64::max);
        assert!(
            max > 5.0 && max < 16.0,
            "max Rodinia GPU slowdown {max:.1}%"
        );
    }

    #[test]
    fn baseline_slowdown_is_zero() {
        for r in results() {
            assert!(r.slowdown_at(0.0).unwrap().abs() < 1e-9);
        }
    }
}
