//! The analytical GPU timing model.
//!
//! For each kernel the model computes three components, in SM cycles:
//!
//! * **compute time** — warp instructions divided by the GPU's effective
//!   issue rate (derated when occupancy is too low to fill the issue slots);
//! * **bandwidth time** — HBM bytes moved divided by HBM bandwidth;
//! * **exposed latency** — each HBM transaction takes
//!   `hbm_latency (+ disaggregation latency)` cycles, but the GPU services
//!   many transactions concurrently (resident warps x per-warp MLP across
//!   all SMs), so only the serialized share is exposed.
//!
//! Kernel time is `max(compute, bandwidth) + exposed latency`. This is the
//! same first-order structure PPT-GPU uses (interval analysis with
//! occupancy-based latency hiding), and it reproduces the paper's
//! observations: applications with high L2 miss rates and many HBM
//! transactions per instruction slow down the most when HBM latency grows,
//! while compute- or occupancy-rich applications barely notice.

use crate::config::GpuConfig;
use crate::kernel::{ApplicationProfile, KernelProfile};

/// Timing result for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name.
    pub name: String,
    /// Compute (issue-bound) cycles.
    pub compute_cycles: f64,
    /// HBM bandwidth-bound cycles.
    pub bandwidth_cycles: f64,
    /// Exposed (non-hidden) HBM latency cycles.
    pub exposed_latency_cycles: f64,
    /// Total predicted cycles for the kernel.
    pub total_cycles: f64,
}

/// Timing result for a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSimResult {
    /// Application name.
    pub name: String,
    /// Suite the application belongs to.
    pub suite: String,
    /// Per-kernel timings.
    pub kernels: Vec<KernelTiming>,
    /// Total predicted cycles (sum over kernels).
    pub total_cycles: f64,
    /// The extra HBM latency that was configured, in nanoseconds.
    pub extra_hbm_latency_ns: f64,
    /// Application-level L2 miss rate.
    pub l2_miss_rate: f64,
    /// Application-level HBM transactions per warp instruction.
    pub hbm_transactions_per_instruction: f64,
    /// Application-level memory instruction fraction.
    pub memory_instruction_fraction: f64,
}

impl GpuSimResult {
    /// Slowdown relative to a baseline run of the same application, as a
    /// percentage.
    pub fn slowdown_vs(&self, baseline: &GpuSimResult) -> f64 {
        if baseline.total_cycles <= 0.0 {
            return 0.0;
        }
        (self.total_cycles / baseline.total_cycles - 1.0) * 100.0
    }

    /// Speedup relative to another (slower) run, as a percentage.
    pub fn speedup_vs(&self, other: &GpuSimResult) -> f64 {
        if self.total_cycles <= 0.0 {
            return 0.0;
        }
        (other.total_cycles / self.total_cycles - 1.0) * 100.0
    }
}

/// The timing model: a GPU configuration plus evaluation methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTimingModel {
    config: GpuConfig,
}

impl GpuTimingModel {
    /// Create a model for a configuration.
    pub fn new(config: GpuConfig) -> Self {
        config
            .validate()
            .expect("invalid GPU configuration passed to GpuTimingModel::new");
        GpuTimingModel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Predict the timing of one kernel.
    pub fn time_kernel(&self, kernel: &KernelProfile) -> KernelTiming {
        let cfg = &self.config;

        // Compute (issue) time: the GPU needs enough resident warps to keep
        // the issue slots busy; below ~8 warps per SM the issue rate derates
        // roughly linearly.
        let occupancy_factor = (kernel.active_warps_per_sm / 8.0).clamp(0.05, 1.0);
        let effective_issue = cfg.peak_issue_per_cycle() * occupancy_factor;
        let compute_cycles = kernel.warp_instructions as f64 / effective_issue;

        // Bandwidth time: bytes moved over the HBM interface.
        let hbm_bytes = kernel.hbm_transactions() * cfg.transaction_bytes as f64;
        let bandwidth_cycles = hbm_bytes / cfg.hbm_bytes_per_cycle();

        // Latency component: total latency-cycles across all HBM
        // transactions, divided by the concurrency available to hide it.
        let concurrency = (cfg.sm_count as f64
            * kernel.active_warps_per_sm.min(cfg.max_warps_per_sm as f64)
            * kernel.mlp_per_warp)
            .max(1.0);
        let total_latency_cycles = kernel.hbm_transactions() * cfg.total_hbm_latency_cycles();
        let exposed_latency_cycles = total_latency_cycles / concurrency;

        let total_cycles = compute_cycles.max(bandwidth_cycles) + exposed_latency_cycles;
        KernelTiming {
            name: kernel.name.clone(),
            compute_cycles,
            bandwidth_cycles,
            exposed_latency_cycles,
            total_cycles,
        }
    }

    /// Predict the timing of a whole application.
    pub fn run(&self, app: &ApplicationProfile) -> GpuSimResult {
        let kernels: Vec<KernelTiming> = app.kernels.iter().map(|k| self.time_kernel(k)).collect();
        let total_cycles = kernels.iter().map(|k| k.total_cycles).sum();
        GpuSimResult {
            name: app.name.clone(),
            suite: app.suite.clone(),
            kernels,
            total_cycles,
            extra_hbm_latency_ns: self.config.extra_hbm_latency_ns,
            l2_miss_rate: app.l2_miss_rate(),
            hbm_transactions_per_instruction: app.hbm_transactions_per_instruction(),
            memory_instruction_fraction: app.memory_instruction_fraction(),
        }
    }

    /// Run an application at several extra-HBM-latency points (the paper's
    /// 0/25/30/35 ns sweep for Fig. 9).
    pub fn latency_sweep(
        &self,
        app: &ApplicationProfile,
        extra_latencies_ns: &[f64],
    ) -> Vec<GpuSimResult> {
        extra_latencies_ns
            .iter()
            .map(|&extra| {
                GpuTimingModel::new(self.config.with_extra_hbm_latency_ns(extra)).run(app)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_bound_kernel() -> KernelProfile {
        KernelProfile {
            name: "membound".into(),
            warp_instructions: 10_000_000,
            memory_instruction_fraction: 0.4,
            l1_hit_rate: 0.2,
            l2_hit_rate: 0.1,
            transactions_per_memory_instruction: 8.0,
            active_warps_per_sm: 12.0,
            mlp_per_warp: 1.5,
        }
    }

    fn compute_bound_kernel() -> KernelProfile {
        KernelProfile {
            name: "computebound".into(),
            warp_instructions: 50_000_000,
            memory_instruction_fraction: 0.05,
            l1_hit_rate: 0.9,
            l2_hit_rate: 0.9,
            transactions_per_memory_instruction: 2.0,
            active_warps_per_sm: 48.0,
            mlp_per_warp: 4.0,
        }
    }

    fn app(kernel: KernelProfile) -> ApplicationProfile {
        ApplicationProfile::new("app", "test", vec![kernel])
    }

    #[test]
    fn memory_bound_kernel_slows_down_with_extra_latency() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        let sweep = model.latency_sweep(&app(memory_bound_kernel()), &[0.0, 35.0]);
        let slowdown = sweep[1].slowdown_vs(&sweep[0]);
        assert!(
            slowdown > 1.0,
            "memory-bound kernel should slow down, got {slowdown}%"
        );
    }

    #[test]
    fn compute_bound_kernel_barely_slows_down() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        let sweep = model.latency_sweep(&app(compute_bound_kernel()), &[0.0, 35.0]);
        let slowdown = sweep[1].slowdown_vs(&sweep[0]);
        assert!(
            slowdown < 1.0,
            "compute-bound kernel should barely slow down, got {slowdown}%"
        );
    }

    #[test]
    fn gpu_tolerates_latency_better_than_full_exposure() {
        // The exposed latency must be far below transactions x latency
        // because of warp-level parallelism.
        let model = GpuTimingModel::new(GpuConfig::a100());
        let k = memory_bound_kernel();
        let t = model.time_kernel(&k);
        let naive = k.hbm_transactions() * GpuConfig::a100().total_hbm_latency_cycles();
        assert!(t.exposed_latency_cycles * 100.0 < naive);
    }

    #[test]
    fn slowdown_monotonic_in_latency() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        let sweep =
            model.latency_sweep(&app(memory_bound_kernel()), &[0.0, 25.0, 30.0, 35.0, 85.0]);
        for pair in sweep.windows(2) {
            assert!(pair[1].total_cycles >= pair[0].total_cycles);
        }
    }

    #[test]
    fn electronic_latency_hurts_more_than_photonic() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        let sweep = model.latency_sweep(&app(memory_bound_kernel()), &[0.0, 35.0, 85.0]);
        let photonic = sweep[1].slowdown_vs(&sweep[0]);
        let electronic = sweep[2].slowdown_vs(&sweep[0]);
        assert!(electronic > photonic);
    }

    #[test]
    fn total_is_sum_of_kernels() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        let app = ApplicationProfile::new(
            "two",
            "test",
            vec![memory_bound_kernel(), compute_bound_kernel()],
        );
        let r = model.run(&app);
        let sum: f64 = r.kernels.iter().map(|k| k.total_cycles).sum();
        assert!((r.total_cycles - sum).abs() < 1e-6);
        assert_eq!(r.kernels.len(), 2);
    }

    #[test]
    fn higher_occupancy_hides_more_latency() {
        let model = GpuTimingModel::new(GpuConfig::a100().with_extra_hbm_latency_ns(35.0));
        let mut low = memory_bound_kernel();
        low.active_warps_per_sm = 4.0;
        let mut high = memory_bound_kernel();
        high.active_warps_per_sm = 48.0;
        let t_low = model.time_kernel(&low);
        let t_high = model.time_kernel(&high);
        assert!(t_high.exposed_latency_cycles < t_low.exposed_latency_cycles);
    }

    #[test]
    fn result_metadata_propagates() {
        let model = GpuTimingModel::new(GpuConfig::a100().with_extra_hbm_latency_ns(35.0));
        let r = model.run(&app(memory_bound_kernel()));
        assert_eq!(r.extra_hbm_latency_ns, 35.0);
        assert!(r.l2_miss_rate > 0.0);
        assert!(r.hbm_transactions_per_instruction > 0.0);
        assert_eq!(r.suite, "test");
    }

    #[test]
    fn speedup_and_slowdown_consistency() {
        let model = GpuTimingModel::new(GpuConfig::a100());
        let sweep = model.latency_sweep(&app(memory_bound_kernel()), &[35.0, 85.0]);
        assert!(sweep[0].speedup_vs(&sweep[1]) > 0.0);
        assert!(sweep[1].slowdown_vs(&sweep[0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid GPU configuration")]
    fn invalid_config_panics() {
        let mut cfg = GpuConfig::a100();
        cfg.sm_count = 0;
        GpuTimingModel::new(cfg);
    }
}
