//! GPU hardware configuration.
//!
//! The defaults model the NVIDIA A100 used in the paper's rack: 108 SMs at
//! 1.41 GHz, a 40 MB L2, and 40 GB of HBM2e at 1555.2 GB/s. The
//! disaggregation latency is added between the L2 (the GPU's LLC) and HBM,
//! mirroring where the paper's modified PPT-GPU adds it.

/// Hardware configuration of the modelled GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SM clock in GHz.
    pub clock_ghz: f64,
    /// Peak warp instructions issued per SM per cycle.
    pub issue_per_sm_per_cycle: f64,
    /// Maximum resident warps per SM (occupancy limit).
    pub max_warps_per_sm: u32,
    /// L2 (LLC) capacity in bytes.
    pub l2_capacity_bytes: u64,
    /// HBM peak bandwidth in GB/s.
    pub hbm_bandwidth_gbs: f64,
    /// Baseline HBM access latency in nanoseconds (L2 miss to data return).
    pub hbm_latency_ns: f64,
    /// Additional latency between the L2 and HBM from disaggregation, in
    /// nanoseconds (0 for the baseline, 25/30/35 for the photonic fabric,
    /// 85 for the electronic-switch fabric).
    pub extra_hbm_latency_ns: f64,
    /// Memory transaction size in bytes (one L2<->HBM sector).
    pub transaction_bytes: u32,
}

impl GpuConfig {
    /// NVIDIA A100 (SXM4 40 GB) configuration as used in the paper's rack.
    pub fn a100() -> Self {
        GpuConfig {
            sm_count: 108,
            clock_ghz: 1.41,
            issue_per_sm_per_cycle: 1.0,
            max_warps_per_sm: 64,
            l2_capacity_bytes: 40 * 1024 * 1024,
            hbm_bandwidth_gbs: 1555.2,
            hbm_latency_ns: 290.0,
            extra_hbm_latency_ns: 0.0,
            transaction_bytes: 32,
        }
    }

    /// The same GPU with an additional HBM latency (disaggregated).
    pub fn with_extra_hbm_latency_ns(mut self, extra_ns: f64) -> Self {
        self.extra_hbm_latency_ns = extra_ns;
        self
    }

    /// Total HBM latency (baseline + disaggregation) in nanoseconds.
    pub fn total_hbm_latency_ns(&self) -> f64 {
        self.hbm_latency_ns + self.extra_hbm_latency_ns
    }

    /// Total HBM latency in SM cycles.
    pub fn total_hbm_latency_cycles(&self) -> f64 {
        self.total_hbm_latency_ns() * self.clock_ghz
    }

    /// Peak instruction throughput of the whole GPU in warp-instructions per
    /// cycle.
    pub fn peak_issue_per_cycle(&self) -> f64 {
        self.sm_count as f64 * self.issue_per_sm_per_cycle
    }

    /// HBM bandwidth expressed in bytes per SM cycle.
    pub fn hbm_bytes_per_cycle(&self) -> f64 {
        self.hbm_bandwidth_gbs * 1e9 / (self.clock_ghz * 1e9)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.sm_count == 0 {
            return Err("sm_count must be non-zero".into());
        }
        if self.clock_ghz <= 0.0 {
            return Err("clock must be positive".into());
        }
        if self.hbm_bandwidth_gbs <= 0.0 {
            return Err("HBM bandwidth must be positive".into());
        }
        if self.max_warps_per_sm == 0 {
            return Err("max_warps_per_sm must be non-zero".into());
        }
        if self.transaction_bytes == 0 {
            return Err("transaction size must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_defaults_are_valid() {
        let c = GpuConfig::a100();
        assert!(c.validate().is_ok());
        assert_eq!(c.sm_count, 108);
        assert!((c.hbm_bandwidth_gbs - 1555.2).abs() < 1e-9);
    }

    #[test]
    fn extra_latency_adds_to_total() {
        let c = GpuConfig::a100().with_extra_hbm_latency_ns(35.0);
        assert!((c.total_hbm_latency_ns() - 325.0).abs() < 1e-9);
        // 325 ns at 1.41 GHz = 458.25 cycles.
        assert!((c.total_hbm_latency_cycles() - 458.25).abs() < 0.01);
    }

    #[test]
    fn hbm_bytes_per_cycle() {
        let c = GpuConfig::a100();
        // 1555.2 GB/s at 1.41 GHz = ~1102.98 bytes per cycle.
        assert!((c.hbm_bytes_per_cycle() - 1102.98).abs() < 0.1);
    }

    #[test]
    fn peak_issue_rate() {
        let c = GpuConfig::a100();
        assert!((c.peak_issue_per_cycle() - 108.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = GpuConfig::a100();
        c.sm_count = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::a100();
        c.clock_ghz = 0.0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::a100();
        c.hbm_bandwidth_gbs = -1.0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::a100();
        c.max_warps_per_sm = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::a100();
        c.transaction_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_a100() {
        assert_eq!(GpuConfig::default(), GpuConfig::a100());
    }
}
