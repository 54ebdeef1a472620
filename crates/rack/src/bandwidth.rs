//! Bandwidth-sufficiency analysis (Section VI-A1 of the paper).
//!
//! Two questions are answered with the production utilization distributions
//! and simple accounting:
//!
//! 1. **CPU ↔ DDR4 and NIC ↔ memory traffic.** How often does the 125 Gbps
//!    direct MCM-to-MCM bandwidth (or a single 25 Gbps wavelength) suffice?
//!    The paper: >99.5% and 97% of the time respectively, so indirect
//!    routing is rarely needed and almost always finds spare wavelengths.
//! 2. **GPU ↔ HBM and GPU ↔ GPU traffic.** With indirect routing a GPU can
//!    reach 8 TB/s towards its HBM MCMs — far more than the 1555.2 GB/s it
//!    uses today — leaving enough headroom to carry the worst-case 900 GB/s
//!    of NVLink-style GPU-to-GPU traffic per MCM and still have spare.

use photonics::units::Bandwidth;
use workloads::production::ProductionDistributions;

/// Sufficiency probabilities for the CPU/NIC/DDR4 traffic classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSufficiency {
    /// Probability that a node's CPU-to-memory demand fits in the direct
    /// 125 Gbps MCM-to-MCM bandwidth.
    pub direct_125gbps_sufficient: f64,
    /// Probability that it fits in a single 25 Gbps wavelength.
    pub single_wavelength_sufficient: f64,
    /// Number of Monte-Carlo samples used.
    pub samples: usize,
}

impl BandwidthSufficiency {
    /// Estimate the sufficiency probabilities from the production
    /// distributions.
    pub fn estimate(dist: &ProductionDistributions, samples: usize, seed: u64) -> Self {
        let direct_exceed = dist.probability_memory_bandwidth_exceeds(
            Bandwidth::from_gbps(125.0).gbytes_per_s(),
            samples,
            seed,
        );
        let single_exceed = dist.probability_memory_bandwidth_exceeds(
            Bandwidth::from_gbps(25.0).gbytes_per_s(),
            samples,
            seed.wrapping_add(1),
        );
        BandwidthSufficiency {
            direct_125gbps_sufficient: 1.0 - direct_exceed,
            single_wavelength_sufficient: 1.0 - single_exceed,
            samples,
        }
    }

    /// Estimate with the paper's Cori-calibrated distributions.
    pub fn paper(samples: usize, seed: u64) -> Self {
        Self::estimate(&ProductionDistributions::cori_haswell(), samples, seed)
    }
}

/// The GPU bandwidth budget accounting of Section VI-A1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuBandwidthBudget {
    /// Total bandwidth a GPU can use towards HBM MCMs with indirect routing
    /// (GB/s).
    pub indirect_reach_gbs: f64,
    /// HBM bandwidth a GPU actually uses today (GB/s).
    pub hbm_demand_gbs: f64,
    /// Worst-case GPU-to-GPU (NVLink-replacement) traffic per GPU MCM (GB/s).
    pub gpu_to_gpu_demand_gbs: f64,
    /// Unused bandwidth after serving HBM demand (GB/s).
    pub headroom_after_hbm_gbs: f64,
    /// Unused bandwidth after also serving GPU-to-GPU traffic (GB/s).
    pub headroom_after_gpu_traffic_gbs: f64,
}

impl GpuBandwidthBudget {
    /// The paper's accounting for the AWGR fabric (case A).
    ///
    /// With indirect routing a GPU can use `direct_bandwidth x (mcm_count -
    /// rest)` ≈ 125 Gbps x 512 destinations = 8000 GB/s towards HBM, leaving
    /// 6444.8 GB/s after the 1555.2 GB/s of HBM demand; the worst-case
    /// 900 GB/s of GPU-to-GPU traffic (3 GPUs x 12 NVLinks x 25 GB/s per
    /// MCM) still leaves ~5.5 TB/s.
    pub fn paper_awgr() -> Self {
        let direct_gbps = 125.0;
        let destinations = 512.0;
        let indirect_reach_gbs = Bandwidth::from_gbps(direct_gbps * destinations).gbytes_per_s();
        let hbm_demand_gbs = 1555.2;
        let gpu_to_gpu_demand_gbs = 3.0 * 12.0 * 25.0;
        let headroom_after_hbm = indirect_reach_gbs - hbm_demand_gbs;
        let headroom_after_gpu = headroom_after_hbm - gpu_to_gpu_demand_gbs;
        GpuBandwidthBudget {
            indirect_reach_gbs,
            hbm_demand_gbs,
            gpu_to_gpu_demand_gbs,
            headroom_after_hbm_gbs: headroom_after_hbm,
            headroom_after_gpu_traffic_gbs: headroom_after_gpu,
        }
    }

    /// True if the budget satisfies both HBM and GPU-to-GPU demand.
    pub fn satisfies_all_demand(&self) -> bool {
        self.headroom_after_gpu_traffic_gbs >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_bandwidth_suffices_well_over_99_5_percent() {
        let s = BandwidthSufficiency::paper(100_000, 21);
        assert!(
            s.direct_125gbps_sufficient > 0.995,
            "direct sufficiency {} should exceed 99.5%",
            s.direct_125gbps_sufficient
        );
    }

    #[test]
    fn single_wavelength_suffices_about_97_percent() {
        let s = BandwidthSufficiency::paper(100_000, 22);
        assert!(
            s.single_wavelength_sufficient > 0.94 && s.single_wavelength_sufficient < 0.995,
            "single-wavelength sufficiency {} should be ~97%",
            s.single_wavelength_sufficient
        );
    }

    #[test]
    fn gpu_budget_matches_paper_arithmetic() {
        let b = GpuBandwidthBudget::paper_awgr();
        assert!((b.indirect_reach_gbs - 8000.0).abs() < 1.0);
        assert!((b.headroom_after_hbm_gbs - 6444.8).abs() < 1.0);
        assert!((b.gpu_to_gpu_demand_gbs - 900.0).abs() < 1e-9);
        assert!((b.headroom_after_gpu_traffic_gbs - 5544.8).abs() < 1.0);
        assert!(b.satisfies_all_demand());
    }

    #[test]
    fn sufficiency_estimates_are_reproducible() {
        let a = BandwidthSufficiency::paper(20_000, 5);
        let b = BandwidthSufficiency::paper(20_000, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn insufficient_budget_detected() {
        let mut b = GpuBandwidthBudget::paper_awgr();
        b.headroom_after_gpu_traffic_gbs = -1.0;
        assert!(!b.satisfies_all_demand());
    }
}
