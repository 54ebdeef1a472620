//! Production-system utilization distributions (Section II-A of the paper).
//!
//! The paper's bandwidth-sufficiency analysis (Section VI-A1) and
//! iso-performance provisioning study (Section VI-E) are driven by observed
//! resource usage on NERSC's Cori — numbers published in the authors' prior
//! intra-rack-disaggregation study and summarized in Section II-A:
//!
//! * three quarters of the time, Haswell nodes use **< 17.4%** of memory
//!   capacity and **< 0.46 GB/s** of memory bandwidth;
//! * half of the time, nodes use **no more than half** of their compute
//!   cores;
//! * three quarters of the time, nodes use **≤ 1.25%** of NIC bandwidth;
//! * the direct 125 Gbps MCM-to-MCM bandwidth of the AWGR fabric suffices
//!   **> 99.5%** of the time between CPUs and DDR4, and a single 25 Gbps
//!   wavelength suffices **97%** of the time.
//!
//! We do not have the raw Cori telemetry (it is not public), so this module
//! provides log-normal samplers calibrated to those published quantiles.
//! The samplers are seeded and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A sampled per-node utilization snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeUtilization {
    /// Fraction of node memory capacity in use (0..=1).
    pub memory_capacity_fraction: f64,
    /// Memory bandwidth in use, GB/s (per node).
    pub memory_bandwidth_gbs: f64,
    /// Fraction of compute cores in use (0..=1).
    pub core_fraction: f64,
    /// Fraction of NIC bandwidth in use (0..=1).
    pub nic_fraction: f64,
}

/// Summary of many [`NodeUtilization`] samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Number of samples drawn.
    pub samples: usize,
    /// 75th-percentile memory-capacity fraction.
    pub p75_memory_capacity: f64,
    /// 75th-percentile memory bandwidth (GB/s).
    pub p75_memory_bandwidth_gbs: f64,
    /// Median core-usage fraction.
    pub median_core_fraction: f64,
    /// 75th-percentile NIC-bandwidth fraction.
    pub p75_nic_fraction: f64,
    /// Mean memory-capacity fraction.
    pub mean_memory_capacity: f64,
}

/// Log-normal samplers calibrated to the published Cori utilization
/// quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductionDistributions {
    /// Median of the memory-capacity-fraction distribution.
    pub memory_capacity_median: f64,
    /// Log-space sigma of the memory-capacity-fraction distribution.
    pub memory_capacity_sigma: f64,
    /// Median of the memory-bandwidth distribution (GB/s).
    pub memory_bandwidth_median_gbs: f64,
    /// Log-space sigma of the memory-bandwidth distribution.
    pub memory_bandwidth_sigma: f64,
    /// Median of the NIC-utilization-fraction distribution.
    pub nic_median: f64,
    /// Log-space sigma of the NIC-utilization distribution.
    pub nic_sigma: f64,
}

/// z-score of the 75th percentile of a standard normal.
const Z75: f64 = 0.674_489_75;

/// Draw a standard-normal variate via the Box-Muller transform.
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draw a log-normal variate with the given median and log-space sigma.
fn lognormal(rng: &mut impl Rng, median: f64, sigma: f64) -> f64 {
    (median.ln() + sigma * standard_normal(rng)).exp()
}

impl ProductionDistributions {
    /// Distributions calibrated to the Cori (Haswell partition) numbers
    /// quoted in Section II-A.
    pub fn cori_haswell() -> Self {
        // 75th percentiles: memory capacity 17.4%, memory bandwidth
        // 0.46 GB/s, NIC 1.25%. Medians and sigmas chosen so that
        // median * exp(Z75 * sigma) equals the published 75th percentile
        // while keeping a realistically heavy tail.
        ProductionDistributions {
            memory_capacity_median: 0.08,
            memory_capacity_sigma: (0.174f64 / 0.08).ln() / Z75,
            memory_bandwidth_median_gbs: 0.15,
            memory_bandwidth_sigma: (0.46f64 / 0.15).ln() / Z75,
            nic_median: 0.005,
            nic_sigma: (0.0125f64 / 0.005).ln() / Z75,
        }
    }

    /// Sample one node snapshot.
    pub fn sample(&self, rng: &mut impl Rng) -> NodeUtilization {
        let mem_cap =
            lognormal(rng, self.memory_capacity_median, self.memory_capacity_sigma).min(1.0);
        let mem_bw = lognormal(
            rng,
            self.memory_bandwidth_median_gbs,
            self.memory_bandwidth_sigma,
        );
        let nic = lognormal(rng, self.nic_median, self.nic_sigma).min(1.0);
        // Core usage: the paper reports the median is at half the cores;
        // model it as uniform over [0, 1] (median 0.5) which also matches
        // the 28-55% idle range reported for datacenters.
        let cores: f64 = rng.gen_range(0.0..=1.0);

        NodeUtilization {
            memory_capacity_fraction: mem_cap,
            memory_bandwidth_gbs: mem_bw,
            core_fraction: cores,
            nic_fraction: nic,
        }
    }

    /// Draw `n` node snapshots with a seeded RNG.
    pub fn sample_nodes(&self, n: usize, seed: u64) -> Vec<NodeUtilization> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Draw `n` node snapshots with a ChaCha RNG (stable across platforms).
    pub fn sample_nodes_stable(&self, n: usize, seed: u64) -> Vec<NodeUtilization> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Summarize a sample (used by tests and the bandwidth analysis bench).
    pub fn summarize(samples: &[NodeUtilization]) -> UtilizationSample {
        let pct = |mut v: Vec<f64>, p: f64| -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((v.len() - 1) as f64 * p).round() as usize;
            v[idx]
        };
        let mem_cap: Vec<f64> = samples.iter().map(|s| s.memory_capacity_fraction).collect();
        let mem_bw: Vec<f64> = samples.iter().map(|s| s.memory_bandwidth_gbs).collect();
        let cores: Vec<f64> = samples.iter().map(|s| s.core_fraction).collect();
        let nic: Vec<f64> = samples.iter().map(|s| s.nic_fraction).collect();
        UtilizationSample {
            samples: samples.len(),
            p75_memory_capacity: pct(mem_cap.clone(), 0.75),
            p75_memory_bandwidth_gbs: pct(mem_bw, 0.75),
            median_core_fraction: pct(cores, 0.5),
            p75_nic_fraction: pct(nic, 0.75),
            mean_memory_capacity: mem_cap.iter().sum::<f64>() / samples.len().max(1) as f64,
        }
    }

    /// Probability that a node's CPU-to-memory bandwidth demand exceeds
    /// `threshold_gbs` (estimated from `n` samples).
    pub fn probability_memory_bandwidth_exceeds(
        &self,
        threshold_gbs: f64,
        n: usize,
        seed: u64,
    ) -> f64 {
        let samples = self.sample_nodes_stable(n, seed);
        samples
            .iter()
            .filter(|s| s.memory_bandwidth_gbs > threshold_gbs)
            .count() as f64
            / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<NodeUtilization> {
        ProductionDistributions::cori_haswell().sample_nodes_stable(50_000, 7)
    }

    #[test]
    fn p75_memory_capacity_matches_published_value() {
        let s = ProductionDistributions::summarize(&sample());
        assert!(
            (s.p75_memory_capacity - 0.174).abs() < 0.02,
            "75th pct memory capacity {} should be ~17.4%",
            s.p75_memory_capacity
        );
    }

    #[test]
    fn p75_memory_bandwidth_matches_published_value() {
        let s = ProductionDistributions::summarize(&sample());
        assert!(
            (s.p75_memory_bandwidth_gbs - 0.46).abs() < 0.06,
            "75th pct memory bandwidth {} should be ~0.46 GB/s",
            s.p75_memory_bandwidth_gbs
        );
    }

    #[test]
    fn median_core_usage_is_about_half() {
        let s = ProductionDistributions::summarize(&sample());
        assert!((s.median_core_fraction - 0.5).abs() < 0.03);
    }

    #[test]
    fn p75_nic_utilization_matches_published_value() {
        let s = ProductionDistributions::summarize(&sample());
        assert!(
            (s.p75_nic_fraction - 0.0125).abs() < 0.003,
            "75th pct NIC utilization {} should be ~1.25%",
            s.p75_nic_fraction
        );
    }

    #[test]
    fn direct_awgr_bandwidth_suffices_99_5_percent_of_the_time() {
        // 125 Gbps = 15.625 GB/s direct MCM-MCM bandwidth.
        let d = ProductionDistributions::cori_haswell();
        let p_exceed = d.probability_memory_bandwidth_exceeds(15.625, 100_000, 11);
        assert!(
            p_exceed < 0.005,
            "P(demand > 125 Gbps) = {p_exceed} should be < 0.5%"
        );
    }

    #[test]
    fn single_wavelength_suffices_about_97_percent_of_the_time() {
        // 25 Gbps = 3.125 GB/s.
        let d = ProductionDistributions::cori_haswell();
        let p_exceed = d.probability_memory_bandwidth_exceeds(3.125, 100_000, 13);
        assert!(
            p_exceed > 0.005 && p_exceed < 0.06,
            "P(demand > 25 Gbps) = {p_exceed} should be ~3%"
        );
    }

    #[test]
    fn samples_are_deterministic_given_seed() {
        let d = ProductionDistributions::cori_haswell();
        let a = d.sample_nodes_stable(100, 3);
        let b = d.sample_nodes_stable(100, 3);
        assert_eq!(a, b);
        let c = d.sample_nodes_stable(100, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn fractions_stay_in_valid_ranges() {
        for s in sample().iter().take(10_000) {
            assert!(s.memory_capacity_fraction >= 0.0 && s.memory_capacity_fraction <= 1.0);
            assert!(s.nic_fraction >= 0.0 && s.nic_fraction <= 1.0);
            assert!(s.core_fraction >= 0.0 && s.core_fraction <= 1.0);
            assert!(s.memory_bandwidth_gbs >= 0.0);
        }
    }

    #[test]
    fn summarize_empty_sample() {
        let s = ProductionDistributions::summarize(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.p75_memory_capacity, 0.0);
    }
}
