//! Iso-performance provisioning analysis (Section VI-E of the paper).
//!
//! Because the disaggregated rack adds memory latency, preserving the
//! baseline rack's *average computational throughput* requires slightly more
//! compute: the paper estimates **+15% CPUs** (the in-order worst case) and
//! **+6% GPUs**. In exchange, disaggregation lets the rack be provisioned
//! for observed utilization instead of worst-case per-node demand:
//! **4x fewer memory modules** and **2x fewer NICs** (from the production
//! utilization analysis). The net effect is ≈44% fewer chips at equal
//! throughput. Alternatively, keeping every baseline resource and adding 128
//! CPU/GPU packages (≈7% more chips) doubles the rack's computational
//! throughput.

use crate::chips::ChipKind;
use crate::node::BaselineRack;

/// Inputs to the iso-performance analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoPerformanceInputs {
    /// Average CPU slowdown from the added latency (fraction, e.g. 0.15 for
    /// the in-order average of Fig. 6).
    pub cpu_slowdown: f64,
    /// Average GPU slowdown from the added latency (fraction, e.g. 0.06).
    pub gpu_slowdown: f64,
    /// Memory-module reduction factor enabled by pooling (the paper uses 4x,
    /// from the production utilization study).
    pub memory_reduction_factor: f64,
    /// NIC reduction factor enabled by pooling (2x).
    pub nic_reduction_factor: f64,
}

impl IsoPerformanceInputs {
    /// The paper's inputs: 15% CPU slowdown (in-order worst case), 6% GPU
    /// slowdown, 4x memory reduction, 2x NIC reduction.
    pub fn paper() -> Self {
        IsoPerformanceInputs {
            cpu_slowdown: 0.15,
            gpu_slowdown: 0.06,
            memory_reduction_factor: 4.0,
            nic_reduction_factor: 2.0,
        }
    }
}

/// Per-chip-type resource counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceCounts {
    /// CPUs.
    pub cpus: u32,
    /// GPUs.
    pub gpus: u32,
    /// HBM stacks.
    pub hbm_stacks: u32,
    /// NICs.
    pub nics: u32,
    /// DDR4 modules.
    pub ddr4_modules: u32,
}

impl ResourceCounts {
    /// Counts of the baseline rack.
    pub fn of_baseline(rack: &BaselineRack) -> Self {
        ResourceCounts {
            cpus: rack.chips(ChipKind::Cpu),
            gpus: rack.chips(ChipKind::Gpu),
            hbm_stacks: rack.chips(ChipKind::Hbm),
            nics: rack.chips(ChipKind::Nic),
            ddr4_modules: rack.chips(ChipKind::Ddr4),
        }
    }

    /// Total modules. HBM stacks are co-packaged with their GPU (they are
    /// part of the GPU package in both the baseline node and the GPU MCM),
    /// so they are not counted as separate modules here — matching the
    /// paper's module accounting.
    pub fn total(&self) -> u32 {
        self.cpus + self.gpus + self.nics + self.ddr4_modules
    }
}

/// The iso-performance analysis and its derived quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoPerformanceAnalysis {
    /// Analysis inputs.
    pub inputs: IsoPerformanceInputs,
    /// Baseline rack resource counts.
    pub baseline: ResourceCounts,
    /// Disaggregated rack resource counts at equal throughput.
    pub disaggregated: ResourceCounts,
}

impl IsoPerformanceAnalysis {
    /// Run the analysis for a baseline rack.
    pub fn analyze(rack: &BaselineRack, inputs: IsoPerformanceInputs) -> Self {
        let baseline = ResourceCounts::of_baseline(rack);
        // Preserve throughput: each CPU/GPU delivers 1/(1+slowdown) of its
        // baseline throughput, so the count must grow by (1+slowdown).
        let cpus = ((baseline.cpus as f64) * (1.0 + inputs.cpu_slowdown)).ceil() as u32;
        let gpus = ((baseline.gpus as f64) * (1.0 + inputs.gpu_slowdown)).ceil() as u32;
        // Each GPU keeps its HBM stack.
        let hbm_stacks = gpus;
        // Pooling shrinks memory and NIC counts by the observed utilization
        // headroom.
        let ddr4_modules =
            ((baseline.ddr4_modules as f64) / inputs.memory_reduction_factor).ceil() as u32;
        let nics = ((baseline.nics as f64) / inputs.nic_reduction_factor).ceil() as u32;
        IsoPerformanceAnalysis {
            inputs,
            baseline,
            disaggregated: ResourceCounts {
                cpus,
                gpus,
                hbm_stacks,
                nics,
                ddr4_modules,
            },
        }
    }

    /// The paper's analysis on the paper's rack.
    pub fn paper() -> Self {
        Self::analyze(&BaselineRack::paper_rack(), IsoPerformanceInputs::paper())
    }

    /// Fractional reduction in total chips (0.44 ≈ the paper's 44%).
    pub fn chip_reduction(&self) -> f64 {
        1.0 - self.disaggregated.total() as f64 / self.baseline.total() as f64
    }

    /// Additional CPUs+GPUs relative to the baseline (provisioning for
    /// iso-performance).
    pub fn extra_compute_chips(&self) -> u32 {
        (self.disaggregated.cpus + self.disaggregated.gpus)
            .saturating_sub(self.baseline.cpus + self.baseline.gpus)
    }

    /// The alternative of Section VI-E: keep every baseline resource and add
    /// `extra_packages` CPU/GPU packages (with their HBM where applicable).
    /// Returns (chip-count increase fraction, throughput multiplier).
    pub fn throughput_doubling_alternative(&self, extra_packages: u32) -> (f64, f64) {
        let baseline_total = self.baseline.total() as f64;
        // Each added package brings one compute die and (for GPUs) an HBM
        // stack; following the paper we count the package plus HBM as ~2
        // chips for GPUs and 1 for CPUs, averaged here as 1.5.
        let added_chips = extra_packages as f64 * 1.5;
        let increase = added_chips / baseline_total;
        // 128 nodes' worth of extra compute over 128 nodes of baseline
        // compute doubles throughput when the additions match the baseline
        // node mix.
        let baseline_compute = (self.baseline.cpus + self.baseline.gpus) as f64;
        let throughput =
            1.0 + extra_packages as f64 * (baseline_compute / 128.0) / baseline_compute;
        (increase, throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_counts_match_rack() {
        let b = ResourceCounts::of_baseline(&BaselineRack::paper_rack());
        assert_eq!(b.cpus, 128);
        assert_eq!(b.gpus, 512);
        assert_eq!(b.hbm_stacks, 512);
        assert_eq!(b.nics, 512);
        assert_eq!(b.ddr4_modules, 1024);
        // Modules: HBM counted with its GPU package.
        assert_eq!(b.total(), 2176);
    }

    #[test]
    fn disaggregated_rack_needs_more_compute_but_fewer_chips() {
        let a = IsoPerformanceAnalysis::paper();
        // +15% CPUs and +6% GPUs.
        assert_eq!(a.disaggregated.cpus, 148);
        assert_eq!(a.disaggregated.gpus, 543);
        // 4x fewer memory modules, 2x fewer NICs.
        assert_eq!(a.disaggregated.ddr4_modules, 256);
        assert_eq!(a.disaggregated.nics, 256);
    }

    #[test]
    fn chip_reduction_is_about_44_percent() {
        let a = IsoPerformanceAnalysis::paper();
        let r = a.chip_reduction();
        assert!(
            r > 0.40 && r < 0.48,
            "chip reduction {r:.3} should be close to the paper's ~44%"
        );
    }

    #[test]
    fn extra_compute_chips_are_modest() {
        let a = IsoPerformanceAnalysis::paper();
        // 20 extra CPUs + 31 extra GPUs.
        assert_eq!(a.extra_compute_chips(), 51);
    }

    #[test]
    fn throughput_doubling_alternative_is_about_7_percent_more_chips() {
        let a = IsoPerformanceAnalysis::paper();
        let (increase, throughput) = a.throughput_doubling_alternative(128);
        assert!(
            increase > 0.05 && increase < 0.1,
            "chip increase {increase:.3} should be ~7%"
        );
        assert!((throughput - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_slowdown_needs_no_extra_compute() {
        let inputs = IsoPerformanceInputs {
            cpu_slowdown: 0.0,
            gpu_slowdown: 0.0,
            memory_reduction_factor: 4.0,
            nic_reduction_factor: 2.0,
        };
        let a = IsoPerformanceAnalysis::analyze(&BaselineRack::paper_rack(), inputs);
        assert_eq!(a.extra_compute_chips(), 0);
        assert!(a.chip_reduction() > 0.4);
    }

    #[test]
    fn no_pooling_means_no_reduction() {
        let inputs = IsoPerformanceInputs {
            cpu_slowdown: 0.0,
            gpu_slowdown: 0.0,
            memory_reduction_factor: 1.0,
            nic_reduction_factor: 1.0,
        };
        let a = IsoPerformanceAnalysis::analyze(&BaselineRack::paper_rack(), inputs);
        assert!(a.chip_reduction().abs() < 1e-9);
    }

    #[test]
    fn bigger_slowdowns_reduce_the_savings() {
        let mut inputs = IsoPerformanceInputs::paper();
        let base = IsoPerformanceAnalysis::analyze(&BaselineRack::paper_rack(), inputs);
        inputs.cpu_slowdown = 0.5;
        inputs.gpu_slowdown = 0.5;
        let worse = IsoPerformanceAnalysis::analyze(&BaselineRack::paper_rack(), inputs);
        assert!(worse.chip_reduction() < base.chip_reduction());
    }
}
