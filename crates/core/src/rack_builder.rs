//! The [`DisaggregatedRack`] façade: the object a downstream user builds
//! first. It combines the MCM composition (Table III), the optical fabric
//! (Section V-B), the photonic latency budget (Section III-C2), and the
//! power model (Section VI-C) into one place.

use fabric::rackfabric::{FabricKind, FabricReport, RackFabric, RackFabricConfig};
use photonics::dwdm::{DwdmLink, DwdmLinkBuilder};
use photonics::units::Latency;
use rack::mcm::RackComposition;
use rack::node::BaselineRack;
use rack::power::RackPowerModel;
use serde::{Deserialize, Serialize};

/// A photonically-disaggregated HPC rack.
#[derive(Debug, Clone)]
pub struct DisaggregatedRack {
    /// The baseline rack being disaggregated.
    pub baseline: BaselineRack,
    /// The MCM composition (Table III).
    pub composition: RackComposition,
    /// The optical fabric connecting the MCMs.
    pub fabric: RackFabric,
    /// The DWDM link model used between MCMs.
    pub link: DwdmLink,
    /// The rack power model.
    pub power: RackPowerModel,
}

/// A compact, serializable summary of the rack's headline properties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackSummary {
    /// Total MCMs (the paper's 350).
    pub total_mcms: u32,
    /// Total chips packed into those MCMs.
    pub total_chips: u32,
    /// Escape bandwidth per MCM in GB/s.
    pub mcm_escape_gbs: f64,
    /// Fabric connectivity report.
    pub fabric: FabricReport,
    /// Additional LLC-to-memory latency of the photonic fabric (ns).
    pub disaggregation_latency_ns: f64,
    /// Photonic power (W).
    pub photonic_power_w: f64,
    /// Photonic power overhead vs the rack's compute/memory power (%).
    pub photonic_overhead_percent: f64,
}

impl DisaggregatedRack {
    /// Build the paper's rack with the given fabric kind.
    pub fn paper(kind: FabricKind) -> Self {
        let baseline = BaselineRack::paper_rack();
        let composition = RackComposition::paper_rack();
        let fabric = RackFabric::new(RackFabricConfig::paper_rack(kind));
        let link = DwdmLinkBuilder::new().build();
        let power = RackPowerModel::paper_rack();
        DisaggregatedRack {
            baseline,
            composition,
            fabric,
            link,
            power,
        }
    }

    /// The paper's preferred case (A): six parallel cascaded AWGRs.
    pub fn paper_awgr() -> Self {
        Self::paper(FabricKind::ParallelAwgrs)
    }

    /// The additional LLC-to-memory latency the photonic fabric imposes.
    pub fn disaggregation_latency(&self) -> Latency {
        self.link.disaggregation_latency()
    }

    /// Summarize the rack.
    pub fn summary(&self) -> RackSummary {
        let overhead = self.power.photonic_overhead();
        RackSummary {
            total_mcms: self.composition.total_mcms(),
            total_chips: self.composition.total_chips(),
            mcm_escape_gbs: self.composition.mcm_escape.gbytes_per_s(),
            fabric: self.fabric.report(),
            disaggregation_latency_ns: self.disaggregation_latency().ns(),
            photonic_power_w: overhead.photonic_power_w,
            photonic_overhead_percent: overhead.overhead_percent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_awgr_rack_summary_matches_headline_numbers() {
        let rack = DisaggregatedRack::paper_awgr();
        let s = rack.summary();
        assert_eq!(s.total_mcms, 350);
        assert!((s.mcm_escape_gbs - 6400.0).abs() < 1e-6);
        assert_eq!(s.fabric.min_direct_wavelengths, 5);
        assert!((s.fabric.min_direct_bandwidth_gbps - 125.0).abs() < 1e-9);
        assert!(!s.fabric.needs_scheduler);
        assert!(s.disaggregation_latency_ns >= 34.0 && s.disaggregation_latency_ns <= 38.0);
        assert!(s.photonic_overhead_percent > 4.0 && s.photonic_overhead_percent < 6.0);
    }

    #[test]
    fn wave_selective_rack_needs_scheduler() {
        let rack = DisaggregatedRack::paper(FabricKind::WaveSelective);
        let s = rack.summary();
        assert!(s.fabric.needs_scheduler);
        assert!(s.fabric.min_direct_wavelengths >= 3 * 256);
        assert_eq!(s.total_mcms, 350);
    }
}
