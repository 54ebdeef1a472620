//! Analytical results: Tables I–IV, the Fig. 5 connectivity property, the
//! BER/FEC analysis, the power overhead, the bandwidth-sufficiency study,
//! and the iso-performance comparison — everything in the paper's evaluation
//! that does not require running the CPU/GPU simulators.

use fabric::electronic::ElectronicFabric;
use fabric::rackfabric::{FabricKind, FabricReport, RackFabric, RackFabricConfig};
use photonics::fec::LinkErrorModel;
use photonics::link::EscapeSizing;
use photonics::power::RackPhotonicPower;
use photonics::switch::{OpticalSwitch, SwitchConfig};
use rack::bandwidth::{BandwidthSufficiency, GpuBandwidthBudget};
use rack::isoperf::IsoPerformanceAnalysis;
use rack::mcm::RackComposition;
use rack::power::RackPowerModel;
use serde::{Deserialize, Serialize};

/// All the analytical (non-simulation) results in one struct.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackAnalysis {
    /// Table I rows: link technologies sized for a 2 TB/s escape target.
    pub table_i: Vec<EscapeSizing>,
    /// Table II rows: the photonic switch catalogue.
    pub table_ii: Vec<OpticalSwitch>,
    /// Table III: the MCM composition.
    pub table_iii: RackComposition,
    /// Table IV: the switch configurations used in the study.
    pub table_iv: Vec<SwitchConfig>,
    /// Fig. 5 property: connectivity report of the AWGR fabric.
    pub awgr_connectivity: FabricReport,
    /// Connectivity report of the wave-selective fabric.
    pub wave_selective_connectivity: FabricReport,
    /// Section III-C3: the FEC/BER outcome at the nominal operating point.
    pub fec_meets_memory_ber: bool,
    /// Section VI-C: photonic power overhead.
    pub power: RackPhotonicPower,
    /// Section VI-A1: bandwidth sufficiency probabilities.
    pub bandwidth: BandwidthSufficiency,
    /// Section VI-A1: the GPU bandwidth budget.
    pub gpu_budget: GpuBandwidthBudget,
    /// Section VI-E: iso-performance resource counts.
    pub iso_performance: IsoPerformanceAnalysis,
    /// Section VI-D: electronic baselines and their added latency (ns).
    pub electronic_baselines: Vec<(String, f64)>,
}

impl RackAnalysis {
    /// Run the full analytical evaluation with the paper's parameters.
    pub fn paper() -> Self {
        let awgr = RackFabric::new(RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs));
        let wss = RackFabric::new(RackFabricConfig::paper_rack(FabricKind::WaveSelective));
        RackAnalysis {
            table_i: EscapeSizing::table_i_rows(),
            table_ii: OpticalSwitch::table_ii(),
            table_iii: RackComposition::paper_rack(),
            table_iv: SwitchConfig::ALL.to_vec(),
            awgr_connectivity: awgr.report(),
            wave_selective_connectivity: wss.report(),
            fec_meets_memory_ber: LinkErrorModel::paper_nominal()
                .meets_ber_target(LinkErrorModel::MEMORY_BER_TARGET),
            power: RackPowerModel::paper_rack().photonic_overhead(),
            bandwidth: BandwidthSufficiency::paper(100_000, 0xBEEF),
            gpu_budget: GpuBandwidthBudget::paper_awgr(),
            iso_performance: IsoPerformanceAnalysis::paper(),
            electronic_baselines: ElectronicFabric::all_baselines()
                .into_iter()
                .map(|f| (f.kind.to_string(), f.added_memory_latency().ns()))
                .collect(),
        }
    }

    /// The headline claims of the paper, as a list of (claim, holds) pairs —
    /// used by integration tests and the quickstart example to show at a
    /// glance which qualitative results reproduce.
    pub fn headline_claims(&self) -> Vec<(String, bool)> {
        vec![
            (
                "rack fits in 350 MCMs (Table III)".to_string(),
                self.table_iii.total_mcms() == 350,
            ),
            (
                ">=5 direct wavelengths (125 Gbps) between any MCM pair".to_string(),
                self.awgr_connectivity.min_direct_wavelengths >= 5,
            ),
            (
                "AWGR fabric needs no reconfiguration scheduler".to_string(),
                !self.awgr_connectivity.needs_scheduler,
            ),
            (
                "FEC-protected links meet the 1e-18 memory BER target".to_string(),
                self.fec_meets_memory_ber,
            ),
            (
                "photonic power overhead is ~5%".to_string(),
                self.power.overhead_percent() > 3.0 && self.power.overhead_percent() < 7.0,
            ),
            (
                "direct 125 Gbps suffices >99.5% of the time".to_string(),
                self.bandwidth.direct_125gbps_sufficient > 0.995,
            ),
            (
                "GPU indirect bandwidth covers HBM + GPU-GPU traffic".to_string(),
                self.gpu_budget.satisfies_all_demand(),
            ),
            (
                "iso-performance rack has ~44% fewer chips".to_string(),
                self.iso_performance.chip_reduction() > 0.40
                    && self.iso_performance.chip_reduction() < 0.48,
            ),
            (
                "best electronic baseline adds 85 ns (vs 35 ns photonic)".to_string(),
                self.electronic_baselines
                    .iter()
                    .map(|(_, ns)| *ns)
                    .fold(f64::INFINITY, f64::min)
                    == 85.0,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_headline_claims_hold() {
        let analysis = RackAnalysis::paper();
        for (claim, holds) in analysis.headline_claims() {
            assert!(holds, "claim failed: {claim}");
        }
    }

    #[test]
    fn tables_have_expected_row_counts() {
        let a = RackAnalysis::paper();
        assert_eq!(a.table_i.len(), 5);
        assert_eq!(a.table_ii.len(), 5);
        assert_eq!(a.table_iii.packings.len(), 5);
        assert_eq!(a.table_iv.len(), 3);
        assert_eq!(a.electronic_baselines.len(), 5);
    }

    #[test]
    fn wave_selective_connectivity_differs_from_awgr() {
        let a = RackAnalysis::paper();
        assert!(a.wave_selective_connectivity.needs_scheduler);
        assert!(!a.awgr_connectivity.needs_scheduler);
        assert!(
            a.wave_selective_connectivity.min_direct_wavelengths
                > a.awgr_connectivity.min_direct_wavelengths
        );
    }
}
