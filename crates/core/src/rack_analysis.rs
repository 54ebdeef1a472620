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

    /// Serialize the full analysis to single-line JSON. Enum-like fields
    /// (technologies, switch kinds, chip kinds) are written as their display
    /// labels; units are flattened to the suffix named in each key.
    pub fn to_json(&self) -> String {
        use crate::report::{json_number, json_string};
        let mut out = String::with_capacity(4096);

        out.push_str("{\"table_i\":[");
        for (i, row) in self.table_i.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"technology\":");
            json_string(&mut out, &row.technology.kind.to_string());
            out.push_str(",\"link_bandwidth_gbps\":");
            json_number(&mut out, row.technology.bandwidth.gbps());
            out.push_str(",\"energy_per_bit_pj\":");
            json_number(&mut out, row.technology.energy_per_bit.pj());
            out.push_str(",\"escape_target_gbps\":");
            json_number(&mut out, row.escape_target.gbps());
            out.push_str(",\"links\":");
            out.push_str(&row.links.to_string());
            out.push_str(",\"aggregate_power_w\":");
            json_number(&mut out, row.aggregate_power_w);
            out.push('}');
        }

        out.push_str("],\"table_ii\":[");
        for (i, sw) in self.table_ii.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_switch(&mut out, sw);
        }

        out.push_str("],\"table_iii\":{\"mcm_escape_gbs\":");
        json_number(&mut out, self.table_iii.mcm_escape.gbytes_per_s());
        out.push_str(",\"packings\":[");
        for (i, p) in self.table_iii.packings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":");
            json_string(&mut out, &p.kind.to_string());
            out.push_str(",\"chips_per_mcm\":");
            out.push_str(&p.chips_per_mcm.to_string());
            out.push_str(",\"mcms_per_rack\":");
            out.push_str(&p.mcms_per_rack.to_string());
            out.push_str(",\"total_chips\":");
            out.push_str(&p.total_chips.to_string());
            out.push_str(",\"escape_per_chip_gbs\":");
            json_number(&mut out, p.escape_per_chip.gbytes_per_s());
            out.push('}');
        }

        out.push_str("]},\"table_iv\":[");
        for (i, config) in self.table_iv.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"config\":");
            json_string(&mut out, &config.to_string());
            out.push_str(",\"device\":");
            write_switch(&mut out, &config.device());
            out.push('}');
        }

        out.push_str("],\"awgr_connectivity\":");
        write_fabric_report(&mut out, &self.awgr_connectivity);
        out.push_str(",\"wave_selective_connectivity\":");
        write_fabric_report(&mut out, &self.wave_selective_connectivity);

        out.push_str(",\"fec_meets_memory_ber\":");
        out.push_str(if self.fec_meets_memory_ber {
            "true"
        } else {
            "false"
        });

        out.push_str(",\"power\":{\"transceiver_power_w\":");
        json_number(&mut out, self.power.transceiver_power_w);
        out.push_str(",\"switch_power_w\":");
        json_number(&mut out, self.power.switch_power_w);
        out.push_str(",\"photonic_power_w\":");
        json_number(&mut out, self.power.photonic_power_w);
        out.push_str(",\"baseline_rack_power_w\":");
        json_number(&mut out, self.power.baseline_rack_power_w);
        out.push_str(",\"overhead_percent\":");
        json_number(&mut out, self.power.overhead_percent());

        out.push_str("},\"bandwidth\":{\"direct_125gbps_sufficient\":");
        json_number(&mut out, self.bandwidth.direct_125gbps_sufficient);
        out.push_str(",\"single_wavelength_sufficient\":");
        json_number(&mut out, self.bandwidth.single_wavelength_sufficient);
        out.push_str(",\"samples\":");
        out.push_str(&self.bandwidth.samples.to_string());

        out.push_str("},\"gpu_budget\":{\"indirect_reach_gbs\":");
        json_number(&mut out, self.gpu_budget.indirect_reach_gbs);
        out.push_str(",\"hbm_demand_gbs\":");
        json_number(&mut out, self.gpu_budget.hbm_demand_gbs);
        out.push_str(",\"gpu_to_gpu_demand_gbs\":");
        json_number(&mut out, self.gpu_budget.gpu_to_gpu_demand_gbs);
        out.push_str(",\"headroom_after_hbm_gbs\":");
        json_number(&mut out, self.gpu_budget.headroom_after_hbm_gbs);
        out.push_str(",\"headroom_after_gpu_traffic_gbs\":");
        json_number(&mut out, self.gpu_budget.headroom_after_gpu_traffic_gbs);

        out.push_str("},\"iso_performance\":{\"inputs\":{\"cpu_slowdown\":");
        json_number(&mut out, self.iso_performance.inputs.cpu_slowdown);
        out.push_str(",\"gpu_slowdown\":");
        json_number(&mut out, self.iso_performance.inputs.gpu_slowdown);
        out.push_str(",\"memory_reduction_factor\":");
        json_number(
            &mut out,
            self.iso_performance.inputs.memory_reduction_factor,
        );
        out.push_str(",\"nic_reduction_factor\":");
        json_number(&mut out, self.iso_performance.inputs.nic_reduction_factor);
        out.push_str("},\"baseline\":");
        write_resource_counts(&mut out, &self.iso_performance.baseline);
        out.push_str(",\"disaggregated\":");
        write_resource_counts(&mut out, &self.iso_performance.disaggregated);
        out.push_str(",\"chip_reduction\":");
        json_number(&mut out, self.iso_performance.chip_reduction());

        out.push_str("},\"electronic_baselines\":[");
        for (i, (name, latency_ns)) in self.electronic_baselines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, name);
            out.push_str(",\"added_latency_ns\":");
            json_number(&mut out, *latency_ns);
            out.push('}');
        }
        out.push_str("]}");
        out
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

/// One Table II/IV switch as a JSON object.
fn write_switch(out: &mut String, sw: &OpticalSwitch) {
    use crate::report::{json_number, json_string};
    out.push_str("{\"kind\":");
    json_string(out, &sw.kind.to_string());
    out.push_str(",\"radix\":");
    out.push_str(&sw.radix.to_string());
    out.push_str(",\"wavelengths_per_port\":");
    out.push_str(&sw.wavelengths_per_port.to_string());
    out.push_str(",\"channel_bandwidth_gbps\":");
    json_number(out, sw.channel_bandwidth.gbps());
    out.push_str(",\"insertion_loss_db\":");
    json_number(out, sw.insertion_loss.db());
    out.push_str(",\"crosstalk_db\":");
    json_number(out, sw.crosstalk.db());
    out.push_str(",\"reconfiguration_time_ns\":");
    json_number(out, sw.reconfiguration_time.ns());
    out.push('}');
}

/// A fabric connectivity report as a JSON object (same shape as the
/// `fabric` object inside [`RackSummary::to_json`](crate::RackSummary)).
fn write_fabric_report(out: &mut String, report: &FabricReport) {
    use crate::report::{json_number, json_string};
    out.push_str("{\"kind\":");
    json_string(out, report.kind.label());
    out.push_str(",\"planes\":");
    out.push_str(&report.planes.to_string());
    out.push_str(",\"min_direct_wavelengths\":");
    out.push_str(&report.min_direct_wavelengths.to_string());
    out.push_str(",\"max_direct_wavelengths\":");
    out.push_str(&report.max_direct_wavelengths.to_string());
    out.push_str(",\"min_direct_bandwidth_gbps\":");
    json_number(out, report.min_direct_bandwidth_gbps);
    out.push_str(",\"escape_bandwidth_gbps\":");
    json_number(out, report.escape_bandwidth_gbps);
    out.push_str(",\"needs_scheduler\":");
    out.push_str(if report.needs_scheduler {
        "true"
    } else {
        "false"
    });
    out.push('}');
}

/// Iso-performance resource counts as a JSON object.
fn write_resource_counts(out: &mut String, counts: &rack::isoperf::ResourceCounts) {
    out.push_str("{\"cpus\":");
    out.push_str(&counts.cpus.to_string());
    out.push_str(",\"gpus\":");
    out.push_str(&counts.gpus.to_string());
    out.push_str(",\"hbm_stacks\":");
    out.push_str(&counts.hbm_stacks.to_string());
    out.push_str(",\"nics\":");
    out.push_str(&counts.nics.to_string());
    out.push_str(",\"ddr4_modules\":");
    out.push_str(&counts.ddr4_modules.to_string());
    out.push('}');
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
    fn analysis_serializes_to_json() {
        let a = RackAnalysis::paper();
        let json = a.to_json();
        assert!(json.contains("table_iii"));
        assert!(json.contains("iso_performance"));
        // The output is well-formed JSON and the tables survive the trip.
        let value = serde::json::parse(&json).unwrap();
        let packings = value
            .get("table_iii")
            .and_then(|t| t.get("packings"))
            .and_then(|p| p.as_array())
            .unwrap();
        assert_eq!(packings.len(), 5);
        assert_eq!(
            value
                .get("awgr_connectivity")
                .and_then(|c| c.get("kind"))
                .and_then(|k| k.as_str()),
            Some("awgr")
        );
        assert_eq!(
            value
                .get("table_iv")
                .and_then(|t| t.as_array())
                .map(<[_]>::len),
            Some(3)
        );
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
