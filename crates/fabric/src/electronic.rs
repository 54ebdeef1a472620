//! Electronic-switch baselines (Section VI-D of the paper).
//!
//! The paper compares its photonic fabric (35 ns of additional
//! LLC-to-memory latency) against the best electronic alternatives:
//!
//! * a **four-hop tree of PCIe Gen5 switches** (~10 ns per hop on top of the
//!   common 35 ns FEC + propagation budget, 85 ns total) with only ~100
//!   lanes per switch and 32 Gbps per lane;
//! * a **single hop of the Anton 3 network** (~90 ns average, 29 Gbps per
//!   lane), which would need multiple hops to scale to a full rack;
//! * **Rosetta (Slingshot) or InfiniBand switches** with ≥200 ns per hop;
//! * recent small-group CXL prototypes reporting ≥142 ns.
//!
//! Electronic SERDES also caps per-wire signalling (~112 Gbps short-reach)
//! and loses reach as the rate grows, whereas co-packaged photonics reach
//! ~4 Tbps per mm of die shoreline — this is the bandwidth-density argument
//! for photonic disaggregation.

use photonics::units::{Bandwidth, Latency};
use std::fmt;

/// The electronic switch technologies the paper considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElectronicSwitchKind {
    /// Two-level tree of PCIe Gen5 switches (four hops end to end).
    PcieGen5Tree,
    /// One hop of the Anton 3 specialized network.
    Anton3,
    /// HPE Slingshot (Rosetta) switch.
    Rosetta,
    /// InfiniBand switch.
    Infiniband,
    /// Small-group CXL memory-pooling prototype (Pond-style).
    CxlPrototype,
}

impl fmt::Display for ElectronicSwitchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ElectronicSwitchKind::PcieGen5Tree => "PCIe Gen5 tree",
            ElectronicSwitchKind::Anton3 => "Anton 3",
            ElectronicSwitchKind::Rosetta => "Rosetta/Slingshot",
            ElectronicSwitchKind::Infiniband => "InfiniBand",
            ElectronicSwitchKind::CxlPrototype => "CXL prototype",
        };
        f.write_str(s)
    }
}

/// An electronic disaggregation fabric built from one of the switch kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectronicFabric {
    /// The switch technology.
    pub kind: ElectronicSwitchKind,
    /// Switch hops needed to connect the full rack.
    pub hops: u32,
    /// Per-hop switch traversal latency (ns).
    pub per_hop_latency_ns: f64,
    /// Common FEC + propagation budget shared with the photonic design (ns).
    pub base_latency_ns: f64,
    /// Per-lane signalling rate.
    pub lane_bandwidth: Bandwidth,
    /// Lanes connected per endpoint.
    pub lanes_per_endpoint: u32,
}

impl ElectronicFabric {
    /// The paper's primary electronic comparison point: a two-level tree of
    /// PCIe Gen5 switches (four hops), 85 ns of additional memory latency.
    pub fn pcie_gen5_tree() -> Self {
        ElectronicFabric {
            kind: ElectronicSwitchKind::PcieGen5Tree,
            hops: 4,
            // 4 hops x 10 ns on top of the 35 ns FEC + propagation budget +
            // serialization overheads: the paper rounds the total to 85 ns.
            per_hop_latency_ns: 12.5,
            base_latency_ns: 35.0,
            lane_bandwidth: Bandwidth::from_gbps(32.0),
            lanes_per_endpoint: 1,
        }
    }

    /// One hop of an Anton 3 style network (~90 ns average hop latency).
    pub fn anton3_single_hop() -> Self {
        ElectronicFabric {
            kind: ElectronicSwitchKind::Anton3,
            hops: 1,
            per_hop_latency_ns: 90.0,
            base_latency_ns: 0.0,
            lane_bandwidth: Bandwidth::from_gbps(29.0),
            lanes_per_endpoint: 1,
        }
    }

    /// A Rosetta (Slingshot) based fabric: at least 200 ns per hop.
    pub fn rosetta() -> Self {
        ElectronicFabric {
            kind: ElectronicSwitchKind::Rosetta,
            hops: 1,
            per_hop_latency_ns: 200.0,
            base_latency_ns: 0.0,
            lane_bandwidth: Bandwidth::from_gbps(200.0),
            lanes_per_endpoint: 1,
        }
    }

    /// An InfiniBand based fabric: at least 200 ns per hop.
    pub fn infiniband() -> Self {
        ElectronicFabric {
            kind: ElectronicSwitchKind::Infiniband,
            hops: 1,
            per_hop_latency_ns: 200.0,
            base_latency_ns: 0.0,
            lane_bandwidth: Bandwidth::from_gbps(200.0),
            lanes_per_endpoint: 1,
        }
    }

    /// A small-group CXL prototype (the paper cites a measured minimum of
    /// 142 ns).
    pub fn cxl_prototype() -> Self {
        ElectronicFabric {
            kind: ElectronicSwitchKind::CxlPrototype,
            hops: 1,
            per_hop_latency_ns: 142.0,
            base_latency_ns: 0.0,
            lane_bandwidth: Bandwidth::from_gbps(32.0),
            lanes_per_endpoint: 1,
        }
    }

    /// All baselines in the order the paper discusses them.
    pub fn all_baselines() -> Vec<ElectronicFabric> {
        vec![
            Self::pcie_gen5_tree(),
            Self::anton3_single_hop(),
            Self::rosetta(),
            Self::infiniband(),
            Self::cxl_prototype(),
        ]
    }

    /// Additional memory latency this fabric imposes for intra-rack
    /// disaggregation.
    pub fn added_memory_latency(&self) -> Latency {
        Latency::from_ns(self.base_latency_ns + self.hops as f64 * self.per_hop_latency_ns)
    }

    /// Per-endpoint bandwidth (lanes x lane rate).
    pub fn endpoint_bandwidth(&self) -> Bandwidth {
        self.lane_bandwidth * self.lanes_per_endpoint as f64
    }

    /// Ratio of the photonic MCM escape bandwidth to this fabric's
    /// per-endpoint bandwidth ("multiple times less than the per-chip
    /// bandwidth of our photonic architecture").
    pub fn bandwidth_deficit_vs(&self, photonic_escape: Bandwidth) -> f64 {
        photonic_escape / self.endpoint_bandwidth()
    }
}

/// The two latency comparison points of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyComparison {
    /// Photonic fabric's additional memory latency (ns).
    pub photonic_ns: f64,
    /// Best electronic fabric's additional memory latency (ns).
    pub electronic_ns: f64,
}

impl LatencyComparison {
    /// The paper's Fig. 12 comparison: 35 ns photonic vs 85 ns electronic.
    pub fn paper() -> Self {
        LatencyComparison {
            photonic_ns: 35.0,
            electronic_ns: 85.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_tree_adds_85_ns() {
        let f = ElectronicFabric::pcie_gen5_tree();
        assert!((f.added_memory_latency().ns() - 85.0).abs() < 1e-9);
        assert_eq!(f.hops, 4);
    }

    #[test]
    fn anton3_adds_about_90_ns() {
        let f = ElectronicFabric::anton3_single_hop();
        assert!((f.added_memory_latency().ns() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn rosetta_and_infiniband_are_much_slower() {
        for f in [ElectronicFabric::rosetta(), ElectronicFabric::infiniband()] {
            assert!(f.added_memory_latency().ns() >= 200.0);
        }
    }

    #[test]
    fn cxl_prototype_matches_measured_142_ns() {
        let f = ElectronicFabric::cxl_prototype();
        assert!((f.added_memory_latency().ns() - 142.0).abs() < 1e-9);
    }

    #[test]
    fn best_electronic_baseline_is_85_ns() {
        // The paper uses 85 ns as "currently the lowest latency for
        // electronic switches" in Fig. 12.
        let best = ElectronicFabric::all_baselines()
            .into_iter()
            .map(|f| f.added_memory_latency().ns())
            .fold(f64::INFINITY, f64::min);
        assert!((best - 85.0).abs() < 1e-9);
        assert_eq!(LatencyComparison::paper().electronic_ns, 85.0);
        assert_eq!(LatencyComparison::paper().photonic_ns, 35.0);
    }

    #[test]
    fn photonic_escape_bandwidth_dwarfs_electronic_endpoint_bandwidth() {
        let photonic = Bandwidth::from_tbytes_per_s(6.4);
        for f in ElectronicFabric::all_baselines() {
            let deficit = f.bandwidth_deficit_vs(photonic);
            assert!(
                deficit > 100.0,
                "{}: photonic escape should be >100x the endpoint bandwidth, got {deficit:.0}x",
                f.kind
            );
        }
    }

    #[test]
    fn all_baselines_enumerated() {
        assert_eq!(ElectronicFabric::all_baselines().len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            ElectronicSwitchKind::PcieGen5Tree.to_string(),
            "PCIe Gen5 tree"
        );
        assert_eq!(ElectronicSwitchKind::Anton3.to_string(), "Anton 3");
    }
}
