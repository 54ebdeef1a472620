//! MCM packing: Table III of the paper.
//!
//! All MCMs share the same escape bandwidth (32 fibers x 64 wavelengths x
//! 25 Gbps = 6.4 TB/s) and hold chips of a single type. The number of chips
//! per MCM is chosen so that every chip keeps the escape bandwidth it
//! enjoyed in the baseline node; the number of MCMs per rack then follows
//! from the rack's total chip count of that type.

use crate::chips::{ChipKind, ChipSpec};
use crate::node::BaselineRack;
use photonics::units::Bandwidth;
use std::fmt;

/// Packing of one chip type into MCMs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McmPacking {
    /// Chip type.
    pub kind: ChipKind,
    /// Chips of this type in one MCM.
    pub chips_per_mcm: u32,
    /// MCMs of this type in the rack.
    pub mcms_per_rack: u32,
    /// Total chips of this type in the rack.
    pub total_chips: u32,
    /// Escape bandwidth each chip receives on the MCM.
    pub escape_per_chip: Bandwidth,
}

impl McmPacking {
    /// Pack `total_chips` chips of the given spec into MCMs with
    /// `mcm_escape` escape bandwidth each.
    pub fn pack(spec: &ChipSpec, total_chips: u32, mcm_escape: Bandwidth) -> Self {
        let by_bandwidth = (mcm_escape.bps() / spec.escape_bandwidth.bps()).floor() as u32;
        let chips_per_mcm = spec
            .max_per_mcm
            .map_or(by_bandwidth, |limit| by_bandwidth.min(limit))
            .max(1);
        let mcms_per_rack = total_chips.div_ceil(chips_per_mcm);
        McmPacking {
            kind: spec.kind,
            chips_per_mcm,
            mcms_per_rack,
            total_chips,
            escape_per_chip: mcm_escape / chips_per_mcm as f64,
        }
    }

    /// True if every chip keeps at least its baseline escape bandwidth.
    pub fn preserves_escape_bandwidth(&self, spec: &ChipSpec) -> bool {
        self.escape_per_chip.bps() + 1e-6 >= spec.escape_bandwidth.bps()
    }
}

impl fmt::Display for McmPacking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<5} {:>4} chips/MCM  {:>4} MCMs  ({} chips, {:.0} GB/s per chip)",
            self.kind.to_string(),
            self.chips_per_mcm,
            self.mcms_per_rack,
            self.total_chips,
            self.escape_per_chip.gbytes_per_s()
        )
    }
}

/// The full disaggregated rack composition: one packing per chip type.
#[derive(Debug, Clone, PartialEq)]
pub struct RackComposition {
    /// Escape bandwidth of each MCM.
    pub mcm_escape: Bandwidth,
    /// Per-chip-type packings, in Table III order.
    pub packings: Vec<McmPacking>,
}

impl RackComposition {
    /// The paper's per-MCM escape bandwidth: 32 fibers x 64 wavelengths x
    /// 25 Gbps = 6.4 TB/s.
    pub fn paper_mcm_escape() -> Bandwidth {
        Bandwidth::from_gbps(25.0) * (32 * 64) as f64
    }

    /// Build the composition for a baseline rack (Table III).
    pub fn from_baseline(rack: &BaselineRack, mcm_escape: Bandwidth) -> Self {
        let packings = ChipSpec::all_baseline()
            .into_iter()
            .map(|spec| McmPacking::pack(&spec, rack.chips(spec.kind), mcm_escape))
            .collect();
        RackComposition {
            mcm_escape,
            packings,
        }
    }

    /// The paper's Table III composition.
    pub fn paper_rack() -> Self {
        Self::from_baseline(&BaselineRack::paper_rack(), Self::paper_mcm_escape())
    }

    /// Total MCMs in the rack.
    pub fn total_mcms(&self) -> u32 {
        self.packings.iter().map(|p| p.mcms_per_rack).sum()
    }

    /// The packing for one chip kind.
    pub fn packing(&self, kind: ChipKind) -> Option<&McmPacking> {
        self.packings.iter().find(|p| p.kind == kind)
    }

    /// Total chips across all types.
    pub fn total_chips(&self) -> u32 {
        self.packings.iter().map(|p| p.total_chips).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mcm_escape_is_6_4_tbytes() {
        assert!((RackComposition::paper_mcm_escape().tbytes_per_s() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn table_iii_chips_per_mcm() {
        let c = RackComposition::paper_rack();
        assert_eq!(c.packing(ChipKind::Cpu).unwrap().chips_per_mcm, 14);
        assert_eq!(c.packing(ChipKind::Gpu).unwrap().chips_per_mcm, 3);
        assert_eq!(c.packing(ChipKind::Nic).unwrap().chips_per_mcm, 203);
        assert_eq!(c.packing(ChipKind::Hbm).unwrap().chips_per_mcm, 4);
        assert_eq!(c.packing(ChipKind::Ddr4).unwrap().chips_per_mcm, 27);
    }

    #[test]
    fn table_iii_mcms_per_rack() {
        let c = RackComposition::paper_rack();
        assert_eq!(c.packing(ChipKind::Cpu).unwrap().mcms_per_rack, 10);
        assert_eq!(c.packing(ChipKind::Gpu).unwrap().mcms_per_rack, 171);
        assert_eq!(c.packing(ChipKind::Nic).unwrap().mcms_per_rack, 3);
        assert_eq!(c.packing(ChipKind::Hbm).unwrap().mcms_per_rack, 128);
        assert_eq!(c.packing(ChipKind::Ddr4).unwrap().mcms_per_rack, 38);
    }

    #[test]
    fn table_iii_total_is_350_mcms() {
        assert_eq!(RackComposition::paper_rack().total_mcms(), 350);
    }

    #[test]
    fn escape_bandwidth_preserved_for_every_chip_type() {
        let c = RackComposition::paper_rack();
        for spec in ChipSpec::all_baseline() {
            let p = c.packing(spec.kind).unwrap();
            assert!(
                p.preserves_escape_bandwidth(&spec),
                "{}: {} GB/s per chip < baseline {} GB/s",
                spec.kind,
                p.escape_per_chip.gbytes_per_s(),
                spec.escape_bandwidth.gbytes_per_s()
            );
        }
    }

    #[test]
    fn total_chips_matches_baseline_rack() {
        let c = RackComposition::paper_rack();
        assert_eq!(c.total_chips(), 2688);
    }

    #[test]
    fn packing_respects_packaging_limit() {
        let spec = ChipSpec::baseline(ChipKind::Ddr4);
        let p = McmPacking::pack(&spec, 1024, RackComposition::paper_mcm_escape());
        assert_eq!(p.chips_per_mcm, 27);
        // Without the limit, bandwidth alone would allow 250 DIMMs.
        let mut unconstrained = spec;
        unconstrained.max_per_mcm = None;
        let p2 = McmPacking::pack(&unconstrained, 1024, RackComposition::paper_mcm_escape());
        assert_eq!(p2.chips_per_mcm, 250);
    }

    #[test]
    fn packing_never_zero_chips() {
        // A chip demanding more than the MCM escape still gets one per MCM.
        let mut spec = ChipSpec::baseline(ChipKind::Gpu);
        spec.escape_bandwidth = Bandwidth::from_tbytes_per_s(100.0);
        let p = McmPacking::pack(&spec, 10, RackComposition::paper_mcm_escape());
        assert_eq!(p.chips_per_mcm, 1);
        assert_eq!(p.mcms_per_rack, 10);
    }

    #[test]
    fn larger_escape_packs_more_chips_into_fewer_mcms() {
        let spec = ChipSpec::baseline(ChipKind::Gpu);
        let small = McmPacking::pack(&spec, 512, Bandwidth::from_tbytes_per_s(6.4));
        let large = McmPacking::pack(&spec, 512, Bandwidth::from_tbytes_per_s(12.8));
        assert!(large.chips_per_mcm > small.chips_per_mcm);
        assert!(large.mcms_per_rack < small.mcms_per_rack);
    }

    #[test]
    fn display_contains_kind_and_counts() {
        let c = RackComposition::paper_rack();
        let s = c.packing(ChipKind::Gpu).unwrap().to_string();
        assert!(s.contains("GPU"));
        assert!(s.contains("171 MCMs"));
    }
}
