//! Co-packaged DWDM link model: comb laser, ring modulators, serialization,
//! fiber propagation, and FEC latency (Sections III-B and III-C of the paper).
//!
//! The model reproduces the paper's latency budget for intra-rack
//! disaggregation:
//!
//! * electrical–optical–electrical conversion (SERDES + modulation + FEC):
//!   ~15 ns in the paper's 35 ns budget,
//! * fiber propagation at ~5 ns per meter (light at ~0.75 c in silica),
//! * serialization of a flit at the channel rate (e.g. 10 ns for 256 B at
//!   200 Gbps),
//! * the lightweight CXL/PCIe-Gen6 FEC adding 2–3 ns.
//!
//! The headline number the rest of the study uses is the **35 ns** additional
//! LLC-to-memory latency for a worst-case 4 m intra-rack reach (two-meter
//! tall rack, round trip), and 25/30 ns for shorter reaches (Fig. 8).

use crate::fec::FecConfig;
use crate::units::{Bandwidth, Energy, Latency};

/// Propagation delay of light in fiber, per meter (index of refraction ~1.5
/// so light travels at roughly 0.75 c: ~5 ns per meter).
pub const FIBER_NS_PER_METER: f64 = 5.0;

/// Default electrical-optical-electrical conversion latency (ns) assumed by
/// the paper for the co-packaged transceiver pair (SERDES, ring modulation,
/// detection, clock recovery).
pub const DEFAULT_OEO_NS: f64 = 15.0;

/// Breakdown of the one-way latency through a DWDM link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLatencyBreakdown {
    /// Electrical-optical-electrical conversion (both ends combined).
    pub oeo: Latency,
    /// Propagation through the fiber.
    pub propagation: Latency,
    /// Serialization of one flit at the aggregate link rate.
    pub serialization: Latency,
    /// Forward-error-correction encode + decode.
    pub fec: Latency,
}

impl LinkLatencyBreakdown {
    /// Total one-way latency.
    pub fn total(&self) -> Latency {
        self.oeo + self.propagation + self.serialization + self.fec
    }
}

/// A co-packaged DWDM link between two MCMs.
///
/// The link aggregates `channels` wavelengths of `channel_rate` each, shares
/// a single fiber, and is driven by a comb-laser source providing all
/// wavelengths (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DwdmLink {
    /// Number of wavelength channels on the fiber.
    pub channels: u32,
    /// Per-wavelength data rate.
    pub channel_rate: Bandwidth,
    /// Fiber length in meters.
    pub reach_m: f64,
    /// Transceiver energy per bit (including the comb laser share).
    pub energy_per_bit: Energy,
    /// Electrical-optical-electrical conversion latency.
    pub oeo_latency: Latency,
    /// FEC configuration protecting the link.
    pub fec: FecConfig,
    /// Flit size in bytes used for serialization-latency accounting.
    pub flit_bytes: u32,
}

impl DwdmLink {
    /// Aggregate link bandwidth (all channels).
    pub fn bandwidth(&self) -> Bandwidth {
        self.channel_rate * self.channels as f64
    }

    /// One-way propagation latency through the fiber.
    pub fn propagation_latency(&self) -> Latency {
        Latency::from_ns(self.reach_m * FIBER_NS_PER_METER)
    }

    /// Serialization latency of one flit at the aggregate link rate.
    pub fn serialization_latency(&self) -> Latency {
        let bits = self.flit_bytes as f64 * 8.0;
        Latency::from_secs(bits / self.bandwidth().bps())
    }

    /// Latency breakdown for a one-way flit transfer.
    pub fn latency_breakdown(&self) -> LinkLatencyBreakdown {
        LinkLatencyBreakdown {
            oeo: self.oeo_latency,
            propagation: self.propagation_latency(),
            serialization: self.serialization_latency(),
            fec: self.fec.latency(),
        }
    }

    /// Total one-way latency for a flit.
    pub fn one_way_latency(&self) -> Latency {
        self.latency_breakdown().total()
    }

    /// The paper's headline "additional latency for disaggregation": OEO plus
    /// round-trip-worth of propagation (the request/response path between an
    /// LLC and a disaggregated memory module traverses the rack distance).
    ///
    /// For the 4 m worst case this evaluates to ~35 ns.
    pub fn disaggregation_latency(&self) -> Latency {
        self.oeo_latency + self.propagation_latency() + self.fec.latency()
    }

    /// Power drawn by the transmit side of the link when fully utilized.
    pub fn power_w(&self) -> f64 {
        self.energy_per_bit.power_at(self.bandwidth())
    }

    /// Effective goodput after FEC overhead.
    pub fn goodput(&self) -> Bandwidth {
        self.bandwidth() * (1.0 - self.fec.bandwidth_overhead())
    }
}

/// Builder for [`DwdmLink`] with the paper's defaults.
#[derive(Debug, Clone)]
pub struct DwdmLinkBuilder {
    channels: u32,
    channel_rate: Bandwidth,
    reach_m: f64,
    energy_per_bit: Energy,
    oeo_latency: Latency,
    fec: FecConfig,
    flit_bytes: u32,
}

impl Default for DwdmLinkBuilder {
    fn default() -> Self {
        DwdmLinkBuilder {
            // The rack design assumes 64 wavelengths of 25 Gbps per fiber.
            channels: 64,
            channel_rate: Bandwidth::from_gbps(25.0),
            // Worst-case intra-rack reach: 4 meters (round trip of a 2 m rack).
            reach_m: 4.0,
            // Demonstrated comb-laser transceiver pairs: ~0.5 pJ/bit.
            energy_per_bit: Energy::from_pj(0.5),
            oeo_latency: Latency::from_ns(DEFAULT_OEO_NS),
            fec: FecConfig::cxl_lightweight(),
            flit_bytes: 256,
        }
    }
}

impl DwdmLinkBuilder {
    /// Start from the paper's defaults (64 x 25 Gbps, 4 m reach, 0.5 pJ/bit).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of wavelength channels.
    pub fn channels(mut self, channels: u32) -> Self {
        self.channels = channels;
        self
    }

    /// Set the per-channel data rate.
    pub fn channel_rate(mut self, rate: Bandwidth) -> Self {
        self.channel_rate = rate;
        self
    }

    /// Set the fiber reach in meters.
    pub fn reach_m(mut self, reach: f64) -> Self {
        self.reach_m = reach;
        self
    }

    /// Set the transceiver energy per bit.
    pub fn energy_per_bit(mut self, e: Energy) -> Self {
        self.energy_per_bit = e;
        self
    }

    /// Set the OEO conversion latency.
    pub fn oeo_latency(mut self, l: Latency) -> Self {
        self.oeo_latency = l;
        self
    }

    /// Set the FEC configuration.
    pub fn fec(mut self, fec: FecConfig) -> Self {
        self.fec = fec;
        self
    }

    /// Set the flit size used in serialization accounting.
    pub fn flit_bytes(mut self, bytes: u32) -> Self {
        self.flit_bytes = bytes;
        self
    }

    /// Build the link.
    pub fn build(self) -> DwdmLink {
        DwdmLink {
            channels: self.channels,
            channel_rate: self.channel_rate,
            reach_m: self.reach_m,
            energy_per_bit: self.energy_per_bit,
            oeo_latency: self.oeo_latency,
            fec: self.fec,
            flit_bytes: self.flit_bytes,
        }
    }
}

/// The three disaggregation latency points evaluated in the paper's
/// sensitivity study (Fig. 8 and 9): 25, 30, and 35 ns.
pub fn paper_latency_points() -> [Latency; 3] {
    [
        Latency::from_ns(25.0),
        Latency::from_ns(30.0),
        Latency::from_ns(35.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_matches_rack_design() {
        let link = DwdmLinkBuilder::new().build();
        // 64 x 25 Gbps = 1600 Gbps per fiber.
        assert!((link.bandwidth().gbps() - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn propagation_is_five_ns_per_meter() {
        let link = DwdmLinkBuilder::new().reach_m(4.0).build();
        assert!((link.propagation_latency().ns() - 20.0).abs() < 1e-9);
        let link1m = DwdmLinkBuilder::new().reach_m(1.0).build();
        assert!((link1m.propagation_latency().ns() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disaggregation_latency_close_to_35ns() {
        // 15 ns OEO + 20 ns (4 m) propagation + ~2 ns FEC ≈ 35 ns budget.
        let link = DwdmLinkBuilder::new().build();
        let lat = link.disaggregation_latency().ns();
        assert!((34.0..=38.0).contains(&lat), "got {lat} ns");
    }

    #[test]
    fn shorter_reach_gives_paper_sensitivity_points() {
        // ~2 m reach -> about 25-27 ns; the paper's sensitivity points are
        // 25 and 30 ns for improved photonics / shorter racks.
        let link = DwdmLinkBuilder::new().reach_m(2.0).build();
        let lat = link.disaggregation_latency().ns();
        assert!((25.0..=30.0).contains(&lat), "got {lat} ns");
    }

    #[test]
    fn serialization_latency_matches_paper_example() {
        // Paper: "for 200 Gbps, the serialization delay is 10 ns" (for a
        // 256-byte flit: 2048 bits / 200 Gbps = 10.24 ns).
        let link = DwdmLinkBuilder::new()
            .channels(8)
            .channel_rate(Bandwidth::from_gbps(25.0))
            .flit_bytes(256)
            .build();
        assert!((link.serialization_latency().ns() - 10.24).abs() < 0.1);
    }

    #[test]
    fn power_scales_with_bandwidth_and_energy() {
        let link = DwdmLinkBuilder::new().build();
        // 1600 Gbps * 0.5 pJ/bit = 0.8 W.
        assert!((link.power_w() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn goodput_loses_less_than_point1_percent_to_fec() {
        let link = DwdmLinkBuilder::new().build();
        let loss = 1.0 - link.goodput() / link.bandwidth();
        assert!(loss < 0.001, "FEC bandwidth loss {loss} should be < 0.1%");
    }

    #[test]
    fn latency_breakdown_sums_to_total() {
        let link = DwdmLinkBuilder::new().build();
        let b = link.latency_breakdown();
        let total = b.oeo + b.propagation + b.serialization + b.fec;
        assert!((total.ns() - link.one_way_latency().ns()).abs() < 1e-9);
    }

    #[test]
    fn paper_latency_points_are_25_30_35() {
        let pts = paper_latency_points();
        assert_eq!(pts.len(), 3);
        assert!((pts[0].ns() - 25.0).abs() < 1e-9);
        assert!((pts[2].ns() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn builder_setters_apply() {
        let link = DwdmLinkBuilder::new()
            .channels(128)
            .channel_rate(Bandwidth::from_gbps(16.0))
            .energy_per_bit(Energy::from_pj(0.3))
            .oeo_latency(Latency::from_ns(10.0))
            .flit_bytes(64)
            .reach_m(1.0)
            .build();
        assert_eq!(link.channels, 128);
        assert!((link.bandwidth().gbps() - 2048.0).abs() < 1e-6);
        assert!((link.oeo_latency.ns() - 10.0).abs() < 1e-9);
        assert_eq!(link.flit_bytes, 64);
    }
}
