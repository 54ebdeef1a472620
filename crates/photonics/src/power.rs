//! Photonic power accounting (Section VI-C of the paper).
//!
//! The paper's per-rack power overhead calculation:
//!
//! * 350 MCMs, each with 2048 escape wavelengths of 25 Gbps;
//! * demonstrated comb-laser transceiver pairs at ~0.5 pJ/bit including the
//!   laser;
//! * all parallel optical switches together consume no more than 1 kW;
//! * photonic components are pessimistically assumed always on;
//! * total ≈ 11 kW, which is ~5% of the power of the rack's compute and
//!   memory components.

use crate::units::{Bandwidth, Energy};

/// Power model of the photonic components of a disaggregated rack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotonicPowerModel {
    /// Number of MCMs in the rack.
    pub mcm_count: u32,
    /// Escape wavelengths per MCM.
    pub wavelengths_per_mcm: u32,
    /// Per-wavelength data rate.
    pub channel_rate: Bandwidth,
    /// Transceiver (and laser) energy per bit.
    pub transceiver_energy_per_bit: Energy,
    /// Total power of all parallel optical switches (watts).
    pub switch_power_w: f64,
    /// If true, transceivers are assumed always on at full rate (the paper's
    /// pessimistic assumption); if false, power scales with `utilization`.
    pub always_on: bool,
    /// Average link utilization used when `always_on` is false.
    ///
    /// Stored as given; every power computation reads it through
    /// [`effective_utilization`](PhotonicPowerModel::effective_utilization),
    /// which sanitizes degenerate values the same way `FlowSimulator`
    /// sanitizes degenerate demands: non-finite utilization becomes `0.0`
    /// (an unmeasurable link draws no traffic-proportional power) and finite
    /// values are clamped to `[0, 1]`.
    pub utilization: f64,
}

impl PhotonicPowerModel {
    /// The paper's rack configuration (Section VI-C).
    pub fn paper_rack() -> Self {
        PhotonicPowerModel {
            mcm_count: 350,
            wavelengths_per_mcm: 2048,
            channel_rate: Bandwidth::from_gbps(25.0),
            transceiver_energy_per_bit: Energy::from_pj(0.5),
            switch_power_w: 1000.0,
            always_on: true,
            utilization: 1.0,
        }
    }

    /// The same model in utilization-scaled mode: transceiver power follows
    /// the offered traffic instead of the pessimistic always-on assumption.
    ///
    /// The given utilization is stored verbatim and sanitized on read by
    /// [`effective_utilization`](PhotonicPowerModel::effective_utilization).
    ///
    /// # Example
    ///
    /// ```
    /// use photonics::power::PhotonicPowerModel;
    ///
    /// let always_on = PhotonicPowerModel::paper_rack();
    /// let quarter = always_on.utilization_scaled(0.25);
    /// // A quarter-utilized rack draws a quarter of the transceiver power.
    /// let ratio = quarter.transceiver_power_w() / always_on.transceiver_power_w();
    /// assert!((ratio - 0.25).abs() < 1e-9);
    ///
    /// // Degenerate utilization is sanitized, never propagated as NaN.
    /// let broken = always_on.utilization_scaled(f64::NAN);
    /// assert_eq!(broken.transceiver_power_w(), 0.0);
    /// ```
    pub fn utilization_scaled(mut self, utilization: f64) -> Self {
        self.always_on = false;
        self.utilization = utilization;
        self
    }

    /// The sanitized value of [`utilization`](PhotonicPowerModel::utilization)
    /// used by every power computation: non-finite values (NaN, ±infinity)
    /// become `0.0`, finite values are clamped to `[0, 1]`. This mirrors the
    /// `FlowSimulator` demand contract, so a degenerate measurement can never
    /// produce a NaN or negative watt figure downstream.
    pub fn effective_utilization(&self) -> f64 {
        if self.utilization.is_finite() {
            self.utilization.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Escape bandwidth of one MCM.
    pub fn escape_per_mcm(&self) -> Bandwidth {
        self.channel_rate * self.wavelengths_per_mcm as f64
    }

    /// Aggregate escape bandwidth of the whole rack.
    pub fn rack_escape_bandwidth(&self) -> Bandwidth {
        self.escape_per_mcm() * self.mcm_count as f64
    }

    /// Power drawn by all transceivers (watts). In utilization-scaled mode
    /// the utilization is sanitized via
    /// [`effective_utilization`](PhotonicPowerModel::effective_utilization).
    pub fn transceiver_power_w(&self) -> f64 {
        let active = if self.always_on {
            1.0
        } else {
            self.effective_utilization()
        };
        self.transceiver_energy_per_bit
            .power_at(self.rack_escape_bandwidth())
            * active
    }

    /// Total photonic power: transceivers plus switches (watts).
    pub fn total_power_w(&self) -> f64 {
        self.transceiver_power_w() + self.switch_power_w
    }

    /// Full per-rack accounting against a baseline rack power.
    pub fn rack_overhead(&self, baseline_rack_power_w: f64) -> RackPhotonicPower {
        let photonic = self.total_power_w();
        RackPhotonicPower {
            transceiver_power_w: self.transceiver_power_w(),
            switch_power_w: self.switch_power_w,
            photonic_power_w: photonic,
            baseline_rack_power_w,
            overhead_fraction: photonic / baseline_rack_power_w,
        }
    }
}

/// Result of the rack-level power overhead analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackPhotonicPower {
    /// Power of all transceivers (watts).
    pub transceiver_power_w: f64,
    /// Power of all optical switches (watts).
    pub switch_power_w: f64,
    /// Total photonic power (watts).
    pub photonic_power_w: f64,
    /// Power of the baseline (non-photonic) rack components (watts).
    pub baseline_rack_power_w: f64,
    /// Photonic power as a fraction of the baseline rack power.
    pub overhead_fraction: f64,
}

impl RackPhotonicPower {
    /// Overhead as a percentage.
    pub fn overhead_percent(&self) -> f64 {
        self.overhead_fraction * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rack_escape_bandwidth() {
        let m = PhotonicPowerModel::paper_rack();
        // 2048 x 25 Gbps = 51.2 Tbps = 6.4 TB/s per MCM.
        assert!((m.escape_per_mcm().tbytes_per_s() - 6.4).abs() < 1e-9);
        // 350 MCMs -> 17.92 Pbps total.
        assert!((m.rack_escape_bandwidth().tbps() - 17920.0).abs() < 1e-6);
    }

    #[test]
    fn paper_rack_power_is_about_11_kw() {
        let m = PhotonicPowerModel::paper_rack();
        // Transceivers: 17.92e15 b/s * 0.5e-12 J/b = 8.96 kW; + 1 kW switches.
        let total = m.total_power_w();
        assert!(
            total > 9_500.0 && total < 11_500.0,
            "total photonic power {total} W should be ~10-11 kW"
        );
    }

    #[test]
    fn overhead_is_about_five_percent_of_paper_rack() {
        // Baseline rack: 128 nodes x (1 CPU @250 W + 4 GPUs @300 W + 192 W DDR4)
        // = 128 * 1642 = 210 kW.
        let baseline = 128.0 * (250.0 + 4.0 * 300.0 + 192.0);
        let m = PhotonicPowerModel::paper_rack();
        let o = m.rack_overhead(baseline);
        assert!(
            o.overhead_percent() > 4.0 && o.overhead_percent() < 6.0,
            "overhead {}% should be ~5%",
            o.overhead_percent()
        );
    }

    #[test]
    fn utilization_scaling_reduces_power_when_not_always_on() {
        let mut m = PhotonicPowerModel::paper_rack();
        m.always_on = false;
        m.utilization = 0.25;
        let quarter = m.transceiver_power_w();
        m.utilization = 1.0;
        let full = m.transceiver_power_w();
        assert!((quarter * 4.0 - full).abs() < 1e-6);
    }

    #[test]
    fn always_on_ignores_utilization() {
        let mut m = PhotonicPowerModel::paper_rack();
        m.utilization = 0.1;
        assert!((m.transceiver_power_w() - 8960.0).abs() < 1.0);
    }

    #[test]
    fn degenerate_utilization_is_sanitized() {
        let m = PhotonicPowerModel::paper_rack();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let broken = m.utilization_scaled(bad);
            assert_eq!(broken.effective_utilization(), 0.0);
            assert_eq!(broken.transceiver_power_w(), 0.0);
            assert!(broken.total_power_w().is_finite());
        }
        assert_eq!(m.utilization_scaled(-0.5).effective_utilization(), 0.0);
        assert_eq!(m.utilization_scaled(1.5).effective_utilization(), 1.0);
        // Over-unity utilization caps at the always-on power.
        let capped = m.utilization_scaled(7.0);
        assert!((capped.transceiver_power_w() - m.transceiver_power_w()).abs() < 1e-9);
    }

    #[test]
    fn utilization_scaled_builder_disables_always_on() {
        let m = PhotonicPowerModel::paper_rack().utilization_scaled(0.5);
        assert!(!m.always_on);
        assert!((m.transceiver_power_w() - 4480.0).abs() < 1.0);
    }

    #[test]
    fn switch_power_adds_to_total() {
        let m = PhotonicPowerModel::paper_rack();
        assert!((m.total_power_w() - m.transceiver_power_w() - 1000.0).abs() < 1e-9);
    }
}
