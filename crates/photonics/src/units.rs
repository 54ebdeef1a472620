//! Strongly typed scalar units shared by the photonic and rack models.
//!
//! The paper mixes Gbps, GBps, pJ/bit, ns and dB freely; these newtypes keep
//! the arithmetic honest (in particular the bits-vs-bytes distinction that
//! matters when comparing the 25 Gbps wavelength rate against the
//! 1555.2 GB/s HBM bandwidth of an A100).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A bandwidth value, stored internally as bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from bits per second.
    pub fn from_bps(bps: f64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth(gbps * 1e9)
    }

    /// Construct from gigabytes per second.
    pub fn from_gbytes_per_s(gbs: f64) -> Self {
        Bandwidth(gbs * 8e9)
    }

    /// Construct from terabits per second.
    pub fn from_tbps(tbps: f64) -> Self {
        Bandwidth(tbps * 1e12)
    }

    /// Construct from terabytes per second.
    pub fn from_tbytes_per_s(tbs: f64) -> Self {
        Bandwidth(tbs * 8e12)
    }

    /// Value in bits per second.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// Value in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Value in gigabytes per second.
    pub fn gbytes_per_s(self) -> f64 {
        self.0 / 8e9
    }

    /// Value in terabits per second.
    pub fn tbps(self) -> f64 {
        self.0 / 1e12
    }

    /// Value in terabytes per second.
    pub fn tbytes_per_s(self) -> f64 {
        self.0 / 8e12
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }

    /// True if this bandwidth is (numerically) zero or negative.
    pub fn is_zero(self) -> bool {
        self.0 <= 0.0
    }

    /// Minimum of two bandwidth values.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Maximum of two bandwidth values.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Ratio of `self` to `other` (dimensionless).
    pub fn ratio(self, other: Bandwidth) -> f64 {
        self.0 / other.0
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Div<Bandwidth> for Bandwidth {
    type Output = f64;
    fn div(self, rhs: Bandwidth) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} Tbps", self.tbps())
        } else if self.0 >= 1e9 {
            write!(f, "{:.2} Gbps", self.gbps())
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

/// An energy-per-bit or absolute energy value, stored in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Construct from picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Construct from joules.
    pub fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Value in picojoules.
    pub fn pj(self) -> f64 {
        self.0 * 1e12
    }

    /// Value in joules.
    pub fn joules(self) -> f64 {
        self.0
    }

    /// Power (watts) when this energy is spent per bit at rate `bw`.
    pub fn power_at(self, bw: Bandwidth) -> f64 {
        self.0 * bw.bps()
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} pJ", self.pj())
    }
}

/// A latency value, stored in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Latency(f64);

impl Latency {
    /// Zero latency.
    pub const ZERO: Latency = Latency(0.0);

    /// Construct from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        Latency(ns * 1e-9)
    }

    /// Construct from microseconds.
    pub fn from_us(us: f64) -> Self {
        Latency(us * 1e-6)
    }

    /// Construct from milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Latency(ms * 1e-3)
    }

    /// Construct from seconds.
    pub fn from_secs(s: f64) -> Self {
        Latency(s)
    }

    /// Value in nanoseconds.
    pub fn ns(self) -> f64 {
        self.0 * 1e9
    }

    /// Value in seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Convert to integer cycles at a clock frequency in GHz (rounded up).
    pub fn cycles_at_ghz(self, ghz: f64) -> u64 {
        (self.0 * ghz * 1e9).ceil() as u64
    }

    /// Minimum of two latencies.
    pub fn min(self, other: Latency) -> Latency {
        Latency(self.0.min(other.0))
    }

    /// Maximum of two latencies.
    pub fn max(self, other: Latency) -> Latency {
        Latency(self.0.max(other.0))
    }
}

impl Add for Latency {
    type Output = Latency;
    fn add(self, rhs: Latency) -> Latency {
        Latency(self.0 + rhs.0)
    }
}

impl AddAssign for Latency {
    fn add_assign(&mut self, rhs: Latency) {
        self.0 += rhs.0;
    }
}

impl Sub for Latency {
    type Output = Latency;
    fn sub(self, rhs: Latency) -> Latency {
        Latency(self.0 - rhs.0)
    }
}

impl Mul<f64> for Latency {
    type Output = Latency;
    fn mul(self, rhs: f64) -> Latency {
        Latency(self.0 * rhs)
    }
}

impl Sum for Latency {
    fn sum<I: Iterator<Item = Latency>>(iter: I) -> Latency {
        iter.fold(Latency::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ns", self.ns())
    }
}

/// Optical power or loss in decibels (positive = loss for insertion loss,
/// negative values are used for crosstalk suppression figures).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct OpticalPowerDb(f64);

impl OpticalPowerDb {
    /// Construct from a dB value.
    pub fn from_db(db: f64) -> Self {
        OpticalPowerDb(db)
    }

    /// The dB value.
    pub fn db(self) -> f64 {
        self.0
    }

    /// Convert to a linear power ratio (10^(dB/10)).
    pub fn linear_ratio(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Combine two losses in series (dB values add).
    pub fn cascade(self, other: OpticalPowerDb) -> OpticalPowerDb {
        OpticalPowerDb(self.0 + other.0)
    }
}

impl Add for OpticalPowerDb {
    type Output = OpticalPowerDb;
    fn add(self, rhs: OpticalPowerDb) -> OpticalPowerDb {
        OpticalPowerDb(self.0 + rhs.0)
    }
}

impl Neg for OpticalPowerDb {
    type Output = OpticalPowerDb;
    fn neg(self) -> OpticalPowerDb {
        OpticalPowerDb(-self.0)
    }
}

impl fmt::Display for OpticalPowerDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions_round_trip() {
        let bw = Bandwidth::from_gbps(25.0);
        assert!((bw.bps() - 25e9).abs() < 1.0);
        assert!((bw.gbps() - 25.0).abs() < 1e-9);
        let bytes = Bandwidth::from_gbytes_per_s(1555.2);
        assert!((bytes.gbps() - 12441.6).abs() < 1e-6);
        assert!((bytes.gbytes_per_s() - 1555.2).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_tb_conversions() {
        let two_tb = Bandwidth::from_tbytes_per_s(2.0);
        assert!((two_tb.tbps() - 16.0).abs() < 1e-12);
        assert!((two_tb.gbps() - 16000.0).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::from_gbps(100.0);
        let b = Bandwidth::from_gbps(25.0);
        assert!(((a + b).gbps() - 125.0).abs() < 1e-9);
        assert!(((a - b).gbps() - 75.0).abs() < 1e-9);
        assert!(((a * 2.0).gbps() - 200.0).abs() < 1e-9);
        assert!(((a / 4.0).gbps() - 25.0).abs() < 1e-9);
        assert!((a / b - 4.0).abs() < 1e-12);
        assert!(b.saturating_sub(a).is_zero());
        assert!((a.ratio(b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_sum_min_max() {
        let parts = vec![Bandwidth::from_gbps(25.0); 5];
        let total: Bandwidth = parts.into_iter().sum();
        assert!((total.gbps() - 125.0).abs() < 1e-9);
        let a = Bandwidth::from_gbps(10.0);
        let b = Bandwidth::from_gbps(20.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn energy_power_at_bandwidth() {
        // 0.5 pJ/bit at 25 Gbps = 12.5 mW
        let e = Energy::from_pj(0.5);
        let p = e.power_at(Bandwidth::from_gbps(25.0));
        assert!((p - 0.0125).abs() < 1e-9);
    }

    #[test]
    fn energy_display_and_sum() {
        let e: Energy = vec![Energy::from_pj(0.25); 4].into_iter().sum();
        assert!((e.pj() - 1.0).abs() < 1e-9);
        assert_eq!(format!("{e}"), "1.000 pJ");
    }

    #[test]
    fn latency_conversions() {
        let l = Latency::from_ns(35.0);
        assert!((l.ns() - 35.0).abs() < 1e-9);
        assert!((l.secs() - 35e-9).abs() < 1e-18);
        // 35 ns at 2 GHz = 70 cycles
        assert_eq!(l.cycles_at_ghz(2.0), 70);
        let l2 = Latency::from_us(1.0);
        assert!((l2.ns() - 1000.0).abs() < 1e-9);
        let l3 = Latency::from_ms(1.0);
        assert!((l3.ns() - 1e6).abs() < 1e-6);
    }

    #[test]
    fn latency_arithmetic() {
        let a = Latency::from_ns(15.0);
        let b = Latency::from_ns(20.0);
        assert!(((a + b).ns() - 35.0).abs() < 1e-9);
        assert!(((b - a).ns() - 5.0).abs() < 1e-9);
        assert!(((a * 2.0).ns() - 30.0).abs() < 1e-9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let sum: Latency = vec![a, b].into_iter().sum();
        assert!((sum.ns() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn optical_db_cascade_and_linear() {
        let a = OpticalPowerDb::from_db(3.0);
        let b = OpticalPowerDb::from_db(7.0);
        assert!((a.cascade(b).db() - 10.0).abs() < 1e-12);
        assert!((OpticalPowerDb::from_db(10.0).linear_ratio() - 10.0).abs() < 1e-9);
        assert!((OpticalPowerDb::from_db(0.0).linear_ratio() - 1.0).abs() < 1e-12);
        assert!(((-a).db() + 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::from_gbps(25.0)), "25.00 Gbps");
        assert_eq!(format!("{}", Bandwidth::from_tbps(2.048)), "2.05 Tbps");
        assert_eq!(format!("{}", Latency::from_ns(35.0)), "35.00 ns");
        assert_eq!(format!("{}", OpticalPowerDb::from_db(-35.0)), "-35.0 dB");
    }
}
