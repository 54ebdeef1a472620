//! Energy accounting for the sweep and timeline engines (Section VI-C).
//!
//! The paper's power claim is static: a 350-MCM rack of always-on
//! co-packaged transceivers plus its optical switches draws ~11 kW, about
//! 5% of the rack's compute/memory power. This module turns that static
//! budget into *per-scenario* energy accounting so a sweep can answer
//! energy-per-bit questions:
//!
//! * **Transceiver energy** — either the paper's pessimistic always-on
//!   assumption ([`EnergyMode::AlwaysOn`]: pJ/bit × the full raw escape
//!   bandwidth for the whole scenario duration) or utilization-scaled
//!   ([`EnergyMode::UtilizationScaled`]: pJ/bit × the bits the fabric
//!   actually carried, with indirect two-hop bits charged twice — once per
//!   link traversal).
//! * **FEC coding overhead** — the `photonics::fec` bandwidth overhead bits
//!   ride the same transceivers, so utilization-scaled accounting charges
//!   them explicitly (always-on accounting subsumes them in the full-rate
//!   term and reports zero here).
//! * **Reconfiguration energy** — charged per wavelength re-steer event
//!   recorded by `fabric::timeline`'s [`TimelineReport`], which is what
//!   makes the greedy-vs-hysteresis policy tradeoff an *energy* tradeoff.
//! * **Idle floor** — the optical-switch / comb-laser bank stays powered
//!   regardless of traffic ([`PhotonicPowerModel::switch_power_w`]),
//!   scaled linearly with rack size.
//!
//! * **Modulation-ladder energy** — flex-grid scenarios weight each
//!   lightpath's wire bits by its modulation rung's
//!   [`energy_factor`](fabric::ModulationFormat::energy_factor) (and hop
//!   count), so a spectrally dense 16QAM direct path and a two-hop 8QAM
//!   detour draw measurably different transceiver energy
//!   ([`EnergyModel::account_flexgrid`]).
//!
//! [`EnergyModel::account_flows`] handles static-pattern scenarios (one
//! epoch), [`EnergyModel::account_timeline`] temporal ones, and
//! [`EnergyModel::account_flexgrid`] elastic-optical ones; all produce an
//! [`EnergyStats`] that the sweep engine attaches to
//! [`SweepReport`](crate::report::SweepReport) rows and to the report-level
//! `energy` block.

use fabric::{FlexGridReport, FlowSimReport, RackFabricConfig, TimelineReport};
use photonics::fec::FecConfig;
use photonics::power::PhotonicPowerModel;
use photonics::units::{Bandwidth, Energy};
use rack::power::RackPowerModel;

/// How transceiver power relates to carried traffic — the sweep engine's
/// energy axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyMode {
    /// The paper's pessimistic assumption: every transceiver runs at full
    /// rate for the whole scenario, whatever the offered load.
    AlwaysOn,
    /// Transceiver energy follows the bits the fabric actually carried
    /// (payload + FEC overhead, indirect bits charged per link traversal).
    UtilizationScaled,
}

impl EnergyMode {
    /// Short stable label for report rows and CLI parsing.
    pub fn label(self) -> &'static str {
        match self {
            EnergyMode::AlwaysOn => "always-on",
            EnergyMode::UtilizationScaled => "util",
        }
    }

    /// Parse a label produced by [`EnergyMode::label`], or its alias
    /// (`always` for `always-on`, `utilization` for `util`); `None` for
    /// anything else. The one energy-mode parser of the CLIs, grid JSON and
    /// report JSON.
    ///
    /// ```
    /// use disagg_core::energy::EnergyMode;
    /// assert_eq!(EnergyMode::parse("util"), Some(EnergyMode::UtilizationScaled));
    /// assert_eq!(EnergyMode::parse("always-on"), Some(EnergyMode::AlwaysOn));
    /// assert_eq!(EnergyMode::parse("always"), Some(EnergyMode::AlwaysOn));
    /// assert_eq!(EnergyMode::parse("solar"), None);
    /// ```
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "always-on" | "always" => Some(EnergyMode::AlwaysOn),
            "util" | "utilization" => Some(EnergyMode::UtilizationScaled),
            _ => None,
        }
    }
}

/// Scenario-independent knobs of the energy layer. Defaults reproduce the
/// paper's Section VI-C rack (0.5 pJ/bit transceivers, a 1 kW switch bank
/// and a ~210 kW compute baseline at 350 MCMs, both scaled per MCM).
///
/// # Example
///
/// ```
/// use disagg_core::energy::EnergyConfig;
///
/// let cfg = EnergyConfig::default();
/// // At the paper's 350-MCM design point the per-MCM floors recompose the
/// // rack-level figures.
/// assert!((cfg.switch_power_per_mcm_w * 350.0 - 1000.0).abs() < 1e-6);
/// assert!((cfg.compute_power_per_mcm_w * 350.0 - 210_176.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Transceiver (and laser) energy per bit, in picojoules.
    pub transceiver_pj_per_bit: f64,
    /// Idle-floor power of the optical switches / laser bank per MCM
    /// (watts); the paper's 1 kW rack-level budget over 350 MCMs.
    pub switch_power_per_mcm_w: f64,
    /// Compute/memory comparison power per MCM (watts); the paper's
    /// CPU + GPU + DDR4 baseline over 350 MCMs. Denominator of the
    /// photonic-to-compute power ratio.
    pub compute_power_per_mcm_w: f64,
    /// Wall-clock length of one epoch in seconds (a static pattern scenario
    /// is one epoch).
    pub epoch_duration_s: f64,
    /// Energy charged per wavelength-reallocation event (joules): the
    /// switch bank re-tunes for ~10 ms at its 1 kW budget.
    pub reconfiguration_energy_j: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        let paper = RackPowerModel::paper_rack();
        EnergyConfig {
            transceiver_pj_per_bit: paper.photonics.transceiver_energy_per_bit.pj(),
            switch_power_per_mcm_w: paper.photonics.switch_power_w
                / paper.photonics.mcm_count as f64,
            compute_power_per_mcm_w: paper.paper_comparison_power_per_mcm_w(),
            epoch_duration_s: 1.0,
            reconfiguration_energy_j: 10.0,
        }
    }
}

impl EnergyConfig {
    /// The config with every knob sanitized per the energy layer's
    /// degenerate-input contract (mirroring `FlowSimulator` demands and
    /// [`PhotonicPowerModel::effective_utilization`]): non-finite or
    /// negative values become `0.0`. [`EnergyModel::new`] applies this, so a
    /// degenerate knob — a `--epoch-seconds nan` from the CLI, say — can
    /// never put negative or NaN joules into a report.
    pub fn sanitized(self) -> Self {
        let clean = |v: f64| if v.is_finite() { v.max(0.0) } else { 0.0 };
        EnergyConfig {
            transceiver_pj_per_bit: clean(self.transceiver_pj_per_bit),
            switch_power_per_mcm_w: clean(self.switch_power_per_mcm_w),
            compute_power_per_mcm_w: clean(self.compute_power_per_mcm_w),
            epoch_duration_s: clean(self.epoch_duration_s),
            reconfiguration_energy_j: clean(self.reconfiguration_energy_j),
        }
    }
}

/// Per-scenario energy accounting result: the `EnergyStats` block of a
/// [`SweepReport`](crate::report::SweepReport).
///
/// All component energies are joules over the scenario's whole duration;
/// [`watts`](EnergyStats::watts), [`pj_per_bit`](EnergyStats::pj_per_bit)
/// and [`photonic_compute_ratio`](EnergyStats::photonic_compute_ratio)
/// derive the headline figures.
///
/// # Example
///
/// ```
/// use disagg_core::energy::EnergyMode;
/// use disagg_core::sweep::SweepGrid;
///
/// // The paper's design point under the always-on assumption: ~10-11 kW of
/// // photonics, ~5% of the compute/memory power (Section VI-C).
/// let report = SweepGrid::named("vi-c")
///     .energy_modes([EnergyMode::AlwaysOn])
///     .run();
/// let (_, stats) = &report.energy[0];
/// assert!(stats.watts() > 9_500.0 && stats.watts() < 11_500.0);
/// let pct = stats.photonic_compute_ratio() * 100.0;
/// assert!(pct > 4.0 && pct < 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyStats {
    /// The accounting mode that produced these numbers.
    pub mode: EnergyMode,
    /// Scenario duration in seconds (epochs × epoch duration).
    pub duration_s: f64,
    /// Fabric-carried delivered payload, in gigabits (direct + indirect;
    /// MCM-local traffic excluded).
    pub payload_gigabits: f64,
    /// Transceiver energy spent on payload bits (joules). Under
    /// [`EnergyMode::AlwaysOn`] this is the full-rate always-on term and
    /// subsumes the FEC share.
    pub transceiver_energy_j: f64,
    /// Transceiver energy spent on FEC/CRC overhead bits (joules); zero
    /// under [`EnergyMode::AlwaysOn`], where it is subsumed above.
    pub fec_energy_j: f64,
    /// Energy charged for wavelength-reallocation events (joules).
    pub reconfiguration_energy_j: f64,
    /// Idle-floor energy of the switch / laser bank (joules).
    pub idle_energy_j: f64,
    /// Compute/memory comparison power of this scenario's rack (watts).
    pub compute_power_w: f64,
}

impl EnergyStats {
    /// Total photonic energy over the scenario (joules).
    pub fn total_joules(&self) -> f64 {
        self.transceiver_energy_j
            + self.fec_energy_j
            + self.reconfiguration_energy_j
            + self.idle_energy_j
    }

    /// Mean photonic power over the scenario (watts); zero for a zero-length
    /// scenario.
    pub fn watts(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.total_joules() / self.duration_s
        } else {
            0.0
        }
    }

    /// Total photonic energy per delivered payload bit (picojoules). NaN
    /// (serialized as JSON `null`) when the fabric carried nothing.
    pub fn pj_per_bit(&self) -> f64 {
        let bits = self.payload_gigabits * 1e9;
        if bits > 0.0 {
            self.total_joules() * 1e12 / bits
        } else {
            f64::NAN
        }
    }

    /// Mean photonic power as a fraction of the rack's compute/memory power
    /// (the paper's ~5% headline); zero when the compute baseline is zero.
    pub fn photonic_compute_ratio(&self) -> f64 {
        if self.compute_power_w > 0.0 {
            self.watts() / self.compute_power_w
        } else {
            0.0
        }
    }
}

/// The energy model of one scenario: the configured knobs specialized to a
/// concrete rack topology and FEC pipeline.
///
/// # Example
///
/// ```
/// use disagg_core::energy::{EnergyConfig, EnergyMode, EnergyModel};
/// use fabric::{FabricKind, Flow, FlowSimConfig, FlowSimulator, RackFabric, RackFabricConfig};
/// use photonics::fec::FecConfig;
///
/// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 16;
/// let fabric = RackFabric::new(cfg);
/// let report = FlowSimulator::new(&fabric, FlowSimConfig::default())
///     .run(&[Flow::new(0, 1, 100.0)]);
///
/// let model = EnergyModel::new(
///     EnergyMode::UtilizationScaled,
///     EnergyConfig::default(),
///     &cfg,
///     &FecConfig::disabled(),
/// );
/// let stats = model.account_flows(&report);
/// // 100 Gbit carried directly for one second at 0.5 pJ/bit = 0.05 J.
/// assert!((stats.transceiver_energy_j - 0.05).abs() < 1e-9);
/// assert!((stats.payload_gigabits - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    mode: EnergyMode,
    config: EnergyConfig,
    mcm_count: u32,
    wavelengths_per_mcm: u32,
    raw_gbps_per_wavelength: f64,
    fec_overhead: f64,
}

impl EnergyModel {
    /// Build the model for a scenario's fabric and FEC configuration. The
    /// fabric's wavelength rate is FEC-derated, so the raw (wire) rate is
    /// recovered from the FEC's bandwidth overhead: the same overhead the
    /// fabric was derated by, so any overhead in [0, 1) — the range
    /// [`SweepGrid::validate`](crate::SweepGrid::validate) admits — is
    /// used as is, and anything else (NaN included) counts as 0. The config
    /// is stored [sanitized](EnergyConfig::sanitized).
    pub fn new(
        mode: EnergyMode,
        config: EnergyConfig,
        fabric: &RackFabricConfig,
        fec: &FecConfig,
    ) -> Self {
        let config = config.sanitized();
        let fec_overhead = if (0.0..1.0).contains(&fec.bandwidth_overhead) {
            fec.bandwidth_overhead
        } else {
            0.0
        };
        EnergyModel {
            mode,
            config,
            mcm_count: fabric.mcm_count,
            wavelengths_per_mcm: fabric.fibers_per_mcm * fabric.wavelengths_per_fiber,
            raw_gbps_per_wavelength: fabric.gbps_per_wavelength / (1.0 - fec_overhead),
            fec_overhead,
        }
    }

    /// The underlying [`PhotonicPowerModel`] at this scenario's topology
    /// (always-on, full utilization); the accounting methods re-mode it per
    /// [`EnergyMode`].
    pub fn photonic_power_model(&self) -> PhotonicPowerModel {
        PhotonicPowerModel {
            mcm_count: self.mcm_count,
            wavelengths_per_mcm: self.wavelengths_per_mcm,
            channel_rate: Bandwidth::from_gbps(self.raw_gbps_per_wavelength),
            transceiver_energy_per_bit: Energy::from_pj(self.config.transceiver_pj_per_bit),
            switch_power_w: self.config.switch_power_per_mcm_w * self.mcm_count as f64,
            always_on: true,
            utilization: 1.0,
        }
    }

    /// Account a static-pattern scenario: one epoch of the flow simulator's
    /// allocation.
    pub fn account_flows(&self, report: &FlowSimReport) -> EnergyStats {
        self.account(&EnergyInputs::flows(report))
    }

    /// Account a temporal scenario: the timeline's fabric-carried traffic
    /// plus one reconfiguration charge per re-steer event the timeline
    /// recorded.
    pub fn account_timeline(&self, report: &TimelineReport) -> EnergyStats {
        self.account(&EnergyInputs::timeline(report))
    }

    /// Account a flex-grid scenario. Same structure as the wavelength-layer
    /// accounting, but the wire term follows the modulation ladder: the
    /// timeline's `direct + 2 × indirect` wire bits are replaced by the
    /// report's [`wire_weighted_gbps`](FlexGridReport::wire_weighted_gbps)
    /// (each lightpath's demand × hops × modulation energy factor), and
    /// reconfiguration energy is charged per spectrum-repack event.
    ///
    /// ```
    /// use disagg_core::energy::{EnergyConfig, EnergyMode, EnergyModel};
    /// use fabric::{FabricKind, FlexGridConfig, FlexGridSimulator, Flow};
    /// use fabric::{RackFabric, RackFabricConfig};
    /// use photonics::fec::FecConfig;
    ///
    /// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let sim = FlexGridSimulator::new(&fabric, FlexGridConfig::default());
    /// let report = sim.run(&[vec![Flow::new(0, 1, 100.0)]]);
    ///
    /// let model = EnergyModel::new(
    ///     EnergyMode::UtilizationScaled,
    ///     EnergyConfig::default(),
    ///     &cfg,
    ///     &FecConfig::disabled(),
    /// );
    /// let stats = model.account_flexgrid(&report);
    /// // 100 Gbit direct on 16QAM for one second: 100e9 bits × 1 hop ×
    /// // 2.0 modulation factor × 0.5 pJ/bit = 0.1 J.
    /// assert!((stats.transceiver_energy_j - 0.1).abs() < 1e-9);
    /// assert!((stats.payload_gigabits - 100.0).abs() < 1e-9);
    /// ```
    pub fn account_flexgrid(&self, report: &FlexGridReport) -> EnergyStats {
        self.account(&EnergyInputs::flexgrid(report))
    }

    /// Core accounting over per-epoch Gbps sums. `direct_gbps` /
    /// `indirect_gbps` are summed across epochs (each epoch lasting
    /// [`EnergyConfig::epoch_duration_s`]), so Gbps × 1e9 × epoch duration
    /// converts straight to bits.
    ///
    /// Crate-visible for the sweep executor's reuse layer: replaying a
    /// retained solve under a different [`EnergyMode`] or FEC setting goes
    /// through exactly this function, which is a pure function of its
    /// inputs — so replayed energy stats are bit-identical to re-running
    /// the solver under that mode.
    pub(crate) fn account(&self, inputs: &EnergyInputs) -> EnergyStats {
        let duration = inputs.epochs as f64 * self.config.epoch_duration_s;
        let direct_bits = inputs.direct_gbps * 1e9 * self.config.epoch_duration_s;
        let indirect_bits = inputs.indirect_gbps * 1e9 * self.config.epoch_duration_s;
        let wire_payload_bits = match inputs.wire_weighted_gbps {
            Some(weighted) => weighted * 1e9 * self.config.epoch_duration_s,
            // Each indirect bit traverses two links and pays the
            // transceiver energy twice.
            None => direct_bits + 2.0 * indirect_bits,
        };
        let wire_total_bits = wire_payload_bits / (1.0 - self.fec_overhead);
        let ppm = self.photonic_power_model();

        let (transceiver_j, fec_j) = match self.mode {
            EnergyMode::AlwaysOn => (ppm.transceiver_power_w() * duration, 0.0),
            EnergyMode::UtilizationScaled => {
                let capacity_bits = ppm.rack_escape_bandwidth().bps() * duration;
                // Degenerate ratios (0/0 on an empty timeline) are sanitized
                // by the power model's utilization contract.
                let scaled = ppm.utilization_scaled(wire_total_bits / capacity_bits);
                let wire_energy = scaled.transceiver_power_w() * duration;
                if wire_total_bits > 0.0 {
                    let fec_share = (wire_total_bits - wire_payload_bits) / wire_total_bits;
                    (wire_energy * (1.0 - fec_share), wire_energy * fec_share)
                } else {
                    (0.0, 0.0)
                }
            }
        };

        EnergyStats {
            mode: self.mode,
            duration_s: duration,
            payload_gigabits: (direct_bits + indirect_bits) / 1e9,
            transceiver_energy_j: transceiver_j,
            fec_energy_j: fec_j,
            reconfiguration_energy_j: inputs.reconfigurations as f64
                * self.config.reconfiguration_energy_j,
            idle_energy_j: ppm.switch_power_w * duration,
            compute_power_w: self.config.compute_power_per_mcm_w * self.mcm_count as f64,
        }
    }
}

/// The aggregate fields of a solver report that energy accounting reads,
/// and all it reads. A few dozen bytes, so the sweep executor's reuse layer
/// retains one per leader solve (unlike full reports, whose per-flow
/// allocation vectors run to megabytes on the 350-MCM all-to-all case) and
/// replays it through [`EnergyModel::account`] for each follower.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnergyInputs {
    /// Epochs the scenario lasted (1 for a static pattern).
    pub epochs: usize,
    /// Events that pay reconfiguration energy: wavelength re-steers on a
    /// timeline, spectrum-repack (defrag) events on a flex grid.
    pub reconfigurations: usize,
    /// Fabric-carried direct Gbps, summed across epochs.
    pub direct_gbps: f64,
    /// Fabric-carried indirect (two-hop) Gbps, summed across epochs.
    pub indirect_gbps: f64,
    /// Flex-grid wire Gbps weighted by hops and modulation energy factor;
    /// `None` charges `direct + 2 × indirect` wire bits instead.
    pub wire_weighted_gbps: Option<f64>,
}

impl EnergyInputs {
    /// A static-pattern solve: one epoch, no reconfiguration.
    pub(crate) fn flows(report: &FlowSimReport) -> Self {
        EnergyInputs {
            epochs: 1,
            reconfigurations: 0,
            direct_gbps: report.fabric_direct_gbps,
            indirect_gbps: report.fabric_indirect_gbps,
            wire_weighted_gbps: None,
        }
    }

    /// A timeline solve: one reconfiguration per re-steered epoch.
    pub(crate) fn timeline(report: &TimelineReport) -> Self {
        EnergyInputs {
            epochs: report.epochs.len(),
            reconfigurations: report.epochs.iter().filter(|e| e.reconfigured).count(),
            direct_gbps: report.fabric_direct_gbps,
            indirect_gbps: report.fabric_indirect_gbps,
            wire_weighted_gbps: None,
        }
    }

    /// A flex-grid solve: one reconfiguration per defrag event, wire bits
    /// on the modulation ladder.
    pub(crate) fn flexgrid(report: &FlexGridReport) -> Self {
        EnergyInputs {
            epochs: report.epochs.len(),
            reconfigurations: report.defrag_events,
            direct_gbps: report.carried_direct_gbps,
            indirect_gbps: report.carried_indirect_gbps,
            wire_weighted_gbps: Some(report.wire_weighted_gbps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{FabricKind, Flow, FlowSimConfig, FlowSimulator, RackFabric};

    /// Wavelength-layer accounting inputs (no modulation weighting).
    fn inputs(
        epochs: usize,
        reconfigurations: usize,
        direct_gbps: f64,
        indirect_gbps: f64,
    ) -> EnergyInputs {
        EnergyInputs {
            epochs,
            reconfigurations,
            direct_gbps,
            indirect_gbps,
            wire_weighted_gbps: None,
        }
    }

    fn paper_model(mode: EnergyMode) -> EnergyModel {
        let fabric = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        let fec = FecConfig::cxl_lightweight();
        // The sweep engine hands the model an already-derated wavelength
        // rate; mirror that here.
        let derated = RackFabricConfig {
            gbps_per_wavelength: fabric.gbps_per_wavelength * (1.0 - fec.bandwidth_overhead),
            ..fabric
        };
        EnergyModel::new(mode, EnergyConfig::default(), &derated, &fec)
    }

    #[test]
    fn always_on_reproduces_the_paper_power_point() {
        let model = paper_model(EnergyMode::AlwaysOn);
        let ppm = model.photonic_power_model();
        // Raw rate recovered from the derated one: 2048 wavelengths x
        // 25 Gbps x 350 MCMs x 0.5 pJ/bit = 8.96 kW + 1 kW of switches.
        assert!((ppm.transceiver_power_w() - 8_960.0).abs() < 1.0);
        assert!((ppm.switch_power_w - 1_000.0).abs() < 1e-6);
        let stats = model.account(&inputs(1, 0, 0.0, 0.0));
        assert!(stats.watts() > 9_500.0 && stats.watts() < 11_500.0);
        let pct = stats.photonic_compute_ratio() * 100.0;
        assert!(pct > 4.0 && pct < 6.0, "overhead {pct}%");
        // Always-on power is traffic-independent.
        let busy = model.account(&inputs(1, 0, 1e6, 1e5));
        assert!((busy.transceiver_energy_j - stats.transceiver_energy_j).abs() < 1e-6);
    }

    #[test]
    fn utilization_scaled_charges_carried_bits_and_fec_overhead() {
        let model = paper_model(EnergyMode::UtilizationScaled);
        // 1000 Gbps direct + 500 Gbps indirect for one 1-second epoch:
        // wire payload = (1000 + 2x500) Gbit = 2000 Gbit.
        let stats = model.account(&inputs(1, 0, 1000.0, 500.0));
        let expected_payload_j = 2000.0e9 * 0.5e-12;
        assert!(
            (stats.transceiver_energy_j - expected_payload_j).abs() / expected_payload_j < 1e-6
        );
        // FEC overhead bits: 0.08% of the wire rate.
        let oh = FecConfig::cxl_lightweight().bandwidth_overhead;
        let expected_fec_j = 2000.0e9 / (1.0 - oh) * oh * 0.5e-12;
        assert!((stats.fec_energy_j - expected_fec_j).abs() / expected_fec_j < 1e-6);
        assert!((stats.payload_gigabits - 1500.0).abs() < 1e-9);
        assert!(stats.pj_per_bit().is_finite());
    }

    #[test]
    fn utilization_scaled_never_exceeds_always_on() {
        // Carried wire bits can never exceed the fabric's link capacity, so
        // utilization-scaled transceiver + FEC energy is bounded by the
        // always-on term — for any (conserving) traffic split.
        let always = paper_model(EnergyMode::AlwaysOn);
        let util = paper_model(EnergyMode::UtilizationScaled);
        for (d, i) in [(0.0, 0.0), (1e5, 5e4), (1e7, 1e6), (1.8e7, 0.0)] {
            let a = always.account(&inputs(3, 0, d, i));
            let u = util.account(&inputs(3, 0, d, i));
            assert!(
                u.transceiver_energy_j + u.fec_energy_j
                    <= a.transceiver_energy_j + a.fec_energy_j + 1e-6
            );
            assert!((u.idle_energy_j - a.idle_energy_j).abs() < 1e-9);
        }
    }

    #[test]
    fn every_valid_fec_overhead_recovers_the_raw_rate() {
        // A 16-MCM rack on raw 25 Gbps wavelengths, derated by each
        // overhead the grid validator admits. The raw wavelengths never
        // change, so always-on power must not either, and in util mode the
        // FEC share of the wire energy is exactly the overhead.
        let raw = RackFabricConfig {
            mcm_count: 16,
            ..RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs)
        };
        let model = |mode, overhead: f64| {
            let fec = FecConfig {
                bandwidth_overhead: overhead,
                ..FecConfig::disabled()
            };
            let derated = RackFabricConfig {
                gbps_per_wavelength: raw.gbps_per_wavelength * (1.0 - overhead),
                ..raw
            };
            EnergyModel::new(mode, EnergyConfig::default(), &derated, &fec)
        };
        let always_on_w = |overhead| {
            model(EnergyMode::AlwaysOn, overhead)
                .account(&inputs(1, 0, 0.0, 0.0))
                .watts()
        };
        let reference_w = always_on_w(0.0);
        for overhead in [0.0, 0.5, 0.75, 0.9] {
            let watts = always_on_w(overhead);
            assert!(
                ((watts - reference_w) / reference_w).abs() < 1e-12,
                "overhead {overhead}: {watts} W vs {reference_w} W"
            );
            let util =
                model(EnergyMode::UtilizationScaled, overhead).account(&inputs(1, 0, 100.0, 20.0));
            let share = util.fec_energy_j / (util.transceiver_energy_j + util.fec_energy_j);
            assert!(
                (share - overhead).abs() < 1e-12,
                "overhead {overhead}: FEC share {share}"
            );
        }
    }

    #[test]
    fn reconfigurations_are_charged_per_event() {
        let model = paper_model(EnergyMode::UtilizationScaled);
        let none = model.account(&inputs(4, 0, 100.0, 0.0));
        let three = model.account(&inputs(4, 3, 100.0, 0.0));
        assert_eq!(none.reconfiguration_energy_j, 0.0);
        assert!(
            (three.reconfiguration_energy_j
                - 3.0 * EnergyConfig::default().reconfiguration_energy_j)
                .abs()
                < 1e-12
        );
        assert!(
            (three.total_joules() - none.total_joules() - three.reconfiguration_energy_j).abs()
                < 1e-9
        );
    }

    #[test]
    fn empty_scenarios_are_fully_defined() {
        for mode in [EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled] {
            let stats = paper_model(mode).account(&inputs(0, 0, 0.0, 0.0));
            assert_eq!(stats.duration_s, 0.0);
            assert_eq!(stats.total_joules(), 0.0);
            assert_eq!(stats.watts(), 0.0);
            assert!(stats.pj_per_bit().is_nan());
            assert_eq!(stats.photonic_compute_ratio(), 0.0);
        }
    }

    #[test]
    fn account_flows_uses_fabric_carried_traffic_only() {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = 16;
        let fabric = RackFabric::new(cfg);
        let report = FlowSimulator::new(&fabric, FlowSimConfig::default()).run(&[
            Flow::new(2, 2, 500.0), // MCM-local: satisfied, zero fabric energy
            Flow::new(0, 1, 100.0),
        ]);
        let model = EnergyModel::new(
            EnergyMode::UtilizationScaled,
            EnergyConfig::default(),
            &cfg,
            &FecConfig::disabled(),
        );
        let stats = model.account_flows(&report);
        assert!((stats.payload_gigabits - 100.0).abs() < 1e-9);
        let expected = 100.0e9 * 0.5e-12;
        assert!((stats.transceiver_energy_j - expected).abs() < 1e-9);
        assert_eq!(stats.fec_energy_j, 0.0);
    }

    #[test]
    fn degenerate_config_knobs_are_sanitized() {
        let fabric = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        for bad in [f64::NAN, f64::NEG_INFINITY, -3.0] {
            let config = EnergyConfig {
                epoch_duration_s: bad,
                reconfiguration_energy_j: bad,
                switch_power_per_mcm_w: bad,
                ..EnergyConfig::default()
            };
            let model = EnergyModel::new(
                EnergyMode::UtilizationScaled,
                config,
                &fabric,
                &FecConfig::cxl_lightweight(),
            );
            let stats = model.account(&inputs(4, 2, 1000.0, 100.0));
            // A degenerate knob zeroes its term instead of poisoning the
            // report with negative or NaN joules.
            assert!(stats.total_joules() >= 0.0);
            assert!(stats.total_joules().is_finite());
            assert_eq!(stats.reconfiguration_energy_j, 0.0);
            assert_eq!(stats.idle_energy_j, 0.0);
            assert!(stats.watts().is_finite());
        }
        // An infinite pJ/bit is also caught.
        let inf = EnergyConfig {
            transceiver_pj_per_bit: f64::INFINITY,
            ..EnergyConfig::default()
        };
        assert_eq!(inf.sanitized().transceiver_pj_per_bit, 0.0);
    }

    #[test]
    fn energy_mode_labels_are_stable() {
        assert_eq!(EnergyMode::AlwaysOn.label(), "always-on");
        assert_eq!(EnergyMode::UtilizationScaled.label(), "util");
    }
}
