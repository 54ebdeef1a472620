//! One expanded grid point: the [`Scenario`] itself, its load axis
//! ([`ScenarioLoad`]), its executed result ([`ScenarioResult`]), and the
//! position-independent seed derivation shared by every axis sweep.

use fabric::{RackFabricConfig, ReallocationPolicy, SpectrumPolicy};
use photonics::fec::FecConfig;
use serde::{Deserialize, Serialize};
use workloads::{DemandTimeline, TrafficPattern};

use crate::energy::{EnergyMode, EnergyStats};
use crate::hash::Fnv1a;
use crate::report::SweepRow;

/// The offered load of one scenario: a single static demand matrix, or a
/// phased [`DemandTimeline`] executed under a wavelength-reallocation
/// policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioLoad {
    /// A static demand matrix drawn from a traffic pattern.
    Pattern(TrafficPattern),
    /// A temporal demand timeline with its reallocation policy.
    Timeline(TimelineCase),
    /// A temporal demand timeline executed on the flex-grid spectrum layer
    /// under a spectrum admission/defragmentation policy.
    FlexGrid(FlexGridCase),
}

impl ScenarioLoad {
    /// Short stable label for scenario labels and report rows.
    pub fn label(&self) -> String {
        match self {
            ScenarioLoad::Pattern(p) => p.label(),
            ScenarioLoad::Timeline(tc) => {
                format!("{}~{}", tc.timeline.name, tc.policy.label())
            }
            ScenarioLoad::FlexGrid(fc) => {
                format!("{}~{}", fc.timeline.name, fc.policy.label())
            }
        }
    }

    /// The load half of the executor's physical solve key: a kind ordinal
    /// plus a string covering every load parameter that reaches the solver.
    ///
    /// Patterns key on [`TrafficPattern::memo_key`] (family, shape
    /// parameters, demand bits); temporal loads key on the timeline's
    /// [`spec_label`](workloads::DemandTimeline::spec_label) (every
    /// demand-defining phase parameter) *plus* the policy label, because —
    /// unlike the scenario seed, which excludes policies so they share
    /// demand — the policy changes what the solver computes. Display names
    /// (`DemandTimeline::name`) are deliberately absent: renaming a
    /// timeline must not split a dedup group.
    pub(crate) fn solve_key(&self) -> (u8, String) {
        match self {
            ScenarioLoad::Pattern(p) => (0, p.memo_key()),
            ScenarioLoad::Timeline(tc) => (
                1,
                format!("{}~{}", tc.timeline.spec_label(), tc.policy.label()),
            ),
            ScenarioLoad::FlexGrid(fc) => (
                2,
                format!("{}~{}", fc.timeline.spec_label(), fc.policy.label()),
            ),
        }
    }
}

/// One point on the temporal load axis: a timeline and the policy it runs
/// under. Policies are *excluded* from the scenario seed, so every policy
/// is evaluated against the identical epoch-by-epoch demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineCase {
    /// The phased demand schedule.
    pub timeline: DemandTimeline,
    /// The wavelength-reallocation policy.
    pub policy: ReallocationPolicy,
}

/// One point on the flex-grid load axis: a timeline and the spectrum policy
/// it runs under. Like [`TimelineCase`] policies, spectrum policies are
/// *excluded* from the scenario seed — every policy (and the wavelength
/// layer itself) is graded against the identical epoch-by-epoch demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexGridCase {
    /// The phased demand schedule.
    pub timeline: DemandTimeline,
    /// The spectrum admission/defragmentation policy.
    pub policy: SpectrumPolicy,
}

/// Flex-grid-specific per-row metrics carried by [`ScenarioResult`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlexGridRowMetrics {
    /// Blocked requests / non-trivial requests across the timeline.
    pub blocking_probability: f64,
    /// Mean over epochs of the per-link external fragmentation index.
    pub fragmentation_index: f64,
    /// Mean over epochs of frequency slots booked across all links.
    pub slots_in_use: f64,
    /// Number of epochs that triggered a full spectrum repack.
    pub defrag_events: f64,
}

/// One expanded grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Position in grid-expansion order.
    pub index: usize,
    /// Rack fabric configuration (wavelength rate already FEC-derated).
    pub fabric: RackFabricConfig,
    /// FEC pipeline applied to the wavelength rate.
    pub fec: FecConfig,
    /// Offered load: a static pattern or a demand timeline with its policy.
    pub load: ScenarioLoad,
    /// One-way direct fabric latency (ns).
    pub direct_latency_ns: f64,
    /// Energy-accounting mode, `None` when the grid's energy axis is unset.
    /// Excluded from the scenario seed: both modes see identical demand.
    pub energy_mode: Option<EnergyMode>,
    /// Replicate number within the grid point.
    pub replicate: u32,
    /// Deterministic seed derived from the traffic-defining parameters
    /// (load, rack size, replicate) — shared across the fabric, DWDM,
    /// FEC, latency, and reallocation-policy axes so those sweeps compare
    /// under identical load.
    pub seed: u64,
}

impl Scenario {
    /// Short human-readable label covering every grid axis, so rows stay
    /// distinguishable whichever axes a grid varies. (Two FEC configs that
    /// differ only in fields other than `bandwidth_overhead` execute
    /// identically and share a label.)
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-n{}-f{}w{}g{}-{}-l{}-r{}",
            self.fabric.kind.label(),
            self.fabric.mcm_count,
            self.fabric.fibers_per_mcm,
            self.fabric.wavelengths_per_fiber,
            self.fabric.gbps_per_wavelength,
            self.load.label(),
            self.direct_latency_ns,
            self.replicate
        );
        if let Some(mode) = self.energy_mode {
            label.push('-');
            label.push_str(mode.label());
        }
        label
    }

    /// The scenario's input parameters as display pairs for report rows.
    pub fn params(&self) -> Vec<(String, String)> {
        let mut params = vec![
            ("fabric".into(), self.fabric.kind.label().into()),
            ("mcms".into(), self.fabric.mcm_count.to_string()),
            ("fibers".into(), self.fabric.fibers_per_mcm.to_string()),
            (
                "wavelengths".into(),
                self.fabric.wavelengths_per_fiber.to_string(),
            ),
            (
                "gbps_per_wavelength".into(),
                format!("{}", self.fabric.gbps_per_wavelength),
            ),
            (
                "fec_overhead".into(),
                format!("{}", self.fec.bandwidth_overhead),
            ),
        ];
        match &self.load {
            ScenarioLoad::Pattern(p) => params.push(("pattern".into(), p.label())),
            ScenarioLoad::Timeline(tc) => {
                params.push(("timeline".into(), tc.timeline.name.clone()));
                params.push(("policy".into(), tc.policy.label()));
                params.push(("epochs".into(), tc.timeline.total_epochs().to_string()));
            }
            ScenarioLoad::FlexGrid(fc) => {
                params.push(("timeline".into(), fc.timeline.name.clone()));
                params.push(("spectrum".into(), fc.policy.label()));
                params.push(("epochs".into(), fc.timeline.total_epochs().to_string()));
            }
        }
        if let Some(mode) = self.energy_mode {
            params.push(("energy".into(), mode.label().into()));
        }
        params.extend([
            ("latency_ns".into(), format!("{}", self.direct_latency_ns)),
            ("replicate".into(), self.replicate.to_string()),
            ("seed".into(), self.seed.to_string()),
        ]);
        params
    }
}

/// Result of one executed scenario (the flow-level aggregates of
/// [`fabric::FlowSimReport`] without the per-flow allocations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// Number of flows in the demand matrix.
    pub flows: usize,
    /// Total offered demand (Gbps).
    pub offered_gbps: f64,
    /// Total satisfied demand (Gbps).
    pub satisfied_gbps: f64,
    /// Overall throughput satisfaction in `[0, 1]`.
    pub satisfaction: f64,
    /// Fraction of flows fully served by direct wavelengths.
    pub direct_only_fraction: f64,
    /// Fraction of flows that needed indirect routing.
    pub indirect_fraction: f64,
    /// Fraction of flows with unmet demand.
    pub unsatisfied_fraction: f64,
    /// Demand-weighted mean latency (ns).
    pub mean_latency_ns: f64,
    /// Number of epochs executed (1 for static pattern scenarios).
    pub epochs: usize,
    /// Wavelength reconfigurations performed after the initial assignment
    /// (always 0 for static pattern scenarios).
    pub reconfigurations: usize,
    /// Energy accounting, present iff the scenario carries an energy mode.
    pub energy: Option<EnergyStats>,
    /// Flex-grid spectrum metrics, present iff the load is a
    /// [`ScenarioLoad::FlexGrid`].
    pub flexgrid: Option<FlexGridRowMetrics>,
}

impl ScenarioResult {
    /// Convert to the unified report-row schema. Temporal scenarios gain
    /// `epochs` and `reconfigurations` metrics; static pattern rows keep
    /// the original metric set.
    pub fn to_row(&self) -> SweepRow {
        let mut metrics = vec![
            ("flows".to_string(), self.flows as f64),
            ("offered_gbps".to_string(), self.offered_gbps),
            ("satisfied_gbps".to_string(), self.satisfied_gbps),
            ("satisfaction".to_string(), self.satisfaction),
            (
                "direct_only_fraction".to_string(),
                self.direct_only_fraction,
            ),
            ("indirect_fraction".to_string(), self.indirect_fraction),
            (
                "unsatisfied_fraction".to_string(),
                self.unsatisfied_fraction,
            ),
            ("mean_latency_ns".to_string(), self.mean_latency_ns),
        ];
        if matches!(self.scenario.load, ScenarioLoad::Timeline(_)) {
            metrics.push(("epochs".to_string(), self.epochs as f64));
            metrics.push(("reconfigurations".to_string(), self.reconfigurations as f64));
        }
        if let Some(fg) = &self.flexgrid {
            metrics.push(("epochs".to_string(), self.epochs as f64));
            metrics.push(("blocking_probability".to_string(), fg.blocking_probability));
            metrics.push(("fragmentation_index".to_string(), fg.fragmentation_index));
            metrics.push(("slots_in_use".to_string(), fg.slots_in_use));
            metrics.push(("defrag_events".to_string(), fg.defrag_events));
        }
        if let Some(e) = &self.energy {
            metrics.push(("energy_j".to_string(), e.total_joules()));
            metrics.push(("mean_power_w".to_string(), e.watts()));
            metrics.push(("pj_per_bit".to_string(), e.pj_per_bit()));
            metrics.push((
                "photonic_compute_ratio".to_string(),
                e.photonic_compute_ratio(),
            ));
            metrics.push((
                "reconfiguration_energy_j".to_string(),
                e.reconfiguration_energy_j,
            ));
        }
        SweepRow {
            label: self.scenario.label(),
            params: self.scenario.params(),
            metrics,
        }
    }
}

/// Derive the per-scenario seed by hashing (FNV-1a) into the grid's base
/// seed exactly the parameters that define the offered traffic: the
/// pattern (or the timeline's full phase spec), the rack size it expands
/// over, and the replicate number.
///
/// Deliberately excluded: fabric kind, fibers, wavelengths, data rate, FEC,
/// latency, and — in temporal mode — the reallocation policy. Scenarios
/// that differ only along those axes therefore offer the *same* demand
/// (matrix or epoch sequence), so an axis sweep compares fabrics and
/// policies under identical load instead of attributing traffic-sampling
/// noise to the swept axis. The hash is position-independent: extending an
/// axis never changes the seeds of existing scenarios.
pub(super) fn scenario_seed(base: u64, mcm_count: u32, load: &ScenarioLoad, replicate: u32) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(base);
    h.write_u64(mcm_count as u64);
    match load {
        ScenarioLoad::Pattern(pattern) => {
            h.write(pattern.label().as_bytes());
            h.write_u64(pattern.demand_gbps().to_bits());
        }
        ScenarioLoad::Timeline(tc) => {
            h.write(b"timeline:");
            h.write(tc.timeline.spec_label().as_bytes());
        }
        // Flex-grid cases hash exactly like wavelength-timeline cases (the
        // spectrum policy is excluded, like the reallocation policy), so the
        // two layers — and every policy within each — share each timeline's
        // epoch-by-epoch demand.
        ScenarioLoad::FlexGrid(fc) => {
            h.write(b"timeline:");
            h.write(fc.timeline.spec_label().as_bytes());
        }
    }
    h.write_u64(replicate as u64);
    h.finish()
}
