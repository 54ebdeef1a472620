//! The declarative grid: axis builders and the lazy, O(1)-indexed
//! [`ScenarioIter`] expansion.

use fabric::{FabricKind, RackFabricConfig, ReallocationPolicy, SpectrumPolicy};
use photonics::fec::FecConfig;
use workloads::{DemandTimeline, TrafficPattern};

use crate::codec::DecodeError;
use crate::energy::{EnergyConfig, EnergyMode};
use crate::sweep::scenario::{scenario_seed, FlexGridCase, Scenario, ScenarioLoad, TimelineCase};

/// A declarative cartesian scenario grid.
///
/// Axes default to the paper's design point (350-MCM AWGR rack, 32 fibers of
/// 64 x 25 Gbps wavelengths, CXL-lightweight FEC, a uniform 4-flows-per-MCM
/// pattern at 100 Gbps, 35 ns direct latency, one replicate), so a grid
/// definition only states what it varies. An axis set to an empty list
/// expands to zero scenarios.
///
/// # Example
///
/// ```
/// use disagg_core::sweep::SweepGrid;
/// use fabric::FabricKind;
/// use workloads::TrafficPattern;
///
/// let grid = SweepGrid::named("example")
///     .mcm_counts([16, 32])
///     .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
///     .patterns([TrafficPattern::Permutation { demand_gbps: 200.0 }])
///     .direct_latencies_ns([35.0]);
/// assert_eq!(grid.scenario_count(), 4);
///
/// let report = grid.run();
/// assert_eq!(report.rows.len(), 4);
/// // Same grid, same bytes — serial or parallel.
/// assert_eq!(report.to_json(), grid.run_serial().to_json());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Report name.
    pub name: String,
    /// Fabric constructions to instantiate.
    pub fabric_kinds: Vec<FabricKind>,
    /// Rack sizes (MCMs per rack).
    pub mcm_counts: Vec<u32>,
    /// Escape fibers per MCM.
    pub fibers_per_mcm: Vec<u32>,
    /// DWDM wavelengths per fiber.
    pub wavelengths_per_fiber: Vec<u32>,
    /// Raw data rate per wavelength in Gbps (before FEC overhead).
    pub gbps_per_wavelength: Vec<f64>,
    /// FEC pipelines; each derates the effective wavelength rate by its
    /// bandwidth overhead. (Latency budgets in `direct_latencies_ns` are
    /// totals — the paper's 35 ns point already includes ~2.5 ns of FEC.)
    pub fec_configs: Vec<FecConfig>,
    /// Traffic patterns to offer. Ignored when `timelines` is non-empty
    /// (the grid then sweeps the temporal axis instead).
    pub patterns: Vec<TrafficPattern>,
    /// Demand timelines to offer. When non-empty, the load axis becomes the
    /// cartesian product `timelines x realloc_policies` and the `patterns`
    /// axis is ignored.
    pub timelines: Vec<DemandTimeline>,
    /// Wavelength-reallocation policies swept against each timeline. Only
    /// meaningful when `timelines` is non-empty and `spectrum_policies` is
    /// empty.
    pub realloc_policies: Vec<ReallocationPolicy>,
    /// Flex-grid spectrum policies. When non-empty (and `timelines` is too),
    /// the grid switches to the elastic-optical layer: the load axis becomes
    /// `timelines x spectrum_policies` and `realloc_policies` is ignored.
    pub spectrum_policies: Vec<SpectrumPolicy>,
    /// One-way direct fabric latencies in nanoseconds.
    pub direct_latencies_ns: Vec<f64>,
    /// Energy-accounting modes to sweep (always-on vs utilization-scaled
    /// transceivers). Empty (the default) disables energy accounting
    /// entirely: no extra scenarios, no energy metrics, and no `energy`
    /// block in the report.
    pub energy_modes: Vec<EnergyMode>,
    /// Knobs of the energy layer shared by every scenario (pJ/bit, per-MCM
    /// switch and compute power floors, epoch duration, per-event
    /// reconfiguration energy). Only read when `energy_modes` is non-empty.
    pub energy_config: EnergyConfig,
    /// Replicates per grid point (each gets an independent derived seed).
    pub replicates: u32,
    /// Base seed all per-scenario seeds are derived from.
    pub base_seed: u64,
    /// Additional latency per indirect hop in nanoseconds.
    pub indirect_hop_latency_ns: f64,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid {
            name: "sweep".to_string(),
            fabric_kinds: vec![FabricKind::ParallelAwgrs],
            mcm_counts: vec![350],
            fibers_per_mcm: vec![32],
            wavelengths_per_fiber: vec![64],
            gbps_per_wavelength: vec![25.0],
            fec_configs: vec![FecConfig::cxl_lightweight()],
            patterns: vec![TrafficPattern::Uniform {
                flows_per_mcm: 4,
                demand_gbps: 100.0,
            }],
            timelines: Vec::new(),
            realloc_policies: vec![ReallocationPolicy::GreedyResteer],
            spectrum_policies: Vec::new(),
            direct_latencies_ns: vec![35.0],
            energy_modes: Vec::new(),
            energy_config: EnergyConfig::default(),
            replicates: 1,
            base_seed: 0xD15A66,
            indirect_hop_latency_ns: 8.0,
        }
    }
}

impl SweepGrid {
    /// The default (paper design point) grid under a given report name.
    pub fn named(name: impl Into<String>) -> Self {
        SweepGrid {
            name: name.into(),
            ..SweepGrid::default()
        }
    }

    /// Set the fabric-construction axis.
    pub fn fabric_kinds(mut self, kinds: impl IntoIterator<Item = FabricKind>) -> Self {
        self.fabric_kinds = kinds.into_iter().collect();
        self
    }

    /// Set the rack-size axis.
    pub fn mcm_counts(mut self, counts: impl IntoIterator<Item = u32>) -> Self {
        self.mcm_counts = counts.into_iter().collect();
        self
    }

    /// Set the fibers-per-MCM axis.
    pub fn fibers_per_mcm(mut self, fibers: impl IntoIterator<Item = u32>) -> Self {
        self.fibers_per_mcm = fibers.into_iter().collect();
        self
    }

    /// Set the DWDM wavelengths-per-fiber axis.
    pub fn wavelengths_per_fiber(mut self, wavelengths: impl IntoIterator<Item = u32>) -> Self {
        self.wavelengths_per_fiber = wavelengths.into_iter().collect();
        self
    }

    /// Set the per-wavelength data-rate axis (Gbps).
    pub fn gbps_per_wavelength(mut self, gbps: impl IntoIterator<Item = f64>) -> Self {
        self.gbps_per_wavelength = gbps.into_iter().collect();
        self
    }

    /// Set the FEC-configuration axis.
    pub fn fec_configs(mut self, fecs: impl IntoIterator<Item = FecConfig>) -> Self {
        self.fec_configs = fecs.into_iter().collect();
        self
    }

    /// Set the traffic-pattern axis.
    pub fn patterns(mut self, patterns: impl IntoIterator<Item = TrafficPattern>) -> Self {
        self.patterns = patterns.into_iter().collect();
        self
    }

    /// Set the demand-timeline axis. A non-empty timeline axis switches the
    /// grid into temporal mode: the load axis becomes
    /// `timelines x realloc_policies` and `patterns` is ignored.
    pub fn timelines(mut self, timelines: impl IntoIterator<Item = DemandTimeline>) -> Self {
        self.timelines = timelines.into_iter().collect();
        self
    }

    /// Set the wavelength-reallocation-policy axis (temporal mode only).
    pub fn realloc_policies(
        mut self,
        policies: impl IntoIterator<Item = ReallocationPolicy>,
    ) -> Self {
        self.realloc_policies = policies.into_iter().collect();
        self
    }

    /// Set the flex-grid spectrum-policy axis. With a non-empty timeline
    /// axis this switches the grid onto the elastic-optical spectrum layer:
    /// the load axis becomes `timelines x spectrum_policies`, rows gain
    /// blocking-probability / fragmentation / slots-in-use metrics, and
    /// `realloc_policies` is ignored.
    ///
    /// # Example
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    /// use fabric::SpectrumPolicy;
    /// use workloads::DemandTimeline;
    ///
    /// let report = SweepGrid::named("fg")
    ///     .mcm_counts([16])
    ///     .timelines([DemandTimeline::elastic_churn(300.0, 2)])
    ///     .spectrum_policies([SpectrumPolicy::parse("firstfit").unwrap()])
    ///     .run();
    /// assert_eq!(report.rows.len(), 1);
    /// assert!(report.rows[0].metric("blocking_probability").is_some());
    /// ```
    pub fn spectrum_policies(mut self, policies: impl IntoIterator<Item = SpectrumPolicy>) -> Self {
        self.spectrum_policies = policies.into_iter().collect();
        self
    }

    /// Set the direct-latency axis (ns).
    pub fn direct_latencies_ns(mut self, latencies: impl IntoIterator<Item = f64>) -> Self {
        self.direct_latencies_ns = latencies.into_iter().collect();
        self
    }

    /// Set the energy-accounting axis. Energy modes are excluded from the
    /// per-scenario seed (they never change the offered traffic), so both
    /// modes of a grid point are accounted against the identical demand.
    ///
    /// # Example
    ///
    /// ```
    /// use disagg_core::energy::EnergyMode;
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let report = SweepGrid::named("e")
    ///     .mcm_counts([16])
    ///     .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
    ///     .run();
    /// assert_eq!(report.rows.len(), 2);
    /// assert_eq!(report.energy.len(), 2);
    /// // Always-on transceivers never draw less than utilization-scaled.
    /// assert!(
    ///     report.rows[0].metric("energy_j").unwrap()
    ///         >= report.rows[1].metric("energy_j").unwrap()
    /// );
    /// ```
    pub fn energy_modes(mut self, modes: impl IntoIterator<Item = EnergyMode>) -> Self {
        self.energy_modes = modes.into_iter().collect();
        self
    }

    /// Override the energy layer's shared knobs (pJ/bit, floors, epoch
    /// duration, reconfiguration energy).
    pub fn energy_config(mut self, config: EnergyConfig) -> Self {
        self.energy_config = config;
        self
    }

    /// Set the number of replicates per grid point (at least 1:
    /// [`validate`](SweepGrid::validate) rejects 0).
    pub fn replicates(mut self, replicates: u32) -> Self {
        self.replicates = replicates;
        self
    }

    /// Set the base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Check that every axis value makes physical sense. The one validator
    /// behind the grid CLIs (`sweep`, `timeline`, `energy`, `flexgrid`) and
    /// [`SweepGrid::from_json`]; each error names its field:
    ///
    /// - `mcm_counts` below 2 (a fabric connects at least two MCMs; a
    ///   smaller rack would "solve" to rows with nothing offered),
    /// - `fibers_per_mcm` or `wavelengths_per_fiber` of 0, or `replicates`
    ///   of 0,
    /// - `gbps_per_wavelength` non-finite or not above 0,
    /// - a timeline with no `phases`, or a phase of 0 `epochs` (it would
    ///   report full satisfaction over nothing offered),
    /// - `direct_latencies_ns` or `indirect_hop_latency_ns` non-finite or
    ///   below 0,
    /// - a pattern's or timeline phase's `demand_gbps`, or a phase's
    ///   `start_scale`/`end_scale`, non-finite or below 0 (two negatives
    ///   would otherwise multiply into a positive demand),
    /// - a hotspot pattern's `hot_mcms` not below the smallest
    ///   `mcm_counts` entry (every MCM would be hot, so the rack would send
    ///   nothing and report full satisfaction),
    /// - a `fec_configs` entry's `flit_bits` of 0, `latency_ns` non-finite
    ///   or below 0, `crc_escape_probability` non-finite or outside [0, 1],
    ///   or `bandwidth_overhead` non-finite or outside [0, 1),
    /// - any `energy_config` knob non-finite or below 0.
    ///
    /// An empty axis is legal: it expands to zero scenarios, and so is a
    /// demand of 0.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// assert!(SweepGrid::default().mcm_counts([2, 350]).validate().is_ok());
    /// let err = SweepGrid::default().mcm_counts([16, 1]).validate().unwrap_err();
    /// assert!(err.starts_with("mcm_counts:"), "{err}");
    /// let err = SweepGrid::default().gbps_per_wavelength([f64::NAN]).validate().unwrap_err();
    /// assert!(err.starts_with("gbps_per_wavelength:"), "{err}");
    /// ```
    pub fn validate(&self) -> Result<(), DecodeError> {
        if let Some(n) = self.mcm_counts.iter().find(|&&n| n < 2) {
            return Err(format!(
                "mcm_counts: a rack of {n} MCMs has no fabric to sweep (need at least 2)"
            ));
        }
        for (field, counts) in [
            ("fibers_per_mcm", &self.fibers_per_mcm),
            ("wavelengths_per_fiber", &self.wavelengths_per_fiber),
        ] {
            if counts.contains(&0) {
                return Err(format!("{field}: 0 carries no bandwidth (need at least 1)"));
            }
        }
        if self.replicates == 0 {
            return Err("replicates: 0 runs nothing (need at least 1)".to_string());
        }
        if let Some(g) = self
            .gbps_per_wavelength
            .iter()
            .find(|g| !(g.is_finite() && **g > 0.0))
        {
            return Err(format!(
                "gbps_per_wavelength: {g} is not a rate (need finite and above 0)"
            ));
        }
        for &ns in &self.direct_latencies_ns {
            at_least_zero("direct_latencies_ns", ns, "a latency")?;
        }
        at_least_zero(
            "indirect_hop_latency_ns",
            self.indirect_hop_latency_ns,
            "a latency",
        )?;
        let smallest_rack = self.mcm_counts.iter().min().copied();
        for (i, pattern) in self.patterns.iter().enumerate() {
            check_pattern(&format!("patterns[{i}]"), pattern, smallest_rack)?;
        }
        for (t, timeline) in self.timelines.iter().enumerate() {
            if timeline.phases.is_empty() {
                return Err(format!(
                    "timelines[{t}].phases: a timeline without phases simulates nothing \
                     (need at least 1)"
                ));
            }
            for (p, phase) in timeline.phases.iter().enumerate() {
                let at = format!("timelines[{t}].phases[{p}]");
                if phase.epochs == 0 {
                    return Err(format!(
                        "{at}.epochs: 0 epochs simulate nothing (need at least 1)"
                    ));
                }
                check_pattern(&format!("{at}.pattern"), &phase.pattern, None)?;
                at_least_zero(&format!("{at}.start_scale"), phase.start_scale, "a scale")?;
                at_least_zero(&format!("{at}.end_scale"), phase.end_scale, "a scale")?;
            }
        }
        for (i, fec) in self.fec_configs.iter().enumerate() {
            if fec.flit_bits == 0 {
                return Err(format!(
                    "fec_configs[{i}].flit_bits: 0 bits is not a flit (need at least 1)"
                ));
            }
            at_least_zero(
                &format!("fec_configs[{i}].latency_ns"),
                fec.latency_ns,
                "a latency",
            )?;
            let escape = fec.crc_escape_probability;
            if !(0.0..=1.0).contains(&escape) {
                return Err(format!(
                    "fec_configs[{i}].crc_escape_probability: {escape} is not a \
                     probability (need finite and in [0, 1])"
                ));
            }
            let overhead = fec.bandwidth_overhead;
            if !(0.0..1.0).contains(&overhead) {
                return Err(format!(
                    "fec_configs[{i}].bandwidth_overhead: {overhead} is not an overhead \
                     fraction (need finite, at least 0 and below 1)"
                ));
            }
        }
        let c = &self.energy_config;
        for (field, value) in [
            ("transceiver_pj_per_bit", c.transceiver_pj_per_bit),
            ("switch_power_per_mcm_w", c.switch_power_per_mcm_w),
            ("compute_power_per_mcm_w", c.compute_power_per_mcm_w),
            ("epoch_duration_s", c.epoch_duration_s),
            ("reconfiguration_energy_j", c.reconfiguration_energy_j),
        ] {
            at_least_zero(&format!("energy_config.{field}"), value, "an energy knob")?;
        }
        Ok(())
    }

    /// The load axis the grid sweeps: the traffic patterns, or — in
    /// temporal mode — every timeline under every reallocation policy (or,
    /// when the spectrum axis is set, every flex-grid spectrum policy).
    pub fn loads(&self) -> Vec<ScenarioLoad> {
        if self.timelines.is_empty() {
            self.patterns
                .iter()
                .map(|&p| ScenarioLoad::Pattern(p))
                .collect()
        } else if !self.spectrum_policies.is_empty() {
            self.timelines
                .iter()
                .flat_map(|t| {
                    self.spectrum_policies.iter().map(move |&policy| {
                        ScenarioLoad::FlexGrid(FlexGridCase {
                            timeline: t.clone(),
                            policy,
                        })
                    })
                })
                .collect()
        } else {
            self.timelines
                .iter()
                .flat_map(|t| {
                    self.realloc_policies.iter().map(move |&policy| {
                        ScenarioLoad::Timeline(TimelineCase {
                            timeline: t.clone(),
                            policy,
                        })
                    })
                })
                .collect()
        }
    }

    /// Number of scenarios the grid expands to (the product of all axis
    /// lengths times the replicate count).
    pub fn scenario_count(&self) -> usize {
        let loads = if self.timelines.is_empty() {
            self.patterns.len()
        } else if !self.spectrum_policies.is_empty() {
            self.timelines.len() * self.spectrum_policies.len()
        } else {
            self.timelines.len() * self.realloc_policies.len()
        };
        self.fabric_kinds.len()
            * self.mcm_counts.len()
            * self.fibers_per_mcm.len()
            * self.wavelengths_per_fiber.len()
            * self.gbps_per_wavelength.len()
            * self.fec_configs.len()
            * loads
            * self.direct_latencies_ns.len()
            * self.energy_modes.len().max(1)
            * self.replicates.max(1) as usize
    }

    /// The energy axis as expanded: `[None]` (accounting off) when no modes
    /// are set, otherwise one `Some` per configured mode.
    pub(super) fn energy_axis(&self) -> Vec<Option<EnergyMode>> {
        if self.energy_modes.is_empty() {
            vec![None]
        } else {
            self.energy_modes.iter().copied().map(Some).collect()
        }
    }

    /// Lazily iterate the grid's scenarios in axis-declaration order
    /// (fabric kind outermost, replicate innermost) without materializing
    /// them: each scenario is decoded O(1) from its cartesian-product row
    /// index. This is the streaming substrate `run` executes on — a
    /// multi-million-row grid never exists as a `Vec<Scenario>`.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let grid = SweepGrid::named("lazy").mcm_counts([16, 24]).replicates(500_000);
    /// let scenarios = grid.scenarios();
    /// assert_eq!(scenarios.len(), 1_000_000);
    /// // Random access decodes without expanding the million rows.
    /// assert_eq!(scenarios.get(999_999).unwrap().replicate, 499_999);
    /// ```
    pub fn scenarios(&self) -> ScenarioIter<'_> {
        ScenarioIter {
            len: self.scenario_count(),
            loads: self.loads(),
            energy_axis: self.energy_axis(),
            grid: self,
            next: 0,
        }
    }

    /// Expand the grid into concrete scenarios, in axis-declaration order
    /// (fabric kind outermost, replicate innermost).
    ///
    /// This materializes the whole grid; prefer [`SweepGrid::scenarios`]
    /// (or the streaming runners built on it) for large grids.
    pub fn expand(&self) -> Vec<Scenario> {
        self.scenarios().collect()
    }
}

/// Lazy, indexed iterator over a grid's scenarios (from
/// [`SweepGrid::scenarios`]).
///
/// Every scenario is decoded on demand from its row index by peeling
/// mixed-radix digits off the cartesian product — replicate innermost,
/// fabric kind outermost — so both sequential iteration and random access
/// ([`ScenarioIter::get`]) are O(1) per scenario in the grid size. Only the
/// small load axis (`patterns` or `timelines x policies`) is materialized
/// up front.
#[derive(Debug, Clone)]
pub struct ScenarioIter<'g> {
    grid: &'g SweepGrid,
    loads: Vec<ScenarioLoad>,
    energy_axis: Vec<Option<EnergyMode>>,
    next: usize,
    len: usize,
}

impl ScenarioIter<'_> {
    /// Decode the scenario at `index` in grid-expansion order, without
    /// advancing the iterator. `None` past the end.
    pub fn get(&self, index: usize) -> Option<Scenario> {
        (index < self.len).then(|| self.decode(index))
    }

    fn decode(&self, index: usize) -> Scenario {
        let g = self.grid;
        let mut rem = index;
        let mut digit = |len: usize| {
            let d = rem % len;
            rem /= len;
            d
        };
        // Innermost (fastest-varying) axis first: the mirror image of the
        // nested expansion loops this decoder replaced.
        let replicate = digit(g.replicates.max(1) as usize) as u32;
        let energy_mode = self.energy_axis[digit(self.energy_axis.len())];
        let latency = g.direct_latencies_ns[digit(g.direct_latencies_ns.len())];
        let load = &self.loads[digit(self.loads.len())];
        let fec = g.fec_configs[digit(g.fec_configs.len())];
        let gbps = g.gbps_per_wavelength[digit(g.gbps_per_wavelength.len())];
        let wavelengths = g.wavelengths_per_fiber[digit(g.wavelengths_per_fiber.len())];
        let fibers = g.fibers_per_mcm[digit(g.fibers_per_mcm.len())];
        let mcm_count = g.mcm_counts[digit(g.mcm_counts.len())];
        let kind = g.fabric_kinds[digit(g.fabric_kinds.len())];
        debug_assert_eq!(rem, 0, "index {index} exceeds the grid");
        Scenario {
            index,
            fabric: derated_fabric(kind, mcm_count, fibers, wavelengths, gbps, &fec),
            fec,
            load: load.clone(),
            direct_latency_ns: latency,
            energy_mode,
            replicate,
            seed: scenario_seed(g.base_seed, mcm_count, load, replicate),
        }
    }
}

impl Iterator for ScenarioIter<'_> {
    type Item = Scenario;

    fn next(&mut self) -> Option<Scenario> {
        let scenario = self.get(self.next)?;
        self.next += 1;
        Some(scenario)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ScenarioIter<'_> {}

/// The fabric a scenario runs on: its hardware axes, with the wavelength
/// rate derated by the FEC's bandwidth overhead. Scenario decode and the
/// fabric cache both build fabrics here, so every lookup finds its fabric.
pub(crate) fn derated_fabric(
    kind: FabricKind,
    mcm_count: u32,
    fibers_per_mcm: u32,
    wavelengths_per_fiber: u32,
    gbps: f64,
    fec: &FecConfig,
) -> RackFabricConfig {
    RackFabricConfig {
        mcm_count,
        fibers_per_mcm,
        wavelengths_per_fiber,
        gbps_per_wavelength: gbps * (1.0 - fec.bandwidth_overhead),
        kind,
    }
}

/// Rejects a pattern at `at` whose demand is not a demand, or whose count
/// `TrafficPattern::flows` would clamp to another value, so the row label
/// never names a pattern other than the one solved: a hot set or reach of
/// 0 and, within `smallest_rack`, a hot set that leaves no sender or a
/// reach beyond half the rack.
fn check_pattern(
    at: &str,
    pattern: &TrafficPattern,
    smallest_rack: Option<u32>,
) -> Result<(), DecodeError> {
    let demand = pattern.demand_gbps();
    at_least_zero(&format!("{at}.demand_gbps"), demand, "a demand")?;
    match *pattern {
        TrafficPattern::HotSpot { hot_mcms: 0, .. } => Err(format!(
            "{at}.hot_mcms: 0 hot MCMs receive no flow (need at least 1)"
        )),
        TrafficPattern::NearestNeighbor { neighbors: 0, .. } => Err(format!(
            "{at}.neighbors: 0 neighbours receive no flow (need at least 1)"
        )),
        TrafficPattern::HotSpot { hot_mcms, .. } => match smallest_rack {
            Some(n) if hot_mcms >= n => Err(format!(
                "{at}.hot_mcms: {hot_mcms} hot MCMs leave no sender in a rack of {n} \
                 (need below the smallest mcm_counts entry)"
            )),
            _ => Ok(()),
        },
        TrafficPattern::NearestNeighbor { neighbors, .. } => match smallest_rack {
            Some(n) if neighbors > n / 2 => Err(format!(
                "{at}.neighbors: {neighbors} neighbours on each side overlap in a rack of \
                 {n} (need at most half the smallest mcm_counts entry)"
            )),
            _ => Ok(()),
        },
        _ => Ok(()),
    }
}

/// `Ok` when `value` is finite and at least 0; otherwise the error naming
/// `field` that [`SweepGrid::validate`] returns.
fn at_least_zero(field: &str, value: f64, what: &str) -> Result<(), DecodeError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{field}: {value} is not {what} (need finite and at least 0)"
        ))
    }
}
