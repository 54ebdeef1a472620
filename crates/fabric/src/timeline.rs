//! Epoch-based temporal simulation with wavelength-reallocation policies.
//!
//! The paper's bandwidth-steering argument (Section VI-A) is temporal: HPC
//! traffic shifts over an application's lifetime, and the photonic fabric
//! can re-steer wavelengths to follow it. [`TimelineSimulator`] makes that
//! argument quantitative: it consumes one demand matrix per *epoch* (a
//! reconfiguration interval), maintains a persistent wavelength *steering
//! state* — the per-pair capacity granted by running the flow-level
//! allocator ([`FlowSimulator`]) on some reference matrix — and evaluates
//! each epoch's actual demand against it under a configurable
//! [`ReallocationPolicy`]:
//!
//! * [`Static`](ReallocationPolicy::Static) — wavelengths are assigned once
//!   for the first epoch's demand and never move (no reconfiguration
//!   machinery, but the assignment goes stale as traffic shifts);
//! * [`GreedyResteer`](ReallocationPolicy::GreedyResteer) — the assignment
//!   is recomputed whenever the offered matrix changes (an upper bound on
//!   steering agility, at one reconfiguration per change);
//! * [`Hysteresis`](ReallocationPolicy::Hysteresis) — the assignment is
//!   kept until its delivered satisfaction drops below a threshold, trading
//!   a bounded satisfaction loss for fewer reconfigurations.
//!
//! Per-epoch and aggregate satisfaction, latency, and reconfiguration
//! counts land in [`TimelineReport`]. Demand matrices typically come from
//! `workloads::timeline::DemandTimeline`; this module stays
//! workload-agnostic by taking plain `&[Vec<Flow>]`.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::flowsim::{Flow, FlowArena, FlowSimConfig, FlowSimulator};
use crate::rackfabric::{FabricKind, RackFabric, RackFabricConfig};

/// When (and whether) the fabric recomputes its wavelength assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReallocationPolicy {
    /// Assign wavelengths for the first epoch's demand, then never move
    /// them.
    Static,
    /// Re-run the wavelength allocator every time the offered matrix
    /// changes.
    GreedyResteer,
    /// Keep the current assignment until its delivered satisfaction drops
    /// below `min_satisfaction`, then re-steer for the current matrix.
    Hysteresis {
        /// Satisfaction threshold in `[0, 1]` below which the fabric
        /// re-steers.
        min_satisfaction: f64,
    },
}

impl ReallocationPolicy {
    /// Short stable label for report rows and CLI parsing.
    pub fn label(&self) -> String {
        match self {
            ReallocationPolicy::Static => "static".to_string(),
            ReallocationPolicy::GreedyResteer => "greedy".to_string(),
            ReallocationPolicy::Hysteresis { min_satisfaction } => {
                format!("hyst{min_satisfaction}")
            }
        }
    }

    /// Parse a label produced by [`ReallocationPolicy::label`]: `static`,
    /// `greedy`, or `hystX` with a threshold `X` in `[0, 1]`. `None` for
    /// anything else, including a non-finite or out-of-range threshold.
    ///
    /// ```
    /// use fabric::ReallocationPolicy;
    /// assert_eq!(
    ///     ReallocationPolicy::parse("hyst0.9"),
    ///     Some(ReallocationPolicy::Hysteresis { min_satisfaction: 0.9 })
    /// );
    /// assert_eq!(ReallocationPolicy::parse("hystNaN"), None);
    /// assert_eq!(ReallocationPolicy::parse("hyst7"), None);
    /// ```
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "static" => Some(ReallocationPolicy::Static),
            "greedy" => Some(ReallocationPolicy::GreedyResteer),
            _ => text
                .strip_prefix("hyst")?
                .parse()
                .ok()
                .filter(|t| (0.0..=1.0).contains(t))
                .map(|min_satisfaction| ReallocationPolicy::Hysteresis { min_satisfaction }),
        }
    }
}

/// Configuration of one timeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// Flow-level allocator parameters (latencies and the steering seed).
    pub flow: FlowSimConfig,
    /// Reallocation policy across epochs.
    pub policy: ReallocationPolicy,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            flow: FlowSimConfig::default(),
            policy: ReallocationPolicy::GreedyResteer,
        }
    }
}

/// One epoch's delivered service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochResult {
    /// Epoch index.
    pub epoch: usize,
    /// Number of flows offered.
    pub flows: usize,
    /// Total offered demand (Gbps), after the flow simulator's demand
    /// sanitization.
    pub offered_gbps: f64,
    /// Total satisfied demand (Gbps).
    pub satisfied_gbps: f64,
    /// Satisfied bandwidth served from the assignment's direct-wavelength
    /// grants (Gbps). Excludes MCM-local self-flows, which never cross the
    /// fabric.
    pub fabric_direct_gbps: f64,
    /// Satisfied bandwidth served from two-hop indirect grants (Gbps); each
    /// such bit traverses two fabric links, which energy accounting charges
    /// at twice the per-bit transceiver energy.
    pub fabric_indirect_gbps: f64,
    /// Satisfied-weighted mean latency (ns); zero if nothing was satisfied.
    pub mean_latency_ns: f64,
    /// Fraction of flows fully served without indirect capacity.
    pub direct_only_fraction: f64,
    /// Fraction of flows served partly over indirect two-hop grants.
    pub indirect_fraction: f64,
    /// Fraction of flows with unmet demand.
    pub unsatisfied_fraction: f64,
    /// Whether the wavelength assignment was recomputed *for* this epoch
    /// (always `false` for epoch 0, whose initial assignment is not counted
    /// as a reconfiguration).
    pub reconfigured: bool,
}

impl EpochResult {
    /// Satisfied over offered, `1.0` when nothing was offered.
    pub fn satisfaction(&self) -> f64 {
        if self.offered_gbps > 0.0 {
            self.satisfied_gbps / self.offered_gbps
        } else {
            1.0
        }
    }
}

/// Aggregate service over a whole timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Per-epoch results, in temporal order.
    pub epochs: Vec<EpochResult>,
    /// Total offered demand across all epochs (Gbps).
    pub offered_gbps: f64,
    /// Total satisfied demand across all epochs (Gbps).
    pub satisfied_gbps: f64,
    /// Total satisfied demand carried over direct grants across all epochs
    /// (Gbps, fabric-crossing traffic only).
    pub fabric_direct_gbps: f64,
    /// Total satisfied demand carried over indirect two-hop grants across
    /// all epochs (Gbps, fabric-crossing traffic only).
    pub fabric_indirect_gbps: f64,
    /// Satisfied-weighted mean latency across all epochs (ns).
    pub mean_latency_ns: f64,
    /// Number of wavelength reconfigurations after the initial assignment.
    pub reconfigurations: usize,
    /// Flow-weighted direct-only fraction across all epochs.
    pub direct_only_fraction: f64,
    /// Flow-weighted indirect fraction across all epochs.
    pub indirect_fraction: f64,
    /// Flow-weighted unsatisfied fraction across all epochs.
    pub unsatisfied_fraction: f64,
}

impl TimelineReport {
    /// Aggregate satisfaction: total satisfied over total offered, which
    /// equals the offered-demand-weighted mean of the per-epoch
    /// satisfactions. `1.0` when nothing was offered.
    pub fn satisfaction(&self) -> f64 {
        if self.offered_gbps > 0.0 {
            self.satisfied_gbps / self.offered_gbps
        } else {
            1.0
        }
    }
}

/// Per-pair capacity granted by one wavelength assignment.
#[derive(Debug, Clone, Copy, Default)]
struct PairGrant {
    direct_gbps: f64,
    indirect_gbps: f64,
    /// Satisfied-weighted mean latency of the pair's granted capacity.
    latency_ns: f64,
}

impl PairGrant {
    fn total_gbps(&self) -> f64 {
        self.direct_gbps + self.indirect_gbps
    }
}

/// A persistent wavelength assignment: what each MCM pair was granted the
/// last time the allocator ran.
struct Steering {
    grants: HashMap<(u32, u32), PairGrant>,
}

impl Steering {
    fn from_allocation(fabric: &RackFabric, config: FlowSimConfig, flows: &[Flow]) -> Self {
        let report = FlowSimulator::new(fabric, config).run(flows);
        let mut grants: HashMap<(u32, u32), PairGrant> = HashMap::new();
        let mut weighted: HashMap<(u32, u32), f64> = HashMap::new();
        for a in &report.allocations {
            if a.flow.src == a.flow.dst {
                continue;
            }
            let key = (a.flow.src, a.flow.dst);
            let g = grants.entry(key).or_default();
            g.direct_gbps += a.direct_gbps;
            g.indirect_gbps += a.indirect_gbps;
            *weighted.entry(key).or_default() += a.latency_ns * a.satisfied_gbps();
        }
        for (key, g) in grants.iter_mut() {
            let total = g.total_gbps();
            g.latency_ns = if total > 0.0 {
                weighted[key] / total
            } else {
                0.0
            };
        }
        Steering { grants }
    }
}

/// Grant cells the steer cache holds before it is wiped. Eviction can
/// never change results (a miss just solves the steer again), so a blunt
/// clear-on-cap keeps the bound exact with zero bookkeeping; a single steer
/// larger than the cap is simply never cached.
const STEER_CACHE_CAP: usize = 1 << 15;

/// What one steer of a cached epoch list is a pure function of, besides
/// the list itself: the fabric, the flow-solver config the steer runs
/// under (its per-epoch seed and both latencies), and the epoch index. The
/// reallocation policy is deliberately absent — it only decides *when* to
/// steer, never what a steer grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SteerKey {
    fabric: (FabricKind, u32, u32, u32, u64),
    seed: u64,
    direct_latency_ns: u64,
    indirect_hop_latency_ns: u64,
    epoch: usize,
}

impl SteerKey {
    fn new(fabric: &RackFabricConfig, flow: FlowSimConfig, epoch: usize) -> Self {
        SteerKey {
            fabric: (
                fabric.kind,
                fabric.mcm_count,
                fabric.fibers_per_mcm,
                fabric.wavelengths_per_fiber,
                fabric.gbps_per_wavelength.to_bits(),
            ),
            seed: flow.seed,
            direct_latency_ns: flow.direct_latency_ns.to_bits(),
            indirect_hop_latency_ns: flow.indirect_hop_latency_ns.to_bits(),
            epoch,
        }
    }
}

/// Finalized steers of one shared epoch list, so the reallocation policies
/// replaying it solve each steer once. The cache serves one list at a time
/// — the policies of a timeline run back to back — and a steer of any
/// other list clears it, which keeps it to one timeline's steers. It holds
/// a clone of that list's `Arc`: while it does, no other list can occupy
/// the same address, so `Arc::ptr_eq` is a sound identity check.
#[derive(Debug)]
struct SteerCache {
    cap: usize,
    epochs: Option<Arc<Vec<Vec<Flow>>>>,
    entries: HashMap<SteerKey, Range<usize>>,
    /// Every entry's sparse grant list — `(flat pair index, grant)` in the
    /// order the steer first touched each pair — back to back.
    cells: Vec<(usize, PairGrant)>,
}

impl SteerCache {
    fn new() -> Self {
        SteerCache {
            cap: STEER_CACHE_CAP,
            epochs: None,
            entries: HashMap::new(),
            cells: Vec::new(),
        }
    }

    /// The cached grants of a steer of `epochs`, if any.
    fn get(&self, epochs: &Arc<Vec<Vec<Flow>>>, key: &SteerKey) -> Option<&[(usize, PairGrant)]> {
        let held = self.epochs.as_ref()?;
        if !Arc::ptr_eq(held, epochs) {
            return None;
        }
        self.entries
            .get(key)
            .map(|cells| &self.cells[cells.clone()])
    }

    /// Cache a solved steer of `epochs`: the grants of the pairs it
    /// touched.
    fn insert(
        &mut self,
        epochs: &Arc<Vec<Vec<Flow>>>,
        key: SteerKey,
        grants: impl ExactSizeIterator<Item = (usize, PairGrant)>,
    ) {
        let touched = grants.len();
        if touched > self.cap {
            return;
        }
        if !self
            .epochs
            .as_ref()
            .is_some_and(|held| Arc::ptr_eq(held, epochs))
        {
            self.epochs = Some(Arc::clone(epochs));
            self.entries.clear();
            self.cells.clear();
        }
        if self.cells.len() + touched > self.cap {
            self.entries.clear();
            self.cells.clear();
        }
        let start = self.cells.len();
        self.cells.extend(grants);
        self.entries.insert(key, start..self.cells.len());
    }
}

/// Reusable scratch and persistent steering state for
/// [`TimelineSimulator`] runs.
///
/// The incremental epoch solver ([`TimelineSimulator::run_in`]) keeps the
/// wavelength assignment and per-epoch pair demand in flat generation-
/// stamped `nodes x nodes` matrices inside this arena. Superseding the
/// previous epoch's assignment is a single generation bump (an O(1) bulk
/// "undo"), and each epoch costs O(flows + touched pairs) — never O(n²) —
/// with zero allocation on the steady path. The arena also embeds a
/// [`FlowArena`] so the per-steer flow solves reuse their scratch too, and
/// a bounded steer cache through which
/// [`TimelineSimulator::run_shared`] shares each steer of one epoch list
/// across the reallocation policies run over it.
///
/// Like [`FlowArena`], the arena never changes results: running through a
/// fresh arena, a reused arena, [`TimelineSimulator::run`], or the
/// exhaustive reference solver
/// ([`TimelineSimulator::run_exhaustive`]) produces identical reports.
///
/// # Example
///
/// ```
/// use fabric::{
///     Flow, RackFabric, TimelineArena, TimelineConfig, TimelineSimulator,
/// };
///
/// let mut cfg = fabric::RackFabricConfig::paper_rack(fabric::FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 8;
/// let fabric = RackFabric::new(cfg);
/// let sim = TimelineSimulator::new(&fabric, TimelineConfig::default());
/// let epochs = vec![
///     vec![Flow::new(0, 1, 400.0)],
///     vec![Flow::new(2, 3, 400.0)],
/// ];
///
/// let mut arena = TimelineArena::new();
/// let first = sim.run_in(&mut arena, &epochs);
/// // Recycling returns the report's epoch buffer to the arena; the next
/// // run on this arena then allocates nothing at all.
/// arena.recycle(first.clone());
/// let second = sim.run_in(&mut arena, &epochs);
/// assert_eq!(first, second);
/// assert_eq!(second, sim.run(&epochs)); // identical to the arena-free path
/// ```
#[derive(Debug)]
pub struct TimelineArena {
    /// Scratch for the per-steer flow solves.
    flow_arena: FlowArena,
    /// Sanitized current-epoch matrix.
    sanitized: Vec<Flow>,
    /// Previous epoch's sanitized matrix (greedy change detection).
    prev: Vec<Flow>,
    /// Rack size the flat matrices below are sized for.
    nodes: u32,
    /// Persistent assignment, flat row-major per ordered pair: direct and
    /// indirect granted Gbps plus satisfied-weighted latency. Entries are
    /// live only when their stamp matches `grant_gen`.
    grant_direct: Vec<f64>,
    grant_indirect: Vec<f64>,
    grant_latency: Vec<f64>,
    grant_stamp: Vec<u64>,
    grant_gen: u64,
    /// Flat indices the current assignment populated (for finalization).
    grant_touched: Vec<usize>,
    /// Current epoch's aggregated pair demand, same stamping scheme.
    demand: Vec<f64>,
    demand_stamp: Vec<u64>,
    demand_gen: u64,
    /// Per-epoch results of the run in progress.
    results: Vec<EpochResult>,
    /// Steers of shared epoch matrices ([`TimelineSimulator::run_shared`]).
    steer_cache: SteerCache,
    /// Steers this arena ran the flow solver for, and steers it restored
    /// from `steer_cache` instead.
    steers_solved: usize,
    steers_shared: usize,
}

impl TimelineArena {
    /// An empty arena; matrices are sized on first use and stay allocated.
    pub fn new() -> Self {
        TimelineArena {
            flow_arena: FlowArena::new(),
            sanitized: Vec::new(),
            prev: Vec::new(),
            nodes: 0,
            grant_direct: Vec::new(),
            grant_indirect: Vec::new(),
            grant_latency: Vec::new(),
            grant_stamp: Vec::new(),
            grant_gen: 0,
            grant_touched: Vec::new(),
            demand: Vec::new(),
            demand_stamp: Vec::new(),
            demand_gen: 0,
            results: Vec::new(),
            steer_cache: SteerCache::new(),
            steers_solved: 0,
            steers_shared: 0,
        }
    }

    /// Steers this arena has run the flow solver for, over its lifetime.
    pub fn steers_solved(&self) -> usize {
        self.steers_solved
    }

    /// Steers this arena has restored from its steer cache instead of
    /// solving, over its lifetime (only
    /// [`run_shared`](TimelineSimulator::run_shared) consults the cache).
    pub fn steers_shared(&self) -> usize {
        self.steers_shared
    }

    /// Reclaim the epoch buffer of a report produced by
    /// [`TimelineSimulator::run_in`] on this arena, once the caller is done
    /// with it. Purely an allocation-reuse hook: skipping it never changes
    /// results.
    pub fn recycle(&mut self, mut report: TimelineReport) {
        report.epochs.clear();
        self.results = report.epochs;
    }

    /// Size (or delta-reset) the flat matrices for a rack of `nodes` MCMs.
    fn prepare(&mut self, nodes: u32) {
        if self.nodes != nodes {
            let cells = (nodes as usize) * (nodes as usize);
            self.nodes = nodes;
            self.grant_direct.clear();
            self.grant_direct.resize(cells, 0.0);
            self.grant_indirect.clear();
            self.grant_indirect.resize(cells, 0.0);
            self.grant_latency.clear();
            self.grant_latency.resize(cells, 0.0);
            self.grant_stamp.clear();
            self.grant_stamp.resize(cells, 0);
            self.demand.clear();
            self.demand.resize(cells, 0.0);
            self.demand_stamp.clear();
            self.demand_stamp.resize(cells, 0);
            self.grant_gen = 0;
            self.demand_gen = 0;
        }
        // A new run must not inherit the previous run's assignment: bumping
        // the generation retires every live entry in O(1).
        self.grant_gen += 1;
        self.grant_touched.clear();
        self.results.clear();
        self.sanitized.clear();
        self.prev.clear();
    }

    /// The flat row-major index of an ordered pair.
    #[inline]
    fn index(&self, src: u32, dst: u32) -> usize {
        src as usize * self.nodes as usize + dst as usize
    }

    /// The live grant for a pair, or all-zero when the current assignment
    /// granted it nothing (the `HashMap::get(..).unwrap_or_default()` of the
    /// exhaustive solver).
    #[inline]
    fn grant(&self, src: u32, dst: u32) -> PairGrant {
        let i = self.index(src, dst);
        if self.grant_stamp[i] == self.grant_gen {
            PairGrant {
                direct_gbps: self.grant_direct[i],
                indirect_gbps: self.grant_indirect[i],
                latency_ns: self.grant_latency[i],
            }
        } else {
            PairGrant::default()
        }
    }
}

impl Default for TimelineArena {
    fn default() -> Self {
        TimelineArena::new()
    }
}

/// The epoch-based temporal simulator.
///
/// # Example
///
/// ```
/// use fabric::{
///     Flow, RackFabric, ReallocationPolicy, TimelineConfig, TimelineSimulator,
/// };
///
/// let mut cfg = fabric::RackFabricConfig::paper_rack(fabric::FabricKind::ParallelAwgrs);
/// cfg.mcm_count = 16;
/// let fabric = RackFabric::new(cfg);
///
/// // A hot spot that moves from MCM 1 to MCM 9 between epochs: every
/// // source pushes 400 Gbps at one destination, far above the ~125 Gbps
/// // direct wavelengths, so indirect grants matter and stale steering
/// // hurts.
/// let epochs: Vec<Vec<Flow>> = [1u32, 9].iter().map(|&hot| {
///     (0..16).filter(|&s| s != hot).map(|s| Flow::new(s, hot, 400.0)).collect()
/// }).collect();
///
/// let run = |policy| {
///     TimelineSimulator::new(
///         &fabric,
///         TimelineConfig { policy, ..TimelineConfig::default() },
///     )
///     .run(&epochs)
/// };
/// let greedy = run(ReallocationPolicy::GreedyResteer);
/// let fixed = run(ReallocationPolicy::Static);
///
/// // Re-steering follows the hot spot; the static assignment goes stale.
/// assert!(greedy.satisfaction() >= fixed.satisfaction());
/// assert_eq!(greedy.reconfigurations, 1);
/// assert_eq!(fixed.reconfigurations, 0);
/// ```
#[derive(Debug)]
pub struct TimelineSimulator<'a> {
    fabric: &'a RackFabric,
    config: TimelineConfig,
}

impl<'a> TimelineSimulator<'a> {
    /// Create a simulator over a fabric.
    pub fn new(fabric: &'a RackFabric, config: TimelineConfig) -> Self {
        TimelineSimulator { fabric, config }
    }

    /// Run the timeline: one demand matrix per epoch, in temporal order.
    ///
    /// Epoch 0 always computes an initial wavelength assignment from its own
    /// matrix (not counted as a reconfiguration); later epochs follow the
    /// configured [`ReallocationPolicy`]. Under
    /// [`GreedyResteer`](ReallocationPolicy::GreedyResteer), an epoch whose
    /// delivered service is evaluated against an assignment computed from
    /// its own matrix reproduces [`FlowSimulator::run`]'s aggregate
    /// satisfaction exactly.
    ///
    /// Every aggregate of the returned [`TimelineReport`] is a defined
    /// (non-NaN) value, including for an empty epoch list.
    ///
    /// This delegates to the incremental solver
    /// ([`run_in`](TimelineSimulator::run_in)) through a throwaway arena;
    /// [`run_exhaustive`](TimelineSimulator::run_exhaustive) is the
    /// from-scratch reference implementation both are tested against.
    pub fn run(&self, epochs: &[Vec<Flow>]) -> TimelineReport {
        self.run_in(&mut TimelineArena::new(), epochs)
    }

    /// [`run`](TimelineSimulator::run) through a caller-provided
    /// [`TimelineArena`]: the incremental epoch solver.
    ///
    /// Instead of rebuilding per-pair steering and demand maps from scratch
    /// each epoch, the solver delta-updates the arena's persistent flat
    /// matrices: a re-steer retires the previous epoch's assignment with a
    /// single generation bump and writes only the pairs the new allocation
    /// touches, and an epoch whose matrix is unchanged under
    /// [`GreedyResteer`](ReallocationPolicy::GreedyResteer) skips the solve
    /// entirely. Per-epoch cost is O(flows + touched pairs) — never O(n²) —
    /// with zero allocation on the steady path.
    ///
    /// Results are identical to [`run`](TimelineSimulator::run) and to
    /// [`run_exhaustive`](TimelineSimulator::run_exhaustive): the arena is
    /// scratch plus carried state, never a source of divergence.
    pub fn run_in(&self, arena: &mut TimelineArena, epochs: &[Vec<Flow>]) -> TimelineReport {
        self.run_epochs(arena, epochs, None)
    }

    /// [`run_in`](TimelineSimulator::run_in) over epoch matrices shared
    /// behind an `Arc`, with each steer shared through the arena's steer
    /// cache.
    ///
    /// A steer at epoch `e` is a flow solve of matrix `e` under a seed
    /// derived from the configured one; the policy only decides *whether*
    /// to steer. So every policy replaying the same `Arc` on the same
    /// fabric and [`FlowSimConfig`] would solve identical steers: the first
    /// one solves and caches its finalized grants, and later ones restore
    /// them — one generation bump plus one write per granted pair. The
    /// cache is keyed by the `Arc`'s identity (and holds a clone, so the
    /// identity stays unique), the fabric config, the flow config, and the
    /// epoch index. It holds the steers of one epoch list at a time, so run
    /// the policies of a timeline back to back; a run over another list
    /// starts it afresh, and it is cleared when it reaches its bound.
    ///
    /// Results are identical to [`run`](TimelineSimulator::run) and
    /// [`run_exhaustive`](TimelineSimulator::run_exhaustive).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use fabric::{
    ///     Flow, RackFabric, ReallocationPolicy, TimelineArena, TimelineConfig,
    ///     TimelineSimulator,
    /// };
    ///
    /// let mut cfg = fabric::RackFabricConfig::paper_rack(fabric::FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let epochs = Arc::new(vec![
    ///     vec![Flow::new(0, 1, 400.0)],
    ///     vec![Flow::new(2, 3, 400.0)],
    /// ]);
    /// let mut arena = TimelineArena::new();
    /// for policy in [ReallocationPolicy::GreedyResteer, ReallocationPolicy::Static] {
    ///     let sim = TimelineSimulator::new(&fabric, TimelineConfig { policy, ..TimelineConfig::default() });
    ///     assert_eq!(sim.run_shared(&mut arena, &epochs), sim.run_exhaustive(&epochs));
    /// }
    /// // Greedy solved both epochs' steers; static's epoch-0 steer was shared.
    /// assert_eq!((arena.steers_solved(), arena.steers_shared()), (2, 1));
    /// ```
    pub fn run_shared(
        &self,
        arena: &mut TimelineArena,
        epochs: &Arc<Vec<Vec<Flow>>>,
    ) -> TimelineReport {
        self.run_epochs(arena, epochs, Some(epochs))
    }

    /// The incremental solver behind `run_in` and `run_shared`; `shared`
    /// names the `Arc` behind `epochs` when steers may go through the
    /// arena's steer cache.
    fn run_epochs(
        &self,
        arena: &mut TimelineArena,
        epochs: &[Vec<Flow>],
        shared: Option<&Arc<Vec<Vec<Flow>>>>,
    ) -> TimelineReport {
        arena.prepare(self.fabric.config().mcm_count);
        let mut have_steering = false;
        let mut have_prev = false;
        arena.results.reserve(epochs.len());

        for (epoch, raw) in epochs.iter().enumerate() {
            arena.sanitized.clear();
            arena.sanitized.extend(raw.iter().map(|f| f.sanitized()));

            // Aggregate this epoch's pair demand into the stamped flat
            // matrix (the exhaustive solver's `pair_demand` HashMap, folded
            // in the same flow order so the f64 sums are identical).
            arena.demand_gen += 1;
            for k in 0..arena.sanitized.len() {
                let f = arena.sanitized[k];
                if f.src != f.dst && f.demand_gbps > 0.0 {
                    let i = arena.index(f.src, f.dst);
                    if arena.demand_stamp[i] != arena.demand_gen {
                        arena.demand_stamp[i] = arena.demand_gen;
                        arena.demand[i] = f.demand_gbps;
                    } else {
                        arena.demand[i] += f.demand_gbps;
                    }
                }
            }

            let mut reconfigured = false;
            // The hysteresis probe is the epoch's final result whenever it
            // clears the threshold; keep it instead of evaluating twice.
            let mut probed: Option<EpochResult> = None;
            if !have_steering {
                // Initial assignment: every policy steers for epoch 0.
                self.steer_in(arena, epoch, shared);
                have_steering = true;
            } else {
                match self.config.policy {
                    ReallocationPolicy::Static => {}
                    ReallocationPolicy::GreedyResteer => {
                        if !(have_prev && arena.prev == arena.sanitized) {
                            self.steer_in(arena, epoch, shared);
                            reconfigured = true;
                        }
                    }
                    ReallocationPolicy::Hysteresis { min_satisfaction } => {
                        let current = self.evaluate_in(epoch, arena, false);
                        if current.satisfaction() < min_satisfaction - 1e-12 {
                            self.steer_in(arena, epoch, shared);
                            reconfigured = true;
                        } else {
                            probed = Some(current);
                        }
                    }
                }
            }
            let result = probed.unwrap_or_else(|| self.evaluate_in(epoch, arena, reconfigured));
            arena.results.push(result);
            std::mem::swap(&mut arena.prev, &mut arena.sanitized);
            have_prev = true;
        }

        summarize(std::mem::take(&mut arena.results))
    }

    /// The from-scratch reference solver: per-pair steering and demand as
    /// freshly built hash maps, one full rebuild per epoch.
    ///
    /// This is the original (pre-arena) implementation, kept as the oracle
    /// the incremental solver is verified against — the repository's
    /// timeline tests assert `run` / `run_in` reports are *equal* (`==`,
    /// not approximately) to `run_exhaustive`'s on every policy. Prefer
    /// [`run`](TimelineSimulator::run) everywhere else; this path allocates
    /// O(pairs) per epoch.
    ///
    /// ```
    /// use fabric::flowsim::Flow;
    /// use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
    /// use fabric::timeline::{TimelineConfig, TimelineSimulator};
    ///
    /// let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    /// cfg.mcm_count = 8;
    /// let fabric = RackFabric::new(cfg);
    /// let sim = TimelineSimulator::new(&fabric, TimelineConfig::default());
    /// let epochs = vec![
    ///     vec![Flow::new(0, 1, 200.0)],
    ///     vec![Flow::new(0, 2, 200.0)],
    /// ];
    /// // The incremental solver is bit-exact with the oracle.
    /// assert_eq!(sim.run(&epochs), sim.run_exhaustive(&epochs));
    /// ```
    pub fn run_exhaustive(&self, epochs: &[Vec<Flow>]) -> TimelineReport {
        let mut steering: Option<Steering> = None;
        let mut prev_matrix: Option<Vec<Flow>> = None;
        let mut results = Vec::with_capacity(epochs.len());

        for (epoch, raw) in epochs.iter().enumerate() {
            let flows = sanitize(raw);
            let mut reconfigured = false;
            // The hysteresis probe is the epoch's final result whenever it
            // clears the threshold; keep it instead of evaluating twice.
            let mut probed: Option<EpochResult> = None;
            if steering.is_none() {
                // Initial assignment: every policy steers for epoch 0.
                steering = Some(self.steer(epoch, &flows));
            } else {
                match self.config.policy {
                    ReallocationPolicy::Static => {}
                    ReallocationPolicy::GreedyResteer => {
                        if prev_matrix.as_deref() != Some(flows.as_slice()) {
                            steering = Some(self.steer(epoch, &flows));
                            reconfigured = true;
                        }
                    }
                    ReallocationPolicy::Hysteresis { min_satisfaction } => {
                        let current =
                            self.evaluate(epoch, &flows, steering.as_ref().unwrap(), false);
                        if current.satisfaction() < min_satisfaction - 1e-12 {
                            steering = Some(self.steer(epoch, &flows));
                            reconfigured = true;
                        } else {
                            probed = Some(current);
                        }
                    }
                }
            }
            results.push(probed.unwrap_or_else(|| {
                self.evaluate(epoch, &flows, steering.as_ref().unwrap(), reconfigured)
            }));
            prev_matrix = Some(flows);
        }

        summarize(results)
    }

    /// Recompute the assignment into the arena's flat grant matrices.
    /// Mirrors [`Steering::from_allocation`] exactly: same per-epoch seed,
    /// same allocation-order accumulation per pair, same per-pair latency
    /// finalization — only the storage differs (generation-stamped flat
    /// matrices instead of a fresh `HashMap`). With `shared` epoch
    /// matrices, a steer already in the arena's steer cache is restored
    /// instead of solved, and a solved one is cached.
    fn steer_in(
        &self,
        arena: &mut TimelineArena,
        epoch: usize,
        shared: Option<&Arc<Vec<Vec<Flow>>>>,
    ) {
        let config = self.epoch_flow_config(epoch);
        // Retire the previous assignment wholesale: one generation bump.
        arena.grant_gen += 1;
        arena.grant_touched.clear();
        let key = SteerKey::new(self.fabric.config(), config, epoch);
        if let Some(cells) = shared.and_then(|epochs| arena.steer_cache.get(epochs, &key)) {
            for &(i, g) in cells {
                arena.grant_stamp[i] = arena.grant_gen;
                arena.grant_direct[i] = g.direct_gbps;
                arena.grant_indirect[i] = g.indirect_gbps;
                arena.grant_latency[i] = g.latency_ns;
            }
            arena.steers_shared += 1;
            return;
        }
        let report =
            FlowSimulator::new(self.fabric, config).run_in(&mut arena.flow_arena, &arena.sanitized);
        for a in &report.allocations {
            if a.flow.src == a.flow.dst {
                continue;
            }
            let i = arena.index(a.flow.src, a.flow.dst);
            // `grant_latency` holds the satisfied-weighted latency *sum*
            // during the fold; finalized to a mean below.
            if arena.grant_stamp[i] != arena.grant_gen {
                arena.grant_stamp[i] = arena.grant_gen;
                arena.grant_direct[i] = a.direct_gbps;
                arena.grant_indirect[i] = a.indirect_gbps;
                arena.grant_latency[i] = a.latency_ns * a.satisfied_gbps();
                arena.grant_touched.push(i);
            } else {
                arena.grant_direct[i] += a.direct_gbps;
                arena.grant_indirect[i] += a.indirect_gbps;
                arena.grant_latency[i] += a.latency_ns * a.satisfied_gbps();
            }
        }
        for k in 0..arena.grant_touched.len() {
            let i = arena.grant_touched[k];
            let total = arena.grant_direct[i] + arena.grant_indirect[i];
            arena.grant_latency[i] = if total > 0.0 {
                arena.grant_latency[i] / total
            } else {
                0.0
            };
        }
        arena.flow_arena.recycle(report);
        arena.steers_solved += 1;

        if let Some(epochs) = shared {
            let grants = arena.grant_touched.iter().map(|&i| {
                (
                    i,
                    PairGrant {
                        direct_gbps: arena.grant_direct[i],
                        indirect_gbps: arena.grant_indirect[i],
                        latency_ns: arena.grant_latency[i],
                    },
                )
            });
            arena.steer_cache.insert(epochs, key, grants);
        }
    }

    /// The flow-solver config of epoch `epoch`'s steer: the configured one
    /// with its seed decorrelated per epoch, a pure function of the
    /// configured seed so whole timelines stay deterministic.
    fn epoch_flow_config(&self, epoch: usize) -> FlowSimConfig {
        FlowSimConfig {
            seed: self
                .config
                .flow
                .seed
                .wrapping_add((epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..self.config.flow
        }
    }

    /// [`evaluate`](TimelineSimulator::evaluate) against the arena's flat
    /// matrices instead of hash maps; flow iteration order (and hence every
    /// f64 accumulation) is identical.
    fn evaluate_in(&self, epoch: usize, arena: &TimelineArena, reconfigured: bool) -> EpochResult {
        let flows = &arena.sanitized;
        let mut offered = 0.0;
        let mut satisfied = 0.0;
        let mut fabric_direct = 0.0;
        let mut fabric_indirect = 0.0;
        let mut weighted_latency = 0.0;
        let mut direct_only = 0usize;
        let mut indirect = 0usize;
        let mut unsatisfied = 0usize;

        for f in flows {
            offered += f.demand_gbps;
            if f.src == f.dst || f.demand_gbps <= 0.0 {
                // Served locally (or asking for nothing): fully satisfied,
                // matching FlowSimulator's contract.
                satisfied += f.demand_gbps;
                weighted_latency += f.demand_gbps * self.config.flow.direct_latency_ns;
                direct_only += 1;
                continue;
            }
            let demand_p = arena.demand[arena.index(f.src, f.dst)];
            let grant = arena.grant(f.src, f.dst);
            let served_p = demand_p.min(grant.total_gbps());
            // This flow's proportional share of the pair's service. Direct
            // grants serve first; only the remainder rides indirect hops.
            let share = f.demand_gbps / demand_p;
            let served = served_p * share;
            let direct_served = served_p.min(grant.direct_gbps) * share;
            satisfied += served;
            fabric_direct += direct_served;
            fabric_indirect += served - direct_served;
            weighted_latency += served * grant.latency_ns;
            let fully = demand_p <= grant.total_gbps() + 1e-9;
            let used_indirect = served_p > grant.direct_gbps + 1e-9;
            if !fully {
                unsatisfied += 1;
            }
            if used_indirect {
                indirect += 1;
            } else if fully {
                direct_only += 1;
            }
        }

        let n = flows.len().max(1) as f64;
        EpochResult {
            epoch,
            flows: flows.len(),
            offered_gbps: offered,
            satisfied_gbps: satisfied,
            fabric_direct_gbps: fabric_direct,
            fabric_indirect_gbps: fabric_indirect,
            mean_latency_ns: if satisfied > 0.0 {
                weighted_latency / satisfied
            } else {
                0.0
            },
            direct_only_fraction: direct_only as f64 / n,
            indirect_fraction: indirect as f64 / n,
            unsatisfied_fraction: unsatisfied as f64 / n,
            reconfigured,
        }
    }

    /// Recompute the wavelength assignment for a demand matrix, under the
    /// epoch's own seed ([`epoch_flow_config`](Self::epoch_flow_config)).
    fn steer(&self, epoch: usize, flows: &[Flow]) -> Steering {
        Steering::from_allocation(self.fabric, self.epoch_flow_config(epoch), flows)
    }

    /// Evaluate one epoch's (sanitized) demand against a wavelength
    /// assignment. Per pair, demand up to the pair's granted capacity is
    /// served at the grant's latency; self-flows are MCM-local and always
    /// served at the direct latency.
    fn evaluate(
        &self,
        epoch: usize,
        flows: &[Flow],
        steering: &Steering,
        reconfigured: bool,
    ) -> EpochResult {
        // Aggregate epoch demand per pair: grants are per pair, so flows
        // sharing a pair share its capacity (proportionally to demand).
        let mut pair_demand: HashMap<(u32, u32), f64> = HashMap::new();
        for f in flows {
            if f.src != f.dst && f.demand_gbps > 0.0 {
                *pair_demand.entry((f.src, f.dst)).or_default() += f.demand_gbps;
            }
        }

        let mut offered = 0.0;
        let mut satisfied = 0.0;
        let mut fabric_direct = 0.0;
        let mut fabric_indirect = 0.0;
        let mut weighted_latency = 0.0;
        let mut direct_only = 0usize;
        let mut indirect = 0usize;
        let mut unsatisfied = 0usize;

        for f in flows {
            offered += f.demand_gbps;
            if f.src == f.dst || f.demand_gbps <= 0.0 {
                // Served locally (or asking for nothing): fully satisfied,
                // matching FlowSimulator's contract.
                satisfied += f.demand_gbps;
                weighted_latency += f.demand_gbps * self.config.flow.direct_latency_ns;
                direct_only += 1;
                continue;
            }
            let demand_p = pair_demand[&(f.src, f.dst)];
            let grant = steering
                .grants
                .get(&(f.src, f.dst))
                .copied()
                .unwrap_or_default();
            let served_p = demand_p.min(grant.total_gbps());
            // This flow's proportional share of the pair's service. Direct
            // grants serve first; only the remainder rides indirect hops.
            let share = f.demand_gbps / demand_p;
            let served = served_p * share;
            let direct_served = served_p.min(grant.direct_gbps) * share;
            satisfied += served;
            fabric_direct += direct_served;
            fabric_indirect += served - direct_served;
            weighted_latency += served * grant.latency_ns;
            let fully = demand_p <= grant.total_gbps() + 1e-9;
            let used_indirect = served_p > grant.direct_gbps + 1e-9;
            if !fully {
                unsatisfied += 1;
            }
            if used_indirect {
                indirect += 1;
            } else if fully {
                direct_only += 1;
            }
        }

        let n = flows.len().max(1) as f64;
        EpochResult {
            epoch,
            flows: flows.len(),
            offered_gbps: offered,
            satisfied_gbps: satisfied,
            fabric_direct_gbps: fabric_direct,
            fabric_indirect_gbps: fabric_indirect,
            mean_latency_ns: if satisfied > 0.0 {
                weighted_latency / satisfied
            } else {
                0.0
            },
            direct_only_fraction: direct_only as f64 / n,
            indirect_fraction: indirect as f64 / n,
            unsatisfied_fraction: unsatisfied as f64 / n,
            reconfigured,
        }
    }
}

/// Apply [`FlowSimulator`]'s demand sanitization so evaluation, steering,
/// and change detection all see the matrix the allocator would.
fn sanitize(flows: &[Flow]) -> Vec<Flow> {
    flows.iter().map(|f| f.sanitized()).collect()
}

fn summarize(epochs: Vec<EpochResult>) -> TimelineReport {
    let offered: f64 = epochs.iter().map(|e| e.offered_gbps).sum();
    let satisfied: f64 = epochs.iter().map(|e| e.satisfied_gbps).sum();
    let weighted_latency: f64 = epochs
        .iter()
        .map(|e| e.mean_latency_ns * e.satisfied_gbps)
        .sum();
    let total_flows: usize = epochs.iter().map(|e| e.flows).sum();
    let flow_weighted = |pick: &dyn Fn(&EpochResult) -> f64| -> f64 {
        if total_flows == 0 {
            return 0.0;
        }
        epochs.iter().map(|e| pick(e) * e.flows as f64).sum::<f64>() / total_flows as f64
    };
    TimelineReport {
        offered_gbps: offered,
        satisfied_gbps: satisfied,
        fabric_direct_gbps: epochs.iter().map(|e| e.fabric_direct_gbps).sum(),
        fabric_indirect_gbps: epochs.iter().map(|e| e.fabric_indirect_gbps).sum(),
        mean_latency_ns: if satisfied > 0.0 {
            weighted_latency / satisfied
        } else {
            0.0
        },
        reconfigurations: epochs.iter().filter(|e| e.reconfigured).count(),
        direct_only_fraction: flow_weighted(&|e| e.direct_only_fraction),
        indirect_fraction: flow_weighted(&|e| e.indirect_fraction),
        unsatisfied_fraction: flow_weighted(&|e| e.unsatisfied_fraction),
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rackfabric::{FabricKind, RackFabricConfig};

    fn awgr_fabric(mcms: u32) -> RackFabric {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = mcms;
        RackFabric::new(cfg)
    }

    fn hotspot_epochs(mcms: u32, hots: &[u32], demand: f64) -> Vec<Vec<Flow>> {
        hots.iter()
            .map(|&hot| {
                (0..mcms)
                    .filter(|&s| s != hot)
                    .map(|s| Flow::new(s, hot, demand))
                    .collect()
            })
            .collect()
    }

    fn run(
        fabric: &RackFabric,
        policy: ReallocationPolicy,
        epochs: &[Vec<Flow>],
    ) -> TimelineReport {
        TimelineSimulator::new(
            fabric,
            TimelineConfig {
                policy,
                ..TimelineConfig::default()
            },
        )
        .run(epochs)
    }

    #[test]
    fn greedy_epoch_matches_flow_simulator() {
        let fabric = awgr_fabric(16);
        let epochs = hotspot_epochs(16, &[1, 9, 4], 400.0);
        let report = run(&fabric, ReallocationPolicy::GreedyResteer, &epochs);
        for (e, matrix) in report.epochs.iter().zip(&epochs) {
            let direct = FlowSimulator::new(
                &fabric,
                FlowSimConfig {
                    seed: FlowSimConfig::default()
                        .seed
                        .wrapping_add((e.epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..FlowSimConfig::default()
                },
            )
            .run(matrix);
            assert!(
                (e.satisfaction() - direct.satisfaction()).abs() < 1e-9,
                "epoch {} satisfaction {} vs flowsim {}",
                e.epoch,
                e.satisfaction(),
                direct.satisfaction()
            );
            assert!((e.mean_latency_ns - direct.mean_latency_ns).abs() < 1e-9);
        }
    }

    #[test]
    fn greedy_beats_static_on_a_shifting_hotspot() {
        let fabric = awgr_fabric(16);
        let epochs = hotspot_epochs(16, &[1, 9, 4, 12], 400.0);
        let greedy = run(&fabric, ReallocationPolicy::GreedyResteer, &epochs);
        let fixed = run(&fabric, ReallocationPolicy::Static, &epochs);
        assert!(
            greedy.satisfaction() > fixed.satisfaction(),
            "greedy {} vs static {}",
            greedy.satisfaction(),
            fixed.satisfaction()
        );
        assert_eq!(greedy.reconfigurations, 3);
        assert_eq!(fixed.reconfigurations, 0);
    }

    #[test]
    fn static_matches_greedy_while_traffic_is_stable() {
        let fabric = awgr_fabric(16);
        let matrix: Vec<Flow> = (0..16).map(|s| Flow::new(s, (s + 5) % 16, 300.0)).collect();
        let epochs = vec![matrix.clone(), matrix.clone(), matrix];
        let greedy = run(&fabric, ReallocationPolicy::GreedyResteer, &epochs);
        let fixed = run(&fabric, ReallocationPolicy::Static, &epochs);
        assert!((greedy.satisfaction() - fixed.satisfaction()).abs() < 1e-9);
        // An unchanged matrix never triggers a greedy re-steer.
        assert_eq!(greedy.reconfigurations, 0);
    }

    #[test]
    fn hysteresis_interpolates_between_static_and_greedy() {
        let fabric = awgr_fabric(16);
        let epochs = hotspot_epochs(16, &[1, 9, 4, 12], 400.0);
        let greedy = run(&fabric, ReallocationPolicy::GreedyResteer, &epochs);
        let fixed = run(&fabric, ReallocationPolicy::Static, &epochs);
        let hyst = run(
            &fabric,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
            &epochs,
        );
        assert!(hyst.satisfaction() >= fixed.satisfaction() - 1e-9);
        assert!(hyst.reconfigurations <= greedy.reconfigurations);
        // A threshold of zero never re-steers; a threshold of one always
        // re-steers when service degrades.
        let never = run(
            &fabric,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.0,
            },
            &epochs,
        );
        assert_eq!(never.reconfigurations, 0);
        assert!((never.satisfaction() - fixed.satisfaction()).abs() < 1e-9);
    }

    #[test]
    fn fabric_direct_indirect_split_matches_flow_simulator_on_greedy_epochs() {
        let fabric = awgr_fabric(16);
        let epochs = hotspot_epochs(16, &[1, 9], 400.0);
        let report = run(&fabric, ReallocationPolicy::GreedyResteer, &epochs);
        for (e, matrix) in report.epochs.iter().zip(&epochs) {
            let direct = FlowSimulator::new(
                &fabric,
                FlowSimConfig {
                    seed: FlowSimConfig::default()
                        .seed
                        .wrapping_add((e.epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..FlowSimConfig::default()
                },
            )
            .run(matrix);
            assert!((e.fabric_direct_gbps - direct.fabric_direct_gbps).abs() < 1e-6);
            assert!((e.fabric_indirect_gbps - direct.fabric_indirect_gbps).abs() < 1e-6);
            // No self-flows in these matrices: the split covers everything.
            assert!(
                (e.fabric_direct_gbps + e.fabric_indirect_gbps - e.satisfied_gbps).abs() < 1e-6
            );
        }
        let direct_sum: f64 = report.epochs.iter().map(|e| e.fabric_direct_gbps).sum();
        assert!((report.fabric_direct_gbps - direct_sum).abs() < 1e-9);
    }

    #[test]
    fn aggregates_are_the_weighted_mean_of_epochs() {
        let fabric = awgr_fabric(12);
        let epochs = hotspot_epochs(12, &[1, 5, 9], 350.0);
        let report = run(
            &fabric,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.8,
            },
            &epochs,
        );
        let offered: f64 = report.epochs.iter().map(|e| e.offered_gbps).sum();
        let satisfied: f64 = report.epochs.iter().map(|e| e.satisfied_gbps).sum();
        assert!((report.offered_gbps - offered).abs() < 1e-9);
        assert!((report.satisfied_gbps - satisfied).abs() < 1e-9);
        let weighted_mean = report
            .epochs
            .iter()
            .map(|e| e.satisfaction() * e.offered_gbps)
            .sum::<f64>()
            / offered;
        assert!((report.satisfaction() - weighted_mean).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_and_empty_epochs_are_fully_defined() {
        let fabric = awgr_fabric(8);
        let report = run(&fabric, ReallocationPolicy::Static, &[]);
        assert_eq!(report.satisfaction(), 1.0);
        assert_eq!(report.mean_latency_ns, 0.0);
        assert_eq!(report.reconfigurations, 0);

        let report = run(
            &fabric,
            ReallocationPolicy::GreedyResteer,
            &[vec![], vec![]],
        );
        assert_eq!(report.satisfaction(), 1.0);
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert_eq!(e.satisfaction(), 1.0);
            assert!(!e.mean_latency_ns.is_nan());
        }
    }

    #[test]
    fn degenerate_demands_are_sanitized() {
        let fabric = awgr_fabric(8);
        let epochs = vec![vec![
            Flow::new(0, 0, 100.0),
            Flow::new(1, 2, f64::NAN),
            Flow::new(2, 3, -5.0),
            Flow::new(3, 4, f64::INFINITY),
        ]];
        let report = run(&fabric, ReallocationPolicy::GreedyResteer, &epochs);
        assert_eq!(report.offered_gbps, 100.0);
        assert!((report.satisfaction() - 1.0).abs() < 1e-9);
        assert!(!report.mean_latency_ns.is_nan());
    }

    #[test]
    fn deterministic_across_runs() {
        let fabric = awgr_fabric(16);
        let epochs = hotspot_epochs(16, &[2, 11], 450.0);
        for policy in [
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.85,
            },
        ] {
            assert_eq!(run(&fabric, policy, &epochs), run(&fabric, policy, &epochs));
        }
    }

    #[test]
    fn incremental_solver_equals_exhaustive_oracle() {
        // The arena-backed incremental solver must reproduce the
        // from-scratch reference implementation *exactly* (==, not
        // approximately) for every policy, including steer-skipping fast
        // paths (repeated matrices) and hysteresis probes.
        let fabric = awgr_fabric(16);
        let mut shifting = hotspot_epochs(16, &[1, 9, 9, 4, 1], 400.0);
        // Duplicate-pair flows exercise the per-pair accumulation order.
        shifting[2].push(Flow::new(0, 9, 75.0));
        shifting[2].push(Flow::new(0, 9, 25.0));
        shifting[4].push(Flow::new(3, 3, 50.0));
        for policy in [
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.0,
            },
        ] {
            let sim = TimelineSimulator::new(
                &fabric,
                TimelineConfig {
                    policy,
                    ..TimelineConfig::default()
                },
            );
            let oracle = sim.run_exhaustive(&shifting);
            assert_eq!(sim.run(&shifting), oracle, "policy {policy:?}");
            let mut arena = TimelineArena::new();
            assert_eq!(sim.run_in(&mut arena, &shifting), oracle);
            // A reused (dirty) arena must not leak state between runs.
            let again = sim.run_in(&mut arena, &shifting);
            assert_eq!(again, oracle, "reused arena diverged for {policy:?}");
            arena.recycle(again);
            assert_eq!(sim.run_in(&mut arena, &shifting), oracle);
        }
    }

    #[test]
    fn one_arena_serves_different_rack_sizes() {
        let mut arena = TimelineArena::new();
        for mcms in [12u32, 16, 8] {
            let fabric = awgr_fabric(mcms);
            let epochs = hotspot_epochs(mcms, &[1, 5], 400.0);
            let sim = TimelineSimulator::new(&fabric, TimelineConfig::default());
            assert_eq!(sim.run_in(&mut arena, &epochs), sim.run_exhaustive(&epochs));
        }
    }

    const SHARING_POLICIES: [ReallocationPolicy; 3] = [
        ReallocationPolicy::GreedyResteer,
        ReallocationPolicy::Static,
        ReallocationPolicy::Hysteresis {
            min_satisfaction: 0.9,
        },
    ];

    /// Run every sharing policy over one `Arc` through `arena`, each report
    /// required to equal the exhaustive oracle.
    fn run_policies_shared(
        fabric: &RackFabric,
        flow: FlowSimConfig,
        arena: &mut TimelineArena,
        epochs: &Arc<Vec<Vec<Flow>>>,
    ) {
        for policy in SHARING_POLICIES {
            let sim = TimelineSimulator::new(fabric, TimelineConfig { flow, policy });
            let report = sim.run_shared(arena, epochs);
            assert_eq!(report, sim.run_exhaustive(epochs), "policy {policy:?}");
            arena.recycle(report);
        }
    }

    #[test]
    fn policies_share_steers_of_one_arc() {
        let fabric = awgr_fabric(16);
        let epochs = Arc::new(hotspot_epochs(16, &[1, 9, 4, 12], 400.0));
        let mut arena = TimelineArena::new();
        run_policies_shared(&fabric, FlowSimConfig::default(), &mut arena, &epochs);
        // Greedy solves all four epochs' steers; static's and hysteresis'
        // steers are epochs greedy already solved.
        assert_eq!(arena.steers_solved(), 4);
        assert!(arena.steers_shared() >= 2, "{}", arena.steers_shared());
        // A second pass over the same `Arc` solves nothing at all.
        let shared = arena.steers_shared();
        run_policies_shared(&fabric, FlowSimConfig::default(), &mut arena, &epochs);
        assert_eq!(arena.steers_solved(), 4);
        assert!(arena.steers_shared() >= shared + 6);
        // `run_in` never consults the cache.
        let sim = TimelineSimulator::new(&fabric, TimelineConfig::default());
        assert_eq!(sim.run_in(&mut arena, &epochs), sim.run_exhaustive(&epochs));
        assert_eq!(arena.steers_solved(), 8);
    }

    #[test]
    fn steer_cache_key_separates_every_solver_input() {
        let epochs = Arc::new(hotspot_epochs(16, &[1, 9], 400.0));
        let base = FlowSimConfig::default();
        let with_fabric = |f: &dyn Fn(&mut RackFabricConfig)| {
            let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
            cfg.mcm_count = 16;
            f(&mut cfg);
            RackFabric::new(cfg)
        };
        let awgr = with_fabric(&|_| {});
        let variants: [(&str, RackFabric, FlowSimConfig); 5] = [
            (
                "seed",
                with_fabric(&|_| {}),
                FlowSimConfig {
                    seed: base.seed ^ 1,
                    ..base
                },
            ),
            (
                "fabric kind",
                with_fabric(&|c| c.kind = FabricKind::WaveSelective),
                base,
            ),
            (
                "gbps_per_wavelength",
                with_fabric(&|c| c.gbps_per_wavelength *= 0.5),
                base,
            ),
            (
                "hop latency",
                with_fabric(&|_| {}),
                FlowSimConfig {
                    indirect_hop_latency_ns: base.indirect_hop_latency_ns + 7.0,
                    ..base
                },
            ),
            (
                "direct latency",
                with_fabric(&|_| {}),
                FlowSimConfig {
                    direct_latency_ns: base.direct_latency_ns + 5.0,
                    ..base
                },
            ),
        ];
        for (what, fabric, flow) in &variants {
            let mut arena = TimelineArena::new();
            run_policies_shared(&awgr, base, &mut arena, &epochs);
            let shared = arena.steers_shared();
            // The first policy over a changed input must miss every steer.
            let sim = TimelineSimulator::new(
                fabric,
                TimelineConfig {
                    flow: *flow,
                    policy: ReallocationPolicy::GreedyResteer,
                },
            );
            assert_eq!(
                sim.run_shared(&mut arena, &epochs),
                sim.run_exhaustive(&epochs),
                "{what}"
            );
            assert_eq!(arena.steers_shared(), shared, "{what} hit the cache");
        }
        // An equal but distinct `Arc` is a different identity: no hit.
        let mut arena = TimelineArena::new();
        run_policies_shared(&awgr, base, &mut arena, &epochs);
        let shared = arena.steers_shared();
        let twin = Arc::new(epochs.as_ref().clone());
        run_policies_shared(&awgr, base, &mut arena, &twin);
        assert_eq!(arena.steers_shared() - shared, shared);
    }

    #[test]
    fn steer_cache_clears_when_full_or_for_a_new_list_and_skips_oversized_steers() {
        let fabric = awgr_fabric(16);
        // Each epoch's steer grants exactly the 15 pairs into its hot MCM.
        let epochs = Arc::new(hotspot_epochs(16, &[1, 9, 4], 400.0));
        let mut arena = TimelineArena::new();
        arena.steer_cache.cap = 20;
        run_policies_shared(&fabric, FlowSimConfig::default(), &mut arena, &epochs);
        // Room for one steer: every new steer cleared the previous one.
        assert_eq!(arena.steer_cache.entries.len(), 1);
        assert_eq!(arena.steer_cache.cells.len(), 15);
        assert!(arena.steers_solved() > 3, "{}", arena.steers_solved());

        // A steer of another epoch list starts the cache afresh.
        let other = Arc::new(hotspot_epochs(16, &[2], 400.0));
        run_policies_shared(&fabric, FlowSimConfig::default(), &mut arena, &other);
        assert!(Arc::ptr_eq(
            arena.steer_cache.epochs.as_ref().unwrap(),
            &other
        ));
        assert_eq!(arena.steer_cache.entries.len(), 1);

        let mut arena = TimelineArena::new();
        arena.steer_cache.cap = 14;
        run_policies_shared(&fabric, FlowSimConfig::default(), &mut arena, &epochs);
        assert!(arena.steer_cache.entries.is_empty());
        assert_eq!(arena.steers_shared(), 0);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(ReallocationPolicy::Static.label(), "static");
        assert_eq!(ReallocationPolicy::GreedyResteer.label(), "greedy");
        assert_eq!(
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9
            }
            .label(),
            "hyst0.9"
        );
    }

    #[test]
    fn policy_labels_round_trip_and_bad_thresholds_are_rejected() {
        for policy in [
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.0,
            },
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.95,
            },
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 1.0,
            },
        ] {
            assert_eq!(ReallocationPolicy::parse(&policy.label()), Some(policy));
        }
        for bad in [
            "", "hyst", "hystx", "hystNaN", "hystinf", "hyst7", "hyst-2", "Greedy",
        ] {
            assert_eq!(ReallocationPolicy::parse(bad), None, "{bad}");
        }
    }
}
