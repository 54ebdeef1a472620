//! The execution layer: the order-preserving [`parallel_map`] over the
//! vendored pool, thread-count plumbing, the `Arc`-shared fabric
//! memoization cache, and the one plan → batch → fold pipeline behind
//! [`SweepGrid::run`], [`SweepGrid::run_streaming`],
//! [`SweepGrid::run_sharded`], `SweepGrid::run_sampled`, and every `jobs`
//! shard.
//!
//! Execution is *streaming by construction*: every run is one `PlanRun`
//! over a plan — the identity plan over the grid, or a sampler's weighted
//! representatives — whose entries are decoded from the lazy
//! [`ScenarioIter`](crate::sweep::ScenarioIter) one batch at a time.
//! Each batch fans out across the thread pool, and summary metrics (and
//! energy totals) fold into one weighted `SummaryFold` in plan order. `run`
//! is simply the streaming path with every row retained, so the
//! byte-identical golden fixtures exercise the same machinery a
//! million-scenario grid uses with a row cap.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fabric::{
    FabricKey, FlexGridArena, FlexGridConfig, FlexGridSimulator, Flow, FlowArena, FlowSimConfig,
    FlowSimulator, RackFabric, RackFabricConfig, TimelineArena, TimelineConfig, TimelineSimulator,
};
use workloads::DemandTimeline;

use crate::energy::{EnergyConfig, EnergyInputs, EnergyModel, EnergyStats};
use crate::report::{ReuseStats, SteerStats, SweepReport, SweepRow, ThroughputStats};
use crate::sample::{ClusterPlan, Representative, SampleConfig};
use crate::sweep::grid::{derated_fabric, SweepGrid};
use crate::sweep::scenario::{FlexGridRowMetrics, Scenario, ScenarioLoad, ScenarioResult};

/// Run `f` over every item, in parallel, preserving input order.
///
/// The CPU and GPU experiment drivers and the ported table/figure
/// artifacts go through this slice form of [`rayon::run`]; the grid
/// runner calls [`rayon::run_with_init`] itself to keep per-worker arenas.
/// Results are byte-identical to a serial run at any thread count (the
/// pool preserves order and never reorders reductions), and a panic in `f`
/// propagates to the caller.
pub fn parallel_map<I, R, F>(items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    rayon::run(items.len(), |i| f(&items[i]))
}

/// Entries each demand memo map holds before it is wiped. Eviction
/// can never change results (a miss just regenerates the matrix), so a
/// blunt clear-on-cap keeps the bound exact with zero bookkeeping.
const DEMAND_MEMO_CAP: usize = 128;

/// Solves the run-scoped dedup planner retains before it forgets them all —
/// one default batch, the memory the streaming path already budgets. Like
/// the demand memo, eviction can never change results (a forgotten solve
/// is just solved again), so a blunt clear keeps the bound exact.
const RETAINED_SOLVE_CAP: usize = 4096;

/// Demand-memo key: `(demand identity label, mcm_count, effective seed)`.
type MemoKey = (String, u32, u64);

/// Per-worker reusable simulator state: one flow-solver arena, one
/// timeline arena and one flex-grid arena, built once per pool worker and
/// threaded through every scenario that worker executes. Purely scratch —
/// see [`FlowArena`]/[`TimelineArena`]; reuse never changes results.
#[derive(Default)]
struct WorkerScratch {
    flow: FlowArena,
    timeline: TimelineArena,
    flexgrid: FlexGridArena,
}

/// The bounded demand-matrix memo of one batch, shared by every pool
/// worker that solves its leaders, so a matrix is expanded once per batch
/// rather than once per worker: a 350-MCM all-to-all matrix is ~122k flows
/// that a second worker would otherwise build, and page in, again.
///
/// The memo and the timeline arenas work together: every reallocation
/// policy of one timeline gets the same epoch-matrix `Arc` from
/// [`memoized`], and an arena's steer cache, keyed by that `Arc`'s
/// identity, solves each epoch's steer once for all of them.
#[derive(Default)]
struct DemandMemo {
    /// Static demand matrices keyed by `(pattern memo key, mcm_count,
    /// effective seed)` — see [`TrafficPattern::memo_key`]. Replicates of a
    /// seed-insensitive pattern, and every fabric/DWDM/FEC/latency/energy
    /// variant of any pattern, hit one entry.
    ///
    /// [`TrafficPattern::memo_key`]: workloads::TrafficPattern::memo_key
    flows: MemoMap<Vec<Flow>>,
    /// Timeline epoch matrices keyed by `(spec label, mcm_count, seed)`.
    /// Policies are *not* in the key: every reallocation or spectrum policy
    /// of a timeline — and the wavelength vs flex-grid layers themselves —
    /// share one expansion, and so one `Arc` for the steer cache to key on.
    epochs: MemoMap<Vec<Vec<Flow>>>,
}

/// One demand memo map: a cell per key, filled by the first worker that
/// needs it.
type MemoMap<V> = Mutex<HashMap<MemoKey, Arc<OnceLock<Arc<V>>>>>;

/// Look up `key` in a demand memo map, or expand the value with `make`
/// and remember it, wiping the map once it holds [`DEMAND_MEMO_CAP`]
/// entries. `memo: None` (the `--no-reuse` path) bypasses the cache
/// entirely: every call expands a fresh `Arc`, so no timeline steer is
/// shared either.
///
/// The expansion runs outside the map's lock, in the key's cell: a worker
/// that needs a matrix another worker is still expanding waits for it
/// rather than building (and paging in) a second copy.
fn memoized<V>(
    memo: Option<&MemoMap<V>>,
    key: impl FnOnce() -> MemoKey,
    reused: &AtomicUsize,
    make: impl FnOnce() -> V,
) -> Arc<V> {
    let Some(memo) = memo else {
        return Arc::new(make());
    };
    let key = key();
    let cell = {
        let mut memo = memo.lock().unwrap();
        if memo.len() >= DEMAND_MEMO_CAP && !memo.contains_key(&key) {
            memo.clear();
        }
        memo.entry(key).or_default().clone()
    };
    let mut expanded = false;
    let value = cell.get_or_init(|| {
        expanded = true;
        Arc::new(make())
    });
    if !expanded {
        reused.fetch_add(1, Ordering::Relaxed);
    }
    value.clone()
}

/// Fix the engine's thread count from a CLI request, falling back to the
/// `PD_THREADS` environment variable and then to the machine's available
/// parallelism. Returns the effective thread count.
///
/// Binaries call this once at startup (`--threads N` wins over
/// `PD_THREADS=N`, which wins over the hardware default); the first caller
/// in a process pins the global setting through
/// [`rayon::set_global_threads`], and later calls only report it. Tests
/// that need a specific count use [`rayon::with_max_threads`] instead,
/// which scopes the override to a closure.
pub fn configure_threads(requested: Option<usize>) -> usize {
    let threads = requested
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("PD_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    rayon::set_global_threads(threads);
    rayon::current_num_threads()
}

/// Knobs of the streaming execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Scenarios decoded and executed per parallel batch. The default
    /// (4096) keeps per-batch overhead negligible while bounding peak
    /// memory at one batch of scenarios plus one batch of results.
    pub batch_size: usize,
    /// Maximum number of rows (and energy entries) retained in the
    /// returned report; `None` keeps every row. Summary metrics always
    /// aggregate over *all* executed scenarios, capped or not.
    pub row_cap: Option<usize>,
    /// Whether the executor's computation-reuse layer is enabled (the
    /// default): run-scoped dedup of physically identical solves — and of
    /// seed-blind replicates whose solve draws no RNG — with energy-replay
    /// for the duplicates, plus the per-batch demand-matrix memo. The
    /// planner retains up to 4096 solves across batches, so a duplicate is
    /// replayed whichever batch its first solve ran in; `batch_size` never
    /// changes what is solved below that cap. Reuse never changes a single
    /// output byte — `false` (the `--no-reuse` escape hatch) exists for A/B
    /// debugging and benchmarks, solves every scenario, retains nothing,
    /// and controls whether [`SweepReport::reuse`] is populated.
    pub reuse: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_size: 4096,
            row_cap: None,
            reuse: true,
        }
    }
}

impl StreamConfig {
    /// Streaming config with a row cap.
    pub fn with_row_cap(cap: usize) -> Self {
        StreamConfig {
            row_cap: Some(cap),
            ..StreamConfig::default()
        }
    }
}

impl SweepGrid {
    /// Execute the grid in parallel on the vendored thread pool and collect
    /// a [`SweepReport`]. Results are byte-identical to
    /// [`SweepGrid::run_serial`] at any thread count.
    pub fn run(&self) -> SweepReport {
        self.run_streaming(&StreamConfig::default())
    }

    /// Execute the grid on one thread (reference implementation for the
    /// parallel-equivalence contract): [`SweepGrid::run`] under a
    /// one-thread cap, where the pool runs every batch inline.
    pub fn run_serial(&self) -> SweepReport {
        rayon::with_max_threads(1, || self.run())
    }

    /// Execute the grid through the streaming path with explicit knobs:
    /// bounded batches and an optional row cap, so a multi-million-scenario
    /// grid completes without ever materializing all rows. With
    /// `row_cap: None` the result is byte-identical to [`SweepGrid::run`].
    ///
    /// ```
    /// use disagg_core::sweep::{StreamConfig, SweepGrid};
    ///
    /// let grid = SweepGrid::named("s").mcm_counts([16]).replicates(64);
    /// let capped = grid.run_streaming(&StreamConfig::with_row_cap(4));
    /// assert_eq!(capped.rows.len(), 4);
    /// // The summary still aggregates all 64 replicates.
    /// assert_eq!(capped.summary_metric("scenarios"), Some(64.0));
    /// assert_eq!(capped.summary, grid.run().summary);
    /// ```
    pub fn run_streaming(&self, config: &StreamConfig) -> SweepReport {
        PlanRun::new(self, config, None).into_report()
    }

    /// Execute the grid, emitting rows in shards of `rows_per_shard`
    /// through `emit` (each shard a self-contained [`SweepReport`] named
    /// `{name}.shard{k}`), and return a summary-only master report. This is
    /// the JSON-output path for grids too large for one document: peak
    /// memory is one shard, whatever the grid size. Shard `k` holds plan
    /// entries `k * rows_per_shard..`, cut exactly as a `jobs` shard is. A
    /// [`StreamConfig::row_cap`] bounds the total rows emitted across all
    /// shards (shards left empty are not emitted); the summary still
    /// aggregates every scenario.
    pub fn run_sharded(
        &self,
        config: &StreamConfig,
        rows_per_shard: usize,
        emit: &mut dyn FnMut(SweepReport),
    ) -> SweepReport {
        let mut run = PlanRun::new(self, config, None);
        let mut room = config.row_cap.unwrap_or(usize::MAX);
        for (k, entries) in plan_slices(run.len(), rows_per_shard).enumerate() {
            let mut shard = SweepReport::new(format!("{}.shard{k}", self.name));
            run.execute(entries, &mut |result, weight| {
                if shard.rows.len() < room {
                    push_row(&mut shard, result, weight);
                }
            });
            room -= shard.rows.len();
            if !shard.rows.is_empty() {
                emit(shard);
            }
        }
        let mut master = SweepReport::new(self.name.clone());
        run.finish(&mut master);
        master
    }

    /// Number of distinct fabric topologies the grid's hardware axes
    /// (fabric kind, rack size, fibers, wavelengths, data rate, FEC
    /// derating) produce — the value `run` reports as `fabrics_built`,
    /// computed without building anything, so a job whose every shard came
    /// from the on-disk cache (and built no fabric) reports it too.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let grid = SweepGrid::named("d").mcm_counts([16, 24]).replicates(10);
    /// assert_eq!(grid.distinct_fabric_count(), 2);
    /// assert_eq!(grid.run().summary_metric("fabrics_built"), Some(2.0));
    /// ```
    pub fn distinct_fabric_count(&self) -> usize {
        unique_fabric_configs(self).len()
    }
}

/// The slices a plan of `len` entries is cut into at `per_slice` entries
/// each: slice `k` is `k * per_slice..min(len, (k + 1) * per_slice)`. Both
/// [`SweepGrid::run_sharded`] and the `jobs` shard cache cut plans here.
pub(crate) fn plan_slices(
    len: usize,
    per_slice: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> {
    let per_slice = per_slice.max(1);
    (0..len.div_ceil(per_slice)).map(move |k| k * per_slice..len.min((k + 1) * per_slice))
}

/// One run of a grid's execution plan, and the only driver of the engine.
/// The plan is an ordered list of `(grid index, weight)` entries: the
/// identity plan (every scenario in grid-expansion order, weight 1, never
/// materialized) or a cluster plan's weighted representatives. The run
/// owns it with the fabric cache, the run-scoped dedup state, and the one
/// summary fold. Every entry point parametrizes it:
///
/// - [`SweepGrid::run_streaming`] executes the whole plan, keeping rows up
///   to the row cap;
/// - [`SweepGrid::run_sharded`] executes one [`plan_slices`] slice per
///   emitted shard;
/// - `SweepGrid::run_sampled` executes a cluster plan;
/// - a `jobs` run [`absorb`](PlanRun::absorb)s each slice from its shard
///   cache, or executes and checkpoints it.
///
/// Slices must be executed or absorbed in plan order; the summary then
/// folds with the same operation sequence, whichever way each slice came
/// in, so it is byte-identical to an uninterrupted run's.
pub(crate) struct PlanRun<'g> {
    grid: &'g SweepGrid,
    config: StreamConfig,
    sampling: Option<(&'g SampleConfig, ClusterPlan)>,
    /// Built by the first non-empty [`PlanRun::execute`]: a run served
    /// wholly from a shard cache builds no fabric.
    cache: Option<FabricCache>,
    reuse: ReuseState,
    fold: SummaryFold,
    executed: usize,
    wall_s: f64,
}

impl<'g> PlanRun<'g> {
    /// A run of `grid`'s identity plan, or — with `sample` — of its
    /// cluster plan's weighted representatives.
    pub(crate) fn new(
        grid: &'g SweepGrid,
        config: &StreamConfig,
        sample: Option<&'g SampleConfig>,
    ) -> Self {
        PlanRun {
            grid,
            config: *config,
            sampling: sample.map(|sample| (sample, ClusterPlan::build(grid, sample))),
            cache: None,
            reuse: ReuseState::default(),
            fold: SummaryFold::new(),
            executed: 0,
            wall_s: 0.0,
        }
    }

    /// The cluster plan's representatives, unless the run is unsampled
    /// or its cluster plan degenerates to the identity plan. Cluster
    /// weights cover the grid exactly once, so either way the fold divides
    /// by the full population.
    fn representatives(&self) -> Option<&[Representative]> {
        match &self.sampling {
            Some((_, cluster)) if !cluster.exact => Some(&cluster.representatives),
            _ => None,
        }
    }

    /// Number of plan entries.
    pub(crate) fn len(&self) -> usize {
        self.representatives()
            .map_or_else(|| self.grid.scenario_count(), <[_]>::len)
    }

    /// Plan entry `i`'s grid index and row weight. Identity-plan rows carry
    /// no weight (and fold with weight 1).
    fn entry(&self, i: usize) -> (usize, Option<usize>) {
        match self.representatives() {
            Some(reps) => (reps[i].index, Some(reps[i].weight)),
            None => (i, None),
        }
    }

    /// Execute the whole plan into one report named after the grid,
    /// keeping rows up to the config's row cap.
    pub(crate) fn into_report(mut self) -> SweepReport {
        let row_cap = self.config.row_cap.unwrap_or(usize::MAX);
        let mut report = SweepReport::new(self.grid.name.clone());
        self.execute(0..self.len(), &mut |result, weight| {
            if report.rows.len() < row_cap {
                push_row(&mut report, result, weight);
            }
        });
        self.finish(&mut report);
        report
    }

    /// The one batch loop: decode plan entries `entries` lazily in
    /// `batch_size` batches, execute each batch across the pool through the
    /// dedup-planned reuse layer, fold every result into the summary, and
    /// then hand it with its weight to `sink`, in plan order.
    pub(crate) fn execute(
        &mut self,
        entries: Range<usize>,
        sink: &mut dyn FnMut(ScenarioResult, Option<usize>),
    ) {
        if entries.is_empty() {
            return;
        }
        let started = std::time::Instant::now();
        let grid = self.grid;
        // Every distinct topology is built exactly once, from the hardware
        // axes alone (independent of how many load points, latencies, or
        // replicates multiply the grid); worker threads then share the
        // built `RackFabric`s through `Arc` instead of cloning per scenario.
        let cache = self
            .cache
            .take()
            .unwrap_or_else(|| FabricCache::from_grid(grid));
        let scenarios = grid.scenarios();
        let batch_size = self.config.batch_size.max(1);
        let mut batch: Vec<Scenario> = Vec::with_capacity(batch_size.min(entries.len()));
        let mut next = entries.start;
        while next < entries.end {
            let end = entries.end.min(next + batch_size);
            batch.clear();
            batch.extend((next..end).map(|i| {
                scenarios
                    .get(self.entry(i).0)
                    .expect("plan entry within grid bounds")
            }));
            let results = execute_batch(
                &batch,
                &cache,
                grid.indirect_hop_latency_ns,
                &grid.energy_config,
                self.config.reuse,
                &mut self.reuse,
            );
            for (i, result) in (next..end).zip(results) {
                let weight = self.entry(i).1;
                self.fold.absorb(
                    weight.unwrap_or(1),
                    result.satisfaction,
                    result.mean_latency_ns,
                    result.energy.as_ref(),
                );
                sink(result, weight);
            }
            next = end;
        }
        self.cache = Some(cache);
        self.executed += entries.len();
        self.wall_s += started.elapsed().as_secs_f64();
    }

    /// Fold a previously written report of plan entries `entries` — a
    /// cached job shard — as if they had just executed. The shard is
    /// refused, and nothing folded, unless it covers its slice: one row per
    /// entry, each with `satisfaction` and `mean_latency_ns`, and — exactly
    /// when the grid has an energy axis — one energy entry per row, aligned
    /// by label. Row metrics and energy stats round-trip bit-exactly
    /// through JSON, so an absorbed slice folds to the same bits as an
    /// executed one.
    pub(crate) fn absorb(
        &mut self,
        entries: Range<usize>,
        shard: &SweepReport,
    ) -> Result<(), String> {
        let rows = shard.rows.len();
        if rows != entries.len() {
            return Err(format!("{rows} rows for {} plan entries", entries.len()));
        }
        let energy_rows = if self.grid.energy_modes.is_empty() {
            0
        } else {
            rows
        };
        if shard.energy.len() != energy_rows {
            return Err(format!(
                "{} energy entries for {energy_rows} energy rows",
                shard.energy.len()
            ));
        }
        let mut fold = self.fold;
        for (i, (entry, row)) in entries.zip(&shard.rows).enumerate() {
            let metric = |key: &str| {
                row.metric(key)
                    .ok_or_else(|| format!("row {} lacks {key}", row.label))
            };
            let energy = match shard.energy.get(i) {
                Some((label, stats)) if *label == row.label => Some(stats),
                Some((label, _)) => {
                    return Err(format!("row {} has the energy of {label}", row.label))
                }
                None => None,
            };
            fold.absorb(
                self.entry(entry).1.unwrap_or(1),
                metric("satisfaction")?,
                metric("mean_latency_ns")?,
                energy,
            );
        }
        self.fold = fold;
        Ok(())
    }

    /// Close the run: write the summary folded so far (`fabrics_built`
    /// counts the grid's topologies whether or not any was built), the
    /// throughput of what this run executed, the reuse counters (with reuse
    /// on), the steering counters, and — for a sampled run — the sampling
    /// provenance of that summary.
    pub(crate) fn finish(self, report: &mut SweepReport) {
        self.fold.finish(report, self.grid.distinct_fabric_count());
        report.throughput = Some(ThroughputStats {
            scenarios: self.executed,
            wall_s: self.wall_s,
            threads: rayon::current_num_threads(),
        });
        report.reuse = self.config.reuse.then(|| self.reuse.stats());
        report.steering = Some(self.reuse.steer_stats());
        if let Some((sample, cluster)) = &self.sampling {
            report.sampling = Some(cluster.stats(sample, &report.summary));
        }
    }
}

/// Append one result's row (and energy entry, if any) to a report. A
/// weighted row is tagged with its cluster weight — an extra
/// `cluster_weight` parameter after the scenario's own, so sampled rows are
/// self-describing in the JSON.
pub(crate) fn push_row(report: &mut SweepReport, result: ScenarioResult, weight: Option<usize>) {
    let mut row: SweepRow = result.to_row();
    if let Some(weight) = weight {
        row.params
            .push(("cluster_weight".to_string(), weight.to_string()));
    }
    if let Some(energy) = result.energy {
        report.energy.push((row.label.clone(), energy));
    }
    report.rows.push(row);
}

/// The summary fold: weighted sums over results in plan order, with
/// `scenarios = Σ weights` as every mean's denominator. Executed results
/// and the parsed rows of absorbed shards (whose metrics round-trip
/// bit-exactly through JSON) fold with the same operation sequence, so a
/// job's summary is byte-identical to an uninterrupted run's. Weight-1
/// folds are exact sums, since `1.0 * x == x` in IEEE 754.
#[derive(Clone, Copy)]
struct SummaryFold {
    scenarios: usize,
    satisfaction_sum: f64,
    satisfaction_min: f64,
    latency_sum: f64,
    energy_weight: usize,
    energy_total_j: f64,
    energy_watts_sum: f64,
}

impl SummaryFold {
    fn new() -> Self {
        SummaryFold {
            scenarios: 0,
            satisfaction_sum: 0.0,
            satisfaction_min: f64::MAX,
            latency_sum: 0.0,
            energy_weight: 0,
            energy_total_j: 0.0,
            energy_watts_sum: 0.0,
        }
    }

    /// Fold one result that stands for `weight` scenarios.
    fn absorb(
        &mut self,
        weight: usize,
        satisfaction: f64,
        mean_latency_ns: f64,
        energy: Option<&EnergyStats>,
    ) {
        let w = weight as f64;
        self.scenarios += weight;
        self.satisfaction_sum += w * satisfaction;
        self.satisfaction_min = self.satisfaction_min.min(satisfaction);
        self.latency_sum += w * mean_latency_ns;
        if let Some(energy) = energy {
            self.energy_weight += weight;
            self.energy_total_j += w * energy.total_joules();
            self.energy_watts_sum += w * energy.watts();
        }
    }

    fn finish(self, report: &mut SweepReport, fabrics_built: usize) {
        let n = self.scenarios;
        if n == 0 {
            return;
        }
        report.summary = vec![
            ("scenarios".to_string(), n as f64),
            ("fabrics_built".to_string(), fabrics_built as f64),
            (
                "mean_satisfaction".to_string(),
                self.satisfaction_sum / n as f64,
            ),
            ("min_satisfaction".to_string(), self.satisfaction_min),
            ("mean_latency_ns".to_string(), self.latency_sum / n as f64),
        ];
        if self.energy_weight > 0 {
            report
                .summary
                .push(("total_energy_j".to_string(), self.energy_total_j));
            report.summary.push((
                "mean_power_w".to_string(),
                self.energy_watts_sum / self.energy_weight as f64,
            ));
        }
    }
}

/// Memoized fabric constructions: scenarios that share a topology share one
/// built [`RackFabric`] behind an `Arc`, handed to worker threads by
/// reference — never rebuilt or cloned per scenario, and independent of
/// how many scenarios the load/latency/replicate axes multiply onto each
/// topology.
struct FabricCache {
    fabrics: HashMap<FabricKey, Arc<RackFabric>>,
}

impl FabricCache {
    /// Build every distinct topology the grid's hardware axes (fabric kind,
    /// rack size, fibers, wavelengths, data rate, FEC derating) can
    /// produce. Two FEC configs with the same bandwidth overhead derate to
    /// the same wavelength rate and share a fabric. A build takes tens of
    /// microseconds even at full rack scale, less than starting the pool's
    /// threads, so the builds run in sequence.
    fn from_grid(grid: &SweepGrid) -> Self {
        FabricCache {
            fabrics: unique_fabric_configs(grid)
                .into_iter()
                .map(|(key, config)| (key, Arc::new(RackFabric::new(config))))
                .collect(),
        }
    }

    fn get(&self, config: &RackFabricConfig) -> &RackFabric {
        &self.fabrics[&config.key()]
    }
}

/// The distinct topologies the grid's hardware axes produce, in
/// first-encounter order.
fn unique_fabric_configs(grid: &SweepGrid) -> Vec<(FabricKey, RackFabricConfig)> {
    let mut seen: HashSet<FabricKey> = HashSet::new();
    let mut unique: Vec<(FabricKey, RackFabricConfig)> = Vec::new();
    for &kind in &grid.fabric_kinds {
        for &mcm_count in &grid.mcm_counts {
            for &fibers_per_mcm in &grid.fibers_per_mcm {
                for &wavelengths_per_fiber in &grid.wavelengths_per_fiber {
                    for &gbps in &grid.gbps_per_wavelength {
                        for fec in &grid.fec_configs {
                            let config = derated_fabric(
                                kind,
                                mcm_count,
                                fibers_per_mcm,
                                wavelengths_per_fiber,
                                gbps,
                                fec,
                            );
                            let key = config.key();
                            if seen.insert(key) {
                                unique.push((key, config));
                            }
                        }
                    }
                }
            }
        }
    }
    unique
}

/// The seedless solve key of one scenario: every input that reaches the
/// flow/timeline/flex-grid solver except the solver's own RNG seed. Pattern
/// loads carry [`TrafficPattern::effective_seed`] — the part of the seed
/// their demand expansion reads — so every replicate of a seed-insensitive
/// pattern shares one key; temporal loads keep the raw seed, because their
/// phase seeds derive from it. Axes that only change how the solve is
/// *accounted* — the energy mode, and FEC fields other than the bandwidth
/// derating already folded into the fabric's wavelength rate — are
/// deliberately absent, so an `[always, util]` energy grid dedups 2:1 by
/// construction.
///
/// Two scenarios with equal keys and equal seeds perform byte-identical
/// solves. With equal keys alone they do whenever the solve draws no RNG.
///
/// [`TrafficPattern::effective_seed`]: workloads::TrafficPattern::effective_seed
type SolveKey = (u8, String, FabricKey, u64, u64);

fn solve_key(scenario: &Scenario) -> SolveKey {
    let (kind, load) = scenario.load.solve_key();
    let seed = match &scenario.load {
        ScenarioLoad::Pattern(pattern) => pattern.effective_seed(scenario.seed),
        ScenarioLoad::Timeline(_) | ScenarioLoad::FlexGrid(_) => scenario.seed,
    };
    (
        kind,
        load,
        scenario.fabric.key(),
        scenario.direct_latency_ns.to_bits(),
        seed,
    )
}

/// The run-scoped state of the dedup planner, threaded through every batch
/// of a [`PlanRun`] (and so every shard a job executes): the
/// retained solves, the two plan maps that index them, and the reuse
/// counters finalized into a [`ReuseStats`] block on the report.
///
/// Because the plan outlives the batch, a scenario whose solve an earlier
/// batch — or an earlier shard — already performed is replayed, never
/// solved again. At most [`RETAINED_SOLVE_CAP`] solves are retained (a
/// single larger batch still plans as one unit); a fresh state — a resumed
/// job, say — just solves more and produces the same bytes.
#[derive(Default)]
struct ReuseState {
    groups: usize,
    leaders_solved: usize,
    followers_replayed: usize,
    matrices_reused: usize,
    solver_s_saved: f64,
    steers_solved: usize,
    steers_shared: usize,
    /// Retained solves; the plan maps and batch roles index into this.
    solves: Vec<RetainedSolve>,
    /// The probe of each solve key: its first solve this run.
    probe_of: HashMap<SolveKey, usize>,
    /// The leader of each `(probe, seed)` pair whose probe drew RNG.
    seed_leader: HashMap<(usize, u64), usize>,
}

impl ReuseState {
    fn stats(&self) -> ReuseStats {
        ReuseStats {
            groups: self.groups,
            leaders_solved: self.leaders_solved,
            followers_replayed: self.followers_replayed,
            matrices_reused: self.matrices_reused,
            solver_s_saved: self.solver_s_saved,
        }
    }

    fn steer_stats(&self) -> SteerStats {
        SteerStats {
            steers_solved: self.steers_solved,
            steers_shared: self.steers_shared,
        }
    }

    /// Retain freshly solved leaders, counting their timeline steers.
    fn retain(&mut self, solved: Vec<RetainedSolve>) {
        for solve in &solved {
            self.steers_solved += solve.steers_solved;
            self.steers_shared += solve.steers_shared;
        }
        self.solves.extend(solved);
    }

    /// Forget every retained solve (the counters keep running).
    fn forget_solves(&mut self) {
        self.solves.clear();
        self.probe_of.clear();
        self.seed_leader.clear();
    }
}

/// A [`ScenarioResult`]'s solver outputs: everything but the scenario
/// itself and its energy accounting, which replay re-derives per scenario.
#[derive(Debug, Clone, Copy)]
struct SolveOutputs {
    flows: usize,
    offered_gbps: f64,
    satisfied_gbps: f64,
    satisfaction: f64,
    direct_only_fraction: f64,
    indirect_fraction: f64,
    unsatisfied_fraction: f64,
    mean_latency_ns: f64,
    epochs: usize,
    reconfigurations: usize,
    flexgrid: Option<FlexGridRowMetrics>,
}

/// One leader's solve, as the planner retains it: the solver outputs and
/// report digest replay reads, the seed it solved under, whether the solve
/// provably never read that seed, and the measured solve time (what each
/// follower is credited as saved). No clone of the leader's [`Scenario`].
struct RetainedSolve {
    outputs: SolveOutputs,
    digest: EnergyInputs,
    seed: u64,
    /// A flow solve that shuffled no candidate list: the result holds for
    /// every seed that expands the same demand.
    seed_blind: bool,
    solve_s: f64,
    /// Timeline steers this solve ran the flow solver for, and steers it
    /// restored from its worker's steer cache (both zero for other loads).
    steers_solved: usize,
    steers_shared: usize,
    /// Whether any follower has replayed this solve yet.
    replayed: bool,
}

/// Materialize a scenario's result from a retained solve — its own, or an
/// earlier scenario's: copy the solver outputs, attach the scenario (label,
/// params, energy mode, FEC), and account energy by replaying the digest
/// through the scenario's own `EnergyModel`. Bit-identical to solving the
/// scenario, because the solver never sees the axes the solve key factored
/// out and energy accounting is a pure function of the digest.
fn replay_scenario(
    solve: &RetainedSolve,
    scenario: &Scenario,
    energy_config: &EnergyConfig,
) -> ScenarioResult {
    let o = solve.outputs;
    let energy = scenario.energy_mode.map(|mode| {
        let model = EnergyModel::new(mode, *energy_config, &scenario.fabric, &scenario.fec);
        model.account(&solve.digest)
    });
    ScenarioResult {
        scenario: scenario.clone(),
        flows: o.flows,
        offered_gbps: o.offered_gbps,
        satisfied_gbps: o.satisfied_gbps,
        satisfaction: o.satisfaction,
        direct_only_fraction: o.direct_only_fraction,
        indirect_fraction: o.indirect_fraction,
        unsatisfied_fraction: o.unsatisfied_fraction,
        mean_latency_ns: o.mean_latency_ns,
        epochs: o.epochs,
        reconfigurations: o.reconfigurations,
        energy,
        flexgrid: o.flexgrid,
    }
}

/// Whether a batch position solves for real or replays a retained solve.
enum Role {
    /// Solve, retaining the result in slot `i`.
    Leader(usize),
    /// Replay the solve retained in slot `i`.
    Follower(usize),
}

/// Execute one batch of scenarios through the reuse layer, returning
/// results in batch order.
///
/// The batch is *dedup-planned* in two stages against the run-scoped
/// [`ReuseState`], and only the scenarios the plan names as leaders reach
/// the solver:
///
/// 1. Scenarios are grouped by [`SolveKey`]. The first scenario of each key
///    this run — in this batch or an earlier one — is its **probe**; every
///    probe solves.
/// 2. The other members of a group whose probe was seed-blind (drew no RNG)
///    replay the probe: their solve would be the probe's bit for bit. In
///    the other groups, members sharing the probe's seed replay it, and
///    the rest dedup by seed — the first member with each new seed leads
///    and solves, later ones (in any later batch too) replay it.
///
/// Every result, leader or follower, is materialized by
/// [`replay_scenario`]. The plan is a pure function of the scenario
/// sequence and the probes' deterministic solves — the only state workers
/// share is the [`DemandMemo`] of pure demand matrices — so results are
/// thread-count-invariant by construction, and
/// below [`RETAINED_SOLVE_CAP`] the set of solves does not depend on where
/// batch boundaries fall. `reuse: false` runs the same planner with every
/// scenario in its own group, the demand memo off, and nothing retained
/// across batches, which solves everything and produces the same bytes.
///
/// Leaders fan out across the pool with one scratch per worker, built per
/// call, and one demand memo for the batch; at one thread the pool runs
/// them inline on one scratch.
fn execute_batch(
    batch: &[Scenario],
    cache: &FabricCache,
    indirect_hop_ns: f64,
    energy_config: &EnergyConfig,
    reuse: bool,
    state: &mut ReuseState,
) -> Vec<ScenarioResult> {
    let matrices = AtomicUsize::new(0);
    let memo = DemandMemo::default();
    let solve = |leaders: &[&Scenario]| -> Vec<RetainedSolve> {
        // Pattern leaders go largest first, so the pool starts its longest
        // solves (a full-rack all-to-all is ~122k flows) on separate
        // workers at once instead of meeting one late. Timeline leaders of
        // one seed — the reallocation policies of one timeline on one
        // rack, which share an epoch-matrix `Arc` — solve back to back, so
        // a worker's steer cache only has to hold the steers of the group
        // in hand. Solves are pure, so the order they run in is free;
        // results go back to leader order.
        let mut order: Vec<usize> = (0..leaders.len()).collect();
        order.sort_by_key(|&i| match &leaders[i].load {
            ScenarioLoad::Pattern(pattern) => (
                Reverse(pattern.max_flows(leaders[i].fabric.mcm_count)),
                None,
            ),
            ScenarioLoad::Timeline(_) => (Reverse(0), Some(leaders[i].seed)),
            ScenarioLoad::FlexGrid(_) => (Reverse(0), None),
        });
        // Each pool worker builds one `WorkerScratch` and reuses its arenas
        // for every solve it steals, so the hot path stops allocating per
        // scenario; solves never read the arenas' history, so results stay
        // byte-identical at any thread count.
        let mut solved = rayon::run_with_init(order.len(), WorkerScratch::default, |scratch, k| {
            let i = order[k];
            let solve = solve_scenario(
                leaders[i],
                cache,
                indirect_hop_ns,
                reuse.then_some(&memo),
                scratch,
                &matrices,
            );
            (i, solve)
        });
        solved.sort_unstable_by_key(|&(i, _)| i);
        solved.into_iter().map(|(_, solve)| solve).collect()
    };

    // Clearing only between batches keeps every slot this batch refers to
    // alive until its results are out.
    if !reuse || state.solves.len() + batch.len() > RETAINED_SOLVE_CAP {
        state.forget_solves();
    }

    // Stage 1: the first scenario of each solve key this run probes it.
    let mut roles: Vec<Role> = Vec::with_capacity(batch.len());
    let mut leaders: Vec<&Scenario> = Vec::new();
    for scenario in batch {
        let next = state.solves.len() + leaders.len();
        let slot = if reuse {
            *state.probe_of.entry(solve_key(scenario)).or_insert(next)
        } else {
            next
        };
        if slot == next {
            leaders.push(scenario);
            roles.push(Role::Leader(slot));
        } else {
            roles.push(Role::Follower(slot));
        }
    }
    let mut solved_count = leaders.len();
    state.retain(solve(&leaders));

    // Stage 2: a probe that drew RNG speaks only for its own seed. Equal
    // solve keys and equal seeds mean equal physical inputs, so keying the
    // rest of its group by (probe, seed) is the physical-key dedup.
    leaders.clear();
    let probes_end = state.solves.len();
    for (role, scenario) in roles.iter_mut().zip(batch) {
        let Role::Follower(probe) = *role else {
            continue;
        };
        let probe_solve = &state.solves[probe];
        if probe_solve.seed_blind || probe_solve.seed == scenario.seed {
            continue;
        }
        let next = probes_end + leaders.len();
        let slot = *state
            .seed_leader
            .entry((probe, scenario.seed))
            .or_insert(next);
        if slot == next {
            leaders.push(scenario);
            *role = Role::Leader(slot);
        } else {
            *role = Role::Follower(slot);
        }
    }
    solved_count += leaders.len();
    state.retain(solve(&leaders));

    state.leaders_solved += solved_count;
    state.followers_replayed += batch.len() - solved_count;
    state.matrices_reused += matrices.load(Ordering::Relaxed);
    for role in &roles {
        if let Role::Follower(slot) = *role {
            let leader = &mut state.solves[slot];
            state.solver_s_saved += leader.solve_s;
            if !leader.replayed {
                leader.replayed = true;
                state.groups += 1;
            }
        }
    }

    roles
        .iter()
        .zip(batch)
        .map(|(role, scenario)| {
            let (Role::Leader(slot) | Role::Follower(slot)) = *role;
            replay_scenario(&state.solves[slot], scenario, energy_config)
        })
        .collect()
}

/// Solve one scenario for real: expand (or memo-fetch) its demand, run the
/// matching simulator, and package its solver outputs with the retained
/// digest and measured solve time.
fn solve_scenario(
    scenario: &Scenario,
    cache: &FabricCache,
    indirect_hop_ns: f64,
    memo: Option<&DemandMemo>,
    scratch: &mut WorkerScratch,
    matrices: &AtomicUsize,
) -> RetainedSolve {
    let started = std::time::Instant::now();
    let fabric = cache.get(&scenario.fabric);
    let flow_config = FlowSimConfig {
        direct_latency_ns: scenario.direct_latency_ns,
        indirect_hop_latency_ns: indirect_hop_ns,
        // Decorrelate the Valiant intermediate choice from the traffic
        // generator while staying a pure function of the scenario seed.
        seed: scenario.seed ^ 0x9E37_79B9_7F4A_7C15,
    };
    let (mcm_count, seed) = (scenario.fabric.mcm_count, scenario.seed);
    let epochs = |timeline: &DemandTimeline| {
        memoized(
            memo.map(|memo| &memo.epochs),
            || (timeline.spec_label(), mcm_count, seed),
            matrices,
            || timeline.epoch_matrices(mcm_count, seed),
        )
    };
    let mut steers = (0, 0);
    let (outputs, digest, seed_blind) = match &scenario.load {
        ScenarioLoad::Pattern(pattern) => {
            let flows = memoized(
                memo.map(|memo| &memo.flows),
                || (pattern.memo_key(), mcm_count, pattern.effective_seed(seed)),
                matrices,
                || pattern.flows(mcm_count, seed),
            );
            // The executor reads only the aggregates, so the solve keeps
            // no per-flow records.
            let report =
                FlowSimulator::new(fabric, flow_config).run_totals_in(&mut scratch.flow, &flows);
            let digest = EnergyInputs::flows(&report);
            let outputs = SolveOutputs {
                flows: flows.len(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: report.satisfied_gbps,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns: report.mean_latency_ns,
                epochs: 1,
                reconfigurations: 0,
                flexgrid: None,
            };
            (outputs, digest, report.shuffled_flows == 0)
        }
        ScenarioLoad::Timeline(tc) => {
            let epochs = epochs(&tc.timeline);
            let sim = TimelineSimulator::new(
                fabric,
                TimelineConfig {
                    flow: flow_config,
                    policy: tc.policy,
                },
            );
            let arena = &mut scratch.timeline;
            let before = (arena.steers_solved(), arena.steers_shared());
            let report = sim.run_shared(arena, &epochs);
            steers = (
                arena.steers_solved() - before.0,
                arena.steers_shared() - before.1,
            );
            let digest = EnergyInputs::timeline(&report);
            let outputs = SolveOutputs {
                flows: report.epochs.iter().map(|e| e.flows).sum(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: report.satisfied_gbps,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns: report.mean_latency_ns,
                epochs: report.epochs.len(),
                reconfigurations: report.reconfigurations,
                flexgrid: None,
            };
            scratch.timeline.recycle(report);
            (outputs, digest, false)
        }
        ScenarioLoad::FlexGrid(fc) => {
            // Flex-grid scenarios share their timeline's seed derivation
            // with wavelength-timeline scenarios, so the two layers are
            // graded against the identical epoch-by-epoch demand.
            let epochs = epochs(&fc.timeline);
            let sim = FlexGridSimulator::new(
                fabric,
                FlexGridConfig {
                    policy: fc.policy,
                    ..FlexGridConfig::default()
                },
            );
            let report = sim.run_in(&mut scratch.flexgrid, &epochs);
            let carried = report.carried_gbps();
            // Demand-weighted mean latency: local and direct demand at the
            // direct latency, detoured demand pays one extra hop.
            let mean_latency_ns = if carried > 0.0 {
                ((report.carried_local_gbps + report.carried_direct_gbps)
                    * scenario.direct_latency_ns
                    + report.carried_indirect_gbps * (scenario.direct_latency_ns + indirect_hop_ns))
                    / carried
            } else {
                0.0
            };
            let digest = EnergyInputs::flexgrid(&report);
            let outputs = SolveOutputs {
                flows: report.epochs.iter().map(|e| e.flows).sum(),
                offered_gbps: report.offered_gbps,
                satisfied_gbps: carried,
                satisfaction: report.satisfaction(),
                direct_only_fraction: report.direct_only_fraction,
                indirect_fraction: report.indirect_fraction,
                unsatisfied_fraction: report.unsatisfied_fraction,
                mean_latency_ns,
                epochs: report.epochs.len(),
                reconfigurations: report.defrag_events,
                flexgrid: Some(FlexGridRowMetrics {
                    blocking_probability: report.blocking_probability(),
                    fragmentation_index: report.mean_fragmentation_index,
                    slots_in_use: report.mean_slots_in_use,
                    defrag_events: report.defrag_events as f64,
                }),
            };
            scratch.flexgrid.recycle(report);
            (outputs, digest, false)
        }
    };
    RetainedSolve {
        outputs,
        digest,
        seed: scenario.seed,
        seed_blind,
        solve_s: started.elapsed().as_secs_f64(),
        steers_solved: steers.0,
        steers_shared: steers.1,
        replayed: false,
    }
}
