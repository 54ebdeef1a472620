//! Flow-level wavelength-allocation simulator.
//!
//! The paper's bandwidth argument (Section VI-A1) is made at the level of
//! flows between MCM pairs: how much of each pair's demand can be satisfied
//! by the direct wavelengths, and how much needs indirect routing through
//! intermediates with spare capacity. This simulator takes a demand matrix
//! (a set of [`Flow`]s in Gbps), allocates direct capacity first and then
//! two-hop indirect capacity, and reports satisfaction, hop statistics, and
//! the latency each flow sees (direct fabric latency plus one extra
//! traversal for indirect hops).

use crate::rackfabric::RackFabric;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// One flow of the demand matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Source MCM.
    pub src: u32,
    /// Destination MCM.
    pub dst: u32,
    /// Offered load in Gbps.
    pub demand_gbps: f64,
}

impl Flow {
    /// Convenience constructor.
    pub fn new(src: u32, dst: u32, demand_gbps: f64) -> Self {
        Flow {
            src,
            dst,
            demand_gbps,
        }
    }

    /// The flow with its demand sanitized per the simulator contract:
    /// non-finite or negative demands become zero (trivially satisfied).
    /// Both [`FlowSimulator`] and the timeline simulator apply exactly this
    /// rule, so they always agree on what a matrix offers.
    pub fn sanitized(self) -> Self {
        Flow {
            demand_gbps: if self.demand_gbps.is_finite() {
                self.demand_gbps.max(0.0)
            } else {
                0.0
            },
            ..self
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSimConfig {
    /// One-way fabric latency for a direct hop, in nanoseconds (the paper's
    /// 35 ns photonic budget).
    pub direct_latency_ns: f64,
    /// Additional latency per extra (indirect) hop, in nanoseconds: another
    /// OEO conversion plus intra-rack propagation ("a few extra ns").
    pub indirect_hop_latency_ns: f64,
    /// RNG seed for the Valiant intermediate choice; each flow's stream
    /// is keyed by this seed and the flow's index.
    pub seed: u64,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            direct_latency_ns: 35.0,
            indirect_hop_latency_ns: 8.0,
            seed: 0xF10,
        }
    }
}

/// Per-flow allocation result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowAllocation {
    /// The flow.
    pub flow: Flow,
    /// Gbps satisfied over the direct wavelengths.
    pub direct_gbps: f64,
    /// Gbps satisfied over indirect two-hop paths.
    pub indirect_gbps: f64,
    /// Average latency seen by the flow's traffic in nanoseconds (weighted
    /// over direct and indirect shares); zero if nothing was allocated.
    pub latency_ns: f64,
}

impl FlowAllocation {
    /// Total satisfied bandwidth.
    pub fn satisfied_gbps(&self) -> f64 {
        self.direct_gbps + self.indirect_gbps
    }

    /// Fraction of the demand satisfied, always in `[0, 1]`.
    ///
    /// A flow with no positive finite demand (zero, negative, NaN, or
    /// infinite) asks for nothing and is trivially satisfied: this returns
    /// `1.0`, never NaN.
    pub fn satisfaction(&self) -> f64 {
        // NaN demands fail the comparison and take the trivial branch.
        if self.flow.demand_gbps.is_finite() && self.flow.demand_gbps > 0.0 {
            (self.satisfied_gbps() / self.flow.demand_gbps).min(1.0)
        } else {
            1.0
        }
    }
}

/// Aggregate report over all flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSimReport {
    /// Per-flow allocations.
    pub allocations: Vec<FlowAllocation>,
    /// Total offered demand (Gbps).
    pub offered_gbps: f64,
    /// Total satisfied (Gbps).
    pub satisfied_gbps: f64,
    /// Satisfied bandwidth carried over direct fabric wavelengths (Gbps).
    /// Excludes MCM-local self-flows, which never touch the fabric, so
    /// `fabric_direct_gbps + fabric_indirect_gbps` can be less than
    /// `satisfied_gbps`. The energy layer charges transceiver energy on
    /// exactly these fabric-crossing bits.
    pub fabric_direct_gbps: f64,
    /// Satisfied bandwidth carried over two-hop indirect paths (Gbps). Each
    /// indirect bit traverses two fabric links, which the energy layer
    /// charges at twice the per-bit transceiver energy.
    pub fabric_indirect_gbps: f64,
    /// Fraction of flows fully satisfied by direct wavelengths alone.
    pub direct_only_fraction: f64,
    /// Fraction of flows that needed indirect routing.
    pub indirect_fraction: f64,
    /// Fraction of flows left with unmet demand.
    pub unsatisfied_fraction: f64,
    /// Demand-weighted average latency in nanoseconds.
    pub mean_latency_ns: f64,
    /// Flows whose indirect pass shuffled a Valiant candidate list. The
    /// shuffle is the solver's only use of [`FlowSimConfig::seed`], so a
    /// report with zero here is a pure function of the fabric, the flows,
    /// and the two latencies: rerunning under any other seed reproduces it
    /// bit for bit. The sweep executor relies on this to solve seed-blind
    /// replicates once.
    pub shuffled_flows: usize,
}

impl FlowSimReport {
    /// Overall throughput satisfaction (satisfied / offered), always a
    /// defined value in `[0, 1]`.
    ///
    /// With nothing offered — an empty flow list, or only zero-demand
    /// flows — there is nothing to fail, so this returns `1.0` by
    /// definition (never NaN from the `0/0` it would otherwise compute).
    pub fn satisfaction(&self) -> f64 {
        // NaN offered demand fails the comparison and takes the trivial
        // branch.
        if self.offered_gbps > 0.0 {
            self.satisfied_gbps / self.offered_gbps
        } else {
            1.0
        }
    }
}

/// Reusable scratch state for [`FlowSimulator`] runs: the wavelength
/// occupancy board, the short-flow and candidate buffers, and the
/// allocation vector, all kept warm across runs so the steady path
/// allocates nothing.
///
/// An arena is plain scratch — it never changes results. Running through a
/// fresh arena, a reused arena, or [`FlowSimulator::run`] (which builds a
/// throwaway arena internally) produces bit-identical reports; the sweep
/// engine keeps one arena per worker thread and threads it through every
/// scenario that worker executes.
///
/// # Example
///
/// ```
/// use fabric::{Flow, FlowArena, FlowSimConfig, FlowSimulator, RackFabric};
///
/// let fabric = RackFabric::paper_awgr();
/// let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
/// let flows = [Flow::new(0, 1, 100.0), Flow::new(1, 2, 400.0)];
///
/// let mut arena = FlowArena::new();
/// let first = sim.run_in(&mut arena, &flows);
/// // Recycling the report returns its allocation buffer to the arena, so
/// // the next run on this arena allocates nothing at all.
/// arena.recycle(first.clone());
/// let second = sim.run_in(&mut arena, &flows);
/// assert_eq!(first, second);
/// assert_eq!(second, sim.run(&flows)); // identical to the arena-free path
/// ```
#[derive(Debug)]
pub struct FlowArena {
    /// The rack size the occupancy board is laid out for.
    mcm_count: u32,
    /// The occupancy board, flat row-major: `occupied[src * mcm_count +
    /// dst]` = direct wavelengths in use from `src` to `dst`. One
    /// contiguous allocation, cache-friendly row scans.
    occupied: Vec<u32>,
    /// Pairs occupied on the board by the previous run; cleared entry by
    /// entry on reuse instead of wiping (or reallocating) the whole
    /// `N x N` board. Recording stops at `dense_cutoff` entries, where
    /// [`prepare`](FlowArena::prepare) wipes the board instead.
    touched: Vec<(u32, u32)>,
    dense_cutoff: usize,
    /// `(flow index, direct Gbps)` of every flow the direct pass left
    /// short of its demand, in flow order. Every other flow's direct share
    /// is its whole (sanitized) demand, so the indirect pass needs no
    /// per-flow buffer: an all-to-all matrix that fits direct leaves this
    /// empty.
    short: Vec<(usize, f64)>,
    candidates: Vec<u32>,
    /// The identity permutation `0..mcm_count`, kept warm across runs so
    /// the indirect pass can build each flow's candidate list with three
    /// slice copies (everything below, between, and above the endpoints)
    /// instead of a filtered element-by-element rebuild. The contents are
    /// identical to the filtered build, so the Valiant shuffle places the
    /// same candidates either way.
    ident: Vec<u32>,
    allocations: Vec<FlowAllocation>,
}

impl FlowArena {
    /// An empty arena; buffers grow on first use and stay allocated.
    pub fn new() -> Self {
        FlowArena {
            mcm_count: 0,
            occupied: Vec::new(),
            touched: Vec::new(),
            dense_cutoff: 0,
            short: Vec::new(),
            candidates: Vec::new(),
            ident: Vec::new(),
            allocations: Vec::new(),
        }
    }

    /// Reclaim the allocation buffer of a report produced by
    /// [`FlowSimulator::run_in`] on this arena, once the caller is done
    /// with it. Purely an allocation-reuse hook: skipping it never changes
    /// results, it just costs one `Vec` per run.
    pub fn recycle(&mut self, mut report: FlowSimReport) {
        report.allocations.clear();
        self.allocations = report.allocations;
    }

    /// Ready the board for a run on a rack of `mcm_count` MCMs: same-size
    /// boards are delta-cleared via the touched-pair list from the previous
    /// run when that list is sparse; a dense touch list (or a size change)
    /// wipes the whole board instead. The crossover matters: scattered
    /// single-cell clears cost a cache miss each, so past ~1/8 board
    /// coverage the sequential memset is cheaper than chasing the list —
    /// exactly the regime indirect-heavy patterns (hotspot) put the arena
    /// in.
    fn prepare(&mut self, mcm_count: u32) {
        let cells = mcm_count as usize * mcm_count as usize;
        // A list that reached the cutoff stopped recording, so it may be
        // incomplete: only a shorter one names every occupied pair.
        if self.mcm_count == mcm_count && self.touched.len() < self.dense_cutoff {
            for &(src, dst) in &self.touched {
                let i = self.cell(src, dst);
                self.occupied[i] = 0;
            }
        } else {
            self.mcm_count = mcm_count;
            self.occupied.clear();
            self.occupied.resize(cells, 0);
        }
        self.touched.clear();
        self.dense_cutoff = cells / 8;
        if self.ident.len() != mcm_count as usize {
            self.ident.clear();
            self.ident.extend(0..mcm_count);
        }
    }

    /// The board index of the `(src, dst)` pair.
    #[inline]
    fn cell(&self, src: u32, dst: u32) -> usize {
        src as usize * self.mcm_count as usize + dst as usize
    }

    /// Direct wavelengths from `src` to `dst` on `fabric` that the board
    /// leaves free.
    fn free(&self, fabric: &RackFabric, src: u32, dst: u32) -> u32 {
        fabric
            .direct_wavelengths(src, dst)
            .saturating_sub(self.occupied[self.cell(src, dst)])
    }

    /// Occupy `n` wavelengths from `src` to `dst`, recording the pair for
    /// the next run's delta clear until the list reaches the dense cutoff.
    fn occupy(&mut self, src: u32, dst: u32, n: u32) {
        let i = self.cell(src, dst);
        self.occupied[i] += n;
        if self.touched.len() < self.dense_cutoff {
            self.touched.push((src, dst));
        }
    }
}

impl Default for FlowArena {
    fn default() -> Self {
        FlowArena::new()
    }
}

/// The seed of flow `index`'s Valiant candidate stream under `seed`:
/// `splitmix64(seed ^ splitmix64(index))`, fed to `StdRng::seed_from_u64`.
/// Mixing matters: `seed_from_u64` expands its seed by SplitMix64, so seeds
/// a few increments apart (`seed + index * φ`) would share three of their
/// four xoshiro state words, while finalized seeds land far apart. Each
/// flow owning its stream is what lets the lazy shuffle in
/// [`FlowSimulator::run_in`] stop early without moving any later flow's
/// draws.
fn flow_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ splitmix64(index as u64))
}

/// One SplitMix64 step from state `x`: the increment, then the 64-bit
/// finalizer (a bijection, so distinct inputs give distinct outputs).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The draw that fixes position `i` of a forward Fisher–Yates over `len`
/// items: an index uniform in `i..len`.
#[inline]
fn forward_pick(i: usize, len: usize, rng: &mut StdRng) -> usize {
    i + (rng.next_u64() % (len - i) as u64) as usize
}

/// A complete forward Fisher–Yates: position `i` is fixed at step `i`, so
/// any prefix of the result equals what a shuffle stopped after that prefix
/// leaves there.
fn shuffle_forward(items: &mut [u32], rng: &mut StdRng) {
    for i in 0..items.len() {
        items.swap(i, forward_pick(i, items.len(), rng));
    }
}

/// The flow-level simulator.
#[derive(Debug)]
pub struct FlowSimulator<'a> {
    fabric: &'a RackFabric,
    config: FlowSimConfig,
}

impl<'a> FlowSimulator<'a> {
    /// Create a simulator over a fabric.
    pub fn new(fabric: &'a RackFabric, config: FlowSimConfig) -> Self {
        FlowSimulator { fabric, config }
    }

    /// Allocate wavelength capacity to the given flows and report.
    ///
    /// Direct capacity is allocated first for every flow; remaining demand is
    /// then served with two-hop indirect paths through intermediates that
    /// still have free wavelengths on both legs, chosen in a Valiant
    /// (uniformly random among productive candidates) fashion. Each flow
    /// that needs indirect capacity draws its candidate order from its own
    /// generator, keyed by [`FlowSimConfig::seed`] and the flow's index in
    /// `flows`, so one flow's order never depends on another's.
    ///
    /// # Contract
    ///
    /// Every field of the returned [`FlowSimReport`] is a defined (non-NaN)
    /// value for every input:
    ///
    /// * an empty flow list yields a report with zero offered/satisfied
    ///   bandwidth, zero fractions and latency, and
    ///   [`satisfaction()`](FlowSimReport::satisfaction) equal to `1.0`;
    /// * self-flows (`src == dst`) are served MCM-locally and never touch
    ///   fabric wavelengths;
    /// * non-finite or negative demands are sanitized to zero demand before
    ///   allocation, so they count as trivially satisfied.
    ///
    /// # Example
    ///
    /// ```
    /// use fabric::{Flow, FlowSimConfig, FlowSimulator, RackFabric};
    ///
    /// let fabric = RackFabric::paper_awgr();
    /// let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
    ///
    /// // A 100 Gbps flow fits in the >= 125 Gbps direct wavelengths.
    /// let report = sim.run(&[Flow::new(0, 1, 100.0)]);
    /// assert!((report.satisfaction() - 1.0).abs() < 1e-9);
    /// assert_eq!(report.indirect_fraction, 0.0);
    ///
    /// // The empty demand matrix is trivially satisfied, never NaN.
    /// let empty = sim.run(&[]);
    /// assert_eq!(empty.satisfaction(), 1.0);
    /// assert_eq!(empty.mean_latency_ns, 0.0);
    /// ```
    pub fn run(&self, flows: &[Flow]) -> FlowSimReport {
        // `run` keeps the original filtered candidate build and shuffles
        // each list completely before scanning it: it is the independent
        // oracle the bench floors and equivalence tests pin the arena fast
        // path against (the same role `run_exhaustive` plays for the
        // incremental timeline).
        self.run_core(&mut FlowArena::new(), flows, Path::Oracle)
    }

    /// [`run`](FlowSimulator::run) through a caller-provided scratch
    /// [`FlowArena`], reusing its buffers instead of allocating fresh state
    /// per run. Results are bit-identical to `run` — the arena is pure
    /// scratch (see the [`FlowArena`] docs for the reuse pattern, including
    /// [`FlowArena::recycle`] for the returned report's allocation buffer).
    /// This is the hot path: the indirect pass builds candidate lists from
    /// the arena's identity buffer with three slice copies per flow instead
    /// of the filtered rebuild `run` uses, and shuffles lazily, stopping at
    /// the last intermediate the flow uses instead of shuffling the whole
    /// list first. A forward Fisher–Yates fixes position `i` at step `i`
    /// from the flow's own generator, so the prefix the scan reaches is the
    /// same either way.
    pub fn run_in(&self, arena: &mut FlowArena, flows: &[Flow]) -> FlowSimReport {
        self.run_core(arena, flows, Path::Arena)
    }

    /// [`run_in`](FlowSimulator::run_in) without the per-flow records: the
    /// returned report's `allocations` is empty, and every other field is
    /// bit-identical to `run_in`'s (and so to `run`'s). For callers that
    /// read only the aggregates: a full-rack all-to-all matrix is ~122k
    /// flows, whose records would be ~5 MB that a fresh arena has to page
    /// in.
    ///
    /// ```
    /// use fabric::{Flow, FlowArena, FlowSimConfig, FlowSimulator, RackFabric};
    ///
    /// let fabric = RackFabric::paper_awgr();
    /// let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
    /// let flows = [Flow::new(0, 1, 100.0), Flow::new(1, 2, 4000.0)];
    ///
    /// let totals = sim.run_totals_in(&mut FlowArena::new(), &flows);
    /// let full = sim.run(&flows);
    /// assert!(totals.allocations.is_empty());
    /// assert_eq!(totals.satisfied_gbps, full.satisfied_gbps);
    /// assert_eq!(totals.shuffled_flows, full.shuffled_flows);
    /// ```
    pub fn run_totals_in(&self, arena: &mut FlowArena, flows: &[Flow]) -> FlowSimReport {
        self.run_core(arena, flows, Path::Totals)
    }

    fn run_core(&self, arena: &mut FlowArena, flows: &[Flow], path: Path) -> FlowSimReport {
        let gbps_per_wavelength = self.fabric.config().gbps_per_wavelength;
        let mcm_count = self.fabric.config().mcm_count;
        let fast = path != Path::Oracle;
        let keep = path != Path::Totals;
        arena.prepare(mcm_count);
        if keep {
            arena.allocations.clear();
            arena.allocations.reserve(flows.len());
        }

        // Pass 1: direct allocation. Both passes sanitize the demand
        // matrix per the contract above as they read it. Until the first
        // flow the direct pass leaves short, every flow's allocation is
        // already final (no indirect pass can touch it), so pass 1 folds
        // that prefix into the totals itself and pass 2 starts after it: a
        // matrix that fits direct, like all-to-all, takes one pass.
        let mut totals = Totals::default();
        let mut prefix = 0;
        // The wavelengths the last demand seen needs: a uniform matrix
        // divides once.
        let mut last_needed = (f64::NAN.to_bits(), 0);
        arena.short.clear();
        for (index, flow) in flows.iter().enumerate() {
            let flow = flow.sanitized();
            if flow.src != flow.dst && flow.demand_gbps > 0.0 {
                if last_needed.0 != flow.demand_gbps.to_bits() {
                    let needed = (flow.demand_gbps / gbps_per_wavelength).ceil().max(0.0) as u32;
                    last_needed = (flow.demand_gbps.to_bits(), needed);
                }
                let needed = last_needed.1;
                let free = arena.free(self.fabric, flow.src, flow.dst);
                let granted = needed.min(free);
                // A zero grant leaves the board untouched: recording it
                // would only lengthen the delta-clear list.
                if granted > 0 {
                    arena.occupy(flow.src, flow.dst, granted);
                }
                let granted_gbps = (granted as f64 * gbps_per_wavelength).min(flow.demand_gbps);
                if granted_gbps < flow.demand_gbps {
                    arena.short.push((index, granted_gbps));
                    continue;
                }
            }
            if arena.short.is_empty() {
                let allocation = totals.settle(&self.config, flow, flow.demand_gbps.max(0.0), 0.0);
                if keep {
                    arena.allocations.push(allocation);
                }
                prefix = index + 1;
            }
        }

        // Pass 2: indirect allocation of the residual demand, folding each
        // flow after the prefix into the totals in list order.
        let mut next_short = 0;
        for (index, flow) in flows.iter().enumerate().skip(prefix) {
            let flow = flow.sanitized();
            // A flow the direct pass did not leave short got its whole
            // demand; `max` keeps a sanitized `-0.0` from leaking out.
            let direct_gbps = match arena.short.get(next_short) {
                Some(&(short, granted_gbps)) if short == index => {
                    next_short += 1;
                    granted_gbps
                }
                _ => flow.demand_gbps.max(0.0),
            };
            let mut indirect_gbps = 0.0;
            let residual = flow.demand_gbps - direct_gbps;
            if residual > 1e-9 && flow.src != flow.dst {
                let mut remaining_wavelengths = (residual / gbps_per_wavelength).ceil() as u32;
                // Candidate intermediates in random (Valiant) order, drawn
                // from this flow's own stream.
                let mut rng = StdRng::seed_from_u64(flow_seed(self.config.seed, index));
                arena.candidates.clear();
                if fast {
                    // Ascending MCM ids minus the two endpoints, as three
                    // contiguous copies of the identity buffer — the exact
                    // sequence the filtered build below produces.
                    let lo = flow.src.min(flow.dst) as usize;
                    let hi = flow.src.max(flow.dst) as usize;
                    let ident = &arena.ident;
                    arena.candidates.extend_from_slice(&ident[..lo]);
                    arena.candidates.extend_from_slice(&ident[lo + 1..hi]);
                    arena.candidates.extend_from_slice(&ident[hi + 1..]);
                } else {
                    arena
                        .candidates
                        .extend((0..mcm_count).filter(|&m| m != flow.src && m != flow.dst));
                    shuffle_forward(&mut arena.candidates, &mut rng);
                }
                totals.shuffled_flows += 1;
                let len = arena.candidates.len();
                for i in 0..len {
                    if remaining_wavelengths == 0 {
                        break;
                    }
                    if fast {
                        // The lazy shuffle: fix position `i` only now.
                        arena.candidates.swap(i, forward_pick(i, len, &mut rng));
                    }
                    let m = arena.candidates[i];
                    let leg1 = arena.free(self.fabric, flow.src, m);
                    let leg2 = arena.free(self.fabric, m, flow.dst);
                    let usable = leg1.min(leg2).min(remaining_wavelengths);
                    if usable == 0 {
                        continue;
                    }
                    arena.occupy(flow.src, m, usable);
                    arena.occupy(m, flow.dst, usable);
                    remaining_wavelengths -= usable;
                    indirect_gbps += usable as f64 * gbps_per_wavelength;
                }
                indirect_gbps = indirect_gbps.min(residual);
            }

            let allocation = totals.settle(&self.config, flow, direct_gbps, indirect_gbps);
            if keep {
                arena.allocations.push(allocation);
            }
        }

        let allocations = if keep {
            std::mem::take(&mut arena.allocations)
        } else {
            Vec::new()
        };
        totals.report(allocations)
    }
}

/// Which [`FlowSimulator`] entry point a solve runs for.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// [`FlowSimulator::run`]: filtered candidate build, full shuffle.
    Oracle,
    /// [`FlowSimulator::run_in`]: identity-copy candidates, lazy shuffle.
    Arena,
    /// [`FlowSimulator::run_totals_in`]: the arena path, no per-flow records.
    Totals,
}

/// The report's aggregates, folded one allocation at a time in list order.
/// Each sum starts from `+0.0`: an empty sum is 0, never the `-0.0`
/// `Iterator::sum` starts from.
#[derive(Default)]
struct Totals {
    flows: usize,
    offered: f64,
    satisfied: f64,
    weighted_latency: f64,
    fabric_direct: f64,
    fabric_indirect: f64,
    direct_only: usize,
    indirect: usize,
    unsatisfied: usize,
    shuffled_flows: usize,
    /// The bits of the last `(direct, indirect)` shares settled, and the
    /// latency they gave.
    last_latency: ((u64, u64), f64),
}

impl Totals {
    /// The allocation of `flow` given its final direct and indirect
    /// shares, folded into the totals.
    fn settle(
        &mut self,
        config: &FlowSimConfig,
        flow: Flow,
        direct_gbps: f64,
        indirect_gbps: f64,
    ) -> FlowAllocation {
        // Latency is a pure function of the two shares, and runs of flows
        // share them (every flow of a uniform matrix that fits direct), so
        // the last one's division is reused: same inputs, same bits.
        let shares = (direct_gbps.to_bits(), indirect_gbps.to_bits());
        let latency_ns = if self.last_latency.0 == shares {
            self.last_latency.1
        } else {
            let satisfied = direct_gbps + indirect_gbps;
            let latency_ns = if satisfied > 0.0 {
                (direct_gbps * config.direct_latency_ns
                    + indirect_gbps * (config.direct_latency_ns + config.indirect_hop_latency_ns))
                    / satisfied
            } else {
                0.0
            };
            self.last_latency = (shares, latency_ns);
            latency_ns
        };
        let allocation = FlowAllocation {
            flow,
            direct_gbps,
            indirect_gbps,
            latency_ns,
        };
        self.add(&allocation);
        allocation
    }

    fn add(&mut self, a: &FlowAllocation) {
        let served = a.satisfied_gbps();
        self.flows += 1;
        self.offered += a.flow.demand_gbps;
        self.satisfied += served;
        self.weighted_latency += a.latency_ns * served;
        // Fabric-crossing traffic only: self-flows are served MCM-locally.
        if a.flow.src != a.flow.dst {
            self.fabric_direct += a.direct_gbps;
            self.fabric_indirect += a.indirect_gbps;
        }
        // `satisfaction()` is never NaN, so `met` and `!met` split the
        // list exactly as the two threshold comparisons do. Serving the
        // whole demand makes it exactly 1 (division rounds monotonically,
        // and `d / d` is 1), so that case skips the division.
        let met = served >= a.flow.demand_gbps || a.satisfaction() >= 1.0 - 1e-9;
        self.direct_only += usize::from(met && a.indirect_gbps <= 0.0);
        self.indirect += usize::from(a.indirect_gbps > 0.0);
        self.unsatisfied += usize::from(!met);
    }

    fn report(self, allocations: Vec<FlowAllocation>) -> FlowSimReport {
        let n = self.flows.max(1) as f64;
        let mean_latency = if self.satisfied > 0.0 {
            self.weighted_latency / self.satisfied
        } else {
            0.0
        };
        FlowSimReport {
            allocations,
            offered_gbps: self.offered,
            satisfied_gbps: self.satisfied,
            fabric_direct_gbps: self.fabric_direct,
            fabric_indirect_gbps: self.fabric_indirect,
            direct_only_fraction: self.direct_only as f64 / n,
            indirect_fraction: self.indirect as f64 / n,
            unsatisfied_fraction: self.unsatisfied as f64 / n,
            mean_latency_ns: mean_latency,
            shuffled_flows: self.shuffled_flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rackfabric::{FabricKind, RackFabric, RackFabricConfig};

    fn awgr_fabric(mcms: u32) -> RackFabric {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = mcms;
        RackFabric::new(cfg)
    }

    #[test]
    fn small_demands_are_served_directly() {
        let fabric = awgr_fabric(64);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        // Each pair's direct bandwidth is >= 125 Gbps; offer 100 Gbps flows.
        let flows: Vec<Flow> = (0..32).map(|i| Flow::new(i, i + 32, 100.0)).collect();
        let report = sim.run(&flows);
        assert!((report.satisfaction() - 1.0).abs() < 1e-9);
        assert_eq!(report.direct_only_fraction, 1.0);
        assert_eq!(report.indirect_fraction, 0.0);
        assert_eq!(report.shuffled_flows, 0);
        assert!((report.mean_latency_ns - 35.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_demand_uses_indirect_routing() {
        let fabric = awgr_fabric(64);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        // 1000 Gbps >> 125-150 Gbps direct: needs indirect wavelengths.
        let report = sim.run(&[Flow::new(0, 1, 1000.0)]);
        assert!((report.satisfaction() - 1.0).abs() < 1e-9);
        assert_eq!(report.indirect_fraction, 1.0);
        assert_eq!(report.shuffled_flows, 1);
        let a = &report.allocations[0];
        assert!(a.indirect_gbps > a.direct_gbps);
        // Indirect traffic pays the extra hop latency.
        assert!(report.mean_latency_ns > 35.0);
        assert!(report.mean_latency_ns < 35.0 + 8.0 + 1e-9);
    }

    #[test]
    fn full_escape_bandwidth_reachable_to_single_destination() {
        // Section VI-A1: "any one particular MCM can use its full escape
        // bandwidth to reach a single destination MCM" via indirect routing.
        // With a small rack the same holds proportionally: the limit is the
        // number of intermediates times per-pair direct bandwidth.
        let fabric = awgr_fabric(32);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        // 30 intermediates x ~125 Gbps + direct ~150 Gbps ≈ 3900 Gbps.
        let report = sim.run(&[Flow::new(0, 1, 3000.0)]);
        assert!(
            report.satisfaction() > 0.99,
            "satisfaction {} for a large single-destination flow",
            report.satisfaction()
        );
    }

    #[test]
    fn saturated_fabric_reports_unsatisfied_flows() {
        let fabric = awgr_fabric(8);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        // Every pair asks for far more than the fabric can carry.
        let mut flows = Vec::new();
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    flows.push(Flow::new(a, b, 10_000.0));
                }
            }
        }
        let report = sim.run(&flows);
        assert!(report.satisfaction() < 1.0);
        assert!(report.unsatisfied_fraction > 0.0);
        assert!(report.satisfied_gbps > 0.0);
    }

    #[test]
    fn wavelength_capacity_is_conserved() {
        // Total satisfied bandwidth can never exceed the fabric's aggregate
        // wavelength capacity (escape bandwidth x MCM count).
        let fabric = awgr_fabric(16);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        let mut flows = Vec::new();
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    flows.push(Flow::new(a, b, 5_000.0));
                }
            }
        }
        let report = sim.run(&flows);
        // Aggregate direct capacity of the fabric: sum over ordered pairs of
        // direct wavelengths x 25 Gbps. Indirect routing cannot add capacity,
        // it only moves it, so satisfied <= aggregate.
        let mut aggregate = 0.0;
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    aggregate += fabric.direct_bandwidth(a, b).gbps();
                }
            }
        }
        assert!(
            report.satisfied_gbps <= aggregate + 1e-6,
            "satisfied {} exceeds aggregate capacity {}",
            report.satisfied_gbps,
            aggregate
        );
    }

    #[test]
    fn zero_and_self_flows_are_trivially_satisfied() {
        let fabric = awgr_fabric(8);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        let report = sim.run(&[Flow::new(0, 0, 100.0), Flow::new(1, 2, 0.0)]);
        assert!((report.satisfaction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fabric_aggregates_exclude_local_traffic() {
        let fabric = awgr_fabric(16);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        // One self-flow (served locally), one direct-only flow, one flow
        // large enough to need indirect help.
        let report = sim.run(&[
            Flow::new(3, 3, 200.0),
            Flow::new(0, 1, 100.0),
            Flow::new(4, 5, 1000.0),
        ]);
        assert!((report.satisfaction() - 1.0).abs() < 1e-9);
        // Local traffic is satisfied but not carried by the fabric.
        assert!(
            (report.fabric_direct_gbps + report.fabric_indirect_gbps
                - (report.satisfied_gbps - 200.0))
                .abs()
                < 1e-9
        );
        assert!(report.fabric_indirect_gbps > 0.0);
        // Per-flow direct/indirect splits sum to the aggregates.
        let direct: f64 = report
            .allocations
            .iter()
            .filter(|a| a.flow.src != a.flow.dst)
            .map(|a| a.direct_gbps)
            .sum();
        assert!((report.fabric_direct_gbps - direct).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let fabric = awgr_fabric(32);
        let cfg = FlowSimConfig::default();
        let flows: Vec<Flow> = (0..16).map(|i| Flow::new(i, (i + 7) % 32, 400.0)).collect();
        let a = FlowSimulator::new(&fabric, cfg).run(&flows);
        let b = FlowSimulator::new(&fabric, cfg).run(&flows);
        assert_eq!(a, b);
    }

    #[test]
    fn arena_runs_are_identical_to_allocating_runs() {
        let fabric = awgr_fabric(32);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        // Mix of direct-only, indirect-heavy, self, zero, and duplicate-pair
        // flows so both passes and the touched-pair reset all get exercised.
        let flows: Vec<Flow> = (0..16)
            .map(|i| Flow::new(i, (i + 7) % 32, 400.0))
            .chain([
                Flow::new(3, 3, 120.0),
                Flow::new(0, 7, 0.0),
                Flow::new(0, 7, 900.0),
            ])
            .collect();
        let baseline = sim.run(&flows);
        let mut arena = FlowArena::new();
        assert_eq!(sim.run_in(&mut arena, &flows), baseline);
        // The dirty arena must give the same answer again, with and without
        // recycling the previous report.
        let second = sim.run_in(&mut arena, &flows);
        assert_eq!(second, baseline);
        arena.recycle(second);
        assert_eq!(sim.run_in(&mut arena, &flows), baseline);
        // And on a different matrix afterwards.
        let other = vec![Flow::new(5, 6, 2000.0)];
        assert_eq!(sim.run_in(&mut arena, &other), sim.run(&other));
    }

    #[test]
    fn totals_runs_equal_the_full_report_without_records() {
        // Shorts mid-list (so pass 2 starts after a direct-only prefix),
        // self, zero, negative, `-0.0`, NaN and duplicate-pair flows, on an
        // AWGR and a switched fabric, with one arena shared by both entry
        // points.
        let mut arena = FlowArena::new();
        for kind in [FabricKind::ParallelAwgrs, FabricKind::WaveSelective] {
            let mut cfg = RackFabricConfig::paper_rack(kind);
            cfg.mcm_count = 24;
            let fabric = RackFabric::new(cfg);
            let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
            let flows: Vec<Flow> = [
                Flow::new(0, 1, 20.0),
                Flow::new(2, 2, 50.0),
                Flow::new(3, 4, -0.0),
                Flow::new(5, 6, 2_000.0),
                Flow::new(0, 1, 20.0),
                Flow::new(7, 8, -5.0),
                Flow::new(9, 10, f64::NAN),
                Flow::new(5, 6, 900.0),
                Flow::new(11, 12, 20.0),
            ]
            .into_iter()
            .chain((0..24).map(|i| Flow::new(i, (i + 5) % 24, 300.0)))
            .collect();
            for flows in [&flows[..], &flows[..4], &flows[5..], &[]] {
                let mut expected = sim.run(flows);
                assert_eq!(sim.run_in(&mut arena, flows), expected);
                let totals = sim.run_totals_in(&mut arena, flows);
                expected.allocations.clear();
                assert_eq!(format!("{totals:?}"), format!("{expected:?}"));
            }
        }
    }

    #[test]
    fn allocations_follow_their_definitions() {
        // Each pair appears once, so every flow meets an idle pair: its
        // direct share is its demand capped at the pair's capacity, and
        // its latency the share-weighted mean of the two path latencies.
        // Runs of equal demands and equal direct shares check that no
        // value is carried over from the flow before.
        let fabric = awgr_fabric(24);
        let config = FlowSimConfig::default();
        let sim = FlowSimulator::new(&fabric, config);
        let gbps_per_wavelength = fabric.config().gbps_per_wavelength;
        let flows = [
            Flow::new(0, 1, 20.0),
            Flow::new(2, 3, 20.0),
            Flow::new(4, 5, 2_000.0),
            Flow::new(6, 7, 900.0),
            Flow::new(8, 9, 1_400.0),
            Flow::new(10, 11, 20.0),
            Flow::new(12, 14, 900.0),
        ];
        let report = sim.run(&flows);
        assert!(report.shuffled_flows > 0);
        for a in &report.allocations {
            let capacity =
                fabric.direct_wavelengths(a.flow.src, a.flow.dst) as f64 * gbps_per_wavelength;
            assert_eq!(a.direct_gbps, a.flow.demand_gbps.min(capacity), "{a:?}");
            let hop = config.direct_latency_ns + config.indirect_hop_latency_ns;
            let latency = (a.direct_gbps * config.direct_latency_ns + a.indirect_gbps * hop)
                / a.satisfied_gbps();
            assert_eq!(a.latency_ns, latency, "{a:?}");
        }
    }

    #[test]
    fn dense_runs_wipe_the_board_and_sparse_runs_clear_it_pair_by_pair() {
        // All-to-all at 16 MCMs touches every pair, past the cutoff where
        // the arena stops recording; a sparse run after it must still start
        // from an idle board, and so must a dense run after that.
        let fabric = awgr_fabric(16);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        let dense: Vec<Flow> = (0..16)
            .flat_map(|a| (0..16).map(move |b| Flow::new(a, b, 60.0)))
            .collect();
        let sparse = vec![Flow::new(0, 1, 600.0), Flow::new(2, 3, 30.0)];
        // Every pair asks for more than it has: any wavelength left
        // occupied by an earlier run shows up as lost throughput.
        let saturating: Vec<Flow> = dense
            .iter()
            .map(|f| Flow::new(f.src, f.dst, 10_000.0))
            .collect();
        let mut arena = FlowArena::new();
        for flows in [&dense, &saturating, &sparse, &dense, &sparse, &saturating] {
            let report = sim.run_in(&mut arena, flows);
            assert_eq!(report, sim.run(flows));
            assert!(arena.touched.len() <= arena.dense_cutoff);
            arena.recycle(report);
        }
    }

    #[test]
    fn first_lazy_candidate_is_uniform_over_keys() {
        // An 8-MCM rack leaves 6 intermediates for flow 0 -> 1. A flow
        // one wavelength over its direct capacity, on an otherwise idle
        // board, takes that wavelength through its first candidate; the
        // arena's touched list names it. Flows before it carry no demand,
        // so only the (seed, index) key varies.
        let fabric = awgr_fabric(8);
        let demand = fabric.direct_bandwidth(0, 1).gbps() + 1.0;
        let mut counts = [0u32; 8];
        let mut arena = FlowArena::new();
        let mut samples = 0u32;
        for seed in 0..600u64 {
            let sim = FlowSimulator::new(
                &fabric,
                FlowSimConfig {
                    seed: seed.wrapping_mul(0xD1B5_4A32_D192_ED03),
                    ..FlowSimConfig::default()
                },
            );
            for index in 0..10usize {
                let mut flows = vec![Flow::new(2, 3, 0.0); index];
                flows.push(Flow::new(0, 1, demand));
                let report = sim.run_in(&mut arena, &flows);
                assert_eq!(report.shuffled_flows, 1);
                let (src, first) = arena.touched[1];
                assert_eq!(src, 0);
                counts[first as usize] += 1;
                samples += 1;
                arena.recycle(report);
            }
        }
        assert_eq!(counts[0] + counts[1], 0, "an endpoint was a candidate");
        let expected = f64::from(samples) / 6.0;
        let chi2: f64 = counts[2..]
            .iter()
            .map(|&c| (f64::from(c) - expected).powi(2) / expected)
            .sum();
        // 5 degrees of freedom: P(chi2 > 20.52) = 0.001.
        assert!(chi2 < 20.52, "chi2 {chi2:.2} over counts {counts:?}");
    }

    #[test]
    fn flow_streams_do_not_overlap() {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        for seed in [0u64, 0xF10, u64::MAX] {
            let seeds: Vec<u64> = (0..10_000).map(|index| flow_seed(seed, index)).collect();
            let set: std::collections::HashSet<u64> = seeds.iter().copied().collect();
            // `seed_from_u64` expands a seed into the SplitMix64 outputs at
            // `seed + φ ..= seed + 4φ`: seeds fewer than four increments
            // apart would share state words.
            for &s in &seeds {
                for k in 1..4u64 {
                    assert!(
                        !set.contains(&s.wrapping_add(PHI.wrapping_mul(k))),
                        "seed {seed}"
                    );
                }
            }
            // A stream that is another's shifted by one draw would repeat
            // its draws: the first two draws of all 10,000 are distinct.
            let mut draws = std::collections::HashSet::new();
            for (index, &s) in seeds.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(s);
                assert!(draws.insert(rng.next_u64()), "seed {seed} flow {index}");
                assert!(draws.insert(rng.next_u64()), "seed {seed} flow {index}");
            }
        }
    }

    #[test]
    fn one_arena_serves_different_rack_sizes() {
        let mut arena = FlowArena::new();
        for mcms in [16u32, 64, 8] {
            let fabric = awgr_fabric(mcms);
            let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
            let flows: Vec<Flow> = (0..mcms / 2)
                .map(|i| Flow::new(i, mcms - 1 - i, 500.0))
                .collect();
            assert_eq!(sim.run_in(&mut arena, &flows), sim.run(&flows));
        }
    }

    #[test]
    fn empty_flow_list_is_fully_defined() {
        let fabric = awgr_fabric(8);
        let report = FlowSimulator::new(&fabric, FlowSimConfig::default()).run(&[]);
        assert_eq!(report.offered_gbps, 0.0);
        assert_eq!(report.satisfied_gbps, 0.0);
        assert_eq!(report.satisfaction(), 1.0);
        assert_eq!(report.direct_only_fraction, 0.0);
        assert_eq!(report.indirect_fraction, 0.0);
        assert_eq!(report.unsatisfied_fraction, 0.0);
        assert_eq!(report.mean_latency_ns, 0.0);
    }

    #[test]
    fn degenerate_demands_are_sanitized_not_nan() {
        let fabric = awgr_fabric(8);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        let report = sim.run(&[
            Flow::new(0, 1, 0.0),
            Flow::new(1, 2, -50.0),
            Flow::new(2, 3, f64::NAN),
            Flow::new(3, 4, f64::INFINITY),
        ]);
        assert_eq!(report.offered_gbps, 0.0);
        assert_eq!(report.satisfaction(), 1.0);
        for a in &report.allocations {
            assert_eq!(a.satisfied_gbps(), 0.0);
            assert_eq!(a.satisfaction(), 1.0);
            assert!(!a.latency_ns.is_nan());
        }
        // The raw accessor is also NaN-safe on unsanitized flows.
        let raw = FlowAllocation {
            flow: Flow::new(0, 1, f64::NAN),
            direct_gbps: 0.0,
            indirect_gbps: 0.0,
            latency_ns: 0.0,
        };
        assert_eq!(raw.satisfaction(), 1.0);
    }
}
