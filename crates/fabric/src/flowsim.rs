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
use crate::routing::OccupancyBoard;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
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
    /// RNG seed for the Valiant intermediate choice.
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
/// occupancy board, sanitized-flow and candidate buffers, and the
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
    board: OccupancyBoard,
    /// Pairs occupied on the board by the previous run; cleared entry by
    /// entry on reuse instead of wiping (or reallocating) the whole
    /// `N x N` board.
    touched: Vec<(u32, u32)>,
    sanitized: Vec<Flow>,
    direct_shares: Vec<f64>,
    candidates: Vec<u32>,
    /// The identity permutation `0..mcm_count`, kept warm across runs so
    /// the indirect pass can build each flow's candidate list with three
    /// slice copies (everything below, between, and above the endpoints)
    /// instead of a filtered element-by-element rebuild. The contents are
    /// identical to the filtered build, so the Valiant shuffle consumes the
    /// same RNG draws either way.
    ident: Vec<u32>,
    /// One [`FastRem`] per shuffle position: entry `i` reduces a draw
    /// modulo `i + 1`, the divisor the Valiant shuffle uses at position `i`.
    /// Rebuilt with `ident` when the rack size changes; positions past the
    /// exact range have no entry and take `%`.
    divisors: Vec<FastRem>,
    allocations: Vec<FlowAllocation>,
}

impl FlowArena {
    /// An empty arena; buffers grow on first use and stay allocated.
    pub fn new() -> Self {
        FlowArena {
            board: OccupancyBoard::new(0),
            touched: Vec::new(),
            sanitized: Vec::new(),
            direct_shares: Vec::new(),
            candidates: Vec::new(),
            ident: Vec::new(),
            divisors: Vec::new(),
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
        if self.board.mcm_count() == mcm_count && self.touched.len() < cells / 8 {
            for &(src, dst) in &self.touched {
                self.board.clear_pair(src, dst);
            }
        } else {
            self.board.reset(mcm_count);
        }
        self.touched.clear();
        if self.ident.len() != mcm_count as usize {
            self.ident.clear();
            self.ident.extend(0..mcm_count);
            self.divisors.clear();
            self.divisors.extend(FastRem::table(mcm_count));
        }
    }
}

impl Default for FlowArena {
    fn default() -> Self {
        FlowArena::new()
    }
}

/// `r % d` for every 64-bit `r` without a hardware division, for one
/// divisor `d` below [`FastRem::LIMIT`] (Lemire, Kaser and Kurz, "Faster
/// Remainder by Direct Computation", 2019).
///
/// Exactness: writing `r = hi * 2^32 + lo`, the folded value
/// `t = hi * (2^32 mod d) + lo` is congruent to `r` modulo `d` and, since
/// `2^32 mod d < 2^15`, below `2^48`. For `t < 2^N` with `N = 48` and
/// `M = ceil(2^64 / d)`, the paper's Theorem 1 gives
/// `t % d == (M * t mod 2^64) * d >> 64` whenever `M * d - 2^64 <= 2^(64-N)`;
/// here `M * d - 2^64 < d < 2^16`. At `d = 1`, `M` wraps to 0 and the
/// result is the correct 0.
#[derive(Debug, Clone, Copy)]
struct FastRem {
    /// `ceil(2^64 / d)` as `u64::MAX / d + 1`, wrapping.
    m: u64,
    /// `2^32 mod d`.
    c: u32,
    d: u32,
}

impl FastRem {
    /// Divisors from here on take the hardware `%`.
    const LIMIT: u64 = 1 << 15;

    /// Entries for the divisors `1..=len`, stopping below the limit.
    fn table(len: u32) -> impl Iterator<Item = FastRem> {
        (1..=u64::from(len).min(Self::LIMIT - 1)).map(FastRem::new)
    }

    fn new(d: u64) -> Self {
        debug_assert!((1..Self::LIMIT).contains(&d));
        FastRem {
            m: (u64::MAX / d).wrapping_add(1),
            c: ((1u64 << 32) % d) as u32,
            d: d as u32,
        }
    }

    #[inline]
    fn rem(self, r: u64) -> u64 {
        let folded = (r >> 32) * u64::from(self.c) + (r & 0xFFFF_FFFF);
        ((u128::from(self.m.wrapping_mul(folded)) * u128::from(self.d)) >> 64) as u64
    }
}

/// [`SliceRandom::shuffle`] with each `next_u64() % (i + 1)` taken from
/// `divisors` (entry `i` serves position `i`): the same draws in the same
/// order and the same swaps, so the same permutation and the same generator
/// state afterwards. Positions past the table take `%`.
fn shuffle_exact(items: &mut [u32], divisors: &[FastRem], rng: &mut StdRng) {
    let exact = divisors.len().min(items.len());
    for i in (exact.max(1)..items.len()).rev() {
        let j = rng.next_u64() % (i as u64 + 1);
        items.swap(i, j as usize);
    }
    for i in (1..exact).rev() {
        let j = divisors[i].rem(rng.next_u64());
        items.swap(i, j as usize);
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
    /// (uniformly random among productive candidates) fashion.
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
        // `run` keeps the original filtered candidate build and the vendored
        // `SliceRandom::shuffle`: it is the independent oracle the bench
        // floors and equivalence tests pin the arena fast path against (the
        // same role `run_exhaustive` plays for the incremental timeline).
        self.run_core(&mut FlowArena::new(), flows, false)
    }

    /// [`run`](FlowSimulator::run) through a caller-provided scratch
    /// [`FlowArena`], reusing its buffers instead of allocating fresh state
    /// per run. Results are bit-identical to `run` — the arena is pure
    /// scratch (see the [`FlowArena`] docs for the reuse pattern, including
    /// [`FlowArena::recycle`] for the returned report's allocation buffer).
    /// This is the hot path: the indirect pass builds candidate lists from
    /// the arena's identity buffer with three slice copies per flow instead
    /// of the filtered rebuild `run` uses, and shuffles them with the
    /// arena's reciprocal table instead of a hardware `%` per swap. Both
    /// produce identical contents from identical draws.
    pub fn run_in(&self, arena: &mut FlowArena, flows: &[Flow]) -> FlowSimReport {
        self.run_core(arena, flows, true)
    }

    fn run_core(&self, arena: &mut FlowArena, flows: &[Flow], fast: bool) -> FlowSimReport {
        let gbps_per_wavelength = self.fabric.config().gbps_per_wavelength;
        let mcm_count = self.fabric.config().mcm_count;
        arena.prepare(mcm_count);
        // Sanitize the demand matrix per the contract above.
        arena.sanitized.clear();
        arena.sanitized.extend(flows.iter().map(|f| f.sanitized()));
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        arena.allocations.clear();
        arena.allocations.reserve(arena.sanitized.len());

        // Pass 1: direct allocation.
        arena.direct_shares.clear();
        arena.direct_shares.reserve(arena.sanitized.len());
        for flow in &arena.sanitized {
            if flow.src == flow.dst || flow.demand_gbps <= 0.0 {
                arena.direct_shares.push(flow.demand_gbps.max(0.0));
                continue;
            }
            let needed = (flow.demand_gbps / gbps_per_wavelength).ceil().max(0.0) as u32;
            let free = arena
                .board
                .free_wavelengths(self.fabric, flow.src, flow.dst);
            let granted = needed.min(free);
            // A zero grant leaves the board untouched: recording it would
            // only lengthen the delta-clear list.
            if granted > 0 {
                arena.board.occupy(flow.src, flow.dst, granted);
                arena.touched.push((flow.src, flow.dst));
            }
            let granted_gbps = (granted as f64 * gbps_per_wavelength).min(flow.demand_gbps);
            arena.direct_shares.push(granted_gbps);
        }

        // Pass 2: indirect allocation of the residual demand.
        let mut shuffled_flows = 0usize;
        for (flow, &direct_gbps) in arena.sanitized.iter().zip(arena.direct_shares.iter()) {
            let mut indirect_gbps = 0.0;
            let residual = flow.demand_gbps - direct_gbps;
            if residual > 1e-9 && flow.src != flow.dst {
                let mut remaining_wavelengths = (residual / gbps_per_wavelength).ceil() as u32;
                // Candidate intermediates in random (Valiant) order. The
                // shuffle consumes the same RNG draws whatever buffer backs
                // the candidate list, so arena reuse cannot perturb it.
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
                    shuffle_exact(&mut arena.candidates, &arena.divisors, &mut rng);
                } else {
                    arena
                        .candidates
                        .extend((0..mcm_count).filter(|&m| m != flow.src && m != flow.dst));
                    arena.candidates.shuffle(&mut rng);
                }
                shuffled_flows += 1;
                for &m in &arena.candidates {
                    if remaining_wavelengths == 0 {
                        break;
                    }
                    let leg1 = arena.board.free_wavelengths(self.fabric, flow.src, m);
                    let leg2 = arena.board.free_wavelengths(self.fabric, m, flow.dst);
                    let usable = leg1.min(leg2).min(remaining_wavelengths);
                    if usable == 0 {
                        continue;
                    }
                    arena.board.occupy(flow.src, m, usable);
                    arena.board.occupy(m, flow.dst, usable);
                    arena.touched.push((flow.src, m));
                    arena.touched.push((m, flow.dst));
                    remaining_wavelengths -= usable;
                    indirect_gbps += usable as f64 * gbps_per_wavelength;
                }
                indirect_gbps = indirect_gbps.min(residual);
            }

            let satisfied = direct_gbps + indirect_gbps;
            let latency = if satisfied > 0.0 {
                (direct_gbps * self.config.direct_latency_ns
                    + indirect_gbps
                        * (self.config.direct_latency_ns + self.config.indirect_hop_latency_ns))
                    / satisfied
            } else {
                0.0
            };
            arena.allocations.push(FlowAllocation {
                flow: *flow,
                direct_gbps,
                indirect_gbps,
                latency_ns: latency,
            });
        }

        self.summarize(std::mem::take(&mut arena.allocations), shuffled_flows)
    }

    fn summarize(&self, allocations: Vec<FlowAllocation>, shuffled_flows: usize) -> FlowSimReport {
        // One pass, each sum adding in list order from +0.0: an empty sum is
        // 0, never the -0.0 `Iterator::sum` starts from.
        let (mut offered, mut satisfied, mut weighted_latency) = (0.0, 0.0, 0.0);
        let (mut fabric_direct, mut fabric_indirect) = (0.0, 0.0);
        let (mut direct_only, mut indirect, mut unsatisfied) = (0usize, 0usize, 0usize);
        for a in &allocations {
            let served = a.satisfied_gbps();
            offered += a.flow.demand_gbps;
            satisfied += served;
            weighted_latency += a.latency_ns * served;
            // Fabric-crossing traffic only: self-flows are served MCM-locally.
            if a.flow.src != a.flow.dst {
                fabric_direct += a.direct_gbps;
                fabric_indirect += a.indirect_gbps;
            }
            // `satisfaction()` is never NaN, so `met` and `!met` split the
            // list exactly as the two threshold comparisons do.
            let met = a.satisfaction() >= 1.0 - 1e-9;
            direct_only += usize::from(met && a.indirect_gbps <= 0.0);
            indirect += usize::from(a.indirect_gbps > 0.0);
            unsatisfied += usize::from(!met);
        }
        let n = allocations.len().max(1) as f64;
        let (direct_only, indirect, unsatisfied) = (
            direct_only as f64 / n,
            indirect as f64 / n,
            unsatisfied as f64 / n,
        );
        let mean_latency = if satisfied > 0.0 {
            weighted_latency / satisfied
        } else {
            0.0
        };
        FlowSimReport {
            allocations,
            offered_gbps: offered,
            satisfied_gbps: satisfied,
            fabric_direct_gbps: fabric_direct,
            fabric_indirect_gbps: fabric_indirect,
            direct_only_fraction: direct_only,
            indirect_fraction: indirect,
            unsatisfied_fraction: unsatisfied,
            mean_latency_ns: mean_latency,
            shuffled_flows,
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

    /// Shuffles `0..len` both ways from one seed; returns each order and
    /// the generator's next draw afterwards.
    fn both_shuffles(len: u32, seed: u64, table: &[FastRem]) -> [(Vec<u32>, u64); 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vendored: Vec<u32> = (0..len).collect();
        vendored.shuffle(&mut rng);
        let vendored_next = rng.next_u64();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut exact: Vec<u32> = (0..len).collect();
        shuffle_exact(&mut exact, table, &mut rng);
        [(vendored, vendored_next), (exact, rng.next_u64())]
    }

    #[test]
    fn reciprocal_shuffle_equals_the_vendored_shuffle() {
        let table: Vec<FastRem> = FastRem::table(1024).collect();
        for len in 0..=1024u32 {
            for seed in 0..16u64 {
                let [vendored, exact] =
                    both_shuffles(len, seed * 0x9E37_79B9 + u64::from(len), &table);
                assert_eq!(exact, vendored, "length {len}, seed {seed}");
            }
        }
    }

    #[test]
    fn fast_remainder_is_exact_at_edge_values() {
        for d in 1..FastRem::LIMIT {
            let fast = FastRem::new(d);
            let q = u64::MAX / d * d;
            let edges = [
                Some(0),
                Some(1),
                Some(d - 1),
                Some(d),
                Some(d + 1),
                Some((1 << 32) - 1),
                Some(1 << 32),
                Some((1 << 32) + 1),
                Some(1 << 63),
                Some(u64::MAX),
                Some(q - 1),
                Some(q),
                q.checked_add(1),
            ];
            for r in edges.into_iter().flatten() {
                assert_eq!(fast.rem(r), r % d, "{r} mod {d}");
            }
        }
    }

    #[test]
    fn divisors_past_the_limit_take_the_hardware_remainder() {
        // A rack this size has shuffle positions whose divisor reaches the
        // limit: the table stops just below it and `%` serves the rest.
        let mcms = FastRem::LIMIT as u32 + 2;
        let table: Vec<FastRem> = FastRem::table(mcms).collect();
        assert_eq!(table.len() as u64, FastRem::LIMIT - 1);
        assert_eq!(u64::from(table[table.len() - 1].d), FastRem::LIMIT - 1);
        for seed in 0..4 {
            let [vendored, exact] = both_shuffles(mcms - 2, seed, &table);
            assert_eq!(exact, vendored, "seed {seed}");
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
