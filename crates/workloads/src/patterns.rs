//! Memory-access-pattern generators.
//!
//! Each pattern produces a [`MemoryTrace`] whose
//! locality characteristics determine how sensitive the workload is to the
//! LLC-to-memory latency the disaggregation fabric adds. The patterns cover
//! the computation classes the paper's benchmark suites contain: streaming,
//! stencils, dense linear algebra, graph traversal, hash-table/random access,
//! pointer chasing, wavefront dynamic programming, and clustering.

use cpusim::MemoryTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The access-pattern families used to synthesize benchmark traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Sequential streaming over the working set (unit-stride reads with a
    /// configurable write share): STREAM, blackscholes, swaptions.
    Streaming,
    /// 5-point 2-D stencil sweeps over a grid: hotspot, srad, NAS BT/SP/MG.
    Stencil2D,
    /// Blocked dense linear algebra (tiled mat-mul style reuse): LU, GEMM.
    BlockedDense,
    /// Uniform random accesses over the working set: canneal, IS, hash
    /// tables.
    RandomAccess,
    /// Dependent pointer chasing through a shuffled ring: linked data
    /// structures, B+-tree descent.
    PointerChase,
    /// Wavefront dynamic programming over a large 2-D table (three
    /// neighbouring reads, one streamed reference read, and one write per
    /// cell): Needleman-Wunsch.
    Wavefront,
    /// Graph traversal: mostly-sequential frontier scan plus random
    /// neighbour lookups: BFS, ferret.
    GraphTraversal,
    /// Repeated full passes over a point set (clustering):
    /// kmeans, streamcluster.
    RepeatedPasses,
}

/// Parameters shared by all pattern generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternParams {
    /// Working-set size in bytes.
    pub working_set_bytes: u64,
    /// Approximate number of memory accesses to generate.
    pub accesses: usize,
    /// Non-memory instructions between consecutive memory accesses
    /// (compute intensity).
    pub compute_per_access: u32,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// RNG seed (patterns are deterministic given the seed).
    pub seed: u64,
}

impl PatternParams {
    /// Size of one trace element (one cache line).
    pub const ELEMENT_BYTES: u64 = 64;

    /// Reasonable defaults: 8 MiB working set, 100k accesses, 8 compute
    /// instructions per access, 30% writes.
    pub fn new(working_set_bytes: u64, accesses: usize) -> Self {
        PatternParams {
            working_set_bytes,
            accesses,
            compute_per_access: 8,
            write_fraction: 0.3,
            seed: 0x5eed,
        }
    }

    /// Set the compute intensity.
    pub fn compute_per_access(mut self, c: u32) -> Self {
        self.compute_per_access = c;
        self
    }

    /// Set the write fraction.
    pub fn write_fraction(mut self, f: f64) -> Self {
        self.write_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of 64-byte (cache-line sized) elements in the working set.
    /// Traces are generated at line granularity: one access touches one
    /// line, which is the standard trace-reduction granularity for cache
    /// studies and keeps coverage of multi-megabyte working sets tractable.
    fn elements(&self) -> u64 {
        (self.working_set_bytes / Self::ELEMENT_BYTES).max(1)
    }
}

impl AccessPattern {
    /// Generate a trace for this pattern with the given parameters.
    pub fn generate(self, params: &PatternParams) -> MemoryTrace {
        match self {
            AccessPattern::Streaming => streaming(params),
            AccessPattern::Stencil2D => stencil_2d(params),
            AccessPattern::BlockedDense => blocked_dense(params),
            AccessPattern::RandomAccess => random_access(params),
            AccessPattern::PointerChase => pointer_chase(params),
            AccessPattern::Wavefront => wavefront(params),
            AccessPattern::GraphTraversal => graph_traversal(params),
            AccessPattern::RepeatedPasses => repeated_passes(params),
        }
    }

    /// All pattern kinds (useful for property tests and ablations).
    pub const ALL: [AccessPattern; 8] = [
        AccessPattern::Streaming,
        AccessPattern::Stencil2D,
        AccessPattern::BlockedDense,
        AccessPattern::RandomAccess,
        AccessPattern::PointerChase,
        AccessPattern::Wavefront,
        AccessPattern::GraphTraversal,
        AccessPattern::RepeatedPasses,
    ];
}

fn rng_for(params: &PatternParams) -> StdRng {
    StdRng::seed_from_u64(params.seed)
}

fn push(trace: &mut MemoryTrace, rng: &mut StdRng, params: &PatternParams, addr: u64) {
    let is_write = rng.gen_bool(params.write_fraction);
    trace.push(
        params.compute_per_access,
        cpusim::MemAccess { addr, is_write },
    );
}

/// Unit-stride streaming over the working set, wrapping around as needed.
fn streaming(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    for i in 0..params.accesses as u64 {
        let addr = (i % elements) * PatternParams::ELEMENT_BYTES;
        push(&mut trace, &mut rng, params, addr);
    }
    trace
}

/// 5-point stencil over a square 2-D grid of f64: for each cell, read the
/// north/west/east/south neighbours and write the centre.
fn stencil_2d(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    let dim = (elements as f64).sqrt().max(4.0) as u64;
    let mut generated = 0usize;
    'outer: loop {
        for row in 1..dim - 1 {
            for col in 1..dim - 1 {
                let center = row * dim + col;
                let neighbours = [center - dim, center - 1, center + 1, center + dim];
                for &n in &neighbours {
                    trace.push_read(params.compute_per_access, n * PatternParams::ELEMENT_BYTES);
                    generated += 1;
                    if generated >= params.accesses {
                        break 'outer;
                    }
                }
                let _ = &mut rng;
                trace.push_write(
                    params.compute_per_access,
                    center * PatternParams::ELEMENT_BYTES,
                );
                generated += 1;
                if generated >= params.accesses {
                    break 'outer;
                }
            }
        }
    }
    trace
}

/// Tiled dense linear algebra: repeatedly sweep a cache-blocked tile of the
/// working set with high reuse, then move to the next tile.
fn blocked_dense(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    // Tiles sized to fit in the L2 (512 KiB = 8K cache lines).
    let tile_elems: u64 = 6 * 1024;
    let reuse_passes = 12u64;
    let mut generated = 0usize;
    let mut tile_start = 0u64;
    while generated < params.accesses {
        let tile_len = tile_elems.min(elements.saturating_sub(tile_start).max(1));
        for _ in 0..reuse_passes {
            for e in 0..tile_len {
                let addr = (tile_start + e) * PatternParams::ELEMENT_BYTES;
                push(&mut trace, &mut rng, params, addr);
                generated += 1;
                if generated >= params.accesses {
                    return trace;
                }
            }
        }
        tile_start = (tile_start + tile_elems) % elements;
    }
    trace
}

/// Uniform random accesses over the working set.
fn random_access(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    for _ in 0..params.accesses {
        let addr = rng.gen_range(0..elements) * PatternParams::ELEMENT_BYTES;
        push(&mut trace, &mut rng, params, addr);
    }
    trace
}

/// Dependent pointer chasing: a pseudo-random permutation walked one element
/// at a time. Every access depends on the previous one, so there is no
/// memory-level parallelism for an OOO core to exploit.
fn pointer_chase(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    // Walk a strided "ring" whose stride is co-prime with the element count,
    // which visits elements in a scattered order without materializing a
    // permutation array.
    let stride = (elements / 2 + 1) | 1;
    let mut pos = rng.gen_range(0..elements);
    for _ in 0..params.accesses {
        pos = (pos + stride) % elements;
        push(
            &mut trace,
            &mut rng,
            params,
            pos * PatternParams::ELEMENT_BYTES,
        );
    }
    trace
}

/// Needleman-Wunsch style wavefront: fill a 2-D score table where each cell
/// reads its west, north, and north-west neighbours and writes itself. Rows
/// are long, so the north neighbours fall out of the small caches for large
/// tables.
fn wavefront(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    // Half the working set is the score table, half is the reference
    // sequence data that is streamed once per cell (Needleman-Wunsch reads
    // the substitution/reference matrix alongside the DP table).
    let table_elems = (elements / 2).max(4);
    let ref_base = table_elems;
    let ref_elems = (elements - table_elems).max(1);
    let cols = (table_elems as f64).sqrt().max(8.0) as u64;
    let rows = (table_elems / cols).max(2);
    let mut cell = 0u64;
    let mut generated = 0usize;
    'outer: loop {
        for r in 1..rows {
            for c in 1..cols {
                let idx = r * cols + c;
                let west = idx - 1;
                let north = idx - cols;
                let northwest = idx - cols - 1;
                let reference = ref_base + (cell % ref_elems);
                cell += 1;
                for &n in &[west, north, northwest, reference] {
                    trace.push_read(params.compute_per_access, n * PatternParams::ELEMENT_BYTES);
                    generated += 1;
                    if generated >= params.accesses {
                        break 'outer;
                    }
                }
                let _ = &mut rng;
                trace.push_write(
                    params.compute_per_access,
                    idx * PatternParams::ELEMENT_BYTES,
                );
                generated += 1;
                if generated >= params.accesses {
                    break 'outer;
                }
            }
        }
    }
    trace
}

/// Graph traversal: sequential scan of a frontier array interleaved with
/// random accesses into a large neighbour/property array.
fn graph_traversal(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    // A quarter of the working set is the (sequentially scanned) CSR arrays;
    // the rest is the randomly-indexed property array.
    let frontier_elems = (elements / 4).max(1);
    let property_elems = elements - frontier_elems;
    let mut seq = 0u64;
    for i in 0..params.accesses {
        if i % 3 == 0 {
            // Frontier / offsets scan: sequential.
            let addr = (seq % frontier_elems) * PatternParams::ELEMENT_BYTES;
            seq += 1;
            trace.push_read(params.compute_per_access, addr);
        } else {
            // Neighbour property lookup: random.
            let addr = (frontier_elems + rng.gen_range(0..property_elems.max(1)))
                * PatternParams::ELEMENT_BYTES;
            push(&mut trace, &mut rng, params, addr);
        }
    }
    trace
}

/// Repeated full passes over a point set (kmeans/streamcluster): every pass
/// streams the whole working set; whether it fits in the LLC decides
/// everything.
fn repeated_passes(params: &PatternParams) -> MemoryTrace {
    let mut trace = MemoryTrace::with_capacity(params.accesses);
    let mut rng = rng_for(params);
    let elements = params.elements();
    let mut generated = 0usize;
    loop {
        for e in 0..elements {
            push(
                &mut trace,
                &mut rng,
                params,
                e * PatternParams::ELEMENT_BYTES,
            );
            generated += 1;
            if generated >= params.accesses {
                return trace;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(ws: u64) -> PatternParams {
        PatternParams::new(ws, 20_000).seed(42)
    }

    #[test]
    fn all_patterns_generate_requested_length() {
        for pattern in AccessPattern::ALL {
            let t = pattern.generate(&params(1 << 20));
            assert!(
                t.accesses() >= 20_000 && t.accesses() <= 20_001,
                "{pattern:?} generated {} accesses",
                t.accesses()
            );
        }
    }

    #[test]
    fn all_patterns_stay_within_working_set() {
        for pattern in AccessPattern::ALL {
            let p = params(1 << 20);
            let t = pattern.generate(&p);
            let stats = t.stats();
            assert!(
                stats.address_footprint_bytes <= p.working_set_bytes,
                "{pattern:?} footprint {} exceeds working set {}",
                stats.address_footprint_bytes,
                p.working_set_bytes
            );
        }
    }

    #[test]
    fn patterns_are_deterministic_given_seed() {
        for pattern in AccessPattern::ALL {
            let a = pattern.generate(&params(1 << 20));
            let b = pattern.generate(&params(1 << 20));
            assert_eq!(a, b, "{pattern:?} must be deterministic");
        }
    }

    #[test]
    fn different_seeds_change_random_patterns() {
        let a = AccessPattern::RandomAccess.generate(&params(1 << 20));
        let b = AccessPattern::RandomAccess.generate(&params(1 << 20).seed(43));
        assert_ne!(a, b);
    }

    #[test]
    fn write_fraction_respected_approximately() {
        let p = params(1 << 20).write_fraction(0.5);
        let t = AccessPattern::Streaming.generate(&p);
        let s = t.stats();
        let frac = s.writes as f64 / s.accesses as f64;
        assert!((frac - 0.5).abs() < 0.05, "write fraction {frac}");
        let p0 = params(1 << 20).write_fraction(0.0);
        let t0 = AccessPattern::RandomAccess.generate(&p0);
        assert_eq!(t0.stats().writes, 0);
    }

    #[test]
    fn compute_intensity_respected() {
        let p = params(1 << 16).compute_per_access(50);
        let t = AccessPattern::Streaming.generate(&p);
        // instructions per access = compute + 1.
        let per_access = t.instructions() as f64 / t.accesses() as f64;
        assert!((per_access - 51.0).abs() < 1.0);
    }

    #[test]
    fn streaming_has_line_stride() {
        let t = AccessPattern::Streaming.generate(&params(1 << 20));
        let a0 = t.records[0].access.addr;
        let a1 = t.records[1].access.addr;
        assert_eq!(a1 - a0, PatternParams::ELEMENT_BYTES);
    }

    #[test]
    fn pointer_chase_has_no_short_strides() {
        let t = AccessPattern::PointerChase.generate(&params(1 << 20));
        let mut short_strides = 0;
        for w in t.records.windows(2) {
            let d = (w[1].access.addr as i64 - w[0].access.addr as i64).unsigned_abs();
            if d <= 64 {
                short_strides += 1;
            }
        }
        assert!(short_strides < t.accesses() / 100);
    }

    #[test]
    fn blocked_dense_reuses_lines_heavily() {
        // With 12 reuse passes over an L2-sized tile, the same addresses recur
        // many times: distinct lines << accesses.
        let t =
            AccessPattern::BlockedDense.generate(&PatternParams::new(64 << 20, 60_000).seed(42));
        let mut lines: std::collections::HashSet<u64> =
            std::collections::HashSet::with_capacity(4096);
        for r in &t.records {
            lines.insert(r.access.addr / 64);
        }
        assert!(lines.len() * 4 < t.accesses());
    }

    #[test]
    fn wavefront_reads_four_times_per_write() {
        let t = AccessPattern::Wavefront.generate(&params(1 << 22));
        let s = t.stats();
        let ratio = s.reads as f64 / s.writes.max(1) as f64;
        assert!((ratio - 4.0).abs() < 0.2, "read/write ratio {ratio}");
    }

    #[test]
    fn graph_traversal_mixes_sequential_and_random() {
        let t = AccessPattern::GraphTraversal.generate(&params(8 << 20));
        // Roughly a third of accesses are the sequential frontier scan in the
        // first quarter of the address space.
        let frontier_limit = (8u64 << 20) / 4;
        let frontier_accesses = t
            .records
            .iter()
            .filter(|r| r.access.addr < frontier_limit)
            .count();
        let frac = frontier_accesses as f64 / t.accesses() as f64;
        assert!(frac > 0.25 && frac < 0.6, "frontier fraction {frac}");
    }

    #[test]
    fn repeated_passes_covers_working_set_multiple_times() {
        let p = PatternParams::new(64 * 1024, 40_000).seed(1);
        let t = AccessPattern::RepeatedPasses.generate(&p);
        // 64 KiB = 1024 line-sized elements; 40k accesses = ~39 passes.
        let s = t.stats();
        assert!(s.address_footprint_bytes <= 64 * 1024);
        assert!(t.accesses() == 40_000);
    }
}
