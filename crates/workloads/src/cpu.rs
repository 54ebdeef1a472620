//! The CPU benchmark registry: synthetic stand-ins for the PARSEC 3.1,
//! NAS 3.4.1, and Rodinia benchmarks the paper simulates under gem5.
//!
//! The paper evaluates 57 CPU benchmark configurations (25 distinct
//! applications; PARSEC with small/medium/large inputs, NAS with classes
//! A/B/C, Rodinia with its default inputs). Each entry here names the
//! original benchmark and assigns it an access pattern, a working-set size
//! per input, a compute intensity, and a write share chosen so that the
//! synthetic kernel falls in the same *latency-sensitivity class* as the
//! original: LLC-resident benchmarks (e.g. `swaptions`, `streamcluster`
//! small/medium, the NAS suite at these scales) barely notice the added
//! latency, while LLC-thrashing streaming or irregular benchmarks
//! (`streamcluster` large, `canneal`, `nw`) are hit hard — reproducing the
//! relationships of Figs. 6 and 7.

use crate::patterns::{AccessPattern, PatternParams};
use cpusim::MemoryTrace;
use std::fmt;

/// The benchmark suite a CPU benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuSuite {
    /// PARSEC 3.1.
    Parsec,
    /// NAS Parallel Benchmarks 3.4.1.
    Nas,
    /// Rodinia (CPU/OpenMP versions).
    Rodinia,
}

impl CpuSuite {
    /// All suites, in the order the paper's figures list them.
    pub const ALL: [CpuSuite; 3] = [CpuSuite::Parsec, CpuSuite::Nas, CpuSuite::Rodinia];
}

impl fmt::Display for CpuSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuSuite::Parsec => f.write_str("PARSEC"),
            CpuSuite::Nas => f.write_str("NAS"),
            CpuSuite::Rodinia => f.write_str("Rodinia"),
        }
    }
}

/// Input-set size: PARSEC small/medium/large, NAS classes A/B/C, Rodinia
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// PARSEC "simsmall" / NAS class A.
    Small,
    /// PARSEC "simmedium" / NAS class B.
    Medium,
    /// PARSEC "simlarge" / NAS class C.
    Large,
    /// The single default input (Rodinia).
    Default,
}

impl InputSize {
    /// The three graded sizes (for PARSEC and NAS).
    pub const GRADED: [InputSize; 3] = [InputSize::Small, InputSize::Medium, InputSize::Large];
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputSize::Small => f.write_str("small"),
            InputSize::Medium => f.write_str("medium"),
            InputSize::Large => f.write_str("large"),
            InputSize::Default => f.write_str("default"),
        }
    }
}

/// A CPU benchmark configuration (application + input size).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuBenchmark {
    /// Benchmark name (matches the original suite's binary name).
    pub name: String,
    /// Which suite it comes from.
    pub suite: CpuSuite,
    /// Input-set size.
    pub input: InputSize,
    /// Synthetic access pattern standing in for the benchmark's kernel.
    pub pattern: AccessPattern,
    /// Working-set size in bytes for this input.
    pub working_set_bytes: u64,
    /// Non-memory instructions between memory accesses.
    pub compute_per_access: u32,
    /// Fraction of memory accesses that are writes.
    pub write_fraction: f64,
}

impl CpuBenchmark {
    /// A stable per-benchmark RNG seed derived from the name and input.
    pub fn seed(&self) -> u64 {
        // FNV-1a over the identifying string, so traces are reproducible and
        // distinct across benchmarks.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.id().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Identifier string `suite/name/input`.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.suite, self.name, self.input)
    }

    /// Generate the benchmark's memory trace with approximately `accesses`
    /// memory accesses.
    pub fn trace(&self, accesses: usize) -> MemoryTrace {
        let params = PatternParams::new(self.working_set_bytes, accesses)
            .compute_per_access(self.compute_per_access)
            .write_fraction(self.write_fraction)
            .seed(self.seed());
        self.pattern.generate(&params)
    }
}

impl fmt::Display for CpuBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

const MIB: u64 = 1024 * 1024;

fn bench(
    name: &str,
    suite: CpuSuite,
    input: InputSize,
    pattern: AccessPattern,
    working_set_bytes: u64,
    compute_per_access: u32,
    write_fraction: f64,
) -> CpuBenchmark {
    CpuBenchmark {
        name: name.to_string(),
        suite,
        input,
        pattern,
        working_set_bytes,
        compute_per_access,
        write_fraction,
    }
}

/// PARSEC application descriptors: (name, pattern, [small, medium, large]
/// working sets in MiB, compute per access, write fraction).
fn parsec_table() -> Vec<(&'static str, AccessPattern, [u64; 3], u32, f64)> {
    vec![
        // Option pricing: streaming over small option arrays, compute heavy
        // and LLC-resident at all input sizes.
        (
            "blackscholes",
            AccessPattern::Streaming,
            [1, 2, 3],
            40,
            0.15,
        ),
        // Body tracking: blocked image processing with good reuse.
        (
            "bodytrack",
            AccessPattern::BlockedDense,
            [1, 4, 16],
            24,
            0.2,
        ),
        // Simulated annealing over a netlist: random pointer-heavy accesses
        // over a footprint far larger than the LLC.
        (
            "canneal",
            AccessPattern::RandomAccess,
            [16, 64, 256],
            6,
            0.25,
        ),
        // Deduplication: hash-table lookups over a growing footprint.
        ("dedup", AccessPattern::GraphTraversal, [8, 24, 96], 28, 0.3),
        // Content-based similarity search: index walks + random lookups.
        (
            "ferret",
            AccessPattern::GraphTraversal,
            [4, 12, 48],
            30,
            0.2,
        ),
        // SPH fluid simulation: neighbourhood (stencil-like) sweeps.
        (
            "fluidanimate",
            AccessPattern::Stencil2D,
            [4, 16, 64],
            26,
            0.3,
        ),
        // Frequent itemset mining: pointer chasing through an FP-tree.
        (
            "freqmine",
            AccessPattern::PointerChase,
            [4, 16, 64],
            12,
            0.1,
        ),
        // Online clustering: repeated passes over the point set. Small and
        // medium fit in the LLC; large does not (the paper calls this out).
        (
            "streamcluster",
            AccessPattern::RepeatedPasses,
            [1, 3, 16],
            9,
            0.1,
        ),
        // Swaption pricing: Monte-Carlo over small per-thread state.
        ("swaptions", AccessPattern::Streaming, [1, 2, 3], 50, 0.15),
    ]
}

/// NAS application descriptors: (name, pattern, [A, B, C] working sets in
/// MiB, compute per access, write fraction). At gem5-simulatable scales the
/// NAS kernels are cache-friendly and compute-rich; the paper found them
/// negligibly affected by the additional latency.
fn nas_table() -> Vec<(&'static str, AccessPattern, [u64; 3], u32, f64)> {
    vec![
        ("bt", AccessPattern::Stencil2D, [1, 2, 3], 36, 0.3),
        // CG's sparse matrix-vector product is the one NAS kernel whose
        // class-C footprint spills out of the per-core LLC share.
        ("cg", AccessPattern::RandomAccess, [1, 3, 6], 30, 0.1),
        ("ep", AccessPattern::Streaming, [1, 1, 2], 60, 0.1),
        ("ft", AccessPattern::BlockedDense, [2, 3, 3], 32, 0.3),
        ("is", AccessPattern::RandomAccess, [1, 2, 3], 26, 0.4),
        ("lu", AccessPattern::BlockedDense, [1, 2, 3], 34, 0.3),
        ("mg", AccessPattern::Stencil2D, [2, 3, 3], 30, 0.3),
    ]
}

/// Rodinia application descriptors (single default input): (name, pattern,
/// working set in MiB, compute per access, write fraction).
fn rodinia_table() -> Vec<(&'static str, AccessPattern, u64, u32, f64)> {
    vec![
        // Back-propagation: streaming over weight matrices small enough to
        // stay LLC-resident with the default (64k-node) input.
        ("backprop", AccessPattern::Streaming, 3, 20, 0.3),
        // Breadth-first search: irregular neighbour lookups over a graph
        // several times the LLC.
        ("bfs", AccessPattern::GraphTraversal, 16, 12, 0.2),
        // Thermal stencil with neighbour reuse.
        ("hotspot", AccessPattern::Stencil2D, 8, 20, 0.25),
        // K-means clustering: repeated passes over an LLC-resident point set.
        ("kmeans", AccessPattern::RepeatedPasses, 3, 20, 0.1),
        // LU decomposition: blocked with good reuse.
        ("lud", AccessPattern::BlockedDense, 8, 22, 0.3),
        // Needleman-Wunsch: wavefront DP over a large table — the paper's
        // worst-case benchmark (~79% slowdown in-order, ~55% OOO).
        ("nw", AccessPattern::Wavefront, 64, 1, 0.25),
        // Particle filter: scattered particle updates across a footprint
        // larger than the LLC.
        ("particlefilter", AccessPattern::RandomAccess, 16, 8, 0.3),
        // Grid path search: streaming rows of a large grid.
        ("pathfinder", AccessPattern::Streaming, 6, 8, 0.2),
        // Speckle-reducing anisotropic diffusion: image stencil.
        ("srad", AccessPattern::Stencil2D, 24, 12, 0.3),
    ]
}

/// The full CPU benchmark registry: 57 configurations (9 PARSEC x 3 inputs,
/// 7 NAS x 3 classes, 9 Rodinia).
pub fn cpu_benchmarks() -> Vec<CpuBenchmark> {
    let mut v = Vec::new();
    for (name, pattern, ws, compute, wf) in parsec_table() {
        for (i, input) in InputSize::GRADED.iter().enumerate() {
            v.push(bench(
                name,
                CpuSuite::Parsec,
                *input,
                pattern,
                ws[i] * MIB,
                compute,
                wf,
            ));
        }
    }
    for (name, pattern, ws, compute, wf) in nas_table() {
        for (i, input) in InputSize::GRADED.iter().enumerate() {
            v.push(bench(
                name,
                CpuSuite::Nas,
                *input,
                pattern,
                ws[i] * MIB,
                compute,
                wf,
            ));
        }
    }
    for (name, pattern, ws, compute, wf) in rodinia_table() {
        v.push(bench(
            name,
            CpuSuite::Rodinia,
            InputSize::Default,
            pattern,
            ws * MIB,
            compute,
            wf,
        ));
    }
    v
}

/// Benchmarks from one suite (all input sizes).
pub fn suite_benchmarks(suite: CpuSuite) -> Vec<CpuBenchmark> {
    cpu_benchmarks()
        .into_iter()
        .filter(|b| b.suite == suite)
        .collect()
}

/// The Rodinia applications that exist in both the CPU and GPU evaluations
/// and complete correctly on both — the set Fig. 11 compares.
pub fn rodinia_cpu_gpu_intersection() -> Vec<&'static str> {
    vec![
        "backprop",
        "bfs",
        "hotspot",
        "kmeans",
        "lud",
        "nw",
        "pathfinder",
        "srad",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_has_57_configurations() {
        assert_eq!(cpu_benchmarks().len(), 57);
    }

    #[test]
    fn registry_has_25_distinct_applications() {
        let names: HashSet<String> = cpu_benchmarks().into_iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 25);
    }

    #[test]
    fn suite_breakdown_matches_paper_structure() {
        assert_eq!(suite_benchmarks(CpuSuite::Parsec).len(), 27);
        assert_eq!(suite_benchmarks(CpuSuite::Nas).len(), 21);
        assert_eq!(suite_benchmarks(CpuSuite::Rodinia).len(), 9);
    }

    #[test]
    fn ids_are_unique() {
        let ids: HashSet<String> = cpu_benchmarks().iter().map(|b| b.id()).collect();
        assert_eq!(ids.len(), 57);
    }

    #[test]
    fn seeds_are_distinct_across_benchmarks() {
        let seeds: HashSet<u64> = cpu_benchmarks().iter().map(|b| b.seed()).collect();
        assert_eq!(seeds.len(), 57);
    }

    #[test]
    fn parsec_working_sets_grow_with_input_size() {
        for b in suite_benchmarks(CpuSuite::Parsec).chunks(3) {
            assert!(b[0].working_set_bytes <= b[1].working_set_bytes);
            assert!(b[1].working_set_bytes <= b[2].working_set_bytes);
        }
    }

    #[test]
    fn streamcluster_small_fits_llc_but_large_does_not() {
        let llc = 4 * MIB;
        let sc: Vec<CpuBenchmark> = cpu_benchmarks()
            .into_iter()
            .filter(|b| b.name == "streamcluster")
            .collect();
        assert_eq!(sc.len(), 3);
        assert!(sc[0].working_set_bytes <= llc);
        assert!(sc[1].working_set_bytes <= llc);
        assert!(sc[2].working_set_bytes > llc);
    }

    #[test]
    fn nas_benchmarks_are_cache_friendly_or_compute_rich() {
        for b in suite_benchmarks(CpuSuite::Nas) {
            assert!(
                b.working_set_bytes <= 4 * MIB || b.compute_per_access >= 25,
                "{} should be LLC-resident or compute-rich",
                b.id()
            );
        }
    }

    #[test]
    fn nw_is_the_most_memory_intense_rodinia_benchmark() {
        let rodinia = suite_benchmarks(CpuSuite::Rodinia);
        let nw = rodinia.iter().find(|b| b.name == "nw").unwrap();
        for b in &rodinia {
            assert!(nw.compute_per_access <= b.compute_per_access);
        }
        assert!(nw.working_set_bytes >= 32 * MIB);
    }

    #[test]
    fn traces_generate_and_are_deterministic() {
        let b = &cpu_benchmarks()[0];
        let t1 = b.trace(5_000);
        let t2 = b.trace(5_000);
        assert_eq!(t1, t2);
        assert_eq!(t1.accesses(), 5_000);
    }

    #[test]
    fn intersection_is_subset_of_both_suites() {
        let rodinia_names: HashSet<String> = suite_benchmarks(CpuSuite::Rodinia)
            .into_iter()
            .map(|b| b.name)
            .collect();
        for name in rodinia_cpu_gpu_intersection() {
            assert!(
                rodinia_names.contains(name),
                "{name} missing from CPU Rodinia"
            );
        }
        assert_eq!(rodinia_cpu_gpu_intersection().len(), 8);
    }

    #[test]
    fn display_id_format() {
        let b = &cpu_benchmarks()[0];
        assert_eq!(b.to_string(), format!("{}/{}/{}", b.suite, b.name, b.input));
        assert_eq!(CpuSuite::Parsec.to_string(), "PARSEC");
        assert_eq!(InputSize::Large.to_string(), "large");
    }
}
