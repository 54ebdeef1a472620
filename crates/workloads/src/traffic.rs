//! Rack-level traffic patterns for the flow-level fabric sweeps.
//!
//! The paper's bandwidth-sufficiency argument (Section VI-A1) is made over
//! demand matrices between MCM pairs. This module provides the canonical
//! pattern families used by the `core::sweep` engine — uniform random,
//! permutation, incast hot-spot, cyclic nearest-neighbour, and all-to-all —
//! so that a scenario grid can name a pattern instead of hand-rolling flow
//! loops. Every generator is deterministic given its seed, which is what
//! makes whole sweep reports reproducible bit-for-bit.

use fabric::Flow;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A demand-matrix family, parameterized by per-flow demand in Gbps.
///
/// Each variant expands to a concrete list of [`Flow`]s for a rack of
/// `mcm_count` MCMs via [`TrafficPattern::flows`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every MCM sends `flows_per_mcm` flows to uniformly-random distinct
    /// destinations (the paper's random-pairs bandwidth stress).
    Uniform {
        /// Flows originated by each MCM.
        flows_per_mcm: u32,
        /// Demand per flow in Gbps.
        demand_gbps: f64,
    },
    /// A random fixed-point-free permutation: every MCM sends one flow and
    /// receives one flow (worst case for direct wavelength reuse).
    Permutation {
        /// Demand per flow in Gbps.
        demand_gbps: f64,
    },
    /// Incast: every MCM sends one flow to one of `hot_mcms` hot
    /// destinations, chosen round-robin by source index.
    HotSpot {
        /// Number of hot destination MCMs.
        hot_mcms: u32,
        /// Demand per flow in Gbps.
        demand_gbps: f64,
    },
    /// Cyclic nearest-neighbour halo exchange: MCM `i` sends to
    /// `i ± 1..=neighbors` (mod rack size). Deterministic, seed-independent.
    NearestNeighbor {
        /// Neighbour distance on each side.
        neighbors: u32,
        /// Demand per flow in Gbps.
        demand_gbps: f64,
    },
    /// Every ordered MCM pair carries one flow (the full bisection stress;
    /// quadratic in rack size, use with small `mcm_count`).
    AllToAll {
        /// Demand per flow in Gbps.
        demand_gbps: f64,
    },
}

/// A compact, simulator-free summary of a demand matrix, used by the
/// `core::sample` representative-scenario sampler as the load half of its
/// per-scenario feature vector.
///
/// All components are derived from the flow list alone (no fabric, no
/// allocation): total offered load, flow count, the worst source/destination
/// concentration shares, and the mean cyclic src→dst distance normalized to
/// `[0, 1]`. Scenarios whose matrices agree on these five numbers stress a
/// fabric near-identically, which is exactly the similarity the sampler's
/// k-means clustering needs to measure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandSignature {
    /// Total offered load in Gbps.
    pub total_gbps: f64,
    /// Number of flows.
    pub flow_count: f64,
    /// Largest per-source share of the total load (`1/n` for balanced
    /// sources, `→ 1` for a single dominant talker).
    pub max_src_share: f64,
    /// Largest per-destination share of the total load (`→ 1` under
    /// incast).
    pub max_dst_share: f64,
    /// Demand-weighted mean cyclic distance `|src − dst|` (mod rack size),
    /// normalized by `mcm_count / 2`: near 0 for neighbour exchanges, near
    /// the uniform expectation for random traffic.
    pub mean_hop_distance: f64,
}

impl DemandSignature {
    /// Number of feature components [`components`](Self::components) yields.
    pub const DIMS: usize = 5;

    /// An all-zero signature (the empty matrix).
    pub fn zero() -> Self {
        DemandSignature {
            total_gbps: 0.0,
            flow_count: 0.0,
            max_src_share: 0.0,
            max_dst_share: 0.0,
            mean_hop_distance: 0.0,
        }
    }

    /// Compute the signature of a concrete flow list in one O(flows) pass.
    pub fn from_flows(mcm_count: u32, flows: &[Flow]) -> Self {
        if mcm_count == 0 || flows.is_empty() {
            return DemandSignature::zero();
        }
        let n = mcm_count as usize;
        let mut src_gbps = vec![0.0f64; n];
        let mut dst_gbps = vec![0.0f64; n];
        let mut total = 0.0f64;
        let mut distance_weighted = 0.0f64;
        let half = (mcm_count / 2).max(1) as f64;
        for f in flows {
            total += f.demand_gbps;
            src_gbps[f.src as usize % n] += f.demand_gbps;
            dst_gbps[f.dst as usize % n] += f.demand_gbps;
            let d = f.src.abs_diff(f.dst);
            let cyclic = d.min(mcm_count - d) as f64;
            distance_weighted += f.demand_gbps * cyclic / half;
        }
        let max_src = src_gbps.iter().cloned().fold(0.0f64, f64::max);
        let max_dst = dst_gbps.iter().cloned().fold(0.0f64, f64::max);
        if total <= 0.0 {
            return DemandSignature {
                total_gbps: 0.0,
                flow_count: flows.len() as f64,
                max_src_share: 0.0,
                max_dst_share: 0.0,
                mean_hop_distance: 0.0,
            };
        }
        DemandSignature {
            total_gbps: total,
            flow_count: flows.len() as f64,
            max_src_share: max_src / total,
            max_dst_share: max_dst / total,
            mean_hop_distance: distance_weighted / total,
        }
    }

    /// The signature as a fixed-size feature slice, in declaration order.
    pub fn components(&self) -> [f64; Self::DIMS] {
        [
            self.total_gbps,
            self.flow_count,
            self.max_src_share,
            self.max_dst_share,
            self.mean_hop_distance,
        ]
    }
}

impl TrafficPattern {
    /// A short stable label used in sweep-report rows and CLI parsing.
    pub fn label(&self) -> String {
        match self {
            TrafficPattern::Uniform { flows_per_mcm, .. } => format!("uniform{flows_per_mcm}"),
            TrafficPattern::Permutation { .. } => "permutation".to_string(),
            TrafficPattern::HotSpot { hot_mcms, .. } => format!("hotspot{hot_mcms}"),
            TrafficPattern::NearestNeighbor { neighbors, .. } => format!("neighbor{neighbors}"),
            TrafficPattern::AllToAll { .. } => "alltoall".to_string(),
        }
    }

    /// Per-flow demand in Gbps.
    pub fn demand_gbps(&self) -> f64 {
        match *self {
            TrafficPattern::Uniform { demand_gbps, .. }
            | TrafficPattern::Permutation { demand_gbps }
            | TrafficPattern::HotSpot { demand_gbps, .. }
            | TrafficPattern::NearestNeighbor { demand_gbps, .. }
            | TrafficPattern::AllToAll { demand_gbps } => demand_gbps,
        }
    }

    /// Whether the expanded flow list actually depends on the seed.
    /// Hot-spot, nearest-neighbour, and all-to-all matrices are fully
    /// determined by their parameters; only the uniform and permutation
    /// families draw from the RNG. The `core::sample` feature extractor
    /// uses this to share one signature across every replicate of a
    /// seed-insensitive pattern instead of recomputing it per seed.
    pub fn seed_sensitive(&self) -> bool {
        matches!(
            self,
            TrafficPattern::Uniform { .. } | TrafficPattern::Permutation { .. }
        )
    }

    /// A memoization key covering every parameter that defines this
    /// pattern's expanded flow list besides rack size and seed: the family
    /// label (which embeds the per-family shape parameters) plus the exact
    /// demand bits. Two patterns with equal keys expand to identical
    /// matrices at any `(mcm_count, effective seed)` — the contract both
    /// the `core::sample` signature memo and the sweep executor's
    /// demand-matrix memo key on.
    pub fn memo_key(&self) -> String {
        format!("{}@{:016x}", self.label(), self.demand_gbps().to_bits())
    }

    /// An upper bound on the number of flows [`flows`](Self::flows)
    /// expands to on a rack of `mcm_count` MCMs, from the pattern's
    /// parameters alone (exact for all-to-all and uniform). The sweep
    /// executor hands the pool its largest solves first.
    ///
    /// ```
    /// use workloads::traffic::TrafficPattern;
    ///
    /// let p = TrafficPattern::AllToAll { demand_gbps: 8.0 };
    /// assert_eq!(p.max_flows(16), p.flows(16, 0).len());
    /// ```
    pub fn max_flows(&self, mcm_count: u32) -> usize {
        if mcm_count < 2 {
            return 0;
        }
        let n = mcm_count as usize;
        match *self {
            TrafficPattern::Uniform { flows_per_mcm, .. } => n * flows_per_mcm as usize,
            TrafficPattern::Permutation { .. } | TrafficPattern::HotSpot { .. } => n,
            TrafficPattern::NearestNeighbor { neighbors, .. } => {
                2 * n * neighbors.clamp(1, mcm_count / 2) as usize
            }
            TrafficPattern::AllToAll { .. } => n * (n - 1),
        }
    }

    /// The seed that actually selects this pattern's expansion: the
    /// scenario seed for seed-sensitive families, `0` otherwise — so every
    /// replicate of a seed-insensitive pattern memoizes to one entry.
    pub fn effective_seed(&self, seed: u64) -> u64 {
        if self.seed_sensitive() {
            seed
        } else {
            0
        }
    }

    /// The [`DemandSignature`] of this pattern's expansion at `mcm_count`
    /// MCMs under `seed` — the cheap per-scenario feature vector of the
    /// representative-scenario sampler. Equivalent to
    /// `DemandSignature::from_flows(mcm_count, &self.flows(mcm_count, seed))`
    /// but with the quadratic all-to-all family computed in O(rack size)
    /// closed form instead of materializing `n·(n−1)` flows.
    ///
    /// ```
    /// use workloads::traffic::{DemandSignature, TrafficPattern};
    ///
    /// let p = TrafficPattern::AllToAll { demand_gbps: 4.0 };
    /// let fast = p.demand_signature(16, 9);
    /// let slow = DemandSignature::from_flows(16, &p.flows(16, 9));
    /// assert_eq!(fast, slow);
    /// ```
    pub fn demand_signature(&self, mcm_count: u32, seed: u64) -> DemandSignature {
        if mcm_count < 2 {
            return DemandSignature::zero();
        }
        if let TrafficPattern::AllToAll { demand_gbps } = *self {
            // Every ordered pair carries one flow: shares are uniform and
            // the mean cyclic distance is a pure function of rack size.
            let n = mcm_count as f64;
            let flow_count = n * (n - 1.0);
            let half = (mcm_count / 2).max(1) as f64;
            let mut distance_sum = 0.0f64;
            for d in 1..mcm_count {
                distance_sum += d.min(mcm_count - d) as f64;
            }
            return DemandSignature {
                total_gbps: flow_count * demand_gbps,
                flow_count,
                max_src_share: 1.0 / n,
                max_dst_share: 1.0 / n,
                mean_hop_distance: distance_sum / (n - 1.0) / half,
            };
        }
        DemandSignature::from_flows(mcm_count, &self.flows(mcm_count, seed))
    }

    /// Expand the pattern into a concrete demand matrix for a rack of
    /// `mcm_count` MCMs. Deterministic given `seed`; self-flows are never
    /// generated. Racks with fewer than two MCMs yield an empty matrix.
    pub fn flows(&self, mcm_count: u32, seed: u64) -> Vec<Flow> {
        if mcm_count < 2 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            TrafficPattern::Uniform {
                flows_per_mcm,
                demand_gbps,
            } => {
                let mut flows = Vec::with_capacity((mcm_count * flows_per_mcm) as usize);
                for src in 0..mcm_count {
                    for _ in 0..flows_per_mcm {
                        // Sample from [0, n-1) and skip over `src` so the
                        // destination is uniform over the other MCMs.
                        let raw = rng.gen_range(0..mcm_count - 1);
                        let dst = if raw >= src { raw + 1 } else { raw };
                        flows.push(Flow::new(src, dst, demand_gbps));
                    }
                }
                flows
            }
            TrafficPattern::Permutation { demand_gbps } => {
                let mut dsts: Vec<u32> = (0..mcm_count).collect();
                dsts.shuffle(&mut rng);
                // Remove fixed points by swapping with the cyclic successor.
                for i in 0..dsts.len() {
                    if dsts[i] == i as u32 {
                        let j = (i + 1) % dsts.len();
                        dsts.swap(i, j);
                    }
                }
                (0..mcm_count)
                    .zip(dsts)
                    .filter(|&(src, dst)| src != dst)
                    .map(|(src, dst)| Flow::new(src, dst, demand_gbps))
                    .collect()
            }
            TrafficPattern::HotSpot {
                hot_mcms,
                demand_gbps,
            } => {
                let hot = hot_mcms.clamp(1, mcm_count);
                (0..mcm_count)
                    .map(|src| (src, src % hot))
                    .filter(|&(src, dst)| src != dst)
                    .map(|(src, dst)| Flow::new(src, dst, demand_gbps))
                    .collect()
            }
            TrafficPattern::NearestNeighbor {
                neighbors,
                demand_gbps,
            } => {
                let reach = neighbors.clamp(1, mcm_count / 2);
                let mut flows = Vec::with_capacity((mcm_count * 2 * reach) as usize);
                for src in 0..mcm_count {
                    for d in 1..=reach {
                        let forward = (src + d) % mcm_count;
                        let backward = (src + mcm_count - d) % mcm_count;
                        flows.push(Flow::new(src, forward, demand_gbps));
                        // At d == mcm_count/2 the two directions meet on the
                        // same destination; emit it once, not twice.
                        if backward != forward {
                            flows.push(Flow::new(src, backward, demand_gbps));
                        }
                    }
                }
                flows
            }
            TrafficPattern::AllToAll { demand_gbps } => {
                let mut flows = Vec::with_capacity((mcm_count * (mcm_count - 1)) as usize);
                for src in 0..mcm_count {
                    for dst in 0..mcm_count {
                        if src != dst {
                            flows.push(Flow::new(src, dst, demand_gbps));
                        }
                    }
                }
                flows
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn max_flows_bounds_every_expansion() {
        let patterns = [
            TrafficPattern::Uniform {
                flows_per_mcm: 3,
                demand_gbps: 10.0,
            },
            TrafficPattern::Permutation { demand_gbps: 10.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 10.0,
            },
            TrafficPattern::HotSpot {
                hot_mcms: 40,
                demand_gbps: 10.0,
            },
            TrafficPattern::NearestNeighbor {
                neighbors: 2,
                demand_gbps: 10.0,
            },
            TrafficPattern::NearestNeighbor {
                neighbors: 9,
                demand_gbps: 10.0,
            },
            TrafficPattern::AllToAll { demand_gbps: 10.0 },
        ];
        for pattern in patterns {
            for mcms in [0u32, 1, 2, 3, 8, 17] {
                for seed in 0..4 {
                    let flows = pattern.flows(mcms, seed).len();
                    assert!(flows <= pattern.max_flows(mcms), "{pattern:?} at {mcms}");
                }
            }
        }
    }

    use super::*;

    const PATTERNS: [TrafficPattern; 5] = [
        TrafficPattern::Uniform {
            flows_per_mcm: 4,
            demand_gbps: 100.0,
        },
        TrafficPattern::Permutation { demand_gbps: 100.0 },
        TrafficPattern::HotSpot {
            hot_mcms: 4,
            demand_gbps: 100.0,
        },
        TrafficPattern::NearestNeighbor {
            neighbors: 2,
            demand_gbps: 100.0,
        },
        TrafficPattern::AllToAll { demand_gbps: 100.0 },
    ];

    #[test]
    fn no_pattern_generates_self_flows() {
        for p in PATTERNS {
            for f in p.flows(32, 7) {
                assert_ne!(f.src, f.dst, "{p:?} generated a self flow");
                assert!(f.src < 32 && f.dst < 32);
                assert_eq!(f.demand_gbps, 100.0);
            }
        }
    }

    #[test]
    fn patterns_are_deterministic_given_seed() {
        for p in PATTERNS {
            assert_eq!(p.flows(32, 7), p.flows(32, 7), "{p:?}");
        }
    }

    #[test]
    fn random_patterns_vary_with_seed() {
        let u = TrafficPattern::Uniform {
            flows_per_mcm: 4,
            demand_gbps: 100.0,
        };
        assert_ne!(u.flows(32, 1), u.flows(32, 2));
    }

    #[test]
    fn permutation_is_a_full_fixed_point_free_matching() {
        let flows = TrafficPattern::Permutation { demand_gbps: 50.0 }.flows(64, 3);
        assert_eq!(flows.len(), 64);
        let mut sent = [false; 64];
        let mut received = [false; 64];
        for f in &flows {
            assert!(!sent[f.src as usize] && !received[f.dst as usize]);
            sent[f.src as usize] = true;
            received[f.dst as usize] = true;
        }
    }

    #[test]
    fn expected_flow_counts() {
        assert_eq!(
            TrafficPattern::AllToAll { demand_gbps: 1.0 }
                .flows(8, 0)
                .len(),
            8 * 7
        );
        assert_eq!(
            TrafficPattern::NearestNeighbor {
                neighbors: 2,
                demand_gbps: 1.0
            }
            .flows(8, 0)
            .len(),
            8 * 4
        );
        // Hot-spot: one flow per source except the hot MCMs targeting
        // themselves.
        assert_eq!(
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 1.0
            }
            .flows(16, 0)
            .len(),
            12
        );
        // Degenerate racks produce no traffic.
        for p in PATTERNS {
            assert!(p.flows(1, 0).is_empty());
        }
    }

    #[test]
    fn nearest_neighbor_never_duplicates_the_antipodal_destination() {
        // With mcm_count == 2 (and generally d == n/2) the forward and
        // backward neighbours coincide; the flow must be emitted once.
        let p = TrafficPattern::NearestNeighbor {
            neighbors: 1,
            demand_gbps: 10.0,
        };
        assert_eq!(p.flows(2, 0).len(), 2); // 0->1 and 1->0, once each
        let p = TrafficPattern::NearestNeighbor {
            neighbors: 4,
            demand_gbps: 10.0,
        };
        // n=8, reach clamps to 4: d=1..3 give two flows each, d=4 gives one.
        let flows = p.flows(8, 0);
        assert_eq!(flows.len(), 8 * 7);
        let mut pairs: Vec<(u32, u32)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), flows.len(), "no duplicate (src, dst) pairs");
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<String> = PATTERNS.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            [
                "uniform4",
                "permutation",
                "hotspot4",
                "neighbor2",
                "alltoall"
            ]
        );
    }
}
