//! Representative-scenario sampling for sweep grids (SimPoint, applied to
//! parameter sweeps instead of program phases).
//!
//! Exhaustive grids pay for every replicate and every near-duplicate
//! configuration. This module cuts that cost the way SimPoint cuts
//! simulation cost for CPU workloads: describe each scenario by a cheap
//! feature vector computed *without* running the simulator
//! (`feature`: hardware-axis coordinates, load/policy tags, and the
//! seeded demand-matrix signature), cluster the vectors with deterministic
//! seeded k-means (`kmeans`: k-means++ init over the grid's ChaCha8
//! stream), simulate **one weighted representative per cluster**, and
//! reconstruct the full-grid summary as the weight-averaged estimate, with
//! declared per-metric error bounds carried in a [`SamplingStats`] block.
//!
//! The contract, pinned by `tests/sampling_accuracy.rs` against the
//! exhaustive oracle [`SweepGrid::run`]:
//!
//! * **Exact degeneration.** When the cluster budget covers the grid
//!   (`clusters >= scenario_count`, or fewer than
//!   [`SampleConfig::min_replicate_collapse`] scenarios per cluster), the
//!   sampler delegates to [`SweepGrid::run`] — output byte-identical to
//!   the oracle, with `SamplingStats { exact: true, .. }` attached as
//!   JSON-excluded metadata.
//! * **Determinism.** The cluster plan is a pure function of the grid and
//!   config: scenarios are clustered in a canonical order (sorted by
//!   normalized feature vector, then seed, then replicate), so the plan —
//!   and the reconstructed report — is invariant under axis-declaration
//!   reordering and under the executing thread count.
//! * **Declared accuracy.** Each reconstructed summary metric carries an
//!   absolute error bound derived from the plan's mean intra-cluster
//!   dispersion; the accuracy suite verifies the exhaustive oracle lands
//!   within bounds on the reference grids.

mod feature;
mod kmeans;

use fabric::FabricKind;
use serde::json::Value;
use workloads::TrafficPattern;

use crate::codec::{self, DecodeError};
use crate::report::{SamplingStats, SweepReport};
use crate::sweep::exec::PlanRun;
use crate::sweep::{StreamConfig, SweepGrid};

/// Knobs of the representative-scenario sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleConfig {
    /// Cluster budget: at most this many scenarios are simulated. The
    /// effective count can come out lower when the grid has fewer distinct
    /// feature vectors than clusters.
    pub clusters: usize,
    /// Minimum average scenarios-per-cluster for sampling to be worth the
    /// clustering pass: grids with fewer than `clusters *
    /// min_replicate_collapse` scenarios run exhaustively instead.
    pub min_replicate_collapse: usize,
    /// Sampler seed, folded with the grid's `base_seed` into the k-means
    /// RNG stream.
    pub seed: u64,
    /// Lloyd-iteration cap for k-means refinement.
    pub max_iterations: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            clusters: 16,
            min_replicate_collapse: 2,
            seed: 0xC1A5_7E12,
            max_iterations: 32,
        }
    }
}

impl SampleConfig {
    /// A default-knobs config with the given cluster budget (the `sweep
    /// --sample K` spelling).
    pub fn with_clusters(clusters: usize) -> Self {
        SampleConfig {
            clusters: clusters.max(1),
            ..SampleConfig::default()
        }
    }

    /// Canonical JSON form (round-trips through the job-file parser; also
    /// the preimage of [`SampleConfig::sample_hash`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"clusters\":{},\"min_replicate_collapse\":{},\"seed\":{},\"max_iterations\":{}}}",
            self.clusters, self.min_replicate_collapse, self.seed, self.max_iterations
        )
    }

    /// Parse the `sample` object of a job file. All fields optional;
    /// unknown fields rejected.
    pub(crate) fn from_json_value(doc: &Value, ctx: &str) -> Result<Self, DecodeError> {
        let mut config = SampleConfig::default();
        for (key, value) in codec::as_object(doc, ctx)? {
            let field_ctx = format!("{ctx}.{key}");
            match key.as_str() {
                "clusters" => config.clusters = codec::as_count(value, &field_ctx)?,
                "min_replicate_collapse" => {
                    config.min_replicate_collapse = codec::as_usize(value, &field_ctx)?
                }
                "seed" => config.seed = codec::as_u64(value, &field_ctx)?,
                "max_iterations" => config.max_iterations = codec::as_count(value, &field_ctx)?,
                _ => return Err(format!("{ctx}: unknown field {key:?}")),
            }
        }
        Ok(config)
    }

    /// Content hash of the config (FNV-1a over the canonical JSON, like
    /// [`SweepGrid::grid_hash`]). The jobs layer folds this into the shard
    /// cache key, so sampled shards can never collide with exact shards —
    /// or with shards sampled under different knobs.
    pub fn sample_hash(&self) -> String {
        format!("{:016x}", crate::hash::fnv1a(self.to_json().as_bytes()))
    }
}

/// One cluster's elected representative: the grid-expansion index of the
/// scenario to simulate and the number of scenarios it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representative {
    /// Grid-expansion index of the representative scenario.
    pub index: usize,
    /// Cluster population (scenarios this representative stands for).
    pub weight: usize,
}

/// The deterministic clustering of a grid under a [`SampleConfig`]: which
/// scenarios to simulate, with what weights, and how far the grid spreads
/// around them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// Scenarios the full grid expands to.
    pub total: usize,
    /// True when the plan degenerates to exhaustive execution (see
    /// [`SampleConfig::min_replicate_collapse`]); `representatives` and
    /// `assignments` are empty in that case.
    pub exact: bool,
    /// One entry per non-empty cluster, ordered by representative index.
    pub representatives: Vec<Representative>,
    /// For each grid-expansion index, the ordinal of its cluster in
    /// `representatives`. Empty in exact mode.
    pub assignments: Vec<u32>,
    /// Weight-averaged RMS distance of scenarios to their cluster centroid
    /// in the normalized feature space.
    pub mean_dispersion: f64,
}

impl ClusterPlan {
    /// Cluster a grid. Pure function of `(grid, config)`: independent of
    /// thread count, and invariant under axis-declaration reordering
    /// (scenarios are canonically ordered by feature vector before
    /// clustering, so where a scenario sits in the expansion order cannot
    /// influence the plan).
    pub fn build(grid: &SweepGrid, config: &SampleConfig) -> ClusterPlan {
        let n = grid.scenario_count();
        let k = config.clusters.max(1);
        if n == 0 || k >= n || n < k.saturating_mul(config.min_replicate_collapse.max(1)) {
            return ClusterPlan {
                total: n,
                exact: true,
                representatives: Vec::new(),
                assignments: Vec::new(),
                mean_dispersion: 0.0,
            };
        }

        let mut memo = feature::SignatureMemo::new();
        let mut features: Vec<feature::FeatureVec> = Vec::with_capacity(n);
        let mut tiebreak: Vec<(u64, u32)> = Vec::with_capacity(n);
        for scenario in grid.scenarios() {
            features.push(feature::extract(&scenario, &mut memo));
            tiebreak.push((scenario.seed, scenario.replicate));
        }
        feature::normalize(&mut features);

        // Canonical clustering order: sort grid indices by feature vector,
        // then (seed, replicate). Any rows still tied after that are
        // interchangeable — same features, same seed — so whichever one a
        // cluster elects, the simulated result is identical.
        let mut canonical: Vec<usize> = (0..n).collect();
        canonical.sort_by(|&a, &b| {
            for (fa, fb) in features[a].iter().zip(&features[b]) {
                match fa.total_cmp(fb) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            tiebreak[a].cmp(&tiebreak[b])
        });
        let points: Vec<feature::FeatureVec> = canonical.iter().map(|&i| features[i]).collect();

        let seed = grid.base_seed ^ config.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let result = kmeans::run(&points, k, seed, config.max_iterations.max(1));

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); result.centroids.len()];
        for (pos, &cluster) in result.assignments.iter().enumerate() {
            members[cluster].push(pos);
        }

        // Elect each cluster's representative: the member closest to the
        // final centroid, ties toward the lowest canonical position.
        struct Elected {
            rep_pos: usize,
            member_pos: Vec<usize>,
            rms: f64,
        }
        let mut elected: Vec<Elected> = Vec::with_capacity(result.centroids.len());
        for (cluster, member_pos) in members.into_iter().enumerate() {
            if member_pos.is_empty() {
                continue;
            }
            let centroid = &result.centroids[cluster];
            let mut rep_pos = member_pos[0];
            let mut rep_d = f64::INFINITY;
            let mut sum_d2 = 0.0;
            for &pos in &member_pos {
                let d = kmeans::dist2(&points[pos], centroid);
                sum_d2 += d;
                if d < rep_d {
                    rep_d = d;
                    rep_pos = pos;
                }
            }
            let rms = (sum_d2 / member_pos.len() as f64).sqrt();
            elected.push(Elected {
                rep_pos,
                member_pos,
                rms,
            });
        }
        elected.sort_by_key(|e| e.rep_pos);

        let mut assignments = vec![0u32; n];
        let mut representatives = Vec::with_capacity(elected.len());
        let mut dispersion_sum = 0.0;
        for (ordinal, cluster) in elected.iter().enumerate() {
            for &pos in &cluster.member_pos {
                assignments[canonical[pos]] = ordinal as u32;
            }
            dispersion_sum += cluster.rms * cluster.member_pos.len() as f64;
            representatives.push(Representative {
                index: canonical[cluster.rep_pos],
                weight: cluster.member_pos.len(),
            });
        }
        ClusterPlan {
            total: n,
            exact: false,
            representatives,
            assignments,
            mean_dispersion: dispersion_sum / n as f64,
        }
    }

    /// Build the [`SamplingStats`] block for a reconstructed report, with
    /// the declared error bound for each estimated summary metric.
    /// `scenarios` and `fabrics_built` are exact by construction and carry
    /// no bound. The coefficients are calibrated against the reference
    /// grids in `tests/sampling_accuracy.rs`: the bound widens linearly
    /// with the plan's mean intra-cluster dispersion, which is 0 when every
    /// cluster collapsed onto identical feature vectors (pure replicate
    /// collapse) and grows as genuinely different scenarios get merged.
    pub(crate) fn stats(&self, config: &SampleConfig, summary: &[(String, f64)]) -> SamplingStats {
        let d = self.mean_dispersion;
        let mut error_bounds = Vec::new();
        for (key, value) in summary {
            let bound = match key.as_str() {
                "mean_satisfaction" => 0.02 + 0.35 * d,
                "min_satisfaction" => 0.06 + 0.90 * d,
                "mean_latency_ns" | "total_energy_j" | "mean_power_w" => {
                    (0.03 + 0.45 * d) * value.abs()
                }
                _ => continue,
            };
            error_bounds.push((key.clone(), bound));
        }
        SamplingStats {
            exact: self.exact,
            clusters: config.clusters,
            evaluated: if self.exact {
                self.total
            } else {
                self.representatives.len()
            },
            total: self.total,
            mean_dispersion: d,
            error_bounds,
        }
    }
}

impl SweepGrid {
    /// Execute the grid through the representative-scenario sampler: one
    /// simulated scenario per cluster, weighted reconstruction of the
    /// exhaustive summary, accuracy metadata in
    /// [`SweepReport::sampling`]. When the plan degenerates (see
    /// [`ClusterPlan::build`]) this *is* [`SweepGrid::run`], byte for
    /// byte.
    ///
    /// ```
    /// use disagg_core::sample::SampleConfig;
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let grid = SweepGrid::named("s").mcm_counts([16]).replicates(64);
    /// let sampled = grid.run_sampled(&SampleConfig::with_clusters(4));
    /// let stats = sampled.sampling.as_ref().unwrap();
    /// assert!(!stats.exact);
    /// assert_eq!(stats.total, 64);
    /// assert!(stats.evaluated <= 4);
    /// // The reconstructed summary estimates the full 64-scenario grid.
    /// assert_eq!(sampled.summary_metric("scenarios"), Some(64.0));
    /// ```
    pub fn run_sampled(&self, config: &SampleConfig) -> SweepReport {
        // Representatives come from distinct clusters, so dedup rarely
        // fires here — but the demand-matrix memo still pays off when
        // representatives share a traffic signature, and reuse is
        // byte-exact, so it stays on unconditionally.
        PlanRun::new(self, &StreamConfig::default(), Some(config)).into_report()
    }
}

/// The fixed reference grid the accuracy harness and `sweep --bench` share:
/// heavy enough that per-scenario work dominates overhead, varied enough to
/// exercise both fabric constructions, the indirect-routing path, and three
/// traffic shapes with different satisfaction profiles. 192 scenarios at
/// the default 32 replicates; `reference_grid().replicates(r)` scales the
/// replicate axis for the inflated variants.
pub fn reference_grid() -> SweepGrid {
    SweepGrid::named("bench-reference")
        .mcm_counts([350])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            // All-to-all has the most flows (~122k at full rack scale) but
            // draws no RNG, so the executor solves it once per fabric and
            // replays the other replicates; the seeded permutation and
            // hotspot solves, whose Valiant shuffles differ per seed, carry
            // the grid's solve time.
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
            TrafficPattern::Permutation { demand_gbps: 600.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 8,
                demand_gbps: 500.0,
            },
        ])
        .direct_latencies_ns([35.0])
        .replicates(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::named("sample-unit")
            .mcm_counts([16, 24])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::HotSpot {
                    hot_mcms: 2,
                    demand_gbps: 300.0,
                },
            ])
            .replicates(8) // 32 scenarios
    }

    #[test]
    fn plan_weights_cover_the_grid_exactly_once() {
        let grid = small_grid();
        let plan = ClusterPlan::build(&grid, &SampleConfig::with_clusters(6));
        assert!(!plan.exact);
        assert_eq!(plan.total, 32);
        assert_eq!(plan.assignments.len(), 32);
        let weight_sum: usize = plan.representatives.iter().map(|r| r.weight).sum();
        assert_eq!(weight_sum, 32);
        // Every assignment points at a live representative, and each
        // representative belongs to its own cluster.
        for (index, &ordinal) in plan.assignments.iter().enumerate() {
            assert!(
                (ordinal as usize) < plan.representatives.len(),
                "row {index}"
            );
        }
        for (ordinal, rep) in plan.representatives.iter().enumerate() {
            assert_eq!(plan.assignments[rep.index] as usize, ordinal);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let grid = small_grid();
        let config = SampleConfig::with_clusters(5);
        let a = ClusterPlan::build(&grid, &config);
        let b = ClusterPlan::build(&grid, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_budget_covering_the_grid_degenerates_to_exact() {
        let grid = small_grid();
        let plan = ClusterPlan::build(&grid, &SampleConfig::with_clusters(32));
        assert!(plan.exact);
        // And so does a grid too small to pay for clustering.
        let plan = ClusterPlan::build(&grid, &SampleConfig::with_clusters(17));
        assert!(plan.exact, "17 clusters x 2 collapse > 32 scenarios");
    }

    #[test]
    fn degenerate_run_sampled_is_byte_identical_to_run() {
        let grid = small_grid();
        let sampled = grid.run_sampled(&SampleConfig::with_clusters(64));
        assert_eq!(sampled.to_json(), grid.run().to_json());
        let stats = sampled.sampling.expect("stats attached");
        assert!(stats.exact);
        assert_eq!(stats.evaluated, 32);
        assert_eq!(stats.total, 32);
        assert_eq!(stats.reduction(), 1.0);
    }

    #[test]
    fn sampled_summary_keeps_the_exhaustive_schema() {
        let grid = small_grid().energy_modes([crate::energy::EnergyMode::UtilizationScaled]);
        let exact = grid.run();
        let sampled = grid.run_sampled(&SampleConfig::with_clusters(6));
        let keys =
            |r: &SweepReport| -> Vec<String> { r.summary.iter().map(|(k, _)| k.clone()).collect() };
        assert_eq!(keys(&sampled), keys(&exact));
        assert_eq!(sampled.summary_metric("scenarios"), Some(32.0));
        assert_eq!(
            sampled.summary_metric("fabrics_built"),
            exact.summary_metric("fabrics_built")
        );
        let stats = sampled.sampling.as_ref().unwrap();
        assert!(stats.evaluated <= 6);
        assert!(stats.bound("mean_satisfaction").unwrap() > 0.0);
        assert!(
            stats.bound("scenarios").is_none(),
            "exact metrics carry no bound"
        );
    }

    #[test]
    fn sample_config_json_round_trips_and_rejects_unknowns() {
        let config = SampleConfig {
            clusters: 9,
            min_replicate_collapse: 3,
            seed: 17,
            max_iterations: 5,
        };
        let doc = serde::json::parse(&config.to_json()).unwrap();
        assert_eq!(
            SampleConfig::from_json_value(&doc, "sample").unwrap(),
            config
        );
        let bad = serde::json::parse("{\"k\":4}").unwrap();
        assert!(SampleConfig::from_json_value(&bad, "sample").is_err());
        // Hash separates configs.
        assert_ne!(config.sample_hash(), SampleConfig::default().sample_hash());
    }
}
