//! Acceptance suite for cross-scenario computation reuse: dedup-planned
//! solving with byte-identical replay, plus the per-batch demand-matrix
//! memo.
//!
//! The contract under test: reuse is *exact*. A reuse-on run — the default
//! everywhere — must produce byte-identical `SweepReport` JSON to a
//! reuse-off run of the same grid at any thread count, because followers
//! replay their group leader's retained solver digest through their own
//! energy mode rather than re-deriving anything. The [`ReuseStats`] block
//! is observability only: excluded from report JSON and equality.

use std::fs;
use std::path::PathBuf;

use photonic_disagg::core::energy::EnergyMode;
use photonic_disagg::core::jobs::{JobRunner, JobSpec};
use photonic_disagg::core::sample::SampleConfig;
use photonic_disagg::core::sweep::{artifacts, StreamConfig, SweepGrid};
use photonic_disagg::fabric::flexgrid::SpectrumPolicy;
use photonic_disagg::fabric::rackfabric::FabricKind;
use photonic_disagg::fabric::timeline::ReallocationPolicy;
use photonic_disagg::workloads::timeline::DemandTimeline;
use photonic_disagg::workloads::TrafficPattern;
use proptest::prelude::*;

/// A grid whose energy axis gives every physical solve two byte-identical
/// variants: the dedup planner must find one group per grid point.
fn energy_axis_grid() -> SweepGrid {
    SweepGrid::named("reuse-energy")
        .mcm_counts([16, 24])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 200.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 2,
                demand_gbps: 300.0,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(3)
}

/// A grid covering all three load kinds (pattern, wavelength timeline,
/// flex grid) so replay exercises every `EnergyInputs` digest shape.
fn all_load_kinds_grid() -> SweepGrid {
    SweepGrid::named("reuse-kinds")
        .mcm_counts([16])
        .patterns([TrafficPattern::Permutation { demand_gbps: 200.0 }])
        .timelines([DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5)])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
        ])
        .spectrum_policies([SpectrumPolicy::default()])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .direct_latencies_ns([25.0, 35.0])
        .replicates(2)
}

fn run_with_reuse(grid: &SweepGrid, reuse: bool) -> photonic_disagg::core::SweepReport {
    grid.run_streaming(&StreamConfig {
        reuse,
        ..StreamConfig::default()
    })
}

#[test]
fn reuse_stats_partition_the_batch_and_find_energy_groups() {
    let grid = energy_axis_grid();
    let report = grid.run();
    let stats = report.reuse.expect("default run attaches ReuseStats");
    // Leaders + followers must partition the executed scenarios exactly.
    assert_eq!(stats.scenarios(), grid.scenario_count());
    assert_eq!(
        stats.leaders_solved + stats.followers_replayed,
        grid.scenario_count()
    );
    // Every grid point has two energy-mode variants of one physical solve:
    // half the scenarios are followers, one group per grid point. (The
    // 300 Gbps hot spot overflows the direct wavelengths and draws RNG, so
    // its replicates stay apart.)
    assert_eq!(stats.leaders_solved, grid.scenario_count() / 2);
    assert_eq!(stats.followers_replayed, grid.scenario_count() / 2);
    assert_eq!(stats.groups, grid.scenario_count() / 2);
    assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn reuse_stats_are_excluded_from_json_and_equality() {
    let grid = energy_axis_grid();
    let on = run_with_reuse(&grid, true);
    let off = run_with_reuse(&grid, false);
    assert!(on.reuse.is_some());
    // --no-reuse attaches no stats block at all.
    assert!(off.reuse.is_none());
    // JSON carries no trace of the stats: reports stay byte-compatible
    // with every earlier consumer, whatever the knob.
    let json = on.to_json();
    for key in ["leaders_solved", "followers_replayed", "matrices_reused"] {
        assert!(!json.contains(key), "{key} leaked into report JSON");
    }
    // PartialEq ignores the block too.
    assert_eq!(on, off);
}

#[test]
fn reuse_is_byte_exact_across_load_kinds_and_thread_counts() {
    let grid = all_load_kinds_grid();
    let reference = rayon::with_max_threads(1, || run_with_reuse(&grid, false)).to_json();
    for threads in [1, 2, 8] {
        let on = rayon::with_max_threads(threads, || run_with_reuse(&grid, true));
        assert_eq!(
            on.to_json(),
            reference,
            "reuse-on diverged at {threads} threads"
        );
        let stats = on.reuse.expect("stats attached");
        assert_eq!(stats.scenarios(), grid.scenario_count());
        assert!(stats.followers_replayed > 0, "energy axis must dedup");
    }
}

#[test]
fn demand_matrix_memo_fires_for_seed_insensitive_replicates() {
    // AllToAll ignores the seed and fits the direct wavelengths, so its
    // solve draws no RNG: all replicates on one fabric collapse to one
    // solve. The two fabrics' probes share one demand expansion; serial
    // execution makes the memo count deterministic.
    let grid = SweepGrid::named("reuse-memo")
        .mcm_counts([16])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([TrafficPattern::AllToAll { demand_gbps: 8.0 }])
        .replicates(4);
    let report = rayon::with_max_threads(1, || grid.run());
    let stats = report.reuse.expect("stats attached");
    assert_eq!(stats.leaders_solved, 2, "one solve per fabric");
    assert_eq!(stats.followers_replayed, 6);
    assert_eq!(stats.matrices_reused, 1);
    assert_eq!(report.to_json(), run_with_reuse(&grid, false).to_json());
}

/// Solve `grid` with reuse on and off at one thread, check the bytes
/// agree, and return the reuse-on report.
fn run_checked(grid: &SweepGrid) -> photonic_disagg::core::SweepReport {
    let on = rayon::with_max_threads(1, || grid.run());
    let off = rayon::with_max_threads(1, || run_with_reuse(grid, false));
    assert_eq!(on.to_json(), off.to_json());
    on
}

#[test]
fn wave_selective_permutation_does_not_collapse_across_replicates() {
    // Every pair has hundreds of direct wavelengths, so no solve draws RNG
    // — but the permutation itself is seeded, so replicates differ.
    let grid = SweepGrid::named("reuse-perm")
        .mcm_counts([16])
        .fabric_kinds([FabricKind::WaveSelective])
        .patterns([TrafficPattern::Permutation { demand_gbps: 600.0 }])
        .replicates(4);
    let report = run_checked(&grid);
    assert!(report
        .rows
        .iter()
        .all(|r| r.metric("indirect_fraction") == Some(0.0)));
    let stats = report.reuse.expect("stats attached");
    assert_eq!(stats.leaders_solved, 4);
    assert_eq!(stats.followers_replayed, 0);
}

#[test]
fn awgr_hotspot_above_direct_capacity_does_not_collapse() {
    // A small AWGR rack gives each pair six direct wavelengths (150 Gbps):
    // a 1000 Gbps hot-spot flow routes indirect, so each solve shuffles and
    // its seed matters even though the demand matrix does not.
    let grid = SweepGrid::named("reuse-hot")
        .mcm_counts([16])
        .patterns([TrafficPattern::HotSpot {
            hot_mcms: 4,
            demand_gbps: 1_000.0,
        }])
        .replicates(4);
    let report = run_checked(&grid);
    assert!(report
        .rows
        .iter()
        .all(|r| r.metric("indirect_fraction").unwrap() > 0.0));
    let stats = report.reuse.expect("stats attached");
    assert_eq!(stats.leaders_solved, 4);
    assert_eq!(stats.followers_replayed, 0);
}

#[test]
fn seed_blind_groups_split_across_batches_stay_byte_identical() {
    // Batches of 3 cut every replicate group: each batch probes afresh.
    let grid = SweepGrid::named("reuse-split")
        .mcm_counts([16, 64])
        .patterns([
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 2_000.0,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(5);
    let whole = grid.run();
    for reuse in [true, false] {
        let split = grid.run_streaming(&StreamConfig {
            batch_size: 3,
            reuse,
            ..StreamConfig::default()
        });
        assert_eq!(split.to_json(), whole.to_json(), "reuse {reuse}");
    }
}

#[test]
fn golden_energy_smoke_is_unchanged_with_reuse_on_by_default() {
    // The checked-in fixture predates computation reuse; the artifact path
    // runs with reuse on (the default), so matching it byte for byte pins
    // the replay exactness claim against a historical oracle.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/energy_smoke.json");
    let expected = fs::read_to_string(&fixture).expect("golden fixture present");
    let artifact = artifacts::energy_smoke();
    assert_eq!(artifact.report.to_json(), expected.trim_end());
    let stats = artifact.report.reuse.expect("artifact ran with reuse on");
    assert!(stats.followers_replayed > 0, "energy-axis grid must dedup");
}

#[test]
fn job_spec_reuse_field_parses_defaults_and_round_trips() {
    // Old job files (no `reuse` key) keep their meaning: reuse on.
    let defaulted = JobSpec::from_json(r#"{"grid":{"mcm_counts":[16]}}"#).unwrap();
    assert!(defaulted.reuse);
    let off = JobSpec::from_json(r#"{"grid":{"mcm_counts":[16]},"reuse":false}"#).unwrap();
    assert!(!off.reuse);
    assert!(JobSpec::from_json(r#"{"grid":{},"reuse":1}"#).is_err());
    // Round trip through to_json preserves the knob.
    assert_eq!(JobSpec::from_json(&off.to_json()).unwrap(), off);
    assert_eq!(JobSpec::from_json(&defaulted.to_json()).unwrap(), defaulted);
    // Reuse is byte-exact, so it must NOT split the shard cache: both
    // spellings share one cache key.
    assert_eq!(off.cache_key(), defaulted.cache_key());
}

#[test]
fn jobs_report_reuse_counters_and_stay_byte_identical() {
    let dir = std::env::temp_dir().join(format!(
        "pd-reuse-jobs-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let runner = JobRunner::new(&dir);

    let mut spec = JobSpec::new(energy_axis_grid());
    spec.rows_per_shard = 5;
    let outcome = runner.run(&spec).expect("job runs");
    let stats = outcome.reuse.expect("reuse-on job attaches counters");
    assert_eq!(stats.scenarios(), outcome.scenarios_executed);
    assert!(stats.followers_replayed > 0);
    assert_eq!(outcome.report.reuse, outcome.reuse);

    // A fully cached rerun solved nothing: counters are all zero.
    let cached = runner.run(&spec).expect("cached rerun");
    assert_eq!(cached.scenarios_executed, 0);
    assert_eq!(cached.reuse.expect("still attached").scenarios(), 0);
    assert_eq!(cached.report.to_json(), outcome.report.to_json());

    // A reuse-off spec shares the cache (same key) and the same bytes, and
    // attaches no counters.
    let mut off = spec.clone();
    off.reuse = false;
    let fresh_dir = dir.join("fresh");
    let off_outcome = JobRunner::new(&fresh_dir).run(&off).expect("reuse-off job");
    assert!(off_outcome.reuse.is_none());
    assert_eq!(off_outcome.report.to_json(), outcome.report.to_json());
    let _ = fs::remove_dir_all(&dir);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pd-reuse-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A job over `energy_axis_grid()` whose shards hold one energy mode each:
/// energy twins sit `replicates` (3) grid positions apart, so with three
/// rows per shard every twin lands in the shard after its leader's.
fn twin_splitting_job() -> JobSpec {
    let mut spec = JobSpec::new(energy_axis_grid());
    spec.rows_per_shard = 3;
    spec
}

#[test]
fn job_replays_energy_twins_across_shards() {
    let dir = scratch_dir("twins");
    let spec = twin_splitting_job();
    let reference = spec.grid.run();
    let outcome = JobRunner::new(&dir).run(&spec).expect("job runs");
    assert_eq!(outcome.report.to_json(), reference.to_json());
    let job = outcome.reuse.expect("reuse-on job attaches counters");
    let sweep = reference.reuse.expect("stats attached");
    // One dedup plan for the whole job: it solves exactly what one
    // uninterrupted run solves, however the shards cut the grid.
    assert_eq!(job.leaders_solved, sweep.leaders_solved);
    assert_eq!(job.followers_replayed, sweep.followers_replayed);
    assert_eq!(job.groups, sweep.groups);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resumed_job_starts_a_fresh_plan_and_stays_byte_identical() {
    let dir = scratch_dir("twins-resume");
    let spec = twin_splitting_job();
    let runner = JobRunner::new(&dir);
    let partial = runner.run_with_limit(&spec, Some(1)).expect("partial run");
    assert!(partial.suspended);
    assert_eq!(partial.reuse.expect("stats attached").leaders_solved, 3);
    let resumed = runner.run(&spec).expect("resumed run");
    assert_eq!(resumed.shards_from_cache, 1);
    assert_eq!(resumed.report.to_json(), spec.grid.run().to_json());
    // The resumed run's plan starts empty: the twins of the cached shard's
    // three scenarios must be solved again (12 + 3 solves in all, where an
    // uninterrupted job does 12), but every later twin still replays.
    let stats = resumed.reuse.expect("stats attached");
    assert_eq!(stats.scenarios(), 21);
    assert_eq!(stats.leaders_solved, 12);
    assert_eq!(stats.followers_replayed, 9);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn single_scenario_batches_solve_what_one_batch_solves() {
    for grid in [energy_axis_grid(), all_load_kinds_grid()] {
        let whole = grid.run();
        let split = grid.run_streaming(&StreamConfig {
            batch_size: 1,
            ..StreamConfig::default()
        });
        assert_eq!(split.to_json(), whole.to_json());
        let (split, whole) = (split.reuse.unwrap(), whole.reuse.unwrap());
        assert_eq!(split.leaders_solved, whole.leaders_solved, "{}", grid.name);
        assert_eq!(split.followers_replayed, whole.followers_replayed);
        assert_eq!(split.groups, whole.groups);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: solves a grid larger than the retained-solve cap"
)]
fn grid_past_the_retained_solve_cap_stays_byte_identical() {
    // Every replicate of a permutation is its own solve: 2 fabrics x 2
    // latencies x 1100 replicates = 4400 distinct solves, more than the
    // 4096 the planner retains, each with an energy twin 1100 positions
    // later. Whatever the batch size, the retained state is cleared while
    // some twins are still to come.
    let grid = SweepGrid::named("reuse-cap")
        .mcm_counts([2])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([TrafficPattern::Permutation { demand_gbps: 200.0 }])
        .direct_latencies_ns([25.0, 35.0])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(1100);
    let off = run_with_reuse(&grid, false).to_json();
    for batch_size in [StreamConfig::default().batch_size, 1000, 7] {
        let on = grid.run_streaming(&StreamConfig {
            batch_size,
            ..StreamConfig::default()
        });
        assert_eq!(on.to_json(), off, "batch size {batch_size}");
        let stats = on.reuse.expect("stats attached");
        // Twins whose leader was forgotten are solved again; the rest
        // still replay.
        assert!(stats.leaders_solved > 4400, "batch size {batch_size}");
        assert!(stats.followers_replayed > 0, "batch size {batch_size}");
    }
}

#[test]
fn sampled_jobs_and_run_sampled_carry_reuse_stats() {
    let grid = energy_axis_grid().replicates(16);
    let config = SampleConfig::with_clusters(6);
    let sampled = grid.run_sampled(&config);
    let stats = sampled.reuse.expect("run_sampled attaches ReuseStats");
    assert_eq!(
        stats.scenarios(),
        sampled.sampling.as_ref().unwrap().evaluated
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reuse exactness over randomized energy/latency/replicate-heavy
    /// grids: reuse-on and reuse-off `SweepReport` JSON is byte-identical
    /// at 1, 2, and 8 threads, whatever dedup opportunities the grid
    /// happens to contain. The hot spot's demand straddles the AWGR's
    /// per-pair direct capacity, so seed-blind probes and probes that draw
    /// RNG both occur; well above it, contention makes the outcome depend
    /// on the seed. Small batches cut groups at random places, and the
    /// run-scoped plan must solve exactly what one default batch solves.
    #[test]
    fn reuse_on_off_reports_are_byte_identical(
        seed in 0u64..500,
        mcms in 2u32..24,
        replicates in 1u32..6,
        latency_b in 20.0f64..60.0,
        demand in 50.0f64..2_000.0,
        hot_share in 0.5f64..4.0,
        both_modes in 0u8..2,
        batch_size in 1usize..9,
    ) {
        let modes = if both_modes == 1 {
            vec![EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]
        } else {
            vec![EnergyMode::UtilizationScaled]
        };
        // Racks under 200 MCMs get six direct AWGR wavelengths per pair.
        let awgr_direct_gbps = 6.0 * 25.0;
        let mut grid = SweepGrid::named("prop-reuse")
            .mcm_counts([mcms])
            .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: demand },
                TrafficPattern::AllToAll { demand_gbps: demand / 25.0 },
                TrafficPattern::HotSpot {
                    hot_mcms: 2,
                    demand_gbps: hot_share * awgr_direct_gbps,
                },
            ])
            .direct_latencies_ns([35.0, latency_b])
            .replicates(replicates);
        grid.energy_modes = modes;
        grid.base_seed = seed;
        let off = rayon::with_max_threads(1, || run_with_reuse(&grid, false)).to_json();
        let whole = grid.run().reuse.expect("stats attached").leaders_solved;
        let config = StreamConfig {
            batch_size,
            ..StreamConfig::default()
        };
        for threads in [1usize, 2, 8] {
            let on = rayon::with_max_threads(threads, || grid.run_streaming(&config));
            prop_assert_eq!(on.to_json(), off.clone());
            // The plan spans batches: below the retained-solve cap, batch
            // boundaries never change what is solved.
            prop_assert_eq!(on.reuse.expect("stats attached").leaders_solved, whole);
        }
    }
}

/// The summary invariants every report a job returns must keep, suspended
/// or not: `scenarios` is the merged rows' weight sum (1 per exact row, the
/// `cluster_weight` of a sampled one) and `min <= mean <= 1`. A report
/// with no rows has no summary.
fn assert_summary_covers_merged_weight(report: &photonic_disagg::core::SweepReport) {
    let weight_sum: usize = report
        .rows
        .iter()
        .map(|row| {
            row.params
                .iter()
                .find(|(key, _)| key == "cluster_weight")
                .map_or(1, |(_, weight)| weight.parse().expect("integer weight"))
        })
        .sum();
    if weight_sum == 0 {
        assert!(report.summary.is_empty());
        return;
    }
    assert_eq!(report.summary_metric("scenarios"), Some(weight_sum as f64));
    let mean = report.summary_metric("mean_satisfaction").unwrap();
    let min = report.summary_metric("min_satisfaction").unwrap();
    assert!(min <= mean && mean <= 1.0, "min {min} mean {mean}");
}

#[test]
fn suspended_sampled_job_summarizes_only_the_merged_weight() {
    let dir = scratch_dir("sampled-suspend");
    let sample = SampleConfig::with_clusters(4);
    let mut spec = JobSpec::new(SweepGrid::named("job").mcm_counts([16, 24]).replicates(32));
    spec.sample = Some(sample.clone());
    spec.rows_per_shard = 1;
    let runner = JobRunner::new(&dir);
    let partial = runner.run_with_limit(&spec, Some(1)).expect("partial run");
    assert!(partial.suspended);
    assert_eq!(partial.report.rows.len(), 1);
    assert_summary_covers_merged_weight(&partial.report);
    let resumed = runner.run(&spec).expect("resumed run");
    assert_eq!(resumed.shards_from_cache, 1);
    assert_eq!(
        resumed.report.to_json(),
        spec.grid.run_sampled(&sample).to_json()
    );
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Plan slicing is invisible: a job — exact or sampled — suspended at a
    /// random point, resumed, and then resubmitted into the same cache at a
    /// different shard size always completes byte-identical to `run()` or
    /// `run_sampled()`, whatever the shard and batch sizes. Resubmission
    /// re-executes every cached shard cut for the old geometry.
    #[test]
    fn plan_slicing_is_invisible_to_job_reports(
        seed in 0u64..500,
        mcms in 2u32..20,
        replicates in 1u32..8,
        both_modes in 0u8..2,
        rows_per_shard in 1usize..9,
        resubmit_rows_per_shard in 1usize..9,
        batch_size in 1usize..9,
        clusters in 0usize..9,
        suspend_after in 0usize..4,
    ) {
        let mut grid = SweepGrid::named("prop-slicing")
            .mcm_counts([mcms])
            .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
            // Two demands of one family share row labels.
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::Permutation { demand_gbps: 400.0 },
                TrafficPattern::HotSpot {
                    hot_mcms: 2,
                    demand_gbps: 300.0,
                },
            ])
            .replicates(replicates);
        if both_modes == 1 {
            grid = grid.energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
        }
        grid.base_seed = seed;
        // Below two clusters the job runs exhaustively.
        let sample = (clusters >= 2).then(|| SampleConfig::with_clusters(clusters));
        let reference = match &sample {
            Some(sample) => grid.run_sampled(sample),
            None => grid.run(),
        }
        .to_json();

        let dir = scratch_dir("prop-slicing");
        let runner = JobRunner::new(&dir);
        let mut spec = JobSpec::new(grid);
        spec.rows_per_shard = rows_per_shard;
        spec.batch_size = batch_size;
        spec.sample = sample;
        let partial = runner
            .run_with_limit(&spec, Some(suspend_after))
            .expect("partial run");
        assert_summary_covers_merged_weight(&partial.report);
        if !partial.suspended {
            prop_assert_eq!(partial.report.to_json(), reference.clone());
        }
        let resumed = runner.run(&spec).expect("resumed run");
        prop_assert_eq!(resumed.report.to_json(), reference.clone());

        spec.rows_per_shard = if resubmit_rows_per_shard == rows_per_shard {
            rows_per_shard % 8 + 1
        } else {
            resubmit_rows_per_shard
        };
        let resubmitted = runner.run(&spec).expect("resubmitted run");
        prop_assert_eq!(resubmitted.report.to_json(), reference);
        let _ = fs::remove_dir_all(&dir);
    }
}
