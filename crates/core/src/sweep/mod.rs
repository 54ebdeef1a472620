//! The declarative scenario-sweep engine.
//!
//! Every figure and table of the paper is one point (or one small grid) in a
//! much larger scenario space: rack sizes, DWDM wavelength counts and FEC
//! settings, fabric constructions, and traffic patterns. This module turns
//! that space into a first-class object, split across three layers:
//!
//! * [`grid`](self) — [`SweepGrid`], the declarative cartesian product over
//!   the scenario axes (builders default every axis to the paper's design
//!   point, so a grid names only what it varies), and
//!   [`ScenarioIter`], the lazy expansion that decodes any scenario O(1)
//!   from its cartesian-product row index — a multi-million-row grid is
//!   never materialized as a `Vec<Scenario>`.
//! * [`scenario`](self) — [`Scenario`] (one expanded grid point with a
//!   deterministic seed derived by hashing the traffic-defining parameters
//!   only, so fabric/DWDM/FEC/latency/policy sweeps compare under an
//!   identical demand matrix), [`ScenarioLoad`] (static
//!   [`TrafficPattern`](workloads::TrafficPattern) matrices or phased
//!   [`DemandTimeline`](workloads::DemandTimeline)s under each swept
//!   reallocation policy, or flex-grid spectrum runs under each swept
//!   [`SpectrumPolicy`](fabric::SpectrumPolicy)), and [`ScenarioResult`].
//! * [`exec`](self) — the execution layer: [`parallel_map`], an
//!   order-preserving map over a slice on the vendored chunk-stealing
//!   thread pool (the batch runner calls the pool's `run_with_init`
//!   directly, so each worker reuses one scratch arena across every
//!   scenario it executes); [`configure_threads`] (`--threads` /
//!   `PD_THREADS` plumbing); the `Arc`-shared fabric memoization cache; and
//!   the batched streaming runner behind [`SweepGrid::run`],
//!   [`SweepGrid::run_streaming`] (opt-in row cap), and
//!   [`SweepGrid::run_sharded`] (bounded-memory JSON emission).
//!
//! [`SweepGrid::energy_modes`] adds the optional energy axis: each scenario
//! is additionally accounted by `core::energy` under always-on and/or
//! utilization-scaled transceiver assumptions; energy modes never perturb
//! the scenario seed.
//!
//! Determinism contract: the same grid run twice — serially, in parallel at
//! any thread count, streamed or materialized — yields byte-identical
//! [`SweepReport::to_json`](crate::report::SweepReport::to_json) output.

pub(crate) mod codec;
pub(crate) mod exec;
mod grid;
mod scenario;

pub mod artifacts;

pub use exec::{configure_threads, parallel_map, StreamConfig};
pub use grid::{ScenarioIter, SweepGrid};
pub use scenario::{
    FlexGridCase, FlexGridRowMetrics, Scenario, ScenarioLoad, ScenarioResult, TimelineCase,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::{EnergyConfig, EnergyMode};
    use fabric::{AdmissionPolicy, DefragPolicy, FabricKind, ReallocationPolicy, SpectrumPolicy};
    use workloads::{DemandTimeline, TrafficPattern};

    fn small_grid() -> SweepGrid {
        SweepGrid::named("test")
            .mcm_counts([16, 24])
            .fabric_kinds([FabricKind::ParallelAwgrs])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::Uniform {
                    flows_per_mcm: 2,
                    demand_gbps: 150.0,
                },
            ])
            .direct_latencies_ns([25.0, 35.0])
    }

    #[test]
    fn expansion_count_is_product_of_axes() {
        let grid = small_grid();
        assert_eq!(grid.scenario_count(), 2 * 2 * 2);
        assert_eq!(grid.expand().len(), grid.scenario_count());
        let grid = grid.replicates(3);
        assert_eq!(grid.expand().len(), 2 * 2 * 2 * 3);
    }

    #[test]
    fn empty_axis_expands_to_nothing() {
        let grid = small_grid().patterns([]);
        assert_eq!(grid.scenario_count(), 0);
        let report = grid.run();
        assert!(report.rows.is_empty());
        assert!(report.summary.is_empty());
    }

    #[test]
    fn scenario_seeds_are_distinct_per_traffic_point_and_position_independent() {
        let grid = small_grid();
        let scenarios = grid.expand();
        // Seeds are a function of (mcm_count, pattern, replicate) only.
        let mut seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2 * 2, "one seed per (mcm, pattern) point");

        // Extending the mcm axis must not change the seeds of the scenarios
        // that both grids contain.
        let extended = small_grid().mcm_counts([16, 24, 32]).expand();
        for s in &scenarios {
            let twin = extended
                .iter()
                .find(|t| {
                    t.fabric == s.fabric
                        && t.load == s.load
                        && t.direct_latency_ns == s.direct_latency_ns
                        && t.replicate == s.replicate
                })
                .expect("shared scenario must exist in extended grid");
            assert_eq!(twin.seed, s.seed);
        }
    }

    #[test]
    fn non_traffic_axes_hold_the_demand_matrix_fixed() {
        // Sweeping latency (or fabric kind) must not resample the random
        // traffic, or the sweep would attribute sampling noise to the swept
        // axis. Satisfaction is latency-independent; only latency moves.
        let grid = SweepGrid::named("hold")
            .mcm_counts([16])
            .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
            .patterns([TrafficPattern::Uniform {
                flows_per_mcm: 6,
                demand_gbps: 400.0,
            }])
            .direct_latencies_ns([25.0, 35.0]);
        let report = grid.run();
        assert_eq!(report.rows.len(), 4);
        let offered: Vec<f64> = report
            .rows
            .iter()
            .map(|r| r.metric("offered_gbps").unwrap())
            .collect();
        assert!(offered.iter().all(|&o| o == offered[0]), "{offered:?}");
        for pair in report.rows.chunks(2) {
            // Same fabric, latency 25 vs 35: identical allocation outcome.
            assert_eq!(
                pair[0].metric("satisfaction"),
                pair[1].metric("satisfaction")
            );
            assert_eq!(
                pair[0].metric("indirect_fraction"),
                pair[1].metric("indirect_fraction")
            );
            assert!(
                pair[0].metric("mean_latency_ns").unwrap()
                    < pair[1].metric("mean_latency_ns").unwrap()
            );
        }
    }

    #[test]
    fn labels_stay_unique_when_dwdm_axes_vary() {
        let grid = SweepGrid::named("labels")
            .mcm_counts([16])
            .fibers_per_mcm([16, 32])
            .wavelengths_per_fiber([32, 64])
            .gbps_per_wavelength([25.0, 50.0]);
        let scenarios = grid.expand();
        let mut labels: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), scenarios.len(), "labels must be unique");
    }

    #[test]
    fn same_grid_twice_is_byte_identical_json() {
        let grid = small_grid();
        assert_eq!(grid.run().to_json(), grid.run().to_json());
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let grid = small_grid();
        assert_eq!(grid.run(), grid.run_serial());
    }

    #[test]
    fn runs_are_byte_identical_across_thread_counts() {
        let grid = small_grid().replicates(3);
        let reference = rayon::with_max_threads(1, || grid.run().to_json());
        for threads in [2, 8] {
            let json = rayon::with_max_threads(threads, || grid.run().to_json());
            assert_eq!(json, reference, "drift at {threads} threads");
        }
    }

    /// The pre-refactor nested-loop expansion, reimplemented verbatim as an
    /// independent oracle: `expand()` is now `scenarios().collect()`, so
    /// comparing the iterator against itself would prove nothing about the
    /// mixed-radix decode order.
    fn legacy_nested_loop_expand(grid: &SweepGrid) -> Vec<Scenario> {
        use super::scenario::scenario_seed;
        let loads = grid.loads();
        let energy_axis: Vec<Option<EnergyMode>> = if grid.energy_modes.is_empty() {
            vec![None]
        } else {
            grid.energy_modes.iter().copied().map(Some).collect()
        };
        let mut scenarios = Vec::new();
        for &kind in &grid.fabric_kinds {
            for &mcm_count in &grid.mcm_counts {
                for &fibers_per_mcm in &grid.fibers_per_mcm {
                    for &wavelengths_per_fiber in &grid.wavelengths_per_fiber {
                        for &gbps in &grid.gbps_per_wavelength {
                            for &fec in &grid.fec_configs {
                                for load in &loads {
                                    for &latency in &grid.direct_latencies_ns {
                                        for &energy_mode in &energy_axis {
                                            for replicate in 0..grid.replicates.max(1) {
                                                scenarios.push(Scenario {
                                                    index: scenarios.len(),
                                                    fabric: fabric::RackFabricConfig {
                                                        mcm_count,
                                                        fibers_per_mcm,
                                                        wavelengths_per_fiber,
                                                        gbps_per_wavelength: gbps
                                                            * (1.0 - fec.bandwidth_overhead),
                                                        kind,
                                                    },
                                                    fec,
                                                    load: load.clone(),
                                                    direct_latency_ns: latency,
                                                    energy_mode,
                                                    replicate,
                                                    seed: scenario_seed(
                                                        grid.base_seed,
                                                        mcm_count,
                                                        load,
                                                        replicate,
                                                    ),
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }

    #[test]
    fn scenario_iter_decodes_every_index_like_the_legacy_nested_loops() {
        let grid = small_grid()
            .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
            .fibers_per_mcm([16, 32])
            .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
            .replicates(2);
        let oracle = legacy_nested_loop_expand(&grid);
        assert_eq!(oracle.len(), grid.scenario_count());
        let iter = grid.scenarios();
        assert_eq!(iter.len(), oracle.len());
        for (i, expected) in oracle.iter().enumerate() {
            assert_eq!(&iter.get(i).unwrap(), expected, "decode mismatch at {i}");
        }
        assert_eq!(grid.expand(), oracle);
        assert!(iter.get(oracle.len()).is_none());
    }

    #[test]
    fn scenario_iter_random_access_handles_million_row_grids() {
        // 2 mcms x 2 patterns x 2 latencies x 125k replicates = 1M rows,
        // decoded O(1) without materializing anything.
        let grid = small_grid().replicates(125_000);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 1_000_000);
        let last = scenarios.get(999_999).unwrap();
        assert_eq!(last.index, 999_999);
        assert_eq!(last.replicate, 124_999);
        assert_eq!(last.fabric.mcm_count, 24);
        // Replicate is the innermost axis: consecutive indices differ only
        // in replicate until the axis wraps.
        let a = scenarios.get(500_000).unwrap();
        let b = scenarios.get(500_001).unwrap();
        assert_eq!(a.fabric, b.fabric);
        assert_eq!(a.load, b.load);
        assert_eq!(a.replicate + 1, b.replicate);
    }

    #[test]
    fn streaming_with_tiny_batches_matches_materialized_run() {
        let grid = small_grid()
            .energy_modes([EnergyMode::AlwaysOn])
            .replicates(2);
        let reference = grid.run();
        let streamed = grid.run_streaming(&StreamConfig {
            batch_size: 3,
            ..StreamConfig::default()
        });
        assert_eq!(streamed.to_json(), reference.to_json());
    }

    #[test]
    fn row_cap_truncates_rows_but_aggregates_everything() {
        let grid = small_grid().energy_modes([EnergyMode::AlwaysOn]);
        let reference = grid.run();
        let capped = grid.run_streaming(&StreamConfig::with_row_cap(2));
        assert_eq!(capped.rows.len(), 2);
        assert_eq!(capped.energy.len(), 2);
        assert_eq!(capped.rows[..], reference.rows[..2]);
        assert_eq!(capped.summary, reference.summary);
        assert_eq!(capped.summary_metric("scenarios"), Some(8.0));
    }

    #[test]
    fn sharded_emission_reassembles_into_the_full_report() {
        let grid = small_grid().replicates(2); // 16 rows
        let reference = grid.run();
        let mut shards: Vec<crate::report::SweepReport> = Vec::new();
        let master = grid.run_sharded(&StreamConfig::default(), 5, &mut |shard| shards.push(shard));
        assert_eq!(shards.len(), 4, "16 rows in shards of 5");
        assert_eq!(shards[0].name, "test.shard0");
        assert_eq!(shards[3].rows.len(), 1);
        let reassembled: Vec<_> = shards.iter().flat_map(|s| s.rows.clone()).collect();
        assert_eq!(reassembled, reference.rows);
        assert_eq!(master.summary, reference.summary);
        assert!(master.rows.is_empty());
    }

    #[test]
    fn sharded_emission_respects_the_row_cap() {
        let grid = small_grid().replicates(2); // 16 rows
        let mut shards: Vec<crate::report::SweepReport> = Vec::new();
        let config = StreamConfig::with_row_cap(7);
        let master = grid.run_sharded(&config, 3, &mut |shard| shards.push(shard));
        let emitted: usize = shards.iter().map(|s| s.rows.len()).sum();
        assert_eq!(emitted, 7, "row cap bounds the total across shards");
        // The summary still aggregates every executed scenario.
        assert_eq!(master.summary_metric("scenarios"), Some(16.0));
    }

    #[test]
    fn fabrics_are_memoized_across_scenarios() {
        // 8 scenarios, but only 2 distinct topologies (16 and 24 MCMs).
        let grid = small_grid();
        let report = grid.run();
        assert_eq!(report.summary_metric("fabrics_built"), Some(2.0));
        assert_eq!(report.summary_metric("scenarios"), Some(8.0));
    }

    #[test]
    fn small_demand_scenarios_are_fully_satisfied() {
        let grid = SweepGrid::named("sat")
            .mcm_counts([32])
            .patterns([TrafficPattern::Permutation { demand_gbps: 100.0 }]);
        let report = grid.run();
        assert_eq!(report.rows.len(), 1);
        let sat = report.rows[0].metric("satisfaction").unwrap();
        assert!((sat - 1.0).abs() < 1e-9, "satisfaction {sat}");
    }

    #[test]
    fn fec_overhead_derates_wavelength_rate() {
        let grid = SweepGrid::default();
        let s = &grid.expand()[0];
        assert!(s.fabric.gbps_per_wavelength < 25.0);
        assert!(s.fabric.gbps_per_wavelength > 24.9);
    }

    #[test]
    fn replicates_differ_but_are_deterministic() {
        let grid = SweepGrid::named("rep")
            .mcm_counts([16])
            .patterns([TrafficPattern::Uniform {
                flows_per_mcm: 8,
                demand_gbps: 400.0,
            }])
            .replicates(2);
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), 2);
        assert_ne!(scenarios[0].seed, scenarios[1].seed);
        assert_eq!(grid.run(), grid.run());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let doubled = parallel_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            rayon::with_max_threads(4, || {
                parallel_map(&items, |&x| {
                    assert!(x != 42, "scenario 42 exploded");
                    x
                })
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    fn timeline_grid() -> SweepGrid {
        SweepGrid::named("tl")
            .mcm_counts([16])
            .timelines([
                DemandTimeline::shifting_hotspot(2, 400.0, 3, 2, 5),
                DemandTimeline::steady(TrafficPattern::Permutation { demand_gbps: 200.0 }, 4),
            ])
            .realloc_policies([
                ReallocationPolicy::Static,
                ReallocationPolicy::GreedyResteer,
            ])
    }

    #[test]
    fn timeline_axis_expands_timelines_times_policies() {
        let grid = timeline_grid();
        assert_eq!(grid.scenario_count(), 2 * 2);
        let report = grid.run();
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.metric("epochs").unwrap() >= 4.0);
            assert!(row.metric("reconfigurations").unwrap() >= 0.0);
            let sat = row.metric("satisfaction").unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&sat));
        }
        // Patterns axis is ignored in temporal mode.
        let same = timeline_grid().patterns([]).run();
        assert_eq!(same.to_json(), report.to_json());
    }

    #[test]
    fn timeline_policies_share_the_scenario_seed() {
        // The policy axis must not resample the demand: both policies of a
        // timeline see identical epoch matrices, so their rows differ only
        // through the reallocation behaviour.
        let scenarios = timeline_grid().expand();
        assert_eq!(scenarios[0].seed, scenarios[1].seed);
        assert_ne!(scenarios[0].seed, scenarios[2].seed);
        let report = timeline_grid().run();
        assert_eq!(
            report.rows[0].metric("offered_gbps"),
            report.rows[1].metric("offered_gbps")
        );
    }

    #[test]
    fn timeline_runs_are_deterministic_and_parallel_equals_serial() {
        let grid = timeline_grid();
        assert_eq!(grid.run().to_json(), grid.run().to_json());
        assert_eq!(grid.run(), grid.run_serial());
    }

    #[test]
    fn empty_policy_axis_expands_to_nothing_in_temporal_mode() {
        let grid = timeline_grid().realloc_policies([]);
        assert_eq!(grid.scenario_count(), 0);
        assert!(grid.run().rows.is_empty());
    }

    fn flexgrid_grid() -> SweepGrid {
        SweepGrid::named("fg")
            .mcm_counts([16])
            .timelines([
                DemandTimeline::elastic_churn(300.0, 2),
                DemandTimeline::steady(TrafficPattern::Permutation { demand_gbps: 200.0 }, 4),
            ])
            .spectrum_policies([
                SpectrumPolicy::default(),
                SpectrumPolicy {
                    admission: AdmissionPolicy::BestFit,
                    defrag: DefragPolicy::OnBlock,
                },
                SpectrumPolicy {
                    admission: AdmissionPolicy::ExactFit,
                    defrag: DefragPolicy::EveryEpoch,
                },
            ])
    }

    #[test]
    fn flexgrid_axis_expands_timelines_times_spectrum_policies() {
        let grid = flexgrid_grid();
        assert_eq!(grid.scenario_count(), 2 * 3);
        let report = grid.run();
        assert_eq!(report.rows.len(), 6);
        for row in &report.rows {
            assert!(row.metric("epochs").unwrap() >= 4.0);
            let blocking = row.metric("blocking_probability").unwrap();
            assert!((0.0..=1.0).contains(&blocking), "blocking {blocking}");
            let frag = row.metric("fragmentation_index").unwrap();
            assert!((0.0..=1.0).contains(&frag), "frag {frag}");
            assert!(row.metric("slots_in_use").unwrap() >= 0.0);
            assert!(row.metric("defrag_events").unwrap() >= 0.0);
        }
        // The realloc-policy axis is ignored in spectrum mode.
        let same = flexgrid_grid()
            .realloc_policies([ReallocationPolicy::GreedyResteer])
            .run();
        assert_eq!(same.to_json(), report.to_json());
    }

    #[test]
    fn flexgrid_policies_share_the_scenario_seed_with_each_other_and_timelines() {
        // The spectrum-policy axis must not resample the demand: every policy
        // of a timeline sees identical epoch matrices, and the flex-grid
        // layer is graded under the same demand as the wavelength layer.
        let scenarios = flexgrid_grid().expand();
        assert_eq!(scenarios[0].seed, scenarios[1].seed);
        assert_eq!(scenarios[1].seed, scenarios[2].seed);
        assert_ne!(scenarios[0].seed, scenarios[3].seed);
        let timeline_twin = SweepGrid::named("fg")
            .mcm_counts([16])
            .timelines([DemandTimeline::elastic_churn(300.0, 2)])
            .realloc_policies([ReallocationPolicy::Static])
            .expand();
        assert_eq!(scenarios[0].seed, timeline_twin[0].seed);
        let report = flexgrid_grid().run();
        assert_eq!(
            report.rows[0].metric("offered_gbps"),
            report.rows[1].metric("offered_gbps")
        );
    }

    #[test]
    fn flexgrid_runs_are_deterministic_and_parallel_equals_serial() {
        let grid = flexgrid_grid();
        assert_eq!(grid.run().to_json(), grid.run().to_json());
        assert_eq!(grid.run(), grid.run_serial());
    }

    #[test]
    fn empty_spectrum_axis_falls_back_to_realloc_mode() {
        let grid = flexgrid_grid().spectrum_policies([]);
        // With no spectrum policies the timeline axis reverts to the
        // wavelength-layer realloc sweep (default Static policy).
        assert_eq!(grid.scenario_count(), 2);
        let report = grid.run();
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.metric("blocking_probability"), None);
        }
    }

    #[test]
    fn flexgrid_energy_scales_with_the_modulation_ladder() {
        let grid = flexgrid_grid().energy_modes([EnergyMode::UtilizationScaled]);
        assert_eq!(grid.scenario_count(), 2 * 3);
        let report = grid.run();
        assert_eq!(report.energy.len(), report.rows.len());
        for row in &report.rows {
            assert!(row.metric("energy_j").unwrap() > 0.0);
        }
        // The repack policy defragments every epoch after the first, so its
        // reconfiguration energy is charged per defrag event.
        let repack = &report.rows[2];
        assert!(
            (repack.metric("reconfiguration_energy_j").unwrap()
                - repack.metric("defrag_events").unwrap()
                    * EnergyConfig::default().reconfiguration_energy_j)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn energy_axis_multiplies_scenarios_and_fills_the_energy_block() {
        let grid = small_grid().energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
        assert_eq!(grid.scenario_count(), 2 * 2 * 2 * 2);
        let report = grid.run();
        assert_eq!(report.rows.len(), 16);
        assert_eq!(report.energy.len(), 16);
        for (row, (label, e)) in report.rows.iter().zip(&report.energy) {
            assert_eq!(&row.label, label);
            assert_eq!(row.metric("energy_j"), Some(e.total_joules()));
            assert!(e.total_joules() > 0.0);
        }
        assert!(report.summary_metric("total_energy_j").unwrap() > 0.0);
        // The block is serialized, and identically so across runs.
        let json = report.to_json();
        assert!(json.contains("\"energy\":["));
        assert_eq!(json, grid.run_serial().to_json());
    }

    #[test]
    fn energy_modes_share_the_scenario_seed_and_demand() {
        let grid = SweepGrid::named("e")
            .mcm_counts([16])
            .patterns([TrafficPattern::Uniform {
                flows_per_mcm: 4,
                demand_gbps: 300.0,
            }])
            .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].seed, scenarios[1].seed);
        assert_ne!(scenarios[0].label(), scenarios[1].label());
        let report = grid.run();
        assert_eq!(
            report.rows[0].metric("offered_gbps"),
            report.rows[1].metric("offered_gbps")
        );
        // Always-on can never draw less than utilization-scaled.
        assert!(
            report.rows[0].metric("energy_j").unwrap()
                >= report.rows[1].metric("energy_j").unwrap()
        );
    }

    #[test]
    fn no_energy_axis_means_no_energy_metrics_or_block() {
        let report = small_grid().run();
        assert!(report.energy.is_empty());
        assert!(!report.to_json().contains("\"energy\""));
        for row in &report.rows {
            assert_eq!(row.metric("energy_j"), None);
        }
        assert_eq!(report.summary_metric("total_energy_j"), None);
    }

    #[test]
    fn timeline_energy_charges_reconfigurations() {
        let grid = SweepGrid::named("te")
            .mcm_counts([16])
            .timelines([DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5)])
            .realloc_policies([
                ReallocationPolicy::Static,
                ReallocationPolicy::GreedyResteer,
            ])
            .energy_modes([EnergyMode::UtilizationScaled]);
        let report = grid.run();
        assert_eq!(report.rows.len(), 2);
        let fixed = &report.rows[0];
        let greedy = &report.rows[1];
        assert_eq!(fixed.metric("reconfiguration_energy_j"), Some(0.0));
        let greedy_reconf_j = greedy.metric("reconfiguration_energy_j").unwrap();
        assert!(greedy_reconf_j > 0.0);
        assert!(
            (greedy_reconf_j
                - greedy.metric("reconfigurations").unwrap()
                    * EnergyConfig::default().reconfiguration_energy_j)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn wave_selective_beats_awgr_on_direct_bandwidth() {
        // Sanity of the whole pipeline: the switched fabric has ~2304 Gbps
        // direct per pair vs the AWGR's 125-150, so a heavy permutation is
        // direct-only on the switch and needs indirect help on the AWGR.
        let grid = SweepGrid::named("cmp")
            .mcm_counts([32])
            .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
            .patterns([TrafficPattern::Permutation {
                demand_gbps: 1000.0,
            }]);
        let report = grid.run();
        let awgr = &report.rows[0];
        let wave = &report.rows[1];
        assert!(wave.metric("direct_only_fraction").unwrap() >= 1.0 - 1e-9);
        assert!(awgr.metric("indirect_fraction").unwrap() > 0.0);
    }
}
