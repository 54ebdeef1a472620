//! The incremental epoch solver against its exhaustive oracle.
//!
//! `TimelineSimulator::run` (and the arena-reusing `run_in`) delta-updates a
//! persistent generation-stamped wavelength assignment between epochs;
//! `run_exhaustive` rebuilds every epoch's steering state from scratch
//! through the original HashMap path. The determinism contract requires the
//! two to agree *exactly* — same floats, same reconfiguration count, same
//! per-epoch rows — for every policy and every demand schedule. These tests
//! pin that equivalence over all the canned workload timelines and, via
//! proptest, over randomized phase sequences with duplicate-pair and
//! self-directed flows thrown in.
//!
//! `run_shared` adds a steer cache keyed by the identity of a shared epoch
//! list: the tests below hold every policy that shares steers through one
//! arena to the same oracle, check that a change to any solver input
//! misses the cache, and pin a three-policy sweep grid byte-identical with
//! steer sharing on and off.

use std::fs;
use std::sync::Arc;

use photonic_disagg::core::energy::EnergyMode;
use photonic_disagg::core::jobs::{JobRunner, JobSpec};
use photonic_disagg::core::sweep::{StreamConfig, SweepGrid};
use photonic_disagg::fabric::flowsim::{Flow, FlowSimConfig};
use photonic_disagg::fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
use photonic_disagg::fabric::timeline::{
    ReallocationPolicy, TimelineArena, TimelineConfig, TimelineSimulator,
};
use photonic_disagg::workloads::timeline::DemandTimeline;
use photonic_disagg::workloads::TrafficPattern;
use proptest::prelude::*;

fn fabric(mcms: u32) -> RackFabric {
    let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
    cfg.mcm_count = mcms;
    RackFabric::new(cfg)
}

const POLICIES: [ReallocationPolicy; 4] = [
    ReallocationPolicy::Static,
    ReallocationPolicy::GreedyResteer,
    ReallocationPolicy::Hysteresis {
        min_satisfaction: 0.9,
    },
    // Threshold 0 never trips, exercising the stale-assignment reuse path.
    ReallocationPolicy::Hysteresis {
        min_satisfaction: 0.0,
    },
];

/// Run one schedule under one policy through the incremental solver (fresh
/// arena and a deliberately dirty reused arena) and the exhaustive oracle,
/// requiring bit-exact equality.
fn assert_matches_oracle(fabric: &RackFabric, epochs: &[Vec<Flow>], policy: ReallocationPolicy) {
    let sim = TimelineSimulator::new(
        fabric,
        TimelineConfig {
            policy,
            flow: FlowSimConfig::default(),
        },
    );
    let oracle = sim.run_exhaustive(epochs);
    assert_eq!(sim.run(epochs), oracle, "run diverged under {policy:?}");

    let mut arena = TimelineArena::new();
    assert_eq!(
        sim.run_in(&mut arena, epochs),
        oracle,
        "fresh-arena run_in diverged under {policy:?}"
    );
    // The arena now carries the previous run's grant/demand state; a second
    // pass must still match (prepare() has to neutralize stale entries).
    assert_eq!(
        sim.run_in(&mut arena, epochs),
        oracle,
        "dirty-arena run_in diverged under {policy:?}"
    );
}

/// Every canned workload schedule, every policy: the incremental solver is
/// indistinguishable from exhaustive re-solving.
#[test]
fn incremental_solver_matches_oracle_on_canned_schedules() {
    let fabric = fabric(24);
    let schedules = [
        DemandTimeline::steady(
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 600.0,
            },
            4,
        ),
        DemandTimeline::shifting_hotspot(4, 500.0, 3, 2, 5),
        DemandTimeline::hpc_mix(200.0, 2),
    ];
    for schedule in &schedules {
        let epochs = schedule.epoch_matrices(24, 17);
        for policy in POLICIES {
            assert_matches_oracle(&fabric, &epochs, policy);
        }
    }
}

/// Duplicate src/dst pairs and self-directed flows hit the matrix-fold
/// accumulation and sanitize paths; the equivalence must survive both.
#[test]
fn incremental_solver_matches_oracle_with_degenerate_flows() {
    let fabric = fabric(12);
    let mut epochs = DemandTimeline::shifting_hotspot(2, 400.0, 3, 2, 3).epoch_matrices(12, 3);
    for (i, epoch) in epochs.iter_mut().enumerate() {
        epoch.push(Flow::new(0, 9, 75.0));
        epoch.push(Flow::new(0, 9, 25.0 + i as f64));
        epoch.push(Flow::new(3, 3, 50.0)); // Self-flow: sanitized away.
    }
    for policy in POLICIES {
        assert_matches_oracle(&fabric, &epochs, policy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized phase sequences: arbitrary pattern per phase, arbitrary
    /// phase lengths and demands, hot sets that repeat or alternate. The
    /// incremental solver must track the oracle exactly through every
    /// reconfigure/keep decision the sequence induces.
    #[test]
    fn incremental_solver_matches_oracle_on_random_phases(
        seed in 0u64..1_000,
        policy_idx in 0usize..POLICIES.len(),
        n_phases in 1usize..4,
        epochs_per_phase in 1u32..3,
        demand in 50.0f64..2_000.0,
    ) {
        let mcms = 16;
        let fabric = fabric(mcms);
        let mut timeline = DemandTimeline::named("prop");
        for p in 0..n_phases {
            // Pseudo-random but seed-reproducible pattern choice per phase.
            let pick = (seed + 31 * p as u64) % 4;
            let pattern = match pick {
                0 => TrafficPattern::HotSpot {
                    hot_mcms: 1 + (seed % 3) as u32,
                    demand_gbps: demand,
                },
                1 => TrafficPattern::Permutation { demand_gbps: demand },
                2 => TrafficPattern::Uniform { flows_per_mcm: 2, demand_gbps: demand },
                _ => TrafficPattern::NearestNeighbor { neighbors: 2, demand_gbps: demand },
            };
            timeline = timeline.phase(pattern, epochs_per_phase);
        }
        let epochs = timeline.epoch_matrices(mcms, seed);
        assert_matches_oracle(&fabric, &epochs, POLICIES[policy_idx]);
    }
}

/// One arena, one shared epoch list, all three policies on both fabric
/// kinds: every report equals the oracle, and the policies after the
/// first share steers instead of solving them.
#[test]
fn policies_sharing_one_arc_match_the_oracle() {
    let schedules = [
        DemandTimeline::shifting_hotspot(4, 500.0, 3, 2, 5),
        DemandTimeline::hpc_mix(200.0, 2),
        DemandTimeline::elastic_churn(600.0, 2),
    ];
    for kind in [FabricKind::ParallelAwgrs, FabricKind::WaveSelective] {
        let mut cfg = RackFabricConfig::paper_rack(kind);
        cfg.mcm_count = 24;
        let fabric = RackFabric::new(cfg);
        let mut arena = TimelineArena::new();
        for schedule in &schedules {
            let epochs = Arc::new(schedule.epoch_matrices(24, 17));
            let shared_before = arena.steers_shared();
            for policy in &POLICIES[..3] {
                let sim = TimelineSimulator::new(
                    &fabric,
                    TimelineConfig {
                        policy: *policy,
                        flow: FlowSimConfig::default(),
                    },
                );
                let report = sim.run_shared(&mut arena, &epochs);
                assert_eq!(
                    report,
                    sim.run_exhaustive(&epochs),
                    "{kind:?} {} {policy:?}",
                    schedule.spec_label()
                );
                arena.recycle(report);
            }
            // Static's epoch-0 steer is always greedy's.
            assert!(arena.steers_shared() > shared_before, "{kind:?}");
        }
    }
}

/// The same `Arc` under any changed solver input — seed, fabric kind,
/// wavelength rate, hop latency — never hits the cache, and still equals
/// the oracle.
#[test]
fn changed_solver_inputs_never_share_a_steer() {
    let epochs =
        Arc::new(DemandTimeline::shifting_hotspot(4, 500.0, 3, 2, 5).epoch_matrices(24, 17));
    let build = |kind: FabricKind, gbps_scale: f64| {
        let mut cfg = RackFabricConfig::paper_rack(kind);
        cfg.mcm_count = 24;
        cfg.gbps_per_wavelength *= gbps_scale;
        RackFabric::new(cfg)
    };
    let base = FlowSimConfig::default();
    let awgr = build(FabricKind::ParallelAwgrs, 1.0);
    let variants = [
        (
            "seed",
            build(FabricKind::ParallelAwgrs, 1.0),
            FlowSimConfig {
                seed: base.seed.wrapping_add(1),
                ..base
            },
        ),
        ("fabric kind", build(FabricKind::WaveSelective, 1.0), base),
        (
            "gbps_per_wavelength",
            build(FabricKind::ParallelAwgrs, 0.75),
            base,
        ),
        (
            "hop latency",
            build(FabricKind::ParallelAwgrs, 1.0),
            FlowSimConfig {
                indirect_hop_latency_ns: base.indirect_hop_latency_ns * 2.0,
                ..base
            },
        ),
    ];
    for (what, fabric, flow) in &variants {
        let mut arena = TimelineArena::new();
        let greedy = |fabric, flow| {
            TimelineSimulator::new(
                fabric,
                TimelineConfig {
                    flow,
                    policy: ReallocationPolicy::GreedyResteer,
                },
            )
        };
        let warm = greedy(&awgr, base);
        assert_eq!(
            warm.run_shared(&mut arena, &epochs),
            warm.run_exhaustive(&epochs)
        );
        let solved = arena.steers_solved();
        let sim = greedy(fabric, *flow);
        assert_eq!(
            sim.run_shared(&mut arena, &epochs),
            sim.run_exhaustive(&epochs),
            "{what}"
        );
        assert_eq!(arena.steers_shared(), 0, "{what} hit the cache");
        assert_eq!(arena.steers_solved(), 2 * solved, "{what}");
    }
}

/// The timeline grid a steer-sharing sweep runs: three policies over
/// three timelines, both fabric kinds, two energy modes, two replicates.
fn three_policy_grid() -> SweepGrid {
    SweepGrid::named("steer-sharing")
        .mcm_counts([16])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .timelines([
            DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5),
            DemandTimeline::hpc_mix(200.0, 2),
            DemandTimeline::elastic_churn(600.0, 2),
        ])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(2)
}

/// Steer sharing is invisible in the bytes: a three-policy grid is
/// byte-identical with reuse (and so steer sharing) on and off, at 1, 2
/// and 8 threads, and through a suspended-then-resumed job.
#[test]
fn three_policy_grid_is_byte_identical_with_steer_sharing_on_and_off() {
    let grid = three_policy_grid();
    let off = rayon::with_max_threads(1, || {
        grid.run_streaming(&StreamConfig {
            reuse: false,
            ..StreamConfig::default()
        })
    });
    let reference = off.to_json();
    let unshared = off.steering.expect("executor attaches steer counters");
    assert_eq!(unshared.steers_shared, 0);
    for threads in [1, 2, 8] {
        let on = rayon::with_max_threads(threads, || grid.run());
        assert_eq!(on.to_json(), reference, "{threads} threads");
        let steering = on.steering.expect("executor attaches steer counters");
        if threads == 1 {
            // One worker runs every leader — one per energy-mode pair — so
            // the policies of each timeline share its steers.
            assert_eq!(
                steering.steers_solved + steering.steers_shared,
                unshared.steers_solved / 2
            );
            assert!(steering.steers_shared > 0);
        }
    }

    let dir = std::env::temp_dir().join(format!("pd-steer-sharing-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut spec = JobSpec::new(grid.clone());
    spec.rows_per_shard = 7;
    let runner = JobRunner::new(&dir);
    let partial = runner.run_with_limit(&spec, Some(2)).expect("partial run");
    assert!(partial.suspended);
    let steering = partial.report.steering.expect("jobs attach steer counters");
    assert!(steering.steers_solved > 0);
    let resumed = runner.run(&spec).expect("resumed run");
    assert_eq!(resumed.shards_from_cache, 2);
    assert_eq!(resumed.report.to_json(), reference);
    let _ = fs::remove_dir_all(&dir);
}

/// The four policies of [`POLICIES`] plus a threshold of one, which
/// re-steers whenever any demand goes unmet — on an unchanged overloaded
/// matrix, every epoch.
const REPEAT_POLICIES: [ReallocationPolicy; 5] = [
    POLICIES[0],
    POLICIES[1],
    POLICIES[2],
    POLICIES[3],
    ReallocationPolicy::Hysteresis {
        min_satisfaction: 1.0,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Repeated epochs, the case the incremental solver grades with the
    /// previous epoch's result while no steer intervenes. Every sequence
    /// repeats an overloaded incast three times (`H, H, H`: unmet demand,
    /// so a threshold of one re-steers on the unchanged matrix) and a
    /// lighter matrix twice, with duplicate pairs in each. All five
    /// policies run through one arena (`run_in`, so every run after the
    /// first starts dirty) and then through `run_shared` over one `Arc`.
    #[test]
    fn repeated_epochs_match_the_oracle_through_a_dirty_arena(
        seed in 0u64..1_000,
        demand in 300.0f64..2_000.0,
        prefix in 0u32..4,
        suffix in 0u32..4,
        picks in 0u64..6_561,
    ) {
        let mcms = 16;
        let fabric = fabric(mcms);
        let with_duplicates = |mut flows: Vec<Flow>| {
            flows.push(Flow::new(0, 9, 75.0));
            flows.push(Flow::new(0, 9, 75.0));
            flows.push(Flow::new(3, 3, 50.0));
            flows
        };
        let mut incast = TrafficPattern::HotSpot {
            hot_mcms: 1 + (seed % 2) as u32,
            demand_gbps: demand,
        }
        .flows(mcms, seed);
        incast.extend(
            TrafficPattern::Uniform { flows_per_mcm: 2, demand_gbps: demand / 4.0 }.flows(mcms, seed),
        );
        let matrices = [
            with_duplicates(incast),
            with_duplicates(TrafficPattern::Permutation { demand_gbps: demand / 4.0 }.flows(mcms, seed)),
            with_duplicates(
                TrafficPattern::NearestNeighbor { neighbors: 2, demand_gbps: demand }.flows(mcms, seed),
            ),
        ];
        let (h, p, n) = (0, 1, 2);
        // The matrices before and after the fixed run: base-3 digits of
        // `picks` (3^8 = 6561), up to four each.
        let digit = |k: u32| (picks / 3u64.pow(k) % 3) as usize;
        let mut order: Vec<usize> = (0..prefix).map(digit).collect();
        order.extend([h, h, h, p, p, n, h, h]);
        order.extend((4..4 + suffix).map(digit));
        let epochs: Vec<Vec<Flow>> = order.iter().map(|&m| matrices[m].clone()).collect();

        let mut arena = TimelineArena::new();
        for shared in [false, true] {
            let arc = Arc::new(epochs.clone());
            for policy in REPEAT_POLICIES {
                let sim = TimelineSimulator::new(
                    &fabric,
                    TimelineConfig {
                        policy,
                        flow: FlowSimConfig::default(),
                    },
                );
                let oracle = sim.run_exhaustive(&epochs);
                let report = if shared {
                    sim.run_shared(&mut arena, &arc)
                } else {
                    sim.run_in(&mut arena, &epochs)
                };
                prop_assert!(
                    report == oracle,
                    "{policy:?} (shared {shared}) diverged over {order:?}: {report:?} vs oracle {oracle:?}"
                );
                arena.recycle(report);
            }
        }
        // Static and greedy reuse every fixed repeat, in both passes.
        prop_assert!(arena.epochs_reused() >= 2 * 2 * 4, "{}", arena.epochs_reused());
    }
}

/// The overloaded incast of the property above leaves demand unmet after a
/// steer, so the threshold-one policy re-steers on each repeat of it; and a
/// steer of the repeat changes the grade, so grading it with the previous
/// epoch's result would be wrong.
#[test]
fn a_steer_on_an_unchanged_matrix_changes_its_grade() {
    let fabric = fabric(16);
    let mut incast = TrafficPattern::HotSpot {
        hot_mcms: 1,
        demand_gbps: 1_500.0,
    }
    .flows(16, 7);
    incast.extend(
        TrafficPattern::Uniform {
            flows_per_mcm: 2,
            demand_gbps: 375.0,
        }
        .flows(16, 7),
    );
    let epochs = vec![incast; 3];
    let sim = TimelineSimulator::new(
        &fabric,
        TimelineConfig {
            policy: REPEAT_POLICIES[4],
            flow: FlowSimConfig::default(),
        },
    );
    let oracle = sim.run_exhaustive(&epochs);
    assert_eq!(oracle.reconfigurations, 2);
    let grades: Vec<(u64, u64)> = oracle
        .epochs
        .iter()
        .map(|e| (e.satisfied_gbps.to_bits(), e.mean_latency_ns.to_bits()))
        .collect();
    assert!(
        grades[1] != grades[0] || grades[2] != grades[1],
        "{grades:?}"
    );
    let mut arena = TimelineArena::new();
    assert_eq!(sim.run_in(&mut arena, &epochs), oracle);
    assert_eq!(arena.epochs_reused(), 0);
}

/// The benchmark's temporal timelines (three epochs per phase) on the
/// paper's rack: static and greedy grade repeated epochs with the previous
/// result, and the reports still equal the oracle.
#[test]
fn benchmark_timelines_reuse_epochs() {
    let timelines = [
        DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 5),
        DemandTimeline::hpc_mix(200.0, 3),
        DemandTimeline::elastic_churn(600.0, 3),
    ];
    let fabric = RackFabric::paper_awgr();
    for policy in [
        ReallocationPolicy::Static,
        ReallocationPolicy::GreedyResteer,
    ] {
        let sim = TimelineSimulator::new(
            &fabric,
            TimelineConfig {
                policy,
                flow: FlowSimConfig::default(),
            },
        );
        let mut arena = TimelineArena::new();
        for timeline in &timelines {
            let epochs = timeline.epoch_matrices(350, 1);
            assert_eq!(sim.run_in(&mut arena, &epochs), sim.run_exhaustive(&epochs));
        }
        assert!(arena.epochs_reused() > 0, "{policy:?}: no epoch reused");
    }
}

/// SplitMix64: the test's seeded choice stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One arena through a seeded sequence of runs that changes rack size
/// (8, 16, 64) and comes back, switches policy, and alternates `run_in`
/// with `run_shared` over a held or a fresh `Arc`: every report equals
/// the oracle. Each step runs one to three policies back to back over one
/// epoch list, as a sweep does, so shared steers are restored too. The
/// arena keeps its pair slots across runs of one rack size, so a slot left
/// over from an earlier run points at whatever cell now sits there; the
/// membership check must refuse it.
#[test]
fn one_arena_across_rack_sizes_policies_and_entry_points_matches_the_oracle() {
    let sizes = [8u32, 16, 64];
    let fabrics: Vec<RackFabric> = sizes.iter().map(|&mcms| fabric(mcms)).collect();
    let schedules = [
        DemandTimeline::shifting_hotspot(2, 500.0, 3, 2, 3),
        DemandTimeline::hpc_mix(200.0, 2),
        DemandTimeline::elastic_churn(600.0, 2),
        DemandTimeline::named("mixed")
            .phase(TrafficPattern::Permutation { demand_gbps: 700.0 }, 2)
            .phase(
                TrafficPattern::Uniform {
                    flows_per_mcm: 3,
                    demand_gbps: 300.0,
                },
                2,
            ),
    ];
    let mut state = 0x00C0_FFEE;
    let mut arena = TimelineArena::new();
    // The `Arc` `run_shared` reuses, per rack size.
    let mut held: Vec<Option<Arc<Vec<Vec<Flow>>>>> = vec![None; sizes.len()];
    let mut visits = Vec::new();
    let mut entry_points = [0usize; 3];
    let mut policies = [0usize; 3];
    while visits.len() < 48 {
        let size = next(&mut state) as usize % sizes.len();
        let entry = next(&mut state) as usize % 3;
        let mcms = sizes[size];
        let mut fresh = || {
            let schedule = &schedules[next(&mut state) as usize % schedules.len()];
            Arc::new(schedule.epoch_matrices(mcms, next(&mut state) % 1_000))
        };
        let epochs = match entry {
            // `run_shared` over the `Arc` this size last used.
            2 => held[size].get_or_insert_with(fresh).clone(),
            // `run_in`, or `run_shared` over a fresh `Arc`.
            _ => fresh(),
        };
        let first = next(&mut state) as usize;
        for k in 0..1 + next(&mut state) as usize % 3 {
            let policy = (first + k) % 3;
            let sim = TimelineSimulator::new(
                &fabrics[size],
                TimelineConfig {
                    policy: POLICIES[policy],
                    flow: FlowSimConfig::default(),
                },
            );
            let report = match entry {
                0 => sim.run_in(&mut arena, &epochs),
                _ => sim.run_shared(&mut arena, &epochs),
            };
            assert_eq!(
                report,
                sim.run_exhaustive(&epochs),
                "run {}: {mcms} MCMs, {:?}, entry point {entry}",
                visits.len(),
                POLICIES[policy]
            );
            arena.recycle(report);
            visits.push(mcms);
            entry_points[entry] += 1;
            policies[policy] += 1;
        }
    }
    // The seed must give the sequence its shape: every size, policy and
    // entry point, a return to a size after a different one, and steers
    // restored from the cache.
    assert!(sizes.iter().all(|size| visits.contains(size)), "{visits:?}");
    assert!(
        visits.iter().enumerate().any(|(i, a)| visits[..i]
            .iter()
            .rev()
            .skip_while(|b| *b == a)
            .any(|b| b == a)),
        "{visits:?}"
    );
    assert!(entry_points.iter().all(|&n| n > 0), "{entry_points:?}");
    assert!(policies.iter().all(|&n| n > 0), "{policies:?}");
    assert!(arena.steers_shared() > 0);
}
