//! The incremental flex-grid spectrum solver against its exhaustive oracle.
//!
//! `FlexGridSimulator::run` (and the arena-reusing `run_in`) keeps a
//! word-packed per-fiber frequency-slot occupancy board alive between
//! epochs, releasing and re-admitting only the lightpaths whose flows
//! changed; `run_exhaustive` rebuilds every epoch's board from scratch
//! through an independent HashMap-backed occupancy path with per-slot scans.
//! The determinism contract requires the two to agree *exactly* — same
//! floats, same blocking and fragmentation metrics, same per-epoch rows —
//! for every admission x defragmentation policy and every demand schedule.
//! These tests pin that equivalence over the canned workload timelines
//! (including the spectrum-churn schedule built for this layer) and, via
//! proptest, over randomized phase sequences with duplicate-pair and
//! self-directed flows thrown in, then check the sweep axis end to end
//! through the umbrella crate. The 32-MCM wave-selective rack (1024 slots,
//! sixteen words per link) runs alongside the AWGR racks so free runs and
//! blocks cross word boundaries, and one schedule is built to leave holes
//! so the fragmentation path is exercised at that scale.

use photonic_disagg::core::sweep::SweepGrid;
use photonic_disagg::fabric::flexgrid::{
    link_slot_budget, AdmissionPolicy, DefragPolicy, FlexGridArena, FlexGridConfig, FlexGridReport,
    FlexGridSimulator, SpectrumPolicy,
};
use photonic_disagg::fabric::flowsim::Flow;
use photonic_disagg::fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
use photonic_disagg::workloads::timeline::DemandTimeline;
use photonic_disagg::workloads::TrafficPattern;
use proptest::prelude::*;

fn fabric(mcms: u32) -> RackFabric {
    fabric_of(FabricKind::ParallelAwgrs, mcms)
}

fn fabric_of(kind: FabricKind, mcms: u32) -> RackFabric {
    let mut cfg = RackFabricConfig::paper_rack(kind);
    cfg.mcm_count = mcms;
    RackFabric::new(cfg)
}

/// The 32-MCM wave-selective rack: 1024 slots per link, sixteen occupancy
/// words, so blocks and free runs cross word boundaries (the AWGR budgets
/// fit in one partial word).
fn wss32() -> RackFabric {
    let fabric = fabric_of(FabricKind::WaveSelective, 32);
    assert_eq!(link_slot_budget(&fabric), 1024);
    fabric
}

/// The full admission x defragmentation policy product.
fn all_policies() -> Vec<SpectrumPolicy> {
    let mut policies = Vec::new();
    for admission in [
        AdmissionPolicy::FirstFit,
        AdmissionPolicy::BestFit,
        AdmissionPolicy::ExactFit,
    ] {
        for defrag in [
            DefragPolicy::Never,
            DefragPolicy::OnBlock,
            DefragPolicy::EveryEpoch,
        ] {
            policies.push(SpectrumPolicy { admission, defrag });
        }
    }
    policies
}

/// Run one schedule under one policy through the incremental solver (fresh
/// arena and a deliberately dirty reused arena) and the exhaustive oracle,
/// requiring bit-exact equality.
fn assert_matches_oracle(
    fabric: &RackFabric,
    epochs: &[Vec<Flow>],
    policy: SpectrumPolicy,
) -> FlexGridReport {
    let sim = FlexGridSimulator::new(
        fabric,
        FlexGridConfig {
            policy,
            ..FlexGridConfig::default()
        },
    );
    let oracle = sim.run_exhaustive(epochs);
    assert_eq!(sim.run(epochs), oracle, "run diverged under {policy:?}");

    let mut arena = FlexGridArena::new();
    assert_eq!(
        sim.run_in(&mut arena, epochs),
        oracle,
        "fresh-arena run_in diverged under {policy:?}"
    );
    // The arena now carries the previous run's occupancy board and carried
    // lightpaths; a second pass must still match (prepare() has to
    // neutralize every stale slot).
    assert_eq!(
        sim.run_in(&mut arena, epochs),
        oracle,
        "dirty-arena run_in diverged under {policy:?}"
    );
    oracle
}

/// Every canned workload schedule, every spectrum policy: the incremental
/// solver is indistinguishable from exhaustive re-solving.
#[test]
fn incremental_spectrum_solver_matches_oracle_on_canned_schedules() {
    let fabric = fabric(24);
    let schedules = [
        DemandTimeline::elastic_churn(600.0, 2),
        DemandTimeline::shifting_hotspot(4, 500.0, 3, 2, 5),
        DemandTimeline::steady(
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 600.0,
            },
            4,
        ),
    ];
    let wss = wss32();
    for schedule in &schedules {
        let epochs = schedule.epoch_matrices(24, 17);
        for policy in all_policies() {
            assert_matches_oracle(&fabric, &epochs, policy);
        }
        let epochs = schedule.epoch_matrices(32, 17);
        for policy in all_policies() {
            assert_matches_oracle(&wss, &epochs, policy);
        }
    }
}

/// A schedule built to fragment the 1024-slot wave-selective spectrum:
/// sixteen lightpaths of distinct sizes per link (3 to 141 slots, so some
/// cover whole words, and the last few overflow the link onto detours or
/// block), then every other one departs while its neighbours stay in place,
/// then new demands of other sizes land in the holes. Under
/// `DefragPolicy::Never` the holes persist, so the fragmentation path runs
/// across many words and must read > 0.
#[test]
fn incremental_spectrum_solver_matches_oracle_on_fragmented_wss_spectrum() {
    let fabric = wss32();
    let pairs = [(0u32, 1u32), (1, 2), (5, 9), (9, 5)];
    // 16QAM direct: 50 Gbps per data slot, plus one guard slot.
    let demand = |k: u32| 50.0 * (2 + (k * 53) % 151) as f64;
    let full: Vec<Flow> = pairs
        .iter()
        .flat_map(|&(s, d)| (0..16).map(move |k| Flow::new(s, d, demand(k))))
        .collect();
    let kept: Vec<Flow> = pairs
        .iter()
        .flat_map(|&(s, d)| (0..16).step_by(2).map(move |k| Flow::new(s, d, demand(k))))
        .collect();
    let mut refill = kept.clone();
    for &(s, d) in &pairs {
        for k in 0..10 {
            refill.push(Flow::new(s, d, 50.0 * (1 + 13 * k) as f64 - 5.0));
        }
    }
    let epochs = vec![full, kept.clone(), refill, kept];
    for policy in all_policies() {
        let report = assert_matches_oracle(&fabric, &epochs, policy);
        if policy.defrag == DefragPolicy::Never {
            assert!(
                report.mean_fragmentation_index > 0.0,
                "{}: no fragmentation",
                policy.label()
            );
        }
    }
}

/// Duplicate src/dst pairs, self-directed flows, and out-of-range endpoints
/// hit the sanitize and blocking paths; the equivalence must survive all of
/// them.
#[test]
fn incremental_spectrum_solver_matches_oracle_with_degenerate_flows() {
    let fabric = fabric(12);
    let mut epochs = DemandTimeline::shifting_hotspot(2, 400.0, 3, 2, 3).epoch_matrices(12, 3);
    for (i, epoch) in epochs.iter_mut().enumerate() {
        epoch.push(Flow::new(0, 9, 75.0));
        epoch.push(Flow::new(0, 9, 25.0 + i as f64));
        epoch.push(Flow::new(3, 3, 50.0)); // Self-flow: carried locally.
        epoch.push(Flow::new(0, 40, 100.0)); // Endpoint past the rack: blocked.
    }
    for policy in all_policies() {
        assert_matches_oracle(&fabric, &epochs, policy);
    }
}

/// The sweep-level spectrum axis through the umbrella crate: deterministic
/// bytes, and the parallel executor agrees with the serial one.
#[test]
fn flexgrid_sweep_axis_is_deterministic_through_the_umbrella() {
    let grid = SweepGrid::named("it-fg")
        .mcm_counts([16])
        .timelines([DemandTimeline::elastic_churn(600.0, 2)])
        .spectrum_policies([
            SpectrumPolicy::default(),
            SpectrumPolicy {
                admission: AdmissionPolicy::BestFit,
                defrag: DefragPolicy::OnBlock,
            },
        ]);
    let report = grid.run();
    assert_eq!(report.rows.len(), 2);
    for row in &report.rows {
        assert!(row.metric("blocking_probability").is_some());
        assert!(row.metric("fragmentation_index").is_some());
    }
    assert_eq!(report.to_json(), grid.run().to_json());
    assert_eq!(report, grid.run_serial());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized phase sequences: arbitrary pattern per phase, arbitrary
    /// phase lengths and demands, hot sets that repeat or alternate. The
    /// incremental board must track the oracle exactly through every
    /// release/re-admit/defragment decision the sequence induces.
    #[test]
    fn incremental_spectrum_solver_matches_oracle_on_random_phases(
        seed in 0u64..1_000,
        policy_idx in 0usize..9,
        n_phases in 1usize..4,
        epochs_per_phase in 1u32..3,
        demand in 50.0f64..2_000.0,
        fabric_pick in 0u32..2,
    ) {
        let wss = fabric_pick == 1;
        let mcms = if wss { 32 } else { 16 };
        let fabric = if wss { wss32() } else { fabric(mcms) };
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
        assert_matches_oracle(&fabric, &epochs, all_policies()[policy_idx]);
    }
}

/// `copies` duplicates of one `(0, 1, demand)` flow — more than the direct
/// link holds once `copies` passes a handful, so the later copies ride
/// detours at another hop count or block — over a background of
/// `seed`-placed flows.
fn duplicate_heavy(mcms: u32, copies: u32, demand: f64, seed: u64) -> Vec<Flow> {
    let mut flows = vec![Flow::new(0, 1, demand); copies as usize];
    for i in 2..mcms {
        let dst = (i as u64 * 7 + seed) % u64::from(mcms);
        flows.push(Flow::new(i, dst as u32, 100.0 + (seed % 5) as f64 * 50.0));
    }
    flows.push(Flow::new(3, 3, 50.0));
    flows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Repeated epochs, the case `run_in` reuses instead of solving, under
    /// all nine policies through one arena, so every run after the first
    /// starts on a dirty one. Every sequence repeats an
    /// epoch that blocks (`B, B`), repeats one that blocks nothing
    /// (`A, A`), and drops duplicate `(src, dst, demand)` flows whose
    /// lightpaths differ in hop count (`C` then `A`: which lightpaths
    /// survive depends on the claim keeping the first ones).
    #[test]
    fn repeated_epochs_match_the_oracle_through_a_dirty_arena(
        seed in 0u64..1_000,
        copies in 1u32..5,
        demand in 150.0f64..450.0,
        prefix in 0u32..4,
        suffix in 0u32..4,
        picks in 0u64..6_561,
        mcms in 10u32..17,
    ) {
        // The AWGR racks: the oracle's per-slot scans keep this property to
        // small slot budgets.
        let fabric = fabric(mcms);
        let matrices = [
            duplicate_heavy(mcms, copies, demand, seed),
            duplicate_heavy(mcms, 24, demand, seed),
            duplicate_heavy(mcms, copies + 2, demand, seed),
        ];
        let (a, b, c) = (0, 1, 2);
        // The matrices before and after the fixed run: base-3 digits of
        // `picks` (3^8 = 6561), up to four each.
        let digit = |k: u32| (picks / 3u64.pow(k) % 3) as usize;
        let mut order: Vec<usize> = (0..prefix).map(digit).collect();
        order.extend([b, b, a, a, c, a, c, c]);
        order.extend((4..4 + suffix).map(digit));
        let epochs: Vec<Vec<Flow>> = order.iter().map(|&m| matrices[m].clone()).collect();

        let mut arena = FlexGridArena::new();
        for policy in all_policies() {
            let sim = FlexGridSimulator::new(
                &fabric,
                FlexGridConfig {
                    policy,
                    ..FlexGridConfig::default()
                },
            );
            let oracle = sim.run_exhaustive(&epochs);
            let first_b = order.iter().position(|&m| m == b).unwrap();
            prop_assert!(oracle.epochs[first_b].blocked > 0, "{}: B blocks nothing", policy.label());
            let report = sim.run_in(&mut arena, &epochs);
            prop_assert!(
                report == oracle,
                "{} diverged over {:?}: {:?} vs oracle {:?}",
                policy.label(),
                order,
                report,
                oracle
            );
        }
        // Each of the three repacking policies reuses at least the three
        // fixed repeats.
        prop_assert!(arena.epochs_reused() >= 3 * 3, "{}", arena.epochs_reused());
    }
}

/// Twenty-four duplicates block, and a few are split across hop counts,
/// so the property above exercises what it claims to.
#[test]
fn duplicate_heavy_matrices_block_and_split_hop_counts() {
    for mcms in [10, 16] {
        let fabric = fabric(mcms);
        let sim = FlexGridSimulator::new(&fabric, FlexGridConfig::default());
        for demand in [150.0, 449.0] {
            let blocking = sim.run(&[duplicate_heavy(mcms, 24, demand, 5)]);
            assert!(blocking.blocked > 0, "{mcms} MCMs at {demand}");
        }
        let split = sim.run(&[duplicate_heavy(mcms, 4, 300.0, 5)]);
        let e = split.epochs[0];
        assert!(
            e.carried_direct_gbps > 0.0 && e.carried_indirect_gbps > 0.0,
            "{mcms} MCMs: {e:?}"
        );
    }
}

/// The benchmark's temporal timelines (three epochs per phase) at its
/// flex-grid rack size: every policy reuses some repeated epoch, and the
/// reports still equal the oracle.
#[test]
fn benchmark_timelines_reuse_epochs() {
    let timelines = [
        DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 5),
        DemandTimeline::hpc_mix(200.0, 3),
        DemandTimeline::elastic_churn(600.0, 3),
    ];
    for kind in [FabricKind::ParallelAwgrs, FabricKind::WaveSelective] {
        let fabric = fabric_of(kind, 32);
        for policy in ["firstfit", "bestfit+defrag", "exactfit+repack"] {
            let policy = SpectrumPolicy::parse(policy).unwrap();
            let sim = FlexGridSimulator::new(
                &fabric,
                FlexGridConfig {
                    policy,
                    ..FlexGridConfig::default()
                },
            );
            let mut arena = FlexGridArena::new();
            for timeline in &timelines {
                let epochs = timeline.epoch_matrices(32, 1);
                assert_eq!(sim.run_in(&mut arena, &epochs), sim.run_exhaustive(&epochs));
            }
            assert!(
                arena.epochs_reused() > 0,
                "{kind:?} {}: no epoch reused",
                policy.label()
            );
        }
    }
}
