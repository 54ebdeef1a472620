//! Property-based integration tests on cross-crate invariants: the AWGR
//! rack's direct-wavelength guarantee at arbitrary sizes, conservation of wavelength
//! capacity in the flow simulator, monotonicity of the CPU and GPU timing
//! models in the added latency, monotonicity and boundedness of
//! utilization-scaled energy in the offered load, MCM packing preserving
//! escape bandwidth, and the flex-grid spectrum allocator's structural
//! invariants (no double-booked slots, contiguous guarded blocks, monotone
//! carried bandwidth, release/re-admit round trips).

use std::collections::HashMap;

use photonic_disagg::core::energy::EnergyMode;
use photonic_disagg::core::sample::{ClusterPlan, SampleConfig};
use photonic_disagg::core::sweep::SweepGrid;
use photonic_disagg::cpusim::{CoreKind, CpuConfig, Simulator};
use photonic_disagg::fabric::flexgrid::{
    AdmissionPolicy, FlexGridConfig, Lightpath, SpectrumAllocator, SpectrumPolicy,
};
use photonic_disagg::fabric::flowsim::{
    Flow, FlowArena, FlowSimConfig, FlowSimReport, FlowSimulator,
};
use photonic_disagg::fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
use photonic_disagg::fabric::timeline::{ReallocationPolicy, TimelineConfig, TimelineSimulator};
use photonic_disagg::gpusim::{GpuConfig, GpuTimingModel};
use photonic_disagg::photonics::units::Bandwidth;
use photonic_disagg::rack::chips::{ChipKind, ChipSpec};
use photonic_disagg::rack::mcm::McmPacking;
use photonic_disagg::workloads::gpu::gpu_applications;
use photonic_disagg::workloads::patterns::{AccessPattern, PatternParams};
use photonic_disagg::workloads::TrafficPattern;
use proptest::prelude::*;

/// The ordered rack links a lightpath occupies.
fn lightpath_links(lp: &Lightpath) -> Vec<(u32, u32)> {
    match lp.via {
        Some(m) => vec![(lp.src, m), (m, lp.dst)],
        None => vec![(lp.src, lp.dst)],
    }
}

/// Structural soundness of a spectrum board: every active lightpath holds an
/// in-bounds contiguous block with its trailing guardband, no (link, slot)
/// is booked twice, the occupancy bitmap is exactly the union of the active
/// blocks, and data regions sharing a link are guardband-separated.
fn assert_spectrum_board_sound(alloc: &SpectrumAllocator, guard_slots: u32) {
    let slots = alloc.slots_per_link();
    let mut booked: HashMap<(u32, u32), Vec<Option<usize>>> = HashMap::new();
    for (i, lp) in alloc.active_lightpaths().iter().enumerate() {
        assert_eq!(lp.slot_count, lp.data_slots + guard_slots);
        assert!(lp.data_slots >= 1);
        assert!(lp.first_slot + lp.slot_count <= slots);
        for link in lightpath_links(lp) {
            let board = booked
                .entry(link)
                .or_insert_with(|| vec![None; slots as usize]);
            for s in lp.first_slot..lp.first_slot + lp.slot_count {
                assert!(
                    board[s as usize].is_none(),
                    "slot {s} on link {link:?} booked by lightpaths {:?} and {i}",
                    board[s as usize]
                );
                board[s as usize] = Some(i);
            }
        }
    }
    let active = alloc.active_lightpaths();
    for (link, board) in &booked {
        let expect: Vec<u32> = (0..slots)
            .filter(|&s| board[s as usize].is_some())
            .collect();
        assert_eq!(alloc.occupied_slots(link.0, link.1), expect);
        // Trailing guardbands keep the data regions of distinct lightpaths
        // at least `guard_slots` apart on every shared link.
        let mut data: Vec<(u32, u32)> = active
            .iter()
            .filter(|lp| lightpath_links(lp).contains(link))
            .map(|lp| (lp.first_slot, lp.first_slot + lp.data_slots))
            .collect();
        data.sort_unstable();
        for pair in data.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1 + guard_slots,
                "data blocks {pair:?} closer than the {guard_slots}-slot guard"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any rack size keeps at least the five-wavelength AWGR guarantee and
    /// at least one shared switch for the wave-selective fabric.
    #[test]
    fn fabric_connectivity_holds_for_any_rack_size(mcms in 8u32..200) {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = mcms;
        let awgr = RackFabric::new(cfg).report();
        prop_assert!(awgr.min_direct_wavelengths >= 5);

        let mut cfg = RackFabricConfig::paper_rack(FabricKind::WaveSelective);
        cfg.mcm_count = mcms;
        let wss = RackFabric::new(cfg).report();
        prop_assert!(wss.min_direct_wavelengths >= 256);
    }

    /// The flow simulator never reports more satisfied bandwidth than was
    /// offered, and per-flow allocations never exceed their demand.
    #[test]
    fn flow_simulator_conserves_demand(
        seed in 0u64..1_000,
        n_flows in 1usize..40,
        demand in 1.0f64..4_000.0,
    ) {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = 32;
        let fabric = RackFabric::new(cfg);
        let flows: Vec<Flow> = (0..n_flows)
            .map(|i| {
                let src = (seed as u32 + i as u32) % 32;
                let dst = (seed as u32 + 3 * i as u32 + 1) % 32;
                Flow::new(src, dst, demand)
            })
            .collect();
        let report = FlowSimulator::new(&fabric, FlowSimConfig { seed, ..Default::default() }).run(&flows);
        prop_assert!(report.satisfied_gbps <= report.offered_gbps + 1e-6);
        prop_assert!(report.satisfaction() >= 0.0 && report.satisfaction() <= 1.0 + 1e-9);
        for a in &report.allocations {
            prop_assert!(a.satisfied_gbps() <= a.flow.demand_gbps + 1e-6);
            prop_assert!(a.satisfaction() >= 0.0 && a.satisfaction() <= 1.0);
        }
    }

    /// A flow solve that shuffled no candidate list never read its seed:
    /// rerunning it under another seed is bit-identical. The sweep
    /// executor's seed-blind replay rests on this. The arena path `run_in`
    /// reports the same counter as the oracle `run`.
    #[test]
    fn unshuffled_flow_solves_ignore_the_seed(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        wave in 0u8..2,
        mcms in 2u32..48,
        n_flows in 0u32..60,
        offset in 0u32..1_000,
        demand in 1.0f64..400.0,
    ) {
        let kind = if wave == 1 { FabricKind::WaveSelective } else { FabricKind::ParallelAwgrs };
        let mut cfg = RackFabricConfig::paper_rack(kind);
        cfg.mcm_count = mcms;
        let fabric = RackFabric::new(cfg);
        // Repeated pairs and self-flows included; demands vary per flow.
        let flows: Vec<Flow> = (0..n_flows)
            .map(|i| {
                let src = (offset + i) % mcms;
                let dst = (offset + 3 * i + 1) % mcms;
                Flow::new(src, dst, demand * f64::from(1 + i % 4))
            })
            .collect();
        let sim = |seed| FlowSimulator::new(&fabric, FlowSimConfig { seed, ..Default::default() });
        let a = sim(seed_a).run(&flows);
        let mut arena = FlowArena::new();
        prop_assert_eq!(sim(seed_a).run_in(&mut arena, &flows), a.clone());
        if a.shuffled_flows == 0 {
            let b = sim(seed_b).run(&flows);
            prop_assert_eq!(format!("{b:?}"), format!("{a:?}"));
        }
    }

    /// The arena path (identity-copy candidates, a lazy forward
    /// Fisher–Yates over per-flow streams, division-free pair capacities)
    /// equals the oracle `run` on every
    /// fabric kind, under patterns that force indirect routing, with one
    /// arena reused across kinds, rack sizes and seeds; so does
    /// `run_totals_in` on that same arena, less the per-flow records. The
    /// reuse crosses every board reset: the sparse per-pair clear, the
    /// dense wipe and the resize to another rack.
    #[test]
    fn arena_solves_equal_the_oracle_on_every_fabric(
        mcms in 3u32..=96,
        other_mcms in 3u32..=96,
        seed in 0u64..u64::MAX,
        family in 0u8..4,
        hot in 1u32..6,
        demand in 200.0f64..60_000.0,
    ) {
        let pattern = match family {
            0 => TrafficPattern::Permutation { demand_gbps: demand },
            1 => TrafficPattern::HotSpot { hot_mcms: hot, demand_gbps: demand },
            2 => TrafficPattern::Uniform { flows_per_mcm: hot, demand_gbps: demand },
            _ => TrafficPattern::AllToAll { demand_gbps: demand / 8.0 },
        };
        let mut arena = FlowArena::new();
        for n in [mcms, other_mcms, mcms] {
            for kind in [FabricKind::ParallelAwgrs, FabricKind::WaveSelective, FabricKind::Spatial] {
                let mut cfg = RackFabricConfig::paper_rack(kind);
                cfg.mcm_count = n;
                let fabric = RackFabric::new(cfg);
                let flows = pattern.flows(n, seed);
                let sim = FlowSimulator::new(&fabric, FlowSimConfig { seed, ..Default::default() });
                let oracle = sim.run(&flows);
                let fast = sim.run_in(&mut arena, &flows);
                prop_assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
                arena.recycle(fast);
                let totals = sim.run_totals_in(&mut arena, &flows);
                let oracle = FlowSimReport { allocations: Vec::new(), ..oracle };
                prop_assert_eq!(format!("{totals:?}"), format!("{oracle:?}"));
            }
        }
    }

    /// Per-fiber (aggregate wavelength) capacity conservation: the fabric
    /// can never deliver more inter-MCM bandwidth than the sum of its
    /// direct per-pair wavelength capacity, whatever the demand — indirect
    /// routing moves capacity, it cannot mint it.
    #[test]
    fn flow_simulator_conserves_fabric_capacity(
        seed in 0u64..1_000,
        mcms in 4u32..24,
        demand in 100.0f64..20_000.0,
    ) {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = mcms;
        let fabric = RackFabric::new(cfg);
        let flows: Vec<Flow> = (0..mcms)
            .flat_map(|a| (0..mcms).filter(move |&b| b != a).map(move |b| Flow::new(a, b, demand)))
            .collect();
        let report = FlowSimulator::new(&fabric, FlowSimConfig { seed, ..Default::default() }).run(&flows);
        let mut aggregate = 0.0;
        for a in 0..mcms {
            for b in 0..mcms {
                if a != b {
                    aggregate += fabric.direct_bandwidth(a, b).gbps();
                }
            }
        }
        prop_assert!(
            report.satisfied_gbps <= aggregate + 1e-6,
            "satisfied {} exceeds aggregate capacity {}",
            report.satisfied_gbps,
            aggregate
        );
    }

    /// Timeline invariants under every policy: per-epoch satisfied never
    /// exceeds offered, satisfactions stay in [0, 1], the aggregate equals
    /// the offered-weighted mean of the per-epoch results, and the
    /// reconfiguration count is bounded by the epochs after the first.
    #[test]
    fn timeline_simulator_invariants(
        seed in 0u64..500,
        policy_idx in 0usize..3,
        n_epochs in 1usize..6,
        demand in 50.0f64..3_000.0,
    ) {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = 16;
        let fabric = RackFabric::new(cfg);
        let policy = [
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis { min_satisfaction: 0.85 },
        ][policy_idx];
        // A hot spot that hops around the rack pseudo-randomly per epoch.
        let epochs: Vec<Vec<Flow>> = (0..n_epochs)
            .map(|e| {
                let hot = ((seed + 7 * e as u64) % 16) as u32;
                (0..16).filter(|&s| s != hot).map(|s| Flow::new(s, hot, demand)).collect()
            })
            .collect();
        let report = TimelineSimulator::new(
            &fabric,
            TimelineConfig { policy, flow: FlowSimConfig { seed, ..Default::default() } },
        )
        .run(&epochs);

        let mut offered = 0.0;
        let mut satisfied = 0.0;
        for e in &report.epochs {
            prop_assert!(e.satisfied_gbps <= e.offered_gbps + 1e-6);
            prop_assert!(e.satisfaction() >= 0.0 && e.satisfaction() <= 1.0 + 1e-9);
            offered += e.offered_gbps;
            satisfied += e.satisfied_gbps;
        }
        prop_assert!((report.offered_gbps - offered).abs() < 1e-6);
        prop_assert!((report.satisfied_gbps - satisfied).abs() < 1e-6);
        // Aggregate satisfaction == offered-weighted mean of epoch results.
        if offered > 0.0 {
            let weighted = report
                .epochs
                .iter()
                .map(|e| e.satisfaction() * e.offered_gbps)
                .sum::<f64>()
                / offered;
            prop_assert!((report.satisfaction() - weighted).abs() < 1e-9);
        }
        prop_assert!(report.reconfigurations <= report.epochs.len().saturating_sub(1));
        if policy == ReallocationPolicy::Static {
            prop_assert!(report.reconfigurations == 0);
        }
    }

    /// CPU execution time is monotonically non-decreasing in the added
    /// LLC-to-memory latency, for every access pattern and core model.
    #[test]
    fn cpu_cycles_monotonic_in_latency(
        pattern_idx in 0usize..AccessPattern::ALL.len(),
        ws_kib in 64u64..4096,
        seed in 0u64..100,
    ) {
        let pattern = AccessPattern::ALL[pattern_idx];
        let params = PatternParams::new(ws_kib * 1024, 5_000).seed(seed);
        let trace = pattern.generate(&params);
        for kind in CoreKind::ALL {
            let mut prev = 0u64;
            for extra in [0.0, 35.0, 85.0] {
                let result = Simulator::new(
                    CpuConfig::baseline(kind).with_extra_latency_ns(extra),
                )
                .with_warmup(true)
                .run(&trace);
                prop_assert!(result.cycles >= prev);
                prev = result.cycles;
            }
        }
    }

    /// GPU predicted cycles are monotonically non-decreasing in the added
    /// HBM latency for every registered application.
    #[test]
    fn gpu_cycles_monotonic_in_latency(app_idx in 0usize..24, extra in 0.0f64..200.0) {
        let apps = gpu_applications();
        let app = &apps[app_idx];
        let base = GpuTimingModel::new(GpuConfig::a100()).run(app);
        let slowed =
            GpuTimingModel::new(GpuConfig::a100().with_extra_hbm_latency_ns(extra)).run(app);
        prop_assert!(slowed.total_cycles >= base.total_cycles - 1e-9);
    }

    /// Under utilization scaling, per-scenario energy is monotone in the
    /// offered load: scaling a below-saturation permutation up carries
    /// strictly more bits through the fabric and therefore consumes strictly
    /// more energy — and never more than the always-on assumption.
    #[test]
    fn energy_monotone_in_offered_load_under_utilization_scaling(
        demand in 1.0f64..60.0,
        scale in 1.05f64..1.9,
        seed in 0u64..500,
    ) {
        // Permutation flows below the >=125 Gbps direct capacity are fully
        // satisfied, so carried bits — and with them utilization-scaled
        // energy — grow proportionally with the offered demand.
        let run = |d: f64| {
            SweepGrid::named("prop-energy")
                .mcm_counts([16])
                .patterns([TrafficPattern::Permutation { demand_gbps: d }])
                .energy_modes([EnergyMode::UtilizationScaled, EnergyMode::AlwaysOn])
                .base_seed(seed)
                .run()
        };
        let lo = run(demand);
        let hi = run(demand * scale);
        let util_j = |r: &photonic_disagg::core::SweepReport| r.rows[0].metric("energy_j").unwrap();
        let always_j =
            |r: &photonic_disagg::core::SweepReport| r.rows[1].metric("energy_j").unwrap();
        prop_assert!(
            util_j(&hi) > util_j(&lo),
            "energy must rise with offered load: {} J at {demand} Gbps vs {} J at {} Gbps",
            util_j(&lo),
            util_j(&hi),
            demand * scale
        );
        prop_assert!(util_j(&lo) <= always_j(&lo) + 1e-6);
        prop_assert!(util_j(&hi) <= always_j(&hi) + 1e-6);
    }

    /// At any load — including far past saturation — utilization-scaled
    /// energy stays bounded by the always-on budget: the fabric cannot carry
    /// more wire bits than its link capacity.
    #[test]
    fn utilization_energy_bounded_by_always_on_at_any_load(
        demand in 10.0f64..20_000.0,
        hot in 1u32..4,
        seed in 0u64..500,
    ) {
        let report = SweepGrid::named("prop-bound")
            .mcm_counts([12])
            .patterns([TrafficPattern::HotSpot { hot_mcms: hot, demand_gbps: demand }])
            .energy_modes([EnergyMode::UtilizationScaled, EnergyMode::AlwaysOn])
            .base_seed(seed)
            .run();
        let util = report.rows[0].metric("energy_j").unwrap();
        let always = report.rows[1].metric("energy_j").unwrap();
        prop_assert!(util <= always + 1e-6, "util {util} J > always-on {always} J");
        prop_assert!(util.is_finite() && util >= 0.0);
    }

    /// Pseudo-random admit sequences keep the spectrum board structurally
    /// sound under every admission rule, and the carried bandwidth never
    /// decreases across admissions (an admit either books a lightpath for
    /// the full sanitized demand or changes nothing).
    #[test]
    fn flexgrid_admissions_keep_the_board_sound(
        seed in 0u64..1_000,
        n_flows in 1usize..40,
        demand in 25.0f64..2_500.0,
        admission_idx in 0usize..3,
    ) {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = 12;
        let fabric = RackFabric::new(cfg);
        let config = FlexGridConfig {
            policy: SpectrumPolicy {
                admission: [
                    AdmissionPolicy::FirstFit,
                    AdmissionPolicy::BestFit,
                    AdmissionPolicy::ExactFit,
                ][admission_idx],
                ..SpectrumPolicy::default()
            },
            ..FlexGridConfig::default()
        };
        let mut alloc = SpectrumAllocator::new(&fabric, config);
        let mut carried = 0.0;
        for i in 0..n_flows {
            let src = ((seed + 5 * i as u64) % 12) as u32;
            let dst = ((seed + 7 * i as u64 + 1) % 12) as u32;
            let granted = alloc.admit(Flow::new(src, dst, demand));
            prop_assert!(alloc.carried_gbps() >= carried);
            if let Some(lp) = granted {
                prop_assert_eq!(lp.demand_gbps, demand);
                prop_assert!(alloc.carried_gbps() > carried);
            } else {
                prop_assert_eq!(alloc.carried_gbps(), carried);
            }
            carried = alloc.carried_gbps();
            assert_spectrum_board_sound(&alloc, config.guard_slots);
        }
    }

    /// Admitting a flow and releasing the booked lightpath restores the
    /// observable board state exactly, and re-admitting the same flow books
    /// the identical lightpath; a blocked admit leaves no trace at all.
    #[test]
    fn flexgrid_release_then_readmit_is_identity(
        seed in 0u64..1_000,
        n_flows in 0usize..25,
        demand in 25.0f64..1_500.0,
        probe_demand in 25.0f64..1_500.0,
        admission_idx in 0usize..3,
    ) {
        let mcms = 12u32;
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = mcms;
        let fabric = RackFabric::new(cfg);
        let config = FlexGridConfig {
            policy: SpectrumPolicy {
                admission: [
                    AdmissionPolicy::FirstFit,
                    AdmissionPolicy::BestFit,
                    AdmissionPolicy::ExactFit,
                ][admission_idx],
                ..SpectrumPolicy::default()
            },
            ..FlexGridConfig::default()
        };
        let mut alloc = SpectrumAllocator::new(&fabric, config);
        for i in 0..n_flows {
            let src = ((seed + 11 * i as u64) % mcms as u64) as u32;
            let dst = ((seed + 3 * i as u64 + 2) % mcms as u64) as u32;
            alloc.admit(Flow::new(src, dst, demand));
        }
        let snapshot = |a: &SpectrumAllocator| {
            let mut occ = Vec::new();
            for s in 0..mcms {
                for d in 0..mcms {
                    occ.push(a.occupied_slots(s, d));
                }
            }
            (occ, a.active_lightpaths().to_vec(), a.carried_gbps())
        };
        let before = snapshot(&alloc);
        let src = (seed % mcms as u64) as u32;
        let dst = ((seed + 1) % mcms as u64) as u32;
        match alloc.admit(Flow::new(src, dst, probe_demand)) {
            Some(lp) => {
                prop_assert!(alloc.release(&lp));
                prop_assert_eq!(snapshot(&alloc), before.clone());
                // The same flow against the same board books the same path.
                let again = alloc.admit(Flow::new(src, dst, probe_demand));
                prop_assert_eq!(again, Some(lp));
            }
            None => prop_assert_eq!(snapshot(&alloc), before.clone()),
        }
    }

    /// MCM packing always preserves per-chip escape bandwidth, for any chip
    /// type and any MCM escape bandwidth at least as large as one chip's.
    #[test]
    fn mcm_packing_preserves_escape_bandwidth(
        kind_idx in 0usize..ChipKind::ALL.len(),
        escape_tbs in 2.0f64..20.0,
        chips in 1u32..4096,
    ) {
        let spec = ChipSpec::baseline(ChipKind::ALL[kind_idx]);
        let packing = McmPacking::pack(&spec, chips, Bandwidth::from_tbytes_per_s(escape_tbs));
        prop_assert!(packing.preserves_escape_bandwidth(&spec));
        prop_assert!(packing.chips_per_mcm >= 1);
        prop_assert!(packing.mcms_per_rack as u64 * packing.chips_per_mcm as u64 >= chips as u64);
    }

    /// A sampling cluster plan partitions the grid: cluster weights sum to
    /// the scenario count, every scenario maps to exactly one live cluster,
    /// and each representative belongs to the cluster it represents — for
    /// any grid shape, base seed, and cluster budget.
    #[test]
    fn sampling_plan_partitions_any_grid(
        seed in 0u64..1_000,
        mcm_a in 8u32..20,
        mcm_b in 8u32..20,
        replicates in 1u32..12,
        clusters in 1usize..24,
    ) {
        let mut grid = SweepGrid::named("prop-plan")
            .mcm_counts([mcm_a, mcm_b])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::HotSpot { hot_mcms: 2, demand_gbps: 300.0 },
            ])
            .replicates(replicates);
        grid.base_seed = seed;
        let n = grid.scenario_count();
        let plan = ClusterPlan::build(&grid, &SampleConfig::with_clusters(clusters));
        prop_assert_eq!(plan.total, n);
        if plan.exact {
            prop_assert!(plan.representatives.is_empty());
            prop_assert!(plan.assignments.is_empty());
        } else {
            let weight_sum: usize = plan.representatives.iter().map(|r| r.weight).sum();
            prop_assert_eq!(weight_sum, n);
            prop_assert_eq!(plan.assignments.len(), n);
            let mut populations = vec![0usize; plan.representatives.len()];
            for &ordinal in &plan.assignments {
                prop_assert!((ordinal as usize) < plan.representatives.len());
                populations[ordinal as usize] += 1;
            }
            for (ordinal, rep) in plan.representatives.iter().enumerate() {
                prop_assert_eq!(populations[ordinal], rep.weight);
                prop_assert_eq!(plan.assignments[rep.index] as usize, ordinal);
                prop_assert!(rep.index < n);
            }
        }
    }

    /// The sampled report is a pure function of the grid *contents*: naming
    /// the same axes in a different declaration order (which permutes the
    /// grid-expansion order) reconstructs a byte-identical report, because
    /// the plan clusters scenarios in canonical (feature-sorted) order.
    /// Degenerate plans fall back to the exhaustive oracle, whose row
    /// order intentionally follows the declared expansion order, so the
    /// grid here stays large enough (>= 2 replicates) to actually sample.
    #[test]
    fn sampled_report_is_invariant_under_axis_reordering(
        seed in 0u64..200,
        replicates in 2u32..5,
    ) {
        let patterns = [
            TrafficPattern::Permutation { demand_gbps: 200.0 },
            TrafficPattern::HotSpot { hot_mcms: 2, demand_gbps: 300.0 },
        ];
        let mut forward = SweepGrid::named("prop-order")
            .mcm_counts([8, 12])
            .patterns(patterns)
            .replicates(replicates);
        forward.base_seed = seed;
        let mut reversed = SweepGrid::named("prop-order")
            .mcm_counts([12, 8])
            .patterns([patterns[1], patterns[0]])
            .replicates(replicates);
        reversed.base_seed = seed;
        let config = SampleConfig::with_clusters(3);
        let forward_report = forward.run_sampled(&config);
        prop_assert!(
            !forward_report.sampling.as_ref().expect("stats attached").exact
        );
        prop_assert_eq!(
            forward_report.to_json(),
            reversed.run_sampled(&config).to_json()
        );
    }

    /// Sampling is deterministic in the executing thread count: the
    /// clustering is sequential and representative execution preserves
    /// order, so 1, 2, and 8 threads produce byte-identical reports.
    #[test]
    fn sampled_report_is_identical_across_thread_counts(
        seed in 0u64..200,
        clusters in 2usize..6,
    ) {
        let mut grid = SweepGrid::named("prop-threads")
            .mcm_counts([8, 12])
            .patterns([TrafficPattern::Permutation { demand_gbps: 250.0 }])
            .replicates(8);
        grid.base_seed = seed;
        let config = SampleConfig::with_clusters(clusters);
        let one = rayon::with_max_threads(1, || grid.run_sampled(&config));
        let two = rayon::with_max_threads(2, || grid.run_sampled(&config));
        let eight = rayon::with_max_threads(8, || grid.run_sampled(&config));
        prop_assert_eq!(one.to_json(), two.to_json());
        prop_assert_eq!(two.to_json(), eight.to_json());
    }
}
