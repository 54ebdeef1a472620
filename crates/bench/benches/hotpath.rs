//! Hot-path micro-benchmarks: the six kernels the sweep engine spends its
//! time in, grouped so the criterion shim's `PD_BENCH_DIR` writer emits one
//! trajectory snapshot per group (`BENCH_flowsim.json`,
//! `BENCH_timeline.json`, `BENCH_flexgrid.json`, `BENCH_decode.json`,
//! `BENCH_grid.json`, `BENCH_codec.json`).
//!
//! Each group pairs the allocating entry point with its arena-reusing
//! counterpart (or, for the timeline, the incremental solver with the
//! exhaustive oracle), so a regression in either the steady-state path or
//! the reuse machinery shows up as a relative shift inside the same file.
//! The timeline group also times three reallocation policies over one
//! timeline with and without shared steers.
//! `docs/PERFORMANCE.md` explains how to run these and read the snapshots.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disagg_core::energy::EnergyMode;
use disagg_core::sweep::SweepGrid;
use disagg_core::SweepReport;
use fabric::flexgrid::{
    AdmissionPolicy, DefragPolicy, FlexGridArena, FlexGridConfig, FlexGridSimulator, SpectrumPolicy,
};
use fabric::flowsim::{Flow, FlowArena, FlowSimConfig, FlowSimulator};
use fabric::rackfabric::{FabricKind, RackFabric, RackFabricConfig};
use fabric::timeline::{ReallocationPolicy, TimelineArena, TimelineConfig, TimelineSimulator};
use workloads::timeline::DemandTimeline;
use workloads::TrafficPattern;

/// A fabric at `mcm_count` MCMs with the paper's per-MCM link provisioning.
fn fabric_with(mcm_count: u32, kind: FabricKind) -> RackFabric {
    RackFabric::new(RackFabricConfig {
        mcm_count,
        ..RackFabricConfig::paper_rack(kind)
    })
}

/// The flowsim bench cases, shared by the measurement loop and the
/// relative-performance floor so neither can drift to a different set.
fn flowsim_cases() -> [(&'static str, TrafficPattern); 2] {
    [
        (
            "permutation_350mcm",
            TrafficPattern::Permutation { demand_gbps: 600.0 },
        ),
        (
            "hotspot8_350mcm",
            TrafficPattern::HotSpot {
                hot_mcms: 8,
                demand_gbps: 500.0,
            },
        ),
    ]
}

/// `FlowSimulator::run` vs `run_in` with a warm [`FlowArena`]: the per-call
/// cost of the wavelength allocator, with and without steady-state reuse.
fn bench_flowsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowsim");
    let fabric = RackFabric::paper_awgr();
    for (label, pattern) in flowsim_cases() {
        let flows = pattern.flows(350, 7);
        g.bench_with_input(
            BenchmarkId::new("run_alloc", label),
            &flows,
            |b, flows: &Vec<Flow>| {
                let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
                b.iter(|| sim.run(flows))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("run_in_arena", label),
            &flows,
            |b, flows: &Vec<Flow>| {
                let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
                let mut arena = FlowArena::new();
                b.iter(|| {
                    let report = sim.run_in(&mut arena, flows);
                    arena.recycle(report)
                })
            },
        );
    }
    g.finish();
    // Relative-performance floor, applied to every flowsim pair: arena
    // reuse must never cost more than 5% over the allocating path on the
    // same pattern (it exists to be cheaper). Guards both the
    // delta-clear-vs-wipe crossover in `FlowArena::prepare` and the
    // identity-slice candidate fast path in `run_in` (which once lost to
    // the allocating path's filter-built candidates on permutation — the
    // inversion a recorded BENCH_flowsim.json would have pinned).
    for (label, _) in flowsim_cases() {
        let alloc = criterion::recorded_mean_ns("flowsim", &format!("run_alloc/{label}"))
            .expect("run_alloc recorded");
        let arena = criterion::recorded_mean_ns("flowsim", &format!("run_in_arena/{label}"))
            .expect("run_in_arena recorded");
        assert!(
            arena <= alloc * 1.05,
            "arena floor: run_in_arena/{label} {arena:.0} ns > 1.05x run_alloc {alloc:.0} ns"
        );
    }
}

/// `TimelineSimulator` across the canned schedules: the incremental solver
/// (`run` / warm-arena `run_in`) against the exhaustive re-solve oracle.
fn bench_timeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("timeline");
    g.sample_size(10);
    let fabric = fabric_with(64, FabricKind::ParallelAwgrs);
    let epochs = DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 8).epoch_matrices(64, 11);
    for (label, policy) in [
        ("static", ReallocationPolicy::Static),
        ("greedy", ReallocationPolicy::GreedyResteer),
        (
            "hysteresis90",
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ),
    ] {
        let config = TimelineConfig {
            policy,
            ..TimelineConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::new("incremental", label),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = TimelineSimulator::new(&fabric, config);
                let mut arena = TimelineArena::new();
                b.iter(|| {
                    let report = sim.run_in(&mut arena, epochs);
                    arena.recycle(report)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("exhaustive_oracle", label),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = TimelineSimulator::new(&fabric, config);
                b.iter(|| sim.run_exhaustive(epochs))
            },
        );
    }

    // All three policies over one 350-MCM AWGR timeline, as a sweep runs
    // them: `run_shared` through one arena shares each epoch's steer across
    // the policies, `run_in` solves every steer. Each iteration wraps the
    // matrices in a fresh `Arc`, so no steer survives from one iteration to
    // the next and both cases time the solver, not a warm cache.
    let fabric = RackFabric::paper_awgr();
    let epochs = DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 5).epoch_matrices(350, 11);
    let sims: Vec<TimelineSimulator> = [
        ReallocationPolicy::Static,
        ReallocationPolicy::GreedyResteer,
        ReallocationPolicy::Hysteresis {
            min_satisfaction: 0.9,
        },
    ]
    .into_iter()
    .map(|policy| {
        TimelineSimulator::new(
            &fabric,
            TimelineConfig {
                policy,
                ..TimelineConfig::default()
            },
        )
    })
    .collect();
    for (label, shared) in [("policies_shared", true), ("policies_independent", false)] {
        g.bench_with_input(
            BenchmarkId::new(label, "awgr350"),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let mut arena = TimelineArena::new();
                b.iter(|| {
                    let epochs = Arc::new(epochs.clone());
                    for sim in &sims {
                        let report = if shared {
                            sim.run_shared(&mut arena, &epochs)
                        } else {
                            sim.run_in(&mut arena, &epochs)
                        };
                        arena.recycle(report);
                    }
                })
            },
        );
    }
    g.finish();
    // Relative-performance floor: sharing steers across the policies must
    // save at least a quarter of the independent cost. A broken steer
    // cache (every lookup a miss) fails here.
    let shared = criterion::recorded_mean_ns("timeline", "policies_shared/awgr350")
        .expect("policies_shared recorded");
    let independent = criterion::recorded_mean_ns("timeline", "policies_independent/awgr350")
        .expect("policies_independent recorded");
    assert!(
        shared <= independent * 0.75,
        "steer-sharing floor: policies_shared {shared:.0} ns > 0.75x policies_independent {independent:.0} ns"
    );
}

/// The spectrum policies the flexgrid group times.
fn flexgrid_policies() -> [SpectrumPolicy; 3] {
    [
        SpectrumPolicy::default(),
        SpectrumPolicy {
            admission: AdmissionPolicy::BestFit,
            defrag: DefragPolicy::OnBlock,
        },
        SpectrumPolicy {
            admission: AdmissionPolicy::ExactFit,
            defrag: DefragPolicy::EveryEpoch,
        },
    ]
}

/// `FlexGridSimulator` across the spectrum policies on the elastic-churn
/// schedule: the incremental spectrum solver (warm-arena `run_in`) against
/// the from-scratch exhaustive re-solve oracle, on the 64-MCM AWGR rack
/// (24 slots per link) and, suffixed `_wss`, the 32-MCM wave-selective rack
/// (1024 slots per link). `incremental_hpcmix` times the incremental
/// solver alone on the HPC-mix schedule at 32 MCMs.
fn bench_flexgrid(c: &mut Criterion) {
    let mut g = c.benchmark_group("flexgrid");
    g.sample_size(10);
    let racks = [
        ("", fabric_with(64, FabricKind::ParallelAwgrs)),
        ("_wss", fabric_with(32, FabricKind::WaveSelective)),
    ];
    for (suffix, fabric) in &racks {
        let mcms = fabric.config().mcm_count;
        let epochs = DemandTimeline::elastic_churn(600.0, 3).epoch_matrices(mcms, 11);
        for policy in flexgrid_policies() {
            let label = policy.label();
            let config = FlexGridConfig {
                policy,
                ..FlexGridConfig::default()
            };
            g.bench_with_input(
                BenchmarkId::new(format!("incremental{suffix}"), &label),
                &epochs,
                |b, epochs: &Vec<Vec<Flow>>| {
                    let sim = FlexGridSimulator::new(fabric, config);
                    let mut arena = FlexGridArena::new();
                    b.iter(|| {
                        let report = sim.run_in(&mut arena, epochs);
                        arena.recycle(report)
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("exhaustive_oracle{suffix}"), &label),
                &epochs,
                |b, epochs: &Vec<Vec<Flow>>| {
                    let sim = FlexGridSimulator::new(fabric, config);
                    b.iter(|| sim.run_exhaustive(epochs))
                },
            );
        }
    }
    // The HPC-mix schedule on the 32-MCM AWGR rack, as the temporal
    // benchmark grades it: its 128-flow ramp epochs are where a
    // flows × lightpaths survivor claim dominated, and a third of its
    // epochs repeat the one before.
    let fabric = fabric_with(32, FabricKind::ParallelAwgrs);
    let epochs = DemandTimeline::hpc_mix(200.0, 3).epoch_matrices(32, 11);
    for policy in flexgrid_policies() {
        let config = FlexGridConfig {
            policy,
            ..FlexGridConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::new("incremental_hpcmix", policy.label()),
            &epochs,
            |b, epochs: &Vec<Vec<Flow>>| {
                let sim = FlexGridSimulator::new(&fabric, config);
                let mut arena = FlexGridArena::new();
                b.iter(|| {
                    let report = sim.run_in(&mut arena, epochs);
                    arena.recycle(report)
                })
            },
        );
    }
    g.finish();
    // Relative-performance floor on the wave-selective rack: the
    // word-packed board walks free runs 64 slots at a time, while the
    // oracle keeps its per-slot scans, so the incremental solver must stay
    // under 0.2x the oracle. A regression to per-slot scans fails here.
    for policy in flexgrid_policies() {
        let label = policy.label();
        let incremental =
            criterion::recorded_mean_ns("flexgrid", &format!("incremental_wss/{label}"))
                .expect("incremental_wss recorded");
        let oracle =
            criterion::recorded_mean_ns("flexgrid", &format!("exhaustive_oracle_wss/{label}"))
                .expect("exhaustive_oracle_wss recorded");
        assert!(
            incremental <= oracle * 0.2,
            "word-kernel floor: incremental_wss/{label} {incremental:.0} ns > 0.2x exhaustive_oracle_wss {oracle:.0} ns"
        );
    }
}

/// Scenario decode: expanding a grid's cartesian axes into [`Scenario`]
/// values and generating each pattern's flow list — the sweep's per-scenario
/// setup cost before any fabric work runs.
fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    let grid = reference_grid(350, 32);
    g.bench_function("scenario_iter_reference_grid", |b| {
        b.iter(|| grid.scenarios().count())
    });
    for (label, pattern) in [
        (
            "alltoall8_350mcm",
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
        ),
        (
            "permutation_350mcm",
            TrafficPattern::Permutation { demand_gbps: 600.0 },
        ),
    ] {
        g.bench_with_input(
            BenchmarkId::new("pattern_flows", label),
            &pattern,
            |b, pattern: &TrafficPattern| b.iter(|| pattern.flows(350, 7)),
        );
    }
    g.finish();
}

/// The same axes `sweep --bench` times, parameterized so the micro-bench
/// copy stays small enough for the shim's per-bench budget.
fn reference_grid(mcms: u32, replicates: u32) -> SweepGrid {
    SweepGrid::named("bench-reference")
        .mcm_counts([mcms])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
            TrafficPattern::Permutation { demand_gbps: 600.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 8,
                demand_gbps: 500.0,
            },
        ])
        .direct_latencies_ns([35.0])
        .replicates(replicates)
}

/// End-to-end sweep over a scaled-down reference grid (64 MCMs, 4
/// replicates = 24 scenarios): decode + memoized fabric builds + flow
/// solves + fold, through the same executor `sweep --bench` exercises at
/// full scale.
fn bench_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid");
    g.sample_size(10);
    let grid = reference_grid(64, 4);
    g.bench_function("reference_grid_64mcm_serial", |b| {
        b.iter(|| rayon::with_max_threads(1, || grid.run()))
    });
    g.finish();
}

/// The `sweepd` job grid of the perfbench `sweepd-jobs` workload: 64-MCM
/// AWGR rack, three patterns, two energy modes, 256 replicates (1,536
/// rows, ~1.6 MB of report JSON).
fn sweepd_jobs_grid() -> SweepGrid {
    SweepGrid::named("bench-sweepd-jobs")
        .mcm_counts([64])
        .fabric_kinds([FabricKind::ParallelAwgrs])
        .patterns([
            TrafficPattern::Uniform {
                flows_per_mcm: 8,
                demand_gbps: 300.0,
            },
            TrafficPattern::HotSpot {
                hot_mcms: 4,
                demand_gbps: 800.0,
            },
            TrafficPattern::Permutation { demand_gbps: 600.0 },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(256)
}

/// The shard codec on a 1,536-row report: the streaming decoder, the
/// writer, and the bare DOM parse of the same bytes as the yardstick.
fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(10);
    let report = sweepd_jobs_grid().run();
    let json = report.to_json();
    g.bench_function("report_from_json", |b| {
        b.iter(|| SweepReport::from_json(&json).expect("report decodes"))
    });
    g.bench_function("report_to_json", |b| b.iter(|| report.to_json()));
    g.bench_function("dom_parse", |b| {
        b.iter(|| serde::json::parse(&json).expect("report parses"))
    });
    g.finish();
    // Relative-performance floor: decoding a report straight from the
    // reader must stay close to the cost of tokenizing it into a DOM (the
    // DOM walk it replaced took ~2x the DOM parse).
    let decode = criterion::recorded_mean_ns("codec", "report_from_json")
        .expect("report_from_json recorded");
    let dom = criterion::recorded_mean_ns("codec", "dom_parse").expect("dom_parse recorded");
    assert!(
        decode <= dom * 1.5,
        "codec floor: report_from_json {decode:.0} ns > 1.5x dom_parse {dom:.0} ns"
    );
}

criterion_group!(
    hotpath,
    bench_flowsim,
    bench_timeline,
    bench_flexgrid,
    bench_decode,
    bench_grid,
    bench_codec
);
criterion_main!(hotpath);
