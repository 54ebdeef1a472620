//! Hot-path micro-benchmarks: the six kernels the sweep engine spends its
//! time in, one [`Record`] per group. Each bench takes at least 11 samples
//! (`bench::record`); with `PD_BENCH_DIR` set to an absolute directory the
//! run writes one trajectory snapshot per group there
//! (`BENCH_flowsim.json`, `BENCH_timeline.json`, `BENCH_flexgrid.json`,
//! `BENCH_decode.json`, `BENCH_grid.json`, `BENCH_codec.json`). Four groups
//! end in a relative-performance floor over their own medians, and a
//! broken floor fails the run before any file is written. The two sides of
//! each floor are timed as one pair (`Record::time_pair`), their samples
//! alternating, so a slowdown of the host moves both.
//!
//! Each group pairs the allocating entry point with its arena-reusing
//! counterpart (or, for the timeline, the incremental solver with the
//! exhaustive oracle), so a regression in either the steady-state path or
//! the reuse machinery shows up as a relative shift inside the same file.
//! The timeline group also times three reallocation policies over one
//! timeline with and without shared steers, and one policy through a fresh
//! arena per run against a reused one.
//! `docs/PERFORMANCE.md` explains how to run these and read the snapshots.

use std::path::Path;
use std::sync::Arc;

use bench::record::Record;
use disagg_core::energy::EnergyMode;
use disagg_core::sweep::SweepGrid;
use disagg_core::SweepReport;
use fabric::flexgrid::{
    AdmissionPolicy, DefragPolicy, FlexGridArena, FlexGridConfig, FlexGridSimulator, SpectrumPolicy,
};
use fabric::flowsim::{FlowArena, FlowSimConfig, FlowSimulator};
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

/// A group's empty record: benches capped at one thread, each of at least
/// 11 samples.
fn group(name: &str) -> Record {
    Record::new(name, 1, 11)
}

/// `FlowSimulator::run` vs `run_in` with a warm [`FlowArena`]: the per-call
/// cost of the wavelength allocator, with and without steady-state reuse.
fn bench_flowsim() -> Record {
    let mut g = group("flowsim");
    let fabric = RackFabric::paper_awgr();
    let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
    for (label, pattern) in flowsim_cases() {
        let flows = pattern.flows(350, 7);
        let mut arena = FlowArena::new();
        g.time_pair(
            (format!("run_alloc/{label}"), || sim.run(&flows)),
            (format!("run_in_arena/{label}"), || {
                let report = sim.run_in(&mut arena, &flows);
                arena.recycle(report)
            }),
        );
    }
    // Relative-performance floor, applied to every flowsim pair: arena
    // reuse must never cost more than 5% over the allocating path on the
    // same pattern (it exists to be cheaper). Guards both the
    // delta-clear-vs-wipe crossover in `FlowArena::prepare` and the
    // identity-slice candidate fast path in `run_in` (which once lost to
    // the allocating path's filter-built candidates on permutation — the
    // inversion a recorded BENCH_flowsim.json would have pinned).
    for (label, _) in flowsim_cases() {
        let alloc = g.median_ns(&format!("run_alloc/{label}"));
        let arena = g.median_ns(&format!("run_in_arena/{label}"));
        assert!(
            arena <= alloc * 1.05,
            "arena floor: run_in_arena/{label} {arena:.0} ns > 1.05x run_alloc {alloc:.0} ns"
        );
    }
    g
}

/// `TimelineSimulator` across the canned schedules: the incremental solver
/// (warm-arena `run_in`) against the exhaustive re-solve oracle.
fn bench_timeline() -> Record {
    let mut g = group("timeline");
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
        let sim = TimelineSimulator::new(
            &fabric,
            TimelineConfig {
                policy,
                ..TimelineConfig::default()
            },
        );
        let mut arena = TimelineArena::new();
        g.time(format!("incremental/{label}"), || {
            let report = sim.run_in(&mut arena, &epochs);
            arena.recycle(report)
        });
        g.time(format!("exhaustive_oracle/{label}"), || {
            sim.run_exhaustive(&epochs)
        });
    }

    // All three policies over one 350-MCM AWGR timeline, as a sweep runs
    // them: `run_shared` through one arena shares each epoch's steer across
    // the policies, `run_in` solves every steer. Each run wraps the
    // matrices in a fresh `Arc`, so no steer survives from one run to the
    // next and both cases time the solver, not a warm cache.
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
    let policies = |shared: bool| {
        let mut arena = TimelineArena::new();
        let epochs = &epochs;
        let sims = &sims;
        move || {
            let epochs = Arc::new(epochs.clone());
            for sim in sims {
                let report = if shared {
                    sim.run_shared(&mut arena, &epochs)
                } else {
                    sim.run_in(&mut arena, &epochs)
                };
                arena.recycle(report);
            }
        }
    };
    g.time_pair(
        ("policies_shared/awgr350", policies(true)),
        ("policies_independent/awgr350", policies(false)),
    );
    // Relative-performance floor: sharing steers across the policies must
    // save at least a quarter of the independent cost. A broken steer
    // cache (every lookup a miss) fails here.
    let shared = g.median_ns("policies_shared/awgr350");
    let independent = g.median_ns("policies_independent/awgr350");
    assert!(
        shared <= independent * 0.75,
        "steer-sharing floor: policies_shared {shared:.0} ns > 0.75x policies_independent {independent:.0} ns"
    );

    // The static policy over the same timeline through a fresh arena per
    // run and through one reused arena: what a run pays to size the
    // arena's pair state, which grows with the pairs a run touches and
    // not with the rack's `mcms²` pairs. Each is sampled on its own:
    // alternated with warm runs, the fresh arenas' memory went back to the
    // kernel between runs, and the cold bench timed page faults.
    let sim = &sims[0];
    g.time("cold_arena/awgr350", || {
        sim.run_in(&mut TimelineArena::new(), &epochs)
    });
    let mut warm = TimelineArena::new();
    g.time("warm_arena/awgr350", || {
        let report = sim.run_in(&mut warm, &epochs);
        warm.recycle(report)
    });
    g
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
fn bench_flexgrid() -> Record {
    let mut g = group("flexgrid");
    let racks = [
        ("", fabric_with(64, FabricKind::ParallelAwgrs)),
        ("_wss", fabric_with(32, FabricKind::WaveSelective)),
    ];
    for (suffix, fabric) in &racks {
        let mcms = fabric.config().mcm_count;
        let epochs = DemandTimeline::elastic_churn(600.0, 3).epoch_matrices(mcms, 11);
        for policy in flexgrid_policies() {
            let label = policy.label();
            let sim = FlexGridSimulator::new(
                fabric,
                FlexGridConfig {
                    policy,
                    ..FlexGridConfig::default()
                },
            );
            let mut arena = FlexGridArena::new();
            g.time_pair(
                (format!("incremental{suffix}/{label}"), || {
                    let report = sim.run_in(&mut arena, &epochs);
                    arena.recycle(report)
                }),
                (format!("exhaustive_oracle{suffix}/{label}"), || {
                    sim.run_exhaustive(&epochs)
                }),
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
        let sim = FlexGridSimulator::new(
            &fabric,
            FlexGridConfig {
                policy,
                ..FlexGridConfig::default()
            },
        );
        let mut arena = FlexGridArena::new();
        g.time(format!("incremental_hpcmix/{}", policy.label()), || {
            let report = sim.run_in(&mut arena, &epochs);
            arena.recycle(report)
        });
    }
    // Relative-performance floor on the wave-selective rack: the
    // word-packed board walks free runs 64 slots at a time, while the
    // oracle keeps its per-slot scans, so the incremental solver must stay
    // under 0.2x the oracle. A regression to per-slot scans fails here.
    for policy in flexgrid_policies() {
        let label = policy.label();
        let incremental = g.median_ns(&format!("incremental_wss/{label}"));
        let oracle = g.median_ns(&format!("exhaustive_oracle_wss/{label}"));
        assert!(
            incremental <= oracle * 0.2,
            "word-kernel floor: incremental_wss/{label} {incremental:.0} ns > 0.2x exhaustive_oracle_wss {oracle:.0} ns"
        );
    }
    g
}

/// Scenario decode: expanding a grid's cartesian axes into [`Scenario`]
/// values and generating each pattern's flow list — the sweep's per-scenario
/// setup cost before any fabric work runs.
fn bench_decode() -> Record {
    let mut g = group("decode");
    let grid = reference_grid(350, 32);
    g.time("scenario_iter_reference_grid", || grid.scenarios().count());
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
        g.time(format!("pattern_flows/{label}"), || pattern.flows(350, 7));
    }
    g
}

/// The same axes `sweep --bench` times, parameterized so the micro-bench
/// copy stays small enough for the per-bench budget.
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
fn bench_grid() -> Record {
    let mut g = group("grid");
    let grid = reference_grid(64, 4);
    g.time("reference_grid_64mcm_serial", || grid.run());
    g
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
fn bench_codec() -> Record {
    let mut g = group("codec");
    let report = sweepd_jobs_grid().run();
    let json = report.to_json();
    g.time_pair(
        ("report_from_json", || {
            SweepReport::from_json(&json).expect("report decodes")
        }),
        ("dom_parse", || {
            serde::json::parse(&json).expect("report parses")
        }),
    );
    g.time("report_to_json", || report.to_json());
    // Relative-performance floor: decoding a report straight from the
    // reader must stay close to the cost of tokenizing it into a DOM (the
    // DOM walk it replaced took ~2x the DOM parse).
    let decode = g.median_ns("report_from_json");
    let dom = g.median_ns("dom_parse");
    assert!(
        decode <= dom * 1.5,
        "codec floor: report_from_json {decode:.0} ns > 1.5x dom_parse {dom:.0} ns"
    );
    g
}

fn main() {
    // `cargo bench` passes `--bench`; the benches take no arguments.
    let groups = [
        bench_flowsim(),
        bench_timeline(),
        bench_flexgrid(),
        bench_decode(),
        bench_grid(),
        bench_codec(),
    ];
    let Ok(dir) = std::env::var("PD_BENCH_DIR") else {
        return;
    };
    for record in &groups {
        let path = Path::new(&dir).join(format!("BENCH_{}.json", record.group()));
        record
            .write(&path)
            .unwrap_or_else(|e| panic!("hotpath: {e}"));
    }
}
