//! The benchmark's pinned workload inputs. Every grid is spelled out here
//! rather than borrowed from the engine's reference grids or artifacts, so
//! later changes to those cannot silently change what is measured. The
//! benchmark seed becomes each grid's `base_seed`.

use disagg_core::energy::EnergyMode;
use disagg_core::sweep::SweepGrid;
use fabric::{FabricKind, ReallocationPolicy, SpectrumPolicy};
use workloads::{DemandTimeline, TrafficPattern};

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReferenceSweep,
    TemporalEnergy,
    SweepdJobs,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "reference-sweep" => Some(Workload::ReferenceSweep),
            "temporal-energy" => Some(Workload::TemporalEnergy),
            "sweepd-jobs" => Some(Workload::SweepdJobs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReferenceSweep => "reference-sweep",
            Workload::TemporalEnergy => "temporal-energy",
            Workload::SweepdJobs => "sweepd-jobs",
        }
    }
}

const BOTH_FABRICS: [FabricKind; 2] = [FabricKind::ParallelAwgrs, FabricKind::WaveSelective];
const BOTH_ENERGY_MODES: [EnergyMode; 2] = [EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled];

/// `reference-sweep`: the paper rack under the three static patterns, no
/// energy axis. 768 scenarios per pass at full size.
pub fn reference_grid(seed: u64, quick: bool) -> SweepGrid {
    SweepGrid::named("perfbench-reference-sweep")
        .mcm_counts([if quick { 32 } else { 350 }])
        .fabric_kinds(BOTH_FABRICS)
        .patterns([
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
            TrafficPattern::Permutation { demand_gbps: 600.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 8,
                demand_gbps: 500.0,
            },
        ])
        .direct_latencies_ns([35.0])
        .replicates(if quick { 2 } else { 128 })
        .base_seed(seed)
}

fn timelines() -> [DemandTimeline; 3] {
    [
        DemandTimeline::shifting_hotspot(8, 400.0, 4, 3, 5),
        DemandTimeline::hpc_mix(200.0, 3),
        DemandTimeline::elastic_churn(600.0, 3),
    ]
}

/// `temporal-energy`, wavelength layer: 144 scenarios per pass at full
/// size, half of them energy-mode followers.
pub fn timeline_grid(seed: u64, quick: bool) -> SweepGrid {
    SweepGrid::named("perfbench-temporal-timeline")
        .mcm_counts([if quick { 16 } else { 350 }])
        .fabric_kinds(BOTH_FABRICS)
        .timelines(timelines())
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ])
        .energy_modes(BOTH_ENERGY_MODES)
        .replicates(if quick { 1 } else { 4 })
        .base_seed(seed)
}

/// `temporal-energy`, flex-grid layer over the same timelines: 576
/// scenarios per pass at full size.
pub fn flexgrid_grid(seed: u64, quick: bool) -> SweepGrid {
    let policy = |label: &str| SpectrumPolicy::parse(label).expect("pinned policy label parses");
    SweepGrid::named("perfbench-temporal-flexgrid")
        .mcm_counts([if quick { 16 } else { 32 }])
        .fabric_kinds(BOTH_FABRICS)
        .timelines(timelines())
        .spectrum_policies([
            policy("firstfit"),
            policy("bestfit+defrag"),
            policy("exactfit+repack"),
        ])
        .energy_modes(BOTH_ENERGY_MODES)
        .replicates(if quick { 1 } else { 16 })
        .base_seed(seed)
}

/// `sweepd-jobs` grid: AWGR only, three patterns whose solves all route
/// traffic indirect, two energy modes. 1536 scenarios at full size.
pub fn jobs_grid(seed: u64, quick: bool) -> SweepGrid {
    SweepGrid::named("perfbench-sweepd-jobs")
        .mcm_counts([if quick { 16 } else { 64 }])
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
        .energy_modes(BOTH_ENERGY_MODES)
        .replicates(if quick { 16 } else { 256 })
        .base_seed(seed)
}

/// The exact job file a `sweepd` user would submit for the jobs grid.
pub fn exact_job_json(grid: &SweepGrid, quick: bool) -> String {
    format!(
        "{{\"grid\":{},\"threads\":1,\"rows_per_shard\":{}}}",
        grid.to_json(),
        if quick { 8 } else { 64 }
    )
}

/// The sampled job file over the same grid (K representatives).
pub fn sampled_job_json(grid: &SweepGrid, quick: bool) -> String {
    format!(
        "{{\"grid\":{},\"threads\":1,\"rows_per_shard\":{},\"sample\":{{\"clusters\":{}}}}}",
        grid.to_json(),
        if quick { 8 } else { 64 },
        if quick { 12 } else { 48 }
    )
}
