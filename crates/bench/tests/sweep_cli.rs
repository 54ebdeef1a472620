//! The command lines of the four grid binaries (`sweep`, `timeline`,
//! `energy`, `flexgrid`), driven as a user runs them: input validation, and
//! how flags map onto the `SweepGrid` each binary documents.

use std::process::{Command, Output};

use disagg_core::energy::{EnergyConfig, EnergyMode};
use disagg_core::report::SweepReport;
use disagg_core::sweep::SweepGrid;
use fabric::{AdmissionPolicy, DefragPolicy, FabricKind, ReallocationPolicy, SpectrumPolicy};
use workloads::{DemandTimeline, TrafficPattern};

const BINARIES: [(&str, &str); 4] = [
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("timeline", env!("CARGO_BIN_EXE_timeline")),
    ("energy", env!("CARGO_BIN_EXE_energy")),
    ("flexgrid", env!("CARGO_BIN_EXE_flexgrid")),
];

fn run(binary: &str, args: &[&str]) -> Output {
    let (_, exe) = BINARIES
        .iter()
        .find(|(name, _)| *name == binary)
        .expect("a grid binary");
    Command::new(exe)
        .args(args)
        .arg("--threads")
        .arg("1")
        .output()
        .expect("binary spawns")
}

/// `binary args` exits 2 with an error naming `field` and prints nothing
/// on stdout.
fn assert_rejected(binary: &str, args: &[&str], field: &str) {
    let out = run(binary, args);
    assert_eq!(out.status.code(), Some(2), "{binary} {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(field), "{binary} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{binary} {args:?} printed rows");
}

/// `binary args` succeeds and prints exactly `expected` plus a newline.
fn assert_prints(binary: &str, args: &[&str], expected: String) {
    let out = run(binary, args);
    assert!(
        out.status.success(),
        "{binary} {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected + "\n");
}

#[test]
fn racks_below_two_mcms_are_rejected_by_name() {
    for (binary, _) in BINARIES {
        for mcms in ["0", "1", "16,1"] {
            assert_rejected(binary, &["--mcms", mcms], "mcm_counts");
        }
    }
}

#[test]
fn a_two_mcm_rack_still_sweeps() {
    let out = run("sweep", &["--mcms", "2", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"mcms\":\"2\""));
}

#[test]
fn nonsense_axis_values_are_rejected_by_name() {
    for (flag, value, field) in [
        ("--fibers", "0", "fibers_per_mcm"),
        ("--fibers", "32,0", "fibers_per_mcm"),
        ("--wavelengths", "0", "wavelengths_per_fiber"),
        ("--gbps", "nan", "gbps_per_wavelength"),
        ("--gbps", "inf", "gbps_per_wavelength"),
        ("--gbps", "0", "gbps_per_wavelength"),
        ("--gbps", "-25", "gbps_per_wavelength"),
        ("--latency", "-1", "direct_latencies_ns"),
        ("--latency", "nan", "direct_latencies_ns"),
    ] {
        assert_rejected("sweep", &["--mcms", "4", flag, value], field);
    }
    // A zero count fails naming its flag instead of running as 1.
    for (binary, flag) in [
        ("sweep", "--replicates"),
        ("sweep", "--threads"),
        ("sweep", "--shard-rows"),
        ("sweep", "--sample"),
        ("timeline", "--replicates"),
        ("timeline", "--threads"),
        ("timeline", "--epochs"),
        ("energy", "--threads"),
        ("energy", "--epochs"),
        ("flexgrid", "--replicates"),
        ("flexgrid", "--threads"),
        ("flexgrid", "--epochs"),
    ] {
        assert_rejected(binary, &["--mcms", "4", flag, "0"], flag);
    }
    for binary in ["timeline", "flexgrid"] {
        assert_rejected(
            binary,
            &["--mcms", "8", "--latency", "-1"],
            "direct_latencies_ns",
        );
    }
    for (binary, _) in BINARIES {
        for demand in ["nan", "inf", "-5"] {
            assert_rejected(binary, &["--mcms", "4", "--demand", demand], "demand_gbps");
        }
        // Zero demand is a legal (idle) load.
        let out = run(binary, &["--mcms", "4", "--demand", "0", "--json"]);
        assert!(out.status.success(), "{binary} --demand 0");
    }
    let energy = [
        "--schedule",
        "steady",
        "--policy",
        "static",
        "--mode",
        "util",
    ];
    for (flag, field) in [
        ("--epoch-seconds", "energy_config.epoch_duration_s"),
        (
            "--reconfig-joules",
            "energy_config.reconfiguration_energy_j",
        ),
    ] {
        for value in ["nan", "-1"] {
            let args = [&["--mcms", "4", flag, value][..], &energy].concat();
            assert_rejected("energy", &args, field);
        }
    }
    // A hot set must leave a sender in the smallest rack, and no count may
    // be one that expansion clamps to another.
    for (mcms, patterns, field) in [
        ("16", "hotspot17", "patterns[0].hot_mcms"),
        ("16", "hotspot16", "patterns[0].hot_mcms"),
        ("24,16", "hotspot20", "patterns[0].hot_mcms"),
        (
            "16",
            "permutation,hotspot4000000000",
            "patterns[1].hot_mcms",
        ),
        ("16", "hotspot0", "patterns[0].hot_mcms"),
        ("16", "neighbor0", "patterns[0].neighbors"),
        ("16", "neighbor9", "patterns[0].neighbors"),
        ("24,16", "permutation,neighbor12", "patterns[1].neighbors"),
    ] {
        assert_rejected("sweep", &["--mcms", mcms, "--pattern", patterns], field);
    }
    let out = run(
        "sweep",
        &["--mcms", "16", "--pattern", "hotspot15", "--json"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"flows\":1,"));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    for (binary, _) in BINARIES {
        assert_rejected(binary, &["--bogus", "1"], "unknown flag \"--bogus\"");
    }
}

#[test]
fn no_reuse_conflicts_with_sample_and_bench() {
    let record = std::env::temp_dir().join(format!("sweep-no-reuse-{}.json", std::process::id()));
    let path = record.to_str().expect("a UTF-8 temp path");
    for mode in [&["--sample", "2"][..], &["--bench", path][..]] {
        let args = [
            &["--mcms", "16", "--replicates", "8", "--no-reuse"][..],
            mode,
        ]
        .concat();
        assert_rejected("sweep", &args, "--no-reuse");
    }
    assert!(!record.exists(), "--bench wrote {path}");
}

#[test]
fn threads_flag_wins_over_pd_threads_which_wins_over_the_default() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (pd_threads, args, expected) in [
        (Some("3"), &["--mcms", "4"][..], 3),
        (Some("3"), &["--mcms", "4", "--threads", "2"][..], 2),
        (None, &["--mcms", "4"][..], cores),
    ] {
        let mut sweep = Command::new(env!("CARGO_BIN_EXE_sweep"));
        match pd_threads {
            Some(n) => sweep.env("PD_THREADS", n),
            None => sweep.env_remove("PD_THREADS"),
        };
        let out = sweep.args(args).output().expect("binary spawns");
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("throughput:"))
            .expect("a throughput line");
        let expected = format!(" on {expected} threads ");
        assert!(line.contains(&expected), "{pd_threads:?} {args:?}: {line}");
    }
}

#[test]
fn out_of_range_hysteresis_thresholds_are_rejected() {
    for binary in ["timeline", "energy"] {
        for policy in ["hystNaN", "hyst7", "hyst-2", "hystx"] {
            assert_rejected(binary, &["--mcms", "8", "--policy", policy], policy);
        }
    }
}

#[test]
fn every_temporal_binary_takes_every_schedule() {
    for binary in ["timeline", "energy", "flexgrid"] {
        let args = ["--mcms", "8", "--epochs", "1", "--json"];
        let out = run(
            binary,
            &[&args[..], &["--schedule", "shifthot2,hpcmix,steady,churn"]].concat(),
        );
        assert!(
            out.status.success(),
            "{binary}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn shard_rows_cut_the_report_into_plan_slices() {
    let whole = ["--mcms", "16,24", "--replicates", "4", "--json"];
    let sharded = [&whole[..], &["--shard-rows", "3"]].concat();
    let reports = |args: &[&str]| -> Vec<SweepReport> {
        let out = run("sweep", args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(|line| SweepReport::from_json(line).expect("one report per line"))
            .collect()
    };
    let batch = reports(&whole);
    assert_eq!(batch.len(), 1);
    let lines = reports(&sharded);
    assert_eq!(lines.len(), 4);
    for (k, rows) in [3, 3, 2].into_iter().enumerate() {
        assert_eq!(lines[k].name, format!("{}.shard{k}", batch[0].name));
        assert_eq!(lines[k].rows.len(), rows, "shard {k}");
    }
    let master = &lines[3];
    assert_eq!(master.name, batch[0].name);
    assert!(master.rows.is_empty());
    let rows: Vec<_> = lines[..3]
        .iter()
        .flat_map(|shard| shard.rows.clone())
        .collect();
    assert_eq!(rows, batch[0].rows);
    assert_eq!(master.summary, batch[0].summary);
}

#[test]
fn sweep_flags_build_the_documented_grid() {
    let grid = SweepGrid::named("sweep")
        .mcm_counts([8, 12])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 200.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 2,
                demand_gbps: 200.0,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
    assert_prints(
        "sweep",
        &[
            "--mcms",
            "8,12",
            "--fabric",
            "awgr,wave",
            "--pattern",
            "permutation,hotspot2",
            "--demand",
            "200",
            "--energy",
            "always,utilization",
            "--json",
        ],
        grid.run().to_json(),
    );
}

#[test]
fn timeline_flags_build_the_documented_grid() {
    // Defaults: schedules shifthot4,hpcmix at 400 Gbps; policies static,greedy.
    let grid = SweepGrid::named("timeline")
        .mcm_counts([8])
        .timelines([
            DemandTimeline::shifting_hotspot(4, 400.0, 4, 1, 5),
            DemandTimeline::hpc_mix(400.0, 1),
        ])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
        ]);
    assert_prints(
        "timeline",
        &["--mcms", "8", "--epochs", "1", "--json"],
        grid.run().to_json(),
    );
}

#[test]
fn energy_flags_build_the_documented_grids() {
    // The fixed headline grid, then the tradeoff grid at its defaults:
    // schedules shifthot4,hpcmix at 400 Gbps, policies
    // static,greedy,hyst0.9, modes always,util.
    let both_modes = [EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled];
    let headline = SweepGrid::named("energy-headline")
        .energy_modes(both_modes)
        .energy_config(EnergyConfig::default());
    let tradeoff = SweepGrid::named("energy-tradeoff")
        .mcm_counts([8])
        .timelines([
            DemandTimeline::shifting_hotspot(4, 400.0, 4, 1, 5),
            DemandTimeline::hpc_mix(400.0, 1),
        ])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ])
        .energy_modes(both_modes)
        .energy_config(EnergyConfig::default());
    assert_prints(
        "energy",
        &["--mcms", "8", "--epochs", "1", "--json"],
        format!(
            "{{\"headline\":{},\"tradeoff\":{}}}",
            headline.run().to_json(),
            tradeoff.run().to_json()
        ),
    );
}

#[test]
fn flexgrid_flags_build_the_documented_grid() {
    // Defaults: schedules churn,shifthot4 at 400 Gbps; spectrum policies
    // firstfit,bestfit+defrag,exactfit+repack.
    let grid = SweepGrid::named("flexgrid")
        .mcm_counts([8])
        .timelines([
            DemandTimeline::elastic_churn(400.0, 1),
            DemandTimeline::shifting_hotspot(4, 400.0, 4, 1, 5),
        ])
        .spectrum_policies(
            [
                (AdmissionPolicy::FirstFit, DefragPolicy::Never),
                (AdmissionPolicy::BestFit, DefragPolicy::OnBlock),
                (AdmissionPolicy::ExactFit, DefragPolicy::EveryEpoch),
            ]
            .map(|(admission, defrag)| SpectrumPolicy { admission, defrag }),
        );
    assert_prints(
        "flexgrid",
        &["--mcms", "8", "--epochs", "1", "--json"],
        grid.run().to_json(),
    );
}
