//! The command lines of the four grid binaries (`sweep`, `timeline`,
//! `energy`, `flexgrid`), driven as a user runs them: input validation, and
//! how flags map onto the `SweepGrid` each binary documents. The
//! paper-artifact binaries' refusals are checked here too.

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

/// The paper-artifact binaries: the first seven take `--json`, the rest
/// nothing but `calibrate`'s two positional numbers.
const ARTIFACTS: [(&str, &str); 17] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("power_overhead", env!("CARGO_BIN_EXE_power_overhead")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
    ("fig5_connectivity", env!("CARGO_BIN_EXE_fig5_connectivity")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("ber_fec", env!("CARGO_BIN_EXE_ber_fec")),
    (
        "bandwidth_analysis",
        env!("CARGO_BIN_EXE_bandwidth_analysis"),
    ),
    ("iso_performance", env!("CARGO_BIN_EXE_iso_performance")),
    ("calibrate", env!("CARGO_BIN_EXE_calibrate")),
];

/// Runs `binary` with exactly `args`, so a flag can be the last argument.
fn run_bare(binary: &str, args: &[&str]) -> Output {
    let (_, exe) = BINARIES
        .iter()
        .chain(&ARTIFACTS)
        .find(|(name, _)| *name == binary)
        .expect("a bench binary");
    Command::new(exe)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn run(binary: &str, args: &[&str]) -> Output {
    run_bare(binary, &[args, &["--threads", "1"]].concat())
}

/// `binary args` exits 2 with an error naming `field` and prints nothing
/// on stdout.
fn assert_rejected(binary: &str, args: &[&str], field: &str) {
    assert_refused(run(binary, args), binary, args, field);
}

fn assert_refused(out: Output, binary: &str, args: &[&str], field: &str) {
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
    for (binary, _) in BINARIES.iter().chain(&ARTIFACTS) {
        assert_rejected(binary, &["--bogus", "1"], "unknown flag \"--bogus\"");
    }
    // An artifact binary checks its command line before it computes: only
    // the seven engine-routed ones read `--json`, and `calibrate` reads at
    // most two numbers.
    for (binary, args, refused) in [
        ("fig9", &["--jsno"][..], "unknown flag \"--jsno\""),
        ("table2", &["--json"][..], "unknown flag \"--json\""),
        ("fig12", &["extra"][..], "unknown argument \"extra\""),
        ("calibrate", &["abc"][..], "unknown argument \"abc\""),
        ("calibrate", &["1", "2", "3"][..], "unknown argument \"3\""),
    ] {
        assert_refused(run_bare(binary, args), binary, args, refused);
    }
}

#[test]
fn a_flag_without_its_value_is_named() {
    let rejected = |binary: &str, args: &[&str], field: &str| {
        assert_refused(run_bare(binary, args), binary, args, field)
    };
    for (binary, _) in BINARIES {
        rejected(binary, &["--bogus"], "unknown flag \"--bogus\"");
        rejected(binary, &["--mcms"], "--mcms needs a value");
        rejected(binary, &["--json", "--seed"], "--seed needs a value");
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

#[test]
fn smoke_refuses_axis_flags_by_name() {
    // `--smoke` runs a fixed grid, so an axis flag beside it would be
    // silently dropped; it is refused instead, in either order.
    for binary in ["timeline", "energy", "flexgrid"] {
        for (args, flag) in [
            (&["--mcms", "1", "--smoke"][..], "--mcms"),
            (&["--smoke", "--mcms", "16"][..], "--mcms"),
            (&["--smoke", "--json", "--demand", "400"][..], "--demand"),
            (&["--schedule", "steady", "--smoke"][..], "--schedule"),
            (&["--smoke", "--epochs", "2"][..], "--epochs"),
            (&["--smoke", "--seed", "3"][..], "--seed"),
        ] {
            assert_rejected(binary, args, flag);
        }
    }
    for (binary, flag, value) in [
        ("timeline", "--policy", "static"),
        ("timeline", "--latency", "25"),
        ("energy", "--mode", "util"),
        ("energy", "--epoch-seconds", "2"),
        ("flexgrid", "--spectrum", "firstfit"),
        ("flexgrid", "--replicates", "2"),
    ] {
        assert_rejected(binary, &["--smoke", flag, value], flag);
    }
}

#[test]
fn timeline_smoke_runs_its_fixed_grid() {
    // 16 MCMs, shifthot2,steady at 400 Gbps with 2 epochs per phase, under
    // static,greedy.
    let grid = SweepGrid::named("timeline")
        .mcm_counts([16])
        .timelines([
            DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5),
            DemandTimeline::steady(TrafficPattern::Permutation { demand_gbps: 400.0 }, 8),
        ])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
        ]);
    assert_prints("timeline", &["--smoke", "--json"], grid.run().to_json());
}

#[test]
fn help_prints_every_accepted_flag() {
    for (binary, flags) in [
        (
            "sweep",
            &["--pattern", "--energy", "--bench-sps-floor", "--json"][..],
        ),
        ("timeline", &["--schedule", "--policy", "--smoke"][..]),
        ("energy", &["--mode", "--reconfig-joules", "--smoke"][..]),
        ("flexgrid", &["--spectrum", "--replicates", "--smoke"][..]),
    ] {
        for help in ["--help", "-h"] {
            let out = run_bare(binary, &[help]);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_refused(out, binary, &[help], &format!("usage: {binary} "));
            for flag in flags {
                assert!(stderr.contains(&format!("[{flag}")), "{binary}: {stderr}");
            }
        }
    }
}
