//! Paper tables and figures as sweep-engine artifacts.
//!
//! Each function here is the computational core of one `bench` binary
//! (fig7/fig9/fig10/fig11/table1/table3): it expands the figure's scenario
//! set, executes it through [`parallel_map`], and returns a
//! [`PaperArtifact`] holding both the exact text the binary prints and the
//! unified machine-readable [`SweepReport`] (emitted by the binaries with
//! `--json`). The binaries themselves are reduced to
//! grid-definition-plus-formatter shims over these functions.

use cpusim::CoreKind;
use fabric::{AdmissionPolicy, DefragPolicy, ReallocationPolicy, SpectrumPolicy};
use photonics::link::{EscapeSizing, LinkTechnology, LinkTechnologyKind};
use rack::mcm::RackComposition;
use workloads::cpu::{rodinia_cpu_gpu_intersection, CpuSuite, InputSize};
use workloads::{DemandTimeline, TrafficPattern};

use crate::cpu_experiments::{
    miss_rate_correlation, run_cpu_experiment, run_cpu_experiment_subset, CpuExperimentConfig,
};
use crate::energy::EnergyMode;
use crate::gpu_experiments::{
    average_slowdown, gpu_correlations, run_gpu_experiment, GpuExperimentConfig,
};
use crate::report::{
    format_gpu_results, format_miss_rate_rows, format_sweep_report, SweepReport, SweepRow,
};
use crate::sweep::{parallel_map, SweepGrid};

/// A regenerated paper artifact: the exact text its binary prints plus the
/// unified sweep-report schema.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperArtifact {
    /// Machine-readable result rows and summary metrics.
    pub report: SweepReport,
    /// The full plain-text output of the artifact binary.
    pub text: String,
}

fn option_metric(v: Option<f64>) -> f64 {
    v.unwrap_or(f64::NAN)
}

/// Fig. 7 — per-benchmark slowdown vs. LLC miss rate with Pearson
/// correlations (PARSEC large and Rodinia on in-order cores).
pub fn fig7() -> PaperArtifact {
    let cfg = CpuExperimentConfig {
        latencies_ns: vec![0.0, 35.0],
        ..CpuExperimentConfig::default()
    };
    let results = run_cpu_experiment(&cfg);

    let parsec_large = miss_rate_correlation(&results, 35.0, |r| {
        r.core_kind == CoreKind::InOrder
            && r.benchmark.suite == CpuSuite::Parsec
            && r.benchmark.input == InputSize::Large
    });
    let rodinia = miss_rate_correlation(&results, 35.0, |r| {
        r.core_kind == CoreKind::InOrder && r.benchmark.suite == CpuSuite::Rodinia
    });
    let parsec_all = miss_rate_correlation(&results, 35.0, |r| {
        r.core_kind == CoreKind::InOrder && r.benchmark.suite == CpuSuite::Parsec
    });

    let mut text = String::new();
    text.push_str(&format_miss_rate_rows(
        "Fig. 7 (left) — PARSEC large, in-order",
        &parsec_large.points,
    ));
    text.push('\n');
    text.push_str(&format!("Pearson r = {:?}\n\n", parsec_large.pearson));
    text.push_str(&format_miss_rate_rows(
        "Fig. 7 (right) — Rodinia, in-order",
        &rodinia.points,
    ));
    text.push('\n');
    text.push_str(&format!("Pearson r = {:?}\n\n", rodinia.pearson));
    text.push_str(&format!(
        "PARSEC all inputs, in-order: Pearson r = {:?}\n",
        parsec_all.pearson
    ));

    let mut report = SweepReport::new("fig7");
    for (panel, corr) in [("parsec-large", &parsec_large), ("rodinia", &rodinia)] {
        for (name, slowdown, miss) in &corr.points {
            report.rows.push(SweepRow {
                label: name.clone(),
                params: vec![
                    ("panel".to_string(), panel.to_string()),
                    ("core".to_string(), "in-order".to_string()),
                    ("latency_ns".to_string(), "35".to_string()),
                ],
                metrics: vec![
                    ("slowdown_percent".to_string(), *slowdown),
                    ("llc_miss_rate".to_string(), *miss),
                ],
            });
        }
    }
    report.summary = vec![
        (
            "pearson_parsec_large".to_string(),
            option_metric(parsec_large.pearson),
        ),
        (
            "pearson_rodinia".to_string(),
            option_metric(rodinia.pearson),
        ),
        (
            "pearson_parsec_all".to_string(),
            option_metric(parsec_all.pearson),
        ),
    ];
    for kind in [CoreKind::InOrder, CoreKind::OutOfOrder] {
        let all = miss_rate_correlation(&results, 35.0, |r| r.core_kind == kind);
        text.push_str(&format!(
            "All suites, {kind}: Pearson r = {:?}\n",
            all.pearson
        ));
        report
            .summary
            .push((format!("pearson_all_{kind}"), option_metric(all.pearson)));
    }
    PaperArtifact { report, text }
}

/// Fig. 9 — GPU slowdown for 25/30/35 ns of additional LLC-HBM latency.
pub fn fig9() -> PaperArtifact {
    let results = run_gpu_experiment(&GpuExperimentConfig::default());
    let latencies = [25.0, 30.0, 35.0];

    let mut text = format_gpu_results(
        "Fig. 9 — GPU slowdown for 25/30/35 ns of additional LLC-HBM latency",
        &results,
        &latencies,
    );
    text.push('\n');
    let avg = average_slowdown(&results, 35.0);
    text.push_str(&format!(
        "average slowdown at +35 ns: {avg:.2}% (paper: 5.35%)\n"
    ));

    let mut report = SweepReport::new("fig9");
    for r in &results {
        report.rows.push(SweepRow {
            label: r.name.clone(),
            params: vec![("suite".to_string(), r.suite.clone())],
            metrics: latencies
                .iter()
                .map(|&l| {
                    (
                        format!("slowdown_{l}ns_percent"),
                        option_metric(r.slowdown_at(l)),
                    )
                })
                .collect(),
        });
    }
    report.summary = vec![("average_slowdown_35ns_percent".to_string(), avg)];
    PaperArtifact { report, text }
}

/// Fig. 10 — GPU slowdown vs. LLC miss rate and HBM transactions per
/// instruction, with Pearson correlations.
pub fn fig10() -> PaperArtifact {
    let results = run_gpu_experiment(&GpuExperimentConfig::default());

    let mut text = String::new();
    text.push_str("Fig. 10 — GPU slowdown vs LLC miss rate and HBM transactions (+35 ns)\n");
    text.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>12} {:>10}\n",
        "application", "slowdown%", "L2 miss%", "HBM tx/instr", "mem frac"
    ));
    let mut report = SweepReport::new("fig10");
    for r in &results {
        let slowdown = r.slowdown_at(35.0).unwrap_or(0.0);
        text.push_str(&format!(
            "{:<16} {:>9.2}% {:>11.1}% {:>12.3} {:>10.2}\n",
            r.name,
            slowdown,
            r.l2_miss_rate * 100.0,
            r.hbm_transactions_per_instruction,
            r.memory_instruction_fraction
        ));
        report.rows.push(SweepRow {
            label: r.name.clone(),
            params: vec![("suite".to_string(), r.suite.clone())],
            metrics: vec![
                ("slowdown_35ns_percent".to_string(), slowdown),
                ("l2_miss_rate".to_string(), r.l2_miss_rate),
                (
                    "hbm_transactions_per_instruction".to_string(),
                    r.hbm_transactions_per_instruction,
                ),
                (
                    "memory_instruction_fraction".to_string(),
                    r.memory_instruction_fraction,
                ),
            ],
        });
    }
    let c = gpu_correlations(&results, 35.0);
    text.push_str("\nPearson correlations of slowdown with:\n");
    text.push_str(&format!(
        "  LLC (L2) miss rate          : {:?}\n",
        c.with_l2_miss_rate
    ));
    text.push_str(&format!(
        "  HBM transactions/instruction: {:?}\n",
        c.with_hbm_transactions
    ));
    text.push_str(&format!(
        "  memory instruction fraction : {:?}\n",
        c.with_memory_fraction
    ));
    report.summary = vec![
        (
            "pearson_l2_miss_rate".to_string(),
            option_metric(c.with_l2_miss_rate),
        ),
        (
            "pearson_hbm_transactions".to_string(),
            option_metric(c.with_hbm_transactions),
        ),
        (
            "pearson_memory_fraction".to_string(),
            option_metric(c.with_memory_fraction),
        ),
    ];
    PaperArtifact { report, text }
}

/// Fig. 11 — CPU vs. GPU slowdown on the shared Rodinia benchmarks.
pub fn fig11() -> PaperArtifact {
    let shared = rodinia_cpu_gpu_intersection();
    let cfg = CpuExperimentConfig {
        latencies_ns: vec![0.0, 35.0],
        ..CpuExperimentConfig::default()
    };
    let cpu = run_cpu_experiment_subset(&cfg, |b| {
        b.suite == CpuSuite::Rodinia && shared.contains(&b.name.as_str())
    });
    let gpu = run_gpu_experiment(&GpuExperimentConfig::default());

    let mut text = String::new();
    text.push_str("Fig. 11 — CPU vs GPU slowdown on shared Rodinia benchmarks (+35 ns)\n");
    text.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>10}\n",
        "benchmark", "in-order CPU", "OOO CPU", "GPU"
    ));
    let mut report = SweepReport::new("fig11");
    for name in &shared {
        let io = cpu
            .iter()
            .find(|r| r.benchmark.name == *name && r.core_kind == CoreKind::InOrder)
            .and_then(|r| r.slowdown_at(35.0))
            .unwrap_or(f64::NAN);
        let ooo = cpu
            .iter()
            .find(|r| r.benchmark.name == *name && r.core_kind == CoreKind::OutOfOrder)
            .and_then(|r| r.slowdown_at(35.0))
            .unwrap_or(f64::NAN);
        let g = gpu
            .iter()
            .find(|r| r.name == *name)
            .and_then(|r| r.slowdown_at(35.0))
            .unwrap_or(f64::NAN);
        text.push_str(&format!("{name:<16} {io:>11.1}% {ooo:>11.1}% {g:>9.2}%\n"));
        report.rows.push(SweepRow {
            label: name.to_string(),
            params: vec![
                ("suite".to_string(), "Rodinia".to_string()),
                ("latency_ns".to_string(), "35".to_string()),
            ],
            metrics: vec![
                ("inorder_cpu_slowdown_percent".to_string(), io),
                ("ooo_cpu_slowdown_percent".to_string(), ooo),
                ("gpu_slowdown_percent".to_string(), g),
            ],
        });
    }
    PaperArtifact { report, text }
}

/// Table I — WDM photonic link technologies sized for a 2 TB/s escape
/// target. The grid is the technology catalogue; each row is computed
/// independently through the engine.
pub fn table1() -> PaperArtifact {
    let target = EscapeSizing::paper_escape_target();
    let rows: Vec<EscapeSizing> = parallel_map(&LinkTechnologyKind::ALL, |&kind| {
        LinkTechnology::table_i(kind).escape_sizing(target)
    });

    let mut text = String::new();
    text.push_str("Table I — WDM photonic link technologies (2 TB/s escape target)\n");
    text.push_str(&format!(
        "{:<18} {:>10} {:>10} {:>16} {:>7} {:>10}\n",
        "technology", "Gbps/link", "pJ/bit", "Gbps x channels", "#links", "agg. W"
    ));
    let mut report = SweepReport::new("table1");
    for row in &rows {
        let t = row.technology;
        text.push_str(&format!(
            "{:<18} {:>10.0} {:>10.2} {:>9.0} x {:<4} {:>7} {:>10.1}\n",
            t.kind.to_string(),
            t.bandwidth.gbps(),
            t.energy_per_bit.pj(),
            t.channel_rate.gbps(),
            t.channels,
            row.links,
            row.aggregate_power_w
        ));
        report.rows.push(SweepRow {
            label: t.kind.to_string(),
            params: vec![("escape_target_tbytes_per_s".to_string(), "2".to_string())],
            metrics: vec![
                ("gbps_per_link".to_string(), t.bandwidth.gbps()),
                ("pj_per_bit".to_string(), t.energy_per_bit.pj()),
                ("channel_gbps".to_string(), t.channel_rate.gbps()),
                ("channels".to_string(), t.channels as f64),
                ("links".to_string(), row.links as f64),
                ("aggregate_power_w".to_string(), row.aggregate_power_w),
            ],
        });
    }
    PaperArtifact { report, text }
}

/// Table III — chips per MCM and MCMs per rack under the 6.4 TB/s per-MCM
/// escape budget.
pub fn table3() -> PaperArtifact {
    let c = RackComposition::paper_rack();
    let rows = parallel_map(&c.packings, |p| *p);

    let mut text = String::new();
    text.push_str("Table III — chips per MCM and MCMs per rack (6.4 TB/s escape per MCM)\n");
    text.push_str(&format!(
        "{:<6} {:>13} {:>13} {:>12} {:>18}\n",
        "chip", "chips/MCM", "MCMs/rack", "chips", "GB/s per chip"
    ));
    let mut report = SweepReport::new("table3");
    for p in &rows {
        text.push_str(&format!(
            "{:<6} {:>13} {:>13} {:>12} {:>18.1}\n",
            p.kind.to_string(),
            p.chips_per_mcm,
            p.mcms_per_rack,
            p.total_chips,
            p.escape_per_chip.gbytes_per_s()
        ));
        report.rows.push(SweepRow {
            label: p.kind.to_string(),
            params: vec![("mcm_escape_tbytes_per_s".to_string(), "6.4".to_string())],
            metrics: vec![
                ("chips_per_mcm".to_string(), p.chips_per_mcm as f64),
                ("mcms_per_rack".to_string(), p.mcms_per_rack as f64),
                ("total_chips".to_string(), p.total_chips as f64),
                (
                    "escape_per_chip_gbytes_per_s".to_string(),
                    p.escape_per_chip.gbytes_per_s(),
                ),
            ],
        });
    }
    text.push_str(&format!("Total MCMs: {}\n", c.total_mcms()));
    report.summary = vec![("total_mcms".to_string(), c.total_mcms() as f64)];
    PaperArtifact { report, text }
}

/// Section VI-C — the per-rack photonic power overhead, computed through
/// the sweep engine's energy layer at the paper's design point. The text is
/// byte-identical to the pre-engine `power_overhead` binary; the report
/// additionally carries the utilization-scaled counterpoint row.
pub fn power_overhead() -> PaperArtifact {
    let grid = SweepGrid::named("power_overhead")
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
    let report = grid.run();
    let (_, always_on) = report
        .energy
        .iter()
        .find(|(_, e)| e.mode == EnergyMode::AlwaysOn)
        .expect("always-on mode is on the energy axis");

    let mut text = String::new();
    text.push_str("Power overhead (Section VI-C)\n");
    text.push_str(&format!(
        "  transceiver power : {:>10.1} W\n",
        always_on.transceiver_energy_j / always_on.duration_s
    ));
    text.push_str(&format!(
        "  switch power      : {:>10.1} W\n",
        always_on.idle_energy_j / always_on.duration_s
    ));
    text.push_str(&format!(
        "  photonic total    : {:>10.1} W\n",
        always_on.watts()
    ));
    text.push_str(&format!(
        "  baseline rack     : {:>10.1} W\n",
        always_on.compute_power_w
    ));
    text.push_str(&format!(
        "  overhead          : {:>10.2} %\n",
        always_on.photonic_compute_ratio() * 100.0
    ));
    PaperArtifact { report, text }
}

/// The `energy --smoke` grid: a small fixed energy-aware sweep (two PR 3
/// timelines x three reallocation policies x both energy modes on a 16-MCM
/// rack) that CI runs end to end and the golden tests pin as JSON.
pub fn energy_smoke() -> PaperArtifact {
    let grid = SweepGrid::named("energy_smoke")
        .mcm_counts([16])
        .timelines([
            DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5),
            DemandTimeline::steady(TrafficPattern::Permutation { demand_gbps: 200.0 }, 4),
        ])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::GreedyResteer,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
    let report = grid.run();
    let text = format_sweep_report(&report);
    PaperArtifact { report, text }
}

/// The `flexgrid --smoke` grid: a small fixed flex-grid spectrum sweep (the
/// PR 7 elastic-churn timeline plus a shifting hotspot x three spectrum
/// policies x both energy modes on a 16-MCM rack) that CI runs end to end
/// and the golden tests pin as JSON.
pub fn flexgrid_smoke() -> PaperArtifact {
    let grid = SweepGrid::named("flexgrid_smoke")
        .mcm_counts([16])
        .timelines([
            // 600 Gbps saturates same-pair links on the 16-MCM board, so the
            // fixture pins nonzero blocking and fires the on-block defrag
            // path; the 400 Gbps hotspot is the uncontended contrast.
            DemandTimeline::elastic_churn(600.0, 2),
            DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5),
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
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]);
    let report = grid.run();
    let text = format_sweep_report(&report);
    PaperArtifact { report, text }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_artifact_matches_direct_computation() {
        let a = table1();
        assert_eq!(a.report.rows.len(), 5);
        assert!(a.text.starts_with("Table I"));
        let direct = EscapeSizing::table_i_rows();
        for (row, d) in a.report.rows.iter().zip(&direct) {
            assert_eq!(row.metric("links"), Some(d.links as f64));
        }
        // Artifacts are deterministic end to end.
        assert_eq!(a.report.to_json(), table1().report.to_json());
    }

    #[test]
    fn table3_artifact_reports_350_mcms() {
        let a = table3();
        assert_eq!(a.report.summary_metric("total_mcms"), Some(350.0));
        assert!(a.text.contains("Total MCMs: 350"));
        assert!(!a.report.rows.is_empty());
    }

    #[test]
    fn power_overhead_artifact_reproduces_section_vi_c() {
        let a = power_overhead();
        assert_eq!(a.report.energy.len(), 2);
        let (_, always_on) = &a.report.energy[0];
        assert_eq!(always_on.mode, EnergyMode::AlwaysOn);
        // ~10-11 kW of photonics at ~5% of the compute baseline.
        assert!(always_on.watts() > 9_500.0 && always_on.watts() < 11_500.0);
        let pct = always_on.photonic_compute_ratio() * 100.0;
        assert!(pct > 4.0 && pct < 6.0, "overhead {pct}%");
        // The text is the pre-engine binary's output, byte for byte.
        assert!(a.text.starts_with("Power overhead (Section VI-C)\n"));
        assert!(a.text.contains("transceiver power :     8960.0 W"));
        assert!(a.text.contains("switch power      :     1000.0 W"));
        assert!(a.text.contains("photonic total    :     9960.0 W"));
        assert!(a.text.contains("baseline rack     :   210176.0 W"));
        assert!(a.text.contains("overhead          :       4.74 %"));
        assert_eq!(a.report.to_json(), power_overhead().report.to_json());
    }

    #[test]
    fn energy_smoke_artifact_covers_both_modes_and_all_policies() {
        let a = energy_smoke();
        assert_eq!(a.report.rows.len(), 2 * 3 * 2);
        assert_eq!(a.report.energy.len(), a.report.rows.len());
        assert!(a.text.contains("energy:"));
        assert_eq!(a.report.to_json(), energy_smoke().report.to_json());
    }

    #[test]
    fn flexgrid_smoke_artifact_covers_both_modes_and_all_policies() {
        let a = flexgrid_smoke();
        assert_eq!(a.report.rows.len(), 2 * 3 * 2);
        assert_eq!(a.report.energy.len(), a.report.rows.len());
        assert!(a.text.contains("energy:"));
        for row in &a.report.rows {
            let blocking = row.metric("blocking_probability").unwrap();
            assert!((0.0..=1.0).contains(&blocking), "blocking {blocking}");
            assert!(row.metric("slots_in_use").unwrap() > 0.0);
        }
        // The churn timeline saturates the board (nonzero blocking, on-block
        // defrag fires); the hotspot contrast rows stay uncontended.
        assert!(a.report.rows[0].metric("blocking_probability").unwrap() > 0.0);
        assert!(a.report.rows[2].metric("defrag_events").unwrap() > 0.0);
        assert_eq!(a.report.rows[6].metric("blocking_probability"), Some(0.0));
        assert_eq!(a.report.to_json(), flexgrid_smoke().report.to_json());
    }

    #[test]
    fn fig9_and_fig10_artifacts_cover_all_24_applications() {
        let f9 = fig9();
        assert_eq!(f9.report.rows.len(), 24);
        assert!(
            f9.report
                .summary_metric("average_slowdown_35ns_percent")
                .unwrap()
                > 0.0
        );
        assert!(f9.text.contains("average slowdown at +35 ns"));
        let f10 = fig10();
        assert_eq!(f10.report.rows.len(), 24);
        assert!(f10.report.summary_metric("pearson_l2_miss_rate").unwrap() > 0.5);
    }
}
