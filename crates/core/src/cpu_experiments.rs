//! CPU latency-sensitivity experiments (Section VI-B1/2/4 of the paper).
//!
//! Every CPU benchmark configuration is simulated on the trace-driven
//! simulator at several additional LLC-to-memory latencies, for in-order and
//! out-of-order cores. From those runs the harness derives:
//!
//! * Fig. 6 — average and maximum slowdown per suite and input size at
//!   +35 ns;
//! * Fig. 7 — per-benchmark slowdown vs. LLC miss rate and their Pearson
//!   correlation;
//! * Fig. 8 — the 25/30/35 ns sensitivity sweep;
//! * Fig. 12 (CPU half) — speedup of the photonic design (35 ns) over the
//!   best electronic design (85 ns).

use cpusim::{pearson_correlation, CoreKind, CpuConfig, SimResult, Simulator};
use workloads::cpu::{cpu_benchmarks, CpuBenchmark, CpuSuite, InputSize};

/// Configuration of the CPU experiment sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuExperimentConfig {
    /// Memory accesses to generate per benchmark trace.
    pub accesses_per_benchmark: usize,
    /// Additional LLC-to-memory latencies to evaluate (ns). Must include 0
    /// (the baseline every slowdown is measured against).
    pub latencies_ns: Vec<f64>,
    /// Core models to evaluate.
    pub core_kinds: Vec<CoreKind>,
    /// Replay each trace once to warm the caches before the timed run, so
    /// that cold (compulsory) misses do not distort short traces. The
    /// paper's long gem5 runs measure steady state; keep this on.
    pub warmup: bool,
    /// Power-of-two divisor applied to both the cache capacities and the
    /// benchmark working sets. 1 reproduces the paper's full-scale
    /// configuration; larger divisors shrink the whole memory system
    /// proportionally so the same behaviour classes can be exercised with
    /// much shorter traces (used by unit tests).
    pub scale_divisor: u32,
}

impl Default for CpuExperimentConfig {
    fn default() -> Self {
        CpuExperimentConfig {
            accesses_per_benchmark: 400_000,
            latencies_ns: crate::LATENCY_SWEEP_NS.to_vec(),
            core_kinds: vec![CoreKind::InOrder, CoreKind::OutOfOrder],
            warmup: true,
            scale_divisor: 1,
        }
    }
}

impl CpuExperimentConfig {
    /// A reduced configuration for quick tests: a 1/8-scale memory system,
    /// short traces, only the in-order core, only the baseline and the
    /// 35 ns point.
    pub fn quick() -> Self {
        CpuExperimentConfig {
            accesses_per_benchmark: 60_000,
            latencies_ns: vec![0.0, 35.0],
            core_kinds: vec![CoreKind::InOrder],
            warmup: true,
            scale_divisor: 8,
        }
    }

    /// The CPU configuration for a core kind with this experiment's memory
    /// system scaling applied.
    pub fn cpu_config(&self, core_kind: CoreKind) -> CpuConfig {
        let mut cfg = CpuConfig::baseline(core_kind);
        let d = self.scale_divisor.max(1) as u64;
        cfg.l1d.capacity_bytes /= d;
        cfg.l2.capacity_bytes /= d;
        cfg.llc.capacity_bytes /= d;
        cfg
    }

    /// A benchmark's trace with this experiment's working-set scaling
    /// applied.
    pub fn trace_for(&self, benchmark: &CpuBenchmark) -> cpusim::MemoryTrace {
        let mut b = benchmark.clone();
        b.working_set_bytes = (b.working_set_bytes / self.scale_divisor.max(1) as u64).max(4096);
        b.trace(self.accesses_per_benchmark)
    }
}

/// Result of one benchmark on one core model across the latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuBenchmarkResult {
    /// The benchmark configuration.
    pub benchmark: CpuBenchmark,
    /// The core model.
    pub core_kind: CoreKind,
    /// Baseline (0 ns extra) cycles.
    pub baseline_cycles: u64,
    /// LLC miss rate (identical across latencies).
    pub llc_miss_rate: f64,
    /// Memory accesses per kilo-instruction.
    pub llc_mpki: f64,
    /// (extra latency ns, slowdown %) pairs, one per configured latency.
    pub slowdowns: Vec<(f64, f64)>,
    /// (extra latency ns, total cycles) pairs.
    pub cycles: Vec<(f64, u64)>,
}

impl CpuBenchmarkResult {
    /// Slowdown (in percent) at a given extra latency, if it was simulated.
    pub fn slowdown_at(&self, latency_ns: f64) -> Option<f64> {
        self.slowdowns
            .iter()
            .find(|(l, _)| (l - latency_ns).abs() < 1e-9)
            .map(|(_, s)| *s)
    }

    /// Cycles at a given extra latency, if simulated.
    pub fn cycles_at(&self, latency_ns: f64) -> Option<u64> {
        self.cycles
            .iter()
            .find(|(l, _)| (l - latency_ns).abs() < 1e-9)
            .map(|(_, c)| *c)
    }

    /// Speedup (in percent) of the configuration at `fast_ns` over the one
    /// at `slow_ns` — the Fig. 12 metric with 35 and 85 ns.
    pub fn speedup_between(&self, fast_ns: f64, slow_ns: f64) -> Option<f64> {
        let fast = self.cycles_at(fast_ns)? as f64;
        let slow = self.cycles_at(slow_ns)? as f64;
        if fast <= 0.0 {
            return None;
        }
        Some((slow / fast - 1.0) * 100.0)
    }
}

fn run_single(
    benchmark: &CpuBenchmark,
    core_kind: CoreKind,
    config: &CpuExperimentConfig,
) -> CpuBenchmarkResult {
    let trace = config.trace_for(benchmark);
    let base_cfg = config.cpu_config(core_kind);
    let results: Vec<SimResult> = config
        .latencies_ns
        .iter()
        .map(|&extra| {
            Simulator::new(base_cfg.with_extra_latency_ns(extra))
                .with_warmup(config.warmup)
                .run(&trace)
        })
        .collect();
    let baseline = results
        .iter()
        .zip(config.latencies_ns.iter())
        .find(|(_, &l)| l == 0.0)
        .map(|(r, _)| *r)
        .unwrap_or(results[0]);
    let slowdowns = config
        .latencies_ns
        .iter()
        .zip(results.iter())
        .map(|(&l, r)| (l, r.slowdown_vs(&baseline)))
        .collect();
    let cycles = config
        .latencies_ns
        .iter()
        .zip(results.iter())
        .map(|(&l, r)| (l, r.cycles))
        .collect();
    CpuBenchmarkResult {
        benchmark: benchmark.clone(),
        core_kind,
        baseline_cycles: baseline.cycles,
        llc_miss_rate: baseline.llc_miss_rate(),
        llc_mpki: baseline.llc_mpki(),
        slowdowns,
        cycles,
    }
}

/// Run the full CPU experiment: every registered benchmark, every configured
/// core model, every latency point. Benchmarks are simulated in parallel
/// through the sweep engine's [`parallel_map`](crate::sweep::parallel_map).
pub fn run_cpu_experiment(config: &CpuExperimentConfig) -> Vec<CpuBenchmarkResult> {
    run_cpu_experiment_subset(config, |_| true)
}

/// Run the experiment for a subset of benchmarks (used by Fig. 11 and the
/// examples).
pub fn run_cpu_experiment_subset(
    config: &CpuExperimentConfig,
    filter: impl Fn(&CpuBenchmark) -> bool + Sync,
) -> Vec<CpuBenchmarkResult> {
    let benchmarks: Vec<CpuBenchmark> =
        cpu_benchmarks().into_iter().filter(|b| filter(b)).collect();
    let mut jobs: Vec<(CpuBenchmark, CoreKind)> = Vec::new();
    for b in &benchmarks {
        for &k in &config.core_kinds {
            jobs.push((b.clone(), k));
        }
    }
    crate::sweep::parallel_map(&jobs, |(b, k)| run_single(b, *k, config))
}

/// Per-suite, per-input-size slowdown summary: one bar group of Fig. 6/8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteSummary {
    /// Benchmark suite.
    pub suite: CpuSuite,
    /// Input size (None aggregates all sizes of the suite).
    pub input: Option<InputSize>,
    /// Core model.
    pub core_kind: CoreKind,
    /// Extra latency (ns) the summary refers to.
    pub latency_ns: f64,
    /// Number of benchmarks aggregated.
    pub benchmarks: usize,
    /// Average slowdown (%).
    pub average_slowdown: f64,
    /// Maximum slowdown (%).
    pub max_slowdown: f64,
}

/// Aggregate per-suite / per-input-size average and maximum slowdowns at one
/// latency point (Fig. 6 uses 35 ns; Fig. 8 uses each of 25/30/35).
pub fn summarize_by_suite(results: &[CpuBenchmarkResult], latency_ns: f64) -> Vec<SuiteSummary> {
    let mut summaries = Vec::new();
    let core_kinds: Vec<CoreKind> = {
        let mut v: Vec<CoreKind> = results.iter().map(|r| r.core_kind).collect();
        v.dedup();
        v.sort_by_key(|k| *k as u8);
        v.dedup();
        v
    };
    for &core_kind in &core_kinds {
        for suite in CpuSuite::ALL {
            let inputs: Vec<Option<InputSize>> = match suite {
                CpuSuite::Rodinia => vec![Some(InputSize::Default), None],
                _ => vec![
                    Some(InputSize::Small),
                    Some(InputSize::Medium),
                    Some(InputSize::Large),
                    None,
                ],
            };
            for input in inputs {
                let slowdowns: Vec<f64> = results
                    .iter()
                    .filter(|r| r.core_kind == core_kind && r.benchmark.suite == suite)
                    .filter(|r| input.is_none() || Some(r.benchmark.input) == input)
                    .filter_map(|r| r.slowdown_at(latency_ns))
                    .collect();
                if slowdowns.is_empty() {
                    continue;
                }
                summaries.push(SuiteSummary {
                    suite,
                    input,
                    core_kind,
                    latency_ns,
                    benchmarks: slowdowns.len(),
                    average_slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
                    max_slowdown: slowdowns.iter().cloned().fold(f64::MIN, f64::max),
                });
            }
        }
    }
    summaries
}

/// The Fig. 7 data: per-benchmark (name, slowdown %, LLC miss rate) points
/// plus their Pearson correlation, for one core kind / suite / input filter.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRateCorrelation {
    /// (benchmark id, slowdown %, LLC miss rate) rows.
    pub points: Vec<(String, f64, f64)>,
    /// Pearson product-moment correlation between slowdown and miss rate.
    pub pearson: Option<f64>,
}

/// Compute the slowdown-vs-LLC-miss-rate correlation (Fig. 7) over a filtered
/// set of results at one latency.
pub fn miss_rate_correlation(
    results: &[CpuBenchmarkResult],
    latency_ns: f64,
    filter: impl Fn(&CpuBenchmarkResult) -> bool,
) -> MissRateCorrelation {
    let points: Vec<(String, f64, f64)> = results
        .iter()
        .filter(|r| filter(r))
        .filter_map(|r| {
            r.slowdown_at(latency_ns)
                .map(|s| (r.benchmark.id(), s, r.llc_miss_rate))
        })
        .collect();
    let slowdowns: Vec<f64> = points.iter().map(|p| p.1).collect();
    let miss_rates: Vec<f64> = points.iter().map(|p| p.2).collect();
    MissRateCorrelation {
        pearson: pearson_correlation(&miss_rates, &slowdowns),
        points,
    }
}

/// One row of the Fig. 12 comparison: speedup of the photonic (35 ns) system
/// over the electronic (85 ns) system.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectronicComparisonRow {
    /// Benchmark id.
    pub benchmark: String,
    /// Suite.
    pub suite: CpuSuite,
    /// Input size.
    pub input: InputSize,
    /// Core model.
    pub core_kind: CoreKind,
    /// Speedup (%) of the photonic system over the electronic one.
    pub speedup_percent: f64,
}

/// Compute the Fig. 12 CPU rows. To avoid triple-counting PARSEC, the paper
/// (and this function's `dedupe_parsec` flag) keeps only the "medium" PARSEC
/// inputs; NAS keeps class "B" for the same reason; Rodinia has one input.
pub fn electronic_comparison(
    results: &[CpuBenchmarkResult],
    dedupe_inputs: bool,
) -> Vec<ElectronicComparisonRow> {
    results
        .iter()
        .filter(|r| {
            if !dedupe_inputs {
                return true;
            }
            match r.benchmark.suite {
                CpuSuite::Parsec | CpuSuite::Nas => r.benchmark.input == InputSize::Medium,
                CpuSuite::Rodinia => true,
            }
        })
        .filter_map(|r| {
            r.speedup_between(crate::PHOTONIC_LATENCY_NS, crate::ELECTRONIC_LATENCY_NS)
                .map(|s| ElectronicComparisonRow {
                    benchmark: r.benchmark.id(),
                    suite: r.benchmark.suite,
                    input: r.benchmark.input,
                    core_kind: r.core_kind,
                    speedup_percent: s,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_results() -> Vec<CpuBenchmarkResult> {
        // Small but complete: all 57 benchmarks, in-order, 0 and 35 ns.
        run_cpu_experiment(&CpuExperimentConfig::quick())
    }

    #[test]
    fn experiment_produces_one_result_per_benchmark_and_core() {
        let results = quick_results();
        assert_eq!(results.len(), 57);
        let cfg = CpuExperimentConfig {
            core_kinds: vec![CoreKind::InOrder, CoreKind::OutOfOrder],
            ..CpuExperimentConfig::quick()
        };
        let results2 = run_cpu_experiment_subset(&cfg, |b| b.name == "nw");
        assert_eq!(results2.len(), 2);
    }

    #[test]
    fn slowdowns_are_zero_at_baseline_and_nonnegative_elsewhere() {
        for r in quick_results() {
            assert!(r.slowdown_at(0.0).unwrap().abs() < 1e-9);
            assert!(r.slowdown_at(35.0).unwrap() >= -1e-9);
        }
    }

    #[test]
    fn nas_benchmarks_are_negligibly_affected() {
        // Paper: "NAS benchmarks are negligibly affected by the increased
        // latency from photonics."
        let results = quick_results();
        let nas: Vec<f64> = results
            .iter()
            .filter(|r| r.benchmark.suite == CpuSuite::Nas)
            .filter_map(|r| r.slowdown_at(35.0))
            .collect();
        let avg = nas.iter().sum::<f64>() / nas.len() as f64;
        assert!(
            avg < 5.0,
            "NAS average slowdown {avg:.1}% should be negligible"
        );
    }

    #[test]
    fn nw_is_among_the_worst_benchmarks() {
        let results = quick_results();
        let nw = results
            .iter()
            .find(|r| r.benchmark.name == "nw")
            .unwrap()
            .slowdown_at(35.0)
            .unwrap();
        // nw must be substantially affected and sit in the top quintile of
        // all 57 benchmark configurations (at full scale it is essentially
        // tied for the maximum; the 1/8-scale quick configuration compresses
        // the spread a little).
        let mut all: Vec<f64> = results.iter().filter_map(|r| r.slowdown_at(35.0)).collect();
        all.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let rank = all.iter().position(|&s| (s - nw).abs() < 1e-9).unwrap();
        assert!(
            rank < all.len() / 5,
            "nw ({nw:.1}%) should rank in the top quintile, got rank {rank}"
        );
        assert!(nw > 20.0, "nw slowdown {nw:.1}% should be substantial");
    }

    #[test]
    fn suite_summaries_cover_all_suites() {
        let results = quick_results();
        let summaries = summarize_by_suite(&results, 35.0);
        assert!(summaries.iter().any(|s| s.suite == CpuSuite::Parsec));
        assert!(summaries.iter().any(|s| s.suite == CpuSuite::Nas));
        assert!(summaries.iter().any(|s| s.suite == CpuSuite::Rodinia));
        for s in &summaries {
            assert!(s.max_slowdown >= s.average_slowdown - 1e-9);
            assert!(s.benchmarks > 0);
        }
    }

    #[test]
    fn parsec_large_slows_down_more_than_medium() {
        let results = quick_results();
        let summaries = summarize_by_suite(&results, 35.0);
        let get = |input| {
            summaries
                .iter()
                .find(|s| {
                    s.suite == CpuSuite::Parsec
                        && s.input == Some(input)
                        && s.core_kind == CoreKind::InOrder
                })
                .unwrap()
                .average_slowdown
        };
        assert!(get(InputSize::Large) > get(InputSize::Medium));
    }

    #[test]
    fn slowdown_correlates_with_llc_miss_rate() {
        // Fig. 7: Pearson coefficients of 0.76-0.89 for Rodinia / PARSEC.
        let results = quick_results();
        let corr = miss_rate_correlation(&results, 35.0, |r| r.core_kind == CoreKind::InOrder);
        let r = corr.pearson.expect("correlation should be defined");
        assert!(
            r > 0.6,
            "slowdown vs miss-rate correlation {r:.2} should be strong"
        );
        assert_eq!(corr.points.len(), 57);
    }

    #[test]
    fn electronic_comparison_shows_photonic_speedup() {
        let cfg = CpuExperimentConfig {
            latencies_ns: vec![0.0, 35.0, 85.0],
            ..CpuExperimentConfig::quick()
        };
        let results = run_cpu_experiment_subset(&cfg, |b| {
            b.name == "nw" || b.name == "streamcluster" || b.name == "ep"
        });
        let rows = electronic_comparison(&results, true);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row.speedup_percent >= -1e-9);
        }
        // The memory-bound nw must speed up substantially; ep barely.
        let nw = rows.iter().find(|r| r.benchmark.contains("nw")).unwrap();
        let ep = rows.iter().find(|r| r.benchmark.contains("/ep/")).unwrap();
        assert!(nw.speedup_percent > ep.speedup_percent);
    }

    #[test]
    fn dedupe_keeps_single_parsec_input() {
        let cfg = CpuExperimentConfig {
            latencies_ns: vec![0.0, 35.0, 85.0],
            ..CpuExperimentConfig::quick()
        };
        let results = run_cpu_experiment_subset(&cfg, |b| b.name == "canneal");
        let all = electronic_comparison(&results, false);
        let deduped = electronic_comparison(&results, true);
        assert_eq!(all.len(), 3);
        assert_eq!(deduped.len(), 1);
        assert_eq!(deduped[0].input, InputSize::Medium);
    }
}
