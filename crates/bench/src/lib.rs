//! # bench
//!
//! The paper-artifact harness: one binary per table/figure of the paper's
//! evaluation plus Criterion benches over the underlying models. Each
//! artifact is a standalone binary in `src/bin/` so that
//! `cargo run --bin <artifact>` regenerates exactly one paper result; the
//! library holds only [`cli`], the axis grammar the grid binaries share.
//!
//! | binary | paper artifact | engine route |
//! |---|---|---|
//! | `table1` | Table I — WDM link technologies | [`disagg_core::sweep::artifacts::table1`] |
//! | `table2` | Table II — high-radix photonic switches | `disagg_core::rack_analysis` |
//! | `table3` | Table III — chips/MCM, MCMs/rack | [`disagg_core::sweep::artifacts::table3`] |
//! | `table4` | Table IV — switch candidates | `disagg_core::rack_analysis` |
//! | `fig5_connectivity` | Fig. 5 — fabric connectivity guarantees | `fabric::RackFabric::report` |
//! | `fig6` | Fig. 6 — CPU slowdown by suite at +35 ns | `disagg_core::cpu_experiments` |
//! | `fig7` | Fig. 7 — slowdown vs. LLC miss rate | [`disagg_core::sweep::artifacts::fig7`] |
//! | `fig8` | Fig. 8 — CPU 25/30/35 ns sensitivity | `disagg_core::cpu_experiments` |
//! | `fig9` | Fig. 9 — GPU slowdown 25/30/35 ns | [`disagg_core::sweep::artifacts::fig9`] |
//! | `fig10` | Fig. 10 — GPU slowdown correlations | [`disagg_core::sweep::artifacts::fig10`] |
//! | `fig11` | Fig. 11 — CPU vs GPU on shared Rodinia | [`disagg_core::sweep::artifacts::fig11`] |
//! | `fig12` | Fig. 12 — photonic vs best electronic | `disagg_core` experiments |
//! | `power_overhead` | Sec. VI-C — photonic power overhead | [`disagg_core::sweep::artifacts::power_overhead`] |
//! | `sweep` | user-defined scenario grids | [`disagg_core::sweep::SweepGrid`] |
//! | `timeline` | temporal steering sweeps | [`disagg_core::sweep::SweepGrid::timelines`] |
//! | `energy` | energy-aware sweeps + policy tradeoff | [`disagg_core::energy`] |
//! | `flexgrid` | flex-grid spectrum sweeps | [`disagg_core::sweep::SweepGrid::spectrum_policies`] |
//!
//! Binaries with an `artifacts` route run through the `core::sweep` engine
//! and accept `--json` to emit the unified
//! [`SweepReport`](disagg_core::report::SweepReport) schema; the remaining
//! analytical binaries (`ber_fec`, `bandwidth_analysis`, `iso_performance`,
//! `calibrate`) print Section VI-A/C/D/E analyses directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli {
    //! The axis grammar of the four grid binaries (`sweep`, `timeline`,
    //! `energy`, `flexgrid`). Each binary keeps its own flag list; the
    //! values those flags take are read here, and every label is read by its
    //! axis's one parser ([`FabricKind::parse`], [`ReallocationPolicy::parse`],
    //! [`EnergyMode::parse`], [`SpectrumPolicy::parse`], [`parse_schedules`]), the
    //! same parsers the grid JSON decoder uses. A bad value prints
    //! `<binary>: <what was wrong>` and exits 2, and so does a grid that
    //! fails [`SweepGrid::validate`].

    use std::fmt::Display;
    use std::path::Path;
    use std::process::exit;
    use std::str::FromStr;

    use disagg_core::energy::EnergyMode;
    use disagg_core::sweep::SweepGrid;
    use fabric::{FabricKind, ReallocationPolicy, SpectrumPolicy};
    use workloads::{DemandTimeline, TrafficPattern};

    /// Print `<binary>: <message>` to stderr and exit 2, the status of
    /// every rejected command line. The prefix is the running binary's file
    /// name.
    pub fn fail(message: impl Display) -> ! {
        let program = std::env::args().next().unwrap_or_default();
        let program = Path::new(&program)
            .file_stem()
            .map_or("bench".into(), |stem| stem.to_string_lossy());
        eprintln!("{program}: {message}");
        exit(2);
    }

    /// Read each comma-separated item of `value` with `parse`, failing with
    /// `error(item)` on the first it rejects.
    fn each<T>(
        value: &str,
        parse: impl Fn(&str) -> Option<T>,
        error: impl Fn(&str) -> String,
    ) -> Vec<T> {
        value
            .split(',')
            .map(str::trim)
            .map(|v| parse(v).unwrap_or_else(|| fail(error(v))))
            .collect()
    }

    /// A comma-separated list of numbers for `flag`.
    pub fn parse_list<T: FromStr>(flag: &str, value: &str) -> Vec<T> {
        each(
            value,
            |v| v.parse().ok(),
            |v| format!("invalid value {v:?} for {flag}"),
        )
    }

    /// For flags that take exactly one value: reject comma lists instead of
    /// silently using the first element.
    pub fn parse_scalar<T: FromStr>(flag: &str, value: &str) -> T {
        if value.contains(',') {
            fail(format!("{flag} takes a single value, got list {value:?}"));
        }
        value
            .trim()
            .parse()
            .unwrap_or_else(|_| fail(format!("invalid value {value:?} for {flag}")))
    }

    /// A single count of at least 1 for `flag`: 0 fails naming the flag
    /// instead of being raised to 1.
    pub fn parse_count<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> T {
        let n = parse_scalar(flag, value);
        if n == T::default() {
            fail(format!("{flag} must be at least 1, got 0"));
        }
        n
    }

    /// A comma-separated list of `axis` labels, each read by `parse`; an
    /// unknown label fails naming the axis and its `grammar`.
    pub fn parse_labels<T>(
        value: &str,
        parse: impl Fn(&str) -> Option<T>,
        axis: &str,
        grammar: &str,
    ) -> Vec<T> {
        each(value, parse, |v| {
            format!("unknown {axis} {v:?} ({grammar})")
        })
    }

    /// `--fabric`: `awgr`, `wave`, `spatial`.
    pub fn parse_fabrics(value: &str) -> Vec<FabricKind> {
        parse_labels(value, FabricKind::parse, "fabric", "awgr|wave|spatial")
    }

    /// `--policy`: `static`, `greedy`, `hystX` with `0 <= X <= 1`.
    pub fn parse_policies(value: &str) -> Vec<ReallocationPolicy> {
        parse_labels(
            value,
            ReallocationPolicy::parse,
            "policy",
            "static|greedy|hystX, 0<=X<=1",
        )
    }

    /// `--energy` / `--mode`: `always` (or `always-on`), `util` (or
    /// `utilization`).
    pub fn parse_energy_modes(value: &str) -> Vec<EnergyMode> {
        parse_labels(value, EnergyMode::parse, "energy mode", "always|util")
    }

    /// `--spectrum`: an admission rule, optionally suffixed with a
    /// defragmentation rule.
    pub fn parse_spectrum(value: &str) -> Vec<SpectrumPolicy> {
        parse_labels(
            value,
            SpectrumPolicy::parse,
            "spectrum policy",
            "firstfit|bestfit|exactfit[+defrag|+repack]",
        )
    }

    /// `--schedule`: demand schedules at `demand_gbps` per flow with
    /// `epochs_per_phase` epochs in each of their phases:
    ///
    /// - `shifthotN`: an N-hot incast over four phases whose hot set
    ///   rotates by a fixed stride of 5 MCMs per phase (coprime with the
    ///   default rack sizes, so successive hot sets never land on each
    ///   other),
    /// - `hpcmix`: halo -> ramp -> GPU burst -> drain,
    /// - `steady`: one flat permutation phase as long as the four-phase
    ///   schedules,
    /// - `churn`: the elastic-churn spectrum workload.
    pub fn parse_schedules(
        value: &str,
        demand_gbps: f64,
        epochs_per_phase: u32,
    ) -> Vec<DemandTimeline> {
        let schedule = |label: &str| {
            if let Some(hot) = label.strip_prefix("shifthot") {
                let hot = hot.parse().ok()?;
                return Some(DemandTimeline::shifting_hotspot(
                    hot,
                    demand_gbps,
                    4,
                    epochs_per_phase,
                    5,
                ));
            }
            match label {
                "hpcmix" => Some(DemandTimeline::hpc_mix(demand_gbps, epochs_per_phase)),
                "steady" => Some(DemandTimeline::steady(
                    TrafficPattern::Permutation { demand_gbps },
                    epochs_per_phase * 4,
                )),
                "churn" => Some(DemandTimeline::elastic_churn(demand_gbps, epochs_per_phase)),
                _ => None,
            }
        };
        parse_labels(value, schedule, "schedule", "shifthotN|hpcmix|steady|churn")
    }

    /// `grid`, once it passes [`SweepGrid::validate`]; otherwise fail
    /// with the error naming the field.
    pub fn validated(grid: SweepGrid) -> SweepGrid {
        if let Err(e) = grid.validate() {
            fail(e);
        }
        grid
    }
}
