//! # bench
//!
//! The paper-artifact harness: one binary per table/figure of the paper's
//! evaluation plus Criterion benches over the underlying models. Each
//! artifact is a standalone binary in `src/bin/` so that
//! `cargo run --bin <artifact>` regenerates exactly one paper result; the
//! library holds only [`cli`], the one command line of the four grid
//! binaries.
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
    //! The command line of the four grid binaries (`sweep`, `timeline`,
    //! `energy`, `flexgrid`): one flag table and one scanner,
    //! [`Command::parse`]. A binary names itself, its default grid and
    //! the flags it accepts; the scanner owns the argument loop, the usage
    //! text, `--help`, and the refusals (an unknown flag, a flag without its
    //! value, an axis flag given with `--smoke`). Patterns and schedules are
    //! built after the full scan, so `--demand` and `--epochs` apply
    //! whatever the flag order.
    //!
    //! Every label is read by its axis's one parser ([`FabricKind::parse`],
    //! [`ReallocationPolicy::parse`], [`EnergyMode::parse`],
    //! [`SpectrumPolicy::parse`]), the same parsers the grid JSON decoder
    //! uses; pattern and schedule names are read here. A rejected command
    //! line prints `<binary>: <what was wrong>` and exits 2, and so does a
    //! grid that fails [`SweepGrid::validate`].

    use std::fmt::Display;
    use std::path::Path;
    use std::process::exit;
    use std::str::FromStr;

    use disagg_core::energy::EnergyMode;
    use disagg_core::report::{format_sweep_report, SweepReport};
    use disagg_core::sweep::{configure_threads, SweepGrid};
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

    /// One grid binary's command line.
    pub struct Command {
        /// The binary's name, as the usage text shows it.
        pub name: &'static str,
        /// The grid it runs, before its defaults and the command line.
        pub grid: SweepGrid,
        /// Its defaults, as flags scanned before the command line's.
        pub defaults: &'static str,
        /// The flags it accepts, space-separated in usage order.
        pub flags: &'static str,
    }

    /// What a command line asked for, once [`Command::parse`] accepted it.
    #[derive(Default)]
    pub struct Args {
        /// The grid to run, validated. Under `--smoke` it is the default
        /// grid, which the binary replaces with its smoke grid.
        pub grid: SweepGrid,
        /// Worker threads: `--threads`, else `PD_THREADS`, else every core.
        pub threads: usize,
        /// `--json`: print reports as JSON.
        pub json: bool,
        /// `--smoke`: run the binary's small fixed grid.
        pub smoke: bool,
        /// `sweep --row-cap`.
        pub row_cap: Option<usize>,
        /// `sweep --shard-rows`.
        pub shard_rows: Option<usize>,
        /// `sweep --sample`: clusters of the sampled run.
        pub sample: Option<usize>,
        /// `sweep --sample-report`.
        pub sample_report: bool,
        /// `sweep --no-reuse`.
        pub no_reuse: bool,
        /// `sweep --bench`: the record's path.
        pub bench: Option<String>,
        /// `sweep --bench-floor`.
        pub bench_floor: Option<f64>,
        /// `sweep --bench-sps-floor`.
        pub bench_sps_floor: Option<f64>,
        patterns: Option<String>,
        schedules: Option<String>,
        demand_gbps: f64,
        epochs_per_phase: u32,
        threads_flag: Option<usize>,
    }

    impl Args {
        /// Print `report` as `--json` asks: one JSON line, or the text
        /// report.
        pub fn print(&self, report: &SweepReport) {
            if self.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", format_sweep_report(report));
            }
        }
    }

    /// How the scanner reads a flag.
    enum Read {
        /// A switch, which takes no value.
        Switch(fn(&mut Args)),
        /// A flag that takes the next argument, shown in the usage text as
        /// its metavar; the setter gets the flag's name and the value.
        Value(&'static str, fn(&mut Args, &str, &str)),
    }

    use Read::{Switch, Value};

    /// The flag table: how every flag a grid binary takes is read. One row
    /// reads `--energy` (`sweep`) and `--mode` (`energy`).
    fn row(flag: &str) -> Read {
        match flag {
            "--mcms" => Value("N,..", |a, f, v| a.grid.mcm_counts = parse_list(f, v)),
            "--fibers" => Value("N,..", |a, f, v| a.grid.fibers_per_mcm = parse_list(f, v)),
            "--wavelengths" => Value("N,..", |a, f, v| {
                a.grid.wavelengths_per_fiber = parse_list(f, v)
            }),
            "--gbps" => Value("X,..", |a, f, v| {
                a.grid.gbps_per_wavelength = parse_list(f, v)
            }),
            "--fabric" => Value("awgr|wave|spatial,..", |a, _, v| {
                a.grid.fabric_kinds = parse_fabrics(v)
            }),
            "--pattern" => Value(
                "uniformN|permutation|hotspotN|neighborN|alltoall,..",
                |a, _, v| a.patterns = Some(v.to_string()),
            ),
            "--schedule" => Value("shifthotN|hpcmix|steady|churn,..", |a, _, v| {
                a.schedules = Some(v.to_string())
            }),
            "--policy" => Value("static|greedy|hystX,..", |a, _, v| {
                a.grid.realloc_policies = parse_policies(v)
            }),
            "--spectrum" => Value(
                "firstfit|bestfit|exactfit[+defrag|+repack],..",
                |a, _, v| a.grid.spectrum_policies = parse_spectrum(v),
            ),
            "--energy" | "--mode" => Value("always|util,..", |a, _, v| {
                a.grid.energy_modes = parse_energy_modes(v)
            }),
            "--demand" => Value("GBPS", |a, f, v| a.demand_gbps = parse_scalar(f, v)),
            "--epochs" => Value("N", |a, f, v| a.epochs_per_phase = parse_count(f, v)),
            "--epoch-seconds" => Value("S", |a, f, v| {
                a.grid.energy_config.epoch_duration_s = parse_scalar(f, v)
            }),
            "--reconfig-joules" => Value("J", |a, f, v| {
                a.grid.energy_config.reconfiguration_energy_j = parse_scalar(f, v)
            }),
            "--latency" => Value("NS,..", |a, f, v| {
                a.grid.direct_latencies_ns = parse_list(f, v)
            }),
            "--replicates" => Value("N", |a, f, v| a.grid.replicates = parse_count(f, v)),
            "--seed" => Value("N", |a, f, v| a.grid.base_seed = parse_scalar(f, v)),
            "--threads" => Value("N", |a, f, v| a.threads_flag = Some(parse_count(f, v))),
            "--row-cap" => Value("N", |a, f, v| a.row_cap = Some(parse_scalar(f, v))),
            "--shard-rows" => Value("N", |a, f, v| a.shard_rows = Some(parse_count(f, v))),
            "--sample" => Value("K", |a, f, v| a.sample = Some(parse_count(f, v))),
            "--sample-report" => Switch(|a| a.sample_report = true),
            "--no-reuse" => Switch(|a| a.no_reuse = true),
            "--bench" => Value("FILE", |a, _, v| a.bench = Some(v.to_string())),
            "--bench-floor" => Value("EFF", |a, f, v| a.bench_floor = Some(parse_scalar(f, v))),
            "--bench-sps-floor" => Value("SPS", |a, f, v| {
                a.bench_sps_floor = Some(parse_scalar(f, v))
            }),
            "--json" => Switch(|a| a.json = true),
            "--smoke" => Switch(|a| a.smoke = true),
            _ => panic!("no grid binary takes {flag}"),
        }
    }

    /// The flags `--smoke` combines with; it refuses every other.
    const SMOKE_FLAGS: [&str; 3] = ["--smoke", "--json", "--threads"];

    impl Command {
        /// Scan the binary's defaults, then the process's arguments, into
        /// the grid to run, and set the worker-thread count. Exits 2 on
        /// `--help` (printing the usage text) and on any command line it
        /// rejects.
        pub fn parse(self) -> Args {
            let mut args = Args {
                grid: self.grid.clone(),
                ..Args::default()
            };
            self.scan(&mut args, self.defaults.split_whitespace());
            let argv: Vec<String> = std::env::args().skip(1).collect();
            let given = self.scan(&mut args, argv.iter().map(String::as_str));
            if args.smoke {
                if let Some(flag) = given.iter().find(|flag| !SMOKE_FLAGS.contains(flag)) {
                    fail(format_args!(
                        "{flag} cannot be combined with --smoke, which runs a fixed grid"
                    ));
                }
            }
            if let Some(patterns) = &args.patterns {
                args.grid.patterns = parse_patterns(patterns, args.demand_gbps);
            }
            if let Some(schedules) = &args.schedules {
                args.grid.timelines =
                    parse_schedules(schedules, args.demand_gbps, args.epochs_per_phase);
            }
            if let Err(e) = args.grid.validate() {
                fail(e);
            }
            args.threads = configure_threads(args.threads_flag);
            args
        }

        /// Read `words` into `args`, returning the flags they gave.
        fn scan<'a>(
            &self,
            args: &mut Args,
            mut words: impl Iterator<Item = &'a str>,
        ) -> Vec<&'a str> {
            let mut given = Vec::new();
            while let Some(flag) = words.next() {
                if flag == "--help" || flag == "-h" {
                    self.usage();
                }
                if !self
                    .flags
                    .split_whitespace()
                    .any(|accepted| accepted == flag)
                {
                    eprintln!("{}: unknown flag {flag:?}", self.name);
                    self.usage();
                }
                match row(flag) {
                    Switch(set) => set(args),
                    Value(_, set) => {
                        let value = words
                            .next()
                            .unwrap_or_else(|| fail(format_args!("{flag} needs a value")));
                        set(args, flag, value);
                    }
                }
                given.push(flag);
            }
            given
        }

        /// Print the usage text, built from the rows of the accepted flags,
        /// and exit 2.
        fn usage(&self) -> ! {
            let mut text = format!("usage: {}", self.name);
            let indent = text.len();
            let mut width = indent;
            for flag in self.flags.split_whitespace() {
                let item = match row(flag) {
                    Switch(_) => format!(" [{flag}]"),
                    Value(metavar, _) => format!(" [{flag} {metavar}]"),
                };
                if width + item.len() > 80 {
                    text += &format!("\n{:indent$}", "");
                    width = indent;
                }
                text += &item;
                width += item.len();
            }
            eprintln!("{text}");
            exit(2);
        }
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
    fn parse_list<T: FromStr>(flag: &str, value: &str) -> Vec<T> {
        each(
            value,
            |v| v.parse().ok(),
            |v| format!("invalid value {v:?} for {flag}"),
        )
    }

    /// For flags that take exactly one value: reject comma lists instead of
    /// silently using the first element.
    fn parse_scalar<T: FromStr>(flag: &str, value: &str) -> T {
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
    fn parse_count<T: FromStr + Default + PartialEq>(flag: &str, value: &str) -> T {
        let n = parse_scalar(flag, value);
        if n == T::default() {
            fail(format!("{flag} must be at least 1, got 0"));
        }
        n
    }

    /// A comma-separated list of `axis` labels, each read by `parse`; an
    /// unknown label fails naming the axis and its `grammar`.
    fn parse_labels<T>(
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
    fn parse_fabrics(value: &str) -> Vec<FabricKind> {
        parse_labels(value, FabricKind::parse, "fabric", "awgr|wave|spatial")
    }

    /// `--policy`: `static`, `greedy`, `hystX` with `0 <= X <= 1`.
    fn parse_policies(value: &str) -> Vec<ReallocationPolicy> {
        parse_labels(
            value,
            ReallocationPolicy::parse,
            "policy",
            "static|greedy|hystX, 0<=X<=1",
        )
    }

    /// `--energy` / `--mode`: `always` (or `always-on`), `util` (or
    /// `utilization`).
    fn parse_energy_modes(value: &str) -> Vec<EnergyMode> {
        parse_labels(value, EnergyMode::parse, "energy mode", "always|util")
    }

    /// `--spectrum`: an admission rule, optionally suffixed with a
    /// defragmentation rule.
    fn parse_spectrum(value: &str) -> Vec<SpectrumPolicy> {
        parse_labels(
            value,
            SpectrumPolicy::parse,
            "spectrum policy",
            "firstfit|bestfit|exactfit[+defrag|+repack]",
        )
    }

    /// `--pattern`: traffic patterns at `demand_gbps` per flow —
    /// `uniformN` (N flows per MCM), `permutation`, `hotspotN` (N hot
    /// destinations), `neighborN` (N neighbours per side), `alltoall`.
    fn parse_patterns(value: &str, demand_gbps: f64) -> Vec<TrafficPattern> {
        let pattern = |label: &str| {
            let numbered = |prefix: &str| label.strip_prefix(prefix)?.parse().ok();
            if let Some(flows_per_mcm) = numbered("uniform") {
                return Some(TrafficPattern::Uniform {
                    flows_per_mcm,
                    demand_gbps,
                });
            }
            if let Some(hot_mcms) = numbered("hotspot") {
                return Some(TrafficPattern::HotSpot {
                    hot_mcms,
                    demand_gbps,
                });
            }
            if let Some(neighbors) = numbered("neighbor") {
                return Some(TrafficPattern::NearestNeighbor {
                    neighbors,
                    demand_gbps,
                });
            }
            match label {
                "permutation" => Some(TrafficPattern::Permutation { demand_gbps }),
                "alltoall" => Some(TrafficPattern::AllToAll { demand_gbps }),
                _ => None,
            }
        };
        parse_labels(
            value,
            pattern,
            "pattern",
            "uniformN|permutation|hotspotN|neighborN|alltoall",
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
    fn parse_schedules(
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
}
