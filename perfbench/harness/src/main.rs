//! The benchmark harness: runs one named workload for a fixed time on one
//! worker thread, checks every output, and prints its metrics as one JSON
//! line.
//!
//! ```text
//! perfbench --workload reference-sweep|temporal-energy|sweepd-jobs
//!           --seed N --seconds S --trace 0|1 [--quick] [--probe-setup]
//! ```
//!
//! * `--trace 0` times the user-facing entry points only (`SweepGrid::run`;
//!   `JobSpec::from_json` + `JobRunner::run`) and reports the end-to-end
//!   metrics.
//! * `--trace 1` alternates an untraced pass with a traced one that
//!   re-drives the same work through the public layer functions
//!   (`replica`), and reports the per-layer metrics. Traced rows must
//!   equal the untraced rows bit for bit.
//! * `--probe-setup` runs only the first (set-up) pass and prints its time.
//! * `--quick` shrinks every grid to a few scenarios (for self-tests).
//!
//! The first pass of every process is untimed set-up: it warms the
//! allocator and page cache and provides the reference output bytes that
//! every later pass must reproduce.

mod inputs;
mod replica;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use disagg_core::jobs::{JobOutcome, JobRunner, JobSpec};
use disagg_core::report::{ReuseStats, SweepReport};
use disagg_core::sweep::SweepGrid;

use inputs::Workload;
use trace::Tracer;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    probe_setup: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload reference-sweep|temporal-energy|sweepd-jobs \
         --seed N --seconds S --trace 0|1 [--quick] [--probe-setup]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut quick = false;
    let mut probe_setup = false;
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
                i += 1;
            }
            "--seed" => {
                seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed")));
                i += 1;
            }
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
                i += 1;
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
                i += 1;
            }
            "--quick" => quick = true,
            "--probe-setup" => probe_setup = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace,
        quick,
        probe_setup,
    }
}

/// FNV-1a over output bytes: the per-workload output digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output checks: every one counts as attempted; a failure is counted and
/// described, never fatal (except traced-row drift, which aborts).
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// What one untraced pass measured and produced.
struct Pass {
    /// Wall time of the whole pass (every user-facing call in it).
    wall_s: f64,
    /// Wall time of each call: one per grid for the sweeps; cold job,
    /// resubmission and sampled job for `sweepd-jobs`.
    steps_s: Vec<f64>,
    /// Output bytes digest of each call.
    digests: Vec<u64>,
    /// The reports, in call order.
    reports: Vec<SweepReport>,
    /// Reuse counters summed over the calls that executed scenarios.
    reuse: ReuseStats,
    shards_written: usize,
    shards_from_cache: usize,
}

struct Bench {
    workload: Workload,
    workdir: PathBuf,
    /// The sweep workloads' grids, run in order each pass.
    grids: Vec<SweepGrid>,
    /// `sweepd-jobs`: the exact and sampled job files, and the parsed grid.
    exact_job: String,
    sampled_job: String,
    jobs_grid: Option<SweepGrid>,
    passes_run: usize,
    checks: Checks,
    /// First pass's digests: the bytes every later pass must reproduce.
    reference: Vec<u64>,
    /// The latest traced pass's spans and its root spans.
    last_trace: Option<(Tracer, Vec<usize>)>,
}

fn add_reuse(total: &mut ReuseStats, r: Option<&ReuseStats>) {
    if let Some(r) = r {
        total.groups += r.groups;
        total.leaders_solved += r.leaders_solved;
        total.followers_replayed += r.followers_replayed;
        total.matrices_reused += r.matrices_reused;
        total.solver_s_saved += r.solver_s_saved;
    }
}

fn run_job(text: &str, runner: &JobRunner) -> JobOutcome {
    JobSpec::from_json(text)
        .and_then(|spec| runner.run(&spec))
        .unwrap_or_else(|e| panic!("job failed: {e}"))
}

impl Bench {
    fn new(workload: Workload, seed: u64, quick: bool) -> Self {
        let workdir = PathBuf::from(".perfbench").join(format!(
            "{}-{}-{}",
            workload.name(),
            seed,
            std::process::id()
        ));
        let (grids, exact_job, sampled_job, jobs_grid) = match workload {
            Workload::ReferenceSweep => (
                vec![inputs::reference_grid(seed, quick)],
                String::new(),
                String::new(),
                None,
            ),
            Workload::TemporalEnergy => (
                vec![
                    inputs::timeline_grid(seed, quick),
                    inputs::flexgrid_grid(seed, quick),
                ],
                String::new(),
                String::new(),
                None,
            ),
            Workload::SweepdJobs => {
                let grid = inputs::jobs_grid(seed, quick);
                let exact = inputs::exact_job_json(&grid, quick);
                let sampled = inputs::sampled_job_json(&grid, quick);
                let parsed = JobSpec::from_json(&exact)
                    .expect("pinned job file parses")
                    .grid;
                (Vec::new(), exact, sampled, Some(parsed))
            }
        };
        Bench {
            workload,
            workdir,
            grids,
            exact_job,
            sampled_job,
            jobs_grid,
            passes_run: 0,
            checks: Checks::default(),
            reference: Vec::new(),
            last_trace: None,
        }
    }

    /// Scenarios behind `scenarios_per_s`: every grid scenario of a sweep
    /// pass, or the exact job's scenarios.
    fn primary_scenarios(&self) -> usize {
        match &self.jobs_grid {
            Some(grid) => grid.scenario_count(),
            None => self.grids.iter().map(SweepGrid::scenario_count).sum(),
        }
    }

    /// Wall time behind `scenarios_per_s`: the whole sweep pass, or the
    /// cold exact job.
    fn primary_wall(&self, pass: &Pass) -> f64 {
        match self.workload {
            Workload::SweepdJobs => pass.steps_s[0],
            _ => pass.wall_s,
        }
    }

    fn untraced_pass(&mut self) -> Pass {
        let mut steps_s = Vec::new();
        let mut reports = Vec::new();
        let mut reuse = ReuseStats {
            groups: 0,
            leaders_solved: 0,
            followers_replayed: 0,
            matrices_reused: 0,
            solver_s_saved: 0.0,
        };
        let (mut shards_written, mut shards_from_cache) = (0, 0);
        if self.workload == Workload::SweepdJobs {
            let dir = self.workdir.join(format!("cache{}", self.passes_run));
            let runner = JobRunner::new(&dir);
            for text in [&self.exact_job, &self.exact_job, &self.sampled_job] {
                let started = Instant::now();
                let outcome = black_box(run_job(text, &runner));
                steps_s.push(started.elapsed().as_secs_f64());
                add_reuse(&mut reuse, outcome.reuse.as_ref());
                shards_written += outcome.shards_executed;
                shards_from_cache += outcome.shards_from_cache;
                reports.push(outcome.report);
            }
            let _ = fs::remove_dir_all(&dir);
        } else {
            for grid in &self.grids {
                let started = Instant::now();
                let report = black_box(grid.run());
                steps_s.push(started.elapsed().as_secs_f64());
                add_reuse(&mut reuse, report.reuse.as_ref());
                reports.push(report);
            }
        }
        self.passes_run += 1;
        let digests: Vec<u64> = reports
            .iter()
            .map(|r| fnv1a(r.to_json().as_bytes()))
            .collect();
        let pass = Pass {
            wall_s: steps_s.iter().sum(),
            steps_s,
            digests,
            reports,
            reuse,
            shards_written,
            shards_from_cache,
        };
        self.check_pass(&pass);
        pass
    }

    /// Per-pass output checks. The first pass pins the reference bytes.
    fn check_pass(&mut self, pass: &Pass) {
        if self.reference.is_empty() {
            self.reference = pass.digests.clone();
            match self.workload {
                Workload::SweepdJobs => self.check_jobs_against_sweep(pass),
                _ => {
                    for (grid, report) in self.grids.iter().zip(&pass.reports) {
                        self.checks
                            .check(report.rows.len() == grid.scenario_count(), || {
                                format!("{}: {} rows", grid.name, report.rows.len())
                            });
                    }
                }
            }
        }
        for (i, (&got, &want)) in pass.digests.iter().zip(&self.reference).enumerate() {
            self.checks.check(got == want, || {
                format!(
                    "pass {}: output {i} bytes differ from the first pass",
                    self.passes_run
                )
            });
        }
        if self.workload == Workload::SweepdJobs {
            self.checks.check(pass.digests[1] == pass.digests[0], || {
                "resubmitted job differs from the cold job".to_string()
            });
        }
    }

    /// `sweepd-jobs` against the exhaustive engine: the merged report must
    /// be byte-identical to `SweepGrid::run`, and every sampled summary
    /// metric must fall within its declared bound of it.
    fn check_jobs_against_sweep(&mut self, pass: &Pass) {
        let grid = self.jobs_grid.as_ref().expect("jobs workload has a grid");
        let exhaustive = grid.run();
        let cold = &pass.reports[0];
        self.checks
            .check(cold.to_json() == exhaustive.to_json(), || {
                "merged job report differs from SweepGrid::run".to_string()
            });
        let sampled = &pass.reports[2];
        let stats = sampled.sampling.as_ref();
        self.checks.check(stats.is_some_and(|s| !s.exact), || {
            "sampled job did not sample".to_string()
        });
        for (name, value) in &sampled.summary {
            let Some(bound) = stats.and_then(|s| s.bound(name)) else {
                continue;
            };
            let exact = exhaustive.summary_metric(name).unwrap_or(f64::NAN);
            self.checks.check((value - exact).abs() <= bound, || {
                format!("sampled {name} = {value}, exhaustive {exact}, bound {bound}")
            });
        }
    }

    /// Re-drive the pass's work through the public layer functions with
    /// spans on, check its rows against the untraced pass, and return the
    /// per-layer sample.
    fn traced_pass(&mut self, untraced: &Pass) -> BTreeMap<&'static str, f64> {
        let mut tr = Tracer::new();
        let mut c = replica::Counters::default();
        let mut roots = Vec::new();
        let mut traced_reports = Vec::new();
        if self.workload == Workload::SweepdJobs {
            let dir = self.workdir.join(format!("traced{}", self.passes_run));
            let jobs = [
                ("job.cold", &self.exact_job),
                ("job.resume", &self.exact_job),
                ("job.sampled", &self.sampled_job),
            ];
            for (name, text) in jobs {
                let root = tr.open(name);
                let report = replica::run_job(text, &dir, &mut tr, &mut c)
                    .unwrap_or_else(|e| panic!("traced {name} failed: {e}"));
                tr.close(root);
                roots.push(root);
                traced_reports.push(report);
            }
            let _ = fs::remove_dir_all(&dir);
        } else {
            for grid in &self.grids {
                let root = tr.open("grid.run");
                traced_reports.push(replica::run_grid(grid, &mut tr, &mut c));
                tr.close(root);
                roots.push(root);
            }
        }
        for (traced, real) in traced_reports.iter().zip(&untraced.reports) {
            assert_rows_match(traced, real);
            self.checks.check(traced.to_json() == real.to_json(), || {
                format!("traced {} differs from the untraced report", real.name)
            });
        }
        let sample = layer_sample(&tr, &roots, &c, untraced);
        self.last_trace = Some((tr, roots));
        sample
    }
}

/// Traced rows must equal the untraced rows bit for bit in satisfaction,
/// latency and energy; anything else means the replica drifted from the
/// engine, and the run stops.
fn assert_rows_match(traced: &SweepReport, real: &SweepReport) {
    assert_eq!(
        traced.rows.len(),
        real.rows.len(),
        "traced {} has {} rows, untraced {}",
        real.name,
        traced.rows.len(),
        real.rows.len()
    );
    for (t, r) in traced.rows.iter().zip(&real.rows) {
        for metric in ["satisfaction", "mean_latency_ns", "energy_j"] {
            let bits = |row: &disagg_core::report::SweepRow| row.metric(metric).map(f64::to_bits);
            assert_eq!(
                bits(t),
                bits(r),
                "traced row {} drifted from the engine in {metric}: {:?} vs {:?}",
                r.label,
                t.metric(metric),
                r.metric(metric)
            );
        }
    }
}

const ROOTS: [&str; 4] = ["grid.run", "job.cold", "job.resume", "job.sampled"];

/// Per-layer values of one traced pass (times are span self times).
fn layer_sample(
    tr: &Tracer,
    roots: &[usize],
    c: &replica::Counters,
    untraced: &Pass,
) -> BTreeMap<&'static str, f64> {
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut attributed = Vec::new();
    for &root in roots {
        let by_name = tr.self_time_by_name(root);
        attributed.push(
            by_name
                .iter()
                .filter(|(name, _)| !ROOTS.contains(name))
                .map(|(_, s)| s)
                .sum::<f64>(),
        );
        for (name, s) in by_name {
            *self_s.entry(name).or_insert(0.0) += s;
        }
    }
    let s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let traced_wall: f64 = roots.iter().map(|&r| tr.spans()[r].duration_s()).sum();
    let reuse = &untraced.reuse;
    let jobs = untraced.steps_s.len() == 3 && roots.len() == 3;
    let sampling = untraced.reports.last().and_then(|r| r.sampling.as_ref());
    let flow_solves = c.flow_solves as f64;
    let mut m = BTreeMap::new();
    m.insert("demand.expand_s", s("demand.expand"));
    m.insert("demand.lookup_s", s("demand.lookup"));
    m.insert("demand.flows_generated", c.flows_generated as f64);
    m.insert(
        "demand.memo_hit_ratio",
        ratio(reuse.matrices_reused as f64, reuse.leaders_solved as f64),
    );
    m.insert("fabric.build_s", s("fabric.build"));
    m.insert("flowsim.solves", flow_solves);
    m.insert("flowsim.solve_s", s("flowsim.solve"));
    m.insert(
        "flowsim.ns_per_flow",
        ratio(s("flowsim.solve") * 1e9, c.flows_solved as f64),
    );
    m.insert(
        "flowsim.no_indirect_share",
        ratio(c.flow_no_indirect as f64, flow_solves),
    );
    m.insert(
        "flowsim.distinct_outcome_ratio",
        ratio(c.flow_outcomes.len() as f64, flow_solves),
    );
    m.insert("timeline.solves", c.timeline_solves as f64);
    m.insert("timeline.solve_s", s("timeline.solve"));
    m.insert(
        "timeline.us_per_epoch",
        ratio(s("timeline.solve") * 1e6, c.timeline_epochs as f64),
    );
    m.insert(
        "timeline.reconfigurations",
        c.timeline_reconfigurations as f64,
    );
    m.insert("flexgrid.solves", c.flexgrid_solves as f64);
    m.insert("flexgrid.solve_s", s("flexgrid.solve"));
    m.insert(
        "flexgrid.us_per_epoch",
        ratio(s("flexgrid.solve") * 1e6, c.flexgrid_epochs as f64),
    );
    m.insert(
        "flexgrid.blocking_probability",
        ratio(c.flexgrid_blocked as f64, c.flexgrid_requests as f64),
    );
    m.insert("flexgrid.defrag_events", c.flexgrid_defrag_events as f64);
    m.insert("energy.accounts", c.energy_accounts as f64);
    m.insert("energy.account_s", s("energy.account"));
    m.insert("grid.decode_s", s("grid.decode"));
    m.insert("exec.leaders_solved", reuse.leaders_solved as f64);
    m.insert("exec.followers_replayed", reuse.followers_replayed as f64);
    m.insert("exec.dedup_ratio", reuse.hit_rate());
    m.insert("exec.plan_s", s("exec.plan"));
    m.insert("exec.replay_s", s("exec.replay"));
    m.insert("exec.untraced_wall_s", untraced.wall_s);
    m.insert(
        "exec.unattributed_s",
        untraced.wall_s - attributed.iter().sum::<f64>(),
    );
    m.insert("report.row_s", s("report.row"));
    m.insert("report.fold_s", s("report.fold"));
    m.insert("codec.encode_s", s("codec.encode"));
    m.insert("codec.encode_mb", c.encode_bytes as f64 / 1e6);
    m.insert("codec.parse_s", s("codec.parse"));
    m.insert("codec.parse_mb", c.parse_bytes as f64 / 1e6);
    m.insert("jobs.spec_s", s("jobs.spec"));
    m.insert("jobs.shards_written", untraced.shards_written as f64);
    m.insert("jobs.shards_from_cache", untraced.shards_from_cache as f64);
    m.insert("jobs.shard_write_s", s("jobs.shard_write"));
    m.insert("jobs.shard_read_s", s("jobs.shard_read"));
    m.insert("jobs.merge_s", s("jobs.merge"));
    m.insert(
        "jobs.job_wall_s",
        if jobs { untraced.steps_s[0] } else { 0.0 },
    );
    m.insert(
        "jobs.resume_wall_s",
        if jobs { untraced.steps_s[1] } else { 0.0 },
    );
    m.insert(
        "jobs.unattributed_s",
        if jobs {
            untraced.steps_s[0] - attributed[0]
        } else {
            0.0
        },
    );
    m.insert("sample.plan_s", s("sample.plan"));
    m.insert(
        "sample.evaluated",
        sampling.map_or(0.0, |st| st.evaluated as f64),
    );
    m.insert(
        "sample.reduction",
        sampling.map_or(0.0, |st| st.reduction()),
    );
    m.insert(
        "sample.job_wall_s",
        if jobs { untraced.steps_s[2] } else { 0.0 },
    );
    m.insert("trace.overhead_s", traced_wall - untraced.wall_s);
    m
}

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("scenarios_per_s", "1/s"),
    ("pass_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload prints all
/// of them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("demand.expand_s", "s"),
    ("demand.lookup_s", "s"),
    ("demand.flows_generated", "count"),
    ("demand.memo_hit_ratio", "ratio"),
    ("fabric.build_s", "s"),
    ("flowsim.solves", "count"),
    ("flowsim.solve_s", "s"),
    ("flowsim.ns_per_flow", "ns"),
    ("flowsim.no_indirect_share", "ratio"),
    ("flowsim.distinct_outcome_ratio", "ratio"),
    ("timeline.solves", "count"),
    ("timeline.solve_s", "s"),
    ("timeline.us_per_epoch", "us"),
    ("timeline.reconfigurations", "count"),
    ("flexgrid.solves", "count"),
    ("flexgrid.solve_s", "s"),
    ("flexgrid.us_per_epoch", "us"),
    ("flexgrid.blocking_probability", "ratio"),
    ("flexgrid.defrag_events", "count"),
    ("energy.accounts", "count"),
    ("energy.account_s", "s"),
    ("grid.decode_s", "s"),
    ("exec.leaders_solved", "count"),
    ("exec.followers_replayed", "count"),
    ("exec.dedup_ratio", "ratio"),
    ("exec.plan_s", "s"),
    ("exec.replay_s", "s"),
    ("exec.untraced_wall_s", "s"),
    ("exec.unattributed_s", "s"),
    ("report.row_s", "s"),
    ("report.fold_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.encode_mb", "MB"),
    ("codec.parse_s", "s"),
    ("codec.parse_mb", "MB"),
    ("jobs.spec_s", "s"),
    ("jobs.shards_written", "count"),
    ("jobs.shards_from_cache", "count"),
    ("jobs.shard_write_s", "s"),
    ("jobs.shard_read_s", "s"),
    ("jobs.merge_s", "s"),
    ("jobs.job_wall_s", "s"),
    ("jobs.resume_wall_s", "s"),
    ("jobs.unattributed_s", "s"),
    ("sample.plan_s", "s"),
    ("sample.evaluated", "count"),
    ("sample.reduction", "ratio"),
    ("sample.job_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.passes", "count"),
    ("trace.rows_checked", "count"),
];

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    disagg_core::sweep::configure_threads(Some(1));
    let mut bench = Bench::new(args.workload, args.seed, args.quick);
    if let Err(e) = fs::create_dir_all(&bench.workdir) {
        eprintln!("perfbench: create {}: {e}", bench.workdir.display());
        exit(1);
    }

    // Set-up: process start through the first pass's user-facing calls
    // (its output checks excluded). The pass itself is not measured.
    let before_first_pass = started.elapsed().as_secs_f64();
    let setup_s = before_first_pass + bench.untraced_pass().wall_s;
    if args.probe_setup {
        let _ = fs::remove_dir_all(&bench.workdir);
        println!("{{\"setup_s\":{}}}", json_number(setup_s));
        exit(if bench.checks.failed == 0 { 0 } else { 1 });
    }

    let measuring = Instant::now();
    let mut primary_walls = Vec::new();
    let mut pass_walls = Vec::new();
    let mut samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let mut pass = bench.untraced_pass();
        primary_walls.push(bench.primary_wall(&pass));
        pass_walls.push(pass.wall_s);
        if args.trace {
            let mut sample = bench.traced_pass(&pass);
            sample.insert(
                "trace.rows_checked",
                pass.reports.iter().map(|r| r.rows.len()).sum::<usize>() as f64,
            );
            samples.push(sample);
        }
        pass.reports.clear();
        // Stop when another pass like the last one would overrun the
        // measuring window.
        let elapsed = measuring.elapsed().as_secs_f64();
        if elapsed + (elapsed - measured_s) >= args.seconds {
            break;
        }
        measured_s = elapsed;
    }
    let _ = fs::remove_dir_all(&bench.workdir);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let (tracer, roots) = bench.last_trace.as_ref().expect("a traced pass ran");
        let trace_path = PathBuf::from(".perfbench").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = fs::write(&trace_path, tracer.to_jsonl()) {
            eprintln!("perfbench: write {}: {e}", trace_path.display());
        }
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.passes" => samples.len() as f64,
                _ => median(
                    &samples
                        .iter()
                        .map(|s| s.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((name, value, unit));
        }
        print_breakdown(tracer, roots);
    } else {
        let scenarios = bench.primary_scenarios() as f64;
        for (name, unit) in END_TO_END {
            let value = match name {
                "scenarios_per_s" => ratio(scenarios, median(&primary_walls)),
                "pass_wall_s" => median(&pass_walls),
                "setup_s" => setup_s,
                "peak_rss_mb" => peak_rss_mb(),
                _ => unreachable!("every end-to-end metric has a value"),
            };
            metrics.push((name, value, unit));
        }
        let walls: Vec<String> = pass_walls.iter().map(|w| format!("{w:.4}")).collect();
        println!(
            "passes {} {} walls_s {}",
            args.workload.name(),
            pass_walls.len(),
            walls.join(",")
        );
    }

    let checks = &bench.checks;
    let digest = fnv1a(
        &bench
            .reference
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    println!("digest {} {digest:016x}", args.workload.name());
    println!(
        "error_rate {} {}",
        args.workload.name(),
        json_number(ratio(checks.failed as f64, checks.attempted as f64))
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(",")
    );
}

/// Human-readable breakdown of the last traced pass, on stderr: each
/// root call's span self times, largest first.
fn print_breakdown(tracer: &Tracer, roots: &[usize]) {
    for &root in roots {
        let span = &tracer.spans()[root];
        eprintln!(
            "traced {} {:.3} ms, self time by layer:",
            span.name,
            span.duration_s() * 1e3
        );
        let mut by_name: Vec<(&str, f64)> = tracer.self_time_by_name(root).into_iter().collect();
        by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, s) in by_name {
            eprintln!("  {name:<20} {:>10.3} ms", s * 1e3);
        }
    }
}
