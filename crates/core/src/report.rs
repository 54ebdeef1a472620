//! Plain-text report formatting for the bench binaries and examples.
//!
//! The harness prints the same rows/series the paper's tables and figures
//! report, so a reader can diff them against the paper side by side.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::codec::DecodeError;
use crate::cpu_experiments::{CpuBenchmarkResult, SuiteSummary};
use crate::energy::{EnergyMode, EnergyStats};
use crate::gpu_experiments::GpuBenchmarkResult;
use crate::rack_analysis::RackAnalysis;
use serde::json::{Event, ParseError, Reader};
use serde::{Deserialize, Serialize};

/// One row of a [`SweepReport`]: a labeled scenario with its input
/// parameters (as display strings) and its output metrics.
///
/// `params` and `metrics` are ordered association lists rather than maps so
/// that serialization order — and therefore the report's JSON byte stream —
/// is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Short scenario label (unique within a report).
    pub label: String,
    /// Input parameters, in declaration order.
    pub params: Vec<(String, String)>,
    /// Output metrics, in declaration order. Non-finite values serialize as
    /// JSON `null`.
    pub metrics: Vec<(String, f64)>,
}

impl SweepRow {
    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Execution-throughput metadata of one sweep run: how many scenarios were
/// executed, how long the wall clock took, and the resulting scenarios/sec.
///
/// This is *measurement* metadata, not a simulation result: it varies run
/// to run with machine load, so it is deliberately excluded from both
/// [`SweepReport`] equality and [`SweepReport::to_json`] — the engine's
/// byte-identical determinism contract is stated over results only. The
/// `sweep --bench` trajectory (`BENCH_sweep.json`) is where throughput
/// numbers get versioned.
///
/// # Example
///
/// ```
/// use disagg_core::sweep::SweepGrid;
///
/// let grid = || SweepGrid::named("t").mcm_counts([16]).replicates(4);
/// let report = grid().run();
/// let t = report.throughput.expect("sweep runs measure throughput");
/// assert_eq!(t.scenarios, 4);
/// assert!(t.scenarios_per_sec() >= 0.0);
/// // Wall-clock metadata never affects result equality or the JSON bytes.
/// assert_eq!(report, grid().run());
/// assert!(!report.to_json().contains("throughput"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputStats {
    /// Scenarios executed (including ones a row cap streamed past).
    pub scenarios: usize,
    /// Wall-clock duration of the execution phase in seconds.
    pub wall_s: f64,
    /// Thread count the run executed with.
    pub threads: usize,
}

impl ThroughputStats {
    /// Scenarios executed per wall-clock second; `0.0` for an instant run.
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.scenarios as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Computation-reuse metadata of one sweep run: how much solver work the
/// executor's dedup-planned reuse layer avoided.
///
/// During lazy expansion the executor keys every scenario of a run by its
/// *physical* solve inputs (fabric topology, load + policy, latency, seed)
/// — axes that only change how a solve is *accounted* (energy mode, FEC
/// energy settings) are factored out, and so is the seed of a static
/// pattern whose demand ignores it, whenever the solve draws no RNG. The
/// first scenario of each group is solved normally (a **leader**); the rest
/// (**followers**) are materialized by replaying the leader's retained
/// report through their own `EnergyModel`, which is bit-identical because
/// energy accounting is a pure function of the report. Independently, a
/// per-batch demand-matrix memo reuses `TrafficPattern::flows` /
/// `DemandTimeline::epoch_matrices` expansions across scenarios that share
/// one (`matrices_reused`).
///
/// Like [`ThroughputStats`], this block is *metadata about how the report
/// was produced*, not a simulation result: reuse never changes a single
/// output byte, and the stats themselves may vary with how a run was cut
/// (a resumed job plans afresh, and past the planner's 4096 retained
/// solves a batch may re-solve what an earlier one did), so the block is
/// deliberately excluded from both [`SweepReport`] equality and
/// [`SweepReport::to_json`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Groups that actually had ≥ 2 members (i.e. produced at least one
    /// follower). Singleton groups are not counted.
    pub groups: usize,
    /// Scenarios solved for real — one per distinct solve per run,
    /// including singletons.
    pub leaders_solved: usize,
    /// Scenarios materialized by replaying a leader's retained report
    /// instead of solving.
    pub followers_replayed: usize,
    /// Demand-matrix expansions served from the per-batch memo instead of
    /// being regenerated.
    pub matrices_reused: usize,
    /// Estimated solver wall-clock avoided, in seconds: each replayed
    /// follower is credited its leader's measured solve time.
    pub solver_s_saved: f64,
}

impl ReuseStats {
    /// Total scenarios the stats cover. On an uninterrupted run this equals
    /// the executed scenario count (leaders and followers partition the
    /// grid); on a resumed job it covers only the shards executed fresh.
    pub fn scenarios(&self) -> usize {
        self.leaders_solved + self.followers_replayed
    }

    /// Fraction of covered scenarios that were replayed rather than solved
    /// (`followers / (leaders + followers)`); `0.0` when nothing ran.
    pub fn hit_rate(&self) -> f64 {
        if self.scenarios() > 0 {
            self.followers_replayed as f64 / self.scenarios() as f64
        } else {
            0.0
        }
    }
}

/// Wavelength-steering accounting of a run: how many timeline steers (flow
/// solves of one epoch's matrix, run when a reallocation policy assigns
/// wavelengths) were solved, and how many were shared — restored from a
/// worker's steer cache because another policy of the same timeline, seed,
/// fabric and latencies had already solved them. Static pattern and
/// flex-grid scenarios steer nothing.
///
/// Like [`ReuseStats`], this block is metadata about how the report was
/// produced: sharing never changes a single output byte, and the split
/// varies with how scenarios land on workers and batches, so it is
/// excluded from both [`SweepReport`] equality and
/// [`SweepReport::to_json`]. With reuse off no matrix is shared, so every
/// steer is solved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteerStats {
    /// Steers that ran the flow solver.
    pub steers_solved: usize,
    /// Steers restored from the steer cache instead of solved.
    pub steers_shared: usize,
}

/// Provenance and accuracy metadata of a representative-scenario sampled
/// sweep (`SweepGrid::run_sampled`): how many clusters the grid was
/// collapsed into, how many scenarios were actually evaluated, the
/// within-cluster feature dispersion, and the per-metric error bounds the
/// sampler declares for its reconstructed summary.
///
/// Like [`ThroughputStats`], this block is *metadata about how the report
/// was produced*, not a simulation result: it is deliberately excluded from
/// both [`SweepReport`] equality and [`SweepReport::to_json`], so the
/// degenerate sampled run (every scenario its own cluster) stays
/// byte-identical to the exhaustive oracle. The accuracy contract the
/// bounds state is pinned against `SweepGrid::run` by
/// `tests/sampling_accuracy.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplingStats {
    /// True when sampling degenerated to the exhaustive path (cluster
    /// budget ≥ scenario count, or the grid too small to pay for
    /// clustering): the report is byte-identical to `run()`.
    pub exact: bool,
    /// Cluster count the sampler was configured with.
    pub clusters: usize,
    /// Scenarios actually simulated (one weighted representative per
    /// non-empty cluster; the full grid in exact mode).
    pub evaluated: usize,
    /// Scenarios the full grid expands to — what the reconstructed summary
    /// estimates.
    pub total: usize,
    /// Weight-averaged RMS distance of scenarios to their cluster centroid
    /// in the normalized feature space (0 = every cluster collapsed onto
    /// identical feature vectors).
    pub mean_dispersion: f64,
    /// Declared absolute error bounds for the reconstructed summary
    /// metrics, in summary order.
    pub error_bounds: Vec<(String, f64)>,
}

impl SamplingStats {
    /// Evaluated-scenario reduction factor (`total / evaluated`); 1.0 in
    /// exact mode.
    pub fn reduction(&self) -> f64 {
        if self.evaluated > 0 {
            self.total as f64 / self.evaluated as f64
        } else {
            1.0
        }
    }

    /// The declared absolute error bound for a summary metric.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.error_bounds
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| *v)
    }

    /// Serialize the block as one standalone JSON object (the `sweep
    /// --sample-report` side channel — deliberately *not* part of
    /// [`SweepReport::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str(&format!(
            "{{\"exact\":{},\"clusters\":{},\"evaluated\":{},\"total\":{},\
             \"reduction\":",
            self.exact, self.clusters, self.evaluated, self.total
        ));
        json_number(&mut out, self.reduction());
        out.push_str(",\"mean_dispersion\":");
        json_number(&mut out, self.mean_dispersion);
        out.push_str(",\"error_bounds\":{");
        for (i, (k, v)) in self.error_bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, k);
            out.push(':');
            json_number(&mut out, *v);
        }
        out.push_str("}}");
        out
    }
}

/// The unified result schema every sweep and ported paper artifact produces:
/// a named collection of scenario rows plus report-level summary metrics.
///
/// The report is the JSON-able interchange format of the harness: the
/// `sweep` binary emits it with `--json`, and the determinism contract of
/// the sweep engine is stated over it (the same grid run twice yields
/// byte-identical [`SweepReport::to_json`] output).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report name (e.g. `"fig9"` or `"sweep"`).
    pub name: String,
    /// One row per executed scenario, in grid-expansion order.
    pub rows: Vec<SweepRow>,
    /// Report-level summary metrics (averages, correlations, totals), in
    /// declaration order.
    pub summary: Vec<(String, f64)>,
    /// Per-scenario energy accounting (`(scenario label, stats)` pairs, in
    /// row order). Empty — and absent from the JSON — unless the producing
    /// grid set an energy axis
    /// ([`SweepGrid::energy_modes`](crate::sweep::SweepGrid::energy_modes)).
    pub energy: Vec<(String, EnergyStats)>,
    /// Wall-clock throughput of the run that produced this report, when the
    /// producer measured one (the sweep engine's `run*` entry points do, and
    /// a `jobs` run measures the shards it executed fresh).
    /// Excluded from equality and from [`to_json`](SweepReport::to_json):
    /// see [`ThroughputStats`].
    pub throughput: Option<ThroughputStats>,
    /// Sampling provenance when the report was reconstructed by
    /// `SweepGrid::run_sampled`, `None` for exhaustive runs. Excluded from
    /// equality and from [`to_json`](SweepReport::to_json): see
    /// [`SamplingStats`].
    pub sampling: Option<SamplingStats>,
    /// Computation-reuse accounting of the run that produced this report,
    /// when the executor ran with reuse enabled (the default); `None` with
    /// `--no-reuse` or for reports not produced by the sweep executor.
    /// Excluded from equality and from [`to_json`](SweepReport::to_json):
    /// see [`ReuseStats`].
    pub reuse: Option<ReuseStats>,
    /// Timeline-steering accounting of the run that produced this report,
    /// when the sweep executor produced it. Excluded from equality and
    /// from [`to_json`](SweepReport::to_json): see [`SteerStats`].
    pub steering: Option<SteerStats>,
}

/// Result equality only — [`ThroughputStats`] is run-to-run wall-clock
/// metadata and deliberately ignored, so "same grid ⇒ equal reports" holds
/// at any thread count and machine speed.
impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.rows == other.rows
            && self.summary == other.summary
            && self.energy == other.energy
    }
}

impl SweepReport {
    /// Create an empty report.
    pub fn new(name: impl Into<String>) -> Self {
        SweepReport {
            name: name.into(),
            rows: Vec::new(),
            summary: Vec::new(),
            energy: Vec::new(),
            throughput: None,
            sampling: None,
            reuse: None,
            steering: None,
        }
    }

    /// Look up a scenario's energy stats by row label.
    pub fn energy_for(&self, label: &str) -> Option<&EnergyStats> {
        self.energy.iter().find(|(l, _)| l == label).map(|(_, e)| e)
    }

    /// Number of scenario rows.
    pub fn scenario_count(&self) -> usize {
        self.rows.len()
    }

    /// Look up a summary metric by name.
    pub fn summary_metric(&self, name: &str) -> Option<f64> {
        self.summary
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Serialize the report to a single-line JSON string.
    ///
    /// The vendored offline `serde` shim cannot serialize, so the writer is
    /// hand-rolled; output is deterministic because all collections are
    /// ordered and float formatting uses Rust's shortest-round-trip
    /// representation. Non-finite metric values become `null`.
    pub fn to_json(&self) -> String {
        // Entries of one report encode to similar lengths, so each list
        // reserves room for the rest of itself once its first entry is out.
        let reserve_rest = |out: &mut String, first: usize, len: usize| {
            out.reserve((out.len() - first + 1) * (len - 1) + 2);
        };
        let mut out = String::with_capacity(256);
        out.push_str("{\"name\":");
        json_string(&mut out, &self.name);
        write!(out, ",\"scenarios\":{}", self.rows.len()).expect("writing to a String cannot fail");
        out.push_str(",\"summary\":{");
        for (i, (k, v)) in self.summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, k);
            out.push(':');
            json_number(&mut out, *v);
        }
        out.push('}');
        if !self.energy.is_empty() {
            out.push_str(",\"energy\":[");
            for (i, (label, e)) in self.energy.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let first = out.len();
                out.push_str("{\"label\":");
                json_string(&mut out, label);
                out.push_str(",\"mode\":");
                json_string(&mut out, e.mode.label());
                for (k, v) in [
                    ("duration_s", e.duration_s),
                    ("payload_gigabits", e.payload_gigabits),
                    ("joules", e.total_joules()),
                    ("watts", e.watts()),
                    ("pj_per_bit", e.pj_per_bit()),
                    ("photonic_compute_ratio", e.photonic_compute_ratio()),
                    ("transceiver_j", e.transceiver_energy_j),
                    ("fec_j", e.fec_energy_j),
                    ("reconfiguration_j", e.reconfiguration_energy_j),
                    ("idle_j", e.idle_energy_j),
                    // The one raw field the derived metrics above don't
                    // determine; emitting it makes the block a lossless
                    // round-trip for `from_json`.
                    ("compute_power_w", e.compute_power_w),
                ] {
                    out.push(',');
                    json_string(&mut out, k);
                    out.push(':');
                    json_number(&mut out, v);
                }
                out.push('}');
                if i == 0 {
                    reserve_rest(&mut out, first, self.energy.len());
                }
            }
            out.push(']');
        }
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let first = out.len();
            out.push_str("{\"label\":");
            json_string(&mut out, &row.label);
            out.push_str(",\"params\":{");
            for (j, (k, v)) in row.params.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, k);
                out.push(':');
                json_string(&mut out, v);
            }
            out.push_str("},\"metrics\":{");
            for (j, (k, v)) in row.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, k);
                out.push(':');
                json_number(&mut out, *v);
            }
            out.push_str("}}");
            if i == 0 {
                reserve_rest(&mut out, first, self.rows.len());
            }
        }
        out.push_str("]}");
        out
    }

    /// Parse a report serialized by [`SweepReport::to_json`].
    ///
    /// The inverse of the writer: every retained field round-trips
    /// **byte-identically** (`to_json` → `from_json` → `to_json`
    /// reproduces the input bytes). Floats survive because the writer emits
    /// shortest-round-trip literals and the parser re-parses them to
    /// identical bits; `null` metrics come back as NaN and re-serialize as
    /// `null`. [`ThroughputStats`] is wall-clock metadata excluded from the
    /// JSON, so a parsed report has `throughput: None` — which
    /// [`PartialEq`] ignores.
    ///
    /// The decoder pulls [`serde::json::Reader`] events straight into the
    /// report, with no intermediate tree. Fields may come in any order;
    /// unknown fields are skipped (their JSON still checked); a repeated
    /// `name`, `scenarios`, `summary`, `energy` or `rows` field, and a
    /// repeated fixed field of a row or energy entry, is ignored after its
    /// first occurrence; `summary`, `params` and `metrics` keep every pair
    /// in document order.
    ///
    /// ```
    /// use disagg_core::sweep::SweepGrid;
    /// use disagg_core::SweepReport;
    ///
    /// let report = SweepGrid::named("rt").mcm_counts([16]).replicates(2).run();
    /// let json = report.to_json();
    /// let parsed = SweepReport::from_json(&json).unwrap();
    /// assert_eq!(parsed, report);
    /// assert_eq!(parsed.to_json(), json);
    /// ```
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        let mut r = Reader::new(text);
        expect(&mut r, Event::BeginObject, || {
            "report: expected object".into()
        })?;
        let mut report = SweepReport::new(String::new());
        let (mut name, mut summary, mut energy, mut rows) = (false, false, false, false);
        let mut scenarios = None;
        while let Some(key) = next_key(&mut r)? {
            match &*key {
                "name" if !name => {
                    report.name = pull_str(&mut r, || "report.name".into())?.into_owned();
                    name = true;
                }
                "summary" if !summary => {
                    pull_f64_pairs(&mut r, &mut report.summary, &|| "summary".into())?;
                    summary = true;
                }
                "energy" if !energy => {
                    decode_array(&mut r, &mut report.energy, "energy", decode_energy_entry)?;
                    energy = true;
                }
                "rows" if !rows => {
                    decode_array(&mut r, &mut report.rows, "rows", decode_row)?;
                    rows = true;
                }
                "scenarios" if scenarios.is_none() => {
                    let declared = match next_event(&mut r)? {
                        Event::Number(text) => text.parse::<u64>().ok(),
                        _ => None,
                    };
                    scenarios = Some(
                        declared
                            .and_then(|n| usize::try_from(n).ok())
                            .ok_or("scenarios: expected unsigned integer")?,
                    );
                }
                _ => r.skip_value().map_err(parse_error)?,
            }
        }
        r.finish().map_err(parse_error)?;
        for (seen, field) in [(name, "name"), (summary, "summary"), (rows, "rows")] {
            if !seen {
                return Err(missing("report", field));
            }
        }
        let declared = scenarios.ok_or_else(|| missing("report", "scenarios"))?;
        if declared != report.rows.len() {
            return Err(format!(
                "report: scenarios field says {declared} but {} rows present",
                report.rows.len()
            ));
        }
        Ok(report)
    }
}

// Pull-decoding helpers for `SweepReport::from_json`. Field paths such as
// `rows[3].satisfaction` are formatted only when an error is returned.

fn parse_error(e: ParseError) -> DecodeError {
    format!("report: {e}")
}

fn missing(ctx: &str, field: &str) -> DecodeError {
    format!("{ctx}: missing field {field:?}")
}

fn next_event<'a>(r: &mut Reader<'a>) -> Result<Event<'a>, DecodeError> {
    r.next_event().map_err(parse_error)
}

fn next_key<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, DecodeError> {
    r.next_key().map_err(parse_error)
}

/// The next event must be `want` (a container's begin).
fn expect(
    r: &mut Reader<'_>,
    want: Event<'_>,
    error: impl FnOnce() -> DecodeError,
) -> Result<(), DecodeError> {
    if next_event(r)? == want {
        Ok(())
    } else {
        Err(error())
    }
}

/// A string value.
fn pull_str<'a>(
    r: &mut Reader<'a>,
    path: impl FnOnce() -> String,
) -> Result<Cow<'a, str>, DecodeError> {
    match next_event(r)? {
        Event::String(s) => Ok(s),
        _ => Err(format!("{}: expected string", path())),
    }
}

/// A number value, or `null` as NaN (the writers' encoding of non-finite
/// values). The literal is parsed from the borrowed input slice.
fn pull_f64(r: &mut Reader<'_>, path: impl FnOnce() -> String) -> Result<f64, DecodeError> {
    match next_event(r)? {
        Event::Number(text) => text
            .parse()
            .map_err(|_| format!("{}: expected number", path())),
        Event::Null => Ok(f64::NAN),
        _ => Err(format!("{}: expected number", path())),
    }
}

/// An object of numbers, appended to `out` pair by pair in document order.
fn pull_f64_pairs(
    r: &mut Reader<'_>,
    out: &mut Vec<(String, f64)>,
    ctx: &dyn Fn() -> String,
) -> Result<(), DecodeError> {
    expect(r, Event::BeginObject, || {
        format!("{}: expected object", ctx())
    })?;
    while let Some(key) = next_key(r)? {
        let v = pull_f64(r, || format!("{}.{key}", ctx()))?;
        out.push((key.into_owned(), v));
    }
    Ok(())
}

/// An array of objects, each decoded by `entry` (called after the
/// object's `{` with the entry's index and the previous entry, if any).
fn decode_array<'a, T>(
    r: &mut Reader<'a>,
    out: &mut Vec<T>,
    field: &str,
    entry: fn(&mut Reader<'a>, usize, Option<&T>) -> Result<T, DecodeError>,
) -> Result<(), DecodeError> {
    expect(r, Event::BeginArray, || format!("{field}: expected array"))?;
    loop {
        match next_event(r)? {
            Event::EndArray => return Ok(()),
            Event::BeginObject => {
                let decoded = entry(r, out.len(), out.last())?;
                out.push(decoded);
            }
            _ => return Err(format!("{field}[{}]: expected object", out.len())),
        }
    }
}

/// One `rows` entry. The previous row's pair counts size this row's
/// lists, so a uniform report allocates each list once.
fn decode_row(
    r: &mut Reader<'_>,
    i: usize,
    previous: Option<&SweepRow>,
) -> Result<SweepRow, DecodeError> {
    let ctx = || format!("rows[{i}]");
    let mut label = None;
    let mut params: Option<Vec<(String, String)>> = None;
    let mut metrics = None;
    while let Some(key) = next_key(r)? {
        match &*key {
            "label" if label.is_none() => {
                label = Some(pull_str(r, || format!("{}.label", ctx()))?.into_owned());
            }
            "params" if params.is_none() => {
                let mut list = Vec::with_capacity(previous.map_or(0, |p| p.params.len()));
                expect(r, Event::BeginObject, || {
                    format!("{}: expected object", ctx())
                })?;
                while let Some(key) = next_key(r)? {
                    let value = pull_str(r, || format!("{}.{key}", ctx()))?;
                    list.push((key.into_owned(), value.into_owned()));
                }
                params = Some(list);
            }
            "metrics" if metrics.is_none() => {
                let mut list = Vec::with_capacity(previous.map_or(0, |p| p.metrics.len()));
                pull_f64_pairs(r, &mut list, &ctx)?;
                metrics = Some(list);
            }
            _ => r.skip_value().map_err(parse_error)?,
        }
    }
    Ok(SweepRow {
        label: label.ok_or_else(|| missing(&ctx(), "label"))?,
        params: params.ok_or_else(|| missing(&ctx(), "params"))?,
        metrics: metrics.ok_or_else(|| missing(&ctx(), "metrics"))?,
    })
}

/// The raw [`EnergyStats`] fields an `energy` entry carries, in struct
/// order. The derived metrics the writer also emits (`joules`, `watts`,
/// `pj_per_bit`, `photonic_compute_ratio`) are skipped: re-serialization
/// recomputes them bit-identically.
const ENERGY_FIELDS: [&str; 7] = [
    "duration_s",
    "payload_gigabits",
    "transceiver_j",
    "fec_j",
    "reconfiguration_j",
    "idle_j",
    "compute_power_w",
];

/// One `energy` entry: its row label and stats.
fn decode_energy_entry(
    r: &mut Reader<'_>,
    i: usize,
    _previous: Option<&(String, EnergyStats)>,
) -> Result<(String, EnergyStats), DecodeError> {
    let ctx = || format!("energy[{i}]");
    let mut label = None;
    let mut mode = None;
    let mut raw = [None; ENERGY_FIELDS.len()];
    while let Some(key) = next_key(r)? {
        match &*key {
            "label" if label.is_none() => {
                label = Some(pull_str(r, || format!("{}.label", ctx()))?.into_owned());
            }
            "mode" if mode.is_none() => {
                let text = pull_str(r, || format!("{}.mode", ctx()))?;
                mode = Some(
                    EnergyMode::parse(&text)
                        .ok_or_else(|| format!("{}.mode: unknown energy mode {text:?}", ctx()))?,
                );
            }
            other => match ENERGY_FIELDS.iter().position(|f| *f == other) {
                Some(j) if raw[j].is_none() => {
                    raw[j] = Some(pull_f64(r, || format!("{}.{other}", ctx()))?);
                }
                _ => r.skip_value().map_err(parse_error)?,
            },
        }
    }
    let label = label.ok_or_else(|| missing(&ctx(), "label"))?;
    let mode = mode.ok_or_else(|| missing(&ctx(), "mode"))?;
    let raw = |j: usize| raw[j].ok_or_else(|| missing(&ctx(), ENERGY_FIELDS[j]));
    Ok((
        label,
        EnergyStats {
            mode,
            duration_s: raw(0)?,
            payload_gigabits: raw(1)?,
            transceiver_energy_j: raw(2)?,
            fec_energy_j: raw(3)?,
            reconfiguration_energy_j: raw(4)?,
            idle_energy_j: raw(5)?,
            compute_power_w: raw(6)?,
        },
    ))
}

/// Append a JSON string literal (shared with the grid/job writers).
/// Unescaped runs are copied whole; they end at ASCII bytes, so every
/// slice falls on a character boundary.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a JSON number: shortest-round-trip for finite values (so parsing
/// recovers identical bits), `null` for non-finite. Formats straight into
/// `out`.
pub(crate) fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Format a [`SweepReport`] as an aligned plain-text table: one line per
/// row, metrics as `name=value` columns, followed by the summary metrics.
pub fn format_sweep_report(report: &SweepReport) -> String {
    let mut out = String::new();
    let title = format!(
        "{} — {} scenario{}",
        report.name,
        report.rows.len(),
        if report.rows.len() == 1 { "" } else { "s" }
    );
    out.push_str(&title);
    out.push('\n');
    out.push_str(&"-".repeat(title.chars().count().max(20)));
    out.push('\n');
    let label_width = report
        .rows
        .iter()
        .map(|r| r.label.chars().count())
        .max()
        .unwrap_or(8)
        .max(8);
    for row in &report.rows {
        out.push_str(&format!("{:<label_width$} ", row.label));
        for (k, v) in &row.metrics {
            out.push_str(&format!(" {k}={v:.4}"));
        }
        out.push('\n');
    }
    if !report.energy.is_empty() {
        out.push_str("energy:\n");
        for (label, e) in &report.energy {
            out.push_str(&format!(
                "  {label:<label_width$}  {:>12.1} J {:>10.1} W  pJ/bit={:.3}  \
                 photonic/compute={:.2}%  (xcvr {:.1} fec {:.3} reconf {:.1} idle {:.1})\n",
                e.total_joules(),
                e.watts(),
                e.pj_per_bit(),
                e.photonic_compute_ratio() * 100.0,
                e.transceiver_energy_j,
                e.fec_energy_j,
                e.reconfiguration_energy_j,
                e.idle_energy_j,
            ));
        }
    }
    if !report.summary.is_empty() {
        out.push_str("summary:");
        for (k, v) in &report.summary {
            out.push_str(&format!(" {k}={v:.4}"));
        }
        out.push('\n');
    }
    if let Some(r) = &report.reuse {
        out.push_str(&format!(
            "reuse: {} solved + {} replayed across {} dedup group{} ({:.1}% hit), \
             {} matrices reused, ~{:.3} s solver saved\n",
            r.leaders_solved,
            r.followers_replayed,
            r.groups,
            if r.groups == 1 { "" } else { "s" },
            r.hit_rate() * 100.0,
            r.matrices_reused,
            r.solver_s_saved,
        ));
    }
    if let Some(t) = &report.throughput {
        out.push_str(&format!(
            "throughput: {} scenarios in {:.3} s on {} thread{} ({:.0} scenarios/s)\n",
            t.scenarios,
            t.wall_s,
            t.threads,
            if t.threads == 1 { "" } else { "s" },
            t.scenarios_per_sec(),
        ));
    }
    out
}

/// Format the Fig. 6 / Fig. 8 style suite summaries.
pub fn format_suite_summaries(title: &str, summaries: &[SuiteSummary]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<10} {:<8} {:<9} {:>8} {:>10} {:>10}\n",
        "suite", "input", "core", "latency", "avg slow%", "max slow%"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<10} {:<8} {:<9} {:>6}ns {:>9.1}% {:>9.1}%\n",
            s.suite.to_string(),
            s.input.map_or("all".to_string(), |i| i.to_string()),
            s.core_kind.to_string(),
            s.latency_ns,
            s.average_slowdown,
            s.max_slowdown
        ));
    }
    out
}

/// Format the Fig. 7 style per-benchmark slowdown / miss-rate rows.
pub fn format_miss_rate_rows(title: &str, rows: &[(String, f64, f64)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<38} {:>10} {:>12}\n",
        "benchmark", "slowdown%", "LLC miss%"
    ));
    for (name, slowdown, miss) in rows {
        out.push_str(&format!(
            "{:<38} {:>9.1}% {:>11.1}%\n",
            name,
            slowdown,
            miss * 100.0
        ));
    }
    out
}

/// Format per-benchmark CPU results at a single latency (Fig. 8 / Fig. 12
/// series).
pub fn format_cpu_results(
    title: &str,
    results: &[CpuBenchmarkResult],
    latencies_ns: &[f64],
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<38} {:<9}", "benchmark", "core"));
    for l in latencies_ns {
        out.push_str(&format!(" {:>8}", format!("+{l}ns")));
    }
    out.push('\n');
    for r in results {
        out.push_str(&format!(
            "{:<38} {:<9}",
            r.benchmark.id(),
            r.core_kind.to_string()
        ));
        for &l in latencies_ns {
            match r.slowdown_at(l) {
                Some(s) => out.push_str(&format!(" {s:>7.1}%")),
                None => out.push_str(&format!(" {:>8}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Format per-application GPU results (Fig. 9 series).
pub fn format_gpu_results(
    title: &str,
    results: &[GpuBenchmarkResult],
    latencies_ns: &[f64],
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<20} {:<12}", "application", "suite"));
    for l in latencies_ns {
        out.push_str(&format!(" {:>8}", format!("+{l}ns")));
    }
    out.push('\n');
    for r in results {
        out.push_str(&format!("{:<20} {:<12}", r.name, r.suite));
        for &l in latencies_ns {
            match r.slowdown_at(l) {
                Some(s) => out.push_str(&format!(" {s:>7.2}%")),
                None => out.push_str(&format!(" {:>8}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Format the analytical results as a multi-section report.
pub fn format_rack_analysis(analysis: &RackAnalysis) -> String {
    let mut out = String::new();

    out.push_str("Table I — WDM link technologies (2 TB/s escape target)\n");
    for row in &analysis.table_i {
        out.push_str(&format!("  {row}\n"));
    }

    out.push_str("\nTable II — high-radix photonic switches\n");
    for sw in &analysis.table_ii {
        out.push_str(&format!(
            "  {:<22} {:>4}x{:<4} {:>4} wl/port {:>6.0} Gbps/wl  IL {:>5.1} dB\n",
            sw.kind.to_string(),
            sw.radix,
            sw.radix,
            sw.wavelengths_per_port,
            sw.channel_bandwidth.gbps(),
            sw.insertion_loss.db()
        ));
    }

    out.push_str("\nTable III — chips per MCM and MCMs per rack\n");
    for p in &analysis.table_iii.packings {
        out.push_str(&format!("  {p}\n"));
    }
    out.push_str(&format!(
        "  Total MCMs: {}\n",
        analysis.table_iii.total_mcms()
    ));

    out.push_str("\nFig. 5 — fabric connectivity\n");
    out.push_str(&format!(
        "  AWGR: {} planes, min {} / max {} direct wavelengths, {} Gbps min direct BW, scheduler: {}\n",
        analysis.awgr_connectivity.planes,
        analysis.awgr_connectivity.min_direct_wavelengths,
        analysis.awgr_connectivity.max_direct_wavelengths,
        analysis.awgr_connectivity.min_direct_bandwidth_gbps,
        analysis.awgr_connectivity.needs_scheduler
    ));
    out.push_str(&format!(
        "  Wave-selective: {} switches, min {} direct wavelengths, scheduler: {}\n",
        analysis.wave_selective_connectivity.planes,
        analysis.wave_selective_connectivity.min_direct_wavelengths,
        analysis.wave_selective_connectivity.needs_scheduler
    ));

    out.push_str("\nPower (Sec. VI-C)\n");
    out.push_str(&format!(
        "  photonic power {:.1} kW, overhead {:.1}%\n",
        analysis.power.photonic_power_w / 1000.0,
        analysis.power.overhead_percent()
    ));

    out.push_str("\nBandwidth sufficiency (Sec. VI-A1)\n");
    out.push_str(&format!(
        "  direct 125 Gbps sufficient: {:.2}%   single wavelength sufficient: {:.2}%\n",
        analysis.bandwidth.direct_125gbps_sufficient * 100.0,
        analysis.bandwidth.single_wavelength_sufficient * 100.0
    ));
    out.push_str(&format!(
        "  GPU indirect reach {:.0} GB/s, headroom after HBM {:.1} GB/s, after GPU-GPU {:.1} GB/s\n",
        analysis.gpu_budget.indirect_reach_gbs,
        analysis.gpu_budget.headroom_after_hbm_gbs,
        analysis.gpu_budget.headroom_after_gpu_traffic_gbs
    ));

    out.push_str("\nIso-performance (Sec. VI-E)\n");
    out.push_str(&format!(
        "  baseline modules {} -> disaggregated {} ({:.1}% reduction)\n",
        analysis.iso_performance.baseline.total(),
        analysis.iso_performance.disaggregated.total(),
        analysis.iso_performance.chip_reduction() * 100.0
    ));

    out.push_str("\nElectronic baselines (Sec. VI-D)\n");
    for (name, ns) in &analysis.electronic_baselines {
        out.push_str(&format!("  {name:<20} +{ns:.0} ns\n"));
    }

    out.push_str("\nHeadline claims\n");
    for (claim, holds) in analysis.headline_claims() {
        out.push_str(&format!(
            "  [{}] {claim}\n",
            if holds { "ok" } else { "FAIL" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_experiments::{run_cpu_experiment_subset, CpuExperimentConfig};
    use crate::gpu_experiments::{run_gpu_experiment, GpuExperimentConfig};

    #[test]
    fn rack_analysis_report_contains_all_sections() {
        let analysis = RackAnalysis::paper();
        let s = format_rack_analysis(&analysis);
        for section in [
            "Table I",
            "Table II",
            "Table III",
            "Fig. 5",
            "Power",
            "Bandwidth sufficiency",
            "Iso-performance",
            "Electronic baselines",
            "Headline claims",
        ] {
            assert!(s.contains(section), "missing section {section}");
        }
        assert!(s.contains("Total MCMs: 350"));
    }

    #[test]
    fn sweep_report_json_is_deterministic_and_escaped() {
        let mut r = SweepReport::new("demo");
        r.summary.push(("avg".to_string(), 1.5));
        r.rows.push(SweepRow {
            label: "a\"b".to_string(),
            params: vec![("fabric".to_string(), "awgr".to_string())],
            metrics: vec![("sat".to_string(), 0.25), ("nan".to_string(), f64::NAN)],
        });
        let json = r.to_json();
        assert_eq!(json, r.clone().to_json());
        assert!(json.contains("\"a\\\"b\""));
        assert!(json.contains("\"nan\":null"));
        assert!(json.contains("\"scenarios\":1"));
        assert!(json.contains("\"sat\":0.25"));
        assert_eq!(r.scenario_count(), 1);
        assert_eq!(r.summary_metric("avg"), Some(1.5));
        assert_eq!(r.rows[0].metric("sat"), Some(0.25));
        let text = format_sweep_report(&r);
        assert!(text.contains("demo — 1 scenario"));
        assert!(text.contains("sat=0.2500"));
    }

    #[test]
    fn energy_block_serializes_deterministically_with_null_for_nan() {
        use crate::energy::EnergyMode;
        let mut r = SweepReport::new("e");
        r.energy.push((
            "row".to_string(),
            EnergyStats {
                mode: EnergyMode::UtilizationScaled,
                duration_s: 0.0,
                payload_gigabits: 0.0,
                transceiver_energy_j: 0.0,
                fec_energy_j: 0.0,
                reconfiguration_energy_j: 0.0,
                idle_energy_j: 0.0,
                compute_power_w: 0.0,
            },
        ));
        let json = r.to_json();
        assert!(json.contains("\"energy\":[{\"label\":\"row\",\"mode\":\"util\""));
        // A zero-bit scenario has no defined pJ/bit: serialized as null.
        assert!(json.contains("\"pj_per_bit\":null"));
        assert_eq!(json, r.clone().to_json());
        assert!(r.energy_for("row").is_some());
        assert!(r.energy_for("missing").is_none());
        let text = format_sweep_report(&r);
        assert!(text.contains("energy:"));
    }

    #[test]
    fn report_round_trips_writer_parser_writer_byte_identically() {
        use crate::energy::EnergyMode;
        let mut r = SweepReport::new("rt \"quoted\"\n");
        r.summary.push(("mean".to_string(), 1.0 / 3.0));
        r.rows.push(SweepRow {
            label: "row0".to_string(),
            params: vec![("fabric".to_string(), "awgr".to_string())],
            metrics: vec![("satisfaction".to_string(), 0.1 + 0.2)],
        });
        r.energy.push((
            "row0".to_string(),
            EnergyStats {
                mode: EnergyMode::AlwaysOn,
                duration_s: 1e-3,
                payload_gigabits: 123.456,
                transceiver_energy_j: 1.5e-9,
                fec_energy_j: 0.25,
                reconfiguration_energy_j: 0.0,
                idle_energy_j: 9.75,
                compute_power_w: 602.857,
            },
        ));
        let json = r.to_json();
        let parsed = SweepReport::from_json(&json).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // Throughput is wall-clock metadata: never serialized, never parsed.
        assert!(parsed.throughput.is_none());

        // Every non-finite value is written as `null` and parsed back as
        // NaN, so an infinity collapses to NaN (and NaN-carrying reports
        // can't be compared with `==` at all) — but the re-emitted bytes
        // are still identical.
        let mut nonfinite = SweepReport::new("nonfinite");
        nonfinite.summary.extend([
            ("inf".to_string(), f64::INFINITY),
            ("nan".to_string(), f64::NAN),
        ]);
        let json = nonfinite.to_json();
        let parsed = SweepReport::from_json(&json).expect("parses");
        assert!(parsed.summary.iter().all(|(_, v)| v.is_nan()));
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn report_parser_rejects_malformed_documents() {
        assert!(SweepReport::from_json("not json").is_err());
        assert!(SweepReport::from_json("{\"name\":\"x\"}").is_err());
        // Row count must match the declared scenarios field.
        let lie = "{\"name\":\"x\",\"scenarios\":2,\"summary\":{},\"rows\":[]}";
        assert!(SweepReport::from_json(lie).unwrap_err().contains("2"));
        let bad_mode = "{\"name\":\"x\",\"scenarios\":0,\"summary\":{},\
                        \"energy\":[{\"label\":\"r\",\"mode\":\"solar\"}],\"rows\":[]}";
        assert!(SweepReport::from_json(bad_mode)
            .unwrap_err()
            .contains("solar"));
    }

    /// A two-row report with an energy entry for the first row.
    fn codec_sample() -> SweepReport {
        use crate::energy::EnergyMode;
        let mut r = SweepReport::new("codec");
        r.summary.push(("mean".to_string(), 0.5));
        for (i, label) in ["r0", "r1"].into_iter().enumerate() {
            r.rows.push(SweepRow {
                label: label.to_string(),
                params: vec![("fabric".to_string(), "awgr".to_string())],
                metrics: vec![("satisfaction".to_string(), 0.25 * (i + 1) as f64)],
            });
        }
        r.energy.push((
            "r0".to_string(),
            EnergyStats {
                mode: EnergyMode::UtilizationScaled,
                duration_s: 2e-3,
                payload_gigabits: 10.5,
                transceiver_energy_j: 0.125,
                fec_energy_j: 0.0,
                reconfiguration_energy_j: 0.0,
                idle_energy_j: 1.5,
                compute_power_w: 600.0,
            },
        ));
        r
    }

    /// Insert `extra` right after the first occurrence of `after`.
    fn splice_after(json: &str, after: &str, extra: &str) -> String {
        let at = json.find(after).expect("anchor present") + after.len();
        format!("{}{extra}{}", &json[..at], &json[at..])
    }

    #[test]
    fn escaped_and_non_ascii_strings_round_trip_byte_identically() {
        let tricky = "q\"b\\s é 😀 \u{1}\u{1f}\n\r\t/";
        let mut r = SweepReport::new(tricky);
        r.summary.push((tricky.to_string(), 1.0));
        r.rows.push(SweepRow {
            label: tricky.to_string(),
            params: vec![(tricky.to_string(), tricky.to_string())],
            metrics: vec![(tricky.to_string(), -0.0)],
        });
        let json = r.to_json();
        assert!(
            json.contains(r#"q\"b\\s é 😀 \u0001\u001f\n\r\t/"#),
            "{json}"
        );
        let parsed = SweepReport::from_json(&json).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // An escaped surrogate pair and escaped BMP characters decode to
        // the same characters the writer emits raw.
        let escaped = json.replace('😀', "\\ud83d\\ude00").replace('é', "\\u00e9");
        assert_ne!(escaped, json);
        let parsed = SweepReport::from_json(&escaped).expect("parses");
        assert_eq!(parsed.rows[0].label, tricky);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn unknown_fields_are_skipped_at_every_level() {
        let r = codec_sample();
        let json = r.to_json();
        let junk = r#""x":{"deep":[1,{"a":null},"s\"",true,-2.5e3]},"#;
        let doc = splice_after(&json, "{", junk);
        let doc = splice_after(&doc, "\"rows\":[{", junk);
        let doc = splice_after(&doc, "\"energy\":[{", junk);
        let doc = doc.replace("]}", r#"],"tail":[[],{}]}"#);
        let parsed = SweepReport::from_json(&doc).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // A skipped value must still be valid JSON.
        let broken = splice_after(&json, "{", r#""x":[1,],"#);
        assert!(SweepReport::from_json(&broken).is_err());
    }

    #[test]
    fn repeated_fixed_fields_keep_their_first_occurrence() {
        let r = codec_sample();
        let json = r.to_json();
        let doc = json.replacen(
            "]}",
            r#"],"name":7,"scenarios":"x","summary":[],"energy":1,"rows":null}"#,
            1,
        );
        let doc = splice_after(&doc, "\"rows\":[{\"label\":\"r0\"", r#","label":1"#);
        let doc = splice_after(
            &doc,
            r#""metrics":{"satisfaction":0.25}"#,
            r#","params":5,"metrics":{"satisfaction":"x"}"#,
        );
        let doc = splice_after(
            &doc,
            "\"compute_power_w\":600",
            r#","mode":"solar","label":2,"duration_s":"x""#,
        );
        let parsed = SweepReport::from_json(&doc).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), json);
        // Repeated keys inside `summary`, `params` and `metrics` are data,
        // kept in document order.
        let doc = json.replace(
            r#""metrics":{"satisfaction":0.25}"#,
            r#""metrics":{"satisfaction":0.25,"satisfaction":1}"#,
        );
        let parsed = SweepReport::from_json(&doc).expect("parses");
        assert_eq!(parsed.rows[0].metrics.len(), 2);
        assert_eq!(parsed.rows[0].metric("satisfaction"), Some(0.25));
        assert_eq!(parsed.to_json(), doc);
    }

    #[test]
    fn null_metric_decodes_as_nan_and_re_encodes_as_null() {
        let json = codec_sample()
            .to_json()
            .replace(r#""satisfaction":0.5"#, r#""satisfaction":null"#);
        let parsed = SweepReport::from_json(&json).expect("parses");
        assert!(parsed.rows[1].metric("satisfaction").unwrap().is_nan());
        assert_eq!(parsed.to_json(), json);
        // Only numbers and null are metrics.
        let bad = json.replace(r#""satisfaction":null"#, r#""satisfaction":"0.5""#);
        let err = SweepReport::from_json(&bad).unwrap_err();
        assert!(err.contains("rows[1].satisfaction"), "{err}");
    }

    #[test]
    fn deep_nesting_inside_an_unknown_field_is_rejected() {
        let json = codec_sample().to_json();
        let nest = |depth: usize| {
            splice_after(
                &json,
                "{",
                &format!("\"x\":{}{},", "[".repeat(depth), "]".repeat(depth)),
            )
        };
        // The field's value sits at depth 1, so 128 brackets stay in bounds.
        assert!(SweepReport::from_json(&nest(128)).is_ok());
        let err = SweepReport::from_json(&nest(129)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(SweepReport::from_json(&nest(10_000)).is_err());
    }

    #[test]
    fn fields_out_of_writer_order_decode() {
        let r = codec_sample();
        let doc = r#"{"rows":[{"metrics":{"satisfaction":0.25},"params":{"fabric":"awgr"},"label":"r0"},
            {"params":{"fabric":"awgr"},"label":"r1","metrics":{"satisfaction":0.5}}],
            "scenarios":2,
            "energy":[{"compute_power_w":600,"idle_j":1.5,"reconfiguration_j":0,"fec_j":0,
                "transceiver_j":0.125,"payload_gigabits":10.5,"duration_s":2e-3,"mode":"util","label":"r0"}],
            "summary":{"mean":0.5},"name":"codec"}"#;
        let parsed = SweepReport::from_json(doc).expect("parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
        // Missing fields are named wherever the others sit.
        let err = SweepReport::from_json(&doc.replace(r#","label":"r1""#, "")).unwrap_err();
        assert!(err.contains("rows[1]") && err.contains("label"), "{err}");
        let err = SweepReport::from_json(&doc.replace(r#""fec_j":0,"#, "")).unwrap_err();
        assert!(err.contains("energy[0]") && err.contains("fec_j"), "{err}");
    }

    #[test]
    fn cpu_and_gpu_formatting_smoke() {
        let cfg = CpuExperimentConfig {
            accesses_per_benchmark: 20_000,
            ..CpuExperimentConfig::quick()
        };
        let cpu = run_cpu_experiment_subset(&cfg, |b| b.name == "nw");
        let s = format_cpu_results("CPU", &cpu, &[35.0]);
        assert!(s.contains("nw"));
        let gpu = run_gpu_experiment(&GpuExperimentConfig::default());
        let s = format_gpu_results("GPU", &gpu, &[25.0, 30.0, 35.0]);
        assert!(s.contains("alexnet"));
        let rows: Vec<(String, f64, f64)> = vec![("x".into(), 10.0, 0.5)];
        assert!(format_miss_rate_rows("F7", &rows).contains("50.0%"));
    }
}
