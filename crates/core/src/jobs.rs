//! Checkpointed sweep jobs: the engine behind the `sweepd` daemon.
//!
//! A [`JobSpec`] wraps a [`SweepGrid`] with execution knobs (per-job thread
//! budget, shard size) and parses from the JSON job files `sweepd` accepts.
//! A [`JobRunner`] executes a spec *through an on-disk shard cache*: the
//! job's execution plan (the grid's scenarios, or a sampler's weighted
//! representatives) is cut into fixed-size shards, each shard is
//! executed at most once ever — its [`SweepReport`] JSON is written to
//! `cache_dir/<grid_hash>/shard<k>.json` the moment it completes — and a
//! rerun of the same grid (after a crash, or a resubmission) replays every
//! cached shard from disk and executes only what is missing.
//!
//! Three properties make the cache sound:
//!
//! * **Content addressing.** The cache key is [`SweepGrid::grid_hash`], a
//!   hash of the grid's canonical JSON — any change to any axis lands in a
//!   different cache directory, and equal grids share one no matter how
//!   they were spelled. Jobs that opt into representative-scenario
//!   sampling ([`JobSpec::sample`]) get a *composite* key,
//!   `<grid_hash>-s<sample_hash>`: sampled shards (weighted
//!   representatives) can never collide with exact shards of the same
//!   grid, or with shards sampled under different knobs.
//! * **Bit-exact replay.** Shard JSON round-trips every float exactly
//!   (shortest-round-trip formatting, raw-text parsing), a cached shard is
//!   served only if its name records the plan slice being asked for and
//!   the [`ENGINE_VERSION`] that wrote it and its rows cover that slice
//!   (every row with the metrics the summary folds, and its energy entry
//!   when the grid has an energy axis), and cached rows fold with the
//!   identical operation sequence executed ones do — so a merged report
//!   is byte-identical to an uninterrupted [`SweepGrid::run`], whether its
//!   shards came from execution, from disk, or a mix.
//! * **Atomic checkpoints.** Shards are written to a temp file unique to
//!   the writer and renamed, and the directory is synced after the rename,
//!   so a crash mid-write leaves no torn shard — at worst the interrupted
//!   shard is re-executed on restart — and two runners checkpointing the
//!   same grid never clobber each other's temp file.
//!
//! A job is one run of the executor's plan driver, not one run per shard:
//! its reuse state spans every shard a run executes, so a scenario
//! whose solve an earlier shard already performed (an energy-mode twin,
//! say) is replayed instead of solved. A resumed run starts that state
//! empty — it solves more than an uninterrupted one, with the same bytes.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{self, DecodeError};
use crate::report::{ReuseStats, SweepReport};
use crate::sample::SampleConfig;
use crate::sweep::exec::{plan_slices, push_row, PlanRun};
use crate::sweep::{StreamConfig, SweepGrid};

/// The engine version recorded in every cached shard's name (`@e<N>`).
/// A shard is served only if it carries the current version, so shards
/// written by an older engine are re-executed and overwritten in place.
///
/// Bump this whenever a change alters any row's bytes for a valid grid.
pub const ENGINE_VERSION: u32 = 3;

/// A sweep job: a grid plus the execution knobs of the `sweepd` job-file
/// schema. See `docs/OPERATIONS.md` for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The grid to execute. In a job file this is the `grid` object,
    /// parsed by [`SweepGrid::from_json`] — absent axes default to the
    /// paper's design point.
    pub grid: SweepGrid,
    /// Thread budget for this job (`rayon::with_max_threads` scope),
    /// at least 1. A run caps it at the machine's available parallelism;
    /// the spec itself keeps the requested value, so it encodes the same
    /// on every machine. `None` uses the process-wide pool as configured.
    pub threads: Option<usize>,
    /// Scenarios per checkpoint shard. Smaller shards checkpoint more
    /// often (finer crash-resume granularity) at the cost of more files.
    pub rows_per_shard: usize,
    /// Scenarios decoded and executed per parallel batch within a shard.
    pub batch_size: usize,
    /// Representative-scenario sampling knobs (`sample` object in the job
    /// file). `None` — the default — runs the grid exhaustively. When set,
    /// the job simulates one weighted representative per cluster and
    /// reconstructs the full-grid summary (see
    /// [`SweepGrid::run_sampled`]); its shards live under the composite
    /// cache key [`JobSpec::cache_key`].
    pub sample: Option<SampleConfig>,
    /// Cross-scenario computation reuse (`reuse` field in the job file,
    /// default `true`): dedup-planned solving across every shard the run
    /// executes, plus demand-matrix memoization. Reuse is byte-exact — the
    /// merged report is identical either way — so the knob is deliberately
    /// *excluded* from [`JobSpec::cache_key`]: reuse-on and reuse-off runs
    /// of the same grid share one shard cache.
    pub reuse: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            grid: SweepGrid::default(),
            threads: None,
            rows_per_shard: 256,
            batch_size: StreamConfig::default().batch_size,
            sample: None,
            reuse: true,
        }
    }
}

impl JobSpec {
    /// A default-knobs job over a grid.
    pub fn new(grid: SweepGrid) -> Self {
        JobSpec {
            grid,
            ..JobSpec::default()
        }
    }

    /// Parse a job file. Only `grid` is required; `threads`,
    /// `rows_per_shard`, and `batch_size` default as in
    /// [`JobSpec::default`]. Unknown fields are rejected.
    ///
    /// ```
    /// use disagg_core::jobs::JobSpec;
    ///
    /// let spec = JobSpec::from_json(
    ///     r#"{"grid":{"mcm_counts":[16],"replicates":2},"rows_per_shard":3}"#,
    /// )
    /// .unwrap();
    /// assert_eq!(spec.grid.scenario_count(), 2);
    /// assert_eq!(spec.rows_per_shard, 3);
    /// assert_eq!(spec.threads, None);
    /// assert!(JobSpec::from_json(r#"{"grid":{},"shards":9}"#).is_err());
    /// ```
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        let doc = serde::json::parse(text).map_err(|e| format!("job: {e}"))?;
        let mut spec = JobSpec::default();
        let mut saw_grid = false;
        for (key, value) in codec::as_object(&doc, "job")? {
            let ctx = format!("job.{key}");
            match key.as_str() {
                "grid" => {
                    spec.grid = SweepGrid::from_json_value(value)?;
                    saw_grid = true;
                }
                "threads" => spec.threads = Some(codec::as_count(value, &ctx)?),
                "rows_per_shard" => spec.rows_per_shard = codec::as_count(value, &ctx)?,
                "batch_size" => spec.batch_size = codec::as_count(value, &ctx)?,
                "sample" => spec.sample = Some(SampleConfig::from_json_value(value, &ctx)?),
                "reuse" => spec.reuse = codec::as_bool(value, &ctx)?,
                _ => return Err(format!("job: unknown field {key:?}")),
            }
        }
        if !saw_grid {
            return Err("job: missing field \"grid\"".to_string());
        }
        Ok(spec)
    }

    /// Serialize the spec back to the job-file schema (round-trips through
    /// [`JobSpec::from_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"grid\":");
        out.push_str(&self.grid.to_json());
        if let Some(threads) = self.threads {
            out.push_str(&format!(",\"threads\":{threads}"));
        }
        out.push_str(&format!(
            ",\"rows_per_shard\":{},\"batch_size\":{}",
            self.rows_per_shard, self.batch_size
        ));
        if let Some(sample) = &self.sample {
            out.push_str(",\"sample\":");
            out.push_str(&sample.to_json());
        }
        if !self.reuse {
            out.push_str(",\"reuse\":false");
        }
        out.push('}');
        out
    }

    /// Number of checkpoint shards the job's *exhaustive* grid cuts into.
    /// A sampled job shards the (smaller) representative list instead;
    /// [`JobOutcome::shards_total`] reports the count actually used.
    pub fn shard_count(&self) -> usize {
        self.grid
            .scenario_count()
            .div_ceil(self.rows_per_shard.max(1))
    }

    /// The job's shard-cache key: the grid's content hash, extended with
    /// the sample-config hash when the job samples. Exact and sampled runs
    /// of the same grid — and sampled runs under different knobs — always
    /// cache under different keys.
    ///
    /// ```
    /// use disagg_core::jobs::JobSpec;
    /// use disagg_core::sample::SampleConfig;
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let mut spec = JobSpec::new(SweepGrid::named("k").mcm_counts([16]));
    /// let exact = spec.cache_key();
    /// assert_eq!(exact, spec.grid.grid_hash());
    /// spec.sample = Some(SampleConfig::with_clusters(8));
    /// assert!(spec.cache_key().starts_with(&format!("{exact}-s")));
    /// ```
    pub fn cache_key(&self) -> String {
        match &self.sample {
            None => self.grid.grid_hash(),
            Some(sample) => format!("{}-s{}", self.grid.grid_hash(), sample.sample_hash()),
        }
    }
}

/// What a [`JobRunner`] run did and produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The merged report: byte-identical (`to_json`) to an uninterrupted
    /// [`SweepGrid::run`] of the same grid when the job ran to completion
    /// (to an uninterrupted [`SweepGrid::run_sampled`] for sampled jobs).
    pub report: SweepReport,
    /// The job's cache key ([`JobSpec::cache_key`]) — the shard cache
    /// directory name.
    pub grid_hash: String,
    /// Total shards the grid cuts into.
    pub shards_total: usize,
    /// Shards replayed from the on-disk cache.
    pub shards_from_cache: usize,
    /// Shards executed fresh this run.
    pub shards_executed: usize,
    /// Scenarios evaluated fresh this run (zero on a full cache hit).
    pub scenarios_executed: usize,
    /// True when the run stopped early (fresh-shard limit reached): the
    /// report covers only the shards processed so far, and a rerun will
    /// resume from the first missing shard.
    pub suspended: bool,
    /// Computation-reuse counters accumulated across the shards *executed
    /// fresh this run* (cached shards did no solving). `None` when the spec
    /// disabled reuse; all-zero on a full cache hit.
    pub reuse: Option<ReuseStats>,
    /// Cached shards this run found on disk but would not serve, in shard
    /// order. Each was re-executed and overwritten (unless the run
    /// suspended first). A shard that was simply absent is not listed.
    pub refused: Vec<RefusedShard>,
}

/// A cached shard a [`JobRunner`] run refused to serve, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefusedShard {
    /// The shard's index in the job's plan (`shard<k>.json`).
    pub shard: usize,
    /// Why it was refused: unreadable, undecodable, cut for another plan
    /// slice or written by another engine (its recorded name and the
    /// expected one), or not covering its slice (what is missing).
    pub reason: String,
}

/// A job-execution failure: cache I/O or a corrupt input, with context.
pub type JobError = String;

/// Executes [`JobSpec`]s through an on-disk shard cache rooted at a cache
/// directory (see the module docs for the layout and guarantees).
#[derive(Debug, Clone)]
pub struct JobRunner {
    cache_dir: PathBuf,
}

impl JobRunner {
    /// A runner over a cache directory (created on first use).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        JobRunner {
            cache_dir: cache_dir.into(),
        }
    }

    /// The shard-cache directory of a grid (exists only once a shard of
    /// that grid has been checkpointed).
    pub fn grid_dir(&self, grid: &SweepGrid) -> PathBuf {
        self.cache_dir.join(grid.grid_hash())
    }

    /// Run a job to completion: replay every cached shard, execute the
    /// missing ones (checkpointing each as it completes), and merge.
    ///
    /// ```
    /// use disagg_core::jobs::{JobRunner, JobSpec};
    /// use disagg_core::sweep::SweepGrid;
    ///
    /// let dir = std::env::temp_dir().join(format!("pd-jobs-doc-{}", std::process::id()));
    /// let grid = SweepGrid::named("doc").mcm_counts([16]).replicates(4);
    /// let mut spec = JobSpec::new(grid.clone());
    /// spec.rows_per_shard = 3;
    ///
    /// let runner = JobRunner::new(&dir);
    /// let first = runner.run(&spec).unwrap();
    /// assert_eq!(first.shards_executed, 2);
    /// assert_eq!(first.report.to_json(), grid.run().to_json());
    ///
    /// // Resubmission of the same grid: served entirely from the cache.
    /// let again = runner.run(&spec).unwrap();
    /// assert_eq!(again.scenarios_executed, 0);
    /// assert_eq!(again.report.to_json(), first.report.to_json());
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn run(&self, spec: &JobSpec) -> Result<JobOutcome, JobError> {
        self.run_with_limit(spec, None)
    }

    /// [`JobRunner::run`] with a cap on *fresh* shard executions: the run
    /// suspends (rather than executes) once `max_fresh_shards` shards have
    /// been executed this call. Cached shards never count against the
    /// limit. This is the crash-injection hook — `sweepd --max-shards`
    /// uses it to prove kill-and-restart resume — and doubles as a
    /// cooperative time-slicing primitive.
    pub fn run_with_limit(
        &self,
        spec: &JobSpec,
        max_fresh_shards: Option<usize>,
    ) -> Result<JobOutcome, JobError> {
        match spec.threads {
            Some(budget) => {
                // More workers than cores buy no parallelism, and each batch
                // starts up to `budget - 1` OS threads.
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                rayon::with_max_threads(budget.min(cores), || {
                    self.run_inner(spec, max_fresh_shards)
                })
            }
            None => self.run_inner(spec, max_fresh_shards),
        }
    }

    fn run_inner(
        &self,
        spec: &JobSpec,
        max_fresh_shards: Option<usize>,
    ) -> Result<JobOutcome, JobError> {
        // A job is one plan cut into `rows_per_shard` slices. Sampled jobs
        // run their cluster plan's weighted representatives under the
        // composite cache key; a degenerate cluster plan is the exhaustive
        // plan under that key, so exact jobs never see its shards.
        let grid = &spec.grid;
        let config = StreamConfig {
            batch_size: spec.batch_size,
            row_cap: None,
            reuse: spec.reuse,
        };
        let mut run = PlanRun::new(grid, &config, spec.sample.as_ref());
        let grid_hash = spec.cache_key();
        let grid_dir = self.cache_dir.join(&grid_hash);
        let slices = plan_slices(run.len(), spec.rows_per_shard);
        let shards_total = slices.len();

        let mut report = SweepReport::new(grid.name.clone());
        report.rows.reserve(run.len());
        let mut shards_from_cache = 0usize;
        let mut shards_executed = 0usize;
        let mut scenarios_executed = 0usize;
        let mut suspended = false;
        let mut refused = Vec::new();
        for (k, entries) in slices.enumerate() {
            let path = grid_dir.join(format!("shard{k}.json"));
            // The name records the plan slice and the engine version, so a
            // shard cut at another `rows_per_shard`, or written by another
            // engine, never passes for this one.
            let name = format!(
                "{}.shard{k}[{},{})@e{ENGINE_VERSION}",
                grid.name, entries.start, entries.end
            );
            let cached = load_cached_shard(&path, &name).and_then(|cached| {
                cached
                    .map(|shard| run.absorb(entries.clone(), &shard).map(|()| shard))
                    .transpose()
            });
            let cached = cached.unwrap_or_else(|reason| {
                refused.push(RefusedShard { shard: k, reason });
                None
            });
            let mut shard = match cached {
                Some(cached) => {
                    shards_from_cache += 1;
                    cached
                }
                None if max_fresh_shards.is_some_and(|max| shards_executed >= max) => {
                    suspended = true;
                    break;
                }
                None => {
                    let mut shard = SweepReport::new(name);
                    run.execute(entries, &mut |result, weight| {
                        push_row(&mut shard, result, weight)
                    });
                    write_atomic(&path, shard.to_json().as_bytes())?;
                    scenarios_executed += shard.rows.len();
                    shards_executed += 1;
                    shard
                }
            };
            report.rows.append(&mut shard.rows);
            report.energy.append(&mut shard.energy);
        }
        // The summary of a suspended job covers exactly the shards merged
        // so far; `reuse` and `steering` count the shards executed fresh.
        run.finish(&mut report);
        Ok(JobOutcome {
            reuse: report.reuse,
            report,
            grid_hash,
            shards_total,
            shards_from_cache,
            shards_executed,
            scenarios_executed,
            suspended,
            refused,
        })
    }
}

/// The cached shard at `path`: `Ok(None)` if there is none, the report if
/// it decodes and was cut for exactly this plan slice by this engine (its
/// name records the slice's entry range and the [`ENGINE_VERSION`]), and
/// the reason otherwise. The run then absorbs it only if it covers that
/// slice (see `PlanRun::absorb`). Any refusal — unreadable file, malformed
/// JSON, a shard cut at a different `rows_per_shard` or by another engine,
/// missing rows, metrics or energy entries — re-executes the shard and
/// overwrites it; a damaged or misaligned cache costs time, never
/// correctness.
fn load_cached_shard(path: &Path, name: &str) -> Result<Option<SweepReport>, String> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("unreadable: {e}")),
    };
    let report = SweepReport::from_json(&text).map_err(|e| format!("undecodable: {e}"))?;
    if report.name != name {
        return Err(format!("named {}, not {name}", report.name));
    }
    Ok(Some(report))
}

/// Per-process sequence number that, with the pid, names each checkpoint's
/// temp file uniquely.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically, creating its directory if needed:
/// write to a temp file in the same directory whose name no other writer
/// shares (pid plus a process-wide sequence number), sync it, rename it
/// over the final path, and sync the directory so the rename itself
/// survives a crash. A reader sees the old file or the whole new one, never
/// a torn write, and a failed write leaves no temp file behind. Shard
/// checkpoints and `sweepd`'s result files both go through it; concurrent
/// runners of one grid write identical shard bytes, so whichever rename
/// lands last wins harmlessly.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), JobError> {
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir).map_err(|e| format!("jobs: create {}: {e}", dir.display()))?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("json.{}-{seq}.tmp", std::process::id()));
    let written = fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .map_err(|e| format!("jobs: write {}: {e}", tmp.display()))
        .and_then(|()| {
            fs::rename(&tmp, path).map_err(|e| format!("jobs: rename to {}: {e}", path.display()))
        });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
        return written;
    }
    // Directories can only be opened (and synced) as files on Unix.
    if cfg!(unix) {
        fs::File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| format!("jobs: sync {}: {e}", dir.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyMode;
    use crate::sample::ClusterPlan;
    use workloads::TrafficPattern;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pd-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn job() -> JobSpec {
        let grid = SweepGrid::named("job")
            .mcm_counts([16, 24])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::Uniform {
                    flows_per_mcm: 2,
                    demand_gbps: 150.0,
                },
            ])
            .energy_modes([EnergyMode::UtilizationScaled])
            .replicates(4); // 16 scenarios
        let mut spec = JobSpec::new(grid);
        spec.rows_per_shard = 3; // 6 shards, last one short
        spec
    }

    #[test]
    fn job_run_is_byte_identical_to_uninterrupted_run() {
        let dir = temp_dir("full");
        let spec = job();
        let reference = spec.grid.run();
        let outcome = JobRunner::new(&dir).run(&spec).expect("job runs");
        assert_eq!(outcome.report.to_json(), reference.to_json());
        assert_eq!(outcome.shards_total, 6);
        assert_eq!(outcome.shards_executed, 6);
        assert_eq!(outcome.shards_from_cache, 0);
        assert_eq!(outcome.scenarios_executed, 16);
        assert!(!outcome.suspended);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_and_restarted_job_resumes_and_merges_byte_identically() {
        let dir = temp_dir("resume");
        let spec = job();
        let runner = JobRunner::new(&dir);
        // "Crash" after 2 of 6 shards.
        let partial = runner.run_with_limit(&spec, Some(2)).expect("partial run");
        assert!(partial.suspended);
        assert_eq!(partial.shards_executed, 2);
        assert_eq!(partial.report.rows.len(), 6);
        // Restart: the two checkpointed shards replay from disk, the rest
        // execute, and the merged report matches an uninterrupted run
        // byte for byte.
        let resumed = runner.run(&spec).expect("resumed run");
        assert_eq!(resumed.shards_from_cache, 2);
        assert_eq!(resumed.shards_executed, 4);
        assert!(!resumed.suspended);
        assert_eq!(resumed.report.to_json(), spec.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resubmitted_grid_is_served_entirely_from_cache() {
        let dir = temp_dir("cache");
        let spec = job();
        let runner = JobRunner::new(&dir);
        let first = runner.run(&spec).expect("first run");
        let again = runner.run(&spec).expect("cached run");
        assert_eq!(again.shards_from_cache, 6);
        assert_eq!(again.shards_executed, 0);
        assert_eq!(again.scenarios_executed, 0, "zero evaluations on cache hit");
        assert_eq!(again.report.to_json(), first.report.to_json());
        // A different grid misses the cache entirely.
        let mut other = spec.clone();
        other.grid = other.grid.replicates(3);
        let fresh = runner.run(&other).expect("other grid");
        assert_ne!(fresh.grid_hash, first.grid_hash);
        assert_eq!(fresh.shards_from_cache, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cached_shard_is_reexecuted_and_overwritten() {
        let dir = temp_dir("corrupt");
        let spec = job();
        let runner = JobRunner::new(&dir);
        runner.run(&spec).expect("first run");
        let shard0 = runner.grid_dir(&spec.grid).join("shard0.json");
        fs::write(&shard0, "{\"torn\":").unwrap();
        let healed = runner.run(&spec).expect("healing run");
        assert_eq!(healed.shards_executed, 1);
        assert_eq!(healed.shards_from_cache, 5);
        assert_eq!(healed.report.to_json(), spec.grid.run().to_json());
        // The overwritten checkpoint is intact again.
        assert!(SweepReport::from_json(&fs::read_to_string(&shard0).unwrap()).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_json_round_trips_and_rejects_unknowns() {
        let mut spec = job();
        spec.threads = Some(2);
        spec.sample = Some(SampleConfig::with_clusters(7));
        let parsed = JobSpec::from_json(&spec.to_json()).expect("parses");
        assert_eq!(parsed, spec);
        assert!(JobSpec::from_json("{}").unwrap_err().contains("grid"));
        assert!(JobSpec::from_json(r#"{"grid":{},"shard_size":4}"#).is_err());
        assert!(JobSpec::from_json(r#"{"grid":{},"sample":{"k":4}}"#).is_err());
        // A zero count is rejected by its field, never raised to 1.
        for (doc, field) in [
            (r#"{"grid":{"replicates":0}}"#, "grid.replicates"),
            (r#"{"grid":{},"threads":0}"#, "job.threads"),
            (r#"{"grid":{},"rows_per_shard":0}"#, "job.rows_per_shard"),
            (r#"{"grid":{},"batch_size":0}"#, "job.batch_size"),
            (
                r#"{"grid":{},"sample":{"clusters":0}}"#,
                "job.sample.clusters",
            ),
            (
                r#"{"grid":{},"sample":{"max_iterations":0}}"#,
                "job.sample.max_iterations",
            ),
        ] {
            let err = JobSpec::from_json(doc).unwrap_err();
            assert!(err.starts_with(&format!("{field}:")), "{doc}: {err}");
        }
    }

    #[test]
    fn sampled_job_is_byte_identical_to_run_sampled() {
        let dir = temp_dir("sampled");
        let mut spec = job();
        let sample = SampleConfig::with_clusters(4);
        spec.sample = Some(sample.clone());
        spec.rows_per_shard = 2;
        let reference = spec.grid.run_sampled(&sample);
        let runner = JobRunner::new(&dir);
        let outcome = runner.run(&spec).expect("sampled job runs");
        assert_eq!(outcome.report.to_json(), reference.to_json());
        assert_eq!(
            outcome.scenarios_executed,
            reference.sampling.as_ref().unwrap().evaluated
        );
        assert!(
            outcome.shards_total < spec.shard_count(),
            "fewer shards than exact"
        );
        // Resubmission: fully cached, still byte-identical.
        let again = runner.run(&spec).expect("cached sampled job");
        assert_eq!(again.scenarios_executed, 0);
        assert_eq!(again.report.to_json(), reference.to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_and_exact_jobs_never_share_cache() {
        let dir = temp_dir("isolated");
        let exact = job();
        let mut sampled = job();
        sampled.sample = Some(SampleConfig::with_clusters(4));
        assert_ne!(exact.cache_key(), sampled.cache_key());
        let runner = JobRunner::new(&dir);
        runner.run(&sampled).expect("sampled job");
        // The exact job finds nothing reusable in the sampled cache.
        let outcome = runner.run(&exact).expect("exact job");
        assert_eq!(outcome.shards_from_cache, 0);
        assert_eq!(outcome.report.to_json(), exact.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_sampled_job_runs_exact_under_the_sampled_key() {
        let dir = temp_dir("degenerate");
        let mut spec = job();
        // Budget covers the 16-scenario grid: the plan degenerates.
        spec.sample = Some(SampleConfig::with_clusters(64));
        let runner = JobRunner::new(&dir);
        let outcome = runner.run(&spec).expect("degenerate sampled job");
        assert_eq!(outcome.grid_hash, spec.cache_key());
        assert_eq!(outcome.report.to_json(), spec.grid.run().to_json());
        assert!(outcome.report.sampling.as_ref().unwrap().exact);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thread_budget_does_not_change_bytes() {
        let dir = temp_dir("threads");
        let mut spec = job();
        spec.threads = Some(1);
        let single = JobRunner::new(&dir).run(&spec).expect("1-thread run");
        assert_eq!(single.report.to_json(), spec.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thread_budget_is_capped_at_the_machine_cores() {
        let dir = temp_dir("thread-cap");
        // Four scenarios: no batch can start more than three workers,
        // whatever the budget.
        let mut spec = JobSpec::new(SweepGrid::named("cap").mcm_counts([16]).replicates(4));
        spec.threads = Some(1 << 20);
        let outcome = JobRunner::new(&dir).run(&spec).expect("job runs");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = outcome.report.throughput.expect("throughput").threads;
        assert!(threads <= cores, "{threads} threads on {cores} cores");
        // The spec keeps the request: its bytes do not depend on the machine.
        assert!(spec.to_json().contains(r#""threads":1048576"#));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_runners_of_one_grid_share_a_cache_dir_safely() {
        let dir = temp_dir("concurrent");
        let spec = job();
        let reference = spec.grid.run().to_json();
        // Both runners start together, so their shard writes overlap.
        let start = std::sync::Barrier::new(2);
        let reports: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        JobRunner::new(&dir).run(&spec).expect("job runs")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("runner thread").report.to_json())
                .collect()
        });
        for report in &reports {
            assert_eq!(*report, reference);
        }
        let grid_dir = JobRunner::new(&dir).grid_dir(&spec.grid);
        let leftovers: Vec<_> = fs::read_dir(&grid_dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_cleans_up_on_failure() {
        let dir = temp_dir("atomic");
        let path = dir.join("nested").join("out.result.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // A rename onto a non-empty directory fails: the error names the
        // target, and the temp file is removed.
        let blocked = dir.join("nested").join("blocked.json");
        fs::create_dir_all(blocked.join("occupant")).unwrap();
        let err = write_atomic(&blocked, b"x").unwrap_err();
        assert!(err.contains("blocked.json"), "{err}");
        let leftovers: Vec<_> = fs::read_dir(dir.join("nested"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resubmission_at_a_new_shard_size_reexecutes_misaligned_shards() {
        let dir = temp_dir("reshard");
        // 8 scenarios: at 3 rows per shard the cache holds [0,3), [3,6),
        // [6,8); at 2, shard 2 is [4,6). A pattern label leaves out the
        // demand, so the cached shard 2 (mcm 24 at 400 Gbps) has the same
        // row count and row labels as the new one (mcm 24 at 200 Gbps).
        let grid = SweepGrid::named("job")
            .mcm_counts([16, 24])
            .patterns([
                TrafficPattern::Permutation { demand_gbps: 200.0 },
                TrafficPattern::Permutation { demand_gbps: 400.0 },
            ])
            .replicates(2);
        let mut spec = JobSpec::new(grid);
        spec.rows_per_shard = 3;
        let runner = JobRunner::new(&dir);
        runner.run(&spec).expect("first run");
        spec.rows_per_shard = 2;
        let resubmitted = runner.run(&spec).expect("resubmitted run");
        assert_eq!(resubmitted.shards_from_cache, 0);
        assert_eq!(resubmitted.shards_executed, 4);
        assert_eq!(resubmitted.report.to_json(), spec.grid.run().to_json());
        // The overwritten shards now serve the new geometry.
        let again = runner.run(&spec).expect("cached run");
        assert_eq!(again.shards_from_cache, 4);
        assert_eq!(again.report.to_json(), spec.grid.run().to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_resubmission_at_a_new_shard_size_reexecutes_misaligned_shards() {
        let dir = temp_dir("reshard-sampled");
        let mut spec = job();
        let sample = SampleConfig::with_clusters(3);
        spec.sample = Some(sample.clone());
        // Three representatives: at 2 per shard the cached shard 1 holds
        // representative 2 alone; at 1 per shard, shard 1 is representative
        // 1 — one row either way.
        let plan = ClusterPlan::build(&spec.grid, &sample);
        assert_eq!(plan.representatives.len(), 3);
        spec.rows_per_shard = 2;
        let runner = JobRunner::new(&dir);
        runner.run(&spec).expect("first run");
        spec.rows_per_shard = 1;
        let resubmitted = runner.run(&spec).expect("resubmitted run");
        assert_eq!(resubmitted.shards_from_cache, 0);
        assert_eq!(
            resubmitted.report.to_json(),
            spec.grid.run_sampled(&sample).to_json()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_cached_by_an_older_engine_is_reexecuted() {
        let dir = temp_dir("stale-engine");
        let spec = job();
        let runner = JobRunner::new(&dir);
        runner.run(&spec).expect("first run");
        // Rewrite shard 1 as an older engine would have: no version tag,
        // and a result that differs from what this engine computes.
        let shard1 = runner.grid_dir(&spec.grid).join("shard1.json");
        let mut stale = SweepReport::from_json(&fs::read_to_string(&shard1).unwrap()).unwrap();
        let tag = format!("@e{ENGINE_VERSION}");
        assert!(stale.name.ends_with(&tag), "{}", stale.name);
        stale.name.truncate(stale.name.len() - tag.len());
        let satisfaction = stale.rows[0]
            .metrics
            .iter_mut()
            .find(|(key, _)| key == "satisfaction")
            .expect("row has satisfaction");
        satisfaction.1 *= 0.5;
        fs::write(&shard1, stale.to_json()).unwrap();
        let resubmitted = runner.run(&spec).expect("resubmitted run");
        assert_eq!(resubmitted.shards_executed, 1);
        assert_eq!(resubmitted.shards_from_cache, 5);
        assert_eq!(resubmitted.report.to_json(), spec.grid.run().to_json());
        // The stale shard was overwritten in place with a tagged one.
        let healed = SweepReport::from_json(&fs::read_to_string(&shard1).unwrap()).unwrap();
        assert!(healed.name.ends_with(&tag), "{}", healed.name);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Run `spec` once, damage its cached shard 1 with `damage`, and
    /// resubmit: only shard 1 may re-execute, and the merged bytes must
    /// still equal an uninterrupted run's. Returns the resubmission's
    /// refusals.
    fn assert_damaged_shard1_is_reexecuted(
        tag: &str,
        spec: &JobSpec,
        damage: fn(&mut SweepReport),
    ) -> Vec<RefusedShard> {
        let dir = temp_dir(tag);
        let runner = JobRunner::new(&dir);
        let first = runner.run(spec).expect("first run");
        let shard1 = runner.grid_dir(&spec.grid).join("shard1.json");
        let mut cached = SweepReport::from_json(&fs::read_to_string(&shard1).unwrap()).unwrap();
        damage(&mut cached);
        fs::write(&shard1, cached.to_json()).unwrap();
        let healed = runner.run(spec).expect("resubmitted run");
        assert_eq!(healed.shards_executed, 1);
        assert_eq!(healed.shards_from_cache, first.shards_total - 1);
        assert_eq!(healed.report.to_json(), spec.grid.run().to_json());
        // The damaged shard was overwritten whole.
        let again = runner.run(spec).expect("cached run");
        assert_eq!(again.shards_executed, 0);
        assert_eq!(again.report.to_json(), healed.report.to_json());
        assert!(again.refused.is_empty(), "{:?}", again.refused);
        fs::remove_dir_all(&dir).unwrap();
        healed.refused
    }

    #[test]
    fn cached_shard_missing_its_energy_is_reexecuted() {
        let grid = SweepGrid::named("job")
            .mcm_counts([16])
            .energy_modes([EnergyMode::AlwaysOn])
            .replicates(4);
        let mut spec = JobSpec::new(grid);
        spec.rows_per_shard = 2;
        let refused =
            assert_damaged_shard1_is_reexecuted("no-energy", &spec, |shard| shard.energy.clear());
        assert_eq!(
            refused,
            [RefusedShard {
                shard: 1,
                reason: "0 energy entries for 2 energy rows".to_string(),
            }]
        );
    }

    #[test]
    fn shard_renamed_to_an_older_engine_is_refused_by_name() {
        let mut spec = JobSpec::new(SweepGrid::named("job").mcm_counts([16]).replicates(4));
        spec.rows_per_shard = 2;
        let refused = assert_damaged_shard1_is_reexecuted("older-engine", &spec, |shard| {
            let tag = format!("@e{ENGINE_VERSION}");
            assert!(shard.name.ends_with(&tag), "{}", shard.name);
            shard.name.truncate(shard.name.len() - tag.len());
            shard.name.push_str("@e2");
        });
        assert_eq!(
            refused,
            [RefusedShard {
                shard: 1,
                reason: format!("named job.shard1[2,4)@e2, not job.shard1[2,4)@e{ENGINE_VERSION}"),
            }]
        );
    }

    #[test]
    fn cached_shard_row_missing_a_metric_is_reexecuted() {
        let mut spec = JobSpec::new(SweepGrid::named("job").mcm_counts([16]).replicates(4));
        spec.rows_per_shard = 2;
        let refused = assert_damaged_shard1_is_reexecuted("no-metric", &spec, |shard| {
            shard.rows[1]
                .metrics
                .retain(|(key, _)| key != "satisfaction");
        });
        assert_eq!(refused.len(), 1);
        assert_eq!(refused[0].shard, 1);
        assert!(
            refused[0].reason.ends_with("lacks satisfaction"),
            "{}",
            refused[0].reason
        );
    }

    #[test]
    fn run_sharded_and_job_shards_hold_the_same_rows() {
        let dir = temp_dir("cutter");
        let spec = job();
        let mut emitted = Vec::new();
        let config = StreamConfig::default();
        let master = spec
            .grid
            .run_sharded(&config, spec.rows_per_shard, &mut |shard| {
                emitted.push(shard)
            });
        let runner = JobRunner::new(&dir);
        let outcome = runner.run(&spec).expect("job runs");
        assert_eq!(emitted.len(), outcome.shards_total);
        for (k, shard) in emitted.iter().enumerate() {
            let path = runner.grid_dir(&spec.grid).join(format!("shard{k}.json"));
            let cached = SweepReport::from_json(&fs::read_to_string(path).unwrap()).unwrap();
            assert_eq!(shard.name, format!("job.shard{k}"));
            assert_eq!(shard.rows, cached.rows, "shard {k}");
            assert_eq!(shard.energy, cached.energy, "shard {k}");
        }
        assert_eq!(master.summary, outcome.report.summary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_grid_yields_empty_report_and_no_shards() {
        let dir = temp_dir("empty");
        let mut spec = job();
        spec.grid = spec.grid.patterns([]);
        let outcome = JobRunner::new(&dir).run(&spec).expect("empty job");
        assert_eq!(outcome.shards_total, 0);
        assert!(outcome.report.rows.is_empty());
        assert!(outcome.report.summary.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
