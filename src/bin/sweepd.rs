//! `sweepd` — the checkpointed sweep-job daemon.
//!
//! Accepts [`SweepGrid`](disagg_core::sweep::SweepGrid) jobs as JSON files
//! (schema in `docs/OPERATIONS.md`), executes them through the
//! [`JobRunner`] shard cache, and streams results out as they complete.
//! Two modes:
//!
//! * `sweepd --oneshot FILE` — run one job file, print the merged report
//!   JSON on stdout.
//! * `sweepd --spool DIR` — drain `DIR/incoming/*.json` (sorted by file
//!   name): each job's merged report lands in `DIR/done/<stem>.result.json`
//!   and the job file moves next to it; unparseable jobs move to
//!   `DIR/failed/` with a `.error` note. With `--watch SECS` the daemon
//!   keeps polling the spool instead of exiting; `--watch` with
//!   `--oneshot` is a usage error.
//!
//! Because every completed shard is checkpointed under the cache directory
//! before the next begins, a killed daemon loses at most one shard of work:
//! on restart the job file is still in `incoming/` and the finished shards
//! replay from the cache. `--max-shards K` exercises exactly that path by
//! suspending after K fresh shards (exit code 3, job left in `incoming/`).
//!
//! Jobs with a `sample` object run through the representative-scenario
//! sampler ([`SweepGrid::run_sampled`](disagg_core::sweep::SweepGrid::run_sampled)
//! semantics): shards cover the weighted representative list, are cached
//! under a composite `<grid_hash>-s<sample_hash>` key that never collides
//! with the exact grid's shards, and the per-job summary line carries a
//! `(sampled)` marker.
//!
//! Cross-scenario computation reuse (dedup-planned solving plus
//! demand-matrix memoization, byte-exact) is on by default; a job file may
//! set `"reuse":false` to disable it. The per-job summary line carries a
//! `(reuse N/M)` marker — N scenarios replayed out of M covered by the
//! executed shards' dedup plans.
//!
//! Exit codes: 0 success, 1 usage error, 2 job/spool failure, 3 suspended
//! by `--max-shards`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use disagg_core::jobs::{self, JobOutcome, JobRunner, JobSpec};

fn usage() -> ! {
    eprintln!(
        "usage: sweepd (--oneshot FILE | --spool DIR) [options]\n\
         \n\
         modes:\n\
         \x20 --oneshot FILE    run one job file, print merged report JSON to stdout\n\
         \x20 --spool DIR       drain DIR/incoming/*.json into DIR/done/\n\
         \n\
         options:\n\
         \x20 --cache DIR       shard-cache root (default: SPOOL/cache, or ./sweepd-cache)\n\
         \x20 --threads N       default thread budget for jobs that set none\n\
         \x20 --max-shards K    suspend after K freshly executed shards (exit 3)\n\
         \x20 --watch SECS      spool mode: poll every SECS instead of exiting"
    );
    std::process::exit(1);
}

struct Options {
    oneshot: Option<PathBuf>,
    spool: Option<PathBuf>,
    cache: Option<PathBuf>,
    threads: Option<usize>,
    max_shards: Option<usize>,
    watch: Option<u64>,
}

fn parse_args() -> Options {
    let mut options = Options {
        oneshot: None,
        spool: None,
        cache: None,
        threads: None,
        max_shards: None,
        watch: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("sweepd: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--oneshot" => options.oneshot = Some(PathBuf::from(value("--oneshot"))),
            "--spool" => options.spool = Some(PathBuf::from(value("--spool"))),
            "--cache" => options.cache = Some(PathBuf::from(value("--cache"))),
            "--threads" => options.threads = Some(parse_count(&value("--threads"), "--threads")),
            "--max-shards" => {
                options.max_shards = Some(parse_count(&value("--max-shards"), "--max-shards"))
            }
            "--watch" => options.watch = Some(parse_count(&value("--watch"), "--watch")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("sweepd: unknown flag {other:?}");
                usage();
            }
        }
    }
    if options.oneshot.is_some() == options.spool.is_some() {
        eprintln!("sweepd: exactly one of --oneshot and --spool is required");
        usage();
    }
    if options.oneshot.is_some() && options.watch.is_some() {
        eprintln!("sweepd: --watch polls a spool and cannot be combined with --oneshot");
        usage();
    }
    options
}

fn parse_number<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("sweepd: bad value {text:?} for {flag}");
        usage()
    })
}

/// A count of at least 1 for `flag`: 0 is a usage error naming the flag,
/// never raised to 1.
fn parse_count<T: std::str::FromStr + Default + PartialEq>(text: &str, flag: &str) -> T {
    let n = parse_number(text, flag);
    if n == T::default() {
        eprintln!("sweepd: {flag} must be at least 1, got 0");
        usage();
    }
    n
}

fn main() -> ExitCode {
    let options = parse_args();
    let cache = options.cache.clone().unwrap_or_else(|| {
        options
            .spool
            .as_ref()
            .map(|s| s.join("cache"))
            .unwrap_or_else(|| PathBuf::from("sweepd-cache"))
    });
    let runner = JobRunner::new(cache);
    if let Some(job_file) = &options.oneshot {
        return run_oneshot(&runner, &options, job_file);
    }
    run_spool(
        &runner,
        &options,
        options.spool.as_deref().expect("spool mode"),
    )
}

fn run_oneshot(runner: &JobRunner, options: &Options, job_file: &Path) -> ExitCode {
    match process_job(runner, options, job_file) {
        Ok(outcome) => {
            println!("{}", outcome.report.to_json());
            if outcome.suspended {
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("sweepd: {}: {message}", job_file.display());
            ExitCode::from(2)
        }
    }
}

fn run_spool(runner: &JobRunner, options: &Options, spool: &Path) -> ExitCode {
    let incoming = spool.join("incoming");
    let done = spool.join("done");
    let failed = spool.join("failed");
    for dir in [&incoming, &done, &failed] {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("sweepd: create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    loop {
        let jobs = match pending_jobs(&incoming) {
            Ok(jobs) => jobs,
            Err(message) => {
                eprintln!("sweepd: {message}");
                return ExitCode::from(2);
            }
        };
        for job_file in jobs {
            let stem = job_file
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("job")
                .to_string();
            match process_job(runner, options, &job_file) {
                Ok(outcome) if outcome.suspended => {
                    // Simulated crash: leave the job in incoming/ so a
                    // restarted daemon resumes it from the shard cache.
                    eprintln!(
                        "sweepd: job {stem} suspended after {} fresh shards (resume by rerunning)",
                        outcome.shards_executed
                    );
                    return ExitCode::from(3);
                }
                Ok(outcome) => {
                    // The result lands whole or not at all: a reader of
                    // done/ never sees a torn file, even across a crash.
                    let result = done.join(format!("{stem}.result.json"));
                    let write =
                        jobs::write_atomic(&result, (outcome.report.to_json() + "\n").as_bytes())
                            .and_then(|()| {
                                fs::rename(&job_file, done.join(format!("{stem}.json")))
                                    .map_err(|e| format!("move job file: {e}"))
                            });
                    if let Err(e) = write {
                        eprintln!("sweepd: finalize {stem}: {e}");
                        return ExitCode::from(2);
                    }
                }
                Err(message) => {
                    eprintln!("sweepd: job {stem} failed: {message}");
                    let note = failed.join(format!("{stem}.error"));
                    let _ = fs::write(&note, format!("{message}\n"));
                    let _ = fs::rename(&job_file, failed.join(format!("{stem}.json")));
                }
            }
        }
        match options.watch {
            Some(seconds) => std::thread::sleep(std::time::Duration::from_secs(seconds)),
            None => return ExitCode::SUCCESS,
        }
    }
}

/// Job files waiting in `incoming/`, sorted by file name for a
/// deterministic processing order.
fn pending_jobs(incoming: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        fs::read_dir(incoming).map_err(|e| format!("read {}: {e}", incoming.display()))?;
    let mut jobs: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    jobs.sort();
    Ok(jobs)
}

/// Parse and run one job file, logging a per-job summary line to stderr.
fn process_job(
    runner: &JobRunner,
    options: &Options,
    job_file: &Path,
) -> Result<JobOutcome, String> {
    let text = fs::read_to_string(job_file).map_err(|e| format!("read: {e}"))?;
    let mut spec = JobSpec::from_json(&text)?;
    if spec.threads.is_none() {
        spec.threads = options.threads;
    }
    let outcome = runner.run_with_limit(&spec, options.max_shards)?;
    eprintln!(
        "sweepd: job {} hash {} shards {} cached {} executed {} scenarios {}{}{}{}{}",
        job_file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("job"),
        outcome.grid_hash,
        outcome.shards_total,
        outcome.shards_from_cache,
        outcome.shards_executed,
        outcome.scenarios_executed,
        if spec.sample.is_some() {
            " (sampled)"
        } else {
            ""
        },
        // Computation-reuse marker: followers replayed / scenarios covered
        // by the executed shards' dedup plans. Absent with "reuse":false.
        match outcome.reuse {
            Some(stats) => format!(
                " (reuse {}/{})",
                stats.followers_replayed,
                stats.scenarios()
            ),
            None => String::new(),
        },
        if outcome.suspended {
            " (suspended)"
        } else {
            ""
        },
        // Cached shards found on disk but refused, each with its reason.
        if outcome.refused.is_empty() {
            String::new()
        } else {
            let refusals: Vec<String> = outcome
                .refused
                .iter()
                .map(|r| format!("shard{}: {}", r.shard, r.reason))
                .collect();
            format!(" (refused {})", refusals.join("; "))
        },
    );
    Ok(outcome)
}
