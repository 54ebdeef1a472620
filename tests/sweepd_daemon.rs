//! End-to-end tests of the `sweepd` binary: oneshot mode, the spool
//! lifecycle, kill-after-K-shards restart resume, and full-cache
//! resubmission — driving the real executable the way an operator (or the
//! CI smoke job) does.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use disagg_core::report::SweepReport;
use disagg_core::sample::SampleConfig;
use disagg_core::sweep::SweepGrid;

const JOB: &str = r#"{"grid":{"mcm_counts":[16,24],"replicates":4},"rows_per_shard":3}"#;

fn job_grid() -> SweepGrid {
    SweepGrid::default().mcm_counts([16, 24]).replicates(4)
}

const SAMPLED_JOB: &str = concat!(
    r#"{"grid":{"mcm_counts":[16,24],"replicates":8},"rows_per_shard":1,"#,
    r#""sample":{"clusters":4}}"#
);

fn sampled_grid() -> SweepGrid {
    SweepGrid::default().mcm_counts([16, 24]).replicates(8)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-sweepd-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweepd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweepd"))
        .args(args)
        .output()
        .expect("sweepd spawns")
}

fn submit(spool: &Path, name: &str, body: &str) {
    let incoming = spool.join("incoming");
    fs::create_dir_all(&incoming).unwrap();
    fs::write(incoming.join(name), body).unwrap();
}

#[test]
fn oneshot_prints_the_batch_identical_report() {
    let dir = temp_dir("oneshot");
    let job = dir.join("job.json");
    fs::write(&job, JOB).unwrap();
    let out = sweepd(&[
        "--oneshot",
        job.to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim_end(), job_grid().run().to_json());
    // Computation reuse is on by default, so the job line carries the
    // replayed/covered marker.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains(" (reuse "), "{stderr}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reuse_false_job_runs_without_the_marker_and_matches_bytes() {
    let dir = temp_dir("noreuse");
    let job = dir.join("job.json");
    fs::write(
        &job,
        r#"{"grid":{"mcm_counts":[16,24],"replicates":4},"rows_per_shard":3,"reuse":false}"#,
    )
    .unwrap();
    let out = sweepd(&[
        "--oneshot",
        job.to_str().unwrap(),
        "--cache",
        dir.join("cache").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Reuse is byte-exact: disabling it changes the stderr marker, never
    // the report.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim_end(), job_grid().run().to_json());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("(reuse"), "{stderr}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_daemon_resumes_from_checkpoints_byte_identically() {
    let dir = temp_dir("resume");
    let spool = dir.join("spool");
    submit(&spool, "smoke.json", JOB);
    let spool_arg = spool.to_str().unwrap();

    // "Kill" after one fresh shard: exit code 3, job still queued, one
    // checkpoint on disk.
    let crashed = sweepd(&["--spool", spool_arg, "--max-shards", "1"]);
    assert_eq!(crashed.status.code(), Some(3));
    assert!(spool.join("incoming/smoke.json").exists());
    let grid_dir = spool.join("cache").join(job_grid().grid_hash());
    assert!(grid_dir.join("shard0.json").exists());
    assert!(!grid_dir.join("shard1.json").exists());

    // Restart: the remaining shards execute, and the merged result is
    // byte-identical to an uninterrupted batch run.
    let resumed = sweepd(&["--spool", spool_arg]);
    assert!(resumed.status.success());
    assert!(!spool.join("incoming/smoke.json").exists());
    let result = fs::read_to_string(spool.join("done/smoke.result.json")).unwrap();
    assert_eq!(result, job_grid().run().to_json() + "\n");
    let stderr = String::from_utf8(resumed.stderr).unwrap();
    assert!(stderr.contains("cached 1 executed 2"), "{stderr}");

    // Resubmission of the same grid: served entirely from the cache —
    // zero scenario evaluations — and byte-identical again.
    submit(&spool, "again.json", JOB);
    let cached = sweepd(&["--spool", spool_arg]);
    assert!(cached.status.success());
    let stderr = String::from_utf8(cached.stderr).unwrap();
    assert!(
        stderr.contains("cached 3 executed 0 scenarios 0"),
        "{stderr}"
    );
    assert_eq!(
        fs::read_to_string(spool.join("done/again.result.json")).unwrap(),
        result
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_sampled_job_resumes_and_never_shares_shards_with_exact_runs() {
    let dir = temp_dir("sampled");
    let spool = dir.join("spool");
    submit(&spool, "sampled.json", SAMPLED_JOB);
    let spool_arg = spool.to_str().unwrap();
    let config = SampleConfig::with_clusters(4);
    let grid = sampled_grid();
    let sampled_key = format!("{}-s{}", grid.grid_hash(), config.sample_hash());

    // Kill after one fresh shard: the checkpoint lands under the composite
    // sampled cache key, never under the exact grid's key.
    let crashed = sweepd(&["--spool", spool_arg, "--max-shards", "1"]);
    assert_eq!(
        crashed.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(spool.join("incoming/sampled.json").exists());
    let sampled_dir = spool.join("cache").join(&sampled_key);
    assert!(sampled_dir.join("shard0.json").exists());
    assert!(!spool.join("cache").join(grid.grid_hash()).exists());

    // Restart: the resumed merge is byte-identical to an uninterrupted
    // in-process sampled run, and the job line carries the marker.
    let resumed = sweepd(&["--spool", spool_arg]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let result = fs::read_to_string(spool.join("done/sampled.result.json")).unwrap();
    assert_eq!(result, grid.run_sampled(&config).to_json() + "\n");
    let stderr = String::from_utf8(resumed.stderr).unwrap();
    assert!(stderr.contains(" (sampled)"), "{stderr}");

    // Resubmitting the same grid WITHOUT sampling must not reuse any
    // sampled shard: the exact job runs every shard fresh under its own
    // key and reproduces the exhaustive oracle.
    submit(
        &spool,
        "zz-exact.json",
        r#"{"grid":{"mcm_counts":[16,24],"replicates":8},"rows_per_shard":4}"#,
    );
    let exact = sweepd(&["--spool", spool_arg]);
    assert!(
        exact.status.success(),
        "{}",
        String::from_utf8_lossy(&exact.stderr)
    );
    let stderr = String::from_utf8(exact.stderr).unwrap();
    assert!(stderr.contains("cached 0 executed 4"), "{stderr}");
    assert!(!stderr.contains("(sampled)"), "{stderr}");
    assert_eq!(
        fs::read_to_string(spool.join("done/zz-exact.result.json")).unwrap(),
        grid.run().to_json() + "\n"
    );
    assert!(spool.join("cache").join(grid.grid_hash()).exists());
    assert!(sampled_dir.exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spool_results_are_whole_files_with_no_temp_left_behind() {
    let dir = temp_dir("atomic");
    let spool = dir.join("spool");
    submit(&spool, "first.json", JOB);
    submit(&spool, "second.json", JOB);
    let out = sweepd(&["--spool", spool.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = fs::read_dir(spool.join("done"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "first.json",
            "first.result.json",
            "second.json",
            "second.result.json"
        ]
    );
    for stem in ["first", "second"] {
        let text = fs::read_to_string(spool.join(format!("done/{stem}.result.json"))).unwrap();
        let parsed = SweepReport::from_json(&text).expect("result parses");
        assert_eq!(parsed.to_json(), job_grid().run().to_json());
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_jobs_land_in_failed_with_an_error_note() {
    let dir = temp_dir("failed");
    let spool = dir.join("spool");
    submit(&spool, "typo.json", r#"{"grid":{"mcmcounts":[16]}}"#);
    submit(&spool, "torn.json", r#"{"grid":"#);
    let out = sweepd(&["--spool", spool.to_str().unwrap()]);
    // Bad jobs are quarantined, not fatal: the daemon exits cleanly.
    assert!(out.status.success());
    for stem in ["typo", "torn"] {
        assert!(spool.join(format!("failed/{stem}.json")).exists());
        let note = fs::read_to_string(spool.join(format!("failed/{stem}.error"))).unwrap();
        assert!(!note.trim().is_empty());
    }
    assert!(!spool.join("incoming/typo.json").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_errors_exit_one() {
    let out = sweepd(&[]);
    assert_eq!(out.status.code(), Some(1));
    let both = sweepd(&["--oneshot", "a.json", "--spool", "b"]);
    assert_eq!(both.status.code(), Some(1));
    // A zero thread budget fails naming the flag, as a job file's does.
    let zero = sweepd(&["--oneshot", "a.json", "--threads", "0"]);
    assert_eq!(zero.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--threads"));
    // So does a zero poll interval, instead of being raised to 1 s.
    let zero = sweepd(&["--oneshot", "a.json", "--watch", "0"]);
    assert_eq!(zero.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--watch"));
    // And a zero shard budget, which would suspend every run before its
    // first shard.
    let zero = sweepd(&["--oneshot", "a.json", "--max-shards", "0"]);
    assert_eq!(zero.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&zero.stderr).contains("--max-shards"));
}
