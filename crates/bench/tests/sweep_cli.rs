//! Input validation of the `sweep` binary, driven as a user runs it.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep spawns")
}

#[test]
fn racks_below_two_mcms_are_rejected_by_name() {
    for mcms in ["0", "1", "16,1"] {
        let out = sweep(&["--mcms", mcms, "--threads", "1"]);
        assert_eq!(out.status.code(), Some(2), "--mcms {mcms}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("mcm_counts"), "--mcms {mcms}: {stderr}");
        assert!(out.stdout.is_empty(), "--mcms {mcms} printed rows");
    }
}

#[test]
fn a_two_mcm_rack_still_sweeps() {
    let out = sweep(&["--mcms", "2", "--threads", "1", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"mcms\":\"2\""));
}
