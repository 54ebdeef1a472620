//! Regenerates Table III: chips per MCM and MCMs per rack for the paper's
//! 128-node GPU-accelerated HPE/Cray EX rack under a 6.4 TB/s per-MCM escape
//! bandwidth budget. Pass `--json` for the machine-readable sweep report.

fn main() {
    bench::cli::emit(disagg_core::sweep::artifacts::table3);
}
