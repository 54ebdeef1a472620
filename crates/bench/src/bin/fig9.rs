//! Regenerates Fig. 9: GPU slowdown for 25, 30, and 35 ns of additional
//! LLC (L2) to HBM latency across the 24 GPU applications. Pass `--json`
//! for the machine-readable sweep report.

fn main() {
    bench::cli::emit(disagg_core::sweep::artifacts::fig9);
}
