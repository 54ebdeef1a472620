//! Regenerates Fig. 7: per-benchmark slowdown vs. LLC miss rate for PARSEC
//! (large inputs) and Rodinia on in-order cores, with the Pearson
//! correlation coefficients the paper quotes (0.89 / 0.76, and 0.822 across
//! all PARSEC inputs). Pass `--json` for the machine-readable sweep report.

fn main() {
    bench::cli::emit(disagg_core::sweep::artifacts::fig7);
}
