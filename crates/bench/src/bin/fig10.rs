//! Regenerates Fig. 10: per-application GPU slowdown at +35 ns alongside the
//! LLC (L2) miss rate and HBM transactions per instruction, plus the Pearson
//! correlations (paper: 0.87 with miss rate, 0.79 with HBM transactions, no
//! significant correlation with the memory-instruction fraction). Pass
//! `--json` for the machine-readable sweep report.

fn main() {
    bench::cli::emit(disagg_core::sweep::artifacts::fig10);
}
