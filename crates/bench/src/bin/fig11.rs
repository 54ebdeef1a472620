//! Regenerates Fig. 11: slowdown of the Rodinia benchmarks that run on both
//! CPUs and GPUs, comparing in-order CPUs, OOO CPUs, and the A100 GPU at
//! +35 ns (the paper's point: GPUs tolerate the latency best, <=12%). Pass
//! `--json` for the machine-readable sweep report.

fn main() {
    bench::cli::emit(disagg_core::sweep::artifacts::fig11);
}
