//! Regenerates Table I: WDM photonic link technologies and their sizing for
//! a 2 TB/s escape-bandwidth target. Pass `--json` for the machine-readable
//! sweep report.

fn main() {
    bench::cli::emit(disagg_core::sweep::artifacts::table1);
}
