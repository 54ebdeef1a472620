//! Regenerates the Section III-C3 BER/FEC analysis: the lightweight
//! CXL/PCIe-Gen6 FEC turns a 1e-6 flit error probability into ~1e-12,
//! retransmissions absorb the rest, and the effective BER meets the 1e-18
//! memory requirement at <0.1% bandwidth cost and 2-3 ns latency.

use photonics::fec::{FecConfig, LinkErrorModel};

fn main() {
    bench::cli::no_args();
    println!("BER / FEC analysis (Section III-C3)");
    for (label, model) in [
        ("CXL lightweight FEC", LinkErrorModel::paper_nominal()),
        (
            "FEC disabled",
            LinkErrorModel::new(1e-6 / 2048.0, FecConfig::disabled()),
        ),
    ] {
        let out = model.analyze();
        println!("\n  {label}");
        println!(
            "    flit error probability      : {:.3e}",
            out.flit_error_probability
        );
        println!(
            "    post-FEC flit error prob.   : {:.3e}",
            out.post_fec_flit_error_probability
        );
        println!(
            "    retransmission probability  : {:.3e}",
            out.retransmission_probability
        );
        println!(
            "    silent error probability    : {:.3e}",
            out.silent_error_probability
        );
        println!(
            "    effective BER               : {:.3e}",
            out.effective_ber
        );
        println!(
            "    meets 1e-18 memory target   : {}",
            model.meets_ber_target(LinkErrorModel::MEMORY_BER_TARGET)
        );
        println!(
            "    FEC latency                 : {:.1} ns",
            model.fec.latency().ns()
        );
        println!(
            "    bandwidth overhead          : {:.3} %",
            model.fec.bandwidth_overhead() * 100.0
        );
    }
}
