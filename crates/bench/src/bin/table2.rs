//! Regenerates Table II: high-radix CMOS-compatible photonic switches.

use photonics::switch::OpticalSwitch;

fn main() {
    bench::cli::no_args();
    println!("Table II — high-radix CMOS-compatible photonic switches");
    println!(
        "{:<22} {:>9} {:>10} {:>12} {:>10} {:>10}",
        "switch", "radix", "wl/port", "Gbps/wl", "IL (dB)", "XT (dB)"
    );
    for sw in OpticalSwitch::table_ii() {
        println!(
            "{:<22} {:>5}x{:<4} {:>10} {:>12.0} {:>10.1} {:>10.1}",
            sw.kind.to_string(),
            sw.radix,
            sw.radix,
            sw.wavelengths_per_port,
            sw.channel_bandwidth.gbps(),
            sw.insertion_loss.db(),
            sw.crosstalk.db()
        );
    }
}
