//! Regenerates Table IV: the optical switch configurations used in the rack
//! study (cascaded AWGRs, spatial, wave-selective).

use photonics::switch::SwitchConfig;

fn main() {
    bench::cli::no_args();
    println!("Table IV — switch configurations for the rack study");
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>12}",
        "switch type", "radix", "wl/port", "Gbps/wl", "scheduler?"
    );
    for cfg in SwitchConfig::ALL {
        println!(
            "{:<16} {:>8} {:>10} {:>10.0} {:>12}",
            cfg.to_string(),
            cfg.effective_radix(),
            cfg.effective_wavelengths_per_port(),
            cfg.channel_bandwidth().gbps(),
            if cfg.needs_scheduler() { "yes" } else { "no" }
        );
    }
}
