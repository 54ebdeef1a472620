//! The full rack fabric construction of Section V-B.
//!
//! The rack holds 350 MCMs, each with 32 fibers of 64 wavelengths at
//! 25 Gbps (6.4 TB/s escape bandwidth per MCM). Two constructions connect
//! them:
//!
//! * **Case (A) — six parallel cascaded AWGRs.** MCM fibers are combined in
//!   five groups of six and each group feeds one port of five parallel
//!   370-port AWGRs; the leftover wavelengths and two remaining fibers feed
//!   a sixth, partially-populated AWGR. Every MCM pair is connected by at
//!   least five direct 25 Gbps wavelengths (125 Gbps), with no
//!   reconfiguration ever needed.
//! * **Case (B) — eleven staggered wave-selective (or spatial) switches** of
//!   radix 256. Switch `I` connects MCMs `(32*I) mod 350` through
//!   `(32*I + 255) mod 350`; each MCM attaches to eight of the eleven
//!   switches (its 2048 wavelengths divided into 256-wavelength ports), and
//!   every MCM pair shares at least three switches, giving
//!   `3 x 256 x 25 = 2304 Gbps` of direct bandwidth after reconfiguration.

use photonics::switch::SwitchConfig;
use photonics::units::Bandwidth;

/// Which fabric construction is instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Case (A): six parallel cascaded AWGRs, distributed indirect routing,
    /// no reconfiguration.
    ParallelAwgrs,
    /// Case (B): eleven parallel wave-selective switches with a centralized
    /// reconfiguration scheduler.
    WaveSelective,
    /// Case (B'): spatial switches (same port arithmetic as wave-selective
    /// in the paper's analysis).
    Spatial,
}

impl FabricKind {
    /// The corresponding Table IV switch configuration.
    pub fn switch_config(self) -> SwitchConfig {
        match self {
            FabricKind::ParallelAwgrs => SwitchConfig::CascadedAwgr,
            FabricKind::WaveSelective => SwitchConfig::WaveSelective,
            FabricKind::Spatial => SwitchConfig::Spatial,
        }
    }

    /// Whether this fabric needs a centralized scheduler for reconfiguration.
    pub fn needs_scheduler(self) -> bool {
        self.switch_config().needs_scheduler()
    }

    /// Short stable label for report rows, grid JSON and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            FabricKind::ParallelAwgrs => "awgr",
            FabricKind::WaveSelective => "wave",
            FabricKind::Spatial => "spatial",
        }
    }

    /// Parse a label produced by [`FabricKind::label`]; `None` for anything
    /// else.
    ///
    /// ```
    /// use fabric::FabricKind;
    /// assert_eq!(FabricKind::parse("wave"), Some(FabricKind::WaveSelective));
    /// assert_eq!(FabricKind::parse("warp"), None);
    /// ```
    pub fn parse(text: &str) -> Option<Self> {
        [
            FabricKind::ParallelAwgrs,
            FabricKind::WaveSelective,
            FabricKind::Spatial,
        ]
        .into_iter()
        .find(|kind| kind.label() == text)
    }
}

/// Configuration of the rack fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackFabricConfig {
    /// Number of MCMs in the rack.
    pub mcm_count: u32,
    /// Optical fibers per MCM.
    pub fibers_per_mcm: u32,
    /// Wavelengths per fiber.
    pub wavelengths_per_fiber: u32,
    /// Data rate per wavelength in Gbps.
    pub gbps_per_wavelength: f64,
    /// Fabric construction.
    pub kind: FabricKind,
}

impl RackFabricConfig {
    /// The paper's rack: 350 MCMs, 32 fibers, 64 wavelengths, 25 Gbps.
    pub fn paper_rack(kind: FabricKind) -> Self {
        RackFabricConfig {
            mcm_count: 350,
            fibers_per_mcm: 32,
            wavelengths_per_fiber: 64,
            gbps_per_wavelength: 25.0,
            kind,
        }
    }

    /// Escape wavelengths per MCM.
    pub fn wavelengths_per_mcm(&self) -> u32 {
        self.fibers_per_mcm * self.wavelengths_per_fiber
    }

    /// Escape bandwidth per MCM.
    pub fn escape_bandwidth_per_mcm(&self) -> Bandwidth {
        Bandwidth::from_gbps(self.gbps_per_wavelength) * self.wavelengths_per_mcm() as f64
    }
}

/// Summary of the fabric's connectivity guarantees (what Fig. 5 and
/// Section V-B assert).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricReport {
    /// Fabric kind.
    pub kind: FabricKind,
    /// Number of parallel switch/AWGR planes instantiated.
    pub planes: u32,
    /// Minimum direct wavelengths between any MCM pair.
    pub min_direct_wavelengths: u32,
    /// Maximum direct wavelengths between any MCM pair.
    pub max_direct_wavelengths: u32,
    /// Minimum direct bandwidth between any MCM pair (Gbps).
    pub min_direct_bandwidth_gbps: f64,
    /// Escape bandwidth per MCM (Gbps).
    pub escape_bandwidth_gbps: f64,
    /// Whether a centralized reconfiguration scheduler is required.
    pub needs_scheduler: bool,
}

/// The instantiated rack fabric.
#[derive(Debug, Clone)]
pub struct RackFabric {
    config: RackFabricConfig,
    /// For AWGR fabrics: the number of full all-to-all planes.
    full_planes: u32,
    /// For AWGR fabrics: reach (number of nearest destinations) of the
    /// partial extra plane.
    partial_plane_reach: u32,
    /// For switch fabrics: the number of switches instantiated.
    switch_count: u32,
    /// For switch fabrics: which switches each MCM attaches to, as
    /// `mask_words` bit words per MCM (MCM-major; bit `i % 64` of word
    /// `i / 64` is switch `i`). A pair's shared switches are then a popcount
    /// of the AND of two rows, with no division and no row scan.
    switch_masks: Vec<u64>,
    /// `u64` words per MCM in `switch_masks`: `ceil(switch_count / 64)`,
    /// 0 for AWGR fabrics.
    mask_words: usize,
    /// Ports (256-wavelength bundles) available per MCM for switch fabrics.
    ports_per_mcm: u32,
}

impl RackFabric {
    /// Build the fabric described by `config`.
    pub fn new(config: RackFabricConfig) -> Self {
        match config.kind {
            FabricKind::ParallelAwgrs => Self::build_awgr(config),
            FabricKind::WaveSelective | FabricKind::Spatial => Self::build_switched(config),
        }
    }

    /// The paper's case (A) fabric.
    pub fn paper_awgr() -> Self {
        Self::new(RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs))
    }

    /// The paper's case (B) fabric.
    pub fn paper_wave_selective() -> Self {
        Self::new(RackFabricConfig::paper_rack(FabricKind::WaveSelective))
    }

    fn build_awgr(config: RackFabricConfig) -> Self {
        let awgr_ports = SwitchConfig::CascadedAwgr.effective_radix();
        // Wavelengths per MCM divided into groups that saturate one AWGR port
        // each (370 wavelengths per port): five full planes for the paper's
        // 2048 wavelengths, plus one partial plane with the remainder.
        let per_port = awgr_ports;
        let total = config.wavelengths_per_mcm();
        let full_planes = total / per_port;
        let remainder = total % per_port;
        // The partial plane's port only carries `remainder` wavelengths, so
        // through it an MCM reaches only its `remainder` cyclically-nearest
        // destinations (the AWGR shuffle maps wavelength w from port i to
        // port (i+w) mod N).
        let partial_plane_reach = remainder.min(config.mcm_count.saturating_sub(1));
        RackFabric {
            config,
            full_planes,
            partial_plane_reach,
            switch_count: 0,
            switch_masks: Vec::new(),
            mask_words: 0,
            ports_per_mcm: 0,
        }
    }

    fn build_switched(config: RackFabricConfig) -> Self {
        let radix = config.kind.switch_config().effective_radix();
        let wavelengths_per_port = config.kind.switch_config().effective_wavelengths_per_port();
        let ports_per_mcm = (config.wavelengths_per_mcm() / wavelengths_per_port).max(1);
        // Instantiate enough switches that every MCM can use all of its
        // ports: ceil(mcm_count * ports_per_mcm / radix), which is 11 for the
        // paper's 350 x 8 / 256.
        let switch_count =
            ((config.mcm_count as u64 * ports_per_mcm as u64).div_ceil(radix as u64)) as u32;
        let mask_words = (switch_count as usize).div_ceil(64);
        let mut masks = vec![0u64; config.mcm_count as usize * mask_words];
        let mut ports_used = vec![0u32; config.mcm_count as usize];
        // Staggered attachment: switch I connects MCMs (32*I) mod N through
        // (32*I + radix - 1) mod N, skipping MCMs that have exhausted their
        // ports so no MCM exceeds `ports_per_mcm` attachments.
        let stagger = 32u32;
        for i in 0..switch_count {
            let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
            let start = (stagger as u64 * i as u64 % config.mcm_count as u64) as u32;
            let mut attached = 0u32;
            let mut offset = 0u32;
            while attached < radix && offset < config.mcm_count {
                let mcm = ((start + offset) % config.mcm_count) as usize;
                offset += 1;
                let row = &mut masks[mcm * mask_words + word];
                if ports_used[mcm] < ports_per_mcm && *row & bit == 0 {
                    *row |= bit;
                    ports_used[mcm] += 1;
                    attached += 1;
                }
            }
        }
        RackFabric {
            config,
            full_planes: 0,
            partial_plane_reach: 0,
            switch_count,
            switch_masks: masks,
            mask_words,
            ports_per_mcm,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RackFabricConfig {
        &self.config
    }

    /// Number of parallel planes (AWGRs or switches).
    pub fn planes(&self) -> u32 {
        match self.config.kind {
            FabricKind::ParallelAwgrs => {
                self.full_planes + if self.partial_plane_reach > 0 { 1 } else { 0 }
            }
            _ => self.switch_count,
        }
    }

    /// Direct wavelengths between two distinct MCMs.
    pub fn direct_wavelengths(&self, a: u32, b: u32) -> u32 {
        assert!(a < self.config.mcm_count && b < self.config.mcm_count);
        if a == b {
            return 0;
        }
        match self.config.kind {
            FabricKind::ParallelAwgrs => {
                // One wavelength per full plane, plus one more if `b` falls
                // within the partial plane's cyclic reach from `a`.
                // `(b - a) mod n` by one conditional add: both ids are below n.
                let n = self.config.mcm_count;
                let forward = if b > a { b - a } else { b + (n - a) };
                let extra = u32::from(forward <= self.partial_plane_reach);
                self.full_planes + extra
            }
            _ => {
                let shared = self.shared_switches(a, b);
                shared
                    * self
                        .config
                        .kind
                        .switch_config()
                        .effective_wavelengths_per_port()
            }
        }
    }

    /// Number of switches both MCMs attach to (switch fabrics only; 0 for
    /// AWGR fabrics, which have no notion of shared switches).
    pub fn shared_switches(&self, a: u32, b: u32) -> u32 {
        // Up to 64 switches (the paper's rack has 11) fit one word per MCM.
        if self.mask_words == 1 {
            return (self.switch_masks[a as usize] & self.switch_masks[b as usize]).count_ones();
        }
        self.switch_row(a)
            .iter()
            .zip(self.switch_row(b))
            .map(|(x, y)| (x & y).count_ones())
            .sum()
    }

    /// The switch bit words of one MCM (empty for AWGR fabrics).
    fn switch_row(&self, mcm: u32) -> &[u64] {
        let start = mcm as usize * self.mask_words;
        &self.switch_masks[start..start + self.mask_words]
    }

    /// Number of switches (or AWGR planes) an MCM attaches to.
    pub fn attachments(&self, mcm: u32) -> u32 {
        match self.config.kind {
            FabricKind::ParallelAwgrs => self.planes(),
            _ => self.switch_row(mcm).iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// Direct bandwidth between two MCMs.
    pub fn direct_bandwidth(&self, a: u32, b: u32) -> Bandwidth {
        Bandwidth::from_gbps(self.config.gbps_per_wavelength) * self.direct_wavelengths(a, b) as f64
    }

    /// Maximum ports (256-wavelength bundles) per MCM for switch fabrics.
    pub fn ports_per_mcm(&self) -> u32 {
        self.ports_per_mcm
    }

    /// Compute the connectivity report over all MCM pairs.
    ///
    /// For the paper's 350-MCM rack this is ~61k pairs — cheap for the AWGR
    /// closed form, and still fast for the switch bit masks.
    pub fn report(&self) -> FabricReport {
        let n = self.config.mcm_count;
        let mut min_w = u32::MAX;
        let mut max_w = 0u32;
        for a in 0..n {
            for b in (a + 1)..n {
                let w = self.direct_wavelengths(a, b);
                min_w = min_w.min(w);
                max_w = max_w.max(w);
            }
        }
        if n < 2 {
            min_w = 0;
        }
        FabricReport {
            kind: self.config.kind,
            planes: self.planes(),
            min_direct_wavelengths: min_w,
            max_direct_wavelengths: max_w,
            min_direct_bandwidth_gbps: min_w as f64 * self.config.gbps_per_wavelength,
            escape_bandwidth_gbps: self.config.escape_bandwidth_per_mcm().gbps(),
            needs_scheduler: self.config.kind.needs_scheduler(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in [
            FabricKind::ParallelAwgrs,
            FabricKind::WaveSelective,
            FabricKind::Spatial,
        ] {
            assert_eq!(FabricKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FabricKind::ParallelAwgrs.label(), "awgr");
        assert_eq!(FabricKind::parse("AWGR"), None);
    }

    #[test]
    fn paper_awgr_fabric_has_six_planes() {
        let f = RackFabric::paper_awgr();
        assert_eq!(f.planes(), 6);
        // 2048 wavelengths / 370 per port = 5 full planes + 198-wavelength
        // partial plane.
        assert_eq!(f.full_planes, 5);
        assert!(f.partial_plane_reach > 0);
    }

    #[test]
    fn paper_awgr_guarantees_at_least_five_direct_wavelengths() {
        let f = RackFabric::paper_awgr();
        let r = f.report();
        assert_eq!(r.min_direct_wavelengths, 5);
        assert!(r.max_direct_wavelengths >= 6);
        // 5 x 25 Gbps = 125 Gbps minimum direct bandwidth (Section VI-A1).
        assert!((r.min_direct_bandwidth_gbps - 125.0).abs() < 1e-9);
        assert!(!r.needs_scheduler);
    }

    #[test]
    fn paper_wave_selective_fabric_has_eleven_switches() {
        let f = RackFabric::paper_wave_selective();
        assert_eq!(f.planes(), 11);
        assert_eq!(f.ports_per_mcm(), 8);
    }

    #[test]
    fn wave_selective_mcms_attach_to_at_most_eight_switches() {
        let f = RackFabric::paper_wave_selective();
        for mcm in 0..350 {
            let a = f.attachments(mcm);
            assert!(a <= 8, "MCM {mcm} attaches to {a} switches");
            assert!(a >= 7, "MCM {mcm} attaches to only {a} switches");
        }
    }

    #[test]
    fn wave_selective_guarantees_at_least_three_shared_switches() {
        let f = RackFabric::paper_wave_selective();
        let r = f.report();
        // >= 3 direct paths x 256 wavelengths each.
        assert!(
            r.min_direct_wavelengths >= 3 * 256,
            "minimum direct wavelengths {} should be >= 768",
            r.min_direct_wavelengths
        );
        // 2304 Gbps direct bandwidth quoted in the paper (3 paths).
        assert!(r.min_direct_bandwidth_gbps >= 2304.0 * 25.0 / 25.0 * 1.0 - 1e-9);
        assert!(r.needs_scheduler);
    }

    #[test]
    fn escape_bandwidth_is_6_4_terabytes_per_second() {
        for kind in [FabricKind::ParallelAwgrs, FabricKind::WaveSelective] {
            let cfg = RackFabricConfig::paper_rack(kind);
            assert_eq!(cfg.wavelengths_per_mcm(), 2048);
            assert!((cfg.escape_bandwidth_per_mcm().tbytes_per_s() - 6.4).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_wavelengths_zero_for_self() {
        let f = RackFabric::paper_awgr();
        assert_eq!(f.direct_wavelengths(5, 5), 0);
    }

    #[test]
    fn awgr_direct_wavelengths_symmetric_within_one() {
        // The partial plane reach is directional (cyclically forward), so a
        // pair can differ by at most the one extra wavelength.
        let f = RackFabric::paper_awgr();
        for (a, b) in [(0u32, 1u32), (0, 349), (10, 200), (349, 0), (100, 101)] {
            let ab = f.direct_wavelengths(a, b);
            let ba = f.direct_wavelengths(b, a);
            assert!(ab.abs_diff(ba) <= 1, "({a},{b}): {ab} vs {ba}");
            assert!((5..=6).contains(&ab));
        }
    }

    #[test]
    fn spatial_fabric_matches_wave_selective_arithmetic() {
        let f = RackFabric::new(RackFabricConfig::paper_rack(FabricKind::Spatial));
        assert_eq!(f.planes(), 11);
        let r = f.report();
        assert!(r.min_direct_wavelengths >= 3 * 256);
        assert!(r.needs_scheduler);
    }

    #[test]
    fn smaller_rack_still_connects_everyone() {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        cfg.mcm_count = 64;
        let f = RackFabric::new(cfg);
        let r = f.report();
        assert!(r.min_direct_wavelengths >= 5);
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::WaveSelective);
        cfg.mcm_count = 64;
        let f = RackFabric::new(cfg);
        let r = f.report();
        assert!(r.min_direct_wavelengths >= 256);
    }

    #[test]
    fn report_is_consistent_with_direct_bandwidth() {
        let f = RackFabric::paper_awgr();
        let r = f.report();
        let bw = f.direct_bandwidth(0, 175);
        assert!(bw.gbps() >= r.min_direct_bandwidth_gbps - 1e-9);
    }

    /// The switch attachment table built the way the fabric once stored
    /// it: one `Vec<bool>` row per switch, filled by the staggered rule.
    fn brute_force_membership(config: RackFabricConfig) -> Vec<Vec<bool>> {
        let switch = config.kind.switch_config();
        let radix = switch.effective_radix();
        let ports_per_mcm =
            (config.wavelengths_per_mcm() / switch.effective_wavelengths_per_port()).max(1);
        let n = config.mcm_count;
        let switches = (u64::from(n) * u64::from(ports_per_mcm)).div_ceil(u64::from(radix));
        let mut membership = vec![vec![false; n as usize]; switches as usize];
        let mut ports_used = vec![0u32; n as usize];
        for (i, row) in membership.iter_mut().enumerate() {
            let start = (32 * i as u64 % u64::from(n)) as u32;
            let mut attached = 0;
            for offset in 0..n {
                if attached == radix {
                    break;
                }
                let mcm = ((start + offset) % n) as usize;
                if ports_used[mcm] < ports_per_mcm && !row[mcm] {
                    row[mcm] = true;
                    ports_used[mcm] += 1;
                    attached += 1;
                }
            }
        }
        membership
    }

    #[test]
    fn switch_masks_match_a_brute_force_membership_table() {
        for kind in [FabricKind::WaveSelective, FabricKind::Spatial] {
            for mcms in [16u32, 350, 4096] {
                let mut cfg = RackFabricConfig::paper_rack(kind);
                cfg.mcm_count = mcms;
                let f = RackFabric::new(cfg);
                let table = brute_force_membership(cfg);
                assert_eq!(f.planes() as usize, table.len());
                if mcms == 4096 {
                    // Two mask words per MCM.
                    assert_eq!(table.len(), 128);
                }
                for mcm in 0..mcms {
                    let expected = table.iter().filter(|sw| sw[mcm as usize]).count();
                    assert_eq!(
                        f.attachments(mcm) as usize,
                        expected,
                        "{mcms} MCMs, MCM {mcm}"
                    );
                }
                // Every pair on the smaller racks; a stride of sources on
                // the large one keeps the debug-build scan short.
                let step = if mcms > 1000 { 61 } else { 1 };
                for a in (0..mcms).step_by(step) {
                    for b in 0..mcms {
                        let expected = table
                            .iter()
                            .filter(|sw| sw[a as usize] && sw[b as usize])
                            .count();
                        assert_eq!(
                            f.shared_switches(a, b) as usize,
                            expected,
                            "{mcms} MCMs, ({a}, {b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn awgr_forward_distance_matches_the_modular_form() {
        let mut cfg = RackFabricConfig::paper_rack(FabricKind::ParallelAwgrs);
        for mcms in [2u32, 16, 350, 400] {
            cfg.mcm_count = mcms;
            let f = RackFabric::new(cfg);
            for a in 0..mcms {
                for b in (0..mcms).filter(|&b| b != a) {
                    let forward = (b + mcms - a) % mcms;
                    let expected = f.full_planes + u32::from(forward <= f.partial_plane_reach);
                    assert_eq!(
                        f.direct_wavelengths(a, b),
                        expected,
                        "{mcms} MCMs, ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn fabric_kind_scheduler_requirements() {
        assert!(!FabricKind::ParallelAwgrs.needs_scheduler());
        assert!(FabricKind::WaveSelective.needs_scheduler());
        assert!(FabricKind::Spatial.needs_scheduler());
    }
}
