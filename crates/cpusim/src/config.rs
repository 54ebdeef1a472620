//! Simulator configuration: cache geometry, core model, and memory latency.
//!
//! The default configuration mirrors the paper's model rack CPU — an AMD
//! Milan-class core with a three-level cache hierarchy and ~90 ns DDR4
//! access latency — with the disaggregation latency added *between the LLC
//! and main memory*, exactly where the paper inserts it.

/// Geometry and latency of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Access (hit) latency in core cycles.
    pub hit_latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.associativity as u64 * self.line_bytes as u64)
    }

    /// Validate that the geometry is internally consistent (power-of-two
    /// sets and line size, capacity divisible by way size).
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} must be a power of two",
                self.line_bytes
            ));
        }
        if self.associativity == 0 {
            return Err("associativity must be non-zero".to_string());
        }
        let way_bytes = self.associativity as u64 * self.line_bytes as u64;
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(way_bytes) {
            return Err(format!(
                "capacity {} is not a multiple of associativity*line ({})",
                self.capacity_bytes, way_bytes
            ));
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        Ok(())
    }

    /// A 32 KiB, 8-way L1 data cache (4-cycle hit).
    pub fn l1d_default() -> Self {
        CacheConfig {
            capacity_bytes: 32 * 1024,
            associativity: 8,
            line_bytes: 64,
            hit_latency_cycles: 4,
        }
    }

    /// A 512 KiB, 8-way private L2 (14-cycle hit).
    pub fn l2_default() -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024,
            associativity: 8,
            line_bytes: 64,
            hit_latency_cycles: 14,
        }
    }

    /// A 4 MiB, 16-way LLC slice (40-cycle hit) — the per-core share of a
    /// Milan-class 32 MiB CCX L3 shared by eight cores. The paper simulates a
    /// single core, so the per-core LLC share is the capacity that matters
    /// for working-set fit.
    pub fn llc_default() -> Self {
        CacheConfig {
            capacity_bytes: 4 * 1024 * 1024,
            associativity: 16,
            line_bytes: 64,
            hit_latency_cycles: 40,
        }
    }
}

/// Main-memory (DDR4/HBM) timing with a simple open-page row-buffer model.
///
/// Consecutive accesses that land in the same DRAM row (an open page) see a
/// much lower device latency than accesses that open a new row. Streaming
/// workloads therefore have a *lower* baseline memory latency than
/// pointer-chasing workloads — which is exactly why the fixed additional
/// disaggregation latency hurts streaming, LLC-thrashing benchmarks (like
/// Rodinia's `nw`) proportionally more, as the paper observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Response latency when the access misses the open row (row activate +
    /// column access): ≈90 ns for DDR4, 90–140 ns for HBM.
    pub base_latency_ns: f64,
    /// Response latency when the access hits the currently open row.
    pub row_hit_latency_ns: f64,
    /// Size of a DRAM row (open page) in bytes.
    pub row_bytes: u64,
    /// Additional latency between the LLC and memory introduced by the
    /// disaggregation fabric (0 for the non-disaggregated baseline, 35 ns
    /// for the photonic rack, 85 ns for the electronic-switch rack).
    pub extra_latency_ns: f64,
}

impl MemoryConfig {
    /// DDR4 with no disaggregation latency (the baseline system).
    pub fn ddr4_baseline() -> Self {
        MemoryConfig {
            base_latency_ns: 90.0,
            row_hit_latency_ns: 45.0,
            row_bytes: 2048,
            extra_latency_ns: 0.0,
        }
    }

    /// DDR4 behind the photonic fabric (35 ns additional).
    pub fn ddr4_photonic() -> Self {
        Self::ddr4_baseline().with_extra_latency_ns(35.0)
    }

    /// DDR4 behind the electronic-switch fabric (85 ns additional).
    pub fn ddr4_electronic() -> Self {
        Self::ddr4_baseline().with_extra_latency_ns(85.0)
    }

    /// Replace the extra latency, keeping the device timings.
    pub fn with_extra_latency_ns(mut self, extra: f64) -> Self {
        self.extra_latency_ns = extra;
        self
    }

    /// Total row-miss memory latency in nanoseconds.
    pub fn total_latency_ns(&self) -> f64 {
        self.base_latency_ns + self.extra_latency_ns
    }

    /// Total row-hit memory latency in nanoseconds.
    pub fn total_row_hit_latency_ns(&self) -> f64 {
        self.row_hit_latency_ns + self.extra_latency_ns
    }

    /// Total row-miss memory latency in core cycles at the given clock.
    pub fn total_latency_cycles(&self, clock_ghz: f64) -> u64 {
        (self.total_latency_ns() * clock_ghz).round() as u64
    }

    /// Total row-hit memory latency in core cycles at the given clock.
    pub fn total_row_hit_latency_cycles(&self, clock_ghz: f64) -> u64 {
        (self.total_row_hit_latency_ns() * clock_ghz).round() as u64
    }
}

/// Which timing model the core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// In-order pipeline: every memory access stalls the core for its full
    /// latency. Gives the clearest view of memory-latency sensitivity.
    InOrder,
    /// Out-of-order core: overlaps independent misses (MLP) and hides part
    /// of the latency behind the reorder buffer.
    OutOfOrder,
}

impl CoreKind {
    /// Both core kinds, in the order the paper's figures present them.
    pub const ALL: [CoreKind; 2] = [CoreKind::InOrder, CoreKind::OutOfOrder];
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreKind::InOrder => f.write_str("in-order"),
            CoreKind::OutOfOrder => f.write_str("OOO"),
        }
    }
}

/// Core microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Timing model.
    pub kind: CoreKind,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Issue width in instructions per cycle (non-memory work).
    pub issue_width: u32,
    /// Reorder-buffer size in instructions (OOO only).
    pub rob_size: u32,
    /// Maximum outstanding LLC misses (MSHRs / memory-level parallelism).
    pub max_outstanding_misses: u32,
}

impl CoreConfig {
    /// In-order core at 2 GHz, single-issue for memory clarity (the paper
    /// uses in-order cores precisely because they do not mask latency).
    pub fn in_order_default() -> Self {
        CoreConfig {
            kind: CoreKind::InOrder,
            clock_ghz: 2.0,
            issue_width: 1,
            rob_size: 1,
            max_outstanding_misses: 1,
        }
    }

    /// A Milan-class out-of-order core: 4-wide, 256-entry ROB, up to 10
    /// outstanding misses.
    pub fn out_of_order_default() -> Self {
        CoreConfig {
            kind: CoreKind::OutOfOrder,
            clock_ghz: 2.0,
            issue_width: 4,
            rob_size: 256,
            max_outstanding_misses: 10,
        }
    }

    /// Default config for a [`CoreKind`].
    pub fn for_kind(kind: CoreKind) -> Self {
        match kind {
            CoreKind::InOrder => Self::in_order_default(),
            CoreKind::OutOfOrder => Self::out_of_order_default(),
        }
    }
}

/// Full simulator configuration: cache hierarchy + memory + core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache (per-core share).
    pub llc: CacheConfig,
    /// Main memory timing.
    pub memory: MemoryConfig,
    /// Core model.
    pub core: CoreConfig,
}

impl CpuConfig {
    /// The paper's model-rack CPU (Milan-like) with an in-order core and no
    /// disaggregation latency.
    pub fn baseline_in_order() -> Self {
        CpuConfig {
            l1d: CacheConfig::l1d_default(),
            l2: CacheConfig::l2_default(),
            llc: CacheConfig::llc_default(),
            memory: MemoryConfig::ddr4_baseline(),
            core: CoreConfig::in_order_default(),
        }
    }

    /// The paper's model-rack CPU with an out-of-order core.
    pub fn baseline_out_of_order() -> Self {
        CpuConfig {
            core: CoreConfig::out_of_order_default(),
            ..Self::baseline_in_order()
        }
    }

    /// Baseline config for a core kind.
    pub fn baseline(kind: CoreKind) -> Self {
        match kind {
            CoreKind::InOrder => Self::baseline_in_order(),
            CoreKind::OutOfOrder => Self::baseline_out_of_order(),
        }
    }

    /// The same configuration with a different extra LLC-to-memory latency.
    pub fn with_extra_latency_ns(mut self, extra_ns: f64) -> Self {
        self.memory.extra_latency_ns = extra_ns;
        self
    }

    /// Validate all cache geometries.
    pub fn validate(&self) -> Result<(), String> {
        self.l1d.validate()?;
        self.l2.validate()?;
        self.llc.validate()?;
        if self.core.issue_width == 0 {
            return Err("issue width must be non-zero".into());
        }
        if self.core.clock_ghz <= 0.0 {
            return Err("clock must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometries_are_valid() {
        assert!(CpuConfig::baseline_in_order().validate().is_ok());
        assert!(CpuConfig::baseline_out_of_order().validate().is_ok());
    }

    #[test]
    fn cache_set_counts() {
        assert_eq!(CacheConfig::l1d_default().sets(), 64);
        assert_eq!(CacheConfig::l2_default().sets(), 1024);
        assert_eq!(CacheConfig::llc_default().sets(), 4096);
    }

    #[test]
    fn invalid_geometries_rejected() {
        let mut c = CacheConfig::l1d_default();
        c.line_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1d_default();
        c.associativity = 0;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1d_default();
        c.capacity_bytes = 33 * 1024;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1d_default();
        c.capacity_bytes = 3 * 8 * 64; // 3 sets: not a power of two
        assert!(c.validate().is_err());
    }

    #[test]
    fn memory_latency_points_match_paper() {
        assert_eq!(MemoryConfig::ddr4_baseline().total_latency_ns(), 90.0);
        assert_eq!(MemoryConfig::ddr4_photonic().total_latency_ns(), 125.0);
        assert_eq!(MemoryConfig::ddr4_electronic().total_latency_ns(), 175.0);
    }

    #[test]
    fn memory_latency_in_cycles() {
        // 125 ns at 2 GHz = 250 cycles.
        assert_eq!(MemoryConfig::ddr4_photonic().total_latency_cycles(2.0), 250);
        assert_eq!(MemoryConfig::ddr4_baseline().total_latency_cycles(2.0), 180);
    }

    #[test]
    fn with_extra_latency_builder() {
        let cfg = CpuConfig::baseline_in_order().with_extra_latency_ns(35.0);
        assert_eq!(cfg.memory.extra_latency_ns, 35.0);
        assert_eq!(cfg.memory.base_latency_ns, 90.0);
        let m = MemoryConfig::ddr4_baseline().with_extra_latency_ns(85.0);
        assert_eq!(m.total_latency_ns(), 175.0);
    }

    #[test]
    fn core_kind_display_and_defaults() {
        assert_eq!(CoreKind::InOrder.to_string(), "in-order");
        assert_eq!(CoreKind::OutOfOrder.to_string(), "OOO");
        assert_eq!(
            CoreConfig::for_kind(CoreKind::InOrder).kind,
            CoreKind::InOrder
        );
        assert_eq!(
            CoreConfig::for_kind(CoreKind::OutOfOrder).kind,
            CoreKind::OutOfOrder
        );
        assert!(CoreConfig::out_of_order_default().rob_size > 1);
    }

    #[test]
    fn baseline_selector_matches_kind() {
        for kind in CoreKind::ALL {
            assert_eq!(CpuConfig::baseline(kind).core.kind, kind);
        }
    }
}
