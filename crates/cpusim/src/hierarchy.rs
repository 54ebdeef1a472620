//! Three-level cache hierarchy in front of a latency-configurable memory.
//!
//! The hierarchy is mostly-inclusive and write-back: demand accesses walk
//! L1D → L2 → LLC → memory; lines are allocated in every level on the way
//! back, and dirty victims are written back to the level below. The
//! disaggregation latency of the paper is applied on every LLC miss (the
//! request crosses the photonic/electronic fabric to the disaggregated
//! memory module and the response crosses back).

use crate::cache::{Cache, CacheStats, LookupResult};
use crate::config::CpuConfig;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the unified L2.
    L2,
    /// Hit in the last-level cache.
    Llc,
    /// Missed everywhere and went to main memory.
    Memory,
}

/// Outcome of one access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// The level that serviced the access.
    pub level: HierarchyLevel,
    /// Unloaded latency of the access in core cycles (hit latency of the
    /// servicing level, plus the memory latency for LLC misses).
    pub latency_cycles: u64,
    /// True if the access left the package (LLC miss): these are the
    /// accesses the disaggregation fabric sees.
    pub is_llc_miss: bool,
}

/// Per-level and memory statistics for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchyStats {
    /// L1 data cache statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Number of demand accesses that reached main memory.
    pub memory_accesses: u64,
    /// Number of memory accesses that hit the open DRAM row.
    pub memory_row_hits: u64,
    /// Number of dirty LLC lines written back to memory.
    pub memory_writebacks: u64,
}

impl HierarchyStats {
    /// LLC miss rate (the quantity Fig. 7 correlates with slowdown).
    pub fn llc_miss_rate(&self) -> f64 {
        self.llc.miss_rate()
    }

    /// Fraction of memory accesses that hit the open DRAM row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.memory_accesses == 0 {
            0.0
        } else {
            self.memory_row_hits as f64 / self.memory_accesses as f64
        }
    }
}

/// The cache hierarchy plus memory timing.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    llc: Cache,
    /// Row-miss memory latency in core cycles.
    row_miss_latency_cycles: u64,
    /// Row-hit memory latency in core cycles.
    row_hit_latency_cycles: u64,
    /// DRAM row size in bytes (open-page granule).
    row_bytes: u64,
    /// The currently open DRAM row (address / row_bytes), if any.
    open_row: Option<u64>,
    memory_accesses: u64,
    memory_row_hits: u64,
    memory_writebacks: u64,
}

impl CacheHierarchy {
    /// Build the hierarchy described by `config`.
    pub fn new(config: &CpuConfig) -> Self {
        CacheHierarchy {
            l1: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            llc: Cache::new(config.llc),
            row_miss_latency_cycles: config.memory.total_latency_cycles(config.core.clock_ghz),
            row_hit_latency_cycles: config
                .memory
                .total_row_hit_latency_cycles(config.core.clock_ghz),
            row_bytes: config.memory.row_bytes.max(1),
            open_row: None,
            memory_accesses: 0,
            memory_row_hits: 0,
            memory_writebacks: 0,
        }
    }

    /// Row-miss memory latency (base + disaggregation) in core cycles.
    pub fn memory_latency_cycles(&self) -> u64 {
        self.row_miss_latency_cycles
    }

    /// Latency of a memory access to `addr`, applying the open-page model,
    /// and update the open-row state.
    fn memory_access_latency(&mut self, addr: u64) -> u64 {
        let row = addr / self.row_bytes;
        let hit = self.open_row == Some(row);
        self.open_row = Some(row);
        if hit {
            self.memory_row_hits += 1;
            self.row_hit_latency_cycles
        } else {
            self.row_miss_latency_cycles
        }
    }

    /// Perform one demand access.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let l1_hit_latency = self.l1.config().hit_latency_cycles;
        let l2_hit_latency = self.l2.config().hit_latency_cycles;
        let llc_hit_latency = self.llc.config().hit_latency_cycles;

        // L1 lookup.
        match self.l1.access(addr, is_write) {
            LookupResult::Hit => {
                return AccessOutcome {
                    level: HierarchyLevel::L1,
                    latency_cycles: l1_hit_latency,
                    is_llc_miss: false,
                }
            }
            LookupResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    // L1 victim is written back into L2.
                    if let Some(wb2) = self.l2.install_writeback(wb) {
                        if let Some(wb3) = self.llc.install_writeback(wb2) {
                            self.memory_writebacks += 1;
                            let _ = wb3;
                        }
                    }
                }
            }
        }

        // L2 lookup. The fill into L1 happens regardless of where the line
        // comes from; allocation was already done by the L1 miss handling
        // above (the line was installed on the miss), so only timing and the
        // lower levels remain.
        match self.l2.access(addr, is_write) {
            LookupResult::Hit => {
                return AccessOutcome {
                    level: HierarchyLevel::L2,
                    latency_cycles: l1_hit_latency + l2_hit_latency,
                    is_llc_miss: false,
                }
            }
            LookupResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    if let Some(wb2) = self.llc.install_writeback(wb) {
                        self.memory_writebacks += 1;
                        let _ = wb2;
                    }
                }
            }
        }

        // LLC lookup.
        match self.llc.access(addr, is_write) {
            LookupResult::Hit => AccessOutcome {
                level: HierarchyLevel::Llc,
                latency_cycles: l1_hit_latency + l2_hit_latency + llc_hit_latency,
                is_llc_miss: false,
            },
            LookupResult::Miss { writeback } => {
                if writeback.is_some() {
                    self.memory_writebacks += 1;
                }
                self.memory_accesses += 1;
                let memory_latency = self.memory_access_latency(addr);
                AccessOutcome {
                    level: HierarchyLevel::Memory,
                    latency_cycles: l1_hit_latency
                        + l2_hit_latency
                        + llc_hit_latency
                        + memory_latency,
                    is_llc_miss: true,
                }
            }
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
            memory_accesses: self.memory_accesses,
            memory_row_hits: self.memory_row_hits,
            memory_writebacks: self.memory_writebacks,
        }
    }

    /// Reset statistics but keep cache contents (for warm-up runs).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.memory_accesses = 0;
        self.memory_row_hits = 0;
        self.memory_writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, CpuConfig};

    fn small_config(extra_latency_ns: f64) -> CpuConfig {
        let mut cfg = CpuConfig::baseline_in_order();
        cfg.l1d = CacheConfig {
            capacity_bytes: 1024,
            associativity: 2,
            line_bytes: 64,
            hit_latency_cycles: 4,
        };
        cfg.l2 = CacheConfig {
            capacity_bytes: 4 * 1024,
            associativity: 4,
            line_bytes: 64,
            hit_latency_cycles: 14,
        };
        cfg.llc = CacheConfig {
            capacity_bytes: 16 * 1024,
            associativity: 8,
            line_bytes: 64,
            hit_latency_cycles: 40,
        };
        cfg.memory.extra_latency_ns = extra_latency_ns;
        cfg
    }

    #[test]
    fn cold_access_goes_to_memory_then_hits_in_l1() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        let first = h.access(0x1_0000, false);
        assert_eq!(first.level, HierarchyLevel::Memory);
        assert!(first.is_llc_miss);
        let second = h.access(0x1_0000, false);
        assert_eq!(second.level, HierarchyLevel::L1);
        assert!(!second.is_llc_miss);
        assert_eq!(second.latency_cycles, 4);
    }

    #[test]
    fn memory_latency_includes_extra_disaggregation_latency() {
        let base = CacheHierarchy::new(&small_config(0.0));
        let photonic = CacheHierarchy::new(&small_config(35.0));
        // 90 ns vs 125 ns at 2 GHz: 180 vs 250 cycles.
        assert_eq!(base.memory_latency_cycles(), 180);
        assert_eq!(photonic.memory_latency_cycles(), 250);
    }

    #[test]
    fn miss_latency_is_sum_of_level_latencies_plus_memory() {
        let mut h = CacheHierarchy::new(&small_config(35.0));
        let out = h.access(0x5000, false);
        assert_eq!(out.latency_cycles, 4 + 14 + 40 + 250);
    }

    #[test]
    fn llc_hit_after_l1_l2_eviction() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        // Touch enough distinct lines to overflow L1 (16 lines) and L2 (64
        // lines) but not the LLC (256 lines).
        for line in 0..128u64 {
            h.access(line * 64, false);
        }
        // Re-touch the first line: it has been evicted from L1 and L2 but is
        // still in the LLC.
        let out = h.access(0, false);
        assert_eq!(out.level, HierarchyLevel::Llc);
    }

    #[test]
    fn stats_track_levels_and_memory() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        for line in 0..32u64 {
            h.access(line * 64, false);
        }
        for line in 0..32u64 {
            h.access(line * 64, false);
        }
        let s = h.stats();
        assert_eq!(s.l1.accesses, 64);
        assert_eq!(s.memory_accesses, 32);
        // Second pass: 32 lines > L1 capacity (16 lines) so L1 misses again,
        // but L2 (64 lines) holds them all.
        assert!(s.l2.hits >= 32);
        assert!(s.llc_miss_rate() > 0.0);
    }

    #[test]
    fn dirty_lines_eventually_write_back_to_memory() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        // Write a large streaming footprint so dirty lines cascade out of the
        // LLC (256 lines): 1024 distinct lines.
        for line in 0..1024u64 {
            h.access(line * 64, true);
        }
        let s = h.stats();
        assert!(
            s.memory_writebacks > 0,
            "streaming writes must push dirty lines back to memory"
        );
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        h.access(0x100, false);
        h.reset_stats();
        assert_eq!(h.stats().l1.accesses, 0);
        let out = h.access(0x100, false);
        assert_eq!(out.level, HierarchyLevel::L1);
    }

    #[test]
    fn streaming_misses_hit_the_open_dram_row() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        // Stream 32 consecutive lines (2 KiB = one DRAM row): after the first
        // row activation, subsequent misses in the same row are row hits.
        let mut latencies = Vec::new();
        for line in 0..32u64 {
            latencies.push(h.access(line * 64, false).latency_cycles);
        }
        assert!(latencies[1] < latencies[0]);
        let s = h.stats();
        assert_eq!(s.memory_accesses, 32);
        assert_eq!(s.memory_row_hits, 31);
        assert!((s.row_hit_rate() - 31.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_misses_miss_the_dram_row() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        // Accesses 1 MiB apart never share a 2 KiB row.
        for i in 0..16u64 {
            h.access(i * 1024 * 1024, false);
        }
        let s = h.stats();
        assert_eq!(s.memory_row_hits, 0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn extra_latency_applies_to_row_hits_and_misses_alike() {
        let run = |extra: f64| {
            let mut h = CacheHierarchy::new(&small_config(extra));
            let miss = h.access(0, false).latency_cycles;
            let hit = h.access(64, false).latency_cycles;
            (miss, hit)
        };
        let (m0, h0) = run(0.0);
        let (m35, h35) = run(35.0);
        assert_eq!(m35 - m0, 70);
        assert_eq!(h35 - h0, 70);
    }

    #[test]
    fn writes_and_reads_to_same_line_hit() {
        let mut h = CacheHierarchy::new(&small_config(0.0));
        h.access(0x40, true);
        let out = h.access(0x40, false);
        assert_eq!(out.level, HierarchyLevel::L1);
    }
}
