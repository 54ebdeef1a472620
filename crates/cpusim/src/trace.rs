//! Memory access traces.
//!
//! A trace is a sequence of [`TraceRecord`]s, each of which represents a run
//! of non-memory instructions followed by a single memory access. This is the
//! interface between the synthetic benchmark kernels (the `workloads` crate)
//! and the timing simulator: the kernels decide *which addresses* are touched
//! and *how much compute* separates the accesses, and the simulator decides
//! *how long* that takes on a given core and cache hierarchy.

/// A single memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address accessed.
    pub addr: u64,
    /// True for stores, false for loads.
    pub is_write: bool,
}

impl MemAccess {
    /// A load at `addr`.
    pub fn read(addr: u64) -> Self {
        MemAccess {
            addr,
            is_write: false,
        }
    }

    /// A store at `addr`.
    pub fn write(addr: u64) -> Self {
        MemAccess {
            addr,
            is_write: true,
        }
    }
}

/// A run of non-memory instructions followed by one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Number of non-memory (ALU/branch/FP) instructions executed before the
    /// access.
    pub compute_instructions: u32,
    /// The memory access.
    pub access: MemAccess,
}

impl TraceRecord {
    /// Convenience constructor.
    pub fn new(compute_instructions: u32, access: MemAccess) -> Self {
        TraceRecord {
            compute_instructions,
            access,
        }
    }
}

/// An in-memory trace plus a trailing run of compute instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryTrace {
    /// The interleaved compute/memory records.
    pub records: Vec<TraceRecord>,
    /// Compute instructions after the last memory access.
    pub trailing_compute: u64,
}

impl MemoryTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a trace with pre-allocated capacity for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        MemoryTrace {
            records: Vec::with_capacity(n),
            trailing_compute: 0,
        }
    }

    /// Append a record.
    pub fn push(&mut self, compute_instructions: u32, access: MemAccess) {
        self.records
            .push(TraceRecord::new(compute_instructions, access));
    }

    /// Append a load.
    pub fn push_read(&mut self, compute_instructions: u32, addr: u64) {
        self.push(compute_instructions, MemAccess::read(addr));
    }

    /// Append a store.
    pub fn push_write(&mut self, compute_instructions: u32, addr: u64) {
        self.push(compute_instructions, MemAccess::write(addr));
    }

    /// Number of memory accesses in the trace.
    pub fn accesses(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total instruction count (compute + one instruction per memory access).
    pub fn instructions(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.compute_instructions as u64 + 1)
            .sum::<u64>()
            + self.trailing_compute
    }

    /// Ratio of memory accesses to total instructions — a key factor the
    /// paper identifies for slowdown sensitivity.
    pub fn memory_intensity(&self) -> f64 {
        let instr = self.instructions();
        if instr == 0 {
            0.0
        } else {
            self.accesses() as f64 / instr as f64
        }
    }

    /// Summary statistics of the trace.
    pub fn stats(&self) -> TraceStats {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut min_addr = u64::MAX;
        let mut max_addr = 0u64;
        for r in &self.records {
            if r.access.is_write {
                writes += 1;
            } else {
                reads += 1;
            }
            min_addr = min_addr.min(r.access.addr);
            max_addr = max_addr.max(r.access.addr);
        }
        let footprint = if self.records.is_empty() {
            0
        } else {
            max_addr - min_addr + 1
        };
        TraceStats {
            accesses: self.accesses() as u64,
            reads,
            writes,
            instructions: self.instructions(),
            address_footprint_bytes: footprint,
            memory_intensity: self.memory_intensity(),
        }
    }

    /// Concatenate another trace onto this one.
    pub fn extend_from(&mut self, other: &MemoryTrace) {
        // The other trace's records follow our trailing compute; fold it into
        // the first appended record to keep instruction counts exact.
        let mut iter = other.records.iter();
        if let Some(first) = iter.next() {
            let lead = self.trailing_compute.min(u32::MAX as u64) as u32;
            self.records.push(TraceRecord::new(
                first.compute_instructions.saturating_add(lead),
                first.access,
            ));
            self.trailing_compute = 0;
            self.records.extend(iter.copied());
            self.trailing_compute = other.trailing_compute;
        } else {
            self.trailing_compute += other.trailing_compute;
        }
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of memory accesses.
    pub accesses: u64,
    /// Number of loads.
    pub reads: u64,
    /// Number of stores.
    pub writes: u64,
    /// Total instructions.
    pub instructions: u64,
    /// Span between the lowest and highest byte address touched.
    pub address_footprint_bytes: u64,
    /// Accesses per instruction.
    pub memory_intensity: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> MemoryTrace {
        let mut t = MemoryTrace::new();
        t.push_read(10, 0x1000);
        t.push_write(5, 0x1040);
        t.push_read(0, 0x2000);
        t.trailing_compute = 7;
        t
    }

    #[test]
    fn instruction_accounting() {
        let t = sample_trace();
        // (10+1) + (5+1) + (0+1) + 7 trailing = 25.
        assert_eq!(t.instructions(), 25);
        assert_eq!(t.accesses(), 3);
    }

    #[test]
    fn memory_intensity() {
        let t = sample_trace();
        assert!((t.memory_intensity() - 3.0 / 25.0).abs() < 1e-12);
        assert_eq!(MemoryTrace::new().memory_intensity(), 0.0);
    }

    #[test]
    fn stats_reads_writes_footprint() {
        let s = sample_trace().stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.accesses, 3);
        assert_eq!(s.address_footprint_bytes, 0x2000 - 0x1000 + 1);
    }

    #[test]
    fn empty_trace_stats() {
        let s = MemoryTrace::new().stats();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.address_footprint_bytes, 0);
        assert_eq!(s.instructions, 0);
    }

    #[test]
    fn extend_from_preserves_instruction_count() {
        let mut a = sample_trace();
        let b = sample_trace();
        let expect = a.instructions() + b.instructions();
        a.extend_from(&b);
        assert_eq!(a.instructions(), expect);
        assert_eq!(a.accesses(), 6);
    }

    #[test]
    fn extend_from_empty_accumulates_trailing_compute() {
        let mut a = sample_trace();
        let mut empty = MemoryTrace::new();
        empty.trailing_compute = 3;
        let expect = a.instructions() + 3;
        a.extend_from(&empty);
        assert_eq!(a.instructions(), expect);
    }

    #[test]
    fn access_constructors() {
        assert!(!MemAccess::read(0x10).is_write);
        assert!(MemAccess::write(0x10).is_write);
        assert_eq!(MemAccess::read(0x10).addr, 0x10);
    }

    #[test]
    fn with_capacity_reserves() {
        let t = MemoryTrace::with_capacity(128);
        assert!(t.records.capacity() >= 128);
        assert!(t.is_empty());
    }
}
