//! Per-kernel analytical profiles.
//!
//! PPT-GPU works from per-kernel memory and instruction traces extracted
//! with its "SASS" front end; the equivalent compact representation here is
//! a [`KernelProfile`]: dynamic warp-instruction count, memory-instruction
//! fraction, cache hit rates, divergence (transactions per memory
//! instruction), and achieved occupancy. An [`ApplicationProfile`] is a
//! sequence of kernels plus identifying metadata (the paper's 24 GPU
//! applications contain 1525 kernels in total).

/// Analytical profile of one GPU kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (for reporting).
    pub name: String,
    /// Total dynamic warp-level instructions executed.
    pub warp_instructions: u64,
    /// Fraction of instructions that are global/local memory operations.
    pub memory_instruction_fraction: f64,
    /// Fraction of memory requests served by the L1/texture cache.
    pub l1_hit_rate: f64,
    /// Fraction of L1 misses served by the L2 (the GPU LLC).
    pub l2_hit_rate: f64,
    /// Average 32-byte transactions generated per warp memory instruction
    /// (1 = perfectly coalesced to a single sector, up to 32 for fully
    /// divergent access).
    pub transactions_per_memory_instruction: f64,
    /// Average resident warps per SM while the kernel runs (achieved
    /// occupancy, 1..=64 on an A100).
    pub active_warps_per_sm: f64,
    /// Average outstanding memory requests each warp sustains (memory-level
    /// parallelism within a warp from independent loads).
    pub mlp_per_warp: f64,
}

impl KernelProfile {
    /// Clamp all rates into their valid ranges and return the sanitized
    /// profile. Useful when profiles are generated programmatically.
    pub fn sanitized(mut self) -> Self {
        self.memory_instruction_fraction = self.memory_instruction_fraction.clamp(0.0, 1.0);
        self.l1_hit_rate = self.l1_hit_rate.clamp(0.0, 1.0);
        self.l2_hit_rate = self.l2_hit_rate.clamp(0.0, 1.0);
        self.transactions_per_memory_instruction =
            self.transactions_per_memory_instruction.clamp(1.0, 32.0);
        self.active_warps_per_sm = self.active_warps_per_sm.max(1.0);
        self.mlp_per_warp = self.mlp_per_warp.max(1.0);
        self
    }

    /// Dynamic warp-level memory instructions.
    pub fn memory_instructions(&self) -> f64 {
        self.warp_instructions as f64 * self.memory_instruction_fraction
    }

    /// Transactions that reach the L2 (L1 misses).
    pub fn l2_transactions(&self) -> f64 {
        self.memory_instructions()
            * self.transactions_per_memory_instruction
            * (1.0 - self.l1_hit_rate)
    }

    /// Transactions that miss the L2 and go to HBM.
    pub fn hbm_transactions(&self) -> f64 {
        self.l2_transactions() * (1.0 - self.l2_hit_rate)
    }

    /// L2 miss rate as seen by the L2 (HBM transactions / L2 transactions).
    pub fn l2_miss_rate(&self) -> f64 {
        let l2 = self.l2_transactions();
        if l2 <= 0.0 {
            0.0
        } else {
            self.hbm_transactions() / l2
        }
    }

    /// HBM transactions per warp instruction — the metric Fig. 10 correlates
    /// with slowdown (r ≈ 0.79).
    pub fn hbm_transactions_per_instruction(&self) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.hbm_transactions() / self.warp_instructions as f64
        }
    }
}

/// A GPU application: a named sequence of kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationProfile {
    /// Application name (e.g. "backprop", "2mm", "AlexNet").
    pub name: String,
    /// Benchmark suite the application comes from.
    pub suite: String,
    /// The kernels, in launch order.
    pub kernels: Vec<KernelProfile>,
}

impl ApplicationProfile {
    /// Create an application profile.
    pub fn new(
        name: impl Into<String>,
        suite: impl Into<String>,
        kernels: Vec<KernelProfile>,
    ) -> Self {
        ApplicationProfile {
            name: name.into(),
            suite: suite.into(),
            kernels,
        }
    }

    /// Total warp instructions across all kernels.
    pub fn total_instructions(&self) -> u64 {
        self.kernels.iter().map(|k| k.warp_instructions).sum()
    }

    /// Total kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Total HBM transactions across all kernels.
    pub fn total_hbm_transactions(&self) -> f64 {
        self.kernels.iter().map(|k| k.hbm_transactions()).sum()
    }

    /// Instruction-weighted average L2 miss rate.
    pub fn l2_miss_rate(&self) -> f64 {
        let total_l2: f64 = self.kernels.iter().map(|k| k.l2_transactions()).sum();
        if total_l2 <= 0.0 {
            return 0.0;
        }
        self.total_hbm_transactions() / total_l2
    }

    /// HBM transactions per warp instruction for the whole application.
    pub fn hbm_transactions_per_instruction(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            0.0
        } else {
            self.total_hbm_transactions() / instr as f64
        }
    }

    /// Fraction of all instructions that are memory instructions.
    pub fn memory_instruction_fraction(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        let mem: f64 = self.kernels.iter().map(|k| k.memory_instructions()).sum();
        mem / instr as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(l1: f64, l2: f64) -> KernelProfile {
        KernelProfile {
            name: "k".into(),
            warp_instructions: 1_000_000,
            memory_instruction_fraction: 0.3,
            l1_hit_rate: l1,
            l2_hit_rate: l2,
            transactions_per_memory_instruction: 4.0,
            active_warps_per_sm: 32.0,
            mlp_per_warp: 2.0,
        }
    }

    #[test]
    fn transaction_accounting() {
        let k = kernel(0.5, 0.5);
        assert!((k.memory_instructions() - 300_000.0).abs() < 1e-6);
        // 300k * 4 * 0.5 = 600k L2 transactions.
        assert!((k.l2_transactions() - 600_000.0).abs() < 1e-6);
        // Half miss the L2.
        assert!((k.hbm_transactions() - 300_000.0).abs() < 1e-6);
        assert!((k.l2_miss_rate() - 0.5).abs() < 1e-12);
        assert!((k.hbm_transactions_per_instruction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn perfect_caches_produce_no_hbm_traffic() {
        let k = kernel(1.0, 1.0);
        assert_eq!(k.l2_transactions(), 0.0);
        assert_eq!(k.hbm_transactions(), 0.0);
        assert_eq!(k.l2_miss_rate(), 0.0);
    }

    #[test]
    fn sanitized_clamps_rates() {
        let k = KernelProfile {
            name: "bad".into(),
            warp_instructions: 10,
            memory_instruction_fraction: 1.5,
            l1_hit_rate: -0.2,
            l2_hit_rate: 2.0,
            transactions_per_memory_instruction: 100.0,
            active_warps_per_sm: 0.0,
            mlp_per_warp: 0.0,
        }
        .sanitized();
        assert_eq!(k.memory_instruction_fraction, 1.0);
        assert_eq!(k.l1_hit_rate, 0.0);
        assert_eq!(k.l2_hit_rate, 1.0);
        assert_eq!(k.transactions_per_memory_instruction, 32.0);
        assert_eq!(k.active_warps_per_sm, 1.0);
        assert_eq!(k.mlp_per_warp, 1.0);
    }

    #[test]
    fn application_aggregates() {
        let app =
            ApplicationProfile::new("test", "rodinia", vec![kernel(0.5, 0.5), kernel(0.5, 1.0)]);
        assert_eq!(app.kernel_count(), 2);
        assert_eq!(app.total_instructions(), 2_000_000);
        // Kernel 1: 300k HBM; kernel 2: 0.
        assert!((app.total_hbm_transactions() - 300_000.0).abs() < 1e-6);
        // 300k / 1.2M L2 transactions = 0.25.
        assert!((app.l2_miss_rate() - 0.25).abs() < 1e-12);
        assert!((app.hbm_transactions_per_instruction() - 0.15).abs() < 1e-12);
        assert!((app.memory_instruction_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_application_is_all_zero() {
        let app = ApplicationProfile::new("empty", "none", vec![]);
        assert_eq!(app.total_instructions(), 0);
        assert_eq!(app.l2_miss_rate(), 0.0);
        assert_eq!(app.hbm_transactions_per_instruction(), 0.0);
        assert_eq!(app.memory_instruction_fraction(), 0.0);
    }
}
