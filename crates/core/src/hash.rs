//! 64-bit FNV-1a, the engine's one content hash: scenario seeds, the grid
//! and sample hashes that name shard-cache directories, and the sampler's
//! policy coordinates all go through it, so none of them can drift apart.

/// A 64-bit FNV-1a hasher.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hash `v` as its eight little-endian bytes.
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes` in one call.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use crate::sample::SampleConfig;
    use crate::sweep::SweepGrid;

    #[test]
    fn cache_directory_hashes_are_pinned() {
        // Both hashes name on-disk shard-cache directories: a change here
        // orphans every cache an earlier build wrote.
        assert_eq!(SweepGrid::default().grid_hash(), "3040d22b56332dd6");
        assert_eq!(SampleConfig::default().sample_hash(), "2ea37d40d91a9ba9");
    }
}
