//! Shared access counters.
//!
//! Every buffer mechanism and the simulation engine report into the same
//! [`AccessStats`] so configurations are comparable: DRAM traffic drives the
//! performance model (memory-bound phases) and the off-chip energy figure
//! (Fig 14); SRAM/tag access counts drive the on-chip energy comparison
//! (Fig 15b).

use std::ops::AddAssign;

/// Byte- and access-level counters accumulated during a simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Words read from on-chip SRAM data arrays.
    pub sram_read_words: u64,
    /// Words written to on-chip SRAM data arrays.
    pub sram_write_words: u64,
    /// Tag-array (or metadata-table) lookups performed.
    pub tag_accesses: u64,
    /// Buffer hits (operand-level or line-level depending on mechanism).
    pub hits: u64,
    /// Buffer misses.
    pub misses: u64,
    /// Dirty evictions (writebacks) performed by the buffer.
    pub writebacks: u64,
}

impl AccessStats {
    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Hit rate over hits+misses (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Field-wise difference against an `earlier` snapshot of the same
    /// monotone counters — the per-phase delta the engine attributes to one
    /// phase. Saturating so a mismatched pair yields zeros, not a panic.
    pub fn delta_since(&self, earlier: &AccessStats) -> AccessStats {
        AccessStats {
            dram_read_bytes: self.dram_read_bytes.saturating_sub(earlier.dram_read_bytes),
            dram_write_bytes: self
                .dram_write_bytes
                .saturating_sub(earlier.dram_write_bytes),
            sram_read_words: self.sram_read_words.saturating_sub(earlier.sram_read_words),
            sram_write_words: self
                .sram_write_words
                .saturating_sub(earlier.sram_write_words),
            tag_accesses: self.tag_accesses.saturating_sub(earlier.tag_accesses),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
        }
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: Self) {
        self.dram_read_bytes += rhs.dram_read_bytes;
        self.dram_write_bytes += rhs.dram_write_bytes;
        self.sram_read_words += rhs.sram_read_words;
        self.sram_write_words += rhs.sram_write_words;
        self.tag_accesses += rhs.tag_accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.writebacks += rhs.writebacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_bytes_sums_directions() {
        let s = AccessStats {
            dram_read_bytes: 100,
            dram_write_bytes: 50,
            ..Default::default()
        };
        assert_eq!(s.dram_bytes(), 150);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(AccessStats::default().hit_rate(), 0.0);
        let s = AccessStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = AccessStats {
            hits: 1,
            dram_read_bytes: 16,
            ..Default::default()
        };
        a += AccessStats {
            hits: 2,
            misses: 5,
            dram_write_bytes: 32,
            ..Default::default()
        };
        assert_eq!(a.hits, 3);
        assert_eq!(a.misses, 5);
        assert_eq!(a.dram_bytes(), 48);
    }

    #[test]
    fn delta_since_inverts_add_assign() {
        let earlier = AccessStats {
            hits: 2,
            misses: 1,
            dram_read_bytes: 64,
            tag_accesses: 8,
            ..Default::default()
        };
        let mut later = earlier;
        let phase = AccessStats {
            hits: 5,
            writebacks: 2,
            dram_write_bytes: 128,
            sram_read_words: 7,
            ..Default::default()
        };
        later += phase;
        assert_eq!(later.delta_since(&earlier), phase);
        // Mismatched order saturates to zero instead of underflowing.
        assert_eq!(earlier.delta_since(&later), AccessStats::default());
    }
}
