//! Buffet: explicit-decoupled data orchestration (Pellauer et al., ASPLOS'19).
//!
//! The Table III / Fig 15 comparison point between scratchpads and CHORD.
//! A buffet is a circular FIFO with credit-based synchronization: a *filler*
//! pushes data while credits remain, a *consumer* reads by offset from the
//! head and *shrinks* the window to retire data. It removes the
//! synchronization burden of raw scratchpads (2% controller overhead, paper
//! §VII-B3) but placement is still fully explicit — it cannot arbitrate
//! between multiple delayed tensors the way RIFF does.

use crate::stats::AccessStats;

/// Errors raised by buffet operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuffetError {
    /// Fill attempted with no credits (buffer full).
    NoCredit,
    /// Read offset beyond the currently filled window.
    ReadBeyondFill,
    /// Shrink larger than the filled window.
    ShrinkBeyondFill,
}

/// A credit-managed circular buffer of words.
#[derive(Clone, Debug)]
pub struct Buffet {
    capacity_words: u64,
    head: u64,
    filled: u64,
    stats: AccessStats,
}

impl Buffet {
    /// New buffet with all credits available.
    pub fn new(capacity_words: u64) -> Self {
        Self {
            capacity_words,
            head: 0,
            filled: 0,
            stats: AccessStats::default(),
        }
    }

    /// Remaining fill credits (free words).
    pub fn credits(&self) -> u64 {
        self.capacity_words - self.filled
    }

    /// Words currently buffered.
    pub fn occupancy(&self) -> u64 {
        self.filled
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Fills `words` (producer side). Fails when credits are exhausted — the
    /// filler is expected to block, which the simulator models as a stall.
    pub fn fill(&mut self, words: u64) -> Result<(), BuffetError> {
        if words > self.credits() {
            return Err(BuffetError::NoCredit);
        }
        self.filled += words;
        self.stats.sram_write_words += words;
        Ok(())
    }

    /// Reads `words` starting `offset` words from the head (consumer side).
    /// Buffets allow random access *within* the filled window.
    pub fn read(&mut self, offset: u64, words: u64) -> Result<(), BuffetError> {
        if offset + words > self.filled {
            return Err(BuffetError::ReadBeyondFill);
        }
        self.stats.sram_read_words += words;
        self.stats.hits += words;
        Ok(())
    }

    /// Retires `words` from the head, returning credits to the filler.
    pub fn shrink(&mut self, words: u64) -> Result<(), BuffetError> {
        if words > self.filled {
            return Err(BuffetError::ShrinkBeyondFill);
        }
        self.head = self.head.wrapping_add(words);
        self.filled -= words;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_read_shrink_cycle() {
        let mut b = Buffet::new(100);
        b.fill(60).unwrap();
        assert_eq!(b.credits(), 40);
        b.read(0, 60).unwrap();
        b.shrink(60).unwrap();
        assert_eq!(b.credits(), 100);
        assert_eq!(b.stats().sram_read_words, 60);
        assert_eq!(b.stats().sram_write_words, 60);
    }

    #[test]
    fn fill_blocks_without_credit() {
        let mut b = Buffet::new(10);
        b.fill(10).unwrap();
        assert_eq!(b.fill(1), Err(BuffetError::NoCredit));
    }

    #[test]
    fn read_bounded_by_fill() {
        let mut b = Buffet::new(10);
        b.fill(5).unwrap();
        assert_eq!(b.read(3, 3), Err(BuffetError::ReadBeyondFill));
        b.read(4, 1).unwrap();
    }

    #[test]
    fn shrink_bounded_by_fill() {
        let mut b = Buffet::new(10);
        b.fill(5).unwrap();
        assert_eq!(b.shrink(6), Err(BuffetError::ShrinkBeyondFill));
        b.shrink(5).unwrap();
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn credits_pipeline_producer_consumer() {
        // Classic double-buffer pattern: fill tile, read, shrink, repeat.
        let mut b = Buffet::new(4);
        for _ in 0..16 {
            b.fill(2).unwrap();
            b.read(0, 2).unwrap();
            b.shrink(2).unwrap();
        }
        assert_eq!(b.stats().sram_read_words, 32);
        assert_eq!(b.credits(), 4);
    }
}
