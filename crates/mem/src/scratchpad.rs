//! Fully explicit scratchpad.
//!
//! The classic DNN-accelerator buffer (Table III row 2): every word's residency
//! is decided by the programmer/compiler ahead of time. Allocation is
//! all-or-nothing — there is no hardware fallback, which is precisely why the
//! buffer-allocation search for DAG-level reuse explodes to ~10^80 choices
//! (§VI-B): the scheduler must *statically* partition the capacity among every
//! live tensor slice. This module provides the mechanism; the search-cost
//! accounting lives in `cello-core::search_space`.

use crate::stats::AccessStats;
use std::collections::BTreeMap;

/// Errors explicit allocation can raise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScratchpadError {
    /// Not enough free words for the requested allocation.
    OutOfCapacity {
        /// Words requested.
        requested: u64,
        /// Words available.
        free: u64,
    },
    /// Allocation name already in use.
    DuplicateName(String),
    /// Unknown allocation.
    UnknownAllocation(String),
}

/// A named region resident in the scratchpad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Offset in words from the scratchpad base.
    pub offset: u64,
    /// Length in words.
    pub words: u64,
}

/// Explicitly managed on-chip buffer, word-granular.
#[derive(Clone, Debug)]
pub struct Scratchpad {
    capacity_words: u64,
    used_words: u64,
    regions: BTreeMap<String, Region>,
    next_offset: u64,
    stats: AccessStats,
}

impl Scratchpad {
    /// New scratchpad with `capacity_words` capacity.
    pub fn new(capacity_words: u64) -> Self {
        Self {
            capacity_words,
            used_words: 0,
            regions: BTreeMap::new(),
            next_offset: 0,
            stats: AccessStats::default(),
        }
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words
    }

    /// Words currently allocated.
    pub fn used_words(&self) -> u64 {
        self.used_words
    }

    /// Free words.
    pub fn free_words(&self) -> u64 {
        self.capacity_words - self.used_words
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Allocates a named region; fails (no fallback!) if it does not fit.
    pub fn alloc(&mut self, name: &str, words: u64) -> Result<Region, ScratchpadError> {
        if self.regions.contains_key(name) {
            return Err(ScratchpadError::DuplicateName(name.to_string()));
        }
        if words > self.free_words() {
            return Err(ScratchpadError::OutOfCapacity {
                requested: words,
                free: self.free_words(),
            });
        }
        let region = Region {
            offset: self.next_offset,
            words,
        };
        self.next_offset += words;
        self.used_words += words;
        self.regions.insert(name.to_string(), region.clone());
        Ok(region)
    }

    /// Frees a named region.
    pub fn free(&mut self, name: &str) -> Result<(), ScratchpadError> {
        match self.regions.remove(name) {
            Some(r) => {
                self.used_words -= r.words;
                // Simple compaction model: explicit managers re-lay-out offline.
                if self.regions.is_empty() {
                    self.next_offset = 0;
                }
                Ok(())
            }
            None => Err(ScratchpadError::UnknownAllocation(name.to_string())),
        }
    }

    /// Region lookup.
    pub fn region(&self, name: &str) -> Option<&Region> {
        self.regions.get(name)
    }

    /// Charges `words` SRAM reads against a region (must exist).
    pub fn read(&mut self, name: &str, words: u64) -> Result<(), ScratchpadError> {
        if !self.regions.contains_key(name) {
            return Err(ScratchpadError::UnknownAllocation(name.to_string()));
        }
        self.stats.sram_read_words += words;
        self.stats.hits += words; // explicit => always a hit once allocated
        Ok(())
    }

    /// Charges `words` SRAM writes against a region (must exist).
    pub fn write(&mut self, name: &str, words: u64) -> Result<(), ScratchpadError> {
        if !self.regions.contains_key(name) {
            return Err(ScratchpadError::UnknownAllocation(name.to_string()));
        }
        self.stats.sram_write_words += words;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free() {
        let mut sp = Scratchpad::new(100);
        let r = sp.alloc("P", 60).unwrap();
        assert_eq!(r.offset, 0);
        assert_eq!(sp.free_words(), 40);
        sp.free("P").unwrap();
        assert_eq!(sp.free_words(), 100);
    }

    #[test]
    fn over_allocation_fails_hard() {
        let mut sp = Scratchpad::new(100);
        sp.alloc("P", 60).unwrap();
        let err = sp.alloc("R", 50).unwrap_err();
        assert_eq!(
            err,
            ScratchpadError::OutOfCapacity {
                requested: 50,
                free: 40
            }
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut sp = Scratchpad::new(100);
        sp.alloc("P", 10).unwrap();
        assert!(matches!(
            sp.alloc("P", 10),
            Err(ScratchpadError::DuplicateName(_))
        ));
    }

    #[test]
    fn read_write_charge_stats() {
        let mut sp = Scratchpad::new(100);
        sp.alloc("P", 50).unwrap();
        sp.read("P", 20).unwrap();
        sp.write("P", 30).unwrap();
        assert_eq!(sp.stats().sram_read_words, 20);
        assert_eq!(sp.stats().sram_write_words, 30);
        assert!(matches!(
            sp.read("X", 1),
            Err(ScratchpadError::UnknownAllocation(_))
        ));
    }

    #[test]
    fn offsets_advance() {
        let mut sp = Scratchpad::new(100);
        sp.alloc("A", 30).unwrap();
        let b = sp.alloc("B", 30).unwrap();
        assert_eq!(b.offset, 30);
    }
}
