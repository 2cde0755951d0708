//! Explicit pipeline buffer with hold slots.
//!
//! CELLO's hierarchy (Fig 4) stages pipelined producer→consumer tiles in a
//! small explicit buffer: the producer writes a tile, the consumer reads it,
//! and the slot is recycled (Fig 3a). For *delayed-hold* dependencies the tile
//! is **held** — kept resident past its immediate consumer until the delayed
//! downstream consumer arrives (Fig 6: `Tile HELD`); the extra occupancy is
//! the price of serving ResNet-style skip connections without DRAM round
//! trips.

use crate::stats::AccessStats;
use std::collections::BTreeMap;

/// Errors the pipeline buffer can raise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// Tile larger than remaining capacity (stall in hardware).
    Full {
        /// Words requested.
        requested: u64,
        /// Words free.
        free: u64,
    },
    /// Tile id not resident.
    UnknownTile(u64),
}

/// State of one resident tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileState {
    /// Waiting for its immediate pipelined consumer.
    Staged,
    /// Held for a delayed-hold consumer (Fig 6).
    Held,
}

/// Double-buffer-style explicit pipeline stage with hold support.
#[derive(Clone, Debug)]
pub struct PipelineBuffer {
    capacity_words: u64,
    used_words: u64,
    tiles: BTreeMap<u64, (u64, TileState)>,
    next_id: u64,
    peak_words: u64,
    stats: AccessStats,
}

impl PipelineBuffer {
    /// New pipeline buffer.
    pub fn new(capacity_words: u64) -> Self {
        Self {
            capacity_words,
            used_words: 0,
            tiles: BTreeMap::new(),
            next_id: 0,
            peak_words: 0,
            stats: AccessStats::default(),
        }
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words
    }

    /// Current occupancy.
    pub fn used_words(&self) -> u64 {
        self.used_words
    }

    /// Highest occupancy observed — the delayed-hold footprint the scheduler
    /// must budget for ("requires slightly more occupancy", §V-A).
    pub fn peak_words(&self) -> u64 {
        self.peak_words
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Producer stages a tile; returns its id.
    pub fn stage(&mut self, words: u64) -> Result<u64, PipelineError> {
        let free = self.capacity_words - self.used_words;
        if words > free {
            return Err(PipelineError::Full {
                requested: words,
                free,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used_words += words;
        self.peak_words = self.peak_words.max(self.used_words);
        self.tiles.insert(id, (words, TileState::Staged));
        self.stats.sram_write_words += words;
        Ok(id)
    }

    /// Immediate consumer reads the tile; by default the slot is recycled.
    /// With `hold = true` the tile transitions to [`TileState::Held`] instead.
    pub fn consume(&mut self, id: u64, hold: bool) -> Result<(), PipelineError> {
        let (words, _) = *self.tiles.get(&id).ok_or(PipelineError::UnknownTile(id))?;
        self.stats.sram_read_words += words;
        self.stats.hits += words;
        if hold {
            self.tiles.insert(id, (words, TileState::Held));
        } else {
            self.tiles.remove(&id);
            self.used_words -= words;
        }
        Ok(())
    }

    /// Delayed consumer reads a held tile and releases it.
    pub fn consume_held(&mut self, id: u64) -> Result<(), PipelineError> {
        match self.tiles.get(&id) {
            Some(&(words, TileState::Held)) => {
                self.stats.sram_read_words += words;
                self.stats.hits += words;
                self.tiles.remove(&id);
                self.used_words -= words;
                Ok(())
            }
            Some(_) => Err(PipelineError::UnknownTile(id)),
            None => Err(PipelineError::UnknownTile(id)),
        }
    }

    /// State of a tile.
    pub fn tile_state(&self, id: u64) -> Option<TileState> {
        self.tiles.get(&id).map(|&(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_consume_recycles_space() {
        let mut pb = PipelineBuffer::new(100);
        let t = pb.stage(40).unwrap();
        assert_eq!(pb.used_words(), 40);
        pb.consume(t, false).unwrap();
        assert_eq!(pb.used_words(), 0);
        assert_eq!(pb.stats().sram_read_words, 40);
    }

    #[test]
    fn hold_keeps_occupancy() {
        // Fig 6: tile held across two intermediate ops, then released.
        let mut pb = PipelineBuffer::new(100);
        let held = pb.stage(30).unwrap();
        pb.consume(held, true).unwrap();
        assert_eq!(pb.tile_state(held), Some(TileState::Held));
        assert_eq!(pb.used_words(), 30);
        // Intermediate pipelined tiles come and go around the held one.
        for _ in 0..3 {
            let t = pb.stage(40).unwrap();
            pb.consume(t, false).unwrap();
        }
        assert_eq!(pb.peak_words(), 70);
        pb.consume_held(held).unwrap();
        assert_eq!(pb.used_words(), 0);
    }

    #[test]
    fn stall_when_full() {
        let mut pb = PipelineBuffer::new(50);
        pb.stage(30).unwrap();
        let err = pb.stage(30).unwrap_err();
        assert_eq!(
            err,
            PipelineError::Full {
                requested: 30,
                free: 20
            }
        );
    }

    #[test]
    fn consume_unknown_tile_errors() {
        let mut pb = PipelineBuffer::new(10);
        assert_eq!(pb.consume(7, false), Err(PipelineError::UnknownTile(7)));
        assert_eq!(pb.consume_held(7), Err(PipelineError::UnknownTile(7)));
    }

    #[test]
    fn consume_held_requires_held_state() {
        let mut pb = PipelineBuffer::new(10);
        let t = pb.stage(5).unwrap();
        // Staged (not held) tiles cannot be consumed via the held path.
        assert!(pb.consume_held(t).is_err());
    }

    #[test]
    fn hold_occupancy_tracks_reuse_distance() {
        // "The number of tiles held depends on the reuse distance of the
        // downstream dependency" — hold 3 tiles before releasing any.
        let mut pb = PipelineBuffer::new(100);
        let ids: Vec<u64> = (0..3).map(|_| pb.stage(10).unwrap()).collect();
        for &id in &ids {
            pb.consume(id, true).unwrap();
        }
        assert_eq!(pb.used_words(), 30);
        for &id in &ids {
            pb.consume_held(id).unwrap();
        }
        assert_eq!(pb.used_words(), 0);
        assert_eq!(pb.peak_words(), 30);
    }
}
