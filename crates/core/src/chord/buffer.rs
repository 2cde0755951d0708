//! The CHORD buffer mechanism: PRELUDE fill/spill + RIFF tail replacement.
//!
//! Semantics (paper §VI-A, Fig 9/10):
//!
//! - **Produce** (an operation writes its output tensor): the head of the
//!   tensor fills free space (PRELUDE keeps the *head* because it will be
//!   re-referenced first — the opposite of LRU's keep-the-most-recent). When
//!   space runs out, RIFF searches for a victim tensor with strictly lower
//!   (frequency, distance) priority and evicts words from the **victim's
//!   tail**; when no victim exists, the remaining words spill straight to
//!   DRAM.
//! - **Fetch** (a DRAM-resident input streams on-chip for the first time):
//!   same enqueue path, but the data is *clean* — spilling or evicting it
//!   costs nothing beyond the lost reuse.
//! - **Consume** (an operation reads a tensor): the resident head prefix hits
//!   in SRAM (`req.addr < end_chord`, one comparison); the non-resident tail
//!   streams from DRAM. When SCORE's metadata says this was the last use, the
//!   entry is retired — dirty words of a dead tensor are simply dropped.
//! - Evicted dirty words with future uses are written back to DRAM at
//!   eviction time; nothing is ever written back twice.
//!
//! Every word is accounted exactly once (see [`TensorAudit`]); the property
//! tests in this module and `tests/` enforce conservation.

use super::table::{RiffIndexTable, RiffPriority, TableError};
use cello_mem::stats::AccessStats;
use std::collections::BTreeMap;

/// Which replacement machinery is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChordPolicyKind {
    /// PRELUDE only: fill free space head-first, spill the rest, never evict
    /// another tensor (the §VII-C3 ablation configuration).
    PreludeOnly,
    /// Full CHORD: PRELUDE + RIFF tail replacement.
    PreludeRiff,
}

/// CHORD configuration (Table V: 4 MB data array, 64-entry RIFF table).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChordConfig {
    /// Data-array capacity in words.
    pub capacity_words: u64,
    /// Bytes per word (4 for CG/GNN, 2 for ResNet — Table VII).
    pub word_bytes: u32,
    /// Active policy.
    pub policy: ChordPolicyKind,
    /// RIFF-index-table entries (64 in the paper).
    pub max_entries: usize,
}

impl ChordConfig {
    /// The paper's configuration: 4 MB at `word_bytes`-byte words.
    pub fn paper_4mb(word_bytes: u32) -> Self {
        Self {
            capacity_words: (4 << 20) / word_bytes as u64,
            word_bytes,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: 64,
        }
    }
}

/// Outcome of a consume: how many words hit on-chip vs streamed from DRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsumeResult {
    /// Words served from the CHORD data array.
    pub hit_words: u64,
    /// Words fetched from DRAM.
    pub miss_words: u64,
}

/// Per-tensor word-conservation ledger (for tests and reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TensorAudit {
    /// Words produced on-chip (dirty creation).
    pub produced: u64,
    /// Words fetched from DRAM (clean fill attempt).
    pub fetched: u64,
    /// Dirty words spilled to DRAM at produce time (PRELUDE tail spill).
    pub spilled: u64,
    /// Clean words that never got a slot.
    pub uncached: u64,
    /// Dirty words written back when RIFF evicted them.
    pub evicted_dirty: u64,
    /// Clean words RIFF evicted (no DRAM cost).
    pub evicted_clean: u64,
    /// Resident words discarded at tensor death.
    pub dropped: u64,
}

/// The CHORD buffer.
///
/// ```
/// use cello_core::chord::{Chord, ChordConfig, ChordPolicyKind, RiffPriority};
///
/// let mut chord = Chord::new(ChordConfig {
///     capacity_words: 1_000,
///     word_bytes: 4,
///     policy: ChordPolicyKind::PreludeRiff,
///     max_entries: 64,
/// });
/// // A 1500-word tensor: PRELUDE keeps the 1000-word head, spills the tail.
/// let spilled = chord.produce("P", 1_500, RiffPriority::new(2, 1));
/// assert_eq!(spilled, 500);
/// // Reading it back hits the resident head and streams the tail from DRAM.
/// let r = chord.consume("P", None);
/// assert_eq!((r.hit_words, r.miss_words), (1_000, 500));
/// chord.check_conservation().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct Chord {
    cfg: ChordConfig,
    table: RiffIndexTable,
    stats: AccessStats,
    audit: BTreeMap<String, TensorAudit>,
}

impl Chord {
    /// Creates an empty CHORD.
    pub fn new(cfg: ChordConfig) -> Self {
        Self {
            table: RiffIndexTable::new(cfg.capacity_words, cfg.max_entries),
            cfg,
            stats: AccessStats::default(),
            audit: BTreeMap::new(),
        }
    }

    /// Configuration.
    pub fn config(&self) -> ChordConfig {
        self.cfg
    }

    /// The RIFF index table (read-only view).
    pub fn table(&self) -> &RiffIndexTable {
        &self.table
    }

    /// Traffic statistics.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Conservation ledger for a tensor.
    pub fn audit(&self, name: &str) -> TensorAudit {
        self.audit.get(name).copied().unwrap_or_default()
    }

    fn audit_mut(&mut self, name: &str) -> &mut TensorAudit {
        self.audit.entry(name.to_string()).or_default()
    }

    fn bytes(&self, words: u64) -> u64 {
        words * self.cfg.word_bytes as u64
    }

    /// Evicts `take` words from `victim_name`'s tail and settles the
    /// accounting — the one place eviction bookkeeping lives (RIFF admit
    /// and the per-phase resize both route here). Dirty victims have future
    /// uses (dead tensors are retired eagerly), so their tail must persist
    /// to DRAM; clean tails evict for free. Returns words actually taken.
    fn evict_tail(&mut self, victim_name: &str, victim_dirty: bool, take: u64) -> u64 {
        let taken = self.table.shrink_tail(victim_name, take);
        if victim_dirty {
            self.stats.dram_write_bytes += self.bytes(taken);
            self.stats.writebacks += 1;
            self.audit_mut(victim_name).evicted_dirty += taken;
        } else {
            self.audit_mut(victim_name).evicted_clean += taken;
        }
        taken
    }

    /// Shared enqueue path: admit as much of `words` as policy allows for
    /// `name` (already inserted in the table). Returns words admitted.
    fn admit(&mut self, name: &str, words: u64, priority: RiffPriority) -> u64 {
        let mut admitted = words.min(self.table.free_words());
        // Entry may itself be capped by the tensor's size (enforced by grow).
        if admitted > 0 {
            self.table.grow(name, admitted);
        }
        let mut remaining = words - admitted;
        if self.cfg.policy == ChordPolicyKind::PreludeRiff {
            while remaining > 0 {
                let Some(victim) = self.table.riff_victim(name, priority) else {
                    break;
                };
                let victim_name = victim.name.clone();
                let victim_dirty = victim.dirty;
                let take = remaining.min(victim.resident_words);
                let taken = self.evict_tail(&victim_name, victim_dirty, take);
                self.table.grow(name, taken);
                admitted += taken;
                remaining -= taken;
            }
        }
        self.stats.sram_write_words += admitted;
        admitted
    }

    /// An operation writes its freshly produced output tensor (dirty data).
    /// Returns the number of words that spilled to DRAM.
    ///
    /// # Panics
    /// Panics if the tensor is already registered — the DAG must use versioned
    /// tensor names (`X@2`), one per produced value.
    pub fn produce(&mut self, name: &str, words: u64, priority: RiffPriority) -> u64 {
        match self.table.insert(name, words, true, priority) {
            Ok(()) => {}
            Err(TableError::TableFull) => {
                // No metadata slot: the whole tensor streams to DRAM.
                self.stats.dram_write_bytes += self.bytes(words);
                let a = self.audit_mut(name);
                a.produced += words;
                a.spilled += words;
                return words;
            }
            Err(TableError::Duplicate) => panic!("produce of duplicate tensor {name}"),
        }
        let admitted = self.admit(name, words, priority);
        let spill = words - admitted;
        if spill > 0 {
            // PRELUDE: the tail that does not fit goes straight to DRAM.
            self.stats.dram_write_bytes += self.bytes(spill);
        }
        let a = self.audit_mut(name);
        a.produced += words;
        a.spilled += spill;
        spill
    }

    /// A DRAM-resident tensor streams on-chip for the first time (clean).
    /// Charges the full DRAM read; caches what fits for future uses.
    pub fn fetch(&mut self, name: &str, words: u64, priority: RiffPriority) {
        self.stats.dram_read_bytes += self.bytes(words);
        let admitted = match self.table.insert(name, words, false, priority) {
            Ok(()) => self.admit(name, words, priority),
            Err(TableError::TableFull) => 0,
            Err(TableError::Duplicate) => panic!("fetch of duplicate tensor {name}"),
        };
        let a = self.audit_mut(name);
        a.fetched += words;
        a.uncached += words - admitted;
    }

    /// An operation reads a tensor. The resident head hits; the rest streams
    /// from DRAM. `next_priority = None` (or `freq == 0`) marks the last use:
    /// the entry is retired and dead dirty words are dropped.
    pub fn consume(&mut self, name: &str, next_priority: Option<RiffPriority>) -> ConsumeResult {
        let (resident, total) = match self.table.get(name) {
            Some(e) => (e.resident_words, e.total_words),
            None => {
                // Fully spilled / never cached: the caller still knows the
                // footprint, but we don't — callers use `consume_absent`.
                panic!(
                    "consume of unknown tensor {name}; use consume_absent for fully-DRAM tensors"
                )
            }
        };
        let miss = total - resident;
        self.stats.sram_read_words += resident;
        self.stats.tag_accesses += 1; // one end_chord comparison per operand
        self.stats.hits += resident;
        self.stats.misses += miss;
        self.stats.dram_read_bytes += self.bytes(miss);
        self.table.tick_history(&[name]);
        match next_priority {
            Some(p) if p.freq > 0 => self.table.set_priority(name, p),
            _ => self.retire(name),
        }
        ConsumeResult {
            hit_words: resident,
            miss_words: miss,
        }
    }

    /// Reads a tensor that has no CHORD entry at all (e.g. produced when the
    /// table was full): pure DRAM streaming.
    pub fn consume_absent(&mut self, words: u64) -> ConsumeResult {
        self.stats.misses += words;
        self.stats.dram_read_bytes += self.bytes(words);
        ConsumeResult {
            hit_words: 0,
            miss_words: words,
        }
    }

    /// Drops a tensor (death). Dead data needs no writeback — nobody will
    /// read it again (this is where CHORD beats a cache, which would
    /// eventually write the dead dirty lines back).
    pub fn retire(&mut self, name: &str) {
        if let Some(e) = self.table.remove(name) {
            self.audit_mut(name).dropped += e.resident_words;
        }
    }

    /// Refreshes a tensor's RIFF priority (SCORE metadata update as the
    /// schedule advances).
    pub fn update_priority(&mut self, name: &str, priority: RiffPriority) {
        self.table.set_priority(name, priority);
    }

    /// Resizes the data array (the per-phase SRAM repartition, applied at a
    /// phase boundary). Growing frees space immediately; shrinking evicts
    /// lowest-priority tails until the residents fit, and — exactly like a
    /// RIFF eviction — a dirty tail with future uses persists to DRAM: that
    /// writeback is the repartition's resize traffic. Resizing to the
    /// current capacity is a strict no-op (the uniform-split path).
    pub fn resize(&mut self, capacity_words: u64) {
        let mut used = self.table.used_words();
        while used > capacity_words {
            let victim = self
                .table
                .weakest_entry()
                .expect("used > 0 implies a resident entry");
            let victim_name = victim.name.clone();
            let victim_dirty = victim.dirty;
            let take = (used - capacity_words).min(victim.resident_words);
            used -= self.evict_tail(&victim_name, victim_dirty, take);
        }
        self.table.set_capacity_words(capacity_words);
        self.cfg.capacity_words = capacity_words;
    }

    /// Current occupancy in words.
    pub fn used_words(&self) -> u64 {
        self.table.used_words()
    }

    /// Verifies word conservation for every tensor ever seen plus table
    /// invariants. Returns a description of the first violation.
    pub fn check_conservation(&self) -> Result<(), String> {
        self.table.check_invariants()?;
        for (name, a) in &self.audit {
            let resident = self.table.get(name).map(|e| e.resident_words).unwrap_or(0);
            if a.produced > 0 {
                let accounted = a.spilled + a.evicted_dirty + a.dropped + resident;
                if accounted != a.produced {
                    return Err(format!(
                        "{name}: produced {} != spilled {} + evicted {} + dropped {} + resident {resident}",
                        a.produced, a.spilled, a.evicted_dirty, a.dropped
                    ));
                }
            }
            if a.fetched > 0 {
                let accounted = a.uncached + a.evicted_clean + a.dropped + resident;
                if accounted != a.fetched {
                    return Err(format!(
                        "{name}: fetched {} != uncached {} + evicted {} + dropped {} + resident {resident}",
                        a.fetched, a.uncached, a.evicted_clean, a.dropped
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chord(capacity: u64) -> Chord {
        Chord::new(ChordConfig {
            capacity_words: capacity,
            word_bytes: 4,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: 64,
        })
    }

    fn prelude_only(capacity: u64) -> Chord {
        Chord::new(ChordConfig {
            capacity_words: capacity,
            word_bytes: 4,
            policy: ChordPolicyKind::PreludeOnly,
            max_entries: 64,
        })
    }

    /// Fig 9 left (PRELUDE): tensor P larger than the buffer — head stays,
    /// tail spills to DRAM; the later read hits the head.
    #[test]
    fn prelude_keeps_head_spills_tail() {
        let mut c = chord(100);
        let spill = c.produce("P", 150, RiffPriority::new(2, 1));
        assert_eq!(spill, 50);
        assert_eq!(c.stats().dram_write_bytes, 50 * 4);
        let r = c.consume("P", Some(RiffPriority::new(1, 3)));
        assert_eq!(r.hit_words, 100);
        assert_eq!(r.miss_words, 50);
        c.check_conservation().unwrap();
    }

    /// Fig 9 right (RIFF): X resident, higher-priority R arrives — X's tail
    /// is evicted (written back, X is dirty with future use) to admit R.
    #[test]
    fn riff_evicts_lower_priority_tail() {
        let mut c = chord(100);
        c.produce("X", 80, RiffPriority::new(1, 7));
        let spill = c.produce("R", 60, RiffPriority::new(3, 1));
        assert_eq!(spill, 0, "R should fully fit by evicting X's tail");
        let x = c.table().get("X").unwrap();
        assert_eq!(x.resident_words, 40); // lost 40 of 80
        assert_eq!(c.table().get("R").unwrap().resident_words, 60);
        // X's evicted dirty tail was written back exactly once.
        assert_eq!(c.audit("X").evicted_dirty, 40);
        assert_eq!(c.stats().dram_write_bytes, 40 * 4);
        c.check_conservation().unwrap();
    }

    /// PRELUDE-only never evicts: the weaker-policy ablation of §VII-C3.
    #[test]
    fn prelude_only_never_evicts() {
        let mut c = prelude_only(100);
        c.produce("X", 80, RiffPriority::new(1, 7));
        let spill = c.produce("R", 60, RiffPriority::new(3, 1));
        assert_eq!(spill, 40); // only free space admitted
        assert_eq!(c.table().get("X").unwrap().resident_words, 80);
        c.check_conservation().unwrap();
    }

    /// The requester never evicts a tensor of equal or higher priority.
    #[test]
    fn riff_respects_priority_order() {
        let mut c = chord(100);
        c.produce("A", 100, RiffPriority::new(10, 7));
        // W is reused later than A (dist 9 > 7): it must spill, not evict A.
        let spill = c.produce("W", 50, RiffPriority::new(2, 9));
        assert_eq!(spill, 50, "weaker tensor must spill, not evict A");
        assert_eq!(c.table().get("A").unwrap().resident_words, 100);
        c.check_conservation().unwrap();
    }

    /// Clean (fetched) tensors evict for free — no writeback traffic.
    #[test]
    fn clean_eviction_costs_nothing() {
        let mut c = chord(100);
        c.fetch("A", 100, RiffPriority::new(1, 9));
        let writes_before = c.stats().dram_write_bytes;
        c.produce("R", 60, RiffPriority::new(3, 1));
        assert_eq!(c.stats().dram_write_bytes, writes_before);
        assert_eq!(c.audit("A").evicted_clean, 60);
        c.check_conservation().unwrap();
    }

    /// Dead tensors drop without writeback (cache would write dirty lines back).
    #[test]
    fn last_use_drops_dirty_data() {
        let mut c = chord(100);
        c.produce("S", 80, RiffPriority::new(2, 1));
        c.consume("S", Some(RiffPriority::new(1, 2)));
        let writes_before = c.stats().dram_write_bytes;
        c.consume("S", None); // last use
        assert_eq!(c.stats().dram_write_bytes, writes_before);
        assert!(c.table().get("S").is_none());
        assert_eq!(c.audit("S").dropped, 80);
        c.check_conservation().unwrap();
    }

    /// Consume hit/miss accounting matches residency.
    #[test]
    fn consume_counts_hits_and_misses() {
        let mut c = chord(50);
        c.produce("P", 80, RiffPriority::new(2, 1)); // 50 resident, 30 spilled
        let r = c.consume("P", Some(RiffPriority::new(1, 4)));
        assert_eq!(r.hit_words, 50);
        assert_eq!(r.miss_words, 30);
        assert_eq!(c.stats().dram_read_bytes, 30 * 4);
        assert_eq!(c.stats().hits, 50);
        assert_eq!(c.stats().misses, 30);
    }

    /// Fetch charges the full cold read and caches the admitted prefix.
    #[test]
    fn fetch_cold_read_and_cache() {
        let mut c = chord(60);
        c.fetch("A", 100, RiffPriority::new(10, 1));
        assert_eq!(c.stats().dram_read_bytes, 100 * 4);
        assert_eq!(c.table().get("A").unwrap().resident_words, 60);
        assert_eq!(c.audit("A").uncached, 40);
        // Second use: 60 hit, 40 from DRAM.
        let r = c.consume("A", Some(RiffPriority::new(9, 7)));
        assert_eq!(r.hit_words, 60);
        assert_eq!(r.miss_words, 40);
        c.check_conservation().unwrap();
    }

    /// Table-full produce degrades to full streaming.
    #[test]
    fn table_full_streams_through() {
        let mut c = Chord::new(ChordConfig {
            capacity_words: 1000,
            word_bytes: 4,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: 1,
        });
        c.produce("T0", 10, RiffPriority::new(9, 1));
        let spill = c.produce("T1", 10, RiffPriority::new(9, 1));
        assert_eq!(spill, 10);
        let r = c.consume_absent(10);
        assert_eq!(r.miss_words, 10);
        c.check_conservation().unwrap();
    }

    /// Multi-victim cascade: one strong arrival can evict several weak tails.
    #[test]
    fn riff_cascades_across_victims() {
        let mut c = chord(90);
        c.produce("X1", 30, RiffPriority::new(1, 9));
        c.produce("X2", 30, RiffPriority::new(1, 8));
        c.produce("X3", 30, RiffPriority::new(2, 5));
        let spill = c.produce("R", 70, RiffPriority::new(5, 1));
        assert_eq!(spill, 0);
        // Lowest priorities fully evicted first (X1 freq1 dist9 < X2 freq1 dist8).
        assert!(c.table().get("X1").is_none());
        assert!(c.table().get("X2").is_none());
        assert_eq!(c.table().get("X3").unwrap().resident_words, 20);
        assert_eq!(c.used_words(), 90);
        c.check_conservation().unwrap();
    }

    /// Priority updates change future victim selection.
    #[test]
    fn priority_update_changes_behavior() {
        let mut c = chord(100);
        c.produce("S", 100, RiffPriority::new(3, 1));
        // S's uses get consumed; its priority decays below newcomer R's.
        c.update_priority("S", RiffPriority::new(1, 6));
        c.produce("R", 50, RiffPriority::new(2, 1));
        assert_eq!(c.table().get("S").unwrap().resident_words, 50);
        c.check_conservation().unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate tensor")]
    fn duplicate_produce_panics() {
        let mut c = chord(100);
        c.produce("S", 10, RiffPriority::new(1, 1));
        c.produce("S", 10, RiffPriority::new(1, 1));
    }

    /// Shrinking the data array (per-phase repartition) evicts junior tails
    /// and charges dirty writebacks; growing frees space; same-capacity
    /// resize is a strict no-op. Conservation holds throughout.
    #[test]
    fn resize_evicts_junior_tails_and_charges_writebacks() {
        let mut c = chord(100);
        c.produce("S", 60, RiffPriority::new(3, 1)); // senior, dirty
        c.fetch("A", 40, RiffPriority::new(1, 9)); // junior, clean
        let before = c.stats();
        // No-op resize: nothing moves, no traffic.
        c.resize(100);
        assert_eq!(c.stats(), before);
        assert_eq!(c.used_words(), 100);
        // Shrink to 70: the junior clean A loses 30 words for free.
        c.resize(70);
        assert_eq!(c.config().capacity_words, 70);
        assert_eq!(c.table().get("A").unwrap().resident_words, 10);
        assert_eq!(c.table().get("S").unwrap().resident_words, 60);
        assert_eq!(c.stats().dram_write_bytes, before.dram_write_bytes);
        assert_eq!(c.audit("A").evicted_clean, 30);
        // Shrink to 40: A fully evicted (entry retired), then S's dirty
        // tail pays 20 words of writeback — the resize traffic.
        c.resize(40);
        assert!(c.table().get("A").is_none());
        assert_eq!(c.table().get("S").unwrap().resident_words, 40);
        assert_eq!(c.stats().dram_write_bytes, before.dram_write_bytes + 20 * 4);
        assert_eq!(c.audit("S").evicted_dirty, 20);
        c.check_conservation().unwrap();
        // Grow back: free space reappears, nothing is resurrected.
        c.resize(100);
        assert_eq!(c.used_words(), 40);
        assert_eq!(c.table().free_words(), 60);
        c.check_conservation().unwrap();
    }

    /// Infinite capacity ⇒ zero DRAM traffic for intermediates.
    #[test]
    fn infinite_capacity_full_reuse() {
        let mut c = chord(u64::MAX / 8);
        c.produce("S", 1_000_000, RiffPriority::new(2, 1));
        let r1 = c.consume("S", Some(RiffPriority::new(1, 3)));
        let r2 = c.consume("S", None);
        assert_eq!(r1.miss_words + r2.miss_words, 0);
        assert_eq!(c.stats().dram_bytes(), 0);
        c.check_conservation().unwrap();
    }
}
