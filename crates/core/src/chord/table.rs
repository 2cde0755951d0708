//! The RIFF index table (paper Fig 10).
//!
//! One 512-bit entry per tensor — versus one tag per 16 B line in a cache —
//! holding: tensor id, `start_tensor`/`end_tensor` (global address range),
//! `end_chord` (how much of the tensor is resident: CHORD always keeps a
//! contiguous *head* prefix, per PRELUDE), `start_index`/`end_index`
//! (position in the data-array queue), a 64-bit re-reference history, and the
//! RIFF `freq`/`dist` priority fields supplied by SCORE.
//!
//! Because tensors are contiguous and ordered, a hit is one comparison
//! against `end_chord` and the data-array index is pure offset arithmetic —
//! no per-line tag matching (§VI-B "Lower complexity").
//!
//! The paper's pseudocode maintains queue indices incrementally with shifts;
//! we recompute them by prefix-summing resident sizes in queue order after
//! each mutation — semantically identical and trivially invariant-preserving
//! (the incremental shifts are a hardware implementation detail).

use std::cmp::Ordering;

/// RIFF replacement priority over the SCORE-supplied `(freq, dist)` metadata
/// (Fig 10's columns): the tensor reused **sooner** wins (smaller distance),
/// with more remaining uses breaking ties.
///
/// Distance-primary ordering reproduces the paper's §VI-A example — `R
/// (freq 3, dist 1)` beats `X (freq 1, dist 7)` on both axes — and acts like
/// Belady's MIN at operand granularity. Frequency-primary ordering would let
/// a many-use tensor larger than the whole buffer (CG's `A` on G2_circuit)
/// pin the entire capacity even though its *slots*, if lent to the
/// shorter-lived `R`/`P`/`X`, are re-earned by every iteration's fresh
/// version; dead tensors (`freq == 0`) always rank lowest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RiffPriority {
    /// Remaining scheduled uses of the tensor (Fig 10 `Freq`).
    pub freq: u32,
    /// Operations until the next scheduled use (Fig 10 `Dist`).
    pub dist: u32,
}

impl RiffPriority {
    /// Convenience constructor.
    pub fn new(freq: u32, dist: u32) -> Self {
        Self { freq, dist }
    }

    /// A dead tensor: no future uses.
    pub fn dead() -> Self {
        Self {
            freq: 0,
            dist: u32::MAX,
        }
    }
}

/// Largest honored bias magnitude; levels above it clamp here so a forged
/// or hand-built level can never shift `(freq, dist)` past representability.
pub const MAX_BIAS_LEVEL: u8 = 3;

/// A per-tensor bias on the `(freq, dist)` metadata SCORE hands to RIFF —
/// the schedule-side half of the SCORE-CHORD interface exposed as a search
/// decision. The heuristic derives priorities as *facts* from the DAG; a
/// bias lets the DSE engine overrule them: boosting a tensor makes RIFF
/// treat it as hotter than its derived reuse pattern says (it evicts others
/// more readily and resists eviction), demoting does the opposite. Each
/// variant carries a magnitude level `1..=MAX_BIAS_LEVEL` (clamped in
/// [`Self::apply`]): level `l` scales `freq`/`dist` by `2^l`, so the search
/// can express *how hard* to overrule the derived facts, not just the
/// direction. Dead tensors (`freq == 0`) are never biased — resurrecting a
/// tensor nobody reads again could only waste capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PriorityBias {
    /// Treat the tensor as reused sooner and more often: `dist` shrinks and
    /// `freq` grows by `2^level`.
    Boost(u8),
    /// Treat the tensor as colder: `dist` grows and `freq` shrinks (floored
    /// at one so the tensor is demoted, not declared dead — full DRAM
    /// demotion is already expressible as a `Binding::Dram` steer) by
    /// `2^level`.
    Demote(u8),
}

impl PriorityBias {
    /// The honored magnitude level: `1..=MAX_BIAS_LEVEL` regardless of what
    /// the variant carries.
    pub fn level(self) -> u8 {
        match self {
            PriorityBias::Boost(l) | PriorityBias::Demote(l) => l.clamp(1, MAX_BIAS_LEVEL),
        }
    }

    /// Applies the bias to a derived `(freq, dist)` pair.
    pub fn apply(self, priority: RiffPriority) -> RiffPriority {
        if priority.freq == 0 {
            return priority; // dead stays dead
        }
        let shift = u32::from(self.level());
        match self {
            PriorityBias::Boost(_) => RiffPriority {
                freq: priority.freq.saturating_mul(1 << shift),
                dist: (priority.dist >> shift).max(1),
            },
            PriorityBias::Demote(_) => RiffPriority {
                freq: (priority.freq >> shift).max(1),
                // Cap below the `dead()` sentinel so a demoted-but-live
                // tensor still outranks a genuinely dead one.
                dist: priority.dist.saturating_mul(1 << shift).min(u32::MAX - 1),
            },
        }
    }
}

impl PartialOrd for RiffPriority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RiffPriority {
    fn cmp(&self, other: &Self) -> Ordering {
        // Dead tensors always lose.
        match (self.freq == 0, other.freq == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        // Smaller dist => higher priority; higher freq breaks ties.
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| self.freq.cmp(&other.freq))
    }
}

/// One RIFF-index-table entry (Fig 10 row). All sizes in words.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorEntry {
    /// Tensor id (`A`, `P`, `R`, …).
    pub name: String,
    /// Total tensor length (`end_tensor − start_tensor`).
    pub total_words: u64,
    /// Resident prefix length (`end_chord − start_tensor`). Invariant:
    /// `resident_words ≤ total_words`.
    pub resident_words: u64,
    /// Queue start index (recomputed after each mutation).
    pub start_index: u64,
    /// Queue end index (`start_index + resident_words`).
    pub end_index: u64,
    /// Was the resident data produced on-chip and not yet written to DRAM?
    pub dirty: bool,
    /// RIFF priority (from SCORE).
    pub priority: RiffPriority,
    /// 64-bit re-reference history ("64 ops re-ref without updates", Fig 10):
    /// bit i set = referenced i ops ago.
    pub history: u64,
}

/// The table: entries kept in data-array *queue order* (head first).
#[derive(Clone, Debug, Default)]
pub struct RiffIndexTable {
    entries: Vec<TensorEntry>,
    capacity_words: u64,
    max_entries: usize,
}

impl RiffIndexTable {
    /// Table over a data array of `capacity_words`, with at most
    /// `max_entries` tensors (the paper's table has 64 entries of 512 bits).
    pub fn new(capacity_words: u64, max_entries: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity_words,
            max_entries,
        }
    }

    /// Data-array capacity in words.
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words
    }

    /// Repoints the data array at a different capacity (the per-phase SRAM
    /// repartition). The caller — [`crate::chord::Chord::resize`] — must
    /// evict down to the new capacity first; this only moves the boundary.
    pub fn set_capacity_words(&mut self, capacity_words: u64) {
        self.capacity_words = capacity_words;
    }

    /// Total resident words.
    pub fn used_words(&self) -> u64 {
        self.entries.iter().map(|e| e.resident_words).sum()
    }

    /// Free words (saturating: zero while a shrink is in flight).
    pub fn free_words(&self) -> u64 {
        self.capacity_words.saturating_sub(self.used_words())
    }

    /// The lowest-priority resident tensor — the unconditional victim a
    /// capacity shrink evicts from (no requester to compare against, unlike
    /// [`Self::riff_victim`]). Queue order breaks ties, like `riff_victim`.
    pub fn weakest_entry(&self) -> Option<&TensorEntry> {
        self.entries
            .iter()
            .filter(|e| e.resident_words > 0)
            .min_by(|a, b| a.priority.cmp(&b.priority))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no tensors are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in queue order.
    pub fn entries(&self) -> &[TensorEntry] {
        &self.entries
    }

    /// Looks up a tensor.
    pub fn get(&self, name: &str) -> Option<&TensorEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut TensorEntry> {
        self.entries.iter_mut().find(|e| e.name == name)
    }

    /// Whether a table slot is available for a new tensor.
    pub fn has_slot(&self) -> bool {
        self.entries.len() < self.max_entries
    }

    fn reindex(&mut self) {
        let mut cursor = 0u64;
        for e in &mut self.entries {
            e.start_index = cursor;
            cursor += e.resident_words;
            e.end_index = cursor;
        }
    }

    /// Registers a new tensor (zero resident words yet). Errors when the
    /// table has no free entry.
    pub fn insert(
        &mut self,
        name: &str,
        total_words: u64,
        dirty: bool,
        priority: RiffPriority,
    ) -> Result<(), TableError> {
        if self.get(name).is_some() {
            return Err(TableError::Duplicate);
        }
        if !self.has_slot() {
            return Err(TableError::TableFull);
        }
        self.entries.push(TensorEntry {
            name: name.to_string(),
            total_words,
            resident_words: 0,
            start_index: 0,
            end_index: 0,
            dirty,
            priority,
            history: 1, // referenced "now"
        });
        self.reindex();
        Ok(())
    }

    /// Grows a tensor's resident prefix by `words` (PRELUDE enqueue /
    /// enqueue-in-place). Panics if capacity would be exceeded — callers must
    /// check [`Self::free_words`] first; this models the hardware invariant.
    pub fn grow(&mut self, name: &str, words: u64) {
        assert!(
            words <= self.free_words(),
            "grow({name}, {words}) exceeds free space {}",
            self.free_words()
        );
        let e = self.get_mut(name).expect("grow of unknown tensor");
        assert!(
            e.resident_words + words <= e.total_words,
            "resident would exceed tensor size"
        );
        e.resident_words += words;
        self.reindex();
    }

    /// Shrinks a tensor's *tail* by `words` (RIFF victim eviction). Returns
    /// the words actually removed (≤ requested). Removes the entry when its
    /// residency reaches zero.
    pub fn shrink_tail(&mut self, name: &str, words: u64) -> u64 {
        let Some(e) = self.get_mut(name) else {
            return 0;
        };
        let taken = words.min(e.resident_words);
        e.resident_words -= taken;
        if e.resident_words == 0 {
            self.entries.retain(|x| x.name != name);
        }
        self.reindex();
        taken
    }

    /// Drops a tensor entirely (tensor death).
    pub fn remove(&mut self, name: &str) -> Option<TensorEntry> {
        let idx = self.entries.iter().position(|e| e.name == name)?;
        let e = self.entries.remove(idx);
        self.reindex();
        Some(e)
    }

    /// Updates a tensor's priority (SCORE metadata refresh).
    pub fn set_priority(&mut self, name: &str, priority: RiffPriority) {
        if let Some(e) = self.get_mut(name) {
            e.priority = priority;
        }
    }

    /// Marks the resident prefix clean (after a writeback).
    pub fn mark_clean(&mut self, name: &str) {
        if let Some(e) = self.get_mut(name) {
            e.dirty = false;
        }
    }

    /// Advances every history register by one op; sets the referenced bit of
    /// `touched` tensors.
    pub fn tick_history(&mut self, touched: &[&str]) {
        for e in &mut self.entries {
            e.history <<= 1;
            if touched.contains(&e.name.as_str()) {
                e.history |= 1;
            }
        }
    }

    /// RIFF victim search: the lowest-priority resident tensor with priority
    /// *strictly below* `requester_priority`, never the requester itself.
    /// Queue order breaks ties (earlier tensors evicted first).
    pub fn riff_victim(
        &self,
        requester: &str,
        requester_priority: RiffPriority,
    ) -> Option<&TensorEntry> {
        self.entries
            .iter()
            .filter(|e| e.name != requester && e.resident_words > 0)
            .filter(|e| e.priority < requester_priority)
            .min_by(|a, b| a.priority.cmp(&b.priority))
    }

    /// Validates all structural invariants (used by tests/proptests):
    /// queue indices contiguous from 0, residency ≤ tensor size, occupancy ≤
    /// capacity, entry count ≤ table size.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut cursor = 0u64;
        for e in &self.entries {
            if e.start_index != cursor {
                return Err(format!(
                    "{}: start_index {} != {}",
                    e.name, e.start_index, cursor
                ));
            }
            if e.end_index != e.start_index + e.resident_words {
                return Err(format!("{}: end_index mismatch", e.name));
            }
            if e.resident_words > e.total_words {
                return Err(format!("{}: resident > total", e.name));
            }
            cursor = e.end_index;
        }
        if cursor > self.capacity_words {
            return Err(format!(
                "occupancy {cursor} > capacity {}",
                self.capacity_words
            ));
        }
        if self.entries.len() > self.max_entries {
            return Err("table overfull".into());
        }
        Ok(())
    }
}

/// Errors from table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableError {
    /// All 64 entries in use.
    TableFull,
    /// Tensor already registered.
    Duplicate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_matches_paper_example() {
        // R (freq 3, dist 1) > X (freq 1, dist 7) — the §VI-A example.
        let r = RiffPriority::new(3, 1);
        let x = RiffPriority::new(1, 7);
        assert!(r > x);
        // Distance decides first: A (freq 10, dist 7) loses to R (dist 1)…
        let a = RiffPriority::new(10, 7);
        assert!(r > a);
        // …but beats X (same dist, more uses).
        assert!(a > x);
        // Equal dist: higher frequency wins; equal freq: closer reuse wins.
        assert!(RiffPriority::new(5, 3) > RiffPriority::new(2, 3));
        assert!(RiffPriority::new(3, 1) > RiffPriority::new(3, 5));
        // Dead tensors always lose, whatever their recorded distance.
        assert!(RiffPriority::dead() < x);
        assert!(RiffPriority::dead() < RiffPriority::new(1, u32::MAX - 1));
    }

    /// Boost strengthens on both axes, demote weakens on both, and neither
    /// can kill (or resurrect) a tensor.
    #[test]
    fn priority_bias_shifts_rank_but_never_kills() {
        let p = RiffPriority::new(3, 8);
        let boosted = PriorityBias::Boost(1).apply(p);
        let demoted = PriorityBias::Demote(1).apply(p);
        assert_eq!(boosted, RiffPriority::new(6, 4));
        assert_eq!(demoted, RiffPriority::new(1, 16));
        assert!(boosted > p && p > demoted);
        // Demote floors freq at 1 and caps dist below the dead sentinel.
        let weak = PriorityBias::Demote(1).apply(RiffPriority::new(1, u32::MAX - 1));
        assert!(weak.freq == 1 && weak > RiffPriority::dead());
        // Dead tensors pass through untouched.
        assert_eq!(
            PriorityBias::Boost(1).apply(RiffPriority::dead()),
            RiffPriority::dead()
        );
        // Boost keeps dist at least 1 (reuse "now" is not expressible).
        assert_eq!(
            PriorityBias::Boost(1).apply(RiffPriority::new(2, 1)).dist,
            1
        );
    }

    /// Magnitude levels scale both axes by `2^level`; out-of-range levels
    /// clamp into `1..=MAX_BIAS_LEVEL`, so level monotonicity holds at the
    /// extremes too.
    #[test]
    fn priority_bias_levels_are_graded_and_clamped() {
        let p = RiffPriority::new(4, 32);
        assert_eq!(PriorityBias::Boost(2).apply(p), RiffPriority::new(16, 8));
        assert_eq!(PriorityBias::Boost(3).apply(p), RiffPriority::new(32, 4));
        assert_eq!(PriorityBias::Demote(2).apply(p), RiffPriority::new(1, 128));
        assert_eq!(PriorityBias::Demote(3).apply(p), RiffPriority::new(1, 256));
        // Level 0 and level 200 clamp to the honored range.
        assert_eq!(
            PriorityBias::Boost(0).apply(p),
            PriorityBias::Boost(1).apply(p)
        );
        assert_eq!(
            PriorityBias::Demote(200).apply(p),
            PriorityBias::Demote(MAX_BIAS_LEVEL).apply(p)
        );
        // Stronger boosts never rank below weaker ones.
        assert!(PriorityBias::Boost(3).apply(p) > PriorityBias::Boost(1).apply(p));
        assert!(PriorityBias::Demote(3).apply(p) < PriorityBias::Demote(1).apply(p));
    }

    #[test]
    fn insert_grow_indices() {
        let mut t = RiffIndexTable::new(100, 64);
        t.insert("A", 80, false, RiffPriority::new(10, 7)).unwrap();
        t.grow("A", 50);
        t.insert("P", 40, true, RiffPriority::new(3, 1)).unwrap();
        t.grow("P", 30);
        let a = t.get("A").unwrap();
        let p = t.get("P").unwrap();
        assert_eq!((a.start_index, a.end_index), (0, 50));
        assert_eq!((p.start_index, p.end_index), (50, 80));
        assert_eq!(t.free_words(), 20);
        t.check_invariants().unwrap();
    }

    #[test]
    fn grow_in_place_shifts_later_entries() {
        // Paper's "enqueue in place": growing a non-tail tensor shifts
        // everything after it.
        let mut t = RiffIndexTable::new(100, 64);
        t.insert("A", 60, false, RiffPriority::new(5, 1)).unwrap();
        t.grow("A", 20);
        t.insert("B", 40, false, RiffPriority::new(5, 2)).unwrap();
        t.grow("B", 40);
        t.grow("A", 20); // A grows in place
        let b = t.get("B").unwrap();
        assert_eq!((b.start_index, b.end_index), (40, 80));
        t.check_invariants().unwrap();
    }

    #[test]
    fn shrink_tail_removes_empty_entries() {
        let mut t = RiffIndexTable::new(100, 64);
        t.insert("X", 50, true, RiffPriority::new(1, 7)).unwrap();
        t.grow("X", 50);
        assert_eq!(t.shrink_tail("X", 20), 20);
        assert_eq!(t.get("X").unwrap().resident_words, 30);
        assert_eq!(t.shrink_tail("X", 100), 30); // clamped
        assert!(t.get("X").is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn riff_victim_selection() {
        let mut t = RiffIndexTable::new(100, 64);
        t.insert("A", 40, false, RiffPriority::new(10, 7)).unwrap();
        t.grow("A", 40);
        t.insert("X", 40, true, RiffPriority::new(1, 7)).unwrap();
        t.grow("X", 40);
        // Requester R (freq 3, dist 1): victim must be X, not A.
        let v = t.riff_victim("R", RiffPriority::new(3, 1)).unwrap();
        assert_eq!(v.name, "X");
        // Requester weaker than everyone: no victim.
        assert!(t.riff_victim("W", RiffPriority::new(0, 9)).is_none());
        // Requester never evicts itself.
        assert!(t.riff_victim("X", RiffPriority::new(1, 7)).is_none());
    }

    #[test]
    fn table_slot_limit() {
        let mut t = RiffIndexTable::new(1000, 2);
        t.insert("A", 10, false, RiffPriority::new(1, 1)).unwrap();
        t.insert("B", 10, false, RiffPriority::new(1, 1)).unwrap();
        assert_eq!(
            t.insert("C", 10, false, RiffPriority::new(1, 1)),
            Err(TableError::TableFull)
        );
        assert_eq!(
            t.insert("A", 10, false, RiffPriority::new(1, 1)),
            Err(TableError::Duplicate)
        );
    }

    #[test]
    fn history_tracks_re_references() {
        let mut t = RiffIndexTable::new(100, 64);
        t.insert("A", 10, false, RiffPriority::new(5, 1)).unwrap();
        t.tick_history(&[]);
        t.tick_history(&["A"]);
        t.tick_history(&[]);
        // initial 1 -> shifted 3x with one touch: 0b1010
        assert_eq!(t.get("A").unwrap().history, 0b1010);
    }

    #[test]
    #[should_panic(expected = "exceeds free space")]
    fn grow_past_capacity_panics() {
        let mut t = RiffIndexTable::new(10, 64);
        t.insert("A", 100, false, RiffPriority::new(1, 1)).unwrap();
        t.grow("A", 11);
    }

    #[test]
    fn set_priority_and_mark_clean() {
        let mut t = RiffIndexTable::new(100, 64);
        t.insert("A", 10, true, RiffPriority::new(5, 1)).unwrap();
        t.set_priority("A", RiffPriority::new(4, 2));
        assert_eq!(t.get("A").unwrap().priority, RiffPriority::new(4, 2));
        t.mark_clean("A");
        assert!(!t.get("A").unwrap().dirty);
    }
}
