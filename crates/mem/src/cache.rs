//! Trace-driven set-associative cache with pluggable replacement.
//!
//! The `Flex+LRU` and `Flex+BRRIP` baselines of Table IV route *all* accelerator
//! traffic through an implicitly-managed cache (4 MB, 16 B lines, 8-way in
//! Table V). The paper's critique — "myopic view of lines which misses the
//! tensor-level reuse opportunities" (§VI-B, Fig 11) — is reproduced by these
//! policies operating at line granularity:
//!
//! - [`LruPolicy`]: least-recently-used; thrashes on tensor-sized scans;
//! - [`BrripPolicy`]: Bimodal RRIP (Jaleel et al., ISCA'10): 2-bit re-reference
//!   prediction values, distant insertion with occasional long insertion,
//!   which resists scans but still keeps stale line mixtures (Fig 11 step 2).
//!
//! # Stream-granular accounting
//!
//! The simulator's cache backend moves whole tensors: each request is one
//! contiguous [`SetAssocCache::stream`] from a tensor's base address. A
//! stream steps line numbers and set indices directly (line `l` lives in set
//! `l % sets`, so any set count works and the index wraps instead of
//! dividing) and charges its [`AccessStats`] once for the whole stream. Its
//! results are those of one [`SetAssocCache::access`] per line.
//!
//! # The long-stream rule (LRU)
//!
//! Take a cache of `S` sets and `W` ways, `C = S·W` lines, and a stream of
//! `n ≥ 2·C` lines. The stream's lines are distinct and consecutive, so its
//! first `C` lines (the head) put exactly `W` lines in every set, and LRU,
//! which keeps the `W` most recently used distinct lines of a set, leaves
//! every set holding exactly its `W` head lines, whatever it held before.
//! From then on, line `i` finds in its set only the stream lines `i − S, …,
//! i − W·S`: it misses and evicts the least recent of them, line `i − C`. So
//! the head is simulated line by line and the other `n − C` lines are
//! charged in closed form: all miss; the first `C` of them evict the head
//! lines and write back those that are dirty, and the other `n − 2·C` evict
//! lines the stream itself filled, which are dirty exactly when it writes.
//! The stream leaves its last `C` lines behind, dirty exactly when it
//! writes, ranked in stream order. LRU picks victims by rank alone, never by
//! way position, so [`SetAssocCache::stream`] writes those lines oldest-first
//! into ways `0..W` and every later result is unchanged. BRRIP's insertions
//! draw on one LFSR shared by all sets, so it keeps the per-line path.

use crate::stats::AccessStats;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (Table V: 16 B); a power of two.
    pub line_bytes: u64,
    /// Ways per set (Table V: 8).
    pub associativity: usize,
}

impl CacheConfig {
    /// The paper's Table V cache: 4 MB, 16 B lines, 8-way.
    pub fn paper_4mb() -> Self {
        Self {
            capacity_bytes: 4 << 20,
            line_bytes: 16,
            associativity: 8,
        }
    }

    /// Number of sets: the capacity's whole lines over the ways. Any
    /// positive count works (3 MB of 16 B lines in 8 ways is 24 576 sets).
    ///
    /// # Panics
    ///
    /// When `associativity` is 0, `line_bytes` is not a power of two, or the
    /// capacity holds fewer lines than one set has ways.
    pub fn sets(&self) -> usize {
        assert!(
            self.associativity > 0,
            "cache associativity must be at least 1"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "cache line size must be a power of two, got {} B",
            self.line_bytes
        );
        let sets = (self.capacity_bytes / self.line_bytes) as usize / self.associativity;
        assert!(
            sets > 0,
            "a {} B cache holds fewer than {} lines of {} B",
            self.capacity_bytes,
            self.associativity,
            self.line_bytes
        );
        sets
    }
}

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present.
    Hit,
    /// Line absent; `dirty_eviction` reports whether a writeback occurred.
    Miss {
        /// True when the victim line was dirty and was written back to DRAM.
        dirty_eviction: bool,
    },
}

/// Replacement policy plug-in: informed of hits, chooses where fills go.
///
/// The cache keeps its ways in one slot array, set `s` at slots
/// `base..base + ways` with `base = s · ways`. Each call names the set, its
/// `base` and `ways`, and slots by their index in that array.
pub trait ReplacementPolicy {
    /// True when victims follow recency alone and a fresh policy ranks way
    /// `0` of every set least recent and way `ways − 1` most recent (LRU).
    /// [`SetAssocCache::stream`] then charges long streams in closed form
    /// (the module's long-stream rule) and leaves their last lines in way
    /// order under fresh policy state.
    const RECENCY_ONLY: bool = false;
    /// Creates state for `sets × ways`.
    fn new(sets: usize, ways: usize) -> Self
    where
        Self: Sized;
    /// Called when `slot` of `set` hits.
    fn on_hit(&mut self, set: usize, base: usize, ways: usize, slot: usize);
    /// Chooses the slot of `set` a missing line fills — its first empty way,
    /// else a victim — and records the fill there.
    fn fill(&mut self, set: usize, base: usize, ways: usize) -> usize;
    /// Human-readable policy name (Table IV rows).
    fn name(&self) -> &'static str;
}

/// Least-recently-used replacement.
#[derive(Clone, Debug)]
pub struct LruPolicy {
    /// Recency rank of each slot within its set: 0 is the most recent,
    /// `ways − 1` the next victim.
    rank: Vec<u8>,
}

impl ReplacementPolicy for LruPolicy {
    const RECENCY_ONLY: bool = true;

    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=256).contains(&ways),
            "LRU ranks 1 to 256 ways, got {ways}"
        );
        // Way 0 starts least recent, so empty ways fill in index order before
        // any line is evicted: first-empty-then-LRU with no empty check.
        Self {
            rank: (0..sets)
                .flat_map(|_| (0..ways).rev().map(|w| w as u8))
                .collect(),
        }
    }

    fn on_hit(&mut self, _set: usize, base: usize, ways: usize, slot: usize) {
        let r = self.rank[slot];
        for x in &mut self.rank[base..base + ways] {
            *x += u8::from(*x < r);
        }
        self.rank[slot] = 0;
    }

    fn fill(&mut self, _set: usize, base: usize, ways: usize) -> usize {
        // Every way is more recent than the victim, so all of them age.
        let oldest = (ways - 1) as u8;
        let mut victim = base;
        for (slot, x) in (base..).zip(&mut self.rank[base..base + ways]) {
            victim = if *x == oldest { slot } else { victim };
            *x = x.wrapping_add(1);
        }
        self.rank[victim] = 0;
        victim
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

/// Bimodal RRIP: 2-bit RRPV, hit-promotion to 0, insertion at RRPV_max with
/// probability 31/32 and RRPV_max−1 otherwise (deterministic LFSR stream so
/// simulations are reproducible).
#[derive(Clone, Debug)]
pub struct BrripPolicy {
    /// Per set, the high and low bits of each way's RRPV (bit `w` is way `w`).
    planes: Vec<(u64, u64)>,
    /// Ways filled so far in each set. Lines are never invalidated, so a
    /// set's empty ways are always the ones from here on.
    filled: Vec<u32>,
    /// Bit mask of a set's ways.
    way_mask: u64,
    lfsr: u32,
}

impl BrripPolicy {
    /// 1-in-32 long-insertions (the "bimodal throttle").
    const BIMODAL_PERIOD: u32 = 32;

    fn next_rand(&mut self) -> u32 {
        // 32-bit xorshift: deterministic, cheap, good enough for a throttle.
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 17;
        self.lfsr ^= self.lfsr << 5;
        self.lfsr
    }

    /// The first way at RRPV 3 once the set has aged until one reaches it.
    /// Ageing by ones until then is one step of `3 − max`, after which the
    /// ways at 3 are those that were at `max`; the bit planes give their mask
    /// and `trailing_zeros` the first of them.
    fn victim(&mut self, set: usize) -> usize {
        let (hi, lo) = self.planes[set];
        let all = self.way_mask;
        // (ways at `max`, planes once every way has aged by `3 − max`)
        let (at_max, aged) = if hi & lo != 0 {
            (hi & lo, (hi, lo)) // max 3: no ageing
        } else if hi != 0 {
            (hi, (hi | lo, !lo & all)) // max 2: +1
        } else if lo != 0 {
            (lo, (all, lo)) // max 1: +2
        } else {
            (all, (all, all)) // max 0: +3
        };
        self.planes[set] = aged;
        at_max.trailing_zeros() as usize
    }
}

impl ReplacementPolicy for BrripPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=64).contains(&ways),
            "BRRIP keeps 1 to 64 ways, got {ways}"
        );
        Self {
            planes: vec![(0, 0); sets],
            filled: vec![0; sets],
            way_mask: u64::MAX >> (64 - ways),
            lfsr: 0x2A2A_2A2A,
        }
    }

    fn on_hit(&mut self, set: usize, base: usize, _ways: usize, slot: usize) {
        let bit = 1u64 << (slot - base);
        let (hi, lo) = &mut self.planes[set];
        *hi &= !bit;
        *lo &= !bit;
    }

    fn fill(&mut self, set: usize, base: usize, ways: usize) -> usize {
        let filled = self.filled[set] as usize;
        let way = if filled < ways {
            self.filled[set] += 1;
            filled
        } else {
            self.victim(set)
        };
        // Insert at RRPV 3, or 2 on a long insertion.
        let long = self.next_rand().is_multiple_of(Self::BIMODAL_PERIOD);
        let bit = 1u64 << way;
        let (hi, lo) = &mut self.planes[set];
        *hi |= bit;
        *lo = if long { *lo & !bit } else { *lo | bit };
        base + way
    }

    fn name(&self) -> &'static str {
        "BRRIP"
    }
}

/// Tag of a slot that holds no line (only the last byte of the address
/// space, under 1-byte lines, has this line number).
const EMPTY: u64 = u64::MAX;

/// A set-associative cache over 64-bit byte addresses.
pub struct SetAssocCache<P: ReplacementPolicy> {
    config: CacheConfig,
    /// Line number held by each slot, [`EMPTY`] when none; set-major.
    tags: Vec<u64>,
    /// Dirty bit of each slot; empty slots are never dirty.
    dirty: Vec<bool>,
    policy: P,
    sets: usize,
    ways: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    stats: AccessStats,
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// On a geometry [`CacheConfig::sets`] rejects.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.associativity;
        Self {
            config,
            tags: vec![EMPTY; sets * ways],
            dirty: vec![false; sets * ways],
            policy: P::new(sets, ways),
            sets,
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            stats: AccessStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Policy name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Looks `line` up in `set`, filling it on a miss (allocate-on-write
    /// too). Updates tags, dirty bits and policy state but not `stats`.
    /// Returns whether it hit and whether a dirty victim was evicted.
    fn touch(&mut self, set: usize, line: u64, is_write: bool) -> (bool, bool) {
        let (base, ways) = (set * self.ways, self.ways);
        // One pass with no early exit: a line is in at most one way.
        let mut hit = ways;
        for (w, &tag) in self.tags[base..base + ways].iter().enumerate() {
            hit = if tag == line { w } else { hit };
        }
        if hit < ways {
            let slot = base + hit;
            self.dirty[slot] |= is_write;
            self.policy.on_hit(set, base, ways, slot);
            return (true, false);
        }
        let slot = self.policy.fill(set, base, ways);
        let dirty_eviction = self.dirty[slot];
        self.tags[slot] = line;
        self.dirty[slot] = is_write;
        (false, dirty_eviction)
    }

    /// Charges `lines` accesses, `misses` line fills from DRAM and
    /// `writebacks` line writebacks.
    fn charge(&mut self, lines: u64, misses: u64, writebacks: u64, is_write: bool) {
        let line_bytes = self.config.line_bytes;
        let s = &mut self.stats;
        s.tag_accesses += lines;
        if is_write {
            s.sram_write_words += lines;
        } else {
            s.sram_read_words += lines;
        }
        s.hits += lines - misses;
        s.misses += misses;
        s.dram_read_bytes += misses * line_bytes;
        s.writebacks += writebacks;
        s.dram_write_bytes += writebacks * line_bytes;
    }

    /// One byte-address access. Charges a tag lookup, a data-array access, and
    /// on a miss a full line of DRAM read (plus a line writeback when a dirty
    /// victim is evicted).
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let line = addr >> self.line_shift;
        let set = (line % self.sets as u64) as usize;
        let (hit, dirty_eviction) = self.touch(set, line, is_write);
        self.charge(1, u64::from(!hit), u64::from(dirty_eviction), is_write);
        if hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss { dirty_eviction }
        }
    }

    /// Streams a contiguous `[start, start+bytes)` region, one access per line
    /// (the granularity tensors move at). Returns the number of misses.
    ///
    /// Under a [`ReplacementPolicy::RECENCY_ONLY`] policy, a stream of at
    /// least twice the capacity takes the module's long-stream rule: only
    /// its first capacity's worth of lines is simulated one by one.
    pub fn stream(&mut self, start: u64, bytes: u64, is_write: bool) -> u64 {
        let first = start >> self.line_shift;
        let lines = ((start + bytes.max(1) - 1) >> self.line_shift) - first + 1;
        let capacity = self.tags.len() as u64;
        let long = P::RECENCY_ONLY && lines >= 2 * capacity;
        let walked = if long { capacity } else { lines };
        let (mut misses, mut writebacks) = (0, 0);
        let mut set = (first % self.sets as u64) as usize;
        for line in first..first + walked {
            let (hit, dirty_eviction) = self.touch(set, line, is_write);
            misses += u64::from(!hit);
            writebacks += u64::from(dirty_eviction);
            set += 1;
            if set == self.sets {
                set = 0;
            }
        }
        if long {
            // The long-stream rule: every set now holds exactly its head
            // lines, and the rest of the stream misses in closed form.
            let head_dirty = self.dirty.iter().filter(|&&d| d).count() as u64;
            misses += lines - capacity;
            writebacks += head_dirty + if is_write { lines - 2 * capacity } else { 0 };
            self.settle(first + lines - capacity, is_write);
        }
        self.charge(lines, misses, writebacks, is_write);
        misses
    }

    /// Installs the state a long stream leaves: the `capacity` lines from
    /// `from` on, each set's oldest in way 0, all `dirty` or all clean,
    /// ranked by a fresh policy (way 0 least recent).
    fn settle(&mut self, from: u64, dirty: bool) {
        let (sets, ways) = (self.sets, self.ways);
        // Offset from `from` of the first of its lines that maps to set 0.
        let mut offset = (sets - (from % sets as u64) as usize) % sets;
        for slots in self.tags.chunks_exact_mut(ways) {
            for (way, tag) in slots.iter_mut().enumerate() {
                *tag = from + (offset + way * sets) as u64;
            }
            offset += 1;
            if offset == sets {
                offset = 0;
            }
        }
        self.dirty.fill(dirty);
        self.policy = P::new(sets, ways);
    }

    /// Flushes all dirty lines to DRAM (end-of-program accounting).
    pub fn flush_dirty(&mut self) {
        let dirty = self.dirty.iter().filter(|&&d| d).count() as u64;
        self.dirty.fill(false);
        self.stats.writebacks += dirty;
        self.stats.dram_write_bytes += dirty * self.config.line_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 8 lines of 16 B in 2 ways => 4 sets.
        CacheConfig {
            capacity_bytes: 128,
            line_bytes: 16,
            associativity: 2,
        }
    }

    #[test]
    fn paper_config_geometry() {
        let c = CacheConfig::paper_4mb();
        assert_eq!(c.sets(), 32768);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::<LruPolicy>::new(tiny());
        assert!(matches!(c.access(0, false), AccessOutcome::Miss { .. }));
        assert!(matches!(c.access(4, false), AccessOutcome::Hit)); // same line
        assert!(matches!(c.access(16, false), AccessOutcome::Miss { .. }));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().dram_read_bytes, 32);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::<LruPolicy>::new(tiny());
        // Set 0 receives lines 0, 4, 8 (addresses 0, 64, 128): 2 ways.
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // line 0 now MRU
        c.access(128, false); // evicts line at 64
        assert!(matches!(c.access(0, false), AccessOutcome::Hit));
        assert!(matches!(c.access(64, false), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = SetAssocCache::<LruPolicy>::new(tiny());
        c.access(0, true); // dirty
        c.access(64, false);
        // Next fill in set 0 evicts the dirty line 0.
        let out = c.access(128, false);
        assert!(matches!(
            out,
            AccessOutcome::Miss {
                dirty_eviction: true
            }
        ));
        assert_eq!(c.stats().dram_write_bytes, 16);
    }

    #[test]
    fn flush_writes_remaining_dirty_lines() {
        let mut c = SetAssocCache::<LruPolicy>::new(tiny());
        c.access(0, true);
        c.access(16, true);
        c.flush_dirty();
        assert_eq!(c.stats().writebacks, 2);
        c.flush_dirty(); // idempotent
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn stream_counts_lines() {
        let mut c = SetAssocCache::<LruPolicy>::new(tiny());
        let misses = c.stream(0, 64, false); // 4 lines
        assert_eq!(misses, 4);
        let misses2 = c.stream(0, 64, false); // still resident (fits in 8 lines)
        assert_eq!(misses2, 0);
    }

    #[test]
    fn scan_thrashes_lru_but_not_brrip() {
        // Working set = 4x capacity, streamed repeatedly: LRU misses every
        // access; BRRIP retains a fraction (the scan-resistance the paper
        // credits it with in Fig 11).
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 16,
            associativity: 4,
        };
        let bytes = 4096u64;
        let mut lru = SetAssocCache::<LruPolicy>::new(cfg);
        let mut brrip = SetAssocCache::<BrripPolicy>::new(cfg);
        for _ in 0..8 {
            lru.stream(0, bytes, false);
            brrip.stream(0, bytes, false);
        }
        let lru_rate = lru.stats().hit_rate();
        let brrip_rate = brrip.stats().hit_rate();
        assert!(lru_rate < 0.01, "LRU should thrash, hit rate {lru_rate}");
        assert!(
            brrip_rate > lru_rate + 0.05,
            "BRRIP should resist scanning: {brrip_rate} vs {lru_rate}"
        );
    }

    #[test]
    fn lru_capacity_monotonicity() {
        // Stack property (fully associative): larger LRU cache never misses more.
        let trace: Vec<u64> = (0..2000u64)
            .map(|i| ((i * 2654435761) % 4096) / 16 * 16)
            .collect();
        let mut prev_misses = u64::MAX;
        for lines in [4usize, 8, 16, 64, 256] {
            let cfg = CacheConfig {
                capacity_bytes: (lines * 16) as u64,
                line_bytes: 16,
                associativity: lines, // fully associative
            };
            let mut c = SetAssocCache::<LruPolicy>::new(cfg);
            for &a in &trace {
                c.access(a, false);
            }
            assert!(
                c.stats().misses <= prev_misses,
                "misses increased with capacity"
            );
            prev_misses = c.stats().misses;
        }
    }

    #[test]
    fn brrip_deterministic() {
        let cfg = tiny();
        let run = || {
            let mut c = SetAssocCache::<BrripPolicy>::new(cfg);
            for i in 0..500u64 {
                c.access((i * 37) % 1024, i % 3 == 0);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn policy_names() {
        assert_eq!(SetAssocCache::<LruPolicy>::new(tiny()).policy_name(), "LRU");
        assert_eq!(
            SetAssocCache::<BrripPolicy>::new(tiny()).policy_name(),
            "BRRIP"
        );
    }

    #[test]
    fn any_set_count_is_a_valid_geometry() {
        let c = CacheConfig {
            capacity_bytes: 3 << 20,
            line_bytes: 16,
            associativity: 8,
        };
        assert_eq!(c.sets(), 24_576);
        let mut cache = SetAssocCache::<LruPolicy>::new(c);
        // Lines k · 24 576 all map to set 0 of 8 ways: the ninth evicts the
        // first.
        for k in 0..9u64 {
            cache.access(k * 24_576 * 16, false);
        }
        assert!(matches!(cache.access(0, false), AccessOutcome::Miss { .. }));
        assert_eq!(cache.stats().misses, 10);
    }

    #[test]
    #[should_panic(expected = "associativity must be at least 1")]
    fn zero_ways_rejected() {
        CacheConfig {
            associativity: 0,
            ..tiny()
        }
        .sets();
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_rejected() {
        CacheConfig {
            line_bytes: 24,
            ..tiny()
        }
        .sets();
    }
}
