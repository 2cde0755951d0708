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

use crate::stats::AccessStats;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (Table V: 16 B).
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

    /// Number of sets.
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / self.line_bytes;
        let sets = lines as usize / self.associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
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

/// Replacement policy plug-in: informed of hits and fills, chooses victims.
pub trait ReplacementPolicy {
    /// Creates state for `sets × ways`.
    fn new(sets: usize, ways: usize) -> Self
    where
        Self: Sized;
    /// Called when `way` in `set` hits.
    fn on_hit(&mut self, set: usize, way: usize);
    /// Called when a line is installed into `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);
    /// Chooses a victim way in `set` (all ways valid).
    fn victim(&mut self, set: usize) -> usize;
    /// Human-readable policy name (Table IV rows).
    fn name(&self) -> &'static str;
}

/// Least-recently-used replacement.
#[derive(Clone, Debug)]
pub struct LruPolicy {
    stamp: u64,
    last_use: Vec<u64>,
    ways: usize,
}

impl ReplacementPolicy for LruPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            stamp: 0,
            last_use: vec![0; sets * ways],
            ways,
        }
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_use[set * self.ways + way] = self.stamp;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_use[set * self.ways + way] = self.stamp;
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.last_use[base + w])
            .expect("associativity > 0")
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
    rrpv: Vec<u8>,
    ways: usize,
    lfsr: u32,
}

impl BrripPolicy {
    const RRPV_MAX: u8 = 3;
    /// 1-in-32 long-insertions (the "bimodal throttle").
    const BIMODAL_PERIOD: u32 = 32;

    fn next_rand(&mut self) -> u32 {
        // 32-bit xorshift: deterministic, cheap, good enough for a throttle.
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 17;
        self.lfsr ^= self.lfsr << 5;
        self.lfsr
    }
}

impl ReplacementPolicy for BrripPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            rrpv: vec![Self::RRPV_MAX; sets * ways],
            ways,
            lfsr: 0x2A2A_2A2A,
        }
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        let long = self.next_rand().is_multiple_of(Self::BIMODAL_PERIOD);
        self.rrpv[set * self.ways + way] = if long {
            Self::RRPV_MAX - 1
        } else {
            Self::RRPV_MAX
        };
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        loop {
            for w in 0..self.ways {
                if self.rrpv[base + w] == Self::RRPV_MAX {
                    return w;
                }
            }
            for w in 0..self.ways {
                self.rrpv[base + w] += 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        "BRRIP"
    }
}

/// A set-associative cache over 64-bit byte addresses.
pub struct SetAssocCache<P: ReplacementPolicy> {
    config: CacheConfig,
    tags: Vec<Option<u64>>,
    dirty: Vec<bool>,
    policy: P,
    sets: usize,
    stats: AccessStats,
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.associativity;
        Self {
            config,
            tags: vec![None; sets * ways],
            dirty: vec![false; sets * ways],
            policy: P::new(sets, ways),
            sets,
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

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        ((line as usize) & (self.sets - 1), line)
    }

    /// One byte-address access. Charges a tag lookup, a data-array access, and
    /// on a miss a full line of DRAM read (plus a line writeback when a dirty
    /// victim is evicted).
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.config.associativity;
        let base = set * ways;
        self.stats.tag_accesses += 1;
        if is_write {
            self.stats.sram_write_words += 1;
        } else {
            self.stats.sram_read_words += 1;
        }

        for w in 0..ways {
            if self.tags[base + w] == Some(tag) {
                self.policy.on_hit(set, w);
                self.dirty[base + w] |= is_write;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }

        // Miss: fill (allocate-on-write too).
        self.stats.misses += 1;
        self.stats.dram_read_bytes += self.config.line_bytes;
        let way = if let Some(w) = (0..ways).find(|&w| self.tags[base + w].is_none()) {
            w
        } else {
            self.policy.victim(set)
        };
        let dirty_eviction = self.tags[base + way].is_some() && self.dirty[base + way];
        if dirty_eviction {
            self.stats.dram_write_bytes += self.config.line_bytes;
            self.stats.writebacks += 1;
        }
        self.tags[base + way] = Some(tag);
        self.dirty[base + way] = is_write;
        self.policy.on_fill(set, way);
        AccessOutcome::Miss { dirty_eviction }
    }

    /// Streams a contiguous `[start, start+bytes)` region, one access per line
    /// (the granularity tensors move at). Returns the number of misses.
    pub fn stream(&mut self, start: u64, bytes: u64, is_write: bool) -> u64 {
        let line = self.config.line_bytes;
        let first = start / line;
        let last = (start + bytes.max(1) - 1) / line;
        let mut misses = 0;
        for l in first..=last {
            if matches!(self.access(l * line, is_write), AccessOutcome::Miss { .. }) {
                misses += 1;
            }
        }
        misses
    }

    /// Flushes all dirty lines to DRAM (end-of-program accounting).
    pub fn flush_dirty(&mut self) {
        for i in 0..self.tags.len() {
            if self.tags[i].is_some() && self.dirty[i] {
                self.stats.dram_write_bytes += self.config.line_bytes;
                self.stats.writebacks += 1;
                self.dirty[i] = false;
            }
        }
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
}
