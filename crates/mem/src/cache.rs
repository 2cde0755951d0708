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
//! results are those of one [`SetAssocCache::access`] per line. Each policy
//! charges long streams by an exact rule of its own
//! ([`ReplacementPolicy::run_stream`]) and walks the rest line by line.
//!
//! # LRU: the stack-distance test
//!
//! Take a cache of `S` sets and `W` ways, `C = S·W` lines, and a stream of
//! `n ≥ C` lines. Its lines are distinct and consecutive, so its head, its
//! first `C` lines, puts exactly `W` lines in every set.
//!
//! *If no head line hits, every line misses.* LRU keeps the `W` most
//! recently used distinct lines of a set, so after the head every set holds
//! exactly its head lines: every line resident before the stream has been
//! evicted, and the dirty ones written back. From then on, line `i` finds
//! in its set only the stream lines `i − S, …, i − W·S`: it misses and
//! evicts the least recent of them, line `i − C`, which is dirty exactly
//! when the stream writes. So the writebacks are the lines dirty before the
//! stream plus, when it writes, `n − C`; and the stream leaves its last `C`
//! lines behind, dirty exactly when it writes, ranked in stream order. LRU
//! picks victims by rank alone, never by way position, so the cache writes
//! those lines oldest-first into ways `0..W` under fresh ranks and every
//! later result is unchanged.
//!
//! *Which head line hits.* Take a line `L` resident before the stream, of
//! rank `r` in its set (the number of more recent ways; empty ways are
//! ranked too and never accessed), at position `k` among its set's head
//! lines. Before `L` is reached its set sees exactly the `k` earlier head
//! lines of that set. An access to a line less recent than `L`, or absent,
//! moves `L` one rank down; an access to a line more recent than `L` does
//! not, and that line is still resident while `L` is, since LRU evicts the
//! less recent first. So `L` hits iff `r + k − m < W`, where `m` counts the
//! earlier head lines of its set that were resident and ranked below `r`.
//!
//! *Some head line hits iff a resident head line has `r + k < W`.* Such a
//! line hits, since `m ≥ 0`. Conversely, when every resident head line has
//! `r + k ≥ W`, each misses, by induction in stream order: an earlier line
//! ranked below `L` that misses was evicted before it was reached, and `L`,
//! less recent, was evicted before it; with no such line, `m = 0`. One pass
//! over the slots decides this, and a stream whose head has no hit is
//! charged as above. A stream of `n ≥ 2·C` lines whose head hits walks its
//! head line by line. The head leaves only its own lines behind, so none of
//! the rest's head is resident, and the rest is charged. Shorter streams
//! whose head hits walk.
//!
//! # BRRIP: the event rule
//!
//! BRRIP fills a set's empty ways in index order. Once the set is full, a
//! fill ages the set until some way is at RRPV 3 and takes the
//! lowest-indexed such way. It inserts at RRPV 3, or at 2 (a long
//! insertion) when the draw of one xorshift, shared by all sets and stepped
//! once per fill, is a multiple of 32. Say a set is *in a run* when some
//! way is at RRPV 3, and call the lowest-indexed such way its *run way*. In
//! a full set in a run, a short (RRPV 3) fill goes to the run way and
//! changes no RRPV, so the set stays in the same run.
//!
//! A stream's lines are distinct, so a line hits only if it was resident
//! before the stream (a possible hit); every other line fills. A line `L`
//! that fills is the stream's fill number `(L − first) − h`, where `h`
//! counts the hits before it, so the draws alone tell which lines insert
//! long. In a full cache a set's state therefore changes only at *events*:
//! a possible hit and a long insertion. A set that is not in a run before
//! its next line ages at once, as that line's fill would, unless the line
//! is resident and so an event; nothing else touches the set in between.
//! The stream takes its events in line order. Between two events of a set,
//! that set's lines are short fills into its run way: its *pending run*. A
//! run of `r` of them writes back the way's occupant if it was dirty, plus
//! `r − 1` lines when the stream writes, and leaves the run's last line in
//! the way, dirty exactly when the stream writes. Each set's pending run is
//! charged when it ends, and at the end of the stream.
//!
//! A long insertion is one per-line step. A possible hit is charged from
//! the slot the scan found it in, with no step. Its line misses if that
//! slot no longer holds it (an earlier event of the set evicted it), or if
//! the slot is the set's run way and the pending run has a fill before the
//! line, which evicts it. Such a line is then a fill like any other: unless
//! it draws a long insertion, it is a short fill of the pending run, and
//! nothing is done. Otherwise the line hits: the pending run, which fills
//! another way, ends at it, the slot's RRPV drops to 0 and its dirty bit
//! takes the write. A hit leaves the run way where it was, since a way other
//! than the run way is below RRPV 3 or at 3 with a higher index. The run way
//! itself hits only at the start of a run, when nothing is pending; after
//! it, as after any event, the set is made ready for its next line.
//!
//! The xorshift is linear over GF(2), so the draws are taken 32 at a time:
//! per byte of the state, a table gives the low bits of the next 32 draws
//! and the state after them. The generator ends where the per-line walk
//! leaves it. A stream of fewer lines than sets walks, and so does a cache
//! with an empty way, a round at a time until it is full.
//!
//! # Exact division
//!
//! The resident scan and the LRU test divide by `S` only numbers that `S`
//! divides: line `l` of set `s` lies `(l − s) / S` rounds past line `s`.
//! With `S = 2^j · o`, `o` odd, that quotient is `(x >> j) · o⁻¹` modulo
//! 2^64: a shift and a multiplication, with no division and no narrowing
//! of the 64-bit line numbers.

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
    /// Accesses the `lines` consecutive lines from line number `first` in
    /// `cache`, leaving its `stats` alone, and returns the misses and
    /// writebacks. Every later result must be that of one access per line.
    /// The default walks line by line; LRU and BRRIP override it with the
    /// module's exact rules.
    fn run_stream(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64)
    where
        Self: Sized,
    {
        cache.walk(first, lines, is_write)
    }
}

/// Least-recently-used replacement.
#[derive(Clone, Debug)]
pub struct LruPolicy {
    /// Recency rank of each slot within its set: 0 is the most recent,
    /// `ways − 1` the next victim.
    rank: Vec<u8>,
}

impl LruPolicy {
    /// Ranks way 0 of every set least recent and way `ways − 1` most
    /// recent, so empty ways fill in index order before any line is
    /// evicted: first-empty-then-LRU with no empty check. The first set is
    /// ranked and then copied, doubling.
    fn rank_by_way(&mut self, ways: usize) {
        let rank = &mut self.rank;
        for (x, r) in rank[..ways].iter_mut().zip((0..ways).rev()) {
            *x = r as u8;
        }
        let mut ranked = ways;
        while ranked < rank.len() {
            let n = ranked.min(rank.len() - ranked);
            rank.copy_within(..n, ranked);
            ranked += n;
        }
    }

    /// Whether some line among the first `C` of a stream from `first` hits:
    /// whether a line resident before it, of rank `r`, lies at a position
    /// `k < W − r` of its set in the head (the stack-distance test in the
    /// module docs). A head with no resident line takes one scan; otherwise
    /// the sets are taken in stream order, so `k` is an exact quotient.
    fn head_hits(cache: &SetAssocCache<Self>, first: u64) -> bool {
        let (sets, ways) = (cache.sets, cache.ways);
        let capacity = cache.tags.len() as u64;
        let in_head = |tag: u64| tag.wrapping_sub(first) < capacity;
        if !cache.tags.iter().any(|&tag| in_head(tag)) {
            return false;
        }
        let first_set = (first % sets as u64) as usize;
        (first_set..sets)
            .chain(0..first_set)
            .zip(0u64..)
            .any(|(set, position)| {
                let slots = set * ways..(set + 1) * ways;
                let ranks = &cache.policy.rank[slots.clone()];
                cache.tags[slots].iter().zip(ranks).any(|(&tag, &rank)| {
                    in_head(tag)
                        && u64::from(rank) + cache.by_sets.quotient(tag - first - position)
                            < ways as u64
                })
            })
    }

    /// Charges a stream of at least capacity lines none of whose first
    /// capacity lines hits, and leaves its last capacity lines in way order
    /// under fresh ranks.
    fn evict_all(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64) {
        let (sets, ways) = (cache.sets, cache.ways);
        let capacity = cache.tags.len() as u64;
        let dirty = cache.dirty.iter().filter(|&&d| d).count() as u64;
        cache.dirty.fill(is_write);
        cache.policy.rank_by_way(ways);
        // The lines left are `from..from + C`, set `s` holding those of
        // them `≡ s (mod sets)`, oldest in way 0. The sets from `from`'s
        // set on start at `from`, the sets before it a round later.
        let from = first + lines - capacity;
        let from_set = (from % sets as u64) as usize;
        let (before, after) = cache.tags.split_at_mut(from_set * ways);
        let fill = |oldest: u64, slots: &mut [u64]| {
            for (oldest, set) in (oldest..).zip(slots.chunks_exact_mut(ways)) {
                for (way, tag) in set.iter_mut().enumerate() {
                    *tag = oldest + (way * sets) as u64;
                }
            }
        };
        fill(from, after);
        fill(from + (sets - from_set) as u64, before);
        (lines, dirty + if is_write { lines - capacity } else { 0 })
    }
}

impl ReplacementPolicy for LruPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=256).contains(&ways),
            "LRU ranks 1 to 256 ways, got {ways}"
        );
        let mut policy = Self {
            rank: vec![0; sets * ways],
        };
        policy.rank_by_way(ways);
        policy
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

    fn run_stream(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64) {
        let capacity = cache.tags.len() as u64;
        if lines >= capacity && !Self::head_hits(cache, first) {
            return Self::evict_all(cache, first, lines, is_write);
        }
        if lines < 2 * capacity {
            return cache.walk(first, lines, is_write);
        }
        let (misses, writebacks) = cache.walk(first, capacity, is_write);
        let (rest_misses, rest_writebacks) =
            Self::evict_all(cache, first + capacity, lines - capacity, is_write);
        (misses + rest_misses, writebacks + rest_writebacks)
    }
}

/// One step of the 32-bit xorshift behind BRRIP's bimodal throttle:
/// deterministic, cheap, good enough for a throttle.
const fn xorshift(mut x: u32) -> u32 {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    x
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
    /// Empty slots left in the whole cache.
    empty: usize,
    lfsr: u32,
    /// Event-rule scratch, sized once and reused by every stream.
    scratch: Events,
}

/// Working memory of the event rule: `O(sets · ways)`.
#[derive(Clone, Debug)]
struct Events {
    /// Every slot with its set, those holding the stream's lines first (one
    /// spare entry past the slots).
    found: Vec<(u32, u32)>,
    /// The lines resident before the stream that it reaches, with their
    /// slots and sets, in line order.
    resident: Vec<(u64, u32, u32)>,
    /// Start of each round's bucket in `resident`.
    starts: Vec<usize>,
    /// Each set's first stream line not yet charged.
    next: Vec<u64>,
}

impl BrripPolicy {
    /// 1-in-32 long-insertions (the "bimodal throttle").
    const BIMODAL_PERIOD: u32 = 32;

    /// Ages `set` until a way reaches RRPV 3 and returns the mask of the
    /// ways at 3. Ageing by ones until then is one step of `3 − max`, after
    /// which the ways at 3 are those that were at `max`.
    fn age(&mut self, set: usize) -> u64 {
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
        at_max
    }

    /// The first way at RRPV 3 once the set has aged until one reaches it.
    fn victim(&mut self, set: usize) -> usize {
        self.age(set).trailing_zeros() as usize
    }

    /// Fills `set`'s first empty way, else its victim, inserting at RRPV 3,
    /// or 2 when `long`.
    fn insert(&mut self, set: usize, base: usize, ways: usize, long: bool) -> usize {
        let filled = self.filled[set] as usize;
        let way = if filled < ways {
            self.filled[set] += 1;
            self.empty -= 1;
            filled
        } else {
            self.victim(set)
        };
        let bit = 1u64 << way;
        let (hi, lo) = &mut self.planes[set];
        *hi |= bit;
        *lo = if long { *lo & !bit } else { *lo | bit };
        base + way
    }

    /// Makes `line` the next stream line of `set`, in a full cache. When
    /// no way of the set is at RRPV 3 and the line is not resident, the line
    /// will fill, so the set ages now as that fill would (nothing touches
    /// the set before it) and is in a run. A resident line is an event.
    fn ready(cache: &mut SetAssocCache<Self>, set: usize, line: u64, end: u64) {
        let p = &mut cache.policy;
        p.scratch.next[set] = line;
        let (hi, lo) = p.planes[set];
        if line < end
            && hi & lo == 0
            && !cache.tags[set * cache.ways..][..cache.ways].contains(&line)
        {
            p.age(set);
        }
    }

    /// Ends `set`'s pending run: its short fills from its next stream line
    /// up to, not including, line `to`, all into its run way. Whether the
    /// run was not empty, and if so whether the way's first occupant was
    /// dirty; the run's last line takes the way.
    fn end_run(
        cache: &mut SetAssocCache<Self>,
        set: usize,
        to: u64,
        is_write: bool,
    ) -> Option<bool> {
        let from = std::mem::replace(&mut cache.policy.scratch.next[set], to);
        if from >= to {
            return None;
        }
        let (hi, lo) = cache.policy.planes[set];
        debug_assert!(hi & lo != 0, "set {set} has no run way");
        let slot = set * cache.ways + (hi & lo).trailing_zeros() as usize;
        let dirty = cache.dirty[slot];
        cache.tags[slot] = to - cache.sets as u64;
        cache.dirty[slot] = is_write;
        Some(dirty)
    }

    /// Whether `line`, resident in `slot` of `set` before the stream, is
    /// still there when the stream reaches it: no earlier event of the set
    /// has evicted it, and the set's pending run, if any, fills another way.
    fn still_hits(cache: &SetAssocCache<Self>, line: u64, slot: usize, set: usize) -> bool {
        let p = &cache.policy;
        let (hi, lo) = p.planes[set];
        let run_way = set * cache.ways + (hi & lo).trailing_zeros() as usize;
        cache.tags[slot] == line && (p.scratch.next[set] == line || slot != run_way)
    }

    /// Lists the lines resident before a stream of `rounds` rounds from
    /// `first` that it reaches, in line order. The sets are scanned in
    /// stream order, so the lines come out in order within each round, and
    /// a counting sort by round orders them all. A line's round is an exact
    /// quotient, so no step divides.
    fn find_resident(cache: &mut SetAssocCache<Self>, first: u64, rounds: usize, end: u64) {
        let (sets, ways) = (cache.sets, cache.ways);
        let first_set = (first % sets as u64) as usize;
        // Line `l` of set `s` is `(l − s) / sets` rounds past line `s`; the
        // stream's round 0 starts at `first`, in set `first_set`.
        let by_sets = cache.by_sets;
        let first_quotient = by_sets.quotient(first - first_set as u64);
        let round = |line: u64, set: u32| {
            (by_sets.quotient(line - u64::from(set))
                - first_quotient
                - u64::from((set as usize) < first_set)) as usize
        };
        let ev = &mut cache.policy.scratch;
        ev.starts.clear();
        ev.starts.resize(rounds + 1, 0);
        // Branch-free: every slot is written at `found`, which only moves
        // past the slots of the stream's lines.
        let mut found = 0;
        let lines = end - first;
        let tags = &cache.tags;
        for set in (first_set..sets).chain(0..first_set) {
            let base = set * ways;
            for (slot, &tag) in (base..).zip(&tags[base..base + ways]) {
                ev.found[found] = (slot as u32, set as u32);
                found += usize::from(tag.wrapping_sub(first) < lines);
            }
        }
        for &(slot, set) in &ev.found[..found] {
            ev.starts[round(tags[slot as usize], set) + 1] += 1;
        }
        for r in 1..=rounds {
            ev.starts[r] += ev.starts[r - 1];
        }
        ev.resident.clear();
        ev.resident.resize(found, (0, 0, 0));
        for &(slot, set) in &ev.found[..found] {
            let line = tags[slot as usize];
            let at = &mut ev.starts[round(line, set)];
            ev.resident[*at] = (line, slot, set);
            *at += 1;
        }
    }

    /// The event rule (module docs) on a full cache and a stream of at least
    /// one and at most `sets` lines per set.
    fn run_events(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64) {
        let sets = cache.sets as u64;
        let end = first + lines;
        Self::find_resident(cache, first, lines.div_ceil(sets) as usize, end);
        let mut set = (first % sets) as usize;
        for line in first..first + sets {
            Self::ready(cache, set, line, end);
            set += 1;
            if set == cache.sets {
                set = 0;
            }
        }
        let mut draws = Draws::new(cache.policy.lfsr);
        let mut long = draws.next_long();
        let (mut longs, mut hits, mut runs, mut writebacks, mut resident) = (0, 0, 0, 0, 0);
        loop {
            // The possible hits up to the next long insertion. One that
            // misses is a fill: a short fill of its set's pending run, or
            // that long insertion.
            while let Some(&(line, slot, set)) = cache.policy.scratch.resident.get(resident) {
                if line > first + hits + long {
                    break;
                }
                resident += 1;
                let (slot, set) = (slot as usize, set as usize);
                if Self::still_hits(cache, line, slot, set) {
                    if let Some(dirty) = Self::end_run(cache, set, line, is_write) {
                        runs += 1;
                        writebacks += u64::from(dirty);
                    }
                    cache.dirty[slot] |= is_write;
                    cache.policy.on_hit(set, set * cache.ways, cache.ways, slot);
                    hits += 1;
                    Self::ready(cache, set, line + sets, end);
                }
            }
            let line = first + hits + long;
            if line >= end {
                break;
            }
            let set = (line % sets) as usize;
            if let Some(dirty) = Self::end_run(cache, set, line, is_write) {
                runs += 1;
                writebacks += u64::from(dirty);
            }
            let (hit, dirty_eviction) =
                cache.touch_by(set, line, is_write, |p, set, base, ways| {
                    p.insert(set, base, ways, true)
                });
            debug_assert!(!hit, "line {line} of a long insertion hit");
            longs += 1;
            writebacks += u64::from(dirty_eviction);
            long = draws.next_long();
            Self::ready(cache, set, line + sets, end);
        }
        // The last stream line of each set ends its last run.
        let mut set = ((end - sets) % sets) as usize;
        for line in end - sets..end {
            if let Some(dirty) = Self::end_run(cache, set, line + sets, is_write) {
                runs += 1;
                writebacks += u64::from(dirty);
            }
            set += 1;
            if set == cache.sets {
                set = 0;
            }
        }
        // Every other line of a run evicts the run's previous line.
        if is_write {
            writebacks += lines - hits - longs - runs;
        }
        cache.policy.lfsr = draws.after(lines - hits);
        (lines - hits, writebacks)
    }
}

impl ReplacementPolicy for BrripPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=64).contains(&ways),
            "BRRIP keeps 1 to 64 ways, got {ways}"
        );
        assert!(
            u32::try_from(sets * ways).is_ok(),
            "BRRIP keeps fewer than 2^32 lines, got {sets} sets of {ways}"
        );
        Self {
            planes: vec![(0, 0); sets],
            filled: vec![0; sets],
            way_mask: u64::MAX >> (64 - ways),
            empty: sets * ways,
            lfsr: 0x2A2A_2A2A,
            scratch: Events {
                found: vec![(0, 0); sets * ways + 1],
                resident: Vec::with_capacity(sets * ways),
                starts: Vec::with_capacity(sets + 1),
                next: vec![0; sets],
            },
        }
    }

    fn on_hit(&mut self, set: usize, base: usize, _ways: usize, slot: usize) {
        let bit = 1u64 << (slot - base);
        let (hi, lo) = &mut self.planes[set];
        *hi &= !bit;
        *lo &= !bit;
    }

    fn fill(&mut self, set: usize, base: usize, ways: usize) -> usize {
        self.lfsr = xorshift(self.lfsr);
        let long = self.lfsr.is_multiple_of(Self::BIMODAL_PERIOD);
        self.insert(set, base, ways, long)
    }

    fn name(&self) -> &'static str {
        "BRRIP"
    }

    /// Streams of at least one line per set take the event rule, at most
    /// `sets` rounds at a time so its scratch stays `O(sets)`. Shorter ones
    /// walk, and so does a cache with empty ways, a round at a time until it
    /// is full.
    fn run_stream(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64) {
        let sets = cache.sets as u64;
        let (mut misses, mut writebacks) = (0, 0);
        let mut at = first;
        while at < first + lines {
            let left = first + lines - at;
            let (piece, (m, w)) = if left < sets || cache.policy.empty > 0 {
                let piece = left.min(sets);
                (piece, cache.walk(at, piece, is_write))
            } else {
                let piece = left.min(sets.saturating_mul(sets));
                (piece, Self::run_events(cache, at, piece, is_write))
            };
            misses += m;
            writebacks += w;
            at += piece;
        }
        (misses, writebacks)
    }
}

/// The xorshift draws of one stream's fills, 32 at a time.
struct Draws {
    /// Generator state after `base` draws, and its block.
    x: u32,
    block: Block,
    base: u64,
    /// Bit `j` set when draw `base + j` is a long insertion not yet handed
    /// out.
    longs: u32,
    /// `(x, base)` when the pending long insertion was looked for: the
    /// block of the last one handed out, or the first block.
    mark: (u32, u64),
}

impl Draws {
    fn new(x: u32) -> Self {
        let block = Block::of(x);
        Self {
            x,
            block,
            base: 0,
            longs: block.longs(),
            mark: (x, 0),
        }
    }

    /// Fill number of the next long insertion.
    fn next_long(&mut self) -> u64 {
        self.mark = (self.x, self.base);
        while self.longs == 0 {
            self.x = self.block.jump;
            self.block = Block::of(self.x);
            self.base += 32;
            self.longs = self.block.longs();
        }
        let j = self.longs.trailing_zeros();
        self.longs &= self.longs - 1;
        self.base + u64::from(j)
    }

    /// Generator state after `fills` draws: at least the draws up to the
    /// last long insertion handed out, at most the pending one.
    fn after(&self, fills: u64) -> u32 {
        let (mut x, base) = self.mark;
        for _ in 0..(fills - base) / 32 {
            x = Block::of(x).jump;
        }
        for _ in 0..(fills - base) % 32 {
            x = xorshift(x);
        }
        x
    }
}

/// Low bits a draw must have clear to be a long insertion.
const LONG_BITS: usize = {
    assert!(BrripPolicy::BIMODAL_PERIOD.is_power_of_two());
    BrripPolicy::BIMODAL_PERIOD.trailing_zeros() as usize
};

/// The next 32 draws from a generator state: bit `j` of `low[q]` is bit `q`
/// of draw `j + 1`, and `jump` is the state after them. Each is linear over
/// GF(2) in the state, so a state's block is the XOR of the blocks of its
/// four bytes, tabulated at compile time in [`BLOCKS`].
#[derive(Clone, Copy)]
struct Block {
    low: [u32; LONG_BITS],
    jump: u32,
}

/// The block of every byte value at each byte position of the state.
static BLOCKS: [[Block; 256]; 4] = Block::table();

impl Block {
    const ZERO: Self = Self {
        low: [0; LONG_BITS],
        jump: 0,
    };

    const fn table() -> [[Self; 256]; 4] {
        // The block of each single state bit.
        let mut bits = [Self::ZERO; 32];
        let mut bit = 0;
        while bit < 32 {
            let mut x = 1u32 << bit;
            let mut j = 0;
            while j < 32 {
                x = xorshift(x);
                let mut q = 0;
                while q < LONG_BITS {
                    bits[bit].low[q] |= ((x >> q) & 1) << j;
                    q += 1;
                }
                j += 1;
            }
            bits[bit].jump = x;
            bit += 1;
        }
        let mut table = [[Self::ZERO; 256]; 4];
        let mut byte = 0;
        while byte < 4 {
            let mut value = 0;
            while value < 256 {
                let mut b = 0;
                while b < 8 {
                    if value >> b & 1 == 1 {
                        table[byte][value] = table[byte][value].xor(&bits[8 * byte + b]);
                    }
                    b += 1;
                }
                value += 1;
            }
            byte += 1;
        }
        table
    }

    const fn xor(&self, other: &Self) -> Self {
        let mut low = self.low;
        let mut q = 0;
        while q < LONG_BITS {
            low[q] ^= other.low[q];
            q += 1;
        }
        Self {
            low,
            jump: self.jump ^ other.jump,
        }
    }

    fn of(x: u32) -> Self {
        x.to_le_bytes()
            .iter()
            .zip(&BLOCKS)
            .fold(Self::ZERO, |block, (&b, table)| {
                block.xor(&table[usize::from(b)])
            })
    }

    /// Bit `j` set when draw `j + 1` is a long insertion.
    fn longs(&self) -> u32 {
        !self.low.iter().fold(0, |any, plane| any | plane)
    }
}

/// Division by a fixed `d = 2^shift · odd` of numbers it divides exactly:
/// `x / d` is `(x >> shift) · odd⁻¹` modulo 2^64, with no divide instruction.
#[derive(Clone, Copy, Debug)]
struct ExactDiv {
    shift: u32,
    inverse: u64,
}

impl ExactDiv {
    fn new(d: u64) -> Self {
        let shift = d.trailing_zeros();
        let odd = d >> shift;
        // An odd number is its own inverse modulo 8, and each Newton step
        // doubles the bits that are right: 3, 6, 12, 24, 48, 96.
        let mut inverse = odd;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inverse)));
        }
        Self { shift, inverse }
    }

    /// `x / d`, for `x` a multiple of `d`.
    fn quotient(self, x: u64) -> u64 {
        (x >> self.shift).wrapping_mul(self.inverse)
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
    /// Exact division by `sets`.
    by_sets: ExactDiv,
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
            by_sets: ExactDiv::new(sets as u64),
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
        self.touch_by(set, line, is_write, P::fill)
    }

    /// [`Self::touch`] with the slot of a fill chosen and recorded by
    /// `fill(policy, set, base, ways)`.
    fn touch_by(
        &mut self,
        set: usize,
        line: u64,
        is_write: bool,
        fill: impl FnOnce(&mut P, usize, usize, usize) -> usize,
    ) -> (bool, bool) {
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
        let slot = fill(&mut self.policy, set, base, ways);
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
    /// The policy's [`ReplacementPolicy::run_stream`] charges it, by the
    /// module's stack-distance test (LRU) or event rule (BRRIP) where they
    /// apply.
    pub fn stream(&mut self, start: u64, bytes: u64, is_write: bool) -> u64 {
        let first = start >> self.line_shift;
        let lines = ((start + bytes.max(1) - 1) >> self.line_shift) - first + 1;
        let (misses, writebacks) = P::run_stream(self, first, lines, is_write);
        self.charge(lines, misses, writebacks, is_write);
        misses
    }

    /// Touches `lines` consecutive lines from `first` one by one; returns
    /// the misses and writebacks.
    fn walk(&mut self, first: u64, lines: u64, is_write: bool) -> (u64, u64) {
        let (mut misses, mut writebacks) = (0, 0);
        let mut set = (first % self.sets as u64) as usize;
        for line in first..first + lines {
            let (hit, dirty_eviction) = self.touch(set, line, is_write);
            misses += u64::from(!hit);
            writebacks += u64::from(dirty_eviction);
            set += 1;
            if set == self.sets {
                set = 0;
            }
        }
        (misses, writebacks)
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
    fn exact_division_by_any_set_count() {
        for d in [1u64, 2, 3, 6, 7, 24, 24_576, 1 << 20, 3 << 40, u64::MAX] {
            let div = ExactDiv::new(d);
            let quotients = [0u64, 1, 5, 1_000_003, u64::MAX / d];
            for q in quotients.into_iter().filter(|&q| q <= u64::MAX / d) {
                assert_eq!(div.quotient(q * d), q, "{q} · {d}");
            }
        }
    }

    /// Re-streams of a region of `n` lines in one fully associative set of
    /// 4 ways: the first stream leaves lines `n − 4 … n − 1` ranked 3 … 0.
    #[test]
    fn lru_head_hits_exactly_when_a_rank_plus_position_is_below_the_ways() {
        let cfg = CacheConfig {
            capacity_bytes: 64,
            line_bytes: 16,
            associativity: 4,
        };
        let head_hits = |n: u64, touch: Option<u64>| {
            let mut c = SetAssocCache::<LruPolicy>::new(cfg);
            c.stream(0, n * 16, false);
            if let Some(line) = touch {
                c.access(line * 16, false);
            }
            LruPolicy::head_hits(&c, 0)
        };
        // n = 4: line 0 has rank 3 at position 0, and 3 + 0 < 4.
        assert!(head_hits(4, None));
        // n = 5: line k + 1 has rank 3 − k at position k + 1: every sum is 4.
        assert!(!head_hits(5, None));
        // Touching line 3 ranks it 0 at position 3.
        assert!(head_hits(5, Some(3)));
        // n = 8 leaves no head line resident.
        assert!(!head_hits(8, None));
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
