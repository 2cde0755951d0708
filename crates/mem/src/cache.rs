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
//! # LRU: the clean-head rule
//!
//! Take a cache of `S` sets and `W` ways, `C = S·W` lines, and a stream of
//! `n ≥ C` lines whose head, its first `C` lines, holds no line resident
//! before the stream. The stream's lines are distinct and consecutive, so
//! the head puts exactly `W` lines in every set and all of them miss. LRU
//! keeps the `W` most recently used distinct lines of a set, so after the
//! head every set holds exactly its head lines: every line resident before
//! the stream has been evicted, and the dirty ones written back. From then
//! on, line `i` finds in its set only the stream lines `i − S, …, i − W·S`:
//! it misses and evicts the least recent of them, line `i − C`, which is
//! dirty exactly when the stream writes. So every line misses; the
//! writebacks are the lines dirty before the stream plus, when it writes,
//! `n − C`; and the stream leaves its last `C` lines behind, dirty exactly
//! when it writes, ranked in stream order. LRU picks victims by rank alone,
//! never by way position, so the cache writes those lines oldest-first into
//! ways `0..W` under fresh ranks and every later result is unchanged.
//!
//! A stream of `n ≥ 2·C` lines whose head is not clean walks its head line
//! by line. The head leaves only its own lines behind, so the rest of the
//! stream has a clean head and takes the rule. Shorter streams walk.
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
//! The stream takes its events in line order, each as one per-line step
//! with the insertion it drew. Between two events of a set, that set's
//! lines are short fills into its run way. A run of `r` of them writes back
//! the way's occupant if it was dirty, plus `r − 1` lines when the stream
//! writes, and leaves the run's last line in the way, dirty exactly when
//! the stream writes. Each set's pending run is charged just before its
//! next event, so a possible hit hits exactly when the run has not evicted
//! it, and at the end of the stream.
//!
//! The xorshift is linear over GF(2), so the draws are taken 32 at a time:
//! per byte of the state, a table gives the low bits of the next 32 draws
//! and the state after them. The generator ends where the per-line walk
//! leaves it. A stream of fewer lines than sets walks, and so does a cache
//! with an empty way, a round at a time until it is full.

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
    /// evicted: first-empty-then-LRU with no empty check.
    fn rank_by_way(&mut self, ways: usize) {
        for set in self.rank.chunks_exact_mut(ways) {
            for (x, r) in set.iter_mut().zip((0..ways).rev()) {
                *x = r as u8;
            }
        }
    }

    /// The clean-head rule: charges a stream of at least capacity lines,
    /// none of its first capacity lines resident, and leaves its last
    /// capacity lines in way order under fresh ranks.
    fn evict_all(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64) {
        let (sets, ways) = (cache.sets, cache.ways);
        let capacity = cache.tags.len() as u64;
        let dirty = cache.dirty.iter().filter(|&&d| d).count() as u64;
        let from = first + lines - capacity;
        // Offset from `from` of the first of its lines that maps to set 0.
        let mut offset = (sets - (from % sets as u64) as usize) % sets;
        for slots in cache.tags.chunks_exact_mut(ways) {
            for (way, tag) in slots.iter_mut().enumerate() {
                *tag = from + (offset + way * sets) as u64;
            }
            offset += 1;
            if offset == sets {
                offset = 0;
            }
        }
        cache.dirty.fill(is_write);
        cache.policy.rank_by_way(ways);
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
        let head = first..first + capacity;
        if lines >= capacity && !cache.tags.iter().any(|line| head.contains(line)) {
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
    /// Every slot, those holding the stream's lines first (one spare entry
    /// past the slots).
    found: Vec<u32>,
    /// The lines resident before the stream that it reaches, with their
    /// sets, in line order.
    resident: Vec<(u64, usize)>,
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

    /// Lists the lines resident before a stream of `rounds` rounds from
    /// `first` that it reaches, in line order. The sets are scanned in
    /// stream order, so the lines come out in order within each round, and
    /// a counting sort by round orders them all.
    fn find_resident(cache: &mut SetAssocCache<Self>, first: u64, rounds: usize, end: u64) {
        let (sets, ways) = (cache.sets, cache.ways);
        let split = (first % sets as u64) as usize * ways;
        let ev = &mut cache.policy.scratch;
        ev.starts.clear();
        ev.starts.resize(rounds + 1, 0);
        // Branch-free: every slot is written at `found`, which only moves
        // past the slots of the stream's lines.
        let mut found = 0;
        let (lines, round) = (end - first, |line: u64| {
            ((line - first) / sets as u64) as usize
        });
        let tags = &cache.tags;
        (split..tags.len()).chain(0..split).for_each(|slot| {
            ev.found[found] = slot as u32;
            found += usize::from(tags[slot].wrapping_sub(first) < lines);
        });
        for &slot in &ev.found[..found] {
            ev.starts[round(tags[slot as usize]) + 1] += 1;
        }
        for r in 1..=rounds {
            ev.starts[r] += ev.starts[r - 1];
        }
        ev.resident.clear();
        ev.resident.resize(found, (0, 0));
        for &slot in &ev.found[..found] {
            let slot = slot as usize;
            let at = &mut ev.starts[round(tags[slot])];
            ev.resident[*at] = (tags[slot], slot / ways);
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
        let (mut events, mut hits, mut runs, mut writebacks, mut resident) = (0, 0, 0, 0, 0);
        loop {
            let long_line = first + hits + long;
            let (line, set) = match cache.policy.scratch.resident.get(resident) {
                Some(&(line, set)) if line <= long_line => {
                    resident += 1;
                    (line, set)
                }
                _ if long_line < end => (long_line, (long_line % sets) as usize),
                _ => break,
            };
            if let Some(dirty) = Self::end_run(cache, set, line, is_write) {
                runs += 1;
                writebacks += u64::from(dirty);
            }
            let is_long = line - first - hits == long;
            let (hit, dirty_eviction) =
                cache.touch_by(set, line, is_write, |p, set, base, ways| {
                    p.insert(set, base, ways, is_long)
                });
            events += 1;
            writebacks += u64::from(dirty_eviction);
            if hit {
                hits += 1;
            } else if is_long {
                long = draws.next_long();
            }
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
            writebacks += lines - events - runs;
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
                found: vec![0; sets * ways + 1],
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
    /// Generator state after `base` draws.
    x: u32,
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
        Self {
            x,
            base: 0,
            longs: Block::of(x).longs(),
            mark: (x, 0),
        }
    }

    /// Fill number of the next long insertion.
    fn next_long(&mut self) -> u64 {
        self.mark = (self.x, self.base);
        while self.longs == 0 {
            self.x = Block::of(self.x).jump;
            self.base += 32;
            self.longs = Block::of(self.x).longs();
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
    /// module's clean-head rule (LRU) or event rule (BRRIP) where they
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
