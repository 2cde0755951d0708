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
//! less recent, was evicted before it; with no such line, `m = 0`. The test
//! is per set (the implicit tail below decides most sets without reading
//! their slots), and a stream whose head has no hit is charged as above. A stream of `n ≥ 2·C` lines whose head hits walks its
//! head line by line. The head leaves only its own lines behind, so none of
//! the rest's head is resident, and the rest is charged. Shorter streams
//! whose head hits walk.
//!
//! # LRU: the implicit tail
//!
//! A charged stream leaves every set in a state fixed by two numbers: the
//! first of the stream's last `C` lines, its *tail*, and whether the stream
//! wrote. Set `s` holds the tail lines `≡ s (mod S)` in stream order, way
//! `w` holding `b_s + w·S` at rank `W − 1 − w`, where `b_s` is the first of
//! them. So the cache keeps that state implicit: a charged stream *closes*
//! every set, and a set *opens*, its slots and ranks written from the tail,
//! only when an access or a walked line first touches it. The open sets are
//! listed, and everything else reads a closed set through the tail:
//!
//! - *Head test.* A closed set's tail line `b_s + w·S` is at position
//!   `k = d + w` of the set's head lines, where `d·S = b_s − f_s` and `f_s`
//!   is the set's first head line, so `r + k = W − 1 + d`. That is below `W`
//!   iff `d ≤ 0`, that is iff `f_s` itself is a tail line (then it is the
//!   line at `k = 0`). The first head lines, `first..first + S`, lie one per
//!   set, so some closed set passes iff a line shared by that range and the
//!   tail lies in a closed set; at most one more than the open sets of
//!   those lines are looked at. The open sets are scanned slot by slot.
//! - *Eviction.* A stream charged in closed form writes back `W` lines per
//!   closed set when the tail is dirty, plus the open sets' dirty lines;
//!   then its own tail replaces the old one and every set closes.
//! - *Flush.* `flush_dirty` counts the same lines and leaves the tail clean.
//!
//! Before any stream is charged, the tail is the empty cache: a set opens
//! with every way empty and ranked by way, so its ways fill in index order.
//! A charged stream, the per-line model's costliest case, thus takes time in
//! the open sets only.
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
//! and the state after them, and a block's long insertions are queued a few
//! at a time. The generator ends where the per-line walk leaves it. A
//! stream of fewer lines than sets walks, and so does a cache with an empty
//! way, a round at a time until it is full.
//!
//! Each set keeps its RRPV planes, its next stream line and its fill count
//! in one record. The event loop works on plain slices of the slots and
//! records; deciding a possible hit and ending a pending run take no
//! branch, since whether a line still hits follows no pattern.
//!
//! # Exact division
//!
//! The resident scan and the LRU test divide by `S` only numbers that `S`
//! divides: line `l` of set `s` lies `(l − s) / S` rounds past line `s`.
//! With `S = 2^j · o`, `o` odd, that quotient is `(x >> j) · o⁻¹` modulo
//! 2^64: a shift and a multiplication, with no division and no narrowing
//! of the 64-bit line numbers.

use crate::stats::AccessStats;
use std::hint::select_unpredictable;

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
    /// Makes `set`'s slots and policy state hold its lines before the
    /// cache reads or writes them. The default keeps every set there.
    fn open(_cache: &mut SetAssocCache<Self>, _set: usize)
    where
        Self: Sized,
    {
    }
    /// Clears every dirty bit and returns how many were set. The default
    /// scans every slot.
    fn flush(cache: &mut SetAssocCache<Self>) -> u64
    where
        Self: Sized,
    {
        let dirty = cache.dirty.iter().filter(|&&d| d).count() as u64;
        cache.dirty.fill(false);
        dirty
    }
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
///
/// A set is *open* when its slots hold its lines and its recency ranks. A
/// charged stream closes every set: each then holds its share of the
/// stream's tail (module docs) implicitly, and opens, from the tail, when
/// the cache next touches it.
#[derive(Clone, Debug)]
pub struct LruPolicy {
    /// Recency rank of each slot of an open set: 0 is the most recent,
    /// `ways − 1` the next victim.
    rank: Vec<u8>,
    /// What every closed set holds.
    tail: Tail,
    /// Whether each set is open.
    open: Vec<bool>,
    /// The open sets, in the order they opened.
    opened: Vec<usize>,
}

/// The lines a charged stream leaves behind (module docs): set `s` holds
/// those of `from..from + C` that are `≡ s (mod sets)`, oldest in way 0,
/// ranked by way, all dirty or all clean.
#[derive(Clone, Copy, Debug)]
struct Tail {
    /// `from` and its set; `None` until a stream is charged, while every
    /// closed set is empty.
    from: Option<(u64, usize)>,
    dirty: bool,
}

impl LruPolicy {
    /// Whether some line among the first `C` of a stream from `first` hits:
    /// whether a line resident before it, of rank `r`, lies at a position
    /// `k < W − r` of its set in the head (the stack-distance test in the
    /// module docs). A closed set passes exactly when its first head line
    /// is a tail line; the open sets are scanned slot by slot.
    fn head_hits(cache: &SetAssocCache<Self>, first: u64) -> bool {
        let (sets, ways) = (cache.sets, cache.ways);
        let capacity = cache.tags.len() as u64;
        let p = &cache.policy;
        if let Some((from, _)) = p.tail.from {
            // The first head lines, `first..first + sets`, lie in distinct
            // sets, so at most `opened.len()` of those that are tail lines
            // are in open sets.
            let shared = first.max(from)..(first + sets as u64).min(from + capacity);
            let set = (shared.start % sets as u64) as usize;
            let count = shared.end.saturating_sub(shared.start) as usize;
            if (set..sets).chain(0..set).take(count).any(|s| !p.open[s]) {
                return true;
            }
        }
        let first_set = (first % sets as u64) as usize;
        let in_head = |tag: u64| tag.wrapping_sub(first) < capacity;
        p.opened.iter().any(|&set| {
            let position = if set >= first_set {
                set - first_set
            } else {
                set + sets - first_set
            };
            let slots = set * ways..(set + 1) * ways;
            let ranks = &p.rank[slots.clone()];
            cache.tags[slots].iter().zip(ranks).any(|(&tag, &rank)| {
                in_head(tag)
                    && u64::from(rank) + cache.by_sets.quotient(tag - first - position as u64)
                        < ways as u64
            })
        })
    }

    /// Charges a stream of at least capacity lines none of whose first
    /// capacity lines hits: it evicts every line resident before it and
    /// leaves its last capacity lines as the tail, every set closed.
    fn evict_all(
        cache: &mut SetAssocCache<Self>,
        first: u64,
        lines: u64,
        is_write: bool,
    ) -> (u64, u64) {
        let dirty = Self::flush(cache);
        let capacity = cache.tags.len() as u64;
        let from = first + lines - capacity;
        let p = &mut cache.policy;
        for set in p.opened.drain(..) {
            p.open[set] = false;
        }
        p.tail = Tail {
            from: Some((from, (from % cache.sets as u64) as usize)),
            dirty: is_write,
        };
        (lines, dirty + if is_write { lines - capacity } else { 0 })
    }
}

impl ReplacementPolicy for LruPolicy {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=256).contains(&ways),
            "LRU ranks 1 to 256 ways, got {ways}"
        );
        Self {
            rank: vec![0; sets * ways],
            tail: Tail {
                from: None,
                dirty: false,
            },
            open: vec![false; sets],
            opened: Vec::new(),
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

    /// Opens a closed set from the tail. Ranking way 0 least recent fills
    /// an empty set's ways in index order before any line is evicted:
    /// first-empty-then-LRU with no empty check.
    fn open(cache: &mut SetAssocCache<Self>, set: usize) {
        let p = &mut cache.policy;
        if p.open[set] {
            return;
        }
        p.open[set] = true;
        p.opened.push(set);
        let (sets, ways) = (cache.sets, cache.ways);
        let slots = set * ways..(set + 1) * ways;
        for (x, r) in p.rank[slots.clone()].iter_mut().zip((0..ways).rev()) {
            *x = r as u8;
        }
        cache.dirty[slots.clone()].fill(p.tail.dirty);
        let tags = &mut cache.tags[slots];
        let Some((from, from_set)) = p.tail.from else {
            tags.fill(EMPTY);
            return;
        };
        // The sets from `from`'s set on start at `from`, those before it a
        // round later.
        let oldest = from
            + if set >= from_set {
                set - from_set
            } else {
                set + sets - from_set
            } as u64;
        for (way, tag) in tags.iter_mut().enumerate() {
            *tag = oldest + (way * sets) as u64;
        }
    }

    /// Counts the closed sets' dirty lines from the tail and scans only
    /// the open sets.
    fn flush(cache: &mut SetAssocCache<Self>) -> u64 {
        let p = &mut cache.policy;
        let closed = ((cache.sets - p.opened.len()) * cache.ways) as u64;
        let mut dirty = if std::mem::take(&mut p.tail.dirty) {
            closed
        } else {
            0
        };
        for &set in &p.opened {
            let bits = &mut cache.dirty[set * cache.ways..][..cache.ways];
            dirty += bits.iter().filter(|&&d| d).count() as u64;
            bits.fill(false);
        }
        dirty
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
    /// One record per set.
    sets: Vec<SetState>,
    /// Bit mask of a set's ways.
    way_mask: u64,
    /// Empty slots left in the whole cache.
    empty: usize,
    lfsr: u32,
    /// Event-rule scratch, sized once and reused by every stream.
    scratch: Scratch,
}

/// What a BRRIP set keeps beside its slots, in one record.
#[derive(Clone, Copy, Debug, Default)]
struct SetState {
    /// High and low bits of each way's RRPV (bit `w` is way `w`).
    hi: u64,
    lo: u64,
    /// The event rule's first stream line of the set not yet charged.
    next: u64,
    /// Ways filled so far. Lines are never invalidated, so the set's empty
    /// ways are always the ones from here on.
    filled: u32,
}

impl SetState {
    /// The ways at RRPV 3: the set is in a run when there is one, and the
    /// lowest is its run way.
    fn run(self) -> u64 {
        self.hi & self.lo
    }

    /// The set aged until some way reaches RRPV 3 (`all` masks its ways).
    /// Ageing by ones until then is one step of `3 − max`, added to every
    /// way bit-sliced; a set in a run steps by 0.
    fn aged(self, all: u64) -> Self {
        let (hi, lo) = (self.hi, self.lo);
        let max = u64::from(hi | lo != 0) + u64::from(hi != 0) + u64::from(hi & lo != 0);
        let step = 3 - max;
        let (high, low) = (
            (step >> 1).wrapping_neg() & all,
            (step & 1).wrapping_neg() & all,
        );
        Self {
            hi: hi ^ high ^ (lo & low),
            lo: lo ^ low,
            ..self
        }
    }
}

/// Working memory of the event rule: `O(sets · ways)`.
#[derive(Clone, Debug)]
struct Scratch {
    /// Every slot, those holding the stream's lines first (one spare entry
    /// past the slots).
    found: Vec<u32>,
    /// The lines resident before the stream that it reaches, with their
    /// slots and sets, in line order.
    resident: Vec<(u64, u32, u32)>,
    /// Start of each round's bucket in `resident`.
    starts: Vec<usize>,
}

/// The event rule's view of a full cache: its slots and set records as
/// plain slices, beside the stream's fixed quantities.
struct Events<'a> {
    tags: &'a mut [u64],
    dirty: &'a mut [bool],
    sets: &'a mut [SetState],
    ways: usize,
    /// The number of sets, as a line count.
    set_count: u64,
    /// Bit mask of a set's ways.
    all: u64,
    /// The line past the stream.
    end: u64,
    is_write: bool,
}

impl Events<'_> {
    /// `s`, the record of `set`, with `line` as the set's next stream line.
    /// When no way of the set is at RRPV 3 and the line is not resident,
    /// the line will fill, so the set ages now as that fill would (nothing
    /// touches the set before it) and is in a run. A resident line is an
    /// event.
    fn readied(&self, s: SetState, set: usize, line: u64) -> SetState {
        let s = SetState { next: line, ..s };
        if line < self.end
            && s.run() == 0
            && !self.tags[set * self.ways..][..self.ways].contains(&line)
        {
            s.aged(self.all)
        } else {
            s
        }
    }

    /// Readies `set` for `line` ([`Self::readied`]).
    fn ready(&mut self, set: usize, line: u64) {
        self.sets[set] = self.readied(self.sets[set], set, line);
    }

    /// Ends `set`'s pending run: its short fills from its next stream line
    /// up to, not including, line `to`, all into its run way. Whether the
    /// run was not empty, and whether it wrote back the way's first
    /// occupant; the run's last line takes the way. An empty run changes
    /// only the set's next line, and the test takes no branch.
    #[inline(always)]
    fn end_run(&mut self, set: usize, to: u64) -> (bool, bool) {
        let s = &mut self.sets[set];
        let ends = s.next < to;
        s.next = to;
        let run = s.run();
        debug_assert!(!ends || run != 0, "set {set} has no run way");
        let slot = set * self.ways + (run.trailing_zeros() as usize).min(self.ways - 1);
        let dirty = self.dirty[slot];
        let last = to.wrapping_sub(self.set_count);
        self.tags[slot] = select_unpredictable(ends, last, self.tags[slot]);
        self.dirty[slot] = select_unpredictable(ends, self.is_write, dirty);
        (ends, ends & dirty)
    }

    /// A possible hit: `line`, resident in `slot` of `set` before the
    /// stream. It hits when the slot still holds it (no earlier event of the
    /// set has evicted it) and the set's pending run, if any, fills another
    /// way. A hit ends the pending run at it, drops the slot to RRPV 0,
    /// takes the write and readies the set for its next line; a miss
    /// changes nothing. Returns whether it hit and [`Self::end_run`]'s
    /// result. Deciding the hit and ending the run take no branch.
    #[inline(always)]
    fn possible_hit(&mut self, line: u64, slot: usize, set: usize) -> (bool, (bool, bool)) {
        let s = self.sets[set];
        let bit = 1u64 << (slot - set * self.ways);
        let run = s.run();
        let hit =
            (self.tags[slot] == line) & ((s.next == line) | (run & run.wrapping_neg() != bit));
        // A miss ends an empty run at the set's next line.
        let ended = self.end_run(set, select_unpredictable(hit, line, s.next));
        self.dirty[slot] |= hit & self.is_write;
        if hit {
            let promoted = SetState {
                hi: s.hi & !bit,
                lo: s.lo & !bit,
                ..self.sets[set]
            };
            self.sets[set] = self.readied(promoted, set, line + self.set_count);
        }
        (hit, ended)
    }

    /// A long insertion of `line`, which misses, into `set`: the pending
    /// run ends at it and the line takes the run way at RRPV 2. Returns
    /// [`Self::end_run`]'s result and whether the way's occupant was dirty.
    fn long_insertion(&mut self, line: u64, set: usize) -> ((bool, bool), bool) {
        let ended = self.end_run(set, line);
        let s = &mut self.sets[set];
        *s = s.aged(self.all);
        let way = s.run().trailing_zeros() as usize;
        s.hi |= 1 << way;
        s.lo &= !(1 << way);
        let slot = set * self.ways + way;
        debug_assert!(
            !self.tags[set * self.ways..][..self.ways].contains(&line),
            "line {line} of a long insertion hit"
        );
        let evicted = std::mem::replace(&mut self.dirty[slot], self.is_write);
        self.tags[slot] = line;
        self.ready(set, line + self.set_count);
        (ended, evicted)
    }
}

impl BrripPolicy {
    /// 1-in-32 long-insertions (the "bimodal throttle").
    const BIMODAL_PERIOD: u32 = 32;

    /// Ages `set` until a way reaches RRPV 3 and returns the mask of the
    /// ways at 3.
    fn age(&mut self, set: usize) -> u64 {
        let s = &mut self.sets[set];
        *s = s.aged(self.way_mask);
        s.run()
    }

    /// The first way at RRPV 3 once the set has aged until one reaches it.
    fn victim(&mut self, set: usize) -> usize {
        self.age(set).trailing_zeros() as usize
    }

    /// Fills `set`'s first empty way, else its victim, inserting at RRPV 3,
    /// or 2 when `long`.
    fn insert(&mut self, set: usize, base: usize, ways: usize, long: bool) -> usize {
        let filled = self.sets[set].filled as usize;
        let way = if filled < ways {
            self.sets[set].filled += 1;
            self.empty -= 1;
            filled
        } else {
            self.victim(set)
        };
        let bit = 1u64 << way;
        let s = &mut self.sets[set];
        s.hi |= bit;
        s.lo = if long { s.lo & !bit } else { s.lo | bit };
        base + way
    }

    /// Lists the lines resident before a stream of `rounds` rounds from
    /// `first` that it reaches, in line order. The slots are scanned in
    /// stream order of their sets, so the lines come out in order within
    /// each round, and a counting sort by round orders them all. A line's
    /// round is an exact quotient, so no step divides.
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
        let split = first_set * ways;
        for slots in [split..tags.len(), 0..split] {
            for (slot, &tag) in slots.clone().zip(&tags[slots]) {
                ev.found[found] = slot as u32;
                found += usize::from(tag.wrapping_sub(first) < lines);
            }
        }
        let set_of = |slot: u32| {
            if ways.is_power_of_two() {
                slot >> ways.trailing_zeros()
            } else {
                slot / ways as u32
            }
        };
        for &slot in &ev.found[..found] {
            ev.starts[round(tags[slot as usize], set_of(slot)) + 1] += 1;
        }
        for r in 1..=rounds {
            ev.starts[r] += ev.starts[r - 1];
        }
        ev.resident.clear();
        ev.resident.resize(found, (0, 0, 0));
        for &slot in &ev.found[..found] {
            let (line, set) = (tags[slot as usize], set_of(slot));
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
        let p = &mut cache.policy;
        let mut ev = Events {
            tags: &mut cache.tags,
            dirty: &mut cache.dirty,
            sets: &mut p.sets,
            ways: cache.ways,
            set_count: sets,
            all: p.way_mask,
            end,
            is_write,
        };
        let first_set = (first % sets) as usize;
        for (set, line) in (first_set..cache.sets).chain(0..first_set).zip(first..) {
            ev.ready(set, line);
        }
        let mut draws = Draws::new(p.lfsr);
        let mut long = draws.next_long();
        let (mut longs, mut hits, mut runs, mut writebacks) = (0, 0, 0, 0);
        let mut resident = p.scratch.resident.iter().peekable();
        loop {
            // The possible hits up to the next long insertion. One that
            // misses is a fill: a short fill of its set's pending run, or
            // that long insertion.
            while let Some(&&(line, slot, set)) = resident.peek() {
                if line > first + hits + long {
                    break;
                }
                resident.next();
                let (hit, (ended, dirty)) = ev.possible_hit(line, slot as usize, set as usize);
                hits += u64::from(hit);
                runs += u64::from(ended);
                writebacks += u64::from(dirty);
            }
            let line = first + hits + long;
            if line >= end {
                break;
            }
            let ((ended, dirty), evicted) = ev.long_insertion(line, (line % sets) as usize);
            runs += u64::from(ended);
            writebacks += u64::from(dirty) + u64::from(evicted);
            longs += 1;
            long = draws.next_long();
        }
        // The last stream line of each set ends its last run.
        let end_set = (end % sets) as usize;
        for (set, line) in (end_set..cache.sets).chain(0..end_set).zip(end..) {
            let (ended, dirty) = ev.end_run(set, line);
            runs += u64::from(ended);
            writebacks += u64::from(dirty);
        }
        // Every other line of a run evicts the run's previous line.
        if is_write {
            writebacks += lines - hits - longs - runs;
        }
        p.lfsr = draws.after(lines - hits);
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
            sets: vec![SetState::default(); sets],
            way_mask: u64::MAX >> (64 - ways),
            empty: sets * ways,
            lfsr: 0x2A2A_2A2A,
            scratch: Scratch {
                found: vec![0; sets * ways + 1],
                resident: Vec::with_capacity(sets * ways),
                starts: Vec::with_capacity(sets + 1),
            },
        }
    }

    fn on_hit(&mut self, set: usize, base: usize, _ways: usize, slot: usize) {
        let bit = 1u64 << (slot - base);
        let s = &mut self.sets[set];
        s.hi &= !bit;
        s.lo &= !bit;
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

/// The xorshift draws of one stream's fills, 32 at a time. A block's long
/// insertions are queued four at a time with no branch per insertion; a
/// block with more, rare, queues the rest one by one.
struct Draws {
    /// Generator state after `base` draws: the next block to queue.
    x: u32,
    base: u64,
    /// Queued long insertions from `head` to `len`, each with the generator
    /// state at the start of its block and the block's first fill number.
    queue: [(u64, u32, u64); Draws::QUEUE],
    head: usize,
    len: usize,
    /// `(x, base)` of the block of the last long insertion handed out.
    last: (u32, u64),
    /// `last` when the pending long insertion was handed out: the block of
    /// the one before it, or the first block.
    mark: (u32, u64),
}

impl Draws {
    /// Room for a refill: it stops once it holds `QUEUE_FILL`, and its
    /// last block adds at most 32 long insertions, after writing four slots
    /// regardless.
    const QUEUE: usize = Self::QUEUE_FILL + 32 + 4;
    const QUEUE_FILL: usize = 32;

    fn new(x: u32) -> Self {
        Self {
            x,
            base: 0,
            queue: [(0, 0, 0); Self::QUEUE],
            head: 0,
            len: 0,
            last: (x, 0),
            mark: (x, 0),
        }
    }

    /// Queues the long insertions of the next blocks, at least
    /// `QUEUE_FILL` of them.
    fn refill(&mut self) {
        self.head = 0;
        self.len = 0;
        while self.len < Self::QUEUE_FILL {
            let block = Block::of(self.x);
            let mut longs = block.longs();
            let count = longs.count_ones() as usize;
            for slot in &mut self.queue[self.len..self.len + 4] {
                *slot = (
                    self.base + u64::from(longs.trailing_zeros()),
                    self.x,
                    self.base,
                );
                longs &= longs.wrapping_sub(1);
            }
            self.len += count.min(4);
            while longs != 0 {
                self.queue[self.len] = (
                    self.base + u64::from(longs.trailing_zeros()),
                    self.x,
                    self.base,
                );
                self.len += 1;
                longs &= longs - 1;
            }
            self.x = block.jump;
            self.base += 32;
        }
    }

    /// Fill number of the next long insertion.
    #[inline(always)]
    fn next_long(&mut self) -> u64 {
        if self.head == self.len {
            self.refill();
        }
        let (fill, x, base) = self.queue[self.head];
        self.head += 1;
        self.mark = std::mem::replace(&mut self.last, (x, base));
        fill
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
        P::open(self, set);
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
        let dirty = P::flush(self);
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
