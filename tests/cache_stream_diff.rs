//! Differential test of the stream-granular `SetAssocCache` against the
//! per-line model it replaced (kept verbatim in `reference`, apart from set
//! indexing by `line % sets`, which equals the old `line & (sets − 1)` on
//! the power-of-two set counts that model accepted).
//!
//! Random traces mix single `access`es and unaligned `stream`s of up to five
//! times the capacity, so the LRU clean-head rule and the BRRIP event rule
//! fire; tensor-shaped traces stream a few fixed regions whole, as the
//! cache backend does. Every call's result and the running `AccessStats`
//! must match, and so must the stats after `flush_dirty`. The engine-level
//! tests pin the Flex+LRU and Flex+BRRIP statistics of the benchmark's
//! figure runs, and run both cache configurations at a 3 MB SRAM, whose
//! 24 576 sets are not a power of two.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::build_schedule;
use cello::graph::dag::TensorDag;
use cello::mem::cache::{BrripPolicy, CacheConfig, LruPolicy, ReplacementPolicy, SetAssocCache};
use cello::mem::model::BufferKind;
use cello::mem::stats::AccessStats;
use cello::sim::backends::{MemoryBackend, TensorRequest};
use cello::sim::baselines::backend_for;
use cello::sim::trace::AddressMap;
use cello::sim::{run_schedule, ConfigKind};
use cello::workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello::workloads::datasets::{FV1, NASA4704};

/// The per-line cache model as it stood before the stream-granular rewrite.
mod reference {
    use cello::mem::cache::{AccessOutcome, CacheConfig};
    use cello::mem::stats::AccessStats;

    pub trait ReplacementPolicy {
        fn new(sets: usize, ways: usize) -> Self
        where
            Self: Sized;
        fn on_hit(&mut self, set: usize, way: usize);
        fn on_fill(&mut self, set: usize, way: usize);
        fn victim(&mut self, set: usize) -> usize;
    }

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
    }

    pub struct BrripPolicy {
        rrpv: Vec<u8>,
        ways: usize,
        lfsr: u32,
    }

    impl BrripPolicy {
        const RRPV_MAX: u8 = 3;
        const BIMODAL_PERIOD: u32 = 32;

        fn next_rand(&mut self) -> u32 {
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
    }

    pub struct SetAssocCache<P: ReplacementPolicy> {
        config: CacheConfig,
        tags: Vec<Option<u64>>,
        dirty: Vec<bool>,
        policy: P,
        sets: usize,
        stats: AccessStats,
    }

    impl<P: ReplacementPolicy> SetAssocCache<P> {
        pub fn new(config: CacheConfig) -> Self {
            let sets = (config.capacity_bytes / config.line_bytes) as usize / config.associativity;
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

        pub fn stats(&self) -> AccessStats {
            self.stats
        }

        fn set_and_tag(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.config.line_bytes;
            ((line % self.sets as u64) as usize, line)
        }

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
}

/// SplitMix64: a seeded, dependency-free trace generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Replays one random trace through both models; panics on the first
/// divergence with the case's geometry and call index.
fn replay<P, R>(cfg: CacheConfig, rng: &mut Rng, calls: usize)
where
    P: ReplacementPolicy,
    R: reference::ReplacementPolicy,
{
    let mut cache = SetAssocCache::<P>::new(cfg);
    let mut model = reference::SetAssocCache::<R>::new(cfg);
    let capacity = cfg.capacity_bytes;
    // Addresses span a few capacities, so streams revisit each other.
    let span = 6 * capacity;
    for call in 0..calls {
        let write = rng.below(3) == 0;
        if rng.below(4) == 0 {
            let addr = rng.below(span);
            assert_eq!(
                cache.access(addr, write),
                model.access(addr, write),
                "{cfg:?}: call {call} access({addr}, {write})"
            );
        } else {
            let start = rng.below(span);
            let bytes = match rng.below(3) {
                0 => rng.below(cfg.line_bytes * 4),
                1 => rng.below(capacity),
                _ => rng.below(5 * capacity + 1),
            };
            assert_eq!(
                cache.stream(start, bytes, write),
                model.stream(start, bytes, write),
                "{cfg:?}: call {call} stream({start}, {bytes}, {write})"
            );
        }
        assert_eq!(cache.stats(), model.stats(), "{cfg:?}: after call {call}");
    }
    cache.flush_dirty();
    model.flush_dirty();
    assert_eq!(cache.stats(), model.stats(), "{cfg:?}: after flush");
}

fn random_config(rng: &mut Rng, ways: &[usize]) -> CacheConfig {
    let line_bytes = rng.pick(&[4u64, 16, 64]);
    let associativity = rng.pick(ways);
    let sets = 1 + rng.below(32);
    CacheConfig {
        capacity_bytes: sets * associativity as u64 * line_bytes,
        line_bytes,
        associativity,
    }
}

#[test]
fn lru_streams_match_per_line_model() {
    let mut rng = Rng(0x5EED_0001);
    for _ in 0..1500 {
        let cfg = random_config(&mut rng, &[1, 2, 4, 8, 16]);
        replay::<LruPolicy, reference::LruPolicy>(cfg, &mut rng, 24);
    }
}

#[test]
fn fully_associative_lru_matches_per_line_model() {
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..300 {
        let ways = 1 + rng.below(128) as usize;
        let cfg = CacheConfig {
            capacity_bytes: ways as u64 * 16,
            line_bytes: 16,
            associativity: ways,
        };
        replay::<LruPolicy, reference::LruPolicy>(cfg, &mut rng, 24);
    }
}

#[test]
fn brrip_streams_match_per_line_model() {
    let mut rng = Rng(0x5EED_0003);
    for _ in 0..1200 {
        let cfg = random_config(&mut rng, &[1, 2, 4, 8, 16]);
        replay::<BrripPolicy, reference::BrripPolicy>(cfg, &mut rng, 24);
    }
}

/// Both models side by side; every call must agree on its result and on
/// the running statistics.
struct Pair<P: ReplacementPolicy, R: reference::ReplacementPolicy> {
    cache: SetAssocCache<P>,
    model: reference::SetAssocCache<R>,
    cfg: CacheConfig,
}

impl<P: ReplacementPolicy, R: reference::ReplacementPolicy> Pair<P, R> {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            cache: SetAssocCache::new(cfg),
            model: reference::SetAssocCache::new(cfg),
            cfg,
        }
    }

    /// Streams `(start, bytes)` through both models; returns the misses.
    fn stream(&mut self, (start, bytes): (u64, u64), write: bool, call: usize) -> u64 {
        let cfg = self.cfg;
        let misses = self.cache.stream(start, bytes, write);
        assert_eq!(
            misses,
            self.model.stream(start, bytes, write),
            "{cfg:?}: call {call} stream({start}, {bytes}, {write})"
        );
        assert_eq!(
            self.cache.stats(),
            self.model.stats(),
            "{cfg:?}: after call {call}"
        );
        misses
    }

    fn flush(&mut self) {
        self.cache.flush_dirty();
        self.model.flush_dirty();
        let cfg = self.cfg;
        assert_eq!(
            self.cache.stats(),
            self.model.stats(),
            "{cfg:?}: after flush"
        );
    }
}

/// Tensor-shaped traces: four regions laid out as `AddressMap` lays out
/// tensors (line-aligned, back to back), each streamed whole, read or
/// written, 72 times in all. Their lengths fall below one line per set,
/// between that and the capacity `C`, in `[C, 2C)` and in `[2C, 4C)`.
fn replay_tensors<P, R>(cfg: CacheConfig, rng: &mut Rng)
where
    P: ReplacementPolicy,
    R: reference::ReplacementPolicy,
{
    let sets = cfg.sets() as u64;
    let capacity = cfg.capacity_bytes / cfg.line_bytes;
    let mut map = AddressMap::default();
    let names = ["short", "mid", "one", "two"];
    let lengths = [
        1 + rng.below(sets),
        sets + rng.below(capacity - sets + 1),
        capacity + rng.below(capacity),
        2 * capacity + rng.below(2 * capacity),
    ];
    for (name, lines) in names.iter().zip(lengths) {
        // A tensor may end inside its last line.
        map.insert(name, lines * cfg.line_bytes - rng.below(cfg.line_bytes));
    }
    let mut pair = Pair::<P, R>::new(cfg);
    for call in 0..72 {
        let region = map.range(rng.pick(&names));
        pair.stream(region, rng.below(3) == 0, call);
    }
    pair.flush();
}

/// Geometries with set counts that are mostly not powers of two; lines of
/// 4, 16 or 64 B, which `AddressMap`'s 64 B alignment keeps line-aligned.
fn tensor_config(rng: &mut Rng, ways: usize) -> CacheConfig {
    let line_bytes = rng.pick(&[4u64, 16, 64]);
    let sets = 1 + rng.below(16);
    CacheConfig {
        capacity_bytes: sets * ways as u64 * line_bytes,
        line_bytes,
        associativity: ways,
    }
}

#[test]
fn lru_tensor_traces_match_per_line_model() {
    let mut rng = Rng(0x5EED_0004);
    for _ in 0..32 {
        let ways = rng.pick(&[1, 2, 3, 5, 8, 16, 33, 64]);
        let cfg = tensor_config(&mut rng, ways);
        replay_tensors::<LruPolicy, reference::LruPolicy>(cfg, &mut rng);
    }
}

#[test]
fn brrip_tensor_traces_match_per_line_model() {
    let mut rng = Rng(0x5EED_0005);
    for _ in 0..32 {
        let ways = rng.pick(&[1, 2, 3, 4, 7, 8, 16, 24, 63, 64]);
        let cfg = tensor_config(&mut rng, ways);
        replay_tensors::<BrripPolicy, reference::BrripPolicy>(cfg, &mut rng);
    }
}

/// Writes a region of three capacities, then reads it back twice; between
/// the write and the reads, LRU streams a disjoint region of one and a half
/// capacities, whose head is clean. 24 sets of 8 ways.
#[test]
fn write_then_read_back_twice() {
    let cfg = CacheConfig {
        capacity_bytes: 24 * 8 * 16,
        line_bytes: 16,
        associativity: 8,
    };
    let c = 24 * 8;
    let region = (0, 3 * c * 16);
    // BRRIP keeps the lines it inserted long through the rest of the
    // write, so each read hits on some of them.
    let mut brrip = Pair::<BrripPolicy, reference::BrripPolicy>::new(cfg);
    assert_eq!(brrip.stream(region, true, 0), 3 * c);
    for call in 1..3 {
        let misses = brrip.stream(region, false, call);
        assert!(misses < 3 * c, "read {call} of the region hit nothing");
    }
    brrip.flush();
    // LRU: the disjoint region misses on every line and evicts the `c`
    // dirty lines the write left behind.
    let mut lru = Pair::<LruPolicy, reference::LruPolicy>::new(cfg);
    assert_eq!(lru.stream(region, true, 0), 3 * c);
    let before = lru.cache.stats().writebacks;
    assert_eq!(lru.stream((3 * c * 16, c * 24), false, 1), c * 3 / 2);
    assert_eq!(lru.cache.stats().writebacks - before, c);
    for call in 2..4 {
        assert_eq!(lru.stream(region, false, call), 3 * c);
    }
    lru.flush();
}

/// The benchmark's figure inputs: cg/fv1 (16 columns, 2 iterations) and
/// bicgstab/NASA4704 (16 columns, 1 iteration).
fn figure_dags() -> [(&'static str, TensorDag); 2] {
    [
        ("cg/fv1", build_cg_dag(&CgParams::from_dataset(&FV1, 16, 2))),
        (
            "bicgstab/NASA4704",
            build_bicgstab_dag(&BicgParams::from_dataset(&NASA4704, 16, 1)),
        ),
    ]
}

fn run(
    dag: &TensorDag,
    kind: ConfigKind,
    accel: &CelloConfig,
    backend: &mut dyn MemoryBackend,
) -> AccessStats {
    let schedule = build_schedule(dag, kind.schedule_options());
    run_schedule(dag, &schedule, accel, backend, kind.label(), "diff").stats
}

#[allow(clippy::too_many_arguments)]
const fn stats(
    dram_read_bytes: u64,
    dram_write_bytes: u64,
    sram_read_words: u64,
    sram_write_words: u64,
    tag_accesses: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
) -> AccessStats {
    AccessStats {
        dram_read_bytes,
        dram_write_bytes,
        sram_read_words,
        sram_write_words,
        tag_accesses,
        hits,
        misses,
        writebacks,
    }
}

/// `RunReport.stats` of the per-line model at 256 KB, the benchmark's
/// `simulate` point (DRAM bytes sum to 34 341 792 for LRU, 32 820 912 for
/// BRRIP).
#[test]
fn figure_runs_match_pinned_per_line_statistics() {
    let accel = CelloConfig::paper().with_sram_bytes(256 << 10);
    let pinned = [
        (
            ConfigKind::FlexLru,
            [
                stats(
                    18_663_744, 4_925_440, 859_284, 307_840, 1_167_124, 640, 1_166_484, 307_840,
                ),
                stats(
                    8_943_200, 1_809_408, 446_054, 113_088, 559_142, 192, 558_950, 113_088,
                ),
            ],
        ),
        (
            ConfigKind::FlexBrrip,
            [
                stats(
                    17_583_280, 4_829_808, 859_284, 307_840, 1_167_124, 68_169, 1_098_955, 301_863,
                ),
                stats(
                    8_598_416, 1_809_408, 446_054, 113_088, 559_142, 21_741, 537_401, 113_088,
                ),
            ],
        ),
    ];
    let dags = figure_dags();
    for (kind, expected) in pinned {
        for ((name, dag), want) in dags.iter().zip(expected) {
            let got = run(dag, kind, &accel, backend_for(dag, kind, &accel).as_mut());
            assert_eq!(got, want, "{} on {name}", kind.label());
        }
    }
}

/// Drives the reference model with the engine's requests, as the cache
/// backend drives the real one.
struct ReferenceBackend<R: reference::ReplacementPolicy> {
    cache: reference::SetAssocCache<R>,
    map: AddressMap,
    word_bytes: u64,
}

impl<R: reference::ReplacementPolicy> MemoryBackend for ReferenceBackend<R> {
    fn read(&mut self, req: &TensorRequest) {
        let (start, _) = self.map.range(req.name);
        self.cache.stream(start, req.words * self.word_bytes, false);
    }

    fn write(&mut self, req: &TensorRequest) {
        let (start, _) = self.map.range(req.name);
        self.cache.stream(start, req.words * self.word_bytes, true);
    }

    fn finish(&mut self) {
        self.cache.flush_dirty();
    }

    fn stats(&self) -> AccessStats {
        self.cache.stats()
    }

    fn label(&self) -> String {
        "reference".into()
    }

    fn buffer_kind(&self) -> BufferKind {
        BufferKind::Cache
    }

    fn sram_access_bytes(&self) -> f64 {
        16.0
    }
}

fn reference_stats<R: reference::ReplacementPolicy>(
    dag: &TensorDag,
    kind: ConfigKind,
    accel: &CelloConfig,
) -> AccessStats {
    let mut backend = ReferenceBackend::<R> {
        cache: reference::SetAssocCache::new(accel.cache_config()),
        map: AddressMap::build(dag, accel.word_bytes),
        word_bytes: u64::from(accel.word_bytes),
    };
    run(dag, kind, accel, &mut backend)
}

/// A 3 MB SRAM gives the cache 24 576 sets. Both cache configurations run
/// there and match the per-line model indexed by `line % sets`.
#[test]
fn cache_configs_run_at_three_megabytes() {
    let accel = CelloConfig::paper().with_sram_bytes(3 << 20);
    assert_eq!(accel.cache_config().sets(), 24_576);
    let dag = build_cg_dag(&CgParams::from_dataset(&FV1, 16, 1));
    for kind in [ConfigKind::FlexLru, ConfigKind::FlexBrrip] {
        let got = run(&dag, kind, &accel, backend_for(&dag, kind, &accel).as_mut());
        let want = match kind {
            ConfigKind::FlexLru => reference_stats::<reference::LruPolicy>(&dag, kind, &accel),
            _ => reference_stats::<reference::BrripPolicy>(&dag, kind, &accel),
        };
        assert_eq!(got, want, "{} at 3 MB", kind.label());
        assert!(got.misses > 0 && got.hits + got.misses == got.tag_accesses);
    }
}
