//! Thread-safe memoized evaluation cache, shared across both concrete
//! tiers.
//!
//! Keys are **interned canonicalized schedules**
//! ([`crate::Candidate::interned_key`] — the 128-bit FNV hash of
//! [`crate::Candidate::schedule_key`]), so decision combinations that
//! collapse to the same schedule — no-op cuts, steering requests the
//! builder dropped as invalid, partition changes under a CHORD-less preset
//! — cost one evaluation total. The cache is shared across strategies
//! within one [`crate::Tuner`], so a beam run after an exhaustive run on
//! the same space is nearly free.
//!
//! Two memo tables live side by side under the same keys: the exact tier
//! (`lookup`/`insert`) and tier 1 (`lookup_surrogate`/`insert_surrogate`).
//! Both hold `cello_sim::evaluate` costs; they are kept apart so each tier
//! counts its own scorings and hits. `Strategy::Prefiltered` fills the
//! tier-1 table while traversing and the exact table only for survivors; a
//! later exact-tier run over the same space then starts from whatever the
//! prefilter already paid for.
//!
//! Each tier's table is **lock-striped** into `SHARDS` shards selected by
//! the key's low bits: `batch_with`'s workers used to serialize on a
//! single global `Mutex<HashMap>` for every lookup/insert, which capped the
//! parallel speedup exactly where the tier-0 funnel pushes the most
//! traffic. The keys are FNV hashes, so their low bits are already
//! uniformly distributed — no re-hashing needed to balance the stripes.

use crate::fingerprint::ScheduleKey;
use cello_sim::evaluate::CostEstimate;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock stripes per tier. A small power of two: enough that a dozen
/// workers rarely collide, cheap enough that an empty cache is still tiny.
const SHARDS: usize = 16;

/// Locks a memo shard, recovering from poisoning instead of panicking.
///
/// The cache is shared across worker threads of a long-running service
/// (`cello-serve`): if one request's evaluation panics while holding the
/// lock, `.expect("poisoned")` here would turn every *subsequent* request
/// into a panic too — one bad request killing the daemon. The map's
/// invariant is a plain key→value table (no multi-step updates), so the
/// state under a poisoned lock is still consistent and safe to keep using.
fn lock_table<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tier's lock-striped memo table.
struct Striped {
    shards: [Mutex<HashMap<ScheduleKey, CostEstimate>>; SHARDS],
}

impl Default for Striped {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl Striped {
    fn shard(&self, key: ScheduleKey) -> &Mutex<HashMap<ScheduleKey, CostEstimate>> {
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    fn get(&self, key: ScheduleKey) -> Option<CostEstimate> {
        lock_table(self.shard(key)).get(&key).copied()
    }

    fn put(&self, key: ScheduleKey, cost: CostEstimate) {
        lock_table(self.shard(key)).insert(key, cost);
    }
}

/// Memo tables plus hit/evaluation counters for both tiers.
#[derive(Default)]
pub struct EvalCache {
    map: Striped,
    surrogate_map: Striped,
    hits: AtomicU64,
    evaluations: AtomicU64,
    surrogate_hits: AtomicU64,
    surrogate_evaluations: AtomicU64,
}

impl EvalCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached exact cost for `key`, counting a hit when present.
    pub fn lookup(&self, key: ScheduleKey) -> Option<CostEstimate> {
        let found = self.map.get(key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a fresh exact evaluation.
    pub fn insert(&self, key: ScheduleKey, cost: CostEstimate) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.map.put(key, cost);
    }

    /// Cached tier-1 cost for `key`, counting a tier-1 hit.
    pub fn lookup_surrogate(&self, key: ScheduleKey) -> Option<CostEstimate> {
        let found = self.surrogate_map.get(key);
        if found.is_some() {
            self.surrogate_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a fresh tier-1 scoring.
    pub fn insert_surrogate(&self, key: ScheduleKey, cost: CostEstimate) {
        self.surrogate_evaluations.fetch_add(1, Ordering::Relaxed);
        self.surrogate_map.put(key, cost);
    }

    /// Number of distinct schedules exactly evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Number of lookups served from the exact cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct schedules scored in tier 1 so far.
    pub fn surrogate_evaluations(&self) -> u64 {
        self.surrogate_evaluations.load(Ordering::Relaxed)
    }

    /// Number of lookups served from the tier-1 table.
    pub fn surrogate_hits(&self) -> u64 {
        self.surrogate_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(c: u64) -> CostEstimate {
        CostEstimate {
            cycles: c,
            dram_bytes: 0,
            noc_hop_bytes: 0,
            energy_pj: 0.0,
        }
    }

    fn k(v: u128) -> ScheduleKey {
        ScheduleKey(v)
    }

    #[test]
    fn lookup_insert_counters() {
        let cache = EvalCache::new();
        assert!(cache.lookup(k(1)).is_none());
        assert_eq!(cache.hits(), 0);
        cache.insert(k(1), cost(7));
        assert_eq!(cache.lookup(k(1)).unwrap().cycles, 7);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.evaluations(), 1);
    }

    /// The two tiers memo independently under the same key space.
    #[test]
    fn tiers_do_not_alias() {
        let cache = EvalCache::new();
        cache.insert_surrogate(k(1), cost(3));
        assert!(cache.lookup(k(1)).is_none(), "tier-1 fill is tier-local");
        cache.insert(k(1), cost(7));
        assert_eq!(cache.lookup_surrogate(k(1)).unwrap().cycles, 3);
        assert_eq!(cache.lookup(k(1)).unwrap().cycles, 7);
        assert_eq!(cache.evaluations(), 1);
        assert_eq!(cache.surrogate_evaluations(), 1);
        assert_eq!(cache.surrogate_hits(), 1);
    }

    /// A thread that panics while holding a shard lock must not take the
    /// cache down with it: later lookups and inserts keep working (the
    /// daemon-survives-one-bad-request guarantee).
    #[test]
    fn survives_lock_poisoning() {
        let cache = EvalCache::new();
        cache.insert(k(5), cost(1));
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock_table(cache.map.shard(k(5)));
                panic!("poison the lock on purpose");
            })
            .join()
        });
        assert_eq!(cache.lookup(k(5)).unwrap().cycles, 1);
        cache.insert(k(5 + SHARDS as u128), cost(2));
        assert_eq!(cache.lookup(k(5 + SHARDS as u128)).unwrap().cycles, 2);
    }

    /// Keys land on every stripe and stay retrievable — the striping is an
    /// invisible implementation detail to callers.
    #[test]
    fn striping_is_transparent() {
        let cache = EvalCache::new();
        for i in 0..(4 * SHARDS as u128) {
            cache.insert(k(i), cost(i as u64));
        }
        assert_eq!(cache.evaluations(), 4 * SHARDS as u64);
        for i in 0..(4 * SHARDS as u128) {
            assert_eq!(cache.lookup(k(i)).unwrap().cycles, i as u64);
        }
        // All shards are populated (consecutive keys round-robin the low
        // bits).
        for shard in &cache.map.shards {
            assert_eq!(lock_table(shard).len(), 4);
        }
    }

    #[test]
    fn shared_across_threads() {
        let cache = EvalCache::new();
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let cache = &cache;
                s.spawn(move || cache.insert(k(i as u128), cost(i)));
            }
        });
        assert_eq!(cache.evaluations(), 8);
        for i in 0..8u64 {
            assert_eq!(cache.lookup(k(i as u128)).unwrap().cycles, i);
        }
    }
}
