//! Memoized evaluation cache, shared across both concrete tiers.
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
//! The tables take no locks: a tune builds, looks up, evaluates and inserts
//! on the thread that called it.

use crate::fingerprint::ScheduleKey;
use cello_sim::evaluate::CostEstimate;
use std::collections::HashMap;

/// Memo tables plus hit/evaluation counters for both tiers.
#[derive(Default)]
pub struct EvalCache {
    map: HashMap<ScheduleKey, CostEstimate>,
    surrogate_map: HashMap<ScheduleKey, CostEstimate>,
    hits: u64,
    evaluations: u64,
    surrogate_evaluations: u64,
}

impl EvalCache {
    /// Cached exact cost for `key`, counting a hit when present.
    pub fn lookup(&mut self, key: ScheduleKey) -> Option<CostEstimate> {
        let found = self.map.get(&key).copied();
        self.hits += u64::from(found.is_some());
        found
    }

    /// Records a fresh exact evaluation.
    pub fn insert(&mut self, key: ScheduleKey, cost: CostEstimate) {
        self.evaluations += 1;
        self.map.insert(key, cost);
    }

    /// Cached tier-1 cost for `key`.
    pub fn lookup_surrogate(&self, key: ScheduleKey) -> Option<CostEstimate> {
        self.surrogate_map.get(&key).copied()
    }

    /// Records a fresh tier-1 scoring.
    pub fn insert_surrogate(&mut self, key: ScheduleKey, cost: CostEstimate) {
        self.surrogate_evaluations += 1;
        self.surrogate_map.insert(key, cost);
    }

    /// Number of distinct schedules exactly evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of lookups served from the exact cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of distinct schedules scored in tier 1 so far.
    pub fn surrogate_evaluations(&self) -> u64 {
        self.surrogate_evaluations
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
        let mut cache = EvalCache::default();
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
        let mut cache = EvalCache::default();
        cache.insert_surrogate(k(1), cost(3));
        assert!(cache.lookup(k(1)).is_none(), "tier-1 fill is tier-local");
        cache.insert(k(1), cost(7));
        assert_eq!(cache.lookup_surrogate(k(1)).unwrap().cycles, 3);
        assert_eq!(cache.lookup(k(1)).unwrap().cycles, 7);
        assert_eq!(cache.evaluations(), 1);
        assert_eq!(cache.surrogate_evaluations(), 1);
        assert_eq!(cache.hits(), 1);
    }
}
