//! Property tests on the cache substrate: accounting identities, the LRU
//! stack property, compulsory-miss lower bounds, and determinism.

use cello::mem::cache::{BrripPolicy, CacheConfig, LruPolicy, SetAssocCache};
use cello::tensor::gen::{for_cases, SplitMix64};
use std::collections::HashSet;

/// 1..800 `(address, write)` accesses over a 64 KiB address range.
fn random_trace(rng: &mut SplitMix64) -> Vec<(u64, bool)> {
    (0..1 + rng.below(799))
        .map(|_| (rng.below(65_536), rng.next_u64() & 1 == 1))
        .collect()
}

fn run_lru(cfg: CacheConfig, trace: &[(u64, bool)]) -> cello::mem::stats::AccessStats {
    let mut c = SetAssocCache::<LruPolicy>::new(cfg);
    for &(addr, w) in trace {
        c.access(addr, w);
    }
    c.flush_dirty();
    c.stats()
}

/// hits + misses == accesses; DRAM reads == misses × line; misses are at
/// least the number of distinct lines touched (compulsory bound).
#[test]
fn accounting_identities() {
    for_cases("accounting_identities", 64, |rng| {
        let trace = random_trace(rng);
        let cfg = CacheConfig {
            capacity_bytes: 2048,
            line_bytes: 16,
            associativity: 4,
        };
        let stats = run_lru(cfg, &trace);
        assert_eq!(stats.hits + stats.misses, trace.len() as u64);
        assert_eq!(stats.dram_read_bytes, stats.misses * 16);
        let distinct: HashSet<u64> = trace.iter().map(|&(a, _)| a / 16).collect();
        assert!(stats.misses >= distinct.len() as u64);
        // Writebacks can never exceed misses + flushes of distinct lines.
        assert!(stats.writebacks <= stats.misses + distinct.len() as u64);
    });
}

/// LRU stack property: a larger fully-associative LRU cache never misses
/// more on the same trace.
#[test]
fn lru_inclusion() {
    for_cases("lru_inclusion", 64, |rng| {
        let trace = random_trace(rng);
        let mut prev = u64::MAX;
        for lines in [2usize, 4, 8, 32, 128] {
            let cfg = CacheConfig {
                capacity_bytes: (lines * 16) as u64,
                line_bytes: 16,
                associativity: lines,
            };
            let stats = run_lru(cfg, &trace);
            assert!(stats.misses <= prev);
            prev = stats.misses;
        }
    });
}

/// Both policies are deterministic: identical traces → identical stats.
#[test]
fn determinism() {
    for_cases("determinism", 64, |rng| {
        let trace = random_trace(rng);
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 16,
            associativity: 8,
        };
        let a = run_lru(cfg, &trace);
        let b = run_lru(cfg, &trace);
        assert_eq!(a, b);
        let run_brrip = |t: &[(u64, bool)]| {
            let mut c = SetAssocCache::<BrripPolicy>::new(cfg);
            for &(addr, w) in t {
                c.access(addr, w);
            }
            c.stats()
        };
        assert_eq!(run_brrip(&trace), run_brrip(&trace));
    });
}

/// A trace that fits entirely misses exactly once per distinct line.
#[test]
fn fitting_trace_compulsory_only() {
    for_cases("fitting_trace_compulsory_only", 64, |rng| {
        let lines: Vec<u64> = (0..1 + rng.below(199)).map(|_| rng.below(32)).collect();
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 16,
            associativity: 64,
        };
        let trace: Vec<(u64, bool)> = lines.iter().map(|&l| (l * 16, false)).collect();
        let stats = run_lru(cfg, &trace);
        let distinct: HashSet<u64> = lines.iter().copied().collect();
        assert_eq!(stats.misses, distinct.len() as u64);
    });
}

/// Dirty data is written back exactly once: total writebacks equal the
/// number of distinct lines ever written.
#[test]
fn single_writeback_per_dirty_line() {
    for_cases("single_writeback_per_dirty_line", 64, |rng| {
        let writes: Vec<u64> = (0..1 + rng.below(199)).map(|_| rng.below(64)).collect();
        let cfg = CacheConfig {
            capacity_bytes: 256,
            line_bytes: 16,
            associativity: 4,
        };
        let mut c = SetAssocCache::<LruPolicy>::new(cfg);
        for &l in &writes {
            c.access(l * 16, true);
        }
        c.flush_dirty();
        let distinct: HashSet<u64> = writes.iter().copied().collect();
        // Every write-allocated line is eventually written back ≥ once; lines
        // re-fetched after eviction and re-dirtied may write back again, so
        // writebacks ≥ distinct and ≤ misses.
        assert!(c.stats().writebacks >= distinct.len() as u64);
        assert!(c.stats().writebacks <= c.stats().misses);
    });
}
