//! Property tests for CHORD: under arbitrary operation sequences, word
//! conservation holds, the RIFF table invariants hold, and PRELUDE-only never
//! writes back (it never evicts).

use cello::core::chord::{Chord, ChordConfig, ChordPolicyKind, RiffPriority};
use cello::tensor::gen::{for_cases, SplitMix64};

#[derive(Clone, Debug)]
enum Op {
    Produce { words: u64, freq: u32, dist: u32 },
    Fetch { words: u64, freq: u32, dist: u32 },
    Consume { target: usize, last: bool },
    Retire { target: usize },
    Update { target: usize, freq: u32, dist: u32 },
}

/// One operation, each of the five kinds equally likely.
fn random_op(rng: &mut SplitMix64) -> Op {
    let priority = |rng: &mut SplitMix64| (rng.below(6) as u32, 1 + rng.below(11) as u32);
    match rng.below(5) {
        0 => {
            let words = 1 + rng.below(4_999);
            let (freq, dist) = priority(rng);
            Op::Produce { words, freq, dist }
        }
        1 => {
            let words = 1 + rng.below(4_999);
            let (freq, dist) = priority(rng);
            Op::Fetch { words, freq, dist }
        }
        2 => Op::Consume {
            target: rng.below(32) as usize,
            last: rng.next_u64() & 1 == 1,
        },
        3 => Op::Retire {
            target: rng.below(32) as usize,
        },
        _ => {
            let target = rng.below(32) as usize;
            let (freq, dist) = priority(rng);
            Op::Update { target, freq, dist }
        }
    }
}

/// 1..`max_len` random operations.
fn random_ops(rng: &mut SplitMix64, max_len: u64) -> Vec<Op> {
    (0..1 + rng.below(max_len - 1))
        .map(|_| random_op(rng))
        .collect()
}

fn run_ops(policy: ChordPolicyKind, capacity: u64, ops: &[Op]) -> Chord {
    let mut chord = Chord::new(ChordConfig {
        capacity_words: capacity,
        word_bytes: 4,
        policy,
        max_entries: 64,
    });
    let mut created: Vec<String> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Produce { words, freq, dist } => {
                let name = format!("P{i}");
                chord.produce(&name, *words, RiffPriority::new(*freq, *dist));
                created.push(name);
            }
            Op::Fetch { words, freq, dist } => {
                let name = format!("F{i}");
                chord.fetch(&name, *words, RiffPriority::new(*freq, *dist));
                created.push(name);
            }
            Op::Consume { target, last } => {
                if created.is_empty() {
                    continue;
                }
                let name = created[target % created.len()].clone();
                if chord.table().get(&name).is_some() {
                    let next = if *last {
                        None
                    } else {
                        Some(RiffPriority::new(1, 3))
                    };
                    chord.consume(&name, next);
                } else {
                    chord.consume_absent(100);
                }
            }
            Op::Retire { target } => {
                if created.is_empty() {
                    continue;
                }
                let name = created[target % created.len()].clone();
                chord.retire(&name);
            }
            Op::Update { target, freq, dist } => {
                if created.is_empty() {
                    continue;
                }
                let name = created[target % created.len()].clone();
                chord.update_priority(&name, RiffPriority::new(*freq, *dist));
            }
        }
        // Invariants must hold after *every* step, not just at the end.
        chord.check_conservation().unwrap();
    }
    chord
}

/// Conservation + table invariants under arbitrary op sequences (full RIFF).
#[test]
fn riff_conserves_words() {
    for_cases("riff_conserves_words", 64, |rng| {
        let ops = random_ops(rng, 60);
        let capacity = 100 + rng.below(19_900);
        let chord = run_ops(ChordPolicyKind::PreludeRiff, capacity, &ops);
        assert!(chord.used_words() <= capacity);
    });
}

/// PRELUDE-only never evicts, hence never writes back on admission.
#[test]
fn prelude_only_never_writes_back_on_admission() {
    for_cases("prelude_only_never_writes_back_on_admission", 64, |rng| {
        let ops = random_ops(rng, 60);
        let capacity = 100 + rng.below(19_900);
        let chord = run_ops(ChordPolicyKind::PreludeOnly, capacity, &ops);
        // All DRAM writes under PRELUDE-only come from produce-time spills,
        // never from evictions: the eviction counters stay zero.
        for e in chord.table().entries() {
            assert_eq!(chord.audit(&e.name).evicted_dirty, 0);
            assert_eq!(chord.audit(&e.name).evicted_clean, 0);
        }
        assert_eq!(chord.stats().writebacks, 0);
    });
}

/// Occupancy never exceeds capacity and the resident prefix never exceeds
/// the tensor size, for every entry, at the end of any sequence.
#[test]
fn residency_bounds() {
    for_cases("residency_bounds", 64, |rng| {
        let ops = random_ops(rng, 80);
        let capacity = 50 + rng.below(4_950);
        let chord = run_ops(ChordPolicyKind::PreludeRiff, capacity, &ops);
        let mut sum = 0;
        for e in chord.table().entries() {
            assert!(e.resident_words <= e.total_words);
            sum += e.resident_words;
        }
        assert_eq!(sum, chord.used_words());
        assert!(chord.table().len() <= 64);
    });
}

/// A produce that fits entirely (no contention) never spills, and a
/// subsequent consume hits every word.
#[test]
fn fitting_produce_never_spills() {
    for_cases("fitting_produce_never_spills", 64, |rng| {
        let words = 1 + rng.below(999);
        let mut chord = Chord::new(ChordConfig {
            capacity_words: 1_000,
            word_bytes: 4,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: 64,
        });
        let spill = chord.produce("T", words, RiffPriority::new(1, 1));
        assert_eq!(spill, 0);
        let r = chord.consume("T", None);
        assert_eq!(r.hit_words, words);
        assert_eq!(r.miss_words, 0);
        assert_eq!(chord.stats().dram_bytes(), 0);
    });
}

/// RIFF never evicts a tensor with higher priority than the requester:
/// after any sequence, if a weak newcomer spilled, every resident tensor
/// outranks it.
#[test]
fn weak_tensors_cannot_displace_strong() {
    for_cases("weak_tensors_cannot_displace_strong", 64, |rng| {
        let strong_n = 1 + rng.below(7) as usize;
        let words = 200 + rng.below(600);
        let mut chord = Chord::new(ChordConfig {
            capacity_words: 1_000,
            word_bytes: 4,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: 64,
        });
        for i in 0..strong_n {
            chord.produce(
                &format!("S{i}"),
                words / strong_n as u64,
                RiffPriority::new(5, 1),
            );
        }
        let before: u64 = chord
            .table()
            .entries()
            .iter()
            .filter(|e| e.name.starts_with('S'))
            .map(|e| e.resident_words)
            .sum();
        chord.produce("weak", 2_000, RiffPriority::new(1, 11));
        let after: u64 = chord
            .table()
            .entries()
            .iter()
            .filter(|e| e.name.starts_with('S'))
            .map(|e| e.resident_words)
            .sum();
        assert_eq!(before, after, "strong residents must be untouched");
        chord.check_conservation().unwrap();
    });
}
