//! Property tests for occupancy-derived footprints and Tailors-style
//! CHORD overbooking.
//!
//! Three contracts from the sparsity-aware design:
//!
//! 1. **Grant sandwich** — an overbooked grant never exceeds the
//!    worst-case-dense footprint and the modeled spill never exceeds the
//!    tensor itself, for every occupancy distribution and every level;
//!    level 0 is the identity.
//! 2. **Dense identity** — a workload whose measured occupancy is fully
//!    dense replays the pre-occupancy worst-case model bit-identically at
//!    every overbooking level; likewise overbooking-off replays it for any
//!    occupancy.
//! 3. **Spill monotonicity** — with the mean fixed, raising the
//!    occupancy variance can only raise the modeled DRAM traffic of an
//!    overbooked schedule (the refetch tail grows with the skew).

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule_with, ScheduleConstraints, ScheduleOptions};
use cello::core::{ChordOverbook, MAX_OVERBOOK_LEVEL};
use cello::graph::dag::TensorDag;
use cello::sim::evaluate::evaluate_schedule;
use cello::tensor::gen::for_cases;
use cello::tensor::sparse::OccupancyStats;
use cello::workloads::cg::{build_cg_dag, CgParams};

/// An occupancy distribution with the given relative mean and relative
/// standard deviation (`max` stays 1, so the fractions coincide).
fn occ(rel_mean: f64, rel_std: f64) -> OccupancyStats {
    OccupancyStats {
        mean: rel_mean,
        variance: rel_std * rel_std,
        ..OccupancyStats::dense()
    }
}

fn cg(m: u64, iterations: u32, a_occupancy: Option<OccupancyStats>) -> TensorDag {
    build_cg_dag(&CgParams {
        m,
        occupancy: 4.0,
        a_payload_words: 2 * 4 * m + m + 1,
        n: 16,
        nprime: 16,
        iterations,
        a_occupancy,
    })
}

/// For any occupancy distribution, level and tensor size: the granted
/// footprint never exceeds worst-case dense, the spill never exceeds
/// the tensor, and level 0 grants everything and spills nothing.
#[test]
fn grants_never_exceed_the_dense_footprint() {
    for_cases("grants_never_exceed_the_dense_footprint", 32, |rng| {
        let words = 1 + rng.below(9_999_999);
        let rel_mean = rng.unit_f64();
        let rel_std = rng.unit_f64();
        let level = rng.below(u64::from(MAX_OVERBOOK_LEVEL) + 1) as u8;
        let stats = occ(rel_mean, rel_std);
        let ob = ChordOverbook::at(level);
        let granted = ob.granted_words(words, &stats);
        let spill = ob.spill_words(words, &stats);
        assert!(granted <= words, "granted {granted} > dense {words}");
        assert!(spill <= words, "spill {spill} > tensor {words}");
        if level == 0 {
            assert_eq!(granted, words, "off must grant the dense footprint");
            assert_eq!(spill, 0u64, "off must never spill");
        }
        // Dense stats are the identity at every level.
        let dense = OccupancyStats::dense();
        assert_eq!(ob.granted_words(words, &dense), words);
        assert_eq!(ob.spill_words(words, &dense), 0u64);
    });
}

/// Dense measured occupancy replays the worst-case model bit-for-bit
/// at every overbooking level, and any occupancy replays it with
/// overbooking off.
/// This is the "no silent drift" guarantee: carrying stats on a
/// matrix that turns out dense, or declining the overbook knob,
/// costs nothing.
#[test]
fn dense_occupancy_replays_the_worst_case_model() {
    for_cases("dense_occupancy_replays_the_worst_case_model", 32, |rng| {
        let m = 20_000 + rng.below(100_000);
        let iterations = 1 + rng.below(3) as u32;
        let level = 1 + rng.below(u64::from(MAX_OVERBOOK_LEVEL)) as u8;
        let rel_mean = 0.1 + rng.unit_f64() * 0.8;
        let rel_std = rng.unit_f64() * 0.5;
        let accel = CelloConfig::paper();
        let opts = ScheduleOptions::cello();
        let baseline_dag = cg(m, iterations, None);
        let plain = ScheduleConstraints::none();
        let baseline = build_schedule_with(&baseline_dag, opts, &plain);
        let base_sim = evaluate_schedule(&baseline_dag, &baseline, &accel);

        // Dense stats + any level: identical.
        let dense_dag = cg(m, iterations, Some(OccupancyStats::dense()));
        let mut overbooked = ScheduleConstraints::none();
        overbooked.chord_overbook = Some(ChordOverbook::at(level));
        let s = build_schedule_with(&dense_dag, opts, &overbooked);
        assert_eq!(
            evaluate_schedule(&dense_dag, &s, &accel),
            base_sim,
            "dense occupancy diverged in the engine at level {}",
            level
        );

        // Skewed stats + overbooking off: identical.
        let skewed_dag = cg(m, iterations, Some(occ(rel_mean, rel_std)));
        for off in [None, Some(ChordOverbook::off())] {
            let mut c = ScheduleConstraints::none();
            c.chord_overbook = off;
            let s = build_schedule_with(&skewed_dag, opts, &c);
            assert_eq!(
                evaluate_schedule(&skewed_dag, &s, &accel),
                base_sim,
                "overbook-off spelling {:?} diverged in the engine",
                off
            );
        }
    });
}

/// With the mean fixed, more occupancy variance can only mean more
/// modeled DRAM traffic under an overbooked schedule: the grant is a
/// function of the mean alone, while the refetch tail grows with the
/// standard deviation.
#[test]
fn spill_grows_with_occupancy_variance() {
    for_cases("spill_grows_with_occupancy_variance", 32, |rng| {
        let m = 20_000 + rng.below(100_000);
        let iterations = 1 + rng.below(3) as u32;
        let level = 1 + rng.below(u64::from(MAX_OVERBOOK_LEVEL)) as u8;
        let rel_mean = 0.1 + rng.unit_f64() * 0.8;
        let std_lo = rng.unit_f64() * 0.5;
        let std_delta = rng.unit_f64() * 0.5;
        let accel = CelloConfig::paper();
        let opts = ScheduleOptions::cello();
        let mut constraints = ScheduleConstraints::none();
        constraints.chord_overbook = Some(ChordOverbook::at(level));
        let run = |rel_std: f64| {
            let dag = cg(m, iterations, Some(occ(rel_mean, rel_std)));
            evaluate_schedule(&dag, &build_schedule_with(&dag, opts, &constraints), &accel)
        };
        let lo = run(std_lo);
        let hi = run(std_lo + std_delta);
        assert!(
            hi.dram_bytes >= lo.dram_bytes,
            "variance raised but traffic fell: {} < {} (mean {rel_mean}, \
         std {std_lo} -> {}, level {level})",
            hi.dram_bytes,
            lo.dram_bytes,
            std_lo + std_delta
        );
    });
}
