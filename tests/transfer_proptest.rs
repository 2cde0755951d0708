//! Property tests for overlap-aware DRAM transfer scheduling.
//!
//! Two contracts from the transfer-tuning design:
//!
//! 1. **Roofline sandwich** — prefetch/double-buffering can hide transfer
//!    cycles behind compute but never manufactures bandwidth: an
//!    overlapped schedule's total stays between the aggregate compute
//!    floor and the serialized (transfer-off) total of the same schedule.
//! 2. **Depth-0 identity** — `prefetch_depth == 0` is not "a little
//!    overlap", it is bit-for-bit the pre-overlap serialized model, for
//!    every spelling of "off" (`None`, `TransferTuning::off()`, a
//!    denormalized depth-0 with the double-buffer flag set).

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule_with, ScheduleConstraints, ScheduleOptions};
use cello::core::TransferTuning;
use cello::graph::dag::TensorDag;
use cello::search::{SearchSpace, SpaceConfig};
use cello::sim::evaluate::evaluate_schedule;
use cello::tensor::gen::for_cases;
use cello::workloads::cg::{build_cg_dag, CgParams};

fn cg(m: u64, iterations: u32) -> TensorDag {
    build_cg_dag(&CgParams {
        m,
        occupancy: 4.0,
        a_payload_words: 2 * 4 * m + m + 1,
        n: 16,
        nprime: 16,
        iterations,
        a_occupancy: None,
    })
}

/// On explicit-backend (no-CHORD) schedules the staging carve cannot
/// change traffic, so the only thing a transfer tuning may do is hide
/// cycles: `compute floor <= overlapped <= serialized`, at identical
/// DRAM bytes, for every depth and both buffering modes.
#[test]
fn overlap_stays_in_the_roofline_sandwich() {
    for_cases("overlap_stays_in_the_roofline_sandwich", 32, |rng| {
        let m = 20_000 + rng.below(100_000);
        let iterations = 1 + rng.below(4) as u32;
        let depth = 1 + rng.below(5) as u8;
        let db = rng.next_u64() & 1 == 1;
        let dag = cg(m, iterations);
        let accel = CelloConfig::paper();
        let opts = ScheduleOptions::best_intra();
        let tuning = if db {
            TransferTuning::double_buffered(depth)
        } else {
            TransferTuning::single_buffered(depth)
        };
        let mut constraints = ScheduleConstraints::none();
        let off = evaluate_schedule(&dag, &build_schedule_with(&dag, opts, &constraints), &accel);
        constraints.transfer = Some(tuning);
        let on = evaluate_schedule(&dag, &build_schedule_with(&dag, opts, &constraints), &accel);
        assert_eq!(
            on.dram_bytes, off.dram_bytes,
            "no CHORD => the carve must not move traffic"
        );
        assert!(
            on.cycles <= off.cycles,
            "overlap lost to serial: {} > {} (depth {depth} db {db})",
            on.cycles,
            off.cycles
        );
        let compute_floor = dag
            .nodes()
            .map(|(_, n)| n.spec.macs())
            .sum::<u64>()
            .div_ceil(accel.pe_count);
        assert!(
            on.cycles >= compute_floor,
            "overlap beat the compute roofline: {} < {compute_floor}",
            on.cycles
        );
    });
}

/// Every spelling of "transfers off" replays the serialized model
/// bit-identically across random widened-space candidates: `None`,
/// the canonical `off()`, and the denormalized depth-0 carrying a
/// stale double-buffer flag all produce the same cost vector.
#[test]
fn depth_zero_replays_the_serialized_model() {
    for_cases("depth_zero_replays_the_serialized_model", 32, |rng| {
        let m = 20_000 + rng.below(100_000);
        let iterations = 1 + rng.below(3) as u32;
        let seed = rng.below(1_000);
        let dag = cg(m, iterations);
        let accel = CelloConfig::paper();
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened());
        for picks in space.sample_assignments(6, seed) {
            let mut c = space.assemble(&picks);
            c.constraints.transfer = None;
            let baseline = evaluate_schedule(&dag, &c.build(&dag), &accel);
            for off in [
                TransferTuning::off(),
                TransferTuning {
                    prefetch_depth: 0,
                    double_buffer: true,
                },
            ] {
                c.constraints.transfer = Some(off);
                let replay = evaluate_schedule(&dag, &c.build(&dag), &accel);
                assert_eq!(replay, baseline, "off spelling {:?} diverged", off);
            }
        }
    });
}
