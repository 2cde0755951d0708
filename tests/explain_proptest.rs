//! Property tests for `cello_bench::explain`'s cost decomposition.
//!
//! The explain module's claim is exactness: per phase, `total = compute +
//! exposed-transfer excess + NoC/serialization excess` is an identity over
//! the overlap ledger's charges (not a model), and per-(phase, axis)
//! *deltas* between any two reports telescope to the total cycle delta —
//! even when the two schedules phase differently and the shorter side is
//! zero-padded. These tests drive real simulator reports (random CG
//! shapes × schedule family × transfer tuning) through the decomposition
//! and assert the identities hold to the cycle and to the byte.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule_with, ScheduleConstraints, ScheduleOptions};
use cello::core::TransferTuning;
use cello::graph::dag::TensorDag;
use cello::sim::evaluate::evaluate_report;
use cello::sim::report::RunReport;
use cello::tensor::gen::for_cases;
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello_bench::explain::{self, AxisDelta};

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

/// One point in the (schedule family × transfer tuning) menu — enough
/// variety that the two diffed reports disagree on phase count, CHORD
/// usage, and overlap behavior.
fn build_report(dag: &TensorDag, accel: &CelloConfig, family: u8, depth: u8) -> RunReport {
    let opts = match family % 3 {
        0 => ScheduleOptions::cello(),
        1 => ScheduleOptions::best_intra(),
        _ => ScheduleOptions::flat(),
    };
    let mut constraints = ScheduleConstraints::none();
    constraints.transfer = match depth {
        0 => None,
        d if d % 2 == 0 => Some(TransferTuning::single_buffered(d)),
        d => Some(TransferTuning::double_buffered(d)),
    };
    evaluate_report(dag, &build_schedule_with(dag, opts, &constraints), accel)
}

/// Within one report the cycle axes are an exact decomposition: every
/// axis is non-negative (the ledger never charges a phase less than
/// `max(compute, exposed_mem)`), and the rows sum to `report.cycles`
/// exactly. Likewise the DRAM axes sum to each phase's ledgered bytes.
#[test]
fn axes_decompose_each_report_exactly() {
    for_cases("axes_decompose_each_report_exactly", 24, |rng| {
        let m = 20_000 + rng.below(60_000);
        let iterations = 1 + rng.below(3) as u32;
        let family = rng.below(3) as u8;
        let depth = rng.below(5) as u8;
        let dag = cg(m, iterations);
        let r = build_report(&dag, &CelloConfig::paper(), family, depth);

        let cycle_rows = explain::cycle_axes(&r);
        assert_eq!(cycle_rows.len(), r.phase_cycles.len());
        for (p, row) in cycle_rows.iter().enumerate() {
            for (a, &v) in row.iter().enumerate() {
                assert!(v >= 0, "phase {p} axis {a} went negative: {v}");
            }
        }
        let total: i64 = cycle_rows.iter().flatten().sum();
        assert_eq!(total, r.cycles as i64, "cycle axes must sum to the total");

        let dram_rows = explain::dram_axes(&r);
        assert_eq!(dram_rows.len(), r.phase_dram_bytes.len());
        for (p, row) in dram_rows.iter().enumerate() {
            let sum: i64 = row.iter().sum();
            assert_eq!(
                sum, r.phase_dram_bytes[p] as i64,
                "phase {} DRAM axes must sum to the ledgered bytes",
                p
            );
        }
    });
}

/// Between any two reports — different schedule families, phase
/// counts, and tunings — the per-(phase, axis) deltas telescope to the
/// total cycle delta exactly, in both diff directions, with the
/// shorter phase list zero-padded rather than truncated.
#[test]
fn axis_deltas_telescope_to_the_total_delta() {
    for_cases("axis_deltas_telescope_to_the_total_delta", 24, |rng| {
        let m = 20_000 + rng.below(60_000);
        let iterations = 1 + rng.below(3) as u32;
        let family_a = rng.below(3) as u8;
        let family_b = rng.below(3) as u8;
        let depth_a = rng.below(5) as u8;
        let depth_b = rng.below(5) as u8;
        let dag = cg(m, iterations);
        let accel = CelloConfig::paper();
        let a = build_report(&dag, &accel, family_a, depth_a);
        let b = build_report(&dag, &accel, family_b, depth_b);

        let e = explain::diff_reports(&a, &b);
        assert_eq!(e.cycle_delta(), b.cycles as i64 - a.cycles as i64);
        let row_sum: i64 = e.cycle_rows.iter().map(AxisDelta::delta).sum();
        assert_eq!(
            row_sum,
            e.cycle_delta(),
            "cycle rows must telescope ({} phases vs {})",
            a.phase_cycles.len(),
            b.phase_cycles.len()
        );
        let axis_sum: i64 = e.cycle_axis_totals().iter().map(|&(_, d)| d).sum();
        assert_eq!(axis_sum, e.cycle_delta(), "axis totals must telescope too");

        let dram_sum: i64 = e.dram_rows.iter().map(AxisDelta::delta).sum();
        assert_eq!(
            dram_sum,
            b.phase_dram_bytes.iter().sum::<u64>() as i64
                - a.phase_dram_bytes.iter().sum::<u64>() as i64,
            "DRAM rows must telescope"
        );

        // The reverse diff is the exact negation, row by row.
        let rev = explain::diff_reports(&b, &a);
        assert_eq!(rev.cycle_delta(), -e.cycle_delta());
        for (fwd, bwd) in e.cycle_rows.iter().zip(&rev.cycle_rows) {
            assert_eq!(
                fwd.delta(),
                -bwd.delta(),
                "phase {} {}",
                fwd.phase,
                fwd.axis
            );
        }
    });
}
