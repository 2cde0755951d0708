//! Acceptance: `cello_explain` on the cg@1n overlap pair.
//!
//! PR 8's transfer-scheduling dimension moved the tuned cg/G2_circuit@1n
//! schedule from 490 538 cycles (overlap off) to 288 696 (double-buffered
//! prefetch) at identical DRAM traffic — latency hiding, not traffic
//! reduction. The explain decomposition must recover that story from the
//! two reports alone: the delta lands predominantly on the
//! exposed-transfer axis, and the per-(phase, axis) rows sum to the total
//! delta exactly.

use cello_bench::explain::{self, AxisDelta};
use cello_core::accel::CelloConfig;
use cello_core::TransferTuning;
use cello_search::{SpaceConfig, Strategy, Tuner};
use cello_sim::evaluate::evaluate_report;
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::G2_CIRCUIT;

#[test]
fn overlap_cycle_delta_lands_on_the_exposed_transfer_axis() {
    // The exact CI funnel: same space, same strategy as `cello_dse`.
    let dag = build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5));
    let accel = CelloConfig::paper();
    let tuner = Tuner::new(&dag, &accel, SpaceConfig::widened_with_nodes(&[1]));
    let out = tuner.tune(&Strategy::prefiltered(
        0.1,
        Strategy::Tier0 {
            budget: 49_152,
            keep: 96,
        },
    ));

    // Overlap on: the tuned candidate as found. Overlap off: the same
    // candidate with its transfer tuning stripped — the pre-PR8 model.
    let tuned = &out.best_cycles.candidate;
    let on = evaluate_report(&dag, &tuned.build(&dag), &accel);
    let mut stripped = tuned.clone();
    stripped.constraints.transfer = Some(TransferTuning::off());
    let off = evaluate_report(&dag, &stripped.build(&dag), &accel);

    // The known pair from the committed trajectory history.
    assert_eq!(on.cycles, 288_696, "tuned overlap-on cycles drifted");
    assert_eq!(off.cycles, 490_538, "overlap-off cycles drifted");

    let e = explain::diff_reports(&off, &on);
    assert_eq!(e.cycle_delta(), 288_696 - 490_538);

    // Exactness: the ranked rows are a decomposition, not an estimate.
    let row_sum: i64 = e.cycle_rows.iter().map(AxisDelta::delta).sum();
    assert_eq!(row_sum, e.cycle_delta());

    // Attribution: predominantly exposed transfer. Stripping the tuning
    // also returns the staging carve to CHORD, so the other axes may move
    // a little — but more than half the delta must be exposed transfer,
    // and it must be the dominant axis.
    let (axis, delta) = e.dominant_cycle_axis();
    assert_eq!(
        axis,
        "exposed-transfer",
        "totals: {:?}",
        e.cycle_axis_totals()
    );
    assert!(
        delta.unsigned_abs() * 2 > e.cycle_delta().unsigned_abs(),
        "exposed-transfer moved {delta} of {} total",
        e.cycle_delta()
    );

    // The rendered table names the axis in its top row.
    let table = e.render(5);
    assert!(table.contains("exposed-transfer"), "{table}");
}
