//! Property tests for the §V-B multi-node partition path: the scalable
//! (dominant-rank-sliced) strategy never moves more NoC traffic than the
//! naive (stage-split) one on CG shapes, and rank slicing makes per-node
//! DRAM traffic monotonically non-increasing in the node count.
//!
//! Both properties go through the *scheduled* path — `build_schedule_with`
//! with a `Partition` constraint, scored by `sim::evaluate` — so they pin
//! the engine's NoC/tiling model, not a standalone formula. The strong-scaling
//! checks at the end run CELLO the way `paper_results` runs its grid:
//! `run_partitioned` (the partitioned schedule on `backend_for`'s CHORD).

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule_with, ScheduleConstraints, ScheduleOptions};
use cello::core::score::multinode::{dominant_partition_rank, NocModel, Partition};
use cello::graph::dag::TensorDag;
use cello::sim::baselines::{run_partitioned, ConfigKind};
use cello::sim::evaluate::{evaluate_report, evaluate_schedule};
use cello::sim::RunReport;
use cello::tensor::gen::for_cases;
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello::workloads::datasets::SHALLOW_WATER1;

fn cg(m: u64, n: u64, iterations: u32) -> TensorDag {
    build_cg_dag(&CgParams {
        m,
        occupancy: 4.0,
        a_payload_words: 2 * 4 * m + m + 1,
        n,
        nprime: n,
        iterations,
        a_occupancy: None,
    })
}

fn partitioned(dag: &TensorDag, accel: &CelloConfig, partition: Partition) -> RunReport {
    let schedule = build_schedule_with(
        dag,
        ScheduleOptions::cello(),
        &ScheduleConstraints::partitioned(partition),
    );
    schedule.validate(dag).expect("partitioned schedule valid");
    evaluate_report(dag, &schedule, accel)
}

/// Scalable-strategy NoC traffic ≤ naive-strategy NoC traffic for all
/// CG shapes (m ≫ n, the regime the paper's §V-B argument covers) and
/// node counts: shipping the N×N' Greek tensors with mesh hops never
/// costs more than shipping the M×N pipelined intermediates.
#[test]
fn scalable_noc_never_exceeds_naive() {
    for_cases("scalable_noc_never_exceeds_naive", 12, |rng| {
        let m = 20_000 + rng.below(180_000);
        let n = 1u64 << (2 + rng.below(4)); // n ∈ {4, 8, 16, 32}
        let nodes = 2 + rng.below(62);
        let dag = cg(m, n, 2);
        let accel = CelloConfig::paper();
        let rank = dominant_partition_rank(&dag).expect("CG slices m");
        let scalable = partitioned(&dag, &accel, Partition::by_rank(nodes, rank));
        let naive = partitioned(&dag, &accel, Partition::by_stage(nodes));
        assert!(naive.noc_hop_bytes > 0, "naive ships the intermediates");
        assert!(
            scalable.noc_hop_bytes <= naive.noc_hop_bytes,
            "scalable {} > naive {} at m={m} n={n} nodes={nodes}",
            scalable.noc_hop_bytes,
            naive.noc_hop_bytes
        );
    });
}

/// Rank slicing shrinks per-node tile footprints, so per-node DRAM
/// traffic is monotonically non-increasing in the node count (capacity
/// misses can only go down as the working set shrinks).
#[test]
fn per_node_dram_monotone_in_node_count() {
    for_cases("per_node_dram_monotone_in_node_count", 12, |rng| {
        let m = 20_000 + rng.below(100_000);
        let n = 1u64 << (3 + rng.below(2)); // n ∈ {8, 16}
        let dag = cg(m, n, 2);
        let accel = CelloConfig::paper();
        let rank = dominant_partition_rank(&dag).expect("CG slices m");
        let mut prev = u64::MAX;
        for nodes in [1u64, 2, 4, 8, 16] {
            let r = partitioned(&dag, &accel, Partition::by_rank(nodes, rank));
            let per_node = r.dram_bytes / r.nodes;
            assert!(
                per_node <= prev,
                "per-node DRAM rose from {prev} to {per_node} at {nodes} nodes (m={m} n={n})"
            );
            prev = per_node;
        }
    });
}

/// The Fig 8 comparison through the scheduled path, as the exact relation
/// the model implements. The naive strategy ships two M×N intermediates
/// (16 words a row) per CG iteration over one hop, so its bytes are linear
/// in m with no constant term. The scalable strategy ships only N×N'
/// Greek tensors (16 × 16 words), 4 of them per iteration for each unit of
/// the mesh's `hops_broadcast + hops_reduce`, so its bytes do not depend
/// on m. With 2 iterations the advantage is `m / (32 · hops)`: orders of
/// magnitude at paper scale, but under 100× for m < 3 200 · hops (89 600
/// at 64 nodes), so no fixed factor holds over this whole domain.
#[test]
fn naive_pays_orders_of_magnitude_more() {
    for_cases("naive_pays_orders_of_magnitude_more", 12, |rng| {
        let m = 80_000 + rng.below(120_000);
        let nodes = 4u64.pow(1 + rng.below(3) as u32); // nodes ∈ {4, 16, 64}
        let dag = cg(m, 16, 2);
        let accel = CelloConfig::paper();
        let word_bytes = accel.word_bytes as u64;
        let rank = dominant_partition_rank(&dag).expect("CG slices m");
        let scalable = partitioned(&dag, &accel, Partition::by_rank(nodes, rank));
        let naive = partitioned(&dag, &accel, Partition::by_stage(nodes));
        let noc = NocModel::new(nodes);
        let hops = noc.hops_broadcast() + noc.hops_reduce();
        assert_eq!(
            naive.noc_hop_bytes,
            2 * 2 * 16 * word_bytes * m,
            "naive at m={m} nodes={nodes}"
        );
        assert_eq!(
            scalable.noc_hop_bytes,
            2 * 4 * 16 * 16 * word_bytes * hops,
            "scalable at m={m} nodes={nodes}"
        );
    });
}

/// Deterministic end-to-end check of the §V-B acceptance shape: a 4-node
/// rank-sliced CELLO schedule on a capacity-bound CG moves strictly less
/// total (DRAM + NoC) traffic than the single-node CELLO schedule.
#[test]
fn four_node_slice_beats_single_node_total_traffic() {
    let dag = cg(81_920, 16, 3);
    let accel = CelloConfig::paper();
    let rank = dominant_partition_rank(&dag).expect("CG slices m");
    let single = {
        let s = build_schedule_with(&dag, ScheduleOptions::cello(), &ScheduleConstraints::none());
        evaluate_schedule(&dag, &s, &accel)
    };
    let four = {
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(Partition::by_rank(4, rank)),
        );
        evaluate_schedule(&dag, &s, &accel)
    };
    assert!(
        four.total_traffic_bytes() < single.total_traffic_bytes(),
        "4-node {} !< 1-node {}",
        four.total_traffic_bytes(),
        single.total_traffic_bytes()
    );
}

/// CELLO on shallow_water1 N=16 (4 iterations) on `nodes` nodes, under the
/// scalable (dominant-rank) or the naive (stage-split) placement.
fn strong_scaling(nodes: u64, scalable: bool) -> RunReport {
    let dag = build_cg_dag(&CgParams::from_dataset(&SHALLOW_WATER1, 16, 4));
    let partition = if scalable {
        Partition::by_rank(nodes, dominant_partition_rank(&dag).expect("CG slices m"))
    } else {
        Partition::by_stage(nodes)
    };
    let accel = CelloConfig::paper();
    run_partitioned(&dag, ConfigKind::Cello, &accel, partition, "scaling")
}

/// One node exchanges nothing over the NoC under either placement.
#[test]
fn one_node_has_no_noc_traffic() {
    for scalable in [true, false] {
        let r = strong_scaling(1, scalable);
        assert_eq!((r.noc_hop_bytes, r.nodes), (0, 1));
    }
}

/// The scalable placement strong-scales: CELLO's time falls strictly from 1
/// to 4 to 16 nodes, 16 nodes run more than 4x faster than one, and the
/// naive placement is slower at 16 nodes.
#[test]
fn scalable_placement_scales() {
    let seconds = [1u64, 4, 16].map(|nodes| strong_scaling(nodes, true).seconds);
    assert!(
        seconds[0] > seconds[1] && seconds[1] > seconds[2],
        "{seconds:?}"
    );
    assert!(seconds[0] / seconds[2] > 4.0, "{seconds:?}");
    assert!(strong_scaling(16, false).seconds > seconds[2]);
}

/// At N=16 shallow_water1 exceeds a 4 MB CHORD on one node; slicing M over
/// 4 nodes shrinks each node's working set, so aggregate DRAM traffic drops.
#[test]
fn four_node_slice_cuts_aggregate_dram() {
    let (single, four) = (strong_scaling(1, true), strong_scaling(4, true));
    assert!(
        four.dram_bytes < single.dram_bytes,
        "4-node {} !< 1-node {}",
        four.dram_bytes,
        single.dram_bytes
    );
}
