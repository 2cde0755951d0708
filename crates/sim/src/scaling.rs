//! Multi-node weak/strong scaling of the CELLO dataflow (§V-B "Scalable
//! Dataflow", Fig 8 bottom).
//!
//! SCORE's multi-node rule: *parallelize the dominant rank across nodes and
//! keep pipelining within a node*. Each node then owns an `M/nodes` slice of
//! every skewed tensor and a private CHORD; per CG iteration, only the small
//! tensors cross the NoC (broadcast `Λ`, reduce `Γ` partials). The naive
//! alternative splits pipeline *stages* across nodes and ships the full
//! `M × N` intermediate.
//!
//! Both placements are now first-class **schedule decisions**: this module
//! builds a [`Partition`]-constrained schedule and scores it through the
//! ordinary engine (`run_schedule`), which slices per-node tile footprints,
//! charges NoC word-hops against [`cello_core::NocModel`]'s mesh, and
//! serializes the exchanges with each phase. The hand-rolled NoC arithmetic
//! this module used to carry is gone — naive-vs-scalable is just two
//! schedules compared on the same cost model.

use crate::baselines::{backend_for, ConfigKind};
use crate::engine::run_schedule;
use crate::report::RunReport;
use cello_core::accel::CelloConfig;
use cello_core::score::binding::{build_schedule_with, ScheduleConstraints};
use cello_core::score::multinode::{dominant_partition_rank, Partition};
use cello_workloads::cg::{build_cg_dag, CgParams};

/// Which inter-node placement the run models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalingStrategy {
    /// SCORE's placement: dominant rank sliced, small tensors on the NoC.
    Scalable,
    /// Pipeline stages split across nodes: the big intermediate on the NoC.
    Naive,
}

impl ScalingStrategy {
    /// The [`Partition`] this strategy lowers to for `dag`-shaped work.
    pub fn partition(&self, dag: &cello_graph::dag::TensorDag, nodes: u64) -> Partition {
        match self {
            ScalingStrategy::Scalable => dominant_partition_rank(dag)
                .map(|rank| Partition::by_rank(nodes, rank))
                .unwrap_or_else(|| Partition::by_stage(nodes)),
            ScalingStrategy::Naive => Partition::by_stage(nodes),
        }
    }
}

/// Result of one multi-node run.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    /// Node count.
    pub nodes: u64,
    /// Strategy used.
    pub strategy: ScalingStrategy,
    /// End-to-end seconds (per-node compute/memory + NoC serialization).
    pub seconds: f64,
    /// NoC traffic in byte-hops (sum over all exchanges).
    pub noc_bytes: u64,
    /// Aggregate DRAM traffic across nodes.
    pub dram_bytes: u64,
    /// The underlying engine report of the partitioned schedule.
    pub per_node: RunReport,
}

impl ScalingReport {
    /// Strong-scaling speedup relative to a 1-node run.
    pub fn speedup_over(&self, single: &ScalingReport) -> f64 {
        single.seconds / self.seconds
    }
}

/// Runs CG strong scaling: the *same* problem (`prm`) split over `nodes`,
/// expressed as a partitioned schedule and scored by the simulator.
pub fn run_cg_multinode(
    prm: &CgParams,
    accel: &CelloConfig,
    kind: ConfigKind,
    nodes: u64,
    strategy: ScalingStrategy,
) -> ScalingReport {
    assert!(nodes >= 1);
    let dag = build_cg_dag(prm);
    let partition = strategy.partition(&dag, nodes);
    let schedule = build_schedule_with(
        &dag,
        kind.schedule_options(),
        &ScheduleConstraints::partitioned(partition),
    );
    debug_assert!(schedule.validate(&dag).is_ok());
    let mut backend = backend_for(&dag, kind, accel);
    let report = run_schedule(
        &dag,
        &schedule,
        accel,
        backend.as_mut(),
        kind.label(),
        "multinode",
    );
    ScalingReport {
        nodes,
        strategy,
        seconds: report.seconds,
        noc_bytes: report.noc_hop_bytes,
        dram_bytes: report.dram_bytes,
        per_node: report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_workloads::datasets::SHALLOW_WATER1;

    fn prm() -> CgParams {
        CgParams::from_dataset(&SHALLOW_WATER1, 16, 4)
    }

    #[test]
    fn single_node_has_no_noc_traffic() {
        let r = run_cg_multinode(
            &prm(),
            &CelloConfig::paper(),
            ConfigKind::Cello,
            1,
            ScalingStrategy::Scalable,
        );
        assert_eq!(r.noc_bytes, 0);
        assert_eq!(r.per_node.nodes, 1);
    }

    #[test]
    fn scalable_strategy_scales() {
        let accel = CelloConfig::paper();
        let single = run_cg_multinode(
            &prm(),
            &accel,
            ConfigKind::Cello,
            1,
            ScalingStrategy::Scalable,
        );
        let mut prev_seconds = single.seconds;
        for nodes in [4u64, 16] {
            let r = run_cg_multinode(
                &prm(),
                &accel,
                ConfigKind::Cello,
                nodes,
                ScalingStrategy::Scalable,
            );
            assert!(
                r.seconds < prev_seconds,
                "{nodes} nodes: {} !< {prev_seconds}",
                r.seconds
            );
            prev_seconds = r.seconds;
        }
        let sixteen = run_cg_multinode(
            &prm(),
            &accel,
            ConfigKind::Cello,
            16,
            ScalingStrategy::Scalable,
        );
        assert!(
            sixteen.speedup_over(&single) > 4.0,
            "{}",
            sixteen.speedup_over(&single)
        );
    }

    /// The Fig 8 ablation through the scheduled path: the naive (stage-split)
    /// schedule ships the big intermediates, the scalable (rank-sliced) one
    /// only the Greek tensors — orders of magnitude apart on the same DAG,
    /// same engine, same cost model.
    #[test]
    fn naive_strategy_pays_noc() {
        let accel = CelloConfig::paper();
        let nodes = 16;
        let scalable = run_cg_multinode(
            &prm(),
            &accel,
            ConfigKind::Cello,
            nodes,
            ScalingStrategy::Scalable,
        );
        let naive = run_cg_multinode(
            &prm(),
            &accel,
            ConfigKind::Cello,
            nodes,
            ScalingStrategy::Naive,
        );
        assert!(
            naive.noc_bytes > 100 * scalable.noc_bytes.max(1),
            "naive {} vs scalable {}",
            naive.noc_bytes,
            scalable.noc_bytes
        );
        assert!(naive.seconds > scalable.seconds);
    }

    #[test]
    fn slicing_helps_capacity_bound_workloads() {
        // At N=16 shallow_water1 exceeds a 4 MB CHORD on one node; slicing M
        // across nodes shrinks per-node working sets, so aggregate DRAM
        // traffic *drops* superlinearly until everything fits.
        let accel = CelloConfig::paper();
        let single = run_cg_multinode(
            &prm(),
            &accel,
            ConfigKind::Cello,
            1,
            ScalingStrategy::Scalable,
        );
        let four = run_cg_multinode(
            &prm(),
            &accel,
            ConfigKind::Cello,
            4,
            ScalingStrategy::Scalable,
        );
        assert!(four.dram_bytes < single.dram_bytes);
    }
}
