//! Power iteration (dominant eigenvector) — an extension workload.
//!
//! Not in the paper's Table VI, but squarely in its target class: a chain of
//! skewed tensor operations over a sparse matrix where the *only* exploitable
//! reuse is `A` across iterations — the purest test of CHORD's cross-
//! iteration operand residency (the paper's Fig 10 shows `A` resident with
//! `Freq 10`). Per iteration:
//!
//! ```text
//! p1  y = A·x          SpMM                  (U)
//! p2  ν = yᵀ·y         contraction           (C)
//! p3  x' = y · (1/√ν)  scale                 (U)
//! ```
//!
//! `y` is consumed by p2 (pipelineable into the contraction) and by p3
//! (delayed writeback — p2 sits on the path); `x'` feeds the next iteration's
//! SpMM with an unshared dominant rank (sequential): structurally a miniature
//! CG.

use cello_graph::dag::{NodeId, TensorDag};
use cello_graph::edge::TensorMeta;
use cello_graph::node::OpKind;
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::{RankExtent, RankId};

/// Shape parameters for a power-iteration run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerIterParams {
    /// Matrix order `M`.
    pub m: u64,
    /// Average non-zeros per row.
    pub occupancy: f64,
    /// CSR payload words of `A`.
    pub a_payload_words: u64,
    /// Iterations to unroll.
    pub iterations: u32,
}

impl PowerIterParams {
    /// From a dataset registry entry.
    pub fn from_dataset(d: &crate::datasets::Dataset, iterations: u32) -> Self {
        Self {
            m: d.m as u64,
            occupancy: d.occupancy(),
            a_payload_words: d.csr_payload_words(),
            iterations,
        }
    }
}

/// Builds the unrolled power-iteration DAG.
pub fn build_power_iter_dag(prm: &PowerIterParams) -> TensorDag {
    let occ = prm.occupancy.ceil().max(1.0) as u64;
    let m = RankExtent::dense("m", prm.m);
    let k_sp = RankExtent::compressed("k", prm.m, occ.min(prm.m));
    let k = RankExtent::dense("k", prm.m);
    let n = RankExtent::dense("n", 1);
    let p = RankExtent::dense("p", 1);
    let j = RankExtent::dense("j", 1);
    let spmm_spec = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("m"), RankId::new("k")],
            vec![RankId::new("k"), RankId::new("n")],
        ],
        vec![RankId::new("m"), RankId::new("n")],
        &[m, k_sp, n],
    );
    let contraction = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("k"), RankId::new("p")],
            vec![RankId::new("k"), RankId::new("n")],
        ],
        vec![RankId::new("p"), RankId::new("n")],
        &[k, p, n],
    );
    let scale = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("m"), RankId::new("j")],
            vec![RankId::new("j"), RankId::new("n")],
        ],
        vec![RankId::new("m"), RankId::new("n")],
        &[m, j, n],
    );

    let mut dag = TensorDag::new();
    let mut prev_scale: Option<NodeId> = None;
    let mut spmms = Vec::new();
    for i in 1..=prm.iterations {
        let p1 = dag.add_op(
            format!("p1@{i}:y=A·x"),
            spmm_spec.clone(),
            OpKind::TensorMac,
            TensorMeta::dense(format!("y@{i}"), &["m", "n"], prm.m),
        );
        let p2 = dag.add_op(
            format!("p2@{i}:ν=yᵀy"),
            contraction.clone(),
            OpKind::TensorMac,
            TensorMeta::dense(format!("nu@{i}"), &["p", "n"], 1),
        );
        let p3 = dag.add_op(
            format!("p3@{i}:x=y/√ν"),
            scale.clone(),
            OpKind::TensorMac,
            TensorMeta::dense(format!("x@{i}"), &["m", "n"], prm.m),
        );
        dag.add_edge(p1, p2, &["k", "n"]); // y into the contraction
        dag.add_edge(p2, p3, &["j", "n"]); // ν (tiny)
        dag.add_edge(p1, p3, &["m", "j"]); // y delayed via p2 (writeback)
        if let Some(prev) = prev_scale {
            dag.add_edge(prev, p1, &["k", "n"]); // x into next SpMM (unshared)
        }
        prev_scale = Some(p3);
        spmms.push(p1);
    }
    let a_consumers: Vec<(NodeId, &[&str])> =
        spmms.iter().map(|&n| (n, ["m", "k"].as_slice())).collect();
    dag.add_external(
        TensorMeta::sparse("A", &["m", "k"], prm.a_payload_words),
        &a_consumers,
    );
    dag.add_external(
        TensorMeta::dense("x@0", &["k", "n"], prm.m),
        &[(NodeId(0), &["k", "n"])],
    );
    dag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prm() -> PowerIterParams {
        PowerIterParams {
            m: 30_000,
            occupancy: 4.0,
            a_payload_words: 2 * 120_000 + 30_001,
            iterations: 5,
        }
    }

    #[test]
    fn dag_shape() {
        let dag = build_power_iter_dag(&prm());
        assert_eq!(dag.node_count(), 15);
        assert_eq!(dag.edge_count(), 3 * 5 + 4);
        // A feeds every SpMM: freq = iterations.
        assert_eq!(dag.externals()[0].consumers.len(), 5);
    }

    #[test]
    fn y_is_delayed_writeback() {
        use cello_core::score::classify::{classify, Dependency};
        let dag = build_power_iter_dag(&prm());
        let cls = classify(&dag);
        // Edge 2 of iteration 1 is y -> p3 (transitive via the contraction).
        assert_eq!(cls.deps[2], Dependency::DelayedWriteback);
        assert_eq!(cls.deps[0], Dependency::Pipelineable); // y -> νcontraction
    }

    #[test]
    fn cello_exploits_a_reuse() {
        use cello_core::accel::CelloConfig;
        use cello_sim::baselines::{run_config, ConfigKind};
        let dag = build_power_iter_dag(&prm());
        let accel = CelloConfig::paper();
        let oracle = run_config(&dag, ConfigKind::Flexagon, &accel, "power");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "power");
        // A dominates the traffic; CHORD keeps it resident across iterations.
        assert!(
            cello.dram_bytes * 2 < oracle.dram_bytes,
            "CELLO {} vs oracle {}",
            cello.dram_bytes,
            oracle.dram_bytes
        );
    }
}
