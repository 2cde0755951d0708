//! GCN layer workload (Table VI: cora, protein; Fig 13).
//!
//! One layer computes `Z = Â·X·W`. We lower it aggregate-first —
//! `Y = Â·X` (SpMM) then `Z = Y·W` (skewed GEMM) — which makes the
//! intermediate `Y` the *only* cross-operation tensor, with a single
//! pipelineable consumer. That is exactly the paper's observation for GNNs:
//! "the only tensor to be reused across operations in a GNN layer is
//! pipelineable without additional dependency", so FLAT-style pipelining
//! already captures all inter-op reuse and CELLO matches FLAT (Fig 13).

use cello_graph::dag::TensorDag;
use cello_graph::edge::TensorMeta;
use cello_graph::node::OpKind;
use cello_tensor::dense::DenseMatrix;
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::kernels::{gemm, spmm};
use cello_tensor::shape::{RankExtent, RankId};
use cello_tensor::sparse::CsrMatrix;

/// GCN layer shape parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcnParams {
    /// Vertex count `M`.
    pub vertices: u64,
    /// Adjacency non-zeros.
    pub nnz: u64,
    /// Input feature width `N`.
    pub features: u64,
    /// Output feature width `O`.
    pub outputs: u64,
    /// Number of stacked layers (feature width collapses to `outputs` after
    /// the first).
    pub layers: u32,
}

impl GcnParams {
    /// From a graph dataset.
    pub fn from_dataset(d: &crate::datasets::Dataset, layers: u32) -> Self {
        let crate::datasets::DatasetKind::Graph { features, outputs } = d.kind else {
            panic!("{} is not a graph dataset", d.name);
        };
        Self {
            vertices: d.m as u64,
            nnz: d.nnz as u64,
            features,
            outputs,
            layers,
        }
    }

    /// Adjacency CSR payload words.
    pub fn a_payload_words(&self) -> u64 {
        2 * self.nnz + self.vertices + 1
    }
}

/// Builds the GCN DAG (per layer: SpMM aggregate, then transform GEMM).
pub fn build_gcn_dag(prm: &GcnParams) -> TensorDag {
    let mut dag = TensorDag::new();
    let occ = ((prm.nnz as f64 / prm.vertices as f64).ceil() as u64).max(1);
    let mut in_features = prm.features;
    let mut prev_out = None;

    for l in 1..=prm.layers {
        let m = RankExtent::dense("m", prm.vertices);
        let k_sp = RankExtent::compressed("k", prm.vertices, occ.min(prm.vertices));
        let n = RankExtent::dense("n", in_features);
        let f = RankExtent::dense("f", in_features);
        let o = RankExtent::dense("o", prm.outputs);
        let aggregate = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("k")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[m, k_sp, n],
        );
        let transform = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("f")],
                vec![RankId::new("f"), RankId::new("o")],
            ],
            vec![RankId::new("m"), RankId::new("o")],
            &[m, f, o],
        );
        let g1 = dag.add_op(
            format!("agg@{l}:Y=Â·X"),
            aggregate,
            OpKind::TensorMac,
            TensorMeta::dense(format!("Y@{l}"), &["m", "n"], prm.vertices * in_features),
        );
        let g2 = dag.add_op(
            format!("xform@{l}:Z=Y·W"),
            transform,
            OpKind::TensorMac,
            TensorMeta::dense(format!("Z@{l}"), &["m", "o"], prm.vertices * prm.outputs),
        );
        // Y consumed as (m, f): the transform's dominant rank is m — shared.
        dag.add_edge(g1, g2, &["m", "f"]);
        if let Some(prev) = prev_out {
            // Previous layer's Z feeds this layer's aggregation as (k, n).
            dag.add_edge(prev, g1, &["k", "n"]);
        } else {
            dag.add_external(
                TensorMeta::dense("X", &["k", "n"], prm.vertices * prm.features),
                &[(g1, &["k", "n"])],
            );
        }
        dag.add_external(
            TensorMeta::dense(format!("W@{l}"), &["f", "o"], in_features * prm.outputs),
            &[(g2, &["f", "o"])],
        );
        prev_out = Some(g2);
        in_features = prm.outputs;
    }
    // Adjacency feeds every aggregation.
    let agg_nodes: Vec<_> = dag
        .nodes()
        .filter(|(_, n)| n.name.starts_with("agg@"))
        .map(|(id, _)| (id, ["m", "k"].as_slice()))
        .collect();
    dag.add_external(
        TensorMeta::sparse("A", &["m", "k"], prm.a_payload_words()),
        &agg_nodes,
    );
    dag
}

/// Numeric single-layer GCN forward pass: `Z = relu(Â·X·W)`.
pub fn gcn_forward(a: &CsrMatrix, x: &DenseMatrix, w: &DenseMatrix) -> DenseMatrix {
    let y = spmm(a, x);
    let mut z = gemm(&y, w);
    for v in z.data_mut() {
        *v = v.max(0.0);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{CORA, PROTEIN};
    use cello_tensor::gen::random_graph_adjacency;

    #[test]
    fn dag_shape_single_layer() {
        let prm = GcnParams::from_dataset(&CORA, 1);
        let dag = build_gcn_dag(&prm);
        assert_eq!(dag.node_count(), 2);
        assert_eq!(dag.edge_count(), 1);
        assert_eq!(dag.externals().len(), 3); // X, W, A
    }

    #[test]
    fn intermediate_is_pipelineable() {
        use cello_core::score::classify::{classify, Dependency};
        let dag = build_gcn_dag(&GcnParams::from_dataset(&CORA, 1));
        let cls = classify(&dag);
        assert_eq!(cls.deps[0], Dependency::Pipelineable);
    }

    #[test]
    fn multi_layer_chains() {
        let dag = build_gcn_dag(&GcnParams::from_dataset(&PROTEIN, 2));
        assert_eq!(dag.node_count(), 4);
        assert_eq!(dag.edge_count(), 3);
    }

    #[test]
    fn numeric_forward_shapes_and_relu() {
        let a = random_graph_adjacency(50, 250, 1);
        let mut x = DenseMatrix::zeros(50, 8);
        let mut w = DenseMatrix::zeros(8, 3);
        for i in 0..50 {
            for j in 0..8 {
                x.set(i, j, ((i * j) % 5) as f64 - 2.0);
            }
        }
        for i in 0..8 {
            for j in 0..3 {
                w.set(i, j, ((i + j) % 3) as f64 - 1.0);
            }
        }
        let z = gcn_forward(&a, &x, &w);
        assert_eq!(z.rows(), 50);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&v| v >= 0.0), "ReLU clamps negatives");
    }

    #[test]
    fn macs_match_table_vi_shapes() {
        let dag = build_gcn_dag(&GcnParams::from_dataset(&CORA, 1));
        let (_, agg) = dag.nodes().next().unwrap();
        // SpMM ≈ nnz × features (occupancy is ceil'd: 4 nnz/row for cora).
        let occ = (9464f64 / 2708.0).ceil() as u64;
        assert_eq!(agg.macs, 2708 * occ * 1433);
    }
}
