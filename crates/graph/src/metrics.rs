//! Structural metrics of tensor dependency DAGs.
//!
//! The paper argues scheduling complexity "burgeons with operation DAG depth
//! and the number of tensors involved" (§I) — these metrics quantify that for
//! reporting: depth (critical path), width (max antichain via level sizes),
//! transitive-edge count (the delayed dependencies), and total words in
//! flight.

use crate::dag::{NodeId, TensorDag};

/// Summary statistics of a DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagMetrics {
    /// Number of operation nodes.
    pub nodes: usize,
    /// Number of producer→consumer edges.
    pub edges: usize,
    /// Number of external (DRAM-resident) inputs.
    pub externals: usize,
    /// Longest path length in edges (critical path).
    pub depth: usize,
    /// Maximum number of nodes at the same depth level (parallelism bound).
    pub width: usize,
    /// Number of transitive edges — the delayed downstream dependencies.
    pub transitive_edges: usize,
    /// Total MACs over all nodes.
    pub total_macs: u64,
    /// Total words of all op-produced tensors.
    pub intermediate_words: u64,
    /// Total words of all external inputs.
    pub external_words: u64,
}

/// Computes [`DagMetrics`] for a DAG.
pub fn metrics(dag: &TensorDag) -> DagMetrics {
    let n = dag.node_count();
    // Level = longest distance from any source.
    let mut level = vec![0usize; n];
    for u in 0..n {
        for &e in dag.out_edges(NodeId(u)) {
            let dst = dag.edge(e).dst;
            level[dst] = level[dst].max(level[u] + 1);
        }
    }
    let depth = level.iter().copied().max().unwrap_or(0);
    let mut level_counts = vec![0usize; depth + 1];
    for &l in &level {
        level_counts[l] += 1;
    }
    let width = level_counts.into_iter().max().unwrap_or(0);
    let transitive_edges = dag
        .edges()
        .filter(|&(id, _)| dag.edge_is_transitive(id))
        .count();
    DagMetrics {
        nodes: n,
        edges: dag.edge_count(),
        externals: dag.externals().len(),
        depth,
        width,
        transitive_edges,
        total_macs: dag.nodes().map(|(_, x)| x.macs).sum(),
        intermediate_words: dag.nodes().map(|(_, x)| x.output.words).sum(),
        external_words: dag.externals().iter().map(|e| e.meta.words).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::TensorMeta;
    use crate::node::OpKind;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::RankExtent;

    fn chain(n: usize, extra: &[(usize, usize)]) -> TensorDag {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 100),
                RankExtent::dense("k", 4),
                RankExtent::dense("n", 4),
            ],
        );
        let mut dag = TensorDag::new();
        for i in 0..n {
            dag.add_op(
                format!("op{i}"),
                spec.clone(),
                OpKind::TensorMac,
                TensorMeta::dense(format!("T{i}"), &["m", "n"], 400),
            );
        }
        for i in 1..n {
            dag.add_edge(NodeId(i - 1), NodeId(i), &["m", "k"]);
        }
        for &(a, b) in extra {
            dag.add_edge(NodeId(a), NodeId(b), &["m", "k"]);
        }
        dag
    }

    #[test]
    fn chain_metrics() {
        let m = metrics(&chain(5, &[]));
        assert_eq!(m.nodes, 5);
        assert_eq!(m.edges, 4);
        assert_eq!(m.depth, 4);
        assert_eq!(m.width, 1);
        assert_eq!(m.transitive_edges, 0);
        assert_eq!(m.total_macs, 5 * 100 * 4 * 4);
        assert_eq!(m.intermediate_words, 5 * 400);
    }

    #[test]
    fn skip_edge_counted_transitive() {
        let m = metrics(&chain(5, &[(0, 4)]));
        assert_eq!(m.transitive_edges, 1);
        assert_eq!(m.depth, 4);
    }

    #[test]
    fn diamond_width() {
        // 0 -> {1, 2} -> 3: width 2 at level 1.
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 10),
                RankExtent::dense("k", 2),
                RankExtent::dense("n", 2),
            ],
        );
        let mut dag = TensorDag::new();
        for i in 0..4 {
            dag.add_op(
                format!("op{i}"),
                spec.clone(),
                OpKind::TensorMac,
                TensorMeta::dense(format!("T{i}"), &["m", "n"], 20),
            );
        }
        dag.add_edge(NodeId(0), NodeId(1), &["m", "k"]);
        dag.add_edge(NodeId(0), NodeId(2), &["m", "k"]);
        dag.add_edge(NodeId(1), NodeId(3), &["m", "k"]);
        dag.add_edge(NodeId(2), NodeId(3), &["m", "k"]);
        let m = metrics(&dag);
        assert_eq!(m.width, 2);
        assert_eq!(m.depth, 2);
    }

    #[test]
    fn empty_dag() {
        let m = metrics(&TensorDag::new());
        assert_eq!(m.nodes, 0);
        assert_eq!(m.depth, 0);
    }
}
