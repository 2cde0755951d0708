//! Loop orders and the pipelining co-dependence conditions (§V-B).
//!
//! SCORE fixes each op's loop order mechanically: the **dominant rank goes
//! outermost**, so the large tensor is stationary and the small tensor streams
//! from the register file — this alone achieves the best-case intra-operation
//! reuse for skewed GEMMs (§V-B "Tiling"). For a producer/consumer pair to
//! actually pipeline, the paper's four conditions must hold:
//!
//! 1. the edge has a pipelineable inter-operation pattern (Algorithm 2);
//! 2. the source's outermost loop is an *uncontracted* rank;
//! 3. the destination's outermost loop is a rank *shared* with the tensor;
//! 4. the shared tensor is not swizzled between producer and consumer.

use crate::score::classify::{Classification, Dependency};
use cello_graph::dag::{EdgeId, NodeId, TensorDag};
use cello_tensor::einsum::RankKind;
use cello_tensor::shape::RankId;

/// A concrete loop order for one op: ranks from outermost to innermost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopOrder {
    /// Ranks, outermost first.
    pub order: Vec<RankId>,
}

impl LoopOrder {
    /// The outermost rank.
    pub fn outermost(&self) -> RankId {
        self.order[0]
    }
}

/// SCORE's loop-order rule: dominant (largest effective) rank outermost,
/// remaining ranks by descending effective extent.
///
/// For *balanced* nodes (no rank dominates — the DNN regime) the tie is
/// resolved in favor of the largest **uncontracted** rank, because condition 2
/// requires an uncontracted outermost for the node to act as a pipeline
/// producer, and a balanced node loses nothing by choosing it ("the schedule
/// tries to satisfy the codependence conditions", §V-B).
pub fn choose_loop_order(dag: &TensorDag, node: NodeId) -> LoopOrder {
    let n = dag.node(node);
    let spec = &n.spec;
    let mut ranks = spec.extents();
    ranks.sort_by(|a, b| b.effective.cmp(&a.effective).then(a.rank.cmp(&b.rank)));
    if n.dominance == cello_graph::node::Dominance::Balanced {
        if let Some(pos) = ranks
            .iter()
            .position(|r| spec.rank_kind(r.rank) == RankKind::Uncontracted)
        {
            let chosen = ranks.remove(pos);
            ranks.insert(0, chosen);
        }
    }
    LoopOrder {
        order: ranks.into_iter().map(|r| r.rank).collect(),
    }
}

/// Checks the four §V-B pipelining conditions for an edge, given the chosen
/// loop orders of its endpoints.
pub fn can_pipeline(
    dag: &TensorDag,
    cls: &Classification,
    eid: EdgeId,
    src_order: &LoopOrder,
    dst_order: &LoopOrder,
) -> bool {
    let edge = dag.edge(eid);
    // Condition 1: pipelineable pattern (delayed-hold also streams tiles).
    if !matches!(
        cls.dep(eid),
        Dependency::Pipelineable | Dependency::DelayedHold
    ) {
        return false;
    }
    // Condition 2: source outermost rank is uncontracted in the source.
    let src_spec = &dag.node(NodeId(edge.src)).spec;
    if src_spec.rank_kind(src_order.outermost()) != RankKind::Uncontracted {
        return false;
    }
    // Condition 3: destination outermost rank is shared with the tensor.
    if !edge.shares_rank(dst_order.outermost()) {
        return false;
    }
    // Condition 4: no swizzle — the consumer accepts the produced layout.
    let produced_layout = dag.node(NodeId(edge.src)).output.layout;
    if edge.dst_layout != produced_layout {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::classify::classify;
    use cello_graph::edge::{Edge, TensorMeta};
    use cello_graph::node::OpKind;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::layout::Layout;
    use cello_tensor::shape::RankExtent;

    const M: u64 = 81_920;
    const N: u64 = 16;

    fn u_spec(big: &str) -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new(big), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new(big), RankId::new("n")],
            &[
                RankExtent::dense(big, M),
                RankExtent::dense("j", N),
                RankExtent::dense("n", N),
            ],
        )
    }

    fn c_spec() -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new("k"), RankId::new("p")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("p"), RankId::new("n")],
            &[
                RankExtent::dense("k", M),
                RankExtent::dense("p", N),
                RankExtent::dense("n", N),
            ],
        )
    }

    #[test]
    fn dominant_rank_goes_outermost() {
        let mut dag = TensorDag::new();
        let n = dag.add_op(
            "u",
            u_spec("m"),
            OpKind::TensorMac,
            TensorMeta::dense("T", &["m", "n"], M * N),
        );
        let order = choose_loop_order(&dag, n);
        assert_eq!(order.outermost(), RankId::new("m"));
        assert_eq!(order.order.len(), 3);
    }

    #[test]
    fn contracted_dominant_order() {
        let mut dag = TensorDag::new();
        let n = dag.add_op(
            "c",
            c_spec(),
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], N * N),
        );
        assert_eq!(choose_loop_order(&dag, n).outermost(), RankId::new("k"));
    }

    /// CG 1 -> 2a: producer m-outermost (uncontracted), consumer k-outermost
    /// where k is the tensor's rank — all four conditions hold.
    #[test]
    fn cg_s_into_contraction_pipelines() {
        let mut dag = TensorDag::new();
        let p = dag.add_op(
            "1",
            u_spec("m"),
            OpKind::TensorMac,
            TensorMeta::dense("S", &["m", "n"], M * N),
        );
        let c = dag.add_op(
            "2a",
            c_spec(),
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], N * N),
        );
        let e = dag.add_edge(p, c, &["k", "n"]);
        let cls = classify(&dag);
        let so = choose_loop_order(&dag, p);
        let co = choose_loop_order(&dag, c);
        assert!(can_pipeline(&dag, &cls, e, &so, &co));
    }

    /// Swizzled consumer breaks condition 4.
    #[test]
    fn swizzle_blocks_pipelining() {
        let mut dag = TensorDag::new();
        let p = dag.add_op(
            "1",
            u_spec("m"),
            OpKind::TensorMac,
            TensorMeta::dense("S", &["m", "n"], M * N),
        );
        let c = dag.add_op(
            "2a",
            c_spec(),
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], N * N),
        );
        let e = dag.add_edge_full(Edge::new(p.0, c.0, &["k", "n"]).with_layout(Layout::ColMajor));
        let cls = classify(&dag);
        let so = choose_loop_order(&dag, p);
        let co = choose_loop_order(&dag, c);
        assert!(!can_pipeline(&dag, &cls, e, &so, &co));
    }

    /// Sequential edges never pipeline regardless of loop orders.
    #[test]
    fn sequential_edge_never_pipelines() {
        let mut dag = TensorDag::new();
        let p = dag.add_op(
            "2a",
            c_spec(),
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], N * N),
        );
        let c = dag.add_op(
            "3",
            u_spec("m"),
            OpKind::TensorMac,
            TensorMeta::dense("X", &["m", "n"], M * N),
        );
        let e = dag.add_edge(p, c, &["j", "n"]);
        let cls = classify(&dag);
        let so = choose_loop_order(&dag, p);
        let co = choose_loop_order(&dag, c);
        assert!(!can_pipeline(&dag, &cls, e, &so, &co));
    }

    /// Consumer whose outermost rank is not a tensor rank breaks condition 3.
    #[test]
    fn unshared_outermost_blocks_pipelining() {
        let mut dag = TensorDag::new();
        let p = dag.add_op(
            "u1",
            u_spec("m"),
            OpKind::TensorMac,
            TensorMeta::dense("T", &["m", "n"], M * N),
        );
        // Consumer dominated by an unrelated huge rank q.
        let spec = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("q"), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new("q"), RankId::new("n")],
            &[
                RankExtent::dense("q", M),
                RankExtent::dense("j", N),
                RankExtent::dense("n", N),
            ],
        );
        let c = dag.add_op(
            "u2",
            spec,
            OpKind::TensorMac,
            TensorMeta::dense("W", &["q", "n"], M * N),
        );
        let e = dag.add_edge(p, c, &["j", "n"]); // tensor ranks {j, n}; q unshared
        let cls = classify(&dag);
        let so = choose_loop_order(&dag, p);
        let co = choose_loop_order(&dag, c);
        assert!(!can_pipeline(&dag, &cls, e, &so, &co));
    }
}
