//! Algorithm 2: determination of tensor-level dependencies in a DAG (§V-A).
//!
//! Every edge is classified into one of four dependencies:
//!
//! | dependency | meaning | served by |
//! |---|---|---|
//! | `Sequential` | producer and consumer execute one-by-one | CHORD / DRAM |
//! | `Pipelineable` | consumer can stream tiles as produced | pipeline buffer |
//! | `DelayedHold` | delayed consumer, but the whole path to it pipelines — hold the tiles (Fig 6) | pipeline buffer (extra occupancy) |
//! | `DelayedWriteback` | delayed consumer behind a contraction or rank break — tiles must persist | **CHORD** |
//!
//! plus the node-level `parallel_multicast` flag (several non-transitive
//! consumers of the same tensor).
//!
//! The rules are implemented in the paper's pseudocode order, with later
//! rules overriding earlier ones. Interpretations (documented in DESIGN.md):
//! a consumer is *unshared* w.r.t. a tensor when the consumer's dominant rank
//! is not among the tensor's ranks at that consumer; `pathnext` is the next
//! node along the longest path between the edge's endpoints.

use cello_graph::dag::{path_successor, EdgeId, NodeId, TensorDag};
use cello_graph::node::{Dominance, OpKind};
use std::fmt;

/// Edge-level dependency classification (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dependency {
    /// Producer and consumer execute sequentially; operand written back.
    Sequential,
    /// Producer tiles can stream straight into the consumer.
    Pipelineable,
    /// Delayed consumer on an all-pipelineable path: hold tiles on-chip.
    DelayedHold,
    /// Delayed consumer behind a contraction/rank break: full writeback, the
    /// CHORD-served case.
    DelayedWriteback,
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dependency::Sequential => "sequential",
            Dependency::Pipelineable => "pipelineable",
            Dependency::DelayedHold => "delayed_hold",
            Dependency::DelayedWriteback => "delayed_writeback",
        })
    }
}

/// Output of Algorithm 2 over a DAG.
#[derive(Clone, Debug)]
pub struct Classification {
    /// Per-edge dependency (indexed by `EdgeId`).
    pub deps: Vec<Dependency>,
    /// Per-edge transitivity flag.
    pub transitive: Vec<bool>,
    /// Per-node count of non-transitive out-edges.
    pub numcast: Vec<u32>,
    /// Per-node parallel-multicast flag (`numcast > 1`).
    pub parallel_multicast: Vec<bool>,
}

impl Classification {
    /// Dependency of an edge.
    pub fn dep(&self, e: EdgeId) -> Dependency {
        self.deps[e.0]
    }

    /// Whether a node multicasts its output to parallel consumers.
    pub fn is_multicast(&self, n: NodeId) -> bool {
        self.parallel_multicast[n.0]
    }

    /// Count of edges per dependency kind (reporting).
    pub fn histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for d in &self.deps {
            match d {
                Dependency::Sequential => h[0] += 1,
                Dependency::Pipelineable => h[1] += 1,
                Dependency::DelayedHold => h[2] += 1,
                Dependency::DelayedWriteback => h[3] += 1,
            }
        }
        h
    }
}

/// Is `consumer` *shared* with the tensor flowing along `src → consumer`?
/// True when the consumer's dominant rank is one of the tensor's ranks at
/// that consumer (the first such edge decides). When no direct edge exists
/// (defensive), assume shared.
fn consumer_shares(dag: &TensorDag, src: NodeId, consumer: NodeId) -> bool {
    let dominant = dag.node(consumer).spec.dominant().rank;
    dag.out_edges(src)
        .iter()
        .map(|&e| dag.edge(e))
        .find(|e| e.dst == consumer.0)
        .is_none_or(|e| e.shares_rank(dominant))
}

/// Algorithm 2 (verbatim rule order; see module docs for interpretations).
///
/// ```
/// use cello_core::score::classify::{classify, Dependency};
/// use cello_workloads::cg::{build_cg_dag, CgParams};
/// use cello_workloads::datasets::SHALLOW_WATER1;
///
/// let dag = build_cg_dag(&CgParams::from_dataset(&SHALLOW_WATER1, 16, 1));
/// let cls = classify(&dag);
/// // Edge 4 is S → op 4 — the paper's flagship delayed writeback (Fig 7).
/// assert_eq!(cls.deps[4], Dependency::DelayedWriteback);
/// // Edge 0 is S → op 2a — pipelineable into the contraction.
/// assert_eq!(cls.deps[0], Dependency::Pipelineable);
/// ```
pub fn classify(dag: &TensorDag) -> Classification {
    let ne = dag.edge_count();
    let nn = dag.node_count();
    let mut deps = vec![Dependency::Sequential; ne];
    let mut transitive = vec![false; ne];
    let mut numcast = vec![0u32; nn];
    let mut parallel_multicast = vec![false; nn];

    // One longest-path pass per source node serves every out-edge of it:
    // transitivity, `pathnext` and the Rule 4 path are all read from the
    // pass's `dist`/`pred`. O(V+E) per pass, O(V·(V+E)) in all.
    let mut dist = vec![0usize; nn];
    let mut pred = vec![0usize; nn];
    for (nid, node) in dag.nodes() {
        let outs = dag.out_edges(nid);
        let Some(reach) = outs.iter().map(|&e| dag.edge(e).dst).max() else {
            continue;
        };
        dag.longest_paths_from(nid, NodeId(reach), &mut dist, &mut pred);
        for &eid in outs {
            let edge = dag.edge(eid);
            let is_trans = dist[edge.dst] >= 2;
            transitive[eid.0] = is_trans;
            if !is_trans {
                numcast[nid.0] += 1;
                if numcast[nid.0] > 1 {
                    parallel_multicast[nid.0] = true;
                }
            }

            let src_contracted = node.dominance == Dominance::Contracted;
            let pathnext = NodeId(path_successor(&pred, nid.0, edge.dst));
            let pathnext_shared = consumer_shares(dag, nid, pathnext);

            // Rule 1: direct edge from a non-contracted producer to a shared
            // consumer pipelines.
            let mut dep = if !src_contracted && !is_trans && pathnext_shared {
                Dependency::Pipelineable
            } else {
                Dependency::Sequential
            };

            // Rule 2: contraction-heavy producers and non-MAC ops never
            // pipeline (Challenge 2).
            if src_contracted || node.kind != OpKind::TensorMac {
                dep = Dependency::Sequential;
            }

            // Rule 3: a consumer whose dominant rank is not a rank of this
            // tensor cannot stream it in production order.
            let dst_dominant = dag.node(NodeId(edge.dst)).spec.dominant().rank;
            if !edge.shares_rank(dst_dominant) {
                dep = Dependency::Sequential;
            }

            // Rule 4: transitive edges from non-contracted producers — walk
            // the longest path; any contraction-dominant interior node or
            // rank break forces a writeback, otherwise the tiles can be held.
            if !src_contracted && is_trans && pathnext_shared {
                // Interior nodes, walked back from the destination.
                let mut next_on_path = edge.dst;
                let mut pathnode = pred[edge.dst];
                let mut writeback = false;
                while pathnode != nid.0 {
                    let next_shared = consumer_shares(dag, NodeId(pathnode), NodeId(next_on_path));
                    if dag.node(NodeId(pathnode)).dominance == Dominance::Contracted || !next_shared
                    {
                        writeback = true;
                        break;
                    }
                    next_on_path = pathnode;
                    pathnode = pred[pathnode];
                }
                dep = if writeback {
                    Dependency::DelayedWriteback
                } else {
                    Dependency::DelayedHold
                };
            }

            deps[eid.0] = dep;
        }
    }

    Classification {
        deps,
        transitive,
        numcast,
        parallel_multicast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_graph::edge::TensorMeta;
    use cello_graph::node::OpKind;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::{RankExtent, RankId};

    const M: u64 = 81_920;
    const N: u64 = 16;

    fn skewed_u(out_rank: &str) -> EinsumSpec {
        // M x J x N GEMM, uncontracted-dominant (CG lines 3/4/7).
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new(out_rank), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new(out_rank), RankId::new("n")],
            &[
                RankExtent::dense(out_rank, M),
                RankExtent::dense("j", N),
                RankExtent::dense("n", N),
            ],
        )
    }

    fn skewed_c() -> EinsumSpec {
        // K(N')N contraction-dominant (CG lines 2a/5).
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

    fn balanced() -> EinsumSpec {
        EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 784),
                RankExtent::dense("k", 512),
                RankExtent::dense("n", 128),
            ],
        )
    }

    fn meta(name: &str) -> TensorMeta {
        TensorMeta::dense(name, &["m", "n"], M * N)
    }

    /// Straight pipelineable chain: U -> U with shared dominant rank.
    #[test]
    fn chain_of_u_nodes_pipelines() {
        let mut dag = TensorDag::new();
        let a = dag.add_op("a", skewed_u("m"), OpKind::TensorMac, meta("T0"));
        let b = dag.add_op("b", skewed_u("m"), OpKind::TensorMac, meta("T1"));
        dag.add_edge(a, b, &["m", "j"]);
        let cls = classify(&dag);
        assert_eq!(cls.deps[0], Dependency::Pipelineable);
    }

    /// Rule 2: contraction-dominant producers never pipeline (Challenge 2).
    #[test]
    fn contracted_producer_is_sequential() {
        let mut dag = TensorDag::new();
        let a = dag.add_op(
            "2a",
            skewed_c(),
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], N * N),
        );
        let b = dag.add_op("2b", skewed_u("m"), OpKind::TensorMac, meta("T1"));
        dag.add_edge(a, b, &["m", "j"]);
        let cls = classify(&dag);
        assert_eq!(cls.deps[0], Dependency::Sequential);
    }

    /// Rule 2: non-MAC producers (small inverses) never pipeline.
    #[test]
    fn inverse_producer_is_sequential() {
        let mut dag = TensorDag::new();
        let small = EinsumSpec::parse(
            "pn->pn",
            &[RankExtent::dense("p", N), RankExtent::dense("n", N)],
        );
        let a = dag.add_op(
            "inv",
            small,
            OpKind::Inverse,
            TensorMeta::dense("L", &["p", "n"], N * N),
        );
        let b = dag.add_op("b", skewed_u("m"), OpKind::TensorMac, meta("T1"));
        dag.add_edge(a, b, &["j", "n"]);
        let cls = classify(&dag);
        assert_eq!(cls.deps[0], Dependency::Sequential);
    }

    /// Rule 3: consumer whose dominant rank is not a tensor rank (CG's P into
    /// the SpMM: P[k,n] but the SpMM is m-dominant).
    #[test]
    fn unshared_consumer_is_sequential() {
        let mut dag = TensorDag::new();
        let a = dag.add_op("7", skewed_u("m"), OpKind::TensorMac, meta("P"));
        // SpMM consumer: dominant rank m, consumes P as (k, n).
        let spmm = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("k")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[
                RankExtent::dense("m", M),
                RankExtent::compressed("k", M, 4),
                RankExtent::dense("n", N),
            ],
        );
        let b = dag.add_op("1'", spmm, OpKind::TensorMac, meta("S"));
        dag.add_edge(a, b, &["k", "n"]); // P seen as (k,n): m not shared
        let cls = classify(&dag);
        assert_eq!(cls.deps[0], Dependency::Sequential);
    }

    /// Rule 4 with a contraction on the path: delayed **writeback** —
    /// the CG `S -> 4` edge (path 1 -> 2a -> … -> 4 passes the contracted 2a).
    #[test]
    fn transitive_edge_behind_contraction_is_writeback() {
        let mut dag = TensorDag::new();
        let n1 = dag.add_op("1", skewed_u("m"), OpKind::TensorMac, meta("S"));
        let n2 = dag.add_op(
            "2a",
            skewed_c(),
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], N * N),
        );
        let n4 = dag.add_op("4", skewed_u("m"), OpKind::TensorMac, meta("R"));
        dag.add_edge(n1, n2, &["k", "n"]); // S into the contraction (shared k)
        dag.add_edge(n2, n4, &["j", "n"]); // Δ onward (sequential anyway)
        dag.add_edge(n1, n4, &["m", "j"]); // S delayed: transitive via 2a
        let cls = classify(&dag);
        assert_eq!(cls.deps[0], Dependency::Pipelineable, "S -> 2a pipelines");
        assert_eq!(
            cls.deps[1],
            Dependency::Sequential,
            "Δ leaves a contraction"
        );
        assert_eq!(
            cls.deps[2],
            Dependency::DelayedWriteback,
            "S -> 4 writes back"
        );
    }

    /// Rule 4 with an all-pipelineable path: delayed **hold** — the ResNet
    /// skip connection (Fig 7 right).
    #[test]
    fn resnet_skip_is_delayed_hold() {
        let mut dag = TensorDag::new();
        let inp = dag.add_op(
            "conv0",
            balanced(),
            OpKind::TensorMac,
            TensorMeta::dense("T0", &["m", "n"], 784 * 128),
        );
        let c1 = dag.add_op(
            "conv1",
            balanced(),
            OpKind::TensorMac,
            TensorMeta::dense("T1", &["m", "n"], 784 * 128),
        );
        let c2 = dag.add_op(
            "conv2",
            balanced(),
            OpKind::TensorMac,
            TensorMeta::dense("T2", &["m", "n"], 784 * 128),
        );
        let add = dag.add_op(
            "add",
            balanced(),
            OpKind::TensorMac,
            TensorMeta::dense("T3", &["m", "n"], 784 * 128),
        );
        dag.add_edge(inp, c1, &["m", "k"]);
        dag.add_edge(c1, c2, &["m", "k"]);
        dag.add_edge(c2, add, &["m", "k"]);
        dag.add_edge(inp, add, &["m", "k"]); // skip: transitive via c1, c2
        let cls = classify(&dag);
        assert_eq!(cls.deps[3], Dependency::DelayedHold);
        assert_eq!(cls.deps[0], Dependency::Pipelineable);
    }

    /// Parallel multicast: two non-transitive consumers set the flag (Λ into
    /// CG ops 3 and 4).
    #[test]
    fn multicast_flag() {
        let mut dag = TensorDag::new();
        let p = dag.add_op("2b", skewed_u("m"), OpKind::TensorMac, meta("L"));
        let a = dag.add_op("3", skewed_u("m"), OpKind::TensorMac, meta("X"));
        let b = dag.add_op("4", skewed_u("m"), OpKind::TensorMac, meta("R"));
        dag.add_edge(p, a, &["m", "j"]);
        dag.add_edge(p, b, &["m", "j"]);
        let cls = classify(&dag);
        assert!(cls.is_multicast(p));
        assert!(!cls.is_multicast(a));
        assert_eq!(cls.numcast[p.0], 2);
    }

    /// Transitive edges do not count toward numcast.
    #[test]
    fn transitive_edges_do_not_multicast() {
        let mut dag = TensorDag::new();
        let a = dag.add_op("a", skewed_u("m"), OpKind::TensorMac, meta("T0"));
        let b = dag.add_op("b", skewed_u("m"), OpKind::TensorMac, meta("T1"));
        let c = dag.add_op("c", skewed_u("m"), OpKind::TensorMac, meta("T2"));
        dag.add_edge(a, b, &["m", "j"]);
        dag.add_edge(b, c, &["m", "j"]);
        dag.add_edge(a, c, &["m", "j"]); // transitive
        let cls = classify(&dag);
        assert!(!cls.is_multicast(a));
        assert_eq!(cls.numcast[a.0], 1);
        assert_eq!(cls.deps[2], Dependency::DelayedHold); // all-U path
    }

    /// Histogram sums to edge count; every edge gets exactly one class.
    #[test]
    fn histogram_partitions_edges() {
        let mut dag = TensorDag::new();
        let a = dag.add_op("a", skewed_u("m"), OpKind::TensorMac, meta("T0"));
        let b = dag.add_op("b", skewed_c(), OpKind::TensorMac, meta("T1"));
        let c = dag.add_op("c", skewed_u("m"), OpKind::TensorMac, meta("T2"));
        dag.add_edge(a, b, &["k", "n"]);
        dag.add_edge(b, c, &["m", "j"]);
        dag.add_edge(a, c, &["m", "j"]);
        let cls = classify(&dag);
        assert_eq!(cls.histogram().iter().sum::<usize>(), dag.edge_count());
    }
}
