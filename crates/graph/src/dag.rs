//! The tensor dependency DAG: topology queries Algorithm 2 depends on.
//!
//! Two graph-theoretic notions carry the paper's scheduling logic:
//!
//! - a **transitive edge** (footnote 5): an edge `u→v` that is *not* on the
//!   longest path between `u` and `v` — i.e. some other path `u→…→v` of
//!   length ≥ 2 exists. Transitive edges are exactly the *delayed downstream
//!   dependencies* (Challenge 1) that pipelining cannot serve;
//! - the **longest path** between the endpoints of a transitive edge: if any
//!   interior node on it is contraction-dominant (or breaks rank sharing),
//!   the delayed consumer cannot be served by holding tiles in the pipeline
//!   buffer, and the edge becomes `Delayed_writeback` (Algorithm 2).
//!
//! Both come from one DP, [`TensorDag::longest_paths_from`]: a pass over the
//! per-node edge lists in index order, O(V+E). Algorithm 2 runs one pass per
//! source node and reads all of that node's out-edges from it, O(V·(V+E))
//! per classification; the per-edge queries here each run one pass.

use crate::edge::{Edge, ExternalInput, TensorMeta};
use crate::node::{OpKind, OpNode};
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::RankId;
use std::sync::OnceLock;

/// Index of a node within its DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of an edge within its DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A DAG of tensor operations (paper Fig 1).
#[derive(Clone, Debug, Default)]
pub struct TensorDag {
    nodes: Vec<OpNode>,
    edges: Vec<Edge>,
    externals: Vec<ExternalInput>,
    /// Per-node out- and in-edge lists, built on first query and dropped
    /// by every edit.
    index: OnceLock<EdgeIndex>,
    /// Skew threshold used for node dominance (SCORE default 4.0).
    pub skew_threshold: f64,
}

/// Edge lists by source and by destination, each in insertion order.
#[derive(Clone, Debug)]
struct EdgeIndex {
    out_start: Vec<usize>,
    out: Vec<EdgeId>,
    in_start: Vec<usize>,
    inc: Vec<EdgeId>,
}

/// `dist` value of a node [`TensorDag::longest_paths_from`] did not reach.
pub const UNREACHED: usize = usize::MAX;

impl TensorDag {
    /// Empty DAG with the default skew threshold.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            externals: Vec::new(),
            index: OnceLock::new(),
            skew_threshold: 4.0,
        }
    }

    /// Adds an operation node; returns its id.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        spec: EinsumSpec,
        kind: OpKind,
        output: TensorMeta,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes
            .push(OpNode::new(name, spec, kind, output, self.skew_threshold));
        self.index = OnceLock::new();
        id
    }

    /// Adds a producer→consumer edge; `dst` must be a later node than `src`
    /// (nodes are inserted in a topological order by construction).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, dst_ranks: &[&str]) -> EdgeId {
        assert!(src.0 < self.nodes.len() && dst.0 < self.nodes.len());
        assert!(
            src.0 < dst.0,
            "edges must go forward in insertion order ({} -> {})",
            src.0,
            dst.0
        );
        self.push_edge(Edge::new(src.0, dst.0, dst_ranks))
    }

    /// Adds a pre-built edge (for layout-annotated edges).
    pub fn add_edge_full(&mut self, edge: Edge) -> EdgeId {
        assert!(edge.src < edge.dst, "edges must go forward");
        assert!(edge.dst < self.nodes.len());
        self.push_edge(edge)
    }

    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.index = OnceLock::new();
        self.edges.push(edge);
        id
    }

    /// Registers an external DRAM-resident input tensor and its consumers.
    pub fn add_external(&mut self, meta: TensorMeta, consumers: &[(NodeId, &[&str])]) {
        self.externals.push(ExternalInput {
            meta,
            consumers: consumers
                .iter()
                .map(|(n, ranks)| (n.0, ranks.iter().map(|r| RankId::new(r)).collect()))
                .collect(),
        });
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id.0]
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &OpNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// External inputs.
    pub fn externals(&self) -> &[ExternalInput] {
        &self.externals
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing edges of a node, in insertion order.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        let ix = self.index();
        &ix.out[ix.out_start[n.0]..ix.out_start[n.0 + 1]]
    }

    /// Incoming edges of a node, in insertion order.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        let ix = self.index();
        &ix.inc[ix.in_start[n.0]..ix.in_start[n.0 + 1]]
    }

    /// The edge index, built on first use by a stable counting sort of the
    /// edges by source and by destination: O(V+E), four allocations, and
    /// each list keeps insertion order. DAG building never pays for it.
    fn index(&self) -> &EdgeIndex {
        self.index.get_or_init(|| {
            let n = self.nodes.len();
            let bucket = |key: fn(&Edge) -> usize| {
                let mut start = vec![0usize; n + 1];
                for e in &self.edges {
                    start[key(e) + 1] += 1;
                }
                for i in 0..n {
                    start[i + 1] += start[i];
                }
                let mut next = start.clone();
                let mut ids = vec![EdgeId(0); self.edges.len()];
                for (i, e) in self.edges.iter().enumerate() {
                    ids[next[key(e)]] = EdgeId(i);
                    next[key(e)] += 1;
                }
                (start, ids)
            };
            let (out_start, out) = bucket(|e| e.src);
            let (in_start, inc) = bucket(|e| e.dst);
            EdgeIndex {
                out_start,
                out,
                in_start,
                inc,
            }
        })
    }

    /// Topological order. Nodes are inserted topologically (enforced by
    /// `add_edge`), so this is just insertion order — kept as a method so the
    /// invariant is assertable.
    pub fn topo_order(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// One longest-path pass from `from`, the DP every path query here
    /// reads: O(V+E) over the nodes `from..=to` in index order (a
    /// topological order), relaxing each node's out-edges in insertion
    /// order. On return, for every node `v` in `from..=to`, `dist[v]` is the
    /// longest distance in edges from `from` ([`UNREACHED`] if there is no
    /// path) and, for a reached `v != from`, `pred[v]` is its predecessor on
    /// that path. A strict `>` keeps the first predecessor reaching the
    /// maximum, so ties go to the lowest-index node. Both buffers hold one
    /// entry per node and can be reused across passes; entries outside
    /// `from..=to` mean nothing.
    pub fn longest_paths_from(
        &self,
        from: NodeId,
        to: NodeId,
        dist: &mut [usize],
        pred: &mut [usize],
    ) {
        dist[from.0..].fill(UNREACHED);
        dist[from.0] = 0;
        for u in from.0..=to.0 {
            if dist[u] == UNREACHED {
                continue;
            }
            for &e in self.out_edges(NodeId(u)) {
                let v = self.edges[e.0].dst;
                if dist[v] == UNREACHED || dist[u] + 1 > dist[v] {
                    dist[v] = dist[u] + 1;
                    pred[v] = u;
                }
            }
        }
    }

    /// One pass from `from` up to `to`, into fresh buffers.
    fn pass(&self, from: NodeId, to: NodeId) -> (Vec<usize>, Vec<usize>) {
        let mut dist = vec![UNREACHED; self.nodes.len()];
        let mut pred = vec![0; self.nodes.len()];
        self.longest_paths_from(from, to, &mut dist, &mut pred);
        (dist, pred)
    }

    /// Longest path length (in edges) from `from` to `to`, or `None` if
    /// unreachable. One O(V+E) pass.
    pub fn longest_path_len(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.longest_path(from, to).map(|p| p.len() - 1)
    }

    /// The longest path from `from` to `to` as a node list (inclusive of both
    /// endpoints), or `None` if unreachable. One O(V+E) pass.
    pub fn longest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from.0 >= to.0 {
            return None;
        }
        let (dist, pred) = self.pass(from, to);
        if dist[to.0] == UNREACHED {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to.0;
        while cur != from.0 {
            cur = pred[cur];
            path.push(NodeId(cur));
        }
        path.reverse();
        Some(path)
    }

    /// Whether an edge is *transitive*: a longer path between its endpoints
    /// exists (footnote 5: "a transitive edge is the edge not on the longest
    /// path between the source and the destination"). One O(V+E) pass.
    pub fn edge_is_transitive(&self, e: EdgeId) -> bool {
        let edge = &self.edges[e.0];
        self.pass(NodeId(edge.src), NodeId(edge.dst)).0[edge.dst] >= 2
    }

    /// `pathnext(node, edge)`: the immediate successor of `node` along the
    /// longest path to the edge's destination (the destination itself for a
    /// non-transitive edge). Algorithm 2 consults this node's dominance.
    /// One O(V+E) pass.
    pub fn pathnext(&self, e: EdgeId) -> NodeId {
        let edge = &self.edges[e.0];
        let (_, pred) = self.pass(NodeId(edge.src), NodeId(edge.dst));
        NodeId(path_successor(&pred, edge.src, edge.dst))
    }

    /// Brute-force transitivity oracle for testing: DFS over all paths.
    pub fn edge_is_transitive_bruteforce(&self, e: EdgeId) -> bool {
        let edge = &self.edges[e.0];
        // Search for a path src -> ... -> dst with >= 2 edges.
        fn dfs(dag: &TensorDag, cur: usize, target: usize, depth: usize) -> bool {
            if cur == target && depth >= 2 {
                return true;
            }
            if cur == target {
                return false;
            }
            dag.edges
                .iter()
                .filter(|e| e.src == cur)
                .any(|e| dfs(dag, e.dst, target, depth + 1))
        }
        self.edges
            .iter()
            .filter(|other| other.src == edge.src && other.dst != edge.dst)
            .any(|other| dfs(self, other.dst, edge.dst, 1))
    }
}

/// The node after `from` on the path [`TensorDag::longest_paths_from`]
/// recorded in `pred` for the reached node `to` (`to` itself when the path
/// is one edge).
pub fn path_successor(pred: &[usize], from: usize, to: usize) -> usize {
    let mut cur = to;
    while pred[cur] != from {
        cur = pred[cur];
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_tensor::shape::RankExtent;

    fn dummy_spec() -> EinsumSpec {
        EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 100),
                RankExtent::dense("k", 8),
                RankExtent::dense("n", 8),
            ],
        )
    }

    fn dag_with(n: usize, edges: &[(usize, usize)]) -> TensorDag {
        let mut dag = TensorDag::new();
        for i in 0..n {
            dag.add_op(
                format!("op{i}"),
                dummy_spec(),
                OpKind::TensorMac,
                TensorMeta::dense(format!("T{i}"), &["m", "n"], 800),
            );
        }
        for &(s, d) in edges {
            dag.add_edge(NodeId(s), NodeId(d), &["m", "n"]);
        }
        dag
    }

    #[test]
    fn longest_path_diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus direct 0 -> 3.
        let dag = dag_with(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]);
        assert_eq!(dag.longest_path_len(NodeId(0), NodeId(3)), Some(2));
        let p = dag.longest_path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[2], NodeId(3));
    }

    #[test]
    fn transitive_edge_detection() {
        let dag = dag_with(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        // 0->3 is transitive (0->1->2->3 exists); others are not.
        let ids: Vec<EdgeId> = dag.edges().map(|(id, _)| id).collect();
        let flags: Vec<bool> = ids.iter().map(|&e| dag.edge_is_transitive(e)).collect();
        assert_eq!(flags, vec![false, true, false, false]);
        for &e in &ids {
            assert_eq!(
                dag.edge_is_transitive(e),
                dag.edge_is_transitive_bruteforce(e),
                "mismatch on {e:?}"
            );
        }
    }

    #[test]
    fn longest_path_interior_of_transitive_edge() {
        let dag = dag_with(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        // Edge 0->3 has interior {1, 2}.
        assert_eq!(
            dag.longest_path(NodeId(0), NodeId(3)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
        );
        // Non-transitive edge 0->1 has empty interior.
        assert_eq!(
            dag.longest_path(NodeId(0), NodeId(1)),
            Some(vec![NodeId(0), NodeId(1)])
        );
    }

    #[test]
    fn pathnext_follows_longest_path() {
        let dag = dag_with(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        // For transitive edge 0->3, pathnext is 1 (start of the long path).
        assert_eq!(dag.pathnext(EdgeId(1)), NodeId(1));
        // For direct edge 0->1, pathnext is the destination.
        assert_eq!(dag.pathnext(EdgeId(0)), NodeId(1));
    }

    #[test]
    fn cg_iteration_shape_transitivity() {
        // Mini-CG: 1 -> 2 -> 3, 2 -> 4, 1 -> 4 (S reused by 4), 4 -> 5,
        // 4 -> 7 (via 5 -> 6 -> 7): the paper's delayed writebacks.
        let dag = dag_with(
            7,
            &[
                (0, 1), // 1->2 : S
                (1, 2), // 2->3 : Λ
                (1, 3), // 2->4 : Λ
                (0, 3), // 1->4 : S (transitive via 2)
                (3, 4), // 4->5 : R
                (4, 5), // 5->6 : Γ
                (5, 6), // 6->7 : Φ
                (3, 6), // 4->7 : R (transitive via 5,6)
            ],
        );
        let trans: Vec<bool> = dag
            .edges()
            .map(|(id, _)| dag.edge_is_transitive(id))
            .collect();
        assert_eq!(
            trans,
            vec![false, false, false, true, false, false, false, true]
        );
        // Interior of 4->7 is {5, 6}.
        assert_eq!(
            dag.longest_path(NodeId(3), NodeId(6)),
            Some(vec![NodeId(3), NodeId(4), NodeId(5), NodeId(6)])
        );
    }

    #[test]
    fn out_and_in_edges() {
        let mut dag = dag_with(3, &[(0, 2), (0, 1), (1, 2)]);
        assert_eq!(dag.out_edges(NodeId(0)), [EdgeId(0), EdgeId(1)]);
        assert_eq!(dag.in_edges(NodeId(2)), [EdgeId(0), EdgeId(2)]);
        assert!(dag.in_edges(NodeId(0)).is_empty());
        // An edit after a query is seen by the next query.
        dag.add_op(
            "op3",
            dummy_spec(),
            OpKind::TensorMac,
            TensorMeta::dense("T3", &["m", "n"], 800),
        );
        let e = dag.add_edge(NodeId(0), NodeId(3), &["m", "n"]);
        assert_eq!(dag.out_edges(NodeId(0)), [EdgeId(0), EdgeId(1), e]);
        assert_eq!(dag.in_edges(NodeId(3)), [e]);
    }

    #[test]
    fn externals_registered() {
        let mut dag = dag_with(2, &[(0, 1)]);
        dag.add_external(
            TensorMeta::sparse("A", &["m", "k"], 1000),
            &[(NodeId(0), &["m", "k"])],
        );
        assert_eq!(dag.externals().len(), 1);
        assert_eq!(dag.externals()[0].consumers[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_edge_rejected() {
        let mut dag = dag_with(2, &[]);
        dag.add_edge(NodeId(1), NodeId(0), &["m"]);
    }
}
