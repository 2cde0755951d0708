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

use crate::edge::{Edge, ExternalInput, TensorMeta};
use crate::node::{OpKind, OpNode};
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::RankId;

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
    /// Skew threshold used for node dominance (SCORE default 4.0).
    pub skew_threshold: f64,
}

impl TensorDag {
    /// Empty DAG with the default skew threshold.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            externals: Vec::new(),
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
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge::new(src.0, dst.0, dst_ranks));
        id
    }

    /// Adds a pre-built edge (for layout-annotated edges).
    pub fn add_edge_full(&mut self, edge: Edge) -> EdgeId {
        assert!(edge.src < edge.dst, "edges must go forward");
        assert!(edge.dst < self.nodes.len());
        let id = EdgeId(self.edges.len());
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

    /// Outgoing edges of a node.
    pub fn out_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.src == n.0)
            .map(|(id, _)| id)
            .collect()
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, n: NodeId) -> Vec<EdgeId> {
        self.edges()
            .filter(|(_, e)| e.dst == n.0)
            .map(|(id, _)| id)
            .collect()
    }

    /// Topological order. Nodes are inserted topologically (enforced by
    /// `add_edge`), so this is just insertion order — kept as a method so the
    /// invariant is assertable.
    pub fn topo_order(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId).collect()
    }

    /// Whether a path `from → … → to` exists (including the trivial length-1
    /// edge). `from == to` counts as reachable only via an actual cycle, which
    /// cannot exist here, so it returns `false` for distinct-free self queries.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from.0];
        while let Some(u) = stack.pop() {
            for e in &self.edges {
                if e.src == u {
                    if e.dst == to.0 {
                        return true;
                    }
                    if !seen[e.dst] {
                        seen[e.dst] = true;
                        stack.push(e.dst);
                    }
                }
            }
        }
        false
    }

    /// Longest path length (in edges) from `from` to `to`, or `None` if
    /// unreachable. O(V+E) DP over the topological order.
    pub fn longest_path_len(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.longest_path(from, to).map(|p| p.len() - 1)
    }

    /// The longest path from `from` to `to` as a node list (inclusive of both
    /// endpoints), or `None` if unreachable.
    pub fn longest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        const UNSET: i64 = i64::MIN;
        let n = self.nodes.len();
        let mut dist = vec![UNSET; n];
        let mut pred = vec![usize::MAX; n];
        dist[from.0] = 0;
        // Nodes are topologically ordered by index.
        for u in from.0..n {
            if dist[u] == UNSET {
                continue;
            }
            for e in &self.edges {
                if e.src == u && (dist[e.dst] == UNSET || dist[u] + 1 > dist[e.dst]) {
                    dist[e.dst] = dist[u] + 1;
                    pred[e.dst] = u;
                }
            }
        }
        if dist[to.0] == UNSET || from == to {
            return None;
        }
        let mut path = vec![to.0];
        let mut cur = to.0;
        while cur != from.0 {
            cur = pred[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path.into_iter().map(NodeId).collect())
    }

    /// Interior nodes of the longest path between an edge's endpoints —
    /// Algorithm 2's `for pathnode ∈ longestpath(edge)` iterates these.
    pub fn longest_path_interior(&self, e: EdgeId) -> Vec<NodeId> {
        let edge = &self.edges[e.0];
        match self.longest_path(NodeId(edge.src), NodeId(edge.dst)) {
            Some(path) if path.len() > 2 => path[1..path.len() - 1].to_vec(),
            _ => Vec::new(),
        }
    }

    /// Whether an edge is *transitive*: a longer path between its endpoints
    /// exists (footnote 5: "a transitive edge is the edge not on the longest
    /// path between the source and the destination").
    pub fn edge_is_transitive(&self, e: EdgeId) -> bool {
        let edge = &self.edges[e.0];
        self.longest_path_len(NodeId(edge.src), NodeId(edge.dst))
            .map(|len| len >= 2)
            .unwrap_or(false)
    }

    /// `pathnext(node, edge)`: the immediate successor of `node` along the
    /// longest path to the edge's destination (the destination itself for a
    /// non-transitive edge). Algorithm 2 consults this node's dominance.
    pub fn pathnext(&self, e: EdgeId) -> NodeId {
        let edge = &self.edges[e.0];
        match self.longest_path(NodeId(edge.src), NodeId(edge.dst)) {
            Some(path) if path.len() >= 2 => path[1],
            _ => NodeId(edge.dst),
        }
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
    fn reachability() {
        let dag = dag_with(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(dag.reachable(NodeId(0), NodeId(3)));
        assert!(dag.reachable(NodeId(1), NodeId(2)));
        assert!(!dag.reachable(NodeId(3), NodeId(0)));
        assert!(!dag.reachable(NodeId(0), NodeId(0)));
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
        let interior = dag.longest_path_interior(EdgeId(1));
        assert_eq!(interior, vec![NodeId(1), NodeId(2)]);
        // Non-transitive edge 0->1 has empty interior.
        assert!(dag.longest_path_interior(EdgeId(0)).is_empty());
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
            dag.longest_path_interior(EdgeId(7)),
            vec![NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn out_and_in_edges() {
        let dag = dag_with(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(dag.out_edges(NodeId(0)).len(), 2);
        assert_eq!(dag.in_edges(NodeId(2)).len(), 2);
        assert_eq!(dag.in_edges(NodeId(0)).len(), 0);
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
