//! Graphviz rendering of tensor dependency DAGs.
//!
//! Fig 7 of the paper presents Algorithm 2's output as a colored graph
//! (pipelineable = blue, delayed writeback = brick red, delayed hold = cyan,
//! parallel multicast = green). `paper_results` uses this module to emit
//! the same artifact (`results/fig07_*.dot`); edge colors are supplied by the caller so the
//! graph crate stays independent of the scheduler. [`to_dot_annotated`]
//! additionally groups nodes into per-phase clusters with caller-supplied
//! labels (phase index, SRAM split) so a *scheduled* DAG — e.g. one served
//! by `cello-serve` — can be visually audited.

use crate::dag::{EdgeId, NodeId, TensorDag};
use std::fmt::Write as _;

/// Renders the DAG as Graphviz `dot`. `edge_style(e)` returns
/// `(color, label)` per edge; node labels show name and dominance.
pub fn to_dot<F>(dag: &TensorDag, edge_style: F) -> String
where
    F: FnMut(EdgeId) -> (String, String),
{
    to_dot_annotated(dag, edge_style, |_| None, &[])
}

/// [`to_dot`] with schedule annotations: `phase_of(node)` assigns nodes to
/// phases (None = ungrouped), and nodes of phase `p` render inside a
/// `subgraph cluster_p` labeled `phases[p]` (falling back to `phase p` when
/// the label list is short). The caller supplies labels so the graph crate
/// stays independent of the scheduler — `cello-serve` passes each phase's
/// index plus its resolved pipeline/RF/CHORD SRAM split.
pub fn to_dot_annotated<F, G>(
    dag: &TensorDag,
    mut edge_style: F,
    mut phase_of: G,
    phases: &[String],
) -> String
where
    F: FnMut(EdgeId) -> (String, String),
    G: FnMut(NodeId) -> Option<usize>,
{
    let mut out = String::new();
    writeln!(out, "digraph cello {{").unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    writeln!(out, "  node [shape=circle fontsize=10];").unwrap();
    let mut grouped: Vec<(usize, Vec<String>)> = Vec::new();
    for (id, node) in dag.nodes() {
        let line = format!(
            "n{} [label=\"{}\\n{}\"];",
            id.0,
            node.name.replace('"', "'"),
            node.dominance
        );
        match phase_of(id) {
            Some(p) => match grouped.iter_mut().find(|(gp, _)| *gp == p) {
                Some((_, lines)) => lines.push(line),
                None => grouped.push((p, vec![line])),
            },
            None => writeln!(out, "  {line}").unwrap(),
        }
    }
    grouped.sort_by_key(|(p, _)| *p);
    for (p, lines) in grouped {
        writeln!(out, "  subgraph cluster_{p} {{").unwrap();
        let label = phases
            .get(p)
            .cloned()
            .unwrap_or_else(|| format!("phase {p}"));
        writeln!(out, "    label=\"{}\";", label.replace('"', "'")).unwrap();
        writeln!(out, "    style=rounded; fontsize=9;").unwrap();
        for line in lines {
            writeln!(out, "    {line}").unwrap();
        }
        writeln!(out, "  }}").unwrap();
    }
    for (id, edge) in dag.edges() {
        let (color, label) = edge_style(id);
        writeln!(
            out,
            "  n{} -> n{} [color=\"{}\" label=\"{}\" fontsize=9];",
            edge.src, edge.dst, color, label
        )
        .unwrap();
    }
    for (i, ext) in dag.externals().iter().enumerate() {
        writeln!(
            out,
            "  x{i} [label=\"{}\" shape=box style=dashed];",
            ext.meta.name
        )
        .unwrap();
        for (consumer, _) in &ext.consumers {
            writeln!(out, "  x{i} -> n{consumer} [style=dashed];").unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::NodeId;
    use crate::edge::TensorMeta;
    use crate::node::OpKind;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::RankExtent;

    #[test]
    fn dot_output_contains_nodes_edges_and_externals() {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 10),
                RankExtent::dense("k", 2),
                RankExtent::dense("n", 2),
            ],
        );
        let mut dag = TensorDag::new();
        let a = dag.add_op(
            "op0",
            spec.clone(),
            OpKind::TensorMac,
            TensorMeta::dense("T0", &["m", "n"], 20),
        );
        let b = dag.add_op(
            "op1",
            spec,
            OpKind::TensorMac,
            TensorMeta::dense("T1", &["m", "n"], 20),
        );
        dag.add_edge(a, b, &["m", "n"]);
        dag.add_external(
            TensorMeta::sparse("A", &["m", "k"], 100),
            &[(NodeId(0), &["m", "k"])],
        );
        let dot = to_dot(&dag, |_| ("blue".into(), "pipe".into()));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("color=\"blue\""));
        assert!(dot.contains("x0 [label=\"A\""));
        assert!(dot.contains("x0 -> n0"));
        assert!(dot.ends_with("}\n"));
        // The un-annotated render emits no clusters.
        assert!(!dot.contains("subgraph"));
    }

    /// Annotated output groups nodes into labeled per-phase clusters, keeps
    /// edges/externals intact, and falls back to `phase p` labels when the
    /// label list runs short.
    #[test]
    fn annotated_dot_groups_nodes_into_phase_clusters() {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 10),
                RankExtent::dense("k", 2),
                RankExtent::dense("n", 2),
            ],
        );
        let mut dag = TensorDag::new();
        let mut prev = None;
        for i in 0..3 {
            let id = dag.add_op(
                format!("op{i}"),
                spec.clone(),
                OpKind::TensorMac,
                TensorMeta::dense(format!("T{i}"), &["m", "n"], 20),
            );
            if let Some(p) = prev {
                dag.add_edge(p, id, &["m", "n"]);
            }
            prev = Some(id);
        }
        let labels = vec!["phase 0 | pb=65536 rf=16384 chord=966656".to_string()];
        let dot = to_dot_annotated(
            &dag,
            |_| ("blue".into(), String::new()),
            |n| if n.0 < 2 { Some(0) } else { Some(1) },
            &labels,
        );
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("subgraph cluster_1"));
        assert!(dot.contains("label=\"phase 0 | pb=65536 rf=16384 chord=966656\";"));
        assert!(dot.contains("label=\"phase 1\";"), "fallback label");
        assert!(dot.contains("n0 -> n1"));
        // Cluster 0 holds n0/n1, cluster 1 holds n2.
        let c0 = dot.find("cluster_0").unwrap();
        let c1 = dot.find("cluster_1").unwrap();
        let n2 = dot.find("n2 [label").unwrap();
        assert!(c0 < c1 && c1 < n2);
    }
}
