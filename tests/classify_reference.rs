//! Differential test for Algorithm 2: `classify` (one longest-path pass per
//! source node over the DAG's edge index) against the per-edge reference it
//! replaced, which re-ran an all-edges longest-path scan for every query.
//! The two must agree bit for bit on every workload builder, on the sparse
//! CG DAGs of the `data/*.mtx` fixtures, and on random forward DAGs —
//! parallel edges, inverse ops and rank breaks included. On the random
//! DAGs the path queries are also checked against the reference path and
//! against brute-force transitivity.

use cello::core::score::classify::{classify, Classification, Dependency};
use cello::graph::dag::{EdgeId, NodeId, TensorDag};
use cello::graph::edge::TensorMeta;
use cello::graph::node::{Dominance, OpKind};
use cello::tensor::einsum::EinsumSpec;
use cello::tensor::gen::SplitMix64;
use cello::tensor::shape::{RankExtent, RankId};
use cello::workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello::workloads::datasets::{
    load_matrix_market, CORA, FV1, G2_CIRCUIT, NASA4704, PROTEIN, SHALLOW_WATER1,
};
use cello::workloads::gcn::{build_gcn_dag, GcnParams};
use cello::workloads::hpcg::{build_hpcg_dag, HpcgParams};
use cello::workloads::power_iter::{build_power_iter_dag, PowerIterParams};
use cello::workloads::resnet::{build_resnet_block_dag, build_resnet_stage_dag, ResNetBlockParams};

/// The reference DP: every node scans every edge, O(V·E).
fn reference_longest_path(dag: &TensorDag, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    const UNSET: i64 = i64::MIN;
    let n = dag.node_count();
    let mut dist = vec![UNSET; n];
    let mut pred = vec![usize::MAX; n];
    dist[from.0] = 0;
    for u in from.0..n {
        if dist[u] == UNSET {
            continue;
        }
        for (_, e) in dag.edges() {
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

fn reference_is_transitive(dag: &TensorDag, e: EdgeId) -> bool {
    let edge = dag.edge(e);
    reference_longest_path(dag, NodeId(edge.src), NodeId(edge.dst)).is_some_and(|p| p.len() > 2)
}

fn reference_pathnext(dag: &TensorDag, e: EdgeId) -> NodeId {
    let edge = dag.edge(e);
    match reference_longest_path(dag, NodeId(edge.src), NodeId(edge.dst)) {
        Some(path) if path.len() >= 2 => path[1],
        _ => NodeId(edge.dst),
    }
}

fn reference_consumer_shares(dag: &TensorDag, src: NodeId, consumer: NodeId) -> bool {
    let dominant = dag.node(consumer).spec.dominant().rank;
    dag.edges()
        .filter(|(_, e)| e.src == src.0 && e.dst == consumer.0)
        .map(|(_, e)| e.shares_rank(dominant))
        .next()
        .unwrap_or(true)
}

/// Algorithm 2 as it was written before the edge index: the same rules in
/// the same order, each path query a fresh all-edges scan.
fn reference_classify(dag: &TensorDag) -> Classification {
    let ne = dag.edge_count();
    let nn = dag.node_count();
    let mut deps = vec![Dependency::Sequential; ne];
    let mut transitive = vec![false; ne];
    let mut numcast = vec![0u32; nn];
    let mut parallel_multicast = vec![false; nn];

    for (nid, node) in dag.nodes() {
        let outs: Vec<EdgeId> = dag
            .edges()
            .filter(|(_, e)| e.src == nid.0)
            .map(|(id, _)| id)
            .collect();
        for eid in outs {
            let edge = dag.edge(eid);
            let is_trans = reference_is_transitive(dag, eid);
            transitive[eid.0] = is_trans;
            if !is_trans {
                numcast[nid.0] += 1;
                if numcast[nid.0] > 1 {
                    parallel_multicast[nid.0] = true;
                }
            }
            let src_contracted = node.dominance == Dominance::Contracted;
            let pathnext = reference_pathnext(dag, eid);
            let pathnext_shared = reference_consumer_shares(dag, nid, pathnext);
            let mut dep = if !src_contracted && !is_trans && pathnext_shared {
                Dependency::Pipelineable
            } else {
                Dependency::Sequential
            };
            if src_contracted || node.kind != OpKind::TensorMac {
                dep = Dependency::Sequential;
            }
            let dst_dominant = dag.node(NodeId(edge.dst)).spec.dominant().rank;
            if !edge.shares_rank(dst_dominant) {
                dep = Dependency::Sequential;
            }
            if !src_contracted && is_trans && pathnext_shared {
                let path = reference_longest_path(dag, nid, NodeId(edge.dst))
                    .expect("transitive edge implies a path");
                let mut writeback = false;
                for w in 1..path.len() - 1 {
                    let pathnode = path[w];
                    let next_shared = reference_consumer_shares(dag, pathnode, path[w + 1]);
                    if dag.node(pathnode).dominance == Dominance::Contracted || !next_shared {
                        writeback = true;
                        break;
                    }
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

fn assert_same_classification(dag: &TensorDag, label: &str) {
    let got = classify(dag);
    let want = reference_classify(dag);
    assert_eq!(got.deps, want.deps, "{label}: deps");
    assert_eq!(got.transitive, want.transitive, "{label}: transitive");
    assert_eq!(got.numcast, want.numcast, "{label}: numcast");
    assert_eq!(
        got.parallel_multicast, want.parallel_multicast,
        "{label}: parallel_multicast"
    );
}

#[test]
fn workload_builders_match_reference() {
    let mut dags: Vec<(String, TensorDag)> = Vec::new();
    for d in [FV1, SHALLOW_WATER1, G2_CIRCUIT] {
        for iterations in [1, 5] {
            dags.push((
                format!("cg/{}x{iterations}", d.name),
                build_cg_dag(&CgParams::from_dataset(&d, 16, iterations)),
            ));
        }
    }
    dags.push((
        "bicgstab/nasa4704".into(),
        build_bicgstab_dag(&BicgParams::from_dataset(&NASA4704, 16, 3)),
    ));
    for nx in [16, 48] {
        dags.push((
            format!("hpcg/nx{nx}"),
            build_hpcg_dag(&HpcgParams {
                nx,
                n: 16,
                iterations: 3,
            }),
        ));
    }
    for d in [CORA, PROTEIN] {
        dags.push((
            format!("gcn/{}", d.name),
            build_gcn_dag(&GcnParams::from_dataset(&d, 3)),
        ));
    }
    let block = ResNetBlockParams::conv3x();
    dags.push(("resnet/block".into(), build_resnet_block_dag(&block)));
    dags.push(("resnet/stage4".into(), build_resnet_stage_dag(&block, 4)));
    dags.push((
        "power_iter/g2".into(),
        build_power_iter_dag(&PowerIterParams::from_dataset(&G2_CIRCUIT, 4)),
    ));
    for (label, dag) in &dags {
        assert_same_classification(dag, label);
    }
}

#[test]
fn sparse_cg_fixtures_match_reference() {
    for name in ["arrowhead_768", "pde_512", "powlaw_640", "tridiag_1024"] {
        let path = format!("{}/data/{name}.mtx", env!("CARGO_MANIFEST_DIR"));
        let a = load_matrix_market(std::path::Path::new(&path)).expect("fixture loads");
        let dag = build_cg_dag(&CgParams::from_csr(&a, 16, 5));
        assert_same_classification(&dag, name);
    }
}

/// One of four op flavors: uncontracted-dominant, contracted-dominant,
/// balanced, or a non-MAC inverse.
fn random_op(rng: &mut SplitMix64) -> (EinsumSpec, OpKind) {
    let flavor = rng.below(4);
    let spec = match flavor {
        0 => EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[
                RankExtent::dense("m", 50_000),
                RankExtent::dense("j", 16),
                RankExtent::dense("n", 16),
            ],
        ),
        1 => EinsumSpec::from_parts(
            vec![
                vec![RankId::new("k"), RankId::new("p")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("p"), RankId::new("n")],
            &[
                RankExtent::dense("k", 50_000),
                RankExtent::dense("p", 16),
                RankExtent::dense("n", 16),
            ],
        ),
        _ => EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 512),
                RankExtent::dense("k", 512),
                RankExtent::dense("n", 512),
            ],
        ),
    };
    let kind = if flavor == 3 {
        OpKind::Inverse
    } else {
        OpKind::TensorMac
    };
    (spec, kind)
}

/// A random forward DAG: `nodes` ops and up to `2·nodes` edges, drawn with
/// repeats so parallel edges occur, each seen under a random rank pair so
/// both shared and unshared consumers occur.
fn random_dag(rng: &mut SplitMix64, nodes: usize) -> TensorDag {
    const RANKS: [[&str; 2]; 5] = [["m", "j"], ["k", "n"], ["m", "k"], ["j", "n"], ["p", "n"]];
    let mut dag = TensorDag::new();
    for i in 0..nodes {
        let (spec, kind) = random_op(rng);
        dag.add_op(
            format!("op{i}"),
            spec,
            kind,
            TensorMeta::dense(format!("T{i}"), &["m", "n"], 4096),
        );
    }
    let edges = rng.below(2 * nodes as u64 + 1);
    for _ in 0..edges {
        let a = rng.below(nodes as u64) as usize;
        let b = rng.below(nodes as u64) as usize;
        if a != b {
            let ranks = RANKS[rng.below(RANKS.len() as u64) as usize];
            dag.add_edge(NodeId(a.min(b)), NodeId(a.max(b)), &ranks);
        }
    }
    dag
}

#[test]
fn random_dags_match_reference() {
    let mut rng = SplitMix64::new(0xA162);
    let mut kinds = [0usize; 4];
    for case in 0..600 {
        let nodes = 2 + rng.below(15) as usize;
        let dag = random_dag(&mut rng, nodes);
        let label = format!("random case {case}");
        assert_same_classification(&dag, &label);
        for (total, n) in kinds.iter_mut().zip(classify(&dag).histogram()) {
            *total += n;
        }
        for (eid, _) in dag.edges() {
            assert_eq!(
                dag.edge_is_transitive(eid),
                dag.edge_is_transitive_bruteforce(eid),
                "{label}: transitivity of {eid:?}"
            );
            assert_eq!(
                dag.pathnext(eid),
                reference_pathnext(&dag, eid),
                "{label}: pathnext of {eid:?}"
            );
        }
        for from in 0..nodes {
            for to in 0..nodes {
                let (from, to) = (NodeId(from), NodeId(to));
                let path = dag.longest_path(from, to);
                assert_eq!(
                    path,
                    reference_longest_path(&dag, from, to),
                    "{label}: path {from:?} -> {to:?}"
                );
                assert_eq!(
                    dag.longest_path_len(from, to),
                    path.map(|p| p.len() - 1),
                    "{label}: length {from:?} -> {to:?}"
                );
            }
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every dependency kind occurs: {kinds:?}"
    );
}
