//! Property tests on the DAG IR and SCORE over *random* DAGs: transitivity
//! detection agrees with brute force, Algorithm 2 totals are consistent,
//! every scheduler preset emits valid schedules, and CELLO's traffic never
//! exceeds the op-by-op oracle's.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule, ScheduleOptions};
use cello::core::score::classify::classify;
use cello::graph::dag::{NodeId, TensorDag};
use cello::graph::edge::TensorMeta;
use cello::graph::node::OpKind;
use cello::sim::baselines::{run_config, ConfigKind};
use cello::tensor::einsum::EinsumSpec;
use cello::tensor::gen::{for_cases, SplitMix64};
use cello::tensor::shape::{RankExtent, RankId};

/// Three node flavors with distinct dominance.
fn spec(flavor: u8) -> EinsumSpec {
    match flavor % 3 {
        0 => EinsumSpec::from_parts(
            // uncontracted dominant (skewed update)
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
            // contracted dominant
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
            // balanced
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 512),
                RankExtent::dense("k", 512),
                RankExtent::dense("n", 512),
            ],
        ),
    }
}

fn dst_ranks(flavor: u8) -> &'static [&'static str] {
    match flavor % 3 {
        0 => &["m", "j"],
        1 => &["k", "n"],
        _ => &["m", "k"],
    }
}

/// Builds a random DAG from (flavors, edge pairs).
fn build(flavors: &[u8], raw_edges: &[(usize, usize)]) -> TensorDag {
    let mut dag = TensorDag::new();
    for (i, &f) in flavors.iter().enumerate() {
        let words = match f % 3 {
            0 => 50_000 * 16,
            1 => 256,
            _ => 512 * 512,
        };
        dag.add_op(
            format!("op{i}"),
            spec(f),
            if f % 5 == 4 {
                OpKind::Inverse
            } else {
                OpKind::TensorMac
            },
            TensorMeta::dense(format!("T{i}"), &["m", "n"], words),
        );
    }
    let n = flavors.len();
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in raw_edges {
        let (src, dst) = (a % n, b % n);
        if src < dst && seen.insert((src, dst)) {
            dag.add_edge(NodeId(src), NodeId(dst), dst_ranks(flavors[dst]));
        }
    }
    dag
}

/// A random DAG of 2..`max_nodes` nodes (flavors 0..15) and 0..`max_edges`
/// raw edge draws over `0..max_nodes` (folded onto the nodes by `build`).
fn random_dag(rng: &mut SplitMix64, max_nodes: u64, max_edges: u64) -> TensorDag {
    let flavors: Vec<u8> = (0..2 + rng.below(max_nodes - 2))
        .map(|_| rng.below(15) as u8)
        .collect();
    let edges: Vec<(usize, usize)> = (0..rng.below(max_edges))
        .map(|_| (rng.below(max_nodes) as usize, rng.below(max_nodes) as usize))
        .collect();
    build(&flavors, &edges)
}

/// Longest-path transitivity detection matches brute-force path search.
#[test]
fn transitivity_matches_bruteforce() {
    for_cases("transitivity_matches_bruteforce", 48, |rng| {
        let dag = random_dag(rng, 12, 30);
        for (eid, _) in dag.edges() {
            assert_eq!(
                dag.edge_is_transitive(eid),
                dag.edge_is_transitive_bruteforce(eid),
                "edge {:?}",
                eid
            );
        }
    });
}

/// Algorithm 2 assigns every edge exactly one dependency; numcast counts
/// non-transitive out-edges; multicast ⇔ numcast > 1.
#[test]
fn classification_totals() {
    for_cases("classification_totals", 48, |rng| {
        let dag = random_dag(rng, 12, 30);
        let cls = classify(&dag);
        assert_eq!(cls.histogram().iter().sum::<usize>(), dag.edge_count());
        for (nid, _) in dag.nodes() {
            let non_trans = dag
                .out_edges(nid)
                .iter()
                .filter(|&&e| !cls.transitive[e.0])
                .count() as u32;
            assert_eq!(cls.numcast[nid.0], non_trans);
            assert_eq!(cls.parallel_multicast[nid.0], non_trans > 1);
        }
    });
}

/// Every scheduler preset yields a validating schedule on random DAGs.
#[test]
fn schedules_always_validate() {
    for_cases("schedules_always_validate", 48, |rng| {
        let dag = random_dag(rng, 12, 30);
        for opts in [
            ScheduleOptions::best_intra(),
            ScheduleOptions::flat(),
            ScheduleOptions::set_like(),
            ScheduleOptions::prelude_only(),
            ScheduleOptions::cello(),
        ] {
            let s = build_schedule(&dag, opts);
            assert!(s.validate(&dag).is_ok(), "{:?}", opts);
            // Every node scheduled exactly once.
            let total: usize = s.phases.iter().map(|p| p.ops.len()).sum();
            assert_eq!(total, dag.node_count());
        }
    });
}

/// On arbitrary DAGs, CELLO's DRAM traffic never exceeds the op-by-op
/// oracle's, and FLAT's never exceeds it either.
#[test]
fn traffic_ordering_on_random_dags() {
    for_cases("traffic_ordering_on_random_dags", 48, |rng| {
        let dag = random_dag(rng, 10, 24);
        let accel = CelloConfig::paper();
        let oracle = run_config(&dag, ConfigKind::Flexagon, &accel, "prop");
        let flat = run_config(&dag, ConfigKind::Flat, &accel, "prop");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "prop");
        assert!(flat.dram_bytes <= oracle.dram_bytes);
        assert!(cello.dram_bytes <= oracle.dram_bytes);
    });
}

/// Terminal outputs always reach DRAM: traffic is at least the terminal
/// footprint under every configuration.
#[test]
fn terminals_always_written() {
    for_cases("terminals_always_written", 48, |rng| {
        let dag = random_dag(rng, 10, 24);
        let accel = CelloConfig::paper();
        let wb = accel.word_bytes as u64;
        let term_bytes: u64 = dag
            .nodes()
            .filter(|(id, _)| dag.out_edges(*id).is_empty())
            .map(|(_, n)| n.output.words * wb)
            .sum();
        for kind in [ConfigKind::Flexagon, ConfigKind::Cello] {
            let r = run_config(&dag, kind, &accel, "prop");
            assert!(
                r.stats.dram_write_bytes >= term_bytes,
                "{}: wrote {} < terminals {}",
                kind.label(),
                r.stats.dram_write_bytes,
                term_bytes
            );
        }
    });
}
