//! Cross-crate integration tests: the qualitative *shapes* of the paper's
//! results, on problem sizes small enough for debug-mode CI.
//!
//! These are the end-to-end guarantees DESIGN.md §6 promises: traffic
//! orderings between configurations, the cold lower bound, capacity
//! monotonicity, and CHORD conservation through a whole workload run.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule, ScheduleOptions};
use cello::sim::backends::ChordBackend;
use cello::sim::baselines::{run_config, ConfigKind};
use cello::sim::engine::run_schedule;
use cello::workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello::workloads::gcn::{build_gcn_dag, GcnParams};
use cello::workloads::resnet::{build_resnet_block_dag, ResNetBlockParams};

fn small_cg(n: u64, iterations: u32) -> cello::graph::dag::TensorDag {
    build_cg_dag(&CgParams {
        m: 30_000,
        occupancy: 4.0,
        a_payload_words: 2 * 120_000 + 30_001,
        n,
        nprime: n,
        iterations,
        a_occupancy: None,
    })
}

/// CELLO never moves more DRAM bytes than any other configuration, on any of
/// the four workload families.
#[test]
fn cello_dominates_traffic_everywhere() {
    let accel = CelloConfig::paper();
    let dags: Vec<(&str, cello::graph::dag::TensorDag)> = vec![
        ("cg", small_cg(16, 3)),
        (
            "bicgstab",
            build_bicgstab_dag(&BicgParams {
                m: 30_000,
                occupancy: 4.0,
                a_payload_words: 2 * 120_000 + 30_001,
                n: 1,
                iterations: 3,
            }),
        ),
        (
            "gcn",
            build_gcn_dag(&GcnParams {
                vertices: 2708,
                nnz: 9464,
                features: 1433,
                outputs: 7,
                layers: 1,
            }),
        ),
        (
            "resnet",
            build_resnet_block_dag(&ResNetBlockParams::conv3x()),
        ),
    ];
    for (name, dag) in &dags {
        let cello = run_config(dag, ConfigKind::Cello, &accel, name);
        for kind in [
            ConfigKind::Flexagon,
            ConfigKind::Flat,
            ConfigKind::SetLike,
            ConfigKind::PreludeOnly,
        ] {
            let other = run_config(dag, kind, &accel, name);
            assert!(
                cello.dram_bytes <= other.dram_bytes,
                "{name}: CELLO {} > {} {}",
                cello.dram_bytes,
                kind.label(),
                other.dram_bytes
            );
        }
    }
}

/// With unbounded CHORD capacity, CELLO's DRAM traffic equals the global cold
/// bound exactly: every external read once, every terminal output written once.
#[test]
fn infinite_capacity_reaches_cold_bound() {
    let dag = small_cg(8, 3);
    let accel = CelloConfig::paper().with_sram_bytes(1 << 40);
    let r = run_config(&dag, ConfigKind::Cello, &accel, "cg");
    let wb = accel.word_bytes as u64;
    let ext_bytes: u64 = dag.externals().iter().map(|e| e.meta.words * wb).sum();
    let term_bytes: u64 = dag
        .nodes()
        .filter(|(id, _)| dag.out_edges(*id).is_empty())
        .map(|(_, n)| n.output.words * wb)
        .sum();
    assert_eq!(r.dram_bytes, ext_bytes + term_bytes);
}

/// DRAM traffic is monotonically non-increasing in CHORD capacity (Fig 16b's
/// underlying mechanism).
#[test]
fn capacity_monotonicity() {
    let dag = small_cg(16, 4);
    let mut prev = u64::MAX;
    for mb in [1u64, 2, 4, 8, 16, 64] {
        let accel = CelloConfig::paper().with_sram_bytes(mb << 20);
        let r = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        assert!(
            r.dram_bytes <= prev,
            "{mb} MB: {} > previous {prev}",
            r.dram_bytes
        );
        prev = r.dram_bytes;
    }
}

/// MAC counts are a property of the workload, not the configuration.
#[test]
fn macs_invariant_across_configs() {
    let dag = small_cg(4, 2);
    let accel = CelloConfig::paper();
    let macs: Vec<u64> = ConfigKind::all()
        .into_iter()
        .map(|k| run_config(&dag, k, &accel, "cg").macs)
        .collect();
    assert!(macs.windows(2).all(|w| w[0] == w[1]), "{macs:?}");
}

/// Every configuration produces a valid topological schedule on every
/// workload family.
#[test]
fn all_schedules_validate() {
    let dags = vec![
        small_cg(16, 2),
        build_bicgstab_dag(&BicgParams {
            m: 10_000,
            occupancy: 4.0,
            a_payload_words: 2 * 40_000 + 10_001,
            n: 1,
            iterations: 2,
        }),
        build_gcn_dag(&GcnParams {
            vertices: 1000,
            nnz: 5000,
            features: 64,
            outputs: 7,
            layers: 2,
        }),
        build_resnet_block_dag(&ResNetBlockParams::conv3x()),
    ];
    for dag in &dags {
        for kind in ConfigKind::all() {
            let s = build_schedule(dag, kind.schedule_options());
            s.validate(dag)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        }
    }
}

/// CHORD conserves every word through a full CG run (produced = resident +
/// spilled + evicted + dropped), and the RIFF table never overflows.
#[test]
fn chord_conservation_through_full_run() {
    let dag = small_cg(16, 4);
    let accel = CelloConfig::paper();
    let schedule = build_schedule(&dag, ScheduleOptions::cello());
    let mut backend = ChordBackend::new(accel.chord_config());
    let _ = run_schedule(&dag, &schedule, &accel, &mut backend, "CELLO", "cg");
    backend.chord().check_conservation().unwrap();
    assert!(backend.chord().table().len() <= 64);
}

/// The PRELUDE-only ablation is sandwiched between the explicit oracle and
/// full CELLO — and the gap to CELLO widens with the working set (Fig 16c).
#[test]
fn prelude_sandwich() {
    let accel = CelloConfig::paper();
    for n in [1u64, 16] {
        let dag = small_cg(n, 4);
        let flexagon = run_config(&dag, ConfigKind::Flexagon, &accel, "cg");
        let prelude = run_config(&dag, ConfigKind::PreludeOnly, &accel, "cg");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        assert!(prelude.dram_bytes <= flexagon.dram_bytes);
        assert!(cello.dram_bytes <= prelude.dram_bytes);
    }
}

/// Bandwidth only rescales memory-bound time: at 4x the bandwidth, no run is
/// slower, and memory-bound runs get close to 4x faster.
#[test]
fn bandwidth_scaling_sane() {
    let dag = small_cg(16, 3);
    let fast = run_config(&dag, ConfigKind::Flexagon, &CelloConfig::paper(), "cg");
    let slow = run_config(
        &dag,
        ConfigKind::Flexagon,
        &CelloConfig::paper_250gbs(),
        "cg",
    );
    let ratio = slow.seconds / fast.seconds;
    assert!(
        (1.0..=4.01).contains(&ratio),
        "bandwidth scaling ratio {ratio}"
    );
    // Flexagon on CG is deeply memory bound: expect near-4x.
    assert!(ratio > 3.5, "{ratio}");
}

/// GNN: CELLO == FLAT exactly; ResNet: CELLO == SET exactly (the paper's
/// tie observations are equalities in the traffic model).
#[test]
fn paper_tie_cases_are_exact() {
    let accel = CelloConfig::paper();
    let gcn = build_gcn_dag(&GcnParams {
        vertices: 2708,
        nnz: 9464,
        features: 1433,
        outputs: 7,
        layers: 1,
    });
    assert_eq!(
        run_config(&gcn, ConfigKind::Cello, &accel, "gcn").dram_bytes,
        run_config(&gcn, ConfigKind::Flat, &accel, "gcn").dram_bytes
    );
    let resnet = build_resnet_block_dag(&ResNetBlockParams::conv3x());
    let accel2 = accel.with_word_bytes(2);
    assert_eq!(
        run_config(&resnet, ConfigKind::Cello, &accel2, "resnet").dram_bytes,
        run_config(&resnet, ConfigKind::SetLike, &accel2, "resnet").dram_bytes
    );
}

/// Fig 10's `Freq`/`Dist` columns are the RIFF metadata the engine hands
/// CHORD: each planned access carries the uses left after it (`freq_after`)
/// and the ops until the next one (`dist_after`), counted once per consuming
/// phase with realized edges removed.
#[test]
fn reuse_matches_fig10() {
    use cello::sim::phases::{plan_phases, PhasePlan, PlannedAccess};
    use std::collections::BTreeSet;
    let dag = build_cg_dag(&CgParams {
        m: 81_920,
        occupancy: 4.0,
        a_payload_words: 2 * 327_680 + 81_921,
        n: 16,
        nprime: 16,
        iterations: 10,
        a_occupancy: None,
    });
    let accesses = |plan: &PhasePlan| -> Vec<PlannedAccess> {
        plan.phases
            .iter()
            .flat_map(|p| p.accesses.iter().cloned())
            .collect()
    };
    let write = |all: &[PlannedAccess], name: &str| -> (u32, u32) {
        all.iter()
            .find(|a| a.write && a.name == name)
            .map(|a| (a.freq_after, a.dist_after))
            .unwrap_or_else(|| panic!("no write of {name}"))
    };

    // One op per phase, no realized edges: every consumer is its own use.
    let op_by_op = accesses(&plan_phases(
        &dag,
        &build_schedule(&dag, ScheduleOptions::best_intra()),
    ));
    assert_eq!(dag.node_count(), 80);
    for (nid, node) in dag.nodes() {
        let consumers: BTreeSet<usize> = dag
            .out_edges(nid)
            .iter()
            .map(|&e| dag.edge(e).dst)
            .collect();
        let (freq, _) = write(&op_by_op, &node.output.name);
        assert_eq!(freq, consumers.len() as u32, "{}", node.output.name);
    }
    // R@i: consumed by 5@i, 7@i and 4@(i+1), the next op first.
    assert_eq!(write(&op_by_op, "R@1"), (3, 1));
    // X@i: only 3@(i+1) reads it (the paper's X example).
    assert_eq!(write(&op_by_op, "X@1").0, 1);
    // P@i: read by 1, 2a, 3 and 7 of the next iteration.
    assert_eq!(write(&op_by_op, "P@1").0, 4);
    // Terminal-iteration outputs are dead.
    assert_eq!(write(&op_by_op, "X@10"), (0, u32::MAX));
    // A is read once per iteration: the first read leaves nine uses.
    let first_a = op_by_op.iter().find(|a| a.name == "A").unwrap();
    assert!(first_a.external && !first_a.write);
    assert_eq!(first_a.freq_after, 9);

    // Under CELLO's fused schedule a realized edge never reaches the
    // buffer, so those uses leave the metadata CHORD receives.
    let fused = accesses(&plan_phases(
        &dag,
        &build_schedule(&dag, ScheduleOptions::cello()),
    ));
    assert_eq!(write(&fused, "R@1").0, 2);
    assert_eq!(write(&fused, "P@1").0, 3);
}
