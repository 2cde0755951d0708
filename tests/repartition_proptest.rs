//! Property tests locking down the per-phase SRAM repartition.
//!
//! The repartition widens the co-design space (per-phase pipeline/RF/CHORD
//! splits instead of one global compromise), so three invariants keep the
//! two-tier DSE honest as it grows:
//!
//! 1. **Differential**: a *uniform* per-phase split is bit-exact with
//!    today's global split — engine `CostEstimate`, energy included —
//!    across random CG/HPCG/GCN schedules, so the refactor cannot
//!    silently drift the baseline.
//! 2. **Dominance**: exhaustive search over the widened space (per-phase ⊇
//!    global: "no repartition" is always choice 0) never lands on worse
//!    total traffic than the best global split on the same menus.
//! 3. **Monotonicity**: growing one phase's CHORD share (shrinking its
//!    pipeline reservation, bindings held fixed) never increases that
//!    phase's DRAM traffic — nor the schedule's total — on solo-phase
//!    chains, where residency transfers cleanly across boundaries.
//!
//! Plus the pinned acceptance claim: on a mixed DAG (wide-row fused
//! pipeline cluster + CHORD-heavy solo clusters re-reading a near-SRAM-sized
//! external), beam search with per-phase splits beats the best global-split
//! schedule of the same space by ≥ 5% total traffic.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule_with, ScheduleConstraints, ScheduleOptions};
use cello::core::{PhaseRepartition, PhaseSplit};
use cello::graph::dag::TensorDag;
use cello::graph::edge::TensorMeta;
use cello::graph::node::OpKind;
use cello::search::{SearchSpace, SpaceConfig, Strategy, Tuner};
use cello::sim::evaluate::evaluate_schedule;
use cello::tensor::einsum::EinsumSpec;
use cello::tensor::gen::for_cases;
use cello::tensor::shape::RankExtent;
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello::workloads::datasets::CORA;
use cello::workloads::gcn::{build_gcn_dag, GcnParams};
use cello::workloads::hpcg::{build_hpcg_dag, HpcgParams};

/// For every seeded-random candidate of the widened space: rebuilding it
/// with a *uniform* repartition (every phase = the candidate's own global
/// split, expressed both by-kind and by-index) must reproduce the exact
/// engine `CostEstimate`. Bit-exact means `==` on every field, energy
/// included.
fn assert_uniform_differential(dag: &TensorDag, accel: &CelloConfig, samples: usize, seed: u64) {
    let space = SearchSpace::from_dag(dag, &SpaceConfig::widened());
    for picks in space.sample_assignments(samples, seed) {
        let candidate = space.assemble(&picks);
        let plain = candidate.build(dag);
        let global = PhaseSplit::of_options(&candidate.options);
        let by_kind =
            PhaseRepartition::by_kind(accel.sram_words(), global, global).expect("global fits");
        let by_index = PhaseRepartition::by_index(
            accel.sram_words(),
            (0..plain.phases.len()).map(|i| (i, global)).collect(),
        )
        .expect("global fits");
        for rep in [by_kind, by_index] {
            let mut c2 = candidate.clone();
            c2.constraints.phase_repartition = Some(rep);
            let uniform = c2.build(dag);
            assert!(!uniform.repartition_active(), "uniform = global identity");
            assert_eq!(
                evaluate_schedule(dag, &plain, accel),
                evaluate_schedule(dag, &uniform, accel),
                "engine drifted under a uniform repartition"
            );
        }
    }
}

/// A solo-phase chain (cuts everywhere): tensors hand off cleanly between
/// adjacent phases, the shape the per-phase monotonicity argument is exact
/// on.
fn chain(n_ops: usize, words: u64) -> TensorDag {
    let spec = EinsumSpec::parse(
        "mk,kn->mn",
        &[
            RankExtent::dense("m", words / 16),
            RankExtent::dense("k", 16),
            RankExtent::dense("n", 16),
        ],
    );
    let mut dag = TensorDag::new();
    let mut prev = None;
    for i in 0..n_ops {
        let id = dag.add_op(
            format!("op{i}"),
            spec.clone(),
            OpKind::TensorMac,
            TensorMeta::dense(format!("T{i}"), &["m", "n"], words),
        );
        if let Some(p) = prev {
            dag.add_edge(p, id, &["m", "k"]);
        } else {
            dag.add_external(
                TensorMeta::dense("In", &["m", "k"], words),
                &[(id, &["m", "k"])],
            );
        }
        prev = Some(id);
    }
    dag
}

/// The mixed DAG of the pinned acceptance test: a wide-row fused pipeline
/// region (block-row tensors whose streaming rows overflow a lean pipeline
/// buffer) contracted into a scalar seed that drives `reuses` solo phases,
/// each re-reading a near-SRAM-sized external `E`. A pipeline-heavy fused
/// cluster and CHORD-heavy solo clusters in one DAG — the shape a single
/// global SRAM split must compromise on.
fn mixed_dag(rows: u64, row_words: u64, e_words: u64, reuses: usize) -> TensorDag {
    let words = rows * row_words;
    let wide = EinsumSpec::parse(
        "mk,kn->mn",
        &[
            RankExtent::dense("m", rows),
            RankExtent::dense("k", 16),
            RankExtent::dense("n", 16),
        ],
    );
    let contract = EinsumSpec::from_parts(
        vec![vec!["k".into(), "p".into()], vec!["k".into(), "n".into()]],
        vec!["p".into(), "n".into()],
        &[
            RankExtent::dense("k", rows),
            RankExtent::dense("p", 16),
            RankExtent::dense("n", 16),
        ],
    );
    let small = EinsumSpec::parse(
        "pj,jn->pn",
        &[
            RankExtent::dense("p", 16),
            RankExtent::dense("j", 16),
            RankExtent::dense("n", 16),
        ],
    );
    let mut dag = TensorDag::new();
    let big = |n: &str| TensorMeta::dense(n, &["m", "n"], words);
    let tiny = |n: &str| TensorMeta::dense(n, &["p", "n"], 256);
    let a0 = dag.add_op("a0", wide.clone(), OpKind::TensorMac, big("T0"));
    let a1 = dag.add_op("a1", wide, OpKind::TensorMac, big("T1"));
    let a2 = dag.add_op("a2", contract, OpKind::TensorMac, tiny("S"));
    dag.add_edge(a0, a1, &["m", "k"]);
    dag.add_edge(a1, a2, &["k", "n"]);
    dag.add_external(
        TensorMeta::dense("In", &["m", "k"], words),
        &[(a0, &["m", "k"])],
    );
    let mut prev = a2;
    let mut consumers: Vec<(cello::graph::dag::NodeId, &[&str])> = Vec::new();
    for i in 0..reuses {
        // Inverse ops never join pipeline clusters: each solo phase re-reads
        // E from CHORD.
        let b = dag.add_op(
            format!("b{i}"),
            small.clone(),
            OpKind::Inverse,
            tiny(&format!("B{i}")),
        );
        dag.add_edge(prev, b, &["p", "j"]);
        consumers.push((b, &["m", "k"]));
        prev = b;
    }
    dag.add_external(TensorMeta::dense("E", &["m", "k"], e_words), &consumers);
    dag
}

/// Differential on random CG schedules (problem size, iteration count,
/// sample seed all drawn).
#[test]
fn uniform_split_bit_exact_on_cg() {
    for_cases("uniform_split_bit_exact_on_cg", 4, |rng| {
        let m = 20_000 + rng.below(100_000);
        let iterations = 2 + rng.below(3) as u32;
        let seed = rng.below(1_000);
        let dag = build_cg_dag(&CgParams {
            m,
            occupancy: 4.0,
            a_payload_words: 2 * 4 * m + m + 1,
            n: 16,
            nprime: 16,
            iterations,
            a_occupancy: None,
        });
        assert_uniform_differential(&dag, &CelloConfig::paper(), 8, seed);
    });
}

/// Differential on random HPCG schedules.
#[test]
fn uniform_split_bit_exact_on_hpcg() {
    for_cases("uniform_split_bit_exact_on_hpcg", 4, |rng| {
        let nx = 24 + rng.below(32);
        let iterations = 2 + rng.below(2) as u32;
        let seed = rng.below(1_000);
        let dag = build_hpcg_dag(&HpcgParams {
            nx,
            n: 16,
            iterations,
        });
        assert_uniform_differential(&dag, &CelloConfig::paper(), 8, seed);
    });
}

/// Differential on random GCN schedules.
#[test]
fn uniform_split_bit_exact_on_gcn() {
    for_cases("uniform_split_bit_exact_on_gcn", 4, |rng| {
        let layers = 1 + rng.below(3) as u32;
        let seed = rng.below(1_000);
        let dag = build_gcn_dag(&GcnParams::from_dataset(&CORA, layers));
        assert_uniform_differential(&dag, &CelloConfig::paper(), 8, seed);
    });
}

/// Dominance: the repartitioned space contains every global-split
/// schedule ("no repartition" is choice 0), so exhaustive search over it
/// can never end up with worse best-traffic than exhaustive search over
/// the global-only space with the same menus.
#[test]
fn repartitioned_space_dominates_global() {
    for_cases("repartitioned_space_dominates_global", 4, |rng| {
        let m = 20_000 + rng.below(60_000);
        let iterations = 2 + rng.below(2) as u32;
        let dag = build_cg_dag(&CgParams {
            m,
            occupancy: 4.0,
            a_payload_words: 2 * 4 * m + m + 1,
            n: 16,
            nprime: 16,
            iterations,
            a_occupancy: None,
        });
        let accel = CelloConfig::paper();
        let small = SpaceConfig {
            max_cut_points: 1,
            max_steer_tensors: 1,
            max_loop_order_nodes: 0,
            pipeline_words_choices: vec![65_536, 16_384],
            rf_words_choices: vec![16_384],
            node_choices: vec![1],
            max_chord_bias_tensors: 0,
            chord_bias_magnitudes: vec![1],
            repartition_profiles: Vec::new(),
            transfer_menu: Vec::new(),
            overbook_menu: Vec::new(),
        };
        let global = Tuner::new(&dag, &accel, small.clone()).tune(&Strategy::Exhaustive);
        let widened = small.with_repartition(accel.sram_words());
        let pp = Tuner::new(&dag, &accel, widened).tune(&Strategy::Exhaustive);
        assert!(
            pp.best_traffic.cost.total_traffic_bytes()
                <= global.best_traffic.cost.total_traffic_bytes(),
            "per-phase exhaustive {} worse than global exhaustive {}",
            pp.best_traffic.cost.total_traffic_bytes(),
            global.best_traffic.cost.total_traffic_bytes(),
        );
    });
}

/// Monotonicity: on a solo-phase chain, growing one phase's CHORD share
/// (shrinking only its pipeline reservation; RF held at the global value
/// so bindings cannot move) never increases that phase's DRAM traffic,
/// nor the schedule's total.
#[test]
fn growing_phase_chord_share_is_monotone() {
    for_cases("growing_phase_chord_share_is_monotone", 4, |rng| {
        let n_ops = 3 + rng.below(3) as usize;
        let words = 50_000 + rng.below(350_000);
        let phase = 1 + rng.below(4) as usize;
        let reserve_big = 1 + rng.below(8) as u32;
        let shrink = 1 + rng.below(7) as u32;
        let n_ops = n_ops.max(phase + 1);
        let dag = chain(n_ops, (words / 16) * 16);
        let accel = CelloConfig::paper();
        let cuts: std::collections::BTreeSet<usize> = (1..n_ops).collect();
        let opts = ScheduleOptions::cello();
        let rf = opts.rf_capacity_words;
        let budget = accel.sram_words() - rf;
        // Two reservations for the chosen phase: big, and strictly smaller
        // (more CHORD share). Everything else keeps the global split.
        let big = budget / 10 * reserve_big as u64;
        let small = big.saturating_sub(budget / 10 * shrink.min(reserve_big) as u64);
        let run = |reserve: u64| {
            let rep = PhaseRepartition::by_index(
                accel.sram_words(),
                [(phase, PhaseSplit::new(reserve, rf))]
                    .into_iter()
                    .collect(),
            )
            .expect("fits");
            let s = build_schedule_with(
                &dag,
                opts,
                &ScheduleConstraints {
                    cut_before: cuts.clone(),
                    phase_repartition: Some(rep),
                    ..Default::default()
                },
            );
            s.validate(&dag).unwrap();
            cello::sim::evaluate::evaluate_report(&dag, &s, &accel)
        };
        let (base, grown) = (run(big), run(small));
        assert!(
            grown.phase_dram_bytes[phase] <= base.phase_dram_bytes[phase],
            "phase {phase} dram grew: {} > {}",
            grown.phase_dram_bytes[phase],
            base.phase_dram_bytes[phase],
        );
        assert!(
            grown.dram_bytes <= base.dram_bytes,
            "total dram grew: {} > {}",
            grown.dram_bytes,
            base.dram_bytes,
        );
    });
}

/// The pinned acceptance claim: beam over the repartitioned space finds a
/// schedule with ≥ 5% lower total traffic than the best global split of the
/// same space on the mixed DAG, and the winner actually repartitions.
#[test]
fn beam_with_per_phase_splits_beats_best_global_by_5pct() {
    let dag = mixed_dag(160, 12_800, 1_040_000, 6);
    let accel = CelloConfig::paper();
    let base_cfg = SpaceConfig::default();
    let global = Tuner::new(&dag, &accel, base_cfg.clone()).tune(&Strategy::Exhaustive);
    let pp_cfg = base_cfg.with_repartition(accel.sram_words());
    let pp = Tuner::new(&dag, &accel, pp_cfg).tune(&Strategy::Beam { width: 8 });
    let g = global.best_traffic.cost.total_traffic_bytes();
    let p = pp.best_traffic.cost.total_traffic_bytes();
    assert!(
        (p as f64) <= 0.95 * g as f64,
        "per-phase beam {p} not ≥5% below best global {g} ({:.4}x)",
        p as f64 / g as f64,
    );
    let winner = &pp.best_traffic.candidate;
    let rep = winner
        .constraints
        .phase_repartition
        .as_ref()
        .expect("winner repartitions");
    rep.validate().unwrap();
    let schedule = winner.build(&dag);
    schedule.validate(&dag).unwrap();
    assert!(schedule.repartition_active());
    // The mixed DAG really is mixed: a fused pipeline cluster and solo
    // CHORD phases coexist, and the winning repartition treats them
    // differently.
    assert!(schedule.phases.iter().any(|p| p.ops.len() > 1));
    assert!(schedule.phases.iter().any(|p| p.ops.len() == 1));
    let splits: std::collections::BTreeSet<_> = schedule
        .phase_splits
        .iter()
        .map(|s| (s.pipeline_buffer_words, s.rf_capacity_words))
        .collect();
    assert!(splits.len() > 1, "winner uses phase-dependent splits");
}
