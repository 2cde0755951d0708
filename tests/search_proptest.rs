//! Property tests for the DSE engine (`cello-search`): determinism of the
//! Pareto front under a fixed seed, the guarantee that tuning never loses
//! to the `ScheduleOptions::cello()` paper heuristic on the toy
//! chain/diamond DAGs, soundness of the tier-0 symbolic prune (it never
//! discards the sim-optimal candidate on exhaustively-coverable spaces),
//! and the `Strategy::Prefiltered` contract: `keep_frac = 1.0` degenerates
//! to the inner strategy, and the exact tier honors the keep budget.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule, ScheduleOptions};
use cello::graph::dag::TensorDag;
use cello::graph::edge::TensorMeta;
use cello::graph::node::OpKind;
use cello::search::{SpaceConfig, Strategy, Tuner};
use cello::sim::evaluate::evaluate_schedule;
use cello::tensor::einsum::EinsumSpec;
use cello::tensor::gen::for_cases;
use cello::tensor::shape::RankExtent;
use cello::workloads::cg::{build_cg_dag, CgParams};

fn spec(m: u64) -> EinsumSpec {
    EinsumSpec::parse(
        "mk,kn->mn",
        &[
            RankExtent::dense("m", m),
            RankExtent::dense("k", 16),
            RankExtent::dense("n", 16),
        ],
    )
}

/// Linear producer→consumer chain of `n_ops` big tensors.
fn chain(n_ops: usize, m: u64) -> TensorDag {
    let mut dag = TensorDag::new();
    let mut prev = None;
    for i in 0..n_ops {
        let id = dag.add_op(
            format!("op{i}"),
            spec(m),
            OpKind::TensorMac,
            TensorMeta::dense(format!("T{i}"), &["m", "n"], m * 16),
        );
        if let Some(p) = prev {
            dag.add_edge(p, id, &["m", "k"]);
        } else {
            dag.add_external(
                TensorMeta::dense("In", &["m", "k"], m * 16),
                &[(id, &["m", "k"])],
            );
        }
        prev = Some(id);
    }
    dag
}

/// Diamond: one producer multicasting to `fanout` consumers, all joined.
fn diamond(fanout: usize, m: u64) -> TensorDag {
    let mut dag = TensorDag::new();
    let p = dag.add_op(
        "p",
        spec(m),
        OpKind::TensorMac,
        TensorMeta::dense("T0", &["m", "n"], m * 16),
    );
    let mut mids = Vec::new();
    for i in 0..fanout {
        let c = dag.add_op(
            format!("c{i}"),
            spec(m),
            OpKind::TensorMac,
            TensorMeta::dense(format!("M{i}"), &["m", "n"], m * 16),
        );
        dag.add_edge(p, c, &["m", "k"]);
        mids.push(c);
    }
    let join = dag.add_op(
        "join",
        spec(m),
        OpKind::TensorMac,
        TensorMeta::dense("Out", &["m", "n"], m * 16),
    );
    for c in mids {
        dag.add_edge(c, join, &["m", "k"]);
    }
    dag.add_external(
        TensorMeta::dense("In", &["m", "k"], m * 16),
        &[(p, &["m", "k"])],
    );
    dag
}

fn small_cfg() -> SpaceConfig {
    SpaceConfig {
        max_cut_points: 2,
        max_steer_tensors: 2,
        max_loop_order_nodes: 1,
        pipeline_words_choices: vec![65_536, 16_384],
        rf_words_choices: vec![16_384],
        node_choices: vec![1],
        max_chord_bias_tensors: 0,
        chord_bias_magnitudes: vec![1],
        repartition_profiles: Vec::new(),
        transfer_menu: Vec::new(),
        overbook_menu: Vec::new(),
    }
}

/// Heuristic cycles through the same evaluator the search uses.
fn heuristic_cycles(dag: &TensorDag, accel: &CelloConfig) -> u64 {
    let schedule = build_schedule(dag, ScheduleOptions::cello());
    evaluate_schedule(dag, &schedule, accel).cycles
}

/// Same seed + same DAG ⇒ bit-identical Pareto front (keys and costs),
/// across two completely fresh tuners.
#[test]
fn random_search_is_deterministic() {
    for_cases("random_search_is_deterministic", 12, |rng| {
        let n_ops = 2 + rng.below(4) as usize;
        let m = 10_000 + rng.below(190_000);
        let seed = rng.below(1_000);
        let dag = chain(n_ops, m);
        let accel = CelloConfig::paper();
        let run = || {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let out = tuner.tune(&Strategy::Random { samples: 24, seed });
            out.pareto
                .iter()
                .map(|e| (e.key, e.cost.cycles, e.cost.dram_bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    });
}

/// Beam search is deterministic too (no seed at all — ties break on the
/// canonical schedule key).
#[test]
fn beam_search_is_deterministic() {
    for_cases("beam_search_is_deterministic", 12, |rng| {
        let fanout = 2 + rng.below(3) as usize;
        let m = 10_000 + rng.below(190_000);
        let dag = diamond(fanout, m);
        let accel = CelloConfig::paper();
        let run = || {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let out = tuner.tune(&Strategy::Beam { width: 3 });
            (
                out.best_cycles.key,
                out.pareto.iter().map(|e| e.key).collect::<Vec<_>>(),
                out.evaluations,
            )
        };
        assert_eq!(run(), run());
    });
}

/// On chain DAGs the tuned schedule is never worse than the paper
/// heuristic on cycles, under every strategy.
#[test]
fn tuned_never_worse_than_cello_on_chains() {
    for_cases("tuned_never_worse_than_cello_on_chains", 12, |rng| {
        let n_ops = 2 + rng.below(5) as usize;
        let m = 10_000 + rng.below(490_000);
        let seed = rng.below(100);
        let dag = chain(n_ops, m);
        let accel = CelloConfig::paper();
        let base = heuristic_cycles(&dag, &accel);
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        for strategy in [
            Strategy::Beam { width: 3 },
            Strategy::Random { samples: 16, seed },
            Strategy::Exhaustive,
        ] {
            let out = tuner.tune(&strategy);
            assert_eq!(out.baseline.cost.cycles, base, "baseline == heuristic");
            assert!(
                out.best_cycles.cost.cycles <= base,
                "{:?}: tuned {} vs heuristic {}",
                strategy,
                out.best_cycles.cost.cycles,
                base
            );
        }
    });
}

/// Tier-0's symbolic dominance prune is *sound* when its budget and
/// keep cap cover the whole space: everything it discards is
/// sketch-dominated by a survivor, and on these spaces that never
/// loses the sim-optimal schedule — the funnel's rank-best cost equals
/// exhaustive enumeration's on every objective, for both DAG shapes.
#[test]
fn tier0_never_discards_the_sim_optimum() {
    for_cases("tier0_never_discards_the_sim_optimum", 12, |rng| {
        let n_ops = 2 + rng.below(3) as usize;
        let fanout = 2 + rng.below(2) as usize;
        let m = 10_000 + rng.below(290_000);
        for dag in [chain(n_ops, m), diamond(fanout, m)] {
            let accel = CelloConfig::paper();
            let ex = Tuner::new(&dag, &accel, small_cfg()).tune(&Strategy::Exhaustive);
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let budget = tuner.space().exhaustive_size();
            let t0 = tuner.tune(&Strategy::Tier0 {
                budget,
                keep: usize::MAX >> 1,
            });
            assert!(
                t0.candidates_seen >= ex.candidates_seen,
                "tier-0 swept the whole space ({} vs {})",
                t0.candidates_seen,
                ex.candidates_seen
            );
            assert!(
                t0.evaluations <= ex.evaluations,
                "the prune must not add evaluations"
            );
            assert_eq!(
                t0.best_cycles.cost, ex.best_cycles.cost,
                "rank-best must survive the symbolic prune"
            );
            assert_eq!(
                t0.best_traffic.cost.total_traffic_bytes(),
                ex.best_traffic.cost.total_traffic_bytes(),
                "traffic-best must survive the symbolic prune"
            );
        }
    });
}

/// Same guarantee on diamond DAGs.
#[test]
fn tuned_never_worse_than_cello_on_diamonds() {
    for_cases("tuned_never_worse_than_cello_on_diamonds", 12, |rng| {
        let fanout = 2 + rng.below(3) as usize;
        let m = 10_000 + rng.below(490_000);
        let seed = rng.below(100);
        let dag = diamond(fanout, m);
        let accel = CelloConfig::paper();
        let base = heuristic_cycles(&dag, &accel);
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        for strategy in [
            Strategy::Beam { width: 3 },
            Strategy::Random { samples: 16, seed },
        ] {
            let out = tuner.tune(&strategy);
            assert!(
                out.best_cycles.cost.cycles <= base,
                "{:?}: tuned {} vs heuristic {}",
                strategy,
                out.best_cycles.cost.cycles,
                base
            );
            // And the Pareto front never contains a point dominated by the
            // baseline (the baseline is in the comparison set).
            for e in &out.pareto {
                assert!(!out.baseline.cost.dominates(&e.cost), "{}", e.key.hex());
            }
        }
    });
}

/// `Prefiltered(keep_frac = 1.0, inner)` keeps the whole visited set —
/// it must return the identical best candidate (and Pareto front) as
/// running the inner strategy directly.
#[test]
fn prefilter_keep_all_matches_inner() {
    for_cases("prefilter_keep_all_matches_inner", 6, |rng| {
        let m = 20_000 + rng.below(100_000);
        let width = 2 + rng.below(3) as usize;
        let dag = build_cg_dag(&CgParams {
            m,
            occupancy: 4.0,
            a_payload_words: 2 * 4 * m + m + 1,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: None,
        });
        let accel = CelloConfig::paper();
        let cfg = SpaceConfig::widened();
        let inner = Strategy::Beam { width };
        let direct = Tuner::new(&dag, &accel, cfg.clone()).tune(&inner);
        let pre = Tuner::new(&dag, &accel, cfg).tune(&Strategy::prefiltered(1.0, inner));
        assert_eq!(&pre.best_cycles.key, &direct.best_cycles.key);
        assert_eq!(&pre.best_cycles.candidate, &direct.best_cycles.candidate);
        assert_eq!(&pre.best_traffic.key, &direct.best_traffic.key);
        assert_eq!(
            pre.pareto.iter().map(|e| e.key).collect::<Vec<_>>(),
            direct.pareto.iter().map(|e| e.key).collect::<Vec<_>>()
        );
    });
}

/// The prefilter honors its budget on every space it meets: sim
/// evaluations never exceed the tier-1-ranked keep fraction (plus
/// the always-evaluated baseline), and the tuned result still never
/// loses to the paper heuristic.
#[test]
fn prefilter_budget_and_soundness() {
    for_cases("prefilter_budget_and_soundness", 6, |rng| {
        let m = 20_000 + rng.below(100_000);
        let keep = 0.05 + rng.unit_f64() * 0.45;
        let seed = rng.below(100);
        let dag = build_cg_dag(&CgParams {
            m,
            occupancy: 4.0,
            a_payload_words: 2 * 4 * m + m + 1,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: None,
        });
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, SpaceConfig::widened());
        let out = tuner.tune(&Strategy::prefiltered(
            keep,
            Strategy::Random { samples: 40, seed },
        ));
        assert!(out.best_cycles.cost.cycles <= out.baseline.cost.cycles);
        // Budget: survivors = ceil(keep * distinct tier-1-scored) + the
        // baseline evaluation.
        let cap = (keep * out.surrogate_scored as f64).ceil() as u64 + 1;
        assert!(
            out.evaluations <= cap,
            "evals {} > cap {cap} (surrogate_scored {})",
            out.evaluations,
            out.surrogate_scored
        );
    });
}
