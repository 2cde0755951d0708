//! `cello_dse` — auto-tune every workload over the SCORE × CHORD space.
//!
//! For each paper workload this builds the DAG, derives the co-design search
//! space (`cello_search::SearchSpace`), runs the beam strategy (width 8) and
//! the seeded random baseline, and compares the tuned schedule against the
//! `ScheduleOptions::cello()` paper heuristic scored through the same cheap
//! evaluator. On the CG DAG it additionally runs exhaustive enumeration to
//! report how much of the exhaustive-best the beam recovers and at what
//! fraction of the evaluation count.
//!
//! `--nodes 1,4,16` widens the space with the §V-B multi-node partition
//! dimension (node count × dominant-rank-slice/stage-split axis) and sweeps
//! beam search over it on the multi-node workloads (CG, HPCG, GCN),
//! reporting the best total-traffic (DRAM + NoC hop-bytes) schedule and how
//! it compares with the best single-node one.
//!
//! `--prefilter` swaps the beam for the two-tier
//! `Strategy::Prefiltered(0.1, Beam)` over the **widened** space
//! (`SpaceConfig::widened`: six cut points + graded per-tensor CHORD
//! priority biasing): tier 1 ranks the traversal and only the top tenth
//! reaches the exact tier. Both tiers score with `sim::evaluate`.
//!
//! `--tier0` runs the full three-tier funnel instead:
//! `Prefiltered(0.1, Tier0)` over the widened space. Tier 0 sweeps up to
//! 49 152 assignments through the closed-form asymptotic cost sketch
//! (`cello_search::tier0` — no schedule build, no phase walk), keeps only
//! the sketch-Pareto survivors (≤ 96), tier 1 ranks those, and the top
//! tenth is promoted to the exact tier — ~100× more candidates considered
//! per second than the two-tier beam.
//!
//! `--per-phase-sram` opens the per-phase SRAM repartition dimension
//! (`SpaceConfig::with_repartition`): fused/solo split profiles override
//! the single global pipeline/RF/CHORD split phase by phase, with CHORD
//! resized (and the resize traffic charged) at phase boundaries.
//!
//! `--quick` is the CI bench-trajectory mode: CG/HPCG/GCN at single-node,
//! at the `--nodes` mesh, and over the per-phase-SRAM space (`name+pp`
//! records), always through the three-tier funnel, emitting
//! `BENCH_dse.json` at the repo root (cycles, DRAM/NoC bytes, energy,
//! candidates seen/sec) for the `bench_check`
//! regression gate, plus the usual stdout table. The trajectory also
//! carries a **sparse family** (`cg-sparse/*`): CG over real-pattern
//! `.mtx` fixtures under `data/`, built with `CgParams::from_csr` so the
//! DAG carries measured occupancy stats and the widened space opens the
//! CHORD-overbooking dimension. For each sparse workload the tuned
//! overbooked schedule is compared against the best schedule of the same
//! space with the overbook menu removed (the worst-case-dense model); at
//! least one skewed fixture must win strictly on DRAM traffic or cycles,
//! or the trajectory fails.
//!
//! `--audit` runs every primary tune through
//! `cello_search::Tuner::tune_audited` instead of `tune`. That is `tune`
//! plus post-hoc checks: the same funnel path, so the same outcome and the
//! same `BENCH_dse.json` apart from `candidates_per_sec`. The per-tier
//! funnel ledger — where every
//! candidate died (tier-0 prune / schedule dedup / tier-1 cut /
//! promoted), the tier-0 sketch-vs-sim Spearman cross-check, and the
//! sampled survivor-loss probe — lands in `BENCH_audit.json`. The run
//! fails if the accounting identity (`candidates_seen` = died + promoted)
//! breaks, or if an exhaustively-covered space lost its sim optimum;
//! sampled survivor loss is quantified in the ledger (keep-capped sampled
//! sweeps are expected to be mildly lossy).
//!
//! Output: a TSV under `results/dse.tsv` plus the stdout tables.
//!
//! Usage: `cargo run --release --bin cello_dse [-- --nodes 1,4,16,64]
//! [--prefilter] [--tier0] [--per-phase-sram] [--quick] [--audit]`

use cello_bench::{emit, f3};
use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_obs::json::Json;
use cello_search::{AuditConfig, FunnelAudit, SearchOutcome, SpaceConfig, Strategy, Tuner};
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{load_matrix_market, CORA, G2_CIRCUIT, SHALLOW_WATER1};
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::hpcg::{build_hpcg_dag, HpcgParams};
use cello_workloads::power_iter::{build_power_iter_dag, PowerIterParams};
use cello_workloads::resnet::{build_resnet_block_dag, ResNetBlockParams};

/// Prefilter keep fraction used by `--prefilter` and the quick trajectory.
const KEEP_FRAC: f64 = 0.1;
/// Tier-0 sketch budget for `--tier0` and the quick trajectory: how many
/// assignments the symbolic sweep considers per tune.
const TIER0_BUDGET: u64 = 49_152;
/// Tier-0 keep cap: sketch-Pareto survivors promoted to tier 1.
const TIER0_KEEP: usize = 96;
/// Tolerance on the quick-mode containment checks (per-phase vs global
/// split, mesh vs single node). The bigger space *contains* the smaller,
/// but a sampled tier-0 sweep is not monotone across space inclusion —
/// the larger space draws a different assignment stream — so containment
/// holds to within the funnel's 2% quality bar rather than exactly.
const CONTAIN_TOL: f64 = 1.02;
/// Seed for the random-sampling baseline strategy.
const RANDOM_SEED: u64 = 0xCE110;
/// Printed with every refused argument.
const USAGE: &str = "usage: cello_dse [--nodes 1,4,16,64] [--prefilter] [--tier0] [--per-phase-sram] [--quick] [--audit]";

struct Workload {
    name: &'static str,
    dag: TensorDag,
    accel: CelloConfig,
    /// Part of the `--nodes` multi-node sweep (§V-B workloads).
    multinode: bool,
}

struct Args {
    /// Node counts for the partition dimension (`[1]` = single-node space).
    nodes: Vec<u64>,
    /// Small-budget trajectory run (CI): CG/HPCG/GCN through the
    /// three-tier funnel, emits `BENCH_dse.json`.
    quick: bool,
    /// Use the two-tier prefilter over the widened space.
    prefilter: bool,
    /// Use the three-tier funnel (tier-0 sketch → tier 1 → exact tier) over
    /// the widened space.
    tier0: bool,
    /// Open the per-phase SRAM repartition dimension.
    per_phase_sram: bool,
    /// Collect the per-tier funnel ledger (`tune_audited`) and write
    /// `BENCH_audit.json`; fail on accounting or survivor-loss violations.
    audit: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: vec![1],
        quick: false,
        prefilter: false,
        tier0: false,
        per_phase_sram: false,
        audit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--nodes needs a comma-separated list, e.g. --nodes 1,4,16\n{USAGE}");
                    std::process::exit(2);
                });
                // Serve's bound, so a count the daemon would refuse is not
                // tuned here either.
                let max = cello_serve::protocol::caps::MAX_NODES;
                args.nodes = list
                    .split(',')
                    .map(|s| match s.trim().parse::<u64>() {
                        Ok(n) if (1..=max).contains(&n) => n,
                        _ => {
                            eprintln!("bad node count {s:?} in --nodes (1..={max})\n{USAGE}");
                            std::process::exit(2);
                        }
                    })
                    .collect();
                if !args.nodes.contains(&1) {
                    // The single-node dataflow is always worth comparing.
                    args.nodes.insert(0, 1);
                }
            }
            "--quick" => args.quick = true,
            "--prefilter" => args.prefilter = true,
            "--tier0" => args.tier0 = true,
            "--per-phase-sram" => args.per_phase_sram = true,
            "--audit" => args.audit = true,
            other => {
                eprintln!("unknown argument {other:?}; {USAGE}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// CG over a real `.mtx` fixture: `from_csr` measures per-row-block
/// occupancy, so the DAG carries the stats that gate the overbooking
/// dimension on.
fn sparse_cg(path: &str) -> TensorDag {
    let a = load_matrix_market(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cello_dse --quick: cannot load {path}: {e}");
        std::process::exit(1);
    });
    build_cg_dag(&CgParams::from_csr(&a, 16, 5))
}

fn quick_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "cg/G2_circuit",
            dag: build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5)),
            accel: CelloConfig::paper(),
            multinode: true,
        },
        Workload {
            name: "hpcg/nx48",
            dag: build_hpcg_dag(&HpcgParams {
                nx: 48,
                n: 16,
                iterations: 2,
            }),
            accel: CelloConfig::paper(),
            multinode: true,
        },
        Workload {
            name: "gcn/cora",
            dag: build_gcn_dag(&GcnParams::from_dataset(&CORA, 2)),
            accel: CelloConfig::paper(),
            multinode: true,
        },
        // The sparse family: real-pattern fixtures with measured occupancy.
        // Arrowhead and the preferential-attachment Laplacian are heavily
        // skewed (overbooking should win); the tridiagonal is uniform
        // (occupancy carried, nothing to overbook — the identity path).
        Workload {
            name: "cg-sparse/arrowhead",
            dag: sparse_cg("data/arrowhead_768.mtx"),
            accel: CelloConfig::paper(),
            multinode: false,
        },
        Workload {
            name: "cg-sparse/powlaw",
            dag: sparse_cg("data/powlaw_640.mtx"),
            accel: CelloConfig::paper(),
            multinode: false,
        },
        Workload {
            name: "cg-sparse/tridiag",
            dag: sparse_cg("data/tridiag_1024.mtx"),
            accel: CelloConfig::paper(),
            multinode: false,
        },
    ]
}

fn workloads() -> Vec<Workload> {
    let mut all = vec![Workload {
        name: "cg/G2_circuit",
        dag: build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5)),
        accel: CelloConfig::paper(),
        multinode: true,
    }];
    all.extend([
        Workload {
            name: "cg/shallow_w1",
            dag: build_cg_dag(&CgParams::from_dataset(&SHALLOW_WATER1, 16, 5)),
            accel: CelloConfig::paper(),
            multinode: true,
        },
        Workload {
            name: "bicgstab/G2",
            dag: build_bicgstab_dag(&BicgParams::from_dataset(&G2_CIRCUIT, 16, 3)),
            accel: CelloConfig::paper(),
            multinode: false,
        },
        Workload {
            name: "hpcg/nx48",
            dag: build_hpcg_dag(&HpcgParams {
                nx: 48,
                n: 16,
                iterations: 4,
            }),
            accel: CelloConfig::paper(),
            multinode: true,
        },
        Workload {
            name: "gcn/cora",
            dag: build_gcn_dag(&GcnParams::from_dataset(&CORA, 2)),
            accel: CelloConfig::paper(),
            multinode: true,
        },
        Workload {
            name: "resnet/conv3x",
            dag: build_resnet_block_dag(&ResNetBlockParams::conv3x()),
            accel: CelloConfig::paper().with_word_bytes(2),
            multinode: false,
        },
        Workload {
            name: "power/G2",
            dag: build_power_iter_dag(&PowerIterParams::from_dataset(&G2_CIRCUIT, 5)),
            accel: CelloConfig::paper(),
            multinode: false,
        },
    ]);
    all
}

/// Prints the process-global search instrumentation accumulated over every
/// tune this run (tunes, exact-vs-tier-1 evaluation split, memo cache
/// hits, prefilter keep/drop tallies) — the registry the serve daemon
/// exposes over its `metrics` op, surfaced here for CLI runs.
fn print_obs_summary() {
    let snap = cello_obs::metrics::global().snapshot();
    let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!(
        "[obs] {} tunes: {} exact evals, {} tier-1, {} cache hits, {} candidates; \
         prefilter kept {} / dropped {}",
        get("search_tunes"),
        get("search_exact_evals"),
        get("search_surrogate_evals"),
        get("search_cache_hits"),
        get("search_candidates"),
        get("search_prefilter_kept"),
        get("search_prefilter_dropped"),
    );
    // The three-tier funnel, narrowest last: how many candidates each tier
    // received and passed on. Tier-0 counters are zero when no `Tier0`
    // strategy ran.
    let t0_kept = get("search_tier0_kept");
    let t0_pruned = get("search_tier0_pruned");
    if t0_kept + t0_pruned > 0 {
        println!(
            "[obs] funnel: tier0 swept {} -> kept {} ({} pruned symbolically); \
             tier-1 scored {} -> promoted {}; exact evaluated {}",
            t0_kept + t0_pruned,
            t0_kept,
            t0_pruned,
            get("search_surrogate_evals"),
            get("search_prefilter_kept"),
            get("search_exact_evals"),
        );
    }
    let audited = get("search_audit_runs");
    if audited > 0 {
        println!(
            "[obs] audit: {} ledgered tunes, cumulative survivor loss {}",
            audited,
            get("search_audit_survivor_loss"),
        );
    }
}

/// One `BENCH_audit.json` record: the funnel ledger for one tune.
fn audit_record(name: &str, nodes: u64, a: &FunnelAudit) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("nodes".into(), Json::int(nodes)),
        ("strategy".into(), Json::Str(a.strategy.clone())),
        ("candidates_seen".into(), Json::int(a.candidates_seen)),
        ("tier0_swept".into(), Json::int(a.tier0_swept)),
        ("tier0_kept".into(), Json::int(a.tier0_kept)),
        ("tier0_pruned".into(), Json::int(a.tier0_pruned)),
        ("dedup_merged".into(), Json::int(a.dedup_merged)),
        ("surrogate_ranked".into(), Json::int(a.surrogate_ranked)),
        ("surrogate_dropped".into(), Json::int(a.surrogate_dropped)),
        ("promoted".into(), Json::int(a.promoted)),
        ("accounts_exactly".into(), Json::Bool(a.accounts_exactly())),
        (
            "sketch_sim_spearman".into(),
            a.sketch_sim_spearman.map_or(Json::Null, Json::Num),
        ),
        ("rank_checked".into(), Json::int(a.rank_checked)),
        ("pruned_sampled".into(), Json::int(a.pruned_sampled)),
        ("survivor_loss".into(), Json::int(a.survivor_loss)),
        (
            "sim_optimum_survived".into(),
            a.sim_optimum_survived.map_or(Json::Null, Json::Bool),
        ),
    ])
}

/// Prints the ledger and pushes any consistency violation: the accounting
/// identity must close, and on an exhaustively-covered space the sim
/// optimum must have survived every tier (the
/// `tier0_never_discards_the_sim_optimum` soundness property). Sampled
/// survivor loss is *reported*, not failed: a keep-capped sampled sweep is
/// expected to be lossy, and quantifying that loss is the audit's job.
fn check_audit(label: &str, a: &FunnelAudit, violations: &mut Vec<String>) {
    println!(
        "[audit] {label}: seen {} = tier0_pruned {} + dedup {} + surrogate_dropped {} \
         + promoted {}; sketch-sim rho {} over {}; survivor loss {}/{} sampled",
        a.candidates_seen,
        a.tier0_pruned,
        a.dedup_merged,
        a.surrogate_dropped,
        a.promoted,
        a.sketch_sim_spearman
            .map_or_else(|| "n/a".into(), |r| format!("{r:.3}")),
        a.rank_checked,
        a.survivor_loss,
        a.pruned_sampled,
    );
    if !a.accounts_exactly() {
        violations.push(format!(
            "{label}: audit accounting identity broken — seen {} != {} \
             (tier0_pruned {} + dedup {} + surrogate_dropped {} + promoted {})",
            a.candidates_seen,
            a.tier_sum(),
            a.tier0_pruned,
            a.dedup_merged,
            a.surrogate_dropped,
            a.promoted,
        ));
    }
    if a.sim_optimum_survived == Some(false) {
        violations.push(format!(
            "{label}: the space was exhaustively covered yet the sim optimum \
             did not survive the funnel — tier-0 soundness broken"
        ));
    }
    if a.survivor_loss > 0 {
        println!(
            "[audit] {label}: warning — {} of {} sampled pruned candidates beat \
             the winner (keep-cap lossiness on a sampled sweep; quantified, not fatal)",
            a.survivor_loss, a.pruned_sampled,
        );
    }
}

/// Writes `BENCH_audit.json` (the CI-uploaded funnel-forensics artifact).
fn write_audit_artifact(generated_by: &str, audits: Vec<Json>) {
    let doc = Json::Obj(vec![
        ("schema".into(), Json::int(1)),
        ("generated_by".into(), Json::Str(generated_by.to_string())),
        ("tunes".into(), Json::Arr(audits)),
    ]);
    match std::fs::write("BENCH_audit.json", doc.render()) {
        Ok(()) => println!("[saved BENCH_audit.json]"),
        Err(e) => {
            eprintln!("could not write BENCH_audit.json: {e}");
            std::process::exit(1);
        }
    }
}

fn outcome_row(name: &str, out: &SearchOutcome) -> Vec<String> {
    vec![
        name.to_string(),
        out.strategy.clone(),
        out.baseline.cost.cycles.to_string(),
        out.best_cycles.cost.cycles.to_string(),
        f3(out.speedup()),
        out.baseline.cost.dram_bytes.to_string(),
        out.best_dram.cost.dram_bytes.to_string(),
        f3(out.dram_ratio()),
        out.best_traffic.cost.total_traffic_bytes().to_string(),
        out.best_traffic.cost.noc_hop_bytes.to_string(),
        out.evaluations.to_string(),
        out.surrogate_scored.to_string(),
        out.cache_hits.to_string(),
        out.pareto.len().to_string(),
    ]
}

const DSE_HEADER: [&str; 14] = [
    "workload",
    "strategy",
    "base_cycles",
    "tuned_cycles",
    "speedup",
    "base_dram_B",
    "tuned_dram_B",
    "dram_ratio",
    "tuned_traffic_B",
    "tuned_noc_hopB",
    "evals",
    "surrogate",
    "cache_hits",
    "pareto",
];

/// The CI bench-trajectory mode: prefiltered tuning of CG/HPCG/GCN at
/// single-node and at the `--nodes` mesh, `BENCH_dse.json` emission.
fn run_quick(args: &Args) {
    // The full three-tier funnel: tier-0 sketches TIER0_BUDGET assignments
    // symbolically, tier 1 ranks the sketch-Pareto survivors, the
    // simulator scores the top KEEP_FRAC of those.
    let inner = Strategy::Tier0 {
        budget: TIER0_BUDGET,
        keep: TIER0_KEEP,
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut records: Vec<Json> = Vec::new();
    // Single-node always; the `--nodes` mesh as a second variant only when
    // it actually widens the menu (plain `--quick` would otherwise tune the
    // identical [1] space twice and emit duplicate records); and the
    // per-phase-SRAM space at a single node as a third (`name+pp` records),
    // so the perf gate covers the repartition dimension.
    let mut variants: Vec<(Vec<u64>, bool)> = vec![(vec![1], false)];
    if args.nodes.iter().any(|&n| n > 1) {
        variants.push((args.nodes.clone(), false));
    }
    variants.push((vec![1], true));
    // Invariant violations are collected, not asserted mid-loop: the
    // trajectory file must land even on a bad run so CI still uploads an
    // artifact and `bench_check` can report what went wrong.
    let mut violations: Vec<String> = Vec::new();
    // The overbooking payoff check: every sparse workload's tuned
    // (overbook-enabled) outcome is compared against the best of the same
    // space with the overbook menu removed; at least one fixture must win
    // strictly.
    let mut sparse_compared = 0usize;
    let mut sparse_wins = 0usize;
    // `--audit`: the per-tune funnel ledgers, written to BENCH_audit.json.
    let mut audits: Vec<Json> = Vec::new();
    for w in quick_workloads() {
        let mut best_plain_single: Option<u64> = None;
        let mut best_mesh: Option<u64> = None;
        let mut single_outcome: Option<SearchOutcome> = None;
        for (node_menu, per_phase) in &variants {
            let nodes_label = *node_menu.iter().max().unwrap_or(&1);
            if nodes_label > 1 && !w.multinode {
                continue;
            }
            let mut cfg = SpaceConfig::widened_with_nodes(node_menu);
            if *per_phase {
                cfg = cfg.with_repartition(w.accel.sram_words());
            }
            let record_name = if *per_phase {
                format!("{}+pp", w.name)
            } else {
                w.name.to_string()
            };
            let started = std::time::Instant::now();
            let tuner = Tuner::new(&w.dag, &w.accel, cfg);
            let strategy = Strategy::prefiltered(KEEP_FRAC, inner.clone());
            // The audited path runs the same tune, then ledgers where every
            // candidate died.
            let (out, ledger) = if args.audit {
                let (out, a) = tuner.tune_audited(&strategy, &AuditConfig::default());
                (out, Some(a))
            } else {
                (tuner.tune(&strategy), None)
            };
            let elapsed = started.elapsed().as_secs_f64().max(1e-9);
            let cand_per_sec = out.candidates_seen as f64 / elapsed;
            let best = out.best_traffic.cost.total_traffic_bytes();
            match (*per_phase, nodes_label) {
                (false, 1) => {
                    best_plain_single = Some(best);
                    single_outcome = Some(out.clone());
                }
                (false, _) => best_mesh = Some(best),
                // The repartitioned space contains every global-split
                // schedule, but a *sampled* tier-0 sweep is not monotone
                // across space inclusion (the larger space draws a
                // different assignment stream), so the containment check
                // carries the funnel's 2% quality tolerance.
                (true, _) => {
                    if let Some(plain) = best_plain_single {
                        if best as f64 > CONTAIN_TOL * plain as f64 {
                            violations.push(format!(
                                "{record_name}: per-phase best traffic {best} worse than \
                                 global-split {plain} beyond {CONTAIN_TOL}x"
                            ));
                        }
                    }
                }
            }
            let label = format!("{record_name}@{nodes_label}n");
            rows.push(outcome_row(&label, &out));
            records.push(Json::Obj(vec![
                ("name".into(), Json::Str(record_name.clone())),
                ("nodes".into(), Json::int(nodes_label)),
                ("strategy".into(), Json::Str(out.strategy.clone())),
                ("base_cycles".into(), Json::int(out.baseline.cost.cycles)),
                (
                    "tuned_cycles".into(),
                    Json::int(out.best_cycles.cost.cycles),
                ),
                (
                    "tuned_dram_bytes".into(),
                    Json::int(out.best_traffic.cost.dram_bytes),
                ),
                (
                    "tuned_noc_hop_bytes".into(),
                    Json::int(out.best_traffic.cost.noc_hop_bytes),
                ),
                (
                    "tuned_traffic_bytes".into(),
                    Json::int(out.best_traffic.cost.total_traffic_bytes()),
                ),
                (
                    "tuned_energy_pj".into(),
                    Json::Num(out.best_cycles.cost.energy_pj),
                ),
                ("evaluations".into(), Json::int(out.evaluations)),
                ("surrogate_scored".into(), Json::int(out.surrogate_scored)),
                ("candidates_seen".into(), Json::int(out.candidates_seen)),
                ("candidates_per_sec".into(), Json::Num(cand_per_sec)),
            ]));
            // Tier 1 must carry the load — the same invariant the CI gate
            // re-checks against the committed baseline.
            if out.evaluations >= out.surrogate_scored {
                violations.push(format!(
                    "{label}: prefilter did not reduce exact evaluations \
                     ({} exact vs {} tier-1)",
                    out.evaluations, out.surrogate_scored
                ));
            }
            if let Some(a) = ledger {
                check_audit(&label, &a, &mut violations);
                audits.push(audit_record(&record_name, nodes_label, &a));
            }
        }
        // Sparsity payoff: re-tune the same single-node widened space with
        // the overbooking dimension closed (the worst-case-dense model) and
        // compare. The overbook-enabled space contains every dense
        // schedule, so on a skewed fixture the tuned overbooked schedule
        // should strictly beat the dense best on DRAM traffic or cycles.
        if w.name.starts_with("cg-sparse/") {
            if let Some(ob) = &single_outcome {
                let mut dense_cfg = SpaceConfig::widened_with_nodes(&[1]);
                dense_cfg.overbook_menu = Vec::new();
                let dense = Tuner::new(&w.dag, &w.accel, dense_cfg)
                    .tune(&Strategy::prefiltered(KEEP_FRAC, inner.clone()));
                let dram_win = ob.best_dram.cost.dram_bytes < dense.best_dram.cost.dram_bytes;
                let cycle_win = ob.best_cycles.cost.cycles < dense.best_cycles.cost.cycles;
                sparse_compared += 1;
                if dram_win || cycle_win {
                    sparse_wins += 1;
                }
                println!(
                    "{}: overbooked best {} B DRAM / {} cyc vs worst-case-dense {} B / {} cyc ({})",
                    w.name,
                    ob.best_dram.cost.dram_bytes,
                    ob.best_cycles.cost.cycles,
                    dense.best_dram.cost.dram_bytes,
                    dense.best_cycles.cost.cycles,
                    if dram_win || cycle_win {
                        "overbooking wins"
                    } else {
                        "no win"
                    },
                );
            }
        }
        // The widened multi-node space contains every single-node schedule;
        // same 2% tolerance as above for the sampled symbolic sweep.
        if let (Some(single), Some(mesh)) = (best_plain_single, best_mesh) {
            if mesh as f64 > CONTAIN_TOL * single as f64 {
                violations.push(format!(
                    "{}: multi-node best traffic {mesh} worse than single-node {single} \
                     beyond {CONTAIN_TOL}x",
                    w.name,
                ));
            }
        }
    }
    if sparse_compared > 0 && sparse_wins == 0 {
        violations.push(format!(
            "no sparse fixture beat the worst-case-dense model \
             ({sparse_compared} compared) — overbooking carries no payoff"
        ));
    }
    emit(
        "dse_quick",
        "cello_dse --quick: three-tier trajectory (CI bench)",
        &DSE_HEADER,
        &rows,
    )
    .unwrap_or_else(|e| eprintln!("[warn] {e}"));
    let doc = Json::Obj(vec![
        ("schema".into(), Json::int(1)),
        (
            "generated_by".into(),
            Json::Str(format!(
                "cello_dse --quick --nodes {}",
                args.nodes
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )),
        ),
        ("keep_frac".into(), Json::Num(KEEP_FRAC)),
        ("workloads".into(), Json::Arr(records)),
    ]);
    match std::fs::write("BENCH_dse.json", doc.render()) {
        Ok(()) => println!("[saved BENCH_dse.json]"),
        Err(e) => {
            eprintln!("could not write BENCH_dse.json: {e}");
            std::process::exit(1);
        }
    }
    if args.audit {
        write_audit_artifact("cello_dse --quick --audit", audits);
    }
    print_obs_summary();
    if !violations.is_empty() {
        eprintln!("quick trajectory FAILED (artifact written above):");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("quick trajectory complete");
}

fn main() {
    let args = parse_args();
    if args.quick {
        run_quick(&args);
        return;
    }

    let multi = args.nodes.iter().any(|&n| n > 1);
    let beam_width = 8;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut wins = 0usize;
    // The cg/G2 outcome over the widened space doubles as the multi-node
    // side of the sweep comparison below — no need to re-tune.
    let mut cg_multi: Option<SearchOutcome> = None;
    let space_for = |menu: &[u64]| {
        if args.prefilter || args.tier0 {
            SpaceConfig::widened_with_nodes(menu)
        } else {
            SpaceConfig::with_nodes(menu)
        }
    };
    let primary = if args.tier0 {
        Strategy::prefiltered(
            KEEP_FRAC,
            Strategy::Tier0 {
                budget: TIER0_BUDGET,
                keep: TIER0_KEEP,
            },
        )
    } else if args.prefilter {
        Strategy::prefiltered(KEEP_FRAC, Strategy::Beam { width: beam_width })
    } else {
        Strategy::Beam { width: beam_width }
    };
    // `--audit`: ledger every primary tune; violations fail the run after
    // the artifact lands.
    let mut audits: Vec<Json> = Vec::new();
    let mut audit_failures: Vec<String> = Vec::new();
    for w in workloads() {
        let mut cfg = if multi && w.multinode {
            space_for(&args.nodes)
        } else {
            space_for(&[1])
        };
        if args.per_phase_sram {
            cfg = cfg.with_repartition(w.accel.sram_words());
        }
        let strategies: Vec<Strategy> = vec![
            primary.clone(),
            Strategy::Random {
                samples: 64,
                seed: RANDOM_SEED,
            },
        ];
        for (si, strategy) in strategies.into_iter().enumerate() {
            // Fresh tuner (and memo cache) per strategy so each row's
            // evals/cache_hits measure that strategy standalone.
            let tuner = Tuner::new(&w.dag, &w.accel, cfg.clone());
            let out = if args.audit && si == 0 {
                let (out, a) = tuner.tune_audited(&strategy, &AuditConfig::default());
                check_audit(w.name, &a, &mut audit_failures);
                audits.push(audit_record(
                    w.name,
                    *args.nodes.iter().max().unwrap_or(&1),
                    &a,
                ));
                out
            } else {
                tuner.tune(&strategy)
            };
            let improved = out.best_cycles.cost.cycles < out.baseline.cost.cycles
                || out.best_dram.cost.dram_bytes < out.baseline.cost.dram_bytes;
            if improved && si == 0 {
                wins += 1;
            }
            if multi && w.name == "cg/G2_circuit" && si == 0 {
                cg_multi = Some(out.clone());
            }
            rows.push(outcome_row(w.name, &out));
        }
    }
    emit(
        "dse",
        "cello_dse: tuned vs. paper-heuristic schedules",
        &DSE_HEADER,
        &rows,
    )
    .unwrap_or_else(|e| eprintln!("[warn] {e}"));
    println!("workloads improved by {} tuning: {wins}", primary.label());

    // Multi-node vs single-node total traffic on CG — the §V-B payoff. The
    // multi-node side is the main loop's widened-space outcome; only the
    // single-node reference needs a fresh tune.
    if multi {
        let dag = build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5));
        let accel = CelloConfig::paper();
        let mut single_cfg = space_for(&[1]);
        if args.per_phase_sram {
            single_cfg = single_cfg.with_repartition(accel.sram_words());
        }
        let single = Tuner::new(&dag, &accel, single_cfg).tune(&primary);
        let swept = cg_multi.expect("cg/G2_circuit always runs under --nodes");
        let s = single.best_traffic.cost.total_traffic_bytes();
        let m = swept.best_traffic.cost.total_traffic_bytes();
        let partition = swept
            .best_traffic
            .candidate
            .constraints
            .partition
            .map(|p| format!("{p:?}"))
            .unwrap_or_else(|| "single-node".into());
        println!(
            "cg multi-node sweep {:?}: best traffic {m} B vs single-node {s} B ({}x, winner {partition})",
            args.nodes,
            f3(s as f64 / m.max(1) as f64),
        );
    }

    // Beam-vs-exhaustive efficiency on the CG DAG (kept to one dataset and
    // the default-size space: exhaustive on the widened space is exactly
    // what the prefilter exists to avoid).
    let dag = build_cg_dag(&CgParams::from_dataset(&SHALLOW_WATER1, 16, 5));
    let accel = CelloConfig::paper();
    let tuner = Tuner::new(&dag, &accel, SpaceConfig::default());
    let beam = tuner.tune(&Strategy::Beam { width: 8 });
    let fresh = Tuner::new(&dag, &accel, SpaceConfig::default());
    let exhaustive = fresh.tune(&Strategy::Exhaustive);
    let cycle_ratio =
        beam.best_cycles.cost.cycles as f64 / exhaustive.best_cycles.cost.cycles.max(1) as f64;
    let eval_ratio = exhaustive.evaluations as f64 / beam.evaluations.max(1) as f64;
    println!(
        "cg beam-vs-exhaustive: cycles ratio {} (<= 1.05 expected), {}x fewer evaluations ({} vs {})",
        f3(cycle_ratio),
        f3(eval_ratio),
        beam.evaluations,
        exhaustive.evaluations,
    );
    print_obs_summary();
    if args.audit {
        write_audit_artifact(&format!("cello_dse --audit ({})", primary.label()), audits);
        if !audit_failures.is_empty() {
            eprintln!("funnel audit FAILED (artifact written above):");
            for v in &audit_failures {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}
