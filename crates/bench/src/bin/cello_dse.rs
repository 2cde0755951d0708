//! `cello_dse` — the DSE bench trajectory: auto-tune CG/HPCG/GCN over the
//! SCORE × CHORD space through the three-tier funnel.
//!
//! Each workload is tuned at a single node, over the §V-B multi-node mesh
//! [`NODES`] (node count × dominant-rank-slice/stage-split axis, scored on
//! total DRAM + NoC hop-byte traffic), and over the per-phase SRAM
//! repartition space (`SpaceConfig::with_repartition`, `name+pp` records),
//! always with `Prefiltered(0.1, Tier0)` over the widened space: tier 0
//! sweeps up to 49 152 assignments through the closed-form asymptotic cost
//! sketch (`cello_search::tier0` — no schedule build, no phase walk), keeps
//! only the sketch-Pareto survivors (≤ 96), tier 1 ranks those, and the top
//! tenth is promoted to the exact tier. Both concrete tiers score with
//! `sim::evaluate`. The run writes `BENCH_dse.json` at the repo root
//! (cycles, DRAM/NoC bytes, energy, candidates seen/sec) for the
//! `bench_check` regression gate, plus `results/dse.tsv` and the stdout
//! table.
//!
//! The trajectory also carries a **sparse family** (`cg-sparse/*`): CG over
//! real-pattern `.mtx` fixtures under `data/`, built with
//! `CgParams::from_csr` so the DAG carries measured occupancy stats and the
//! widened space opens the CHORD-overbooking dimension. For each sparse
//! workload the tuned overbooked schedule is compared against the best
//! schedule of the same space with the overbook menu removed (the
//! worst-case-dense model); at least one skewed fixture must win strictly
//! on DRAM traffic or cycles, or the trajectory fails.
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
//! Ad-hoc tunes (other workloads, strategies, node menus) go through
//! `cello_client` against the `cello_serve` daemon.
//!
//! Usage: `cargo run --release --bin cello_dse [-- --audit]`

use cello_bench::{emit, f3};
use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_obs::json::Json;
use cello_search::{AuditConfig, FunnelAudit, SearchOutcome, SpaceConfig, Strategy, Tuner};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{load_matrix_market, CORA, G2_CIRCUIT};
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::hpcg::{build_hpcg_dag, HpcgParams};

/// Prefilter keep fraction: the share of tier-1 survivors promoted to the
/// exact tier.
const KEEP_FRAC: f64 = 0.1;
/// Tier-0 sketch budget: how many assignments the symbolic sweep considers
/// per tune.
const TIER0_BUDGET: u64 = 49_152;
/// Tier-0 keep cap: sketch-Pareto survivors promoted to tier 1.
const TIER0_KEEP: usize = 96;
/// The multi-node mesh menu (single node included, so the mesh space
/// contains every single-node schedule).
const NODES: [u64; 4] = [1, 4, 16, 64];
/// Tolerance on the containment checks (per-phase vs global split, mesh vs
/// single node). The bigger space *contains* the smaller, but a sampled
/// tier-0 sweep is not monotone across space inclusion — the larger space
/// draws a different assignment stream — so containment holds to within
/// the funnel's 2% quality bar rather than exactly.
const CONTAIN_TOL: f64 = 1.02;
/// Printed with every refused argument.
const USAGE: &str = "usage: cello_dse [--audit]";

struct Workload {
    name: &'static str,
    dag: TensorDag,
    accel: CelloConfig,
    /// Also tuned over the [`NODES`] mesh (§V-B workloads).
    multinode: bool,
}

/// Whether `--audit` was given; any other argument prints the usage and
/// exits 2.
fn parse_audit() -> bool {
    let mut audit = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--audit" => audit = true,
            other => {
                eprintln!("unknown argument {other:?}; {USAGE}");
                std::process::exit(2);
            }
        }
    }
    audit
}

/// CG over a real `.mtx` fixture: `from_csr` measures per-row-block
/// occupancy, so the DAG carries the stats that gate the overbooking
/// dimension on.
fn sparse_cg(path: &str) -> TensorDag {
    let a = load_matrix_market(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cello_dse: cannot load {path}: {e}");
        std::process::exit(1);
    });
    build_cg_dag(&CgParams::from_csr(&a, 16, 5))
}

fn workloads() -> Vec<Workload> {
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

/// Prints the process-global search instrumentation accumulated over every
/// tune this run (tunes, exact-vs-tier-1 evaluation split, memo cache
/// hits, prefilter keep/drop tallies) — the registry the serve daemon
/// exposes over its `metrics` op, surfaced here for CLI runs.
fn print_obs_summary(audits: &[Ledgered]) {
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
    // received and passed on.
    let t0_kept = get("search_tier0_kept");
    let t0_pruned = get("search_tier0_pruned");
    println!(
        "[obs] funnel: tier0 swept {} -> kept {} ({} pruned symbolically, \
         {} of them by the floor unsketched); \
         tier-1 scored {} -> promoted {}; exact evaluated {}",
        t0_kept + t0_pruned,
        t0_kept,
        t0_pruned,
        get("search_tier0_floored"),
        get("search_surrogate_evals"),
        get("search_prefilter_kept"),
        get("search_exact_evals"),
    );
    if !audits.is_empty() {
        println!(
            "[obs] audit: {} ledgered tunes, cumulative survivor loss {}",
            audits.len(),
            audits.iter().map(|(_, _, a)| a.survivor_loss).sum::<u64>(),
        );
    }
}

/// One audited tune: record name, node-menu label, funnel ledger.
type Ledgered = (String, u64, FunnelAudit);

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
fn write_audit_artifact(audits: &[Ledgered]) {
    let tunes = audits
        .iter()
        .map(|(name, nodes, a)| audit_record(name, *nodes, a))
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::int(1)),
        ("generated_by".into(), Json::Str("cello_dse --audit".into())),
        ("tunes".into(), Json::Arr(tunes)),
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

fn main() {
    let audit = parse_audit();
    // The full three-tier funnel: tier-0 sketches TIER0_BUDGET assignments
    // symbolically, tier 1 ranks the sketch-Pareto survivors, the
    // simulator scores the top KEEP_FRAC of those.
    let strategy = Strategy::prefiltered(
        KEEP_FRAC,
        Strategy::Tier0 {
            budget: TIER0_BUDGET,
            keep: TIER0_KEEP,
        },
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut records: Vec<Json> = Vec::new();
    // Single-node, the NODES mesh (multi-node workloads only), and the
    // per-phase-SRAM space at a single node (`name+pp` records), so the
    // perf gate covers the repartition dimension.
    let variants: [(&[u64], bool); 3] = [(&[1], false), (&NODES, false), (&[1], true)];
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
    let mut audits: Vec<Ledgered> = Vec::new();
    for w in workloads() {
        let mut best_plain_single: Option<u64> = None;
        let mut best_mesh: Option<u64> = None;
        let mut single_outcome: Option<SearchOutcome> = None;
        for (node_menu, per_phase) in variants {
            let nodes_label = *node_menu.iter().max().unwrap_or(&1);
            if nodes_label > 1 && !w.multinode {
                continue;
            }
            let mut cfg = SpaceConfig::widened_with_nodes(node_menu);
            if per_phase {
                cfg = cfg.with_repartition(w.accel.sram_words());
            }
            let record_name = if per_phase {
                format!("{}+pp", w.name)
            } else {
                w.name.to_string()
            };
            let started = std::time::Instant::now();
            let tuner = Tuner::new(&w.dag, &w.accel, cfg);
            // The audited path runs the same tune, then ledgers where every
            // candidate died.
            let (out, ledger) = if audit {
                let (out, a) = tuner.tune_audited(&strategy, &AuditConfig::default());
                (out, Some(a))
            } else {
                (tuner.tune(&strategy), None)
            };
            let elapsed = started.elapsed().as_secs_f64().max(1e-9);
            let cand_per_sec = out.candidates_seen as f64 / elapsed;
            let best = out.best_traffic.cost.total_traffic_bytes();
            match (per_phase, nodes_label) {
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
                audits.push((record_name, nodes_label, a));
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
                let dense = Tuner::new(&w.dag, &w.accel, dense_cfg).tune(&strategy);
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
        "dse",
        "cello_dse: three-tier trajectory (CI bench)",
        &DSE_HEADER,
        &rows,
    )
    .unwrap_or_else(|e| eprintln!("[warn] {e}"));
    let doc = Json::Obj(vec![
        ("schema".into(), Json::int(1)),
        ("generated_by".into(), Json::Str("cello_dse".into())),
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
    if audit {
        write_audit_artifact(&audits);
    }
    print_obs_summary(&audits);
    if !violations.is_empty() {
        eprintln!("trajectory FAILED (artifact written above):");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("trajectory complete");
}
