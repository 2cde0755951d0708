//! Every paper artifact from one simulation grid: the main results — Fig 12
//! (E9), Fig 13 (E10), Fig 14 (E11), Fig 16(a) (E13), Fig 16(c) (E15) and
//! the 4×/4× headline (E16) — then Fig 2 (E1), Fig 7 (E4), Fig 8 (E5),
//! Fig 15 (E12), Fig 16(b) (E14), Tables I–III (E2, E6, E7), the §VI-B
//! search-space sizes (E8) and the §V-B multi-node ablations (E17).
//!
//! The grid holds 71 distinct workload cells, each simulated once: the 19
//! main-results cells under the Table IV configurations their tables read,
//! and CELLO alone on the Fig 16(b) SRAM points and the §V-B partitioned CG
//! cells. Every table selects its cells and configurations from that grid
//! (or, for the figures that simulate nothing, computes its rows directly),
//! prints its rows and check lines, and saves `results/<name>.tsv`; Fig 7
//! also saves its Graphviz files. A file that cannot be saved exits 1.

use cello_bench::{emit, f3, run_grid, GridCell};
use cello_core::accel::CelloConfig;
use cello_core::score::binding::{build_schedule, ScheduleOptions};
use cello_core::score::classify::{classify, Dependency};
use cello_core::score::multinode::{dominant_partition_rank, NocModel, Partition, PartitionAxis};
use cello_core::search_space::{op_by_op_search_space, scratchpad_search_space};
use cello_graph::dag::{NodeId, TensorDag};
use cello_graph::dot::to_dot;
use cello_mem::model::{AreaEnergyModel, Breakdown, BufferKind};
use cello_sim::baselines::ConfigKind::{
    self, Cello, Flat, FlexBrrip, FlexLru, Flexagon, PreludeOnly, SetLike,
};
use cello_sim::report::{geomean, RunReport};
use cello_tensor::intensity::ai_best_gemm;
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{cg_datasets, CORA, FV1, NASA4704, PROTEIN, SHALLOW_WATER1};
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::hpcg::table1;
use cello_workloads::resnet::{build_resnet_block_dag, ResNetBlockParams};
use std::process::ExitCode;

/// A table row: each cell's `Display` text.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// Workload family of a grid cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Cg,
    Bicg,
    Gnn,
    ResNet,
}

/// Table V DRAM bandwidth of a grid cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bw {
    Tb1,
    Gb250,
}

impl Bw {
    fn label(self) -> &'static str {
        match self {
            Bw::Tb1 => "1TB/s",
            Bw::Gb250 => "250GB/s",
        }
    }
}

/// What identifies a grid cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    family: Family,
    dataset: &'static str,
    n: u64,
    /// Solver iterations (CG, BiCGStab); 1 for a GCN layer or a ResNet block.
    iterations: u32,
    bw: Bw,
    sram_mb: u64,
    /// The §V-B partition; a cell on one node holds `Partition::single()`.
    partition: Partition,
}

impl Key {
    /// A main-results cell: 10 solver iterations, the Table V 4 MB SRAM, one
    /// node.
    fn main(family: Family, dataset: &'static str, n: u64, bw: Bw) -> Key {
        let iterations = match family {
            Family::Cg | Family::Bicg => 10,
            Family::Gnn | Family::ResNet => 1,
        };
        Key {
            family,
            dataset,
            n,
            iterations,
            bw,
            sram_mb: 4,
            partition: Partition::single(),
        }
    }

    /// The key with its partition dropped: the plain cell of a §V-B sweep.
    fn with_single_node(self) -> Key {
        Key {
            partition: Partition::single(),
            ..self
        }
    }

    fn is_main(&self) -> bool {
        *self == Key::main(self.family, self.dataset, self.n, self.bw)
    }

    /// The configurations its tables read: the five main-results ones on a
    /// main cell, with SET on ResNet (Fig 16a) and PRELUDE-only on
    /// shallow_water1 CG at 1 TB/s (Fig 16c); CELLO alone elsewhere.
    fn configs(&self) -> Vec<ConfigKind> {
        if !self.is_main() {
            return vec![Cello];
        }
        let fig16c = self.dataset == SHALLOW_WATER1.name && self.bw == Bw::Tb1;
        let extra = match self.family {
            Family::ResNet => Some(SetLike),
            Family::Cg if fig16c => Some(PreludeOnly),
            _ => None,
        };
        ConfigKind::main_set().into_iter().chain(extra).collect()
    }

    /// The accelerator the cell runs on (ResNet uses 16-bit words, Table VII).
    fn accel(&self) -> CelloConfig {
        let accel = match self.bw {
            Bw::Tb1 => CelloConfig::paper(),
            Bw::Gb250 => CelloConfig::paper_250gbs(),
        }
        .with_sram_bytes(self.sram_mb << 20);
        match self.family {
            Family::ResNet => accel.with_word_bytes(2),
            _ => accel,
        }
    }
}

/// The §V-B placements of `dag` on `nodes` nodes: SCORE's scalable one
/// (slice the dominant rank, ship only Λ/Γ) and the naive one (split the
/// pipeline stages, ship the M×N intermediate), in that order.
fn placements(dag: &TensorDag, nodes: u64) -> [Partition; 2] {
    let rank = dominant_partition_rank(dag).expect("CG has a dominant rank");
    [Partition::by_rank(nodes, rank), Partition::by_stage(nodes)]
}

/// The §V-B strategy name of a multi-node partition.
fn strategy(partition: Partition) -> &'static str {
    match partition.axis {
        PartitionAxis::Rank(_) => "Scalable",
        PartitionAxis::Stage => "Naive",
    }
}

fn cg_dag(dataset: &cello_workloads::datasets::Dataset, n: u64, iterations: u32) -> TensorDag {
    build_cg_dag(&CgParams::from_dataset(dataset, n, iterations))
}

/// The distinct cells, in the order the tables list them. One-node points of
/// a sweep are main cells, so none is listed twice.
fn grid() -> Vec<(Key, GridCell)> {
    let mut grid = Vec::new();
    let mut push = |key: Key, dag: TensorDag| {
        let label = format!("{} N={} {}", key.dataset, key.n, key.bw.label());
        let (accel, partition, configs) = (key.accel(), key.partition, key.configs());
        let cell = GridCell {
            label,
            dag,
            accel,
            partition,
            configs,
        };
        grid.push((key, cell));
    };
    for bw in [Bw::Tb1, Bw::Gb250] {
        for d in cg_datasets() {
            for n in [1u64, 16] {
                push(Key::main(Family::Cg, d.name, n, bw), cg_dag(&d, n, 10));
            }
        }
    }
    for d in [NASA4704, FV1, SHALLOW_WATER1] {
        let dag = build_bicgstab_dag(&BicgParams::from_dataset(&d, 1, 10));
        push(Key::main(Family::Bicg, d.name, 1, Bw::Tb1), dag);
    }
    for d in [CORA, PROTEIN] {
        let dag = build_gcn_dag(&GcnParams::from_dataset(&d, 1));
        push(Key::main(Family::Gnn, d.name, 1, Bw::Tb1), dag);
    }
    for bw in [Bw::Tb1, Bw::Gb250] {
        let dag = build_resnet_block_dag(&ResNetBlockParams::conv3x());
        push(Key::main(Family::ResNet, "conv3_x", 1, bw), dag);
    }
    // Fig 16(b): 1 and 16 MB of SRAM (4 MB is the main cell).
    for n in [1u64, 16] {
        for sram_mb in [1u64, 16] {
            let main = Key::main(Family::Cg, SHALLOW_WATER1.name, n, Bw::Tb1);
            push(Key { sram_mb, ..main }, cg_dag(&SHALLOW_WATER1, n, 10));
        }
    }
    // §V-B strong scaling over 2–64 nodes (1 node is the main cell).
    let dag = cg_dag(&SHALLOW_WATER1, 16, 10);
    for nodes in [2u64, 4, 8, 16, 32, 64] {
        for partition in placements(&dag, nodes) {
            let main = Key::main(Family::Cg, SHALLOW_WATER1.name, 16, Bw::Tb1);
            push(Key { partition, ..main }, dag.clone());
        }
    }
    // §V-B NoC ablation: both placements of 2-iteration CG DAGs.
    for d in cg_datasets() {
        for n in [1u64, 16] {
            let dag = cg_dag(&d, n, 2);
            for nodes in [4u64, 16, 64] {
                for partition in placements(&dag, nodes) {
                    let main = Key::main(Family::Cg, d.name, n, Bw::Tb1);
                    let key = Key {
                        iterations: 2,
                        partition,
                        ..main
                    };
                    push(key, dag.clone());
                }
            }
        }
    }
    grid
}

/// One simulated cell: its key and one report per `Key::configs` entry.
struct Cell {
    key: Key,
    reports: Vec<RunReport>,
}

impl Cell {
    fn get(&self, kind: ConfigKind) -> &RunReport {
        self.reports
            .iter()
            .find(|r| r.config == kind.label())
            .expect("every table reads a config its cell runs")
    }
}

/// Simulates every cell under its configurations in one `run_grid` call.
fn simulate() -> Vec<Cell> {
    let (keys, cells): (Vec<Key>, Vec<GridCell>) = grid().into_iter().unzip();
    keys.into_iter()
        .zip(run_grid(&cells))
        .map(|(key, reports)| Cell { key, reports })
        .collect()
}

/// The grid's cells whose key passes `keep`, in grid order, each labeled
/// the way its table prints it.
fn select(
    grid: &[Cell],
    keep: impl Fn(&Key) -> bool,
    label: impl Fn(&Key) -> String,
) -> Vec<(String, &Cell)> {
    grid.iter()
        .filter(|c| keep(&c.key))
        .map(|c| (label(&c.key), c))
        .collect()
}

/// The grid's cell with `key`.
fn find(grid: &[Cell], key: Key) -> &Cell {
    grid.iter()
        .find(|c| c.key == key)
        .expect("every table reads a cell of the grid")
}

/// The fastest `main_set()` baseline (CELLO excluded; the first on ties).
fn best_baseline(cell: &Cell) -> &RunReport {
    ConfigKind::main_set()
        .into_iter()
        .filter(|&k| k != Cello)
        .map(|k| cell.get(k))
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("main_set has baselines")
}

/// One row per (cell, config): the cell's label, the config's name, `cols`.
fn rows(
    cells: &[(String, &Cell)],
    configs: &[ConfigKind],
    cols: impl Fn(&Cell, &RunReport) -> Vec<String>,
) -> Vec<Vec<String>> {
    let row = |(label, c): &(String, &Cell), k: &ConfigKind| {
        let head = [label.clone(), k.label().to_string()];
        head.into_iter().chain(cols(c, c.get(*k))).collect()
    };
    cells
        .iter()
        .flat_map(|cell| configs.iter().map(move |k| row(cell, k)))
        .collect()
}

/// One emitted table plus the check lines printed under it.
#[derive(Default)]
struct Table {
    name: &'static str,
    title: &'static str,
    /// Column names, `|`-separated.
    header: &'static str,
    rows: Vec<Vec<String>>,
    /// A Graphviz rendering saved as `results/<name>.dot`.
    dot: Option<String>,
    notes: Vec<String>,
}

impl Table {
    /// Prints the table, saves its files, then prints its check lines.
    fn emit(&self) -> std::io::Result<()> {
        let header: Vec<&str> = self.header.split('|').collect();
        emit(self.name, self.title, &header, &self.rows)?;
        if let Some(dot) = &self.dot {
            let path = format!("results/{}.dot", self.name);
            std::fs::write(&path, dot).map_err(|e| {
                std::io::Error::new(e.kind(), format!("could not save {path}: {e}"))
            })?;
            println!("[saved {path}]");
        }
        for note in &self.notes {
            println!("{note}");
        }
        Ok(())
    }
}

/// Fig 12: CG performance for the five main configurations across
/// {fv1, shallow_water1, G2_circuit} × N∈{1,16} at both Table V bandwidths,
/// with the roofline context, and CELLO's speedup over the best baseline.
fn fig12(grid: &[Cell]) -> [Table; 2] {
    let cells = select(
        grid,
        |k| k.is_main() && k.family == Family::Cg,
        |k| format!("{} N={} {}", k.dataset, k.n, k.bw.label()),
    );
    let perf = rows(&cells, &ConfigKind::main_set(), |c, r| {
        let ai = r.achieved_intensity();
        let bound = c.key.accel().roofline().attainable(ai) / 1e9;
        vec![
            f3(r.gfpmuls_per_sec()),
            f3(ai),
            f3(bound),
            f3(r.memory_bound_fraction()),
        ]
    });
    let speedups = cells
        .iter()
        .map(|(label, c)| {
            let best = best_baseline(c);
            let speedup = f3(c.get(Cello).speedup_over(best));
            row![label, best.config, speedup]
        })
        .collect();
    [
        Table {
            name: "fig12_cg",
            title: "Fig 12: CG performance (GigaFPMuls/s, higher is better)",
            header:
                "workload|config|GFPMuls/s|achieved ops/B|roofline bound GFPMuls/s|mem-bound frac",
            rows: perf,
            ..Table::default()
        },
        Table {
            name: "fig12_speedups",
            title: "Fig 12 takeaway: CELLO speedup over the best non-CELLO baseline",
            header: "workload|best baseline|CELLO speedup ×",
            rows: speedups,
            ..Table::default()
        },
    ]
}

/// Fig 13: GNN layers (cora, protein) and BiCGStab (NASA4704, fv1,
/// shallow_water1, N=1). On GNNs CELLO == FLAT > Flexagon (the intermediate
/// is purely pipelineable); on BiCGStab CELLO wins like CG.
fn fig13(grid: &[Cell]) -> Table {
    let mut cells = select(
        grid,
        |k| k.is_main() && k.family == Family::Gnn,
        |k| format!("GNN {}", k.dataset),
    );
    cells.extend(select(
        grid,
        |k| k.is_main() && k.family == Family::Bicg,
        |k| format!("BiCGStab {} N={}", k.dataset, k.n),
    ));
    let notes = cells.iter().map(|(label, c)| match c.key.family {
        Family::Gnn => format!(
            "{label}: CELLO/FLAT DRAM ratio = {} (paper: equal)",
            f3(c.get(Cello).dram_bytes as f64 / c.get(Flat).dram_bytes as f64)
        ),
        _ => format!(
            "{label}: CELLO speedup over Flexagon = {}x",
            f3(c.get(Cello).speedup_over(c.get(Flexagon)))
        ),
    });
    Table {
        name: "fig13_gnn_bicgstab",
        title: "Fig 13: GNN and BiCGStab performance (GigaFPMuls/s, higher is better)",
        header: "workload|config|GFPMuls/s|DRAM bytes|achieved ops/B",
        rows: rows(&cells, &ConfigKind::main_set(), |_, r| {
            let (perf, ai) = (r.gfpmuls_per_sec(), r.achieved_intensity());
            row![f3(perf), r.dram_bytes, f3(ai)]
        }),
        notes: notes.collect(),
        ..Table::default()
    }
}

/// Fig 14: off-chip energy relative to BestIntra+Exp (Flexagon), geomeaned
/// within each workload family. Paper: CELLO is lowest everywhere, 64–83%
/// reduction, 4× geomean. The CELLO line geomeans the unrounded per-family
/// values.
fn fig14(grid: &[Cell]) -> Table {
    let families = [
        ("CG (PDE solvers)", Family::Cg),
        ("BiCGStab (PDE solvers)", Family::Bicg),
        ("GNN", Family::Gnn),
    ];
    let mut rows = Vec::new();
    let mut cello = Vec::new();
    for (name, family) in families {
        for kind in ConfigKind::main_set() {
            let rel: Vec<f64> = grid
                .iter()
                .filter(|c| c.key.is_main() && c.key.family == family && c.key.bw == Bw::Tb1)
                .map(|c| c.get(kind).relative_energy(c.get(Flexagon)))
                .collect();
            let g = geomean(&rel);
            if kind == Cello {
                cello.push(g);
            }
            rows.push(row![name, kind.label(), f3(g)]);
        }
    }
    let g = geomean(&cello);
    Table {
        name: "fig14_energy",
        title: "Fig 14: off-chip energy relative to BestIntra+Exp (geomean per family, lower is better)",
        header: "workload family|config|relative off-chip energy",
        rows,
        notes: vec![format!(
            "CELLO geomean relative energy = {} (reduction {}%; paper reports 64–83% per family, ~4x geomean)",
            f3(g),
            f3((1.0 - g) * 100.0)
        )],
        ..Table::default()
    }
}

/// Fig 16(a): the ResNet conv3_x residual block with the SET baseline added.
/// Compute-bound at 1 TB/s; SET == CELLO (delayed hold suffices — ResNet has
/// no delayed writeback); FLAT worse (cannot fuse the skip).
fn fig16a(grid: &[Cell]) -> Table {
    let cells = select(
        grid,
        |k| k.is_main() && k.family == Family::ResNet,
        |k| format!("ResNet {} {}", k.dataset, k.bw.label()),
    );
    let configs = [Flexagon, FlexLru, FlexBrrip, Flat, SetLike, Cello];
    let notes = cells.iter().map(|(label, c)| {
        format!(
            "{label}: SET/CELLO DRAM ratio = {} (paper: SET performs the same as CELLO on ResNet)",
            f3(c.get(SetLike).dram_bytes as f64 / c.get(Cello).dram_bytes as f64)
        )
    });
    Table {
        name: "fig16a_resnet",
        title: "Fig 16(a): ResNet block performance and relative off-chip energy",
        header: "workload|config|GFPMuls/s|rel. off-chip energy|mem-bound frac",
        rows: rows(&cells, &configs, |c, r| {
            let energy = r.relative_energy(c.get(Flexagon));
            vec![
                f3(r.gfpmuls_per_sec()),
                f3(energy),
                f3(r.memory_bound_fraction()),
            ]
        }),
        notes: notes.collect(),
        ..Table::default()
    }
}

/// Fig 16(c): the PRELUDE-only ablation on CG (shallow_water1, N ∈ {1,16}).
/// PRELUDE-only beats Flexagon/FLAT, is close to CELLO at N=1 and falls
/// behind at N=16 (RIFF's frequency-aware replacement keeps hot tensors).
fn fig16c(grid: &[Cell]) -> Table {
    let cells = select(
        grid,
        |k| {
            k.is_main()
                && k.family == Family::Cg
                && k.bw == Bw::Tb1
                && k.dataset == SHALLOW_WATER1.name
        },
        |k| format!("{} N={}", k.dataset, k.n),
    );
    let notes = cells.iter().map(|(label, c)| {
        let pre = c.get(PreludeOnly);
        format!(
            "{label}: PRELUDE-only speedup over Flexagon {}x; CELLO over PRELUDE-only {}x",
            f3(pre.speedup_over(c.get(Flexagon))),
            f3(c.get(Cello).speedup_over(pre)),
        )
    });
    Table {
        name: "fig16c_prelude",
        title: "Fig 16(c): PRELUDE-only vs Flexagon/FLAT/CELLO on CG (shallow_water1)",
        header: "workload|config|GFPMuls/s|DRAM bytes",
        rows: rows(&cells, &[Flexagon, Flat, PreludeOnly, Cello], |_, r| {
            row![f3(r.gfpmuls_per_sec()), r.dram_bytes]
        }),
        notes: notes.collect(),
        ..Table::default()
    }
}

/// The headline: geomean CELLO speedup and energy efficiency across every
/// HPC workload of the evaluation (paper: 4× and 4×).
fn summary(grid: &[Cell]) -> Table {
    let cells = select(
        grid,
        |k| k.is_main() && k.family != Family::ResNet && k.bw == Bw::Tb1,
        |k| match k.family {
            Family::Cg => format!("{} N={} CG", k.dataset, k.n),
            Family::Bicg => format!("{} BiCGStab", k.dataset),
            _ => format!("{} GNN", k.dataset),
        },
    );
    let (mut vs_flexagon, mut vs_best, mut efficiency) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for (label, c) in cells {
        let (cello, flexagon, best) = (c.get(Cello), c.get(Flexagon), best_baseline(c));
        vs_flexagon.push(cello.speedup_over(flexagon));
        vs_best.push(cello.speedup_over(best));
        efficiency.push(1.0 / cello.relative_energy(flexagon));
        rows.push(vec![
            label,
            f3(cello.speedup_over(flexagon)),
            format!("{} ({})", f3(cello.speedup_over(best)), best.config),
            f3(1.0 / cello.relative_energy(flexagon)),
        ]);
    }
    Table {
        name: "summary",
        title: "Headline: CELLO speedup and energy-efficiency per workload",
        header: "workload|speedup vs Flexagon ×|speedup vs best baseline ×|\
                 energy efficiency vs Flexagon ×",
        rows,
        notes: vec![
            format!(
                "GEOMEAN: speedup vs Flexagon = {}x | vs best baseline = {}x | energy efficiency = {}x",
                f3(geomean(&vs_flexagon)),
                f3(geomean(&vs_best)),
                f3(geomean(&efficiency)),
            ),
            "(paper: 4x geomean speedup, 4x energy efficiency across HPC workloads)".into(),
        ],
        ..Table::default()
    }
}

/// Fig 2: arithmetic intensity of regular vs skewed GEMMs and the roofline
/// they land on (word = 4 B, BW = 1 TB/s, 16384 MACs @ 1 GHz). Paper: the
/// regular 512³ GEMM reaches 42.66 ops/byte (compute bound), the skewed
/// 524288×16×16 GEMM 2 ops/byte (memory bound) despite identical MACs.
fn fig02() -> Table {
    let accel = CelloConfig::paper();
    let roof = accel.roofline();
    let gemms = [
        ("regular 512x512x512", 512, 512, 512),
        ("skewed 524288x16x16", 524_288, 16, 16),
    ];
    let rows = gemms.map(|(name, m, k, n)| {
        let ai = ai_best_gemm(m, k, n, accel.word_bytes);
        let (word, byte) = (ai.ops_per_word(), ai.ops_per_byte());
        let gfpmuls = roof.attainable(byte) / 1e9;
        let regime = if roof.memory_bound(byte) {
            "memory-bound"
        } else {
            "compute-bound"
        };
        row![name, ai.macs, f3(word), f3(byte), f3(gfpmuls), regime]
    });
    let ridge = |accel: CelloConfig| f3(accel.roofline().ridge_point());
    Table {
        name: "fig02_roofline",
        title: "Fig 2: arithmetic intensity and roofline (1 TB/s, 16384 MACs @ 1 GHz)",
        header: "gemm|MACs|ops/word|ops/byte|attainable GFPMuls/s|regime",
        rows: rows.into(),
        notes: vec![format!(
            "ridge point @1TB/s = {} ops/byte; @250GB/s = {} ops/byte (paper: 16.384 / 65.536)",
            ridge(accel),
            ridge(CelloConfig::paper_250gbs()),
        )],
        ..Table::default()
    }
}

/// Fig 7: Algorithm 2's per-edge classification (the paper's colored edges)
/// on CG — two unrolled iterations, so the cross-iteration delayed
/// dependencies show — and on a ResNet residual block, with Graphviz files.
fn fig07() -> [Table; 2] {
    let cg = cg_dag(&SHALLOW_WATER1, 16, 2);
    let resnet = build_resnet_block_dag(&ResNetBlockParams::conv3x());
    [
        classified(
            "fig07_cg",
            "Fig 7 (left): Algorithm 2 on CG (2 unrolled iterations)",
            &cg,
        ),
        classified(
            "fig07_resnet",
            "Fig 7 (right): Algorithm 2 on the ResNet residual block",
            &resnet,
        ),
    ]
}

/// One Fig 7 panel: `dag`'s edges with their Algorithm 2 dependency.
fn classified(name: &'static str, title: &'static str, dag: &TensorDag) -> Table {
    let cls = classify(dag);
    let node = |i| dag.node(NodeId(i));
    let rows = dag.edges().map(|(e, edge)| {
        let (src, dst) = (node(edge.src), node(edge.dst));
        let transitive = if cls.transitive[e.0] { "yes" } else { "no" };
        row![
            src.name,
            dst.name,
            src.output.name,
            src.dominance,
            transitive,
            cls.dep(e)
        ]
    });
    let color = |e| match cls.dep(e) {
        Dependency::Sequential => "gray",
        Dependency::Pipelineable => "blue",
        Dependency::DelayedHold => "cyan",
        Dependency::DelayedWriteback => "firebrick",
    };
    let h = cls.histogram();
    Table {
        name,
        title,
        header: "src|dst|tensor|src dom|transitive|dependency",
        rows: rows.collect(),
        dot: Some(to_dot(dag, |e| (color(e).into(), cls.dep(e).to_string()))),
        notes: vec![format!(
            "histogram: sequential={} pipelineable={} delayed_hold={} delayed_writeback={}\n",
            h[0], h[1], h[2], h[3]
        )],
    }
}

/// Fig 8: the CG iteration schedule — pipeline clusters, realized
/// pipelining, tensor bindings — and the §V-B closed-form NoC words of the
/// naive and scalable multi-node tilings (Fig 8 bottom).
fn fig08() -> [Table; 3] {
    let prm = CgParams::from_dataset(&SHALLOW_WATER1, 16, 2);
    let dag = build_cg_dag(&prm);
    let schedule = build_schedule(&dag, ScheduleOptions::cello());
    schedule.validate(&dag).expect("CELLO schedule is valid");
    let node = |i| dag.node(NodeId(i));
    let clusters = schedule.phases.iter().enumerate().map(|(i, phase)| {
        let ops: Vec<&str> = phase.ops.iter().map(|&n| &*dag.node(n).name).collect();
        let pipelined: Vec<String> = phase
            .realized_edges
            .iter()
            .map(|&e| dag.edge(e))
            .map(|e| (&node(e.src).output.name, node(e.dst).name.split(':').next()))
            .map(|(tensor, op)| format!("{tensor}→{}", op.unwrap_or("?")))
            .collect();
        let pipelined = if pipelined.is_empty() {
            "-".into()
        } else {
            pipelined.join(", ")
        };
        row![i, ops.join(" | "), pipelined]
    });
    let mut bindings: Vec<_> = schedule
        .binding
        .iter()
        .map(|(tensor, binding)| row![tensor, format!("{binding:?}")])
        .collect();
    bindings.sort();
    let (m, n, nprime) = (prm.m, prm.n, prm.nprime);
    let multinode = [4, 16, 64].map(|nodes| {
        let noc = NocModel::new(nodes);
        let (naive, scalable) = (noc.naive_words(m, n), noc.scalable_words(n, nprime));
        row![nodes, naive, scalable, f3(noc.advantage(m, n, nprime))]
    });
    [
        Table {
            name: "fig08_clusters",
            title: "Fig 8: CELLO pipeline clusters on CG (2 iterations, shallow_water1, N=16)",
            header: "phase|ops (space-concurrent)|pipelined tensors",
            rows: clusters.collect(),
            ..Table::default()
        },
        Table {
            name: "fig08_bindings",
            title: "SCORE→buffer bindings (§V-C)",
            header: "tensor|binding",
            rows: bindings,
            ..Table::default()
        },
        Table {
            name: "fig08_multinode",
            title: "Fig 8 (bottom) / §V-B: NoC words per pipelined exchange, naive vs scalable",
            header: "nodes|naive (move R: M·N)|scalable (Λ/Γ·hops)|advantage ×",
            rows: multinode.into(),
            ..Table::default()
        },
    ]
}

/// Fig 15: area (mm²) and per-access energy (pJ) of 4 MB buffer structures.
/// Paper: buffet 6.72 mm², cache 9.87 mm² (data 6.59 + tag 1.85), CHORD
/// 6.74 mm²; cache energy ≈ 2× explicit, since tag energy is comparable to
/// data energy.
fn fig15() -> [Table; 2] {
    let m = AreaEnergyModel::default();
    let kinds = [
        (BufferKind::Buffet, "Buffet"),
        (BufferKind::Cache, "Cache (8-way)"),
        (BufferKind::Chord, "CHORD"),
        (BufferKind::Scratchpad, "Scratchpad"),
    ];
    let rows = |breakdown: fn(&AreaEnergyModel, BufferKind, u64) -> Breakdown| {
        kinds.map(|(kind, name)| {
            let b = breakdown(&m, kind, 4 << 20);
            row![name, f3(b.data), f3(b.tag), f3(b.controller), f3(b.total())]
        })
    };
    let header = "structure|data|tag/metadata|controller|total";
    [
        Table {
            name: "fig15_area",
            title: "Fig 15(a): 4 MB buffer area (mm²) — paper: buffet 6.72, cache 9.87, CHORD 6.74",
            header,
            rows: rows(AreaEnergyModel::area_breakdown).into(),
            ..Table::default()
        },
        Table {
            name: "fig15_energy",
            title: "Fig 15(b): per-access energy (pJ, one 16 B access)",
            header,
            rows: rows(AreaEnergyModel::energy_breakdown).into(),
            notes: vec![format!(
                "RIFF table: {} bits total ({}x smaller than the cache tag array's {} bits)",
                m.chord_metadata_bits(),
                m.cache_tag_bits_4mb() / m.chord_metadata_bits(),
                m.cache_tag_bits_4mb(),
            )],
            ..Table::default()
        },
    ]
}

/// Fig 16(b): CELLO vs CHORD capacity, SRAM swept over {1, 4, 16} MB on
/// shallow_water1, N ∈ {1, 16}. For N=16 (5.2 MB tensors) performance grows
/// with capacity; for N=1 (328 KB tensors) 4 MB already suffices and the
/// curve is flat from there.
fn fig16b(grid: &[Cell]) -> Table {
    let mut rows = Vec::new();
    for n in [1, 16] {
        for sram_mb in [1, 4, 16] {
            let main = Key::main(Family::Cg, SHALLOW_WATER1.name, n, Bw::Tb1);
            let r = find(grid, Key { sram_mb, ..main }).get(Cello);
            let label = format!("{} N={n} SRAM={sram_mb}MB", main.dataset);
            let perf = f3(r.gfpmuls_per_sec());
            rows.push(row![label, perf, r.dram_bytes, f3(r.stats.hit_rate())]);
        }
    }
    // The last three rows are N=16's; their second column is throughput.
    let n16: Vec<&str> = rows[3..].iter().map(|r| &*r[1]).collect();
    Table {
        name: "fig16b_sweep",
        title: "Fig 16(b): CELLO vs CHORD capacity (shallow_water1, 10 CG iterations)",
        header: "workload|GFPMuls/s|DRAM bytes|CHORD hit rate",
        notes: vec![format!(
            "N=16 throughput across 1/4/16 MB: {} (paper: increasing)",
            n16.join(" -> ")
        )],
        rows,
        ..Table::default()
    }
}

/// Table I: HPCG vs HPL on the top supercomputers — CG reaches only 1–3% of
/// peak.
fn tab01() -> Table {
    let or_na = |cell: Option<String>| cell.unwrap_or_else(|| "n/a".into());
    let rows = table1().into_iter().map(|e| {
        let hpcg = or_na(e.hpcg_pflops.map(f3));
        let of_hpl = or_na(e.hpcg_pct_of_hpl().map(|p| format!("{p:.2}%")));
        let of_peak = or_na(e.hpcg_pct_of_peak.map(|p| format!("{p}%")));
        row![e.system, f3(e.hpl_pflops), hpcg, of_hpl, of_peak]
    });
    Table {
        name: "tab01_hpcg",
        title: "Table I: CG (HPCG) vs LINPACK (HPL) on top supercomputers",
        header: "system|HPL PFLOP/s|HPCG PFLOP/s|HPCG as % of HPL|HPCG % of peak",
        rows: rows.collect(),
        ..Table::default()
    }
}

/// Table II: SCORE vs prior schedulers — the capability matrix, derived
/// from each configuration's feature flags.
fn tab02() -> Table {
    let yn = |flag| if flag { "yes" } else { "no" };
    let rows = ConfigKind::all().into_iter().map(|k| {
        let c = k.capabilities();
        let flags = [
            c.intra_op,
            c.parallel_multicast,
            c.pipelining,
            c.delayed_hold,
            c.delayed_writeback,
            c.swizzle_minimization,
            c.part_implicit_buffer,
        ];
        let cells = [k.label()].into_iter().chain(flags.map(yn));
        cells.map(String::from).collect()
    });
    Table {
        name: "tab02_score",
        title: "Table II: scheduler capabilities (derived from implemented feature flags)",
        header: "scheduler|intra-op|multicast|pipelining|delayed hold|delayed writeback|\
                 swizzle min.|part-implicit buffer",
        rows: rows.collect(),
        notes: vec![
            "Paper mapping: Flexagon row ≈ MAESTRO/Timeloop/TPU class; FLAT row ≈ FusedCNN/FLAT/\n\
             FlashAttention/TileFlow class; SET row ≈ SET/TANGRAM class; CELLO row = SCORE (this work)."
                .into(),
        ],
        ..Table::default()
    }
}

/// Table III: CHORD vs known buffer mechanisms — exposure, granularity,
/// policy, online — with the Fig 15 area/energy of each at 4 MB.
fn tab03() -> Table {
    const MECHANISMS: &str = "\
        Cache|Implicit|Line-level|Fully agnostic|yes
        Scratchpad|Explicit|Line-level|Fully controlled, no dependency support|no
        Buffets|Explicit|Tile-level (credit-based)|Fully controlled|no
        CHORD (this work)|Hybrid (coarse explicit, cycle-level implicit)|Object-level|\
        Object-aware policies, coarse-grained control|yes";
    let m = AreaEnergyModel::default();
    let kinds = [
        BufferKind::Cache,
        BufferKind::Scratchpad,
        BufferKind::Buffet,
        BufferKind::Chord,
    ];
    let rows = MECHANISMS.lines().zip(kinds).map(|(text, kind)| {
        let model = [
            m.area_mm2(kind, 4 << 20),
            m.energy_per_access_pj(kind, 4 << 20),
        ];
        let text = text.trim().split('|').map(String::from);
        text.chain(model.map(f3)).collect()
    });
    Table {
        name: "tab03_chord",
        title: "Table III: buffer mechanisms (+ modeled 4 MB area/energy)",
        header: "mechanism|architectural exposure|placement granularity|placement policy|\
                 online|area mm²|energy/access pJ",
        rows: rows.collect(),
        ..Table::default()
    }
}

/// §VI-B: why explicit scratchpad allocation for DAG-level reuse is
/// intractable (the paper's ~10⁸⁰) while op-by-op allocation is ~10¹⁵ and
/// CHORD's policy space ~10². A 4 MB buffer of 32-bit words, five contending
/// CG tensors (A, P, S, R, X) at shallow_water1 N=16 sizes, re-allocated per
/// operation over one 7-operation iteration.
fn tab_searchspace() -> Table {
    const FACTORS: &str = "\
        (1) slice allocation C(size+T-1,T-1)
        (2) arrangement T! (contiguous)
        (3) slice choice ∏(Ti−Ti_slice) (contiguous)
        static product (1)·(2)·(3)
        (4) time-varying, ^7 steps  [paper: ~10^80]
        op-by-op (7 ops × C(size+2,2))  [paper: 7×10^15]";
    let words = (4 << 20) / 4;
    let prm = CgParams::from_dataset(&SHALLOW_WATER1, 16, 10);
    let (a, big) = (prm.a_payload_words, prm.big_words());
    let dag = build_cg_dag(&prm);
    let (nodes, edges) = (dag.node_count(), dag.edge_count());
    let r = scratchpad_search_space(words, &[a, big, big, big, big], 7, nodes, edges);
    let log10s = [
        r.log10_slice_allocation,
        r.log10_arrangement,
        r.log10_slice_choice,
        r.log10_static_total,
        r.log10_time_varying,
        op_by_op_search_space(words, 3, 7),
    ];
    let pow = |log10: f64| format!("10^{}", f3(log10));
    let factors = FACTORS.lines().zip(log10s);
    let mut rows: Vec<_> = factors
        .map(|(f, log10)| row![f.trim(), pow(log10)])
        .collect();
    let points = r.chord_design_points;
    rows.push(row![
        format!("CHORD policy inputs: nodes({nodes}) + edges({edges})  [paper: ~10^2]"),
        format!("{} ({points} points)", pow((points as f64).log10())),
    ]);
    Table {
        name: "tab_searchspace",
        title: "§VI-B: buffer-allocation design-space sizes (log10)",
        header: "cost factor|choices",
        rows,
        ..Table::default()
    }
}

/// §V-B ablation: NoC hop-bytes of the naive and scalable placements of each
/// 2-iteration CG DAG — orders of magnitude apart on the same engine.
fn ablation_noc(grid: &[Cell]) -> Table {
    // The ablation's cells are the grid's only 2-iteration ones, each node
    // count's scalable cell right before its naive one.
    let label = |k: &Key| format!("{} N={}", k.dataset, k.n);
    let cells = select(grid, |k| k.iterations == 2, label);
    let rows = cells.chunks(2).map(|pair| {
        let [(label, scalable), (_, naive)] = pair else {
            unreachable!("placements come in pairs")
        };
        let nodes = naive.key.partition.nodes;
        let naive = naive.get(Cello).noc_hop_bytes;
        let scalable = scalable.get(Cello).noc_hop_bytes;
        let advantage = f3(naive as f64 / scalable.max(1) as f64);
        row![label, nodes, naive, scalable, advantage]
    });
    Table {
        name: "ablation_noc",
        title: "§V-B ablation: NoC hop-bytes per 2-iteration CG schedule (naive vs scalable)",
        header: "workload|nodes|naive hop-B|scalable hop-B|advantage ×",
        rows: rows.collect(),
        ..Table::default()
    }
}

/// §V-B strong scaling (Fig 8 bottom, executed): CELLO on shallow_water1
/// N=16 over 1–64 nodes under the scalable and the naive placement. One node
/// is the main cell under either placement.
fn ablation_scaling(grid: &[Cell]) -> Table {
    let plain = Key::main(Family::Cg, SHALLOW_WATER1.name, 16, Bw::Tb1);
    let single = find(grid, plain).get(Cello);
    let mut rows = Vec::new();
    for c in grid.iter().filter(|c| c.key.with_single_node() == plain) {
        let strategies = match c.key.partition {
            p if p.is_multi() => vec![strategy(p)],
            _ => vec!["Scalable", "Naive"],
        };
        let r = c.get(Cello);
        let (ms, speedup) = (f3(r.seconds * 1e3), f3(r.speedup_over(single)));
        for s in strategies {
            let nodes = c.key.partition.nodes;
            rows.push(row![nodes, s, ms, speedup, r.noc_hop_bytes, r.dram_bytes]);
        }
    }
    Table {
        name: "ablation_scaling",
        title: "§V-B strong scaling: CELLO on shallow_water1 N=16 (10 iterations)",
        header: "nodes|strategy|time ms|speedup ×|NoC bytes|aggregate DRAM bytes",
        rows,
        notes: vec![
            "expected: Scalable scales superlinearly while per-node slices exceed CHORD,\n\
             then near-linearly; Naive saturates on NoC traffic (M·N words/iteration)."
                .into(),
        ],
        ..Table::default()
    }
}

/// Every table, in print order: the main results, then the other artifacts.
fn tables(grid: &[Cell]) -> Vec<Table> {
    let mut tables = Vec::from(fig12(grid));
    tables.extend([fig13, fig14, fig16a, fig16c, summary].map(|table| table(grid)));
    tables.push(fig02());
    tables.extend(fig07());
    tables.extend(fig08());
    tables.extend(fig15());
    tables.push(fig16b(grid));
    tables.extend([tab01(), tab02(), tab03(), tab_searchspace()]);
    tables.extend([ablation_noc, ablation_scaling].map(|table| table(grid)));
    tables
}

fn main() -> ExitCode {
    for t in tables(&simulate()) {
        if let Err(e) = t.emit() {
            eprintln!("paper_results: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_search::fingerprint::dag_canonical_text;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A report that only names its configuration and runtime.
    fn report(kind: ConfigKind, seconds: f64) -> RunReport {
        RunReport {
            config: kind.label().to_string(),
            workload: String::new(),
            cycles: 1,
            seconds,
            macs: 1,
            dram_bytes: 1,
            nodes: 1,
            noc_hop_bytes: 0,
            offchip_energy_pj: 1.0,
            onchip_energy_pj: 1.0,
            noc_energy_pj: 0.0,
            stats: Default::default(),
            phase_cycles: vec![(1, 1)],
            phase_dram_bytes: vec![1],
            phase_stats: vec![Default::default()],
            phase_noc_hop_words: vec![0],
            phase_total_cycles: vec![1],
        }
    }

    fn cell(key: Key, seconds: impl Fn(ConfigKind) -> f64) -> Cell {
        Cell {
            key,
            reports: ConfigKind::all()
                .into_iter()
                .map(|k| report(k, seconds(k)))
                .collect(),
        }
    }

    /// The grid with a placeholder report per config each cell runs.
    fn unsimulated(grid: &[(Key, GridCell)]) -> Vec<Cell> {
        let reports = |c: &GridCell| c.configs.iter().map(|&k| report(k, 1.0)).collect();
        grid.iter()
            .map(|(key, c)| Cell {
                key: *key,
                reports: reports(c),
            })
            .collect()
    }

    /// No two cells share a (DAG, accelerator, partition) triple, a 1-node
    /// point of a sweep is its main cell, and every table has the rows its
    /// cells give it (`Cell::get` panics on a config its cell does not run).
    #[test]
    fn nothing_is_simulated_twice() {
        let grid = grid();
        let distinct: HashSet<(String, String, String)> = grid
            .iter()
            .map(|(_, c)| {
                let partition = format!("{:?}", c.partition);
                (
                    dag_canonical_text(&c.dag),
                    c.accel.canonical_text(),
                    partition,
                )
            })
            .collect();
        assert_eq!((grid.len(), distinct.len()), (71, 71));
        for (_, c) in &grid {
            assert!(c.partition.is_multi() || c.partition == Partition::single());
        }
        // The 19 main cells run the five main-results configs, 2 ResNet
        // cells add SET and 2 shallow_water1 CG cells PRELUDE-only; the 52
        // others run CELLO.
        let main = grid.iter().filter(|(k, _)| k.is_main()).count();
        let runs: usize = grid.iter().map(|(_, c)| c.configs.len()).sum();
        assert_eq!((main, runs), (19, 19 * 5 + 2 + 2 + 52));

        let rows: Vec<(&str, usize)> = tables(&unsimulated(&grid))
            .iter()
            .map(|t| (t.name, t.rows.len()))
            .collect();
        assert_eq!(
            rows,
            [
                ("fig12_cg", 12 * 5),
                ("fig12_speedups", 12),
                ("fig13_gnn_bicgstab", 5 * 5),
                ("fig14_energy", 3 * 5),
                ("fig16a_resnet", 2 * 6),
                ("fig16c_prelude", 2 * 4),
                ("summary", 11),
                ("fig02_roofline", 2),
                ("fig07_cg", 26),
                ("fig07_resnet", 5),
                ("fig08_clusters", 10),
                ("fig08_bindings", 21),
                ("fig08_multinode", 3),
                ("fig15_area", 4),
                ("fig15_energy", 4),
                ("fig16b_sweep", 2 * 3),
                ("tab01_hpcg", 5),
                ("tab02_score", 7),
                ("tab03_chord", 4),
                ("tab_searchspace", 7),
                ("ablation_noc", 3 * 2 * 3),
                // 1 node reads the main cell under both placements.
                ("ablation_scaling", 7 * 2),
            ]
        );
    }

    /// A cell runs only the configurations its tables read: with any one
    /// report removed, building the tables panics.
    #[test]
    fn every_simulated_config_is_read() {
        let grid = grid();
        let mut cells = unsimulated(&grid);
        for i in 0..cells.len() {
            for kind in cells[i].key.configs() {
                let at = cells[i]
                    .reports
                    .iter()
                    .position(|r| r.config == kind.label());
                let removed = cells[i].reports.remove(at.expect("the cell runs kind"));
                let read = catch_unwind(AssertUnwindSafe(|| tables(&cells))).is_err();
                assert!(
                    read,
                    "{:?} runs {} but no table reads it",
                    cells[i].key, removed.config
                );
                cells[i].reports.insert(at.unwrap(), removed);
            }
        }
    }

    #[test]
    fn best_baseline_is_the_fastest_main_set_baseline() {
        let key = grid()[0].0;
        // CELLO, then SET and PRELUDE-only, run faster than every baseline
        // of the main set; Flex+BRRIP is the fastest of those.
        let c = cell(key, |k| match k {
            Cello => 0.5,
            SetLike => 0.6,
            PreludeOnly => 0.7,
            FlexBrrip => 2.0,
            _ => 3.0,
        });
        assert_eq!(best_baseline(&c).config, "Flex+BRRIP");
        // Ties go to the first in main_set order.
        let c = cell(key, |k| if k == Cello { 0.5 } else { 1.0 });
        assert_eq!(best_baseline(&c).config, "Flexagon");
    }
}
