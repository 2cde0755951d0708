//! The paper's main results — Fig 12 (E9), Fig 13 (E10), Fig 14 (E11),
//! Fig 16(a) (E13), Fig 16(c) (E15) and the 4×/4× headline (E16) — from one
//! simulation grid: every Table IV configuration over 19 distinct workload
//! cells, each simulated once. Every table selects its cells and
//! configurations from that grid, prints its rows and check lines, and saves
//! `results/<name>.tsv`.

use cello_bench::{emit, f3, run_grid, GridCell};
use cello_core::accel::CelloConfig;
use cello_sim::baselines::ConfigKind::{
    self, Cello, Flat, FlexBrrip, FlexLru, Flexagon, PreludeOnly, SetLike,
};
use cello_sim::report::{geomean, RunReport};
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{cg_datasets, CORA, FV1, NASA4704, PROTEIN, SHALLOW_WATER1};
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::resnet::{build_resnet_block_dag, ResNetBlockParams};

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
    bw: Bw,
}

impl Key {
    /// The accelerator the cell runs on (ResNet uses 16-bit words, Table VII).
    fn accel(&self) -> CelloConfig {
        let accel = match self.bw {
            Bw::Tb1 => CelloConfig::paper(),
            Bw::Gb250 => CelloConfig::paper_250gbs(),
        };
        match self.family {
            Family::ResNet => accel.with_word_bytes(2),
            _ => accel,
        }
    }
}

/// The distinct cells, in the order the tables list them.
fn grid() -> Vec<(Key, GridCell)> {
    let mut grid = Vec::new();
    let mut push = |family, dataset: &'static str, n, bw: Bw, dag| {
        let key = Key {
            family,
            dataset,
            n,
            bw,
        };
        let (label, accel) = (format!("{dataset} N={n} {}", bw.label()), key.accel());
        grid.push((key, GridCell { label, dag, accel }));
    };
    for bw in [Bw::Tb1, Bw::Gb250] {
        for d in cg_datasets() {
            for n in [1u64, 16] {
                let dag = build_cg_dag(&CgParams::from_dataset(&d, n, 10));
                push(Family::Cg, d.name, n, bw, dag);
            }
        }
    }
    for d in [NASA4704, FV1, SHALLOW_WATER1] {
        let dag = build_bicgstab_dag(&BicgParams::from_dataset(&d, 1, 10));
        push(Family::Bicg, d.name, 1, Bw::Tb1, dag);
    }
    for d in [CORA, PROTEIN] {
        let dag = build_gcn_dag(&GcnParams::from_dataset(&d, 1));
        push(Family::Gnn, d.name, 1, Bw::Tb1, dag);
    }
    for bw in [Bw::Tb1, Bw::Gb250] {
        let dag = build_resnet_block_dag(&ResNetBlockParams::conv3x());
        push(Family::ResNet, "conv3_x", 1, bw, dag);
    }
    grid
}

/// One simulated cell: its key and one report per `ConfigKind::all()` entry.
struct Cell {
    key: Key,
    reports: Vec<RunReport>,
}

impl Cell {
    fn get(&self, kind: ConfigKind) -> &RunReport {
        self.reports
            .iter()
            .find(|r| r.config == kind.label())
            .expect("every table reads a config of ConfigKind::all()")
    }
}

/// Simulates every cell under every configuration in one `run_grid` call.
fn simulate() -> Vec<Cell> {
    let (keys, cells): (Vec<Key>, Vec<GridCell>) = grid().into_iter().unzip();
    let configs = ConfigKind::all();
    let mut reports = run_grid(&cells, &configs).into_iter();
    keys.into_iter()
        .map(|key| Cell {
            key,
            reports: reports.by_ref().take(configs.len()).collect(),
        })
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
struct Table {
    name: &'static str,
    title: &'static str,
    header: &'static [&'static str],
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

/// Fig 12: CG performance for the five main configurations across
/// {fv1, shallow_water1, G2_circuit} × N∈{1,16} at both Table V bandwidths,
/// with the roofline context, and CELLO's speedup over the best baseline.
fn fig12(grid: &[Cell]) -> [Table; 2] {
    let cells = select(
        grid,
        |k| k.family == Family::Cg,
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
            vec![
                label.clone(),
                best.config.clone(),
                f3(c.get(Cello).speedup_over(best)),
            ]
        })
        .collect();
    [
        Table {
            name: "fig12_cg",
            title: "Fig 12: CG performance (GigaFPMuls/s, higher is better)",
            header: &[
                "workload",
                "config",
                "GFPMuls/s",
                "achieved ops/B",
                "roofline bound GFPMuls/s",
                "mem-bound frac",
            ],
            rows: perf,
            notes: vec![],
        },
        Table {
            name: "fig12_speedups",
            title: "Fig 12 takeaway: CELLO speedup over the best non-CELLO baseline",
            header: &["workload", "best baseline", "CELLO speedup ×"],
            rows: speedups,
            notes: vec![],
        },
    ]
}

/// Fig 13: GNN layers (cora, protein) and BiCGStab (NASA4704, fv1,
/// shallow_water1, N=1). On GNNs CELLO == FLAT > Flexagon (the intermediate
/// is purely pipelineable); on BiCGStab CELLO wins like CG.
fn fig13(grid: &[Cell]) -> Table {
    let mut cells = select(
        grid,
        |k| k.family == Family::Gnn,
        |k| format!("GNN {}", k.dataset),
    );
    cells.extend(select(
        grid,
        |k| k.family == Family::Bicg,
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
        header: &[
            "workload",
            "config",
            "GFPMuls/s",
            "DRAM bytes",
            "achieved ops/B",
        ],
        rows: rows(&cells, &ConfigKind::main_set(), |_, r| {
            let (perf, ai) = (r.gfpmuls_per_sec(), r.achieved_intensity());
            vec![f3(perf), r.dram_bytes.to_string(), f3(ai)]
        }),
        notes: notes.collect(),
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
                .filter(|c| c.key.family == family && c.key.bw == Bw::Tb1)
                .map(|c| c.get(kind).relative_energy(c.get(Flexagon)))
                .collect();
            let g = geomean(&rel);
            if kind == Cello {
                cello.push(g);
            }
            rows.push(vec![name.to_string(), kind.label().to_string(), f3(g)]);
        }
    }
    let g = geomean(&cello);
    Table {
        name: "fig14_energy",
        title: "Fig 14: off-chip energy relative to BestIntra+Exp (geomean per family, lower is better)",
        header: &["workload family", "config", "relative off-chip energy"],
        rows,
        notes: vec![format!(
            "CELLO geomean relative energy = {} (reduction {}%; paper reports 64–83% per family, ~4x geomean)",
            f3(g),
            f3((1.0 - g) * 100.0)
        )],
    }
}

/// Fig 16(a): the ResNet conv3_x residual block with the SET baseline added.
/// Compute-bound at 1 TB/s; SET == CELLO (delayed hold suffices — ResNet has
/// no delayed writeback); FLAT worse (cannot fuse the skip).
fn fig16a(grid: &[Cell]) -> Table {
    let cells = select(
        grid,
        |k| k.family == Family::ResNet,
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
        header: &[
            "workload",
            "config",
            "GFPMuls/s",
            "rel. off-chip energy",
            "mem-bound frac",
        ],
        rows: rows(&cells, &configs, |c, r| {
            let energy = r.relative_energy(c.get(Flexagon));
            vec![
                f3(r.gfpmuls_per_sec()),
                f3(energy),
                f3(r.memory_bound_fraction()),
            ]
        }),
        notes: notes.collect(),
    }
}

/// Fig 16(c): the PRELUDE-only ablation on CG (shallow_water1, N ∈ {1,16}).
/// PRELUDE-only beats Flexagon/FLAT, is close to CELLO at N=1 and falls
/// behind at N=16 (RIFF's frequency-aware replacement keeps hot tensors).
fn fig16c(grid: &[Cell]) -> Table {
    let cells = select(
        grid,
        |k| k.family == Family::Cg && k.bw == Bw::Tb1 && k.dataset == SHALLOW_WATER1.name,
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
        header: &["workload", "config", "GFPMuls/s", "DRAM bytes"],
        rows: rows(&cells, &[Flexagon, Flat, PreludeOnly, Cello], |_, r| {
            vec![f3(r.gfpmuls_per_sec()), r.dram_bytes.to_string()]
        }),
        notes: notes.collect(),
    }
}

/// The headline: geomean CELLO speedup and energy efficiency across every
/// HPC workload of the evaluation (paper: 4× and 4×).
fn summary(grid: &[Cell]) -> Table {
    let cells = select(
        grid,
        |k| k.family != Family::ResNet && k.bw == Bw::Tb1,
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
        header: &[
            "workload",
            "speedup vs Flexagon ×",
            "speedup vs best baseline ×",
            "energy efficiency vs Flexagon ×",
        ],
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
    }
}

/// Every table, in print order.
fn tables(grid: &[Cell]) -> Vec<Table> {
    let mut tables = Vec::from(fig12(grid));
    tables.extend([fig13, fig14, fig16a, fig16c, summary].map(|table| table(grid)));
    tables
}

fn main() {
    for t in tables(&simulate()) {
        emit(t.name, t.title, t.header, &t.rows);
        for note in &t.notes {
            println!("{note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_search::fingerprint::dag_canonical_text;
    use std::collections::HashSet;

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

    /// No two cells share a (DAG, accelerator) pair, and every (cell,
    /// config) a table reads is in the grid: `Cell::get` panics on a missing
    /// config, and each table has one row per selected cell and config.
    #[test]
    fn nothing_is_simulated_twice() {
        let grid = grid();
        let distinct: HashSet<(String, String)> = grid
            .iter()
            .map(|(_, c)| (dag_canonical_text(&c.dag), c.accel.canonical_text()))
            .collect();
        assert_eq!((grid.len(), distinct.len()), (19, 19));

        let cells: Vec<Cell> = grid
            .into_iter()
            .map(|(key, _)| cell(key, |_| 1.0))
            .collect();
        let rows: Vec<(&str, usize)> = tables(&cells)
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
            ]
        );
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
