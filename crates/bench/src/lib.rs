//! Shared harness helpers for the figure/table binaries.
//!
//! `src/bin/paper_results.rs` regenerates the main-results figures and the
//! headline from one grid; every other `src/bin/figXX_*.rs` / `tabXX_*.rs`
//! binary regenerates one paper artifact. Each prints the same rows/series
//! the paper reports and writes a TSV per table under `results/`. This
//! module centralizes the common legwork: running a grid of (workload ×
//! configuration) simulations in parallel, labeling, and emission.

use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_sim::baselines::{run_config, ConfigKind};
use cello_sim::report::{tsv, write_results, RunReport};
use rayon::prelude::*;

pub mod explain;
/// Re-export of the codec for `cellobench/src/serve.rs`, which imports
/// `cello_bench::json::Json`; everything in the workspace uses
/// `cello_obs::json` directly.
pub use cello_obs::json;

/// One cell of a sweep: a labeled workload DAG under a labeled accelerator.
pub struct GridCell {
    /// Workload label (dataset, N, bandwidth…).
    pub label: String,
    /// The DAG to run.
    pub dag: TensorDag,
    /// The accelerator configuration.
    pub accel: CelloConfig,
}

/// Runs `configs` over every grid cell in parallel; results are ordered
/// cell-major then config-major.
pub fn run_grid(cells: &[GridCell], configs: &[ConfigKind]) -> Vec<RunReport> {
    let jobs: Vec<(usize, &GridCell, ConfigKind)> = cells
        .iter()
        .enumerate()
        .flat_map(|(i, c)| {
            configs
                .iter()
                .enumerate()
                .map(move |(j, &k)| (i * configs.len() + j, c, k))
        })
        .collect();
    let mut reports: Vec<(usize, RunReport)> = jobs
        .par_iter()
        .map(|&(idx, cell, kind)| (idx, run_config(&cell.dag, kind, &cell.accel, &cell.label)))
        .collect();
    reports.sort_by_key(|(i, _)| *i);
    reports.into_iter().map(|(_, r)| r).collect()
}

/// Prints a titled table to stdout and saves it under `results/<name>.tsv`.
pub fn emit(name: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
    match write_results(name, &tsv(header, rows)) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn] could not save results/{name}.tsv: {e}"),
    }
    println!();
}

/// Formats a float with context-appropriate precision.
pub fn f3(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Yes/no cell for capability tables.
pub fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

/// One labeled CG cell (the Fig 16(b) SRAM sweep builds its grid from these).
pub fn cg_cell(
    dataset: &cello_workloads::datasets::Dataset,
    n: u64,
    iterations: u32,
    accel: CelloConfig,
    extra: &str,
) -> GridCell {
    let prm = cello_workloads::cg::CgParams::from_dataset(dataset, n, iterations);
    GridCell {
        label: format!("{} N={n}{extra}", dataset.name),
        dag: cello_workloads::cg::build_cg_dag(&prm),
        accel,
    }
}
