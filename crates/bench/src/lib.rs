//! Shared harness helpers for the `cello-bench` binaries.
//!
//! `src/bin/paper_results.rs` regenerates every paper figure and table from
//! one simulation grid; it, `cello_dse` and `loadgen` print their tables and
//! save one TSV per table under `results/`. This module centralizes the
//! common legwork: running a grid of (workload × configuration) simulations
//! in parallel, number formatting, and emission.

#![forbid(unsafe_code)]

use cello_core::accel::CelloConfig;
use cello_core::score::multinode::Partition;
use cello_graph::dag::TensorDag;
use cello_sim::baselines::{run_partitioned, ConfigKind};
use cello_sim::report::{tsv, write_results, RunReport};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod explain;
/// Re-export of the codec for `cellobench/src/serve.rs`, which imports
/// `cello_bench::json::Json`; everything in the workspace uses
/// `cello_obs::json` directly.
pub use cello_obs::json;

/// One cell of a sweep: a labeled workload DAG under a labeled accelerator,
/// the partition its schedules are built under, and the configurations to run.
pub struct GridCell {
    /// Workload label (dataset, N, bandwidth…).
    pub label: String,
    /// The DAG to run.
    pub dag: TensorDag,
    /// The accelerator configuration.
    pub accel: CelloConfig,
    /// The multi-node partition (§V-B); `Partition::single()` for one node.
    pub partition: Partition,
    /// The configurations this cell runs, in report order.
    pub configs: Vec<ConfigKind>,
}

/// Runs every cell under each of its configurations in parallel: one report
/// list per cell, in the order of its `configs`. Job costs differ by orders
/// of magnitude (a line-level cache on a 16 MB CG against CELLO on a 2-node
/// slice), so each worker takes the next job as it finishes one instead of
/// a fixed share of the list.
pub fn run_grid(cells: &[GridCell]) -> Vec<Vec<RunReport>> {
    let jobs: Vec<(&GridCell, ConfigKind)> = cells
        .iter()
        .flat_map(|c| c.configs.iter().map(move |&k| (c, k)))
        .collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // The counter publishes nothing: reports come back through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(c, k)) = jobs.get(i) else {
                return done;
            };
            done.push((
                i,
                run_partitioned(&c.dag, k, &c.accel, c.partition, &c.label),
            ));
        }
    };
    let mut done: Vec<(usize, RunReport)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..std::thread::available_parallelism().map_or(1, |n| n.get()))
            .map(|_| s.spawn(work))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("grid worker panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    let mut reports = done.into_iter().map(|(_, r)| r);
    cells
        .iter()
        .map(|c| reports.by_ref().take(c.configs.len()).collect())
        .collect()
}

/// Prints a titled table to stdout and saves it under `results/<name>.tsv`;
/// the error names the file it could not save.
pub fn emit(name: &str, title: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
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
    let path = write_results(name, &tsv(header, rows)).map_err(|e| {
        std::io::Error::new(e.kind(), format!("could not save results/{name}.tsv: {e}"))
    })?;
    println!("[saved {}]\n", path.display());
    Ok(())
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
