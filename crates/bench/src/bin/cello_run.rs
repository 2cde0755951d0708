//! `cello_run` — command-line driver: simulate any workload × configuration
//! × accelerator combination and print a full report.
//!
//! ```sh
//! cargo run --release -p cello-bench --bin cello_run -- \
//!     --workload cg --dataset shallow_water1 --n 16 --iterations 10 \
//!     --config cello --bandwidth 1tb --sram-mb 4
//! ```
//!
//! `--trace-out trace.json` additionally writes a Chrome trace-event file
//! (one model-time span tree per simulated config, phases as children) —
//! open it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`
//! for the phase-level flame view.
//!
//! `--report-out reports.json` writes the full [`RunReport`]s (per-phase
//! cycle/DRAM/CHORD vectors included) as a document `cello_explain` can
//! diff — capture one before and one after a change, then attribute the
//! delta per phase and per cost axis.
//!
//! [`RunReport`]: cello_sim::report::RunReport

use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_graph::metrics::metrics;
use cello_serve::protocol::caps::MAX_SRAM_MB;
use cello_sim::baselines::{run_config, ConfigKind};
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{registry, Dataset, DatasetKind};
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::power_iter::{build_power_iter_dag, PowerIterParams};
use cello_workloads::resnet::{build_resnet_stage_dag, ResNetBlockParams};
use std::collections::BTreeMap;
use std::num::{NonZeroU32, NonZeroU64};
use std::process::exit;
use std::str::FromStr;

const USAGE: &str = "\
cello_run — CELLO accelerator simulator driver

USAGE:
    cello_run [--workload cg|bicgstab|gcn|resnet|power]
              [--dataset fv1|shallow_water1|G2_circuit|NASA4704|cora|protein]
              [--config cello|flexagon|flex-lru|flex-brrip|flat|set|prelude|all]
              [--n <block width, default 16>]
              [--iterations <default 10>]
              [--blocks <resnet blocks, default 1>]
              [--bandwidth 1tb|250gb]
              [--sram-mb <MiB, default 4>]
              [--trace-out <chrome-trace JSON file>]
              [--report-out <full-report JSON file for cello_explain>]
              [--help]
";

fn parse_args() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            println!("{USAGE}");
            exit(0);
        }
        // A key is valid when the usage names it as `[--key <value>`.
        let named = |key: &&str| USAGE.contains(&format!("[--{key} "));
        let Some(key) = a.strip_prefix("--").filter(named) else {
            eprintln!("unexpected argument {a:?}\n{USAGE}");
            exit(2);
        };
        let Some(value) = args.next() else {
            eprintln!("missing value for --{key}\n{USAGE}");
            exit(2);
        };
        out.insert(key.to_string(), value);
    }
    out
}

/// Parses `--key`'s value as a positive integer, or prints the usage and
/// exits 2.
fn positive<T: FromStr>(value: &str, key: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("--{key} must be a positive integer, got {value:?}\n{USAGE}");
        exit(2);
    })
}

fn find_dataset(name: &str) -> Dataset {
    registry()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown dataset {name:?}; known: fv1, shallow_water1, G2_circuit, NASA4704, cora, protein");
            exit(2);
        })
}

fn parse_config(name: &str) -> Vec<ConfigKind> {
    match name.to_ascii_lowercase().as_str() {
        "cello" => vec![ConfigKind::Cello],
        "flexagon" => vec![ConfigKind::Flexagon],
        "flex-lru" => vec![ConfigKind::FlexLru],
        "flex-brrip" => vec![ConfigKind::FlexBrrip],
        "flat" => vec![ConfigKind::Flat],
        "set" => vec![ConfigKind::SetLike],
        "prelude" => vec![ConfigKind::PreludeOnly],
        "all" => ConfigKind::all(),
        other => {
            eprintln!("unknown config {other:?}\n{USAGE}");
            exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    let get = |k: &str, default: &str| args.get(k).cloned().unwrap_or_else(|| default.to_string());

    let workload = get("workload", "cg");
    let dataset_name = get("dataset", "shallow_water1");
    let n = positive::<NonZeroU64>(&get("n", "16"), "n").get();
    let iterations = positive::<NonZeroU32>(&get("iterations", "10"), "iterations").get();
    let blocks = positive::<NonZeroU32>(&get("blocks", "1"), "blocks").get();
    // Serve's cap: a 0 MiB SRAM holds no cache lines, and far above the
    // cap `sram_mb << 20` overflows.
    let sram_mb = match get("sram-mb", "4").parse::<u64>() {
        Ok(mb) if (1..=MAX_SRAM_MB).contains(&mb) => mb,
        _ => {
            eprintln!("--sram-mb must be an integer in 1..={MAX_SRAM_MB}\n{USAGE}");
            exit(2);
        }
    };
    let trace_out = args.get("trace-out").cloned();
    let report_out = args.get("report-out").cloned();
    let configs = parse_config(&get("config", "all"));

    let mut accel = match get("bandwidth", "1tb").to_ascii_lowercase().as_str() {
        "1tb" => CelloConfig::paper(),
        "250gb" => CelloConfig::paper_250gbs(),
        other => {
            eprintln!("unknown bandwidth {other:?} (use 1tb or 250gb)");
            exit(2);
        }
    }
    .with_sram_bytes(sram_mb << 20);

    let dag: TensorDag = match workload.as_str() {
        "cg" => build_cg_dag(&CgParams::from_dataset(
            &find_dataset(&dataset_name),
            n,
            iterations,
        )),
        "bicgstab" => build_bicgstab_dag(&BicgParams::from_dataset(
            &find_dataset(&dataset_name),
            n,
            iterations,
        )),
        "gcn" => {
            let d = find_dataset(&dataset_name);
            if !matches!(d.kind, DatasetKind::Graph { .. }) {
                eprintln!(
                    "gcn needs a graph dataset (cora, protein), got {dataset_name:?}\n{USAGE}"
                );
                exit(2);
            }
            build_gcn_dag(&GcnParams::from_dataset(&d, 1))
        }
        "resnet" => {
            accel = accel.with_word_bytes(2); // Table VII
            build_resnet_stage_dag(&ResNetBlockParams::conv3x(), blocks)
        }
        "power" => build_power_iter_dag(&PowerIterParams::from_dataset(
            &find_dataset(&dataset_name),
            iterations,
        )),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            exit(2);
        }
    };

    let m = metrics(&dag);
    println!(
        "workload: {workload} ({dataset_name}) — {} ops, {} edges ({} transitive), depth {}, \
         {:.1} MMACs, {:.1} MB intermediates",
        m.nodes,
        m.edges,
        m.transitive_edges,
        m.depth,
        m.total_macs as f64 / 1e6,
        m.intermediate_words as f64 * accel.word_bytes as f64 / 1e6,
    );
    println!(
        "accelerator: {} PEs @ {:.1} GHz, {} MB SRAM, {:.0} GB/s, {}-byte words\n",
        accel.pe_count,
        accel.freq_hz / 1e9,
        accel.sram_bytes >> 20,
        accel.dram.bandwidth_bytes_per_sec / 1e9,
        accel.word_bytes,
    );
    println!(
        "{:<14}{:>12}{:>14}{:>14}{:>12}{:>12}",
        "config", "GFPMuls/s", "DRAM MB", "energy µJ", "ops/B", "time µs"
    );
    let mut spans = Vec::new();
    let mut reports = Vec::new();
    for kind in configs {
        let r = run_config(&dag, kind, &accel, &workload);
        println!(
            "{:<14}{:>12.1}{:>14.2}{:>14.2}{:>12.2}{:>12.2}",
            kind.label(),
            r.gfpmuls_per_sec(),
            r.dram_bytes as f64 / 1e6,
            r.offchip_energy_pj / 1e6,
            r.achieved_intensity(),
            r.seconds * 1e6,
        );
        if trace_out.is_some() {
            spans.push(cello_sim::obs::report_span(&r, &accel));
        }
        if report_out.is_some() {
            reports.push(r);
        }
    }
    if let Some(path) = trace_out {
        let trace = cello_obs::chrome::chrome_trace(&spans);
        match std::fs::write(&path, trace) {
            Ok(()) => println!(
                "\n[trace] wrote {} span tree(s) to {path} — open in https://ui.perfetto.dev",
                spans.len()
            ),
            Err(e) => {
                eprintln!("cello_run: cannot write {path}: {e}");
                exit(1);
            }
        }
    }
    if let Some(path) = report_out {
        let doc = cello_bench::explain::reports_doc(
            &format!("cello_run --workload {workload} --dataset {dataset_name}"),
            &reports,
        );
        match std::fs::write(&path, doc.render()) {
            Ok(()) => println!(
                "\n[report] wrote {} full report(s) to {path} — diff with cello_explain",
                reports.len()
            ),
            Err(e) => {
                eprintln!("cello_run: cannot write {path}: {e}");
                exit(1);
            }
        }
    }
}
