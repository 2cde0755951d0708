//! `cello_explain` — attribute a cycle/DRAM delta between two runs.
//!
//! Takes two JSON artifacts (before, after) and prints the ranked
//! attribution table from [`cello_bench::explain`]. Accepted shapes, both
//! sides detected independently but required to match in kind:
//!
//! - a **report document** from `cello_run --report-out` (`{schema,
//!   reports: [...]}`), or a bare serialized report — diffed per phase and
//!   per cost axis (compute, exposed transfer, NoC/serialization,
//!   DRAM read/write/spill-tail), the exact decomposition;
//! - a **record document** (`BENCH_dse.json` / `results/
//!   bench_baseline.json`, `{workloads: [...]}`) — diffed field by field,
//!   ranked by relative change (records carry totals, not phases).
//!
//! ```sh
//! cello_run --config cello --report-out before.json
//! # ...change something...
//! cello_run --config cello --report-out after.json
//! cello_explain before.json after.json
//!
//! cello_explain --record cg/G2_circuit --nodes 1 \
//!     results/bench_baseline.json BENCH_dse.json
//! ```
//!
//! With a report document holding several configs, `--pick <config>`
//! selects one (exact match on the config label); a single-report document
//! needs no selector.

use cello_bench::explain;
use cello_obs::json::Json;
use cello_sim::report::RunReport;
use std::process::exit;

const USAGE: &str = "\
cello_explain — regression attribution between two runs

USAGE:
    cello_explain [--pick <config>] <before.json> <after.json>
    cello_explain --record <name> [--nodes <n>] <before.json> <after.json>

    <before/after.json>  report documents (cello_run --report-out), bare
                         reports, or record documents (BENCH_dse.json shape)
    --pick <config>      config label to select from a multi-report document
    --record <name>      record name to diff from {workloads: [...]} documents
    --nodes <n>          record node count (default 1)
    --top <k>            rows per attribution section (default 12)
";

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cello_explain: cannot read {path}: {e}");
        exit(1);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cello_explain: {path} is not valid JSON: {e}");
        exit(1);
    })
}

/// Pulls one report out of a document: bare report, or `reports` array
/// filtered by `--pick`.
fn select_report(path: &str, doc: &Json, pick: Option<&str>) -> RunReport {
    if doc.get("phase_total_cycles").is_some() {
        return explain::report_from_json(doc).unwrap_or_else(|e| {
            eprintln!("cello_explain: {path}: {e}");
            exit(1);
        });
    }
    let Some(reports) = doc.get("reports").and_then(Json::as_array) else {
        eprintln!("cello_explain: {path} has neither \"phase_total_cycles\" nor \"reports\"");
        exit(1);
    };
    let matching: Vec<&Json> = reports
        .iter()
        .filter(|r| match pick {
            Some(label) => r.get("config").and_then(Json::as_str) == Some(label),
            None => true,
        })
        .collect();
    let chosen = match matching.as_slice() {
        [one] => one,
        [] => {
            eprintln!(
                "cello_explain: {path}: no report matches --pick {:?} (configs: {})",
                pick.unwrap_or("<none>"),
                reports
                    .iter()
                    .filter_map(|r| r.get("config").and_then(Json::as_str))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            exit(1);
        }
        many => {
            eprintln!(
                "cello_explain: {path} holds {} reports — select one with --pick (configs: {})",
                many.len(),
                many.iter()
                    .filter_map(|r| r.get("config").and_then(Json::as_str))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            exit(1);
        }
    };
    explain::report_from_json(chosen).unwrap_or_else(|e| {
        eprintln!("cello_explain: {path}: {e}");
        exit(1);
    })
}

/// Pulls one flat record's numeric fields out of a `{workloads: [...]}`
/// document.
fn select_record(path: &str, doc: &Json, name: &str, nodes: u64) -> Vec<(String, f64)> {
    let Some(workloads) = doc.get("workloads").and_then(Json::as_array) else {
        eprintln!("cello_explain: {path} has no \"workloads\" array (record mode)");
        exit(1);
    };
    let found = workloads.iter().find(|w| {
        w.get("name").and_then(Json::as_str) == Some(name)
            && w.get("nodes").and_then(Json::as_f64) == Some(nodes as f64)
    });
    let Some(Json::Obj(members)) = found else {
        eprintln!(
            "cello_explain: {path}: no record {name:?}@{nodes}n (records: {})",
            workloads
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .collect::<Vec<_>>()
                .join(", ")
        );
        exit(1);
    };
    members
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect()
}

fn main() {
    let mut pick: Option<String> = None;
    let mut record: Option<String> = None;
    let mut nodes: u64 = 1;
    let mut top: usize = 12;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}\n{USAGE}");
                exit(2);
            })
        };
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            "--pick" => pick = Some(value("--pick")),
            "--record" => record = Some(value("--record")),
            "--nodes" => {
                nodes = value("--nodes").parse().unwrap_or_else(|_| {
                    eprintln!("--nodes must be an integer\n{USAGE}");
                    exit(2);
                })
            }
            "--top" => {
                top = value("--top").parse().unwrap_or_else(|_| {
                    eprintln!("--top must be an integer\n{USAGE}");
                    exit(2);
                })
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                exit(2);
            }
            path => paths.push(path.to_string()),
        }
    }
    let [before_path, after_path] = paths.as_slice() else {
        eprintln!("expected exactly two paths (before, after)\n{USAGE}");
        exit(2);
    };
    let before_doc = read_json(before_path);
    let after_doc = read_json(after_path);

    if let Some(name) = record {
        let before = select_record(before_path, &before_doc, &name, nodes);
        let after = select_record(after_path, &after_doc, &name, nodes);
        let rows = explain::rank_field_deltas(&before, &after);
        print!(
            "{}",
            explain::render_field_table(&format!("{name}@{nodes}n"), &rows)
        );
        return;
    }
    let before = select_report(before_path, &before_doc, pick.as_deref());
    let after = select_report(after_path, &after_doc, pick.as_deref());
    let e = explain::diff_reports(&before, &after);
    print!("{}", e.render(top));
    let (axis, delta) = e.dominant_cycle_axis();
    if delta != 0 {
        println!("dominant cycle axis: {axis} ({delta:+} cycles)");
    }
}
