//! `cello_client` — one-shot CLI client for the `cello_serve` daemon.
//!
//! Builds a compile request from flags, sends it as one newline-delimited
//! JSON frame, prints the response, and optionally writes the served
//! schedule's annotated DOT (phase clusters + per-phase SRAM splits) to a
//! file for visual audit.
//!
//! Usage:
//!   `cello_client [--addr 127.0.0.1:7070] [--workload cg] [--dataset fv1]`
//!   `             [--mtx data/pde_512.mtx] [--n 16] [--iterations 2]`
//!   `             [--nodes 1,4] [--strategy beam4] [--sram-mb 4]`
//!   `             [--per-phase-sram] [--widened] [--dot schedule.dot]`
//!   `cello_client --stats | --metrics | --metrics-prom | --trace | --shutdown`
//!
//! `--metrics-prom` prints the daemon's registry in the Prometheus text
//! exposition format (raw, scrape-ready), including the live
//! `request_us_window` summary (p50/p95/p99 over the last 60 s).

use cello_obs::json::Json;
use cello_serve::protocol::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

struct Args {
    addr: String,
    request: Request,
    mtx: Option<std::path::PathBuf>,
    dot_path: Option<std::path::PathBuf>,
    op: Op,
}

enum Op {
    Compile,
    Stats,
    Metrics,
    MetricsProm,
    Trace,
    Shutdown,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7070".into(),
        request: Request::cg("fv1"),
        mtx: None,
        dot_path: None,
        op: Op::Compile,
    };
    args.request.dataset = None; // set below by --dataset / --mtx / defaults
    let mut dataset: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--workload" => args.request.workload = value("--workload"),
            "--dataset" => dataset = Some(value("--dataset")),
            "--mtx" => args.mtx = Some(value("--mtx").into()),
            "--n" => args.request.n = parse_num(&value("--n"), "--n"),
            "--iterations" => {
                args.request.iterations = parse_num(&value("--iterations"), "--iterations")
            }
            "--layers" => args.request.layers = parse_num(&value("--layers"), "--layers"),
            "--nx" => args.request.nx = Some(parse_num(&value("--nx"), "--nx")),
            "--nodes" => {
                args.request.nodes = value("--nodes")
                    .split(',')
                    .map(|s| parse_num(s.trim(), "--nodes"))
                    .collect()
            }
            "--strategy" => args.request.strategy = value("--strategy"),
            "--sram-mb" => args.request.sram_mb = parse_num(&value("--sram-mb"), "--sram-mb"),
            "--per-phase-sram" => args.request.per_phase_sram = true,
            "--widened" => args.request.widened = true,
            "--dot" => {
                args.request.emit_dot = true;
                args.dot_path = Some(value("--dot").into());
            }
            "--stats" => args.op = Op::Stats,
            "--metrics" => args.op = Op::Metrics,
            "--metrics-prom" => args.op = Op::MetricsProm,
            "--trace" => args.op = Op::Trace,
            "--shutdown" => args.op = Op::Shutdown,
            other => {
                eprintln!("unknown argument {other:?} (see the module docs for usage)");
                std::process::exit(2);
            }
        }
    }
    if let Some(d) = dataset {
        args.request.dataset = Some(d);
    }
    args
}

/// `s` as a number of the field's type; anything else, an out-of-range
/// value included, exits 2.
fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: not a {}: {s:?}", std::any::type_name::<T>());
        std::process::exit(2);
    })
}

fn exchange(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("cello_client: cannot connect to {addr}: {e} (is cello_serve running?)");
        std::process::exit(1);
    });
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("cello_client: {e}");
        std::process::exit(1);
    });
    if let Err(e) = writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
    {
        eprintln!("cello_client: send failed: {e}");
        std::process::exit(1);
    }
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    if let Err(e) = reader.read_line(&mut response) {
        eprintln!("cello_client: read failed: {e}");
        std::process::exit(1);
    }
    response
}

fn main() {
    let mut args = parse_args();

    // A local .mtx becomes an explicit pattern: the daemon never reads
    // client file systems — the client derives m/nnz and ships numbers.
    if let Some(path) = &args.mtx {
        match cello_workloads::datasets::load_matrix_market(path) {
            Ok(a) => {
                args.request.dataset = None;
                args.request.m = Some(a.rows() as u64);
                args.request.nnz = Some(a.nnz() as u64);
                println!(
                    "[mtx] {path:?}: {} x {}, {} non-zeros (occupancy {:.2})",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    a.occupancy(),
                );
            }
            Err(e) => {
                eprintln!("cello_client: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.request.dataset.is_none() && args.request.m.is_none() {
        args.request.dataset = Some("fv1".into());
    }

    let line = match args.op {
        Op::Stats => r#"{"op": "stats"}"#.to_string(),
        Op::Metrics => r#"{"op": "metrics"}"#.to_string(),
        Op::MetricsProm => r#"{"op": "metrics-prom"}"#.to_string(),
        Op::Trace => r#"{"op": "trace"}"#.to_string(),
        Op::Shutdown => r#"{"op": "shutdown"}"#.to_string(),
        Op::Compile => args.request.to_line(),
    };
    let raw = exchange(&args.addr, &line);
    let doc = match Json::parse(raw.trim()) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cello_client: unparseable response ({e}): {raw}");
            std::process::exit(1);
        }
    };
    match args.op {
        Op::Stats | Op::Metrics | Op::Trace | Op::Shutdown => {
            println!("{}", doc.render().trim_end());
        }
        Op::MetricsProm => {
            // Print the exposition text raw (scrape-ready), not the JSON
            // envelope it shipped in.
            match doc.get("text").and_then(Json::as_str) {
                Some(text) => print!("{text}"),
                None => {
                    eprintln!("cello_client: response has no text member: {raw}");
                    std::process::exit(1);
                }
            }
        }
        Op::Compile => match Response::from_json(&doc) {
            Ok(resp) => {
                let speedup = resp.base_cycles as f64 / resp.tuned_cycles.max(1) as f64;
                println!(
                    "[{}] fp {} in {} µs: {} cycles ({speedup:.2}x vs heuristic), {} B traffic, {} sim evals, pareto {}",
                    resp.cache.as_str(),
                    &resp.fingerprint[..12.min(resp.fingerprint.len())],
                    resp.compile_micros,
                    resp.tuned_cycles,
                    resp.tuned_traffic_bytes,
                    resp.evaluations,
                    resp.pareto_size,
                );
                match (args.dot_path, resp.dot) {
                    (Some(path), Some(dot)) => match std::fs::write(&path, dot) {
                        Ok(()) => println!("[saved {}]", path.display()),
                        Err(e) => {
                            eprintln!("cello_client: cannot write {path:?}: {e}");
                            std::process::exit(1);
                        }
                    },
                    (Some(_), None) => eprintln!("cello_client: server sent no dot"),
                    _ => {}
                }
            }
            Err(e) => {
                eprintln!("cello_client: {e}");
                // Show the raw frame so the typed kind/message is visible.
                eprintln!("{}", doc.compact());
                std::process::exit(1);
            }
        },
    }
}
