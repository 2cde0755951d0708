//! `cello_serve` — the schedule-compilation daemon.
//!
//! Listens on `--addr` for newline-delimited JSON compile requests (see
//! `cello_serve::protocol`), compiles through `cello-search` with in-flight
//! coalescing, and persists every outcome in the fingerprint-keyed cache
//! under `--cache-dir` (collision-checked; safe to keep across restarts —
//! a warm boot serves hits straight from disk).
//!
//! Usage: `cargo run --release --bin cello_serve --
//!   [--addr 127.0.0.1:7070] [--cache-dir serve-cache] [--workers N]
//!   [--flight-depth 128]`
//!
//! Stop it with a `{"op": "shutdown"}` frame (`cello_client --shutdown`).

use cello_serve::{serve, Service};
use std::net::TcpListener;
use std::sync::Arc;

struct Args {
    addr: String,
    cache_dir: std::path::PathBuf,
    workers: usize,
    flight_depth: usize,
}

const USAGE: &str =
    "usage: cello_serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N] [--flight-depth N]";

/// Logs `problem` and the usage, then exits with status 2.
fn usage_error(problem: &str) -> ! {
    cello_obs::error!("serve", "{problem}; {USAGE}");
    std::process::exit(2);
}

/// A positive integer, or the usage and exit 2.
fn positive(flag: &str, value: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a positive integer")))
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7070".into(),
        cache_dir: "serve-cache".into(),
        workers: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8),
        flight_depth: cello_serve::DEFAULT_FLIGHT_DEPTH,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--cache-dir" => args.cache_dir = value("--cache-dir").into(),
            "--workers" => args.workers = positive("--workers", &value("--workers")),
            "--flight-depth" => {
                args.flight_depth = positive("--flight-depth", &value("--flight-depth"))
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    // `CELLO_LOG` controls daemon verbosity (default `info`); e.g.
    // `CELLO_LOG=debug,serve=trace cello_serve` for per-compile detail.
    cello_obs::log::init_from_env();
    let args = parse_args();
    // The daemon shares the process-global metrics registry so search-layer
    // counters (exact/tier-1 evals, prefilter tallies) show up in the
    // same `metrics` snapshot as the serve-layer ones.
    let registry = cello_obs::metrics::global();
    let service = match Service::open_with_options(&args.cache_dir, registry, args.flight_depth) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            cello_obs::error!("serve", "cello_serve: {e}");
            std::process::exit(1);
        }
    };
    let listener = match TcpListener::bind(&args.addr) {
        Ok(listener) => listener,
        Err(e) => {
            cello_obs::error!("serve", "cello_serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    println!(
        "cello_serve listening on {local} ({} workers, cache {:?} with {} records)",
        args.workers,
        args.cache_dir,
        service.store_len(),
    );
    cello_obs::info!(
        "serve",
        "accepting connections on {local}; send {{\"op\": \"metrics\"}} or {{\"op\": \"trace\"}} to inspect"
    );
    match serve(listener, service, args.workers) {
        Ok(connections) => println!("cello_serve: shutdown after {connections} connections"),
        Err(e) => {
            cello_obs::error!("serve", "cello_serve: {e}");
            std::process::exit(1);
        }
    }
}
