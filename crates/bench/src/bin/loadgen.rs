//! `loadgen` — drive the daemon with N concurrent clients over a mixed
//! workload stream and measure serving behavior.
//!
//! The stream mixes CG (two Table VI datasets + one *real-pattern* request
//! whose m/nnz come from a Matrix Market file, `--mtx`), HPCG, GCN, and
//! BiCGStab compile requests; each client replays the mix `--rounds` times,
//! so after the first cold compilations the stream is dominated by
//! fingerprint cache hits — the amortization the serving layer exists for.
//!
//! Reports per-request p50/p95 latency, throughput, cache hit rate, and
//! the cold-vs-hit latency ratio, into `BENCH_serve.json` (gated by
//! `bench_check` against `results/bench_baseline.json`) plus a
//! `results/serve_loadgen.tsv` table.
//!
//! `--quick` is the CI smoke shape (8 clients × 4 rounds) and additionally
//! *enforces* the serving acceptance bar: zero failed requests, ≥ 50% hit
//! rate, and cache hits ≥ 100× faster than cold compilation.
//!
//! With `--addr` it drives an already-running daemon; without, it
//! self-hosts one in-process (still over real TCP on a loopback port).
//!
//! Usage: `cargo run --release --bin loadgen --
//!   [--addr 127.0.0.1:7070] [--clients 8] [--rounds 4]
//!   [--cache-dir DIR] [--mtx data/pde_512.mtx] [--quick]`

use cello_bench::{emit, f3};
use cello_obs::json::Json;
use cello_obs::HistogramSnapshot;
use cello_serve::protocol::{CacheTag, Request, Response};
use cello_serve::{serve, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    addr: Option<String>,
    clients: usize,
    rounds: usize,
    cache_dir: Option<PathBuf>,
    mtx: Option<PathBuf>,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        clients: 8,
        rounds: 4,
        cache_dir: None,
        mtx: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--clients" => {
                args.clients = value("--clients").parse().unwrap_or_else(|_| {
                    eprintln!("--clients needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--rounds" => {
                args.rounds = value("--rounds").parse().unwrap_or_else(|_| {
                    eprintln!("--rounds needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir").into()),
            "--mtx" => args.mtx = Some(value("--mtx").into()),
            "--quick" => args.quick = true,
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: loadgen [--addr HOST:PORT] [--clients N] [--rounds R] [--cache-dir DIR] [--mtx FILE] [--quick]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.clients == 0 || args.rounds == 0 {
        eprintln!("--clients and --rounds must be positive");
        std::process::exit(2);
    }
    args
}

/// The mixed request stream (name, request). Cold compiles are sized like
/// production requests — widened spaces, several unrolled iterations, a
/// multi-node menu — so the cold-vs-hit ratio measures a real amortization;
/// a full `--quick` run stays CI-friendly because after round one the
/// cache carries the load.
fn workload_mix(mtx: Option<&PathBuf>) -> Vec<(String, Request)> {
    let cg = |dataset: &str, iterations: u32, nodes: Vec<u64>| {
        let mut req = Request::cg(dataset);
        req.iterations = iterations;
        req.nodes = nodes;
        req.strategy = "beam8".into();
        req.widened = true;
        req
    };
    let mut mix = vec![
        ("cg/G2_circuit".to_string(), {
            let mut req = cg("G2_circuit", 5, vec![1, 4]);
            req.per_phase_sram = true;
            req
        }),
        ("cg/fv1".to_string(), cg("fv1", 6, vec![1])),
        ("hpcg/nx32".to_string(), {
            let mut req = cg("fv1", 4, vec![1]);
            req.workload = "hpcg".into();
            req.dataset = None;
            req.nx = Some(32);
            req
        }),
        ("gcn/cora".to_string(), {
            let mut req = cg("cora", 2, vec![1, 4]);
            req.workload = "gcn".into();
            req.layers = 3;
            req
        }),
        ("bicgstab/NASA4704".to_string(), {
            let mut req = cg("NASA4704", 3, vec![1]);
            req.workload = "bicgstab".into();
            req
        }),
    ];
    // The real-pattern request: m/nnz read from a Matrix Market file
    // client-side (the daemon only ever sees numbers).
    if let Some(path) = mtx {
        match cello_workloads::datasets::load_matrix_market(path) {
            Ok(a) => {
                let mut req = cg("fv1", 6, vec![1]);
                req.dataset = None;
                req.m = Some(a.rows() as u64);
                req.nnz = Some(a.nnz() as u64);
                mix.push((format!("cg/mtx:{}", path.display()), req));
            }
            Err(e) => {
                eprintln!("loadgen: cannot load {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    mix
}

/// One request's observation. `micros` is the client-side wall clock
/// (queueing included — what a user feels); `server_micros` is the
/// daemon-reported time to produce the response (what the cache saves).
struct Sample {
    name: String,
    micros: u64,
    server_micros: u64,
    tag: Option<CacheTag>, // None = failed request
}

/// Folds an iterator of latencies into the shared obs histogram type — the
/// same log2-bucketed estimator the daemon's `metrics` op reports, so
/// loadgen's p50/p95/p99 and the server-side `request_us` snapshot are
/// directly comparable (both clamp percentiles to the exact [min, max]).
fn histogram(values: impl Iterator<Item = u64>) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::empty();
    for v in values {
        h.record(v);
    }
    h
}

fn main() {
    let args = parse_args();
    let mtx = args.mtx.clone().or_else(|| {
        let default = PathBuf::from("data/pde_512.mtx");
        default.exists().then_some(default)
    });
    let mix = workload_mix(mtx.as_ref());

    // Self-host when no --addr: a real daemon on a loopback port.
    let (addr, hosted) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let cache_dir = args.cache_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!("cello-loadgen-{}", std::process::id()))
            });
            let fresh = !cache_dir.exists();
            let service = Arc::new(Service::open(&cache_dir).unwrap_or_else(|e| {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            }));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
                eprintln!("loadgen: cannot bind loopback: {e}");
                std::process::exit(1);
            });
            let addr = listener.local_addr().expect("bound").to_string();
            let daemon = std::thread::spawn(move || serve(listener, service, 8));
            println!("[self-hosted daemon on {addr}, cache {cache_dir:?}]");
            (
                addr,
                Some((daemon, cache_dir, fresh && args.cache_dir.is_none())),
            )
        }
    };

    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| {
                let mix = &mix;
                let addr = &addr;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let stream = match TcpStream::connect(addr) {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            stream
                        }
                        Err(e) => {
                            eprintln!("loadgen client {client}: connect failed: {e}");
                            return samples;
                        }
                    };
                    let mut writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(e) => {
                            eprintln!("loadgen client {client}: {e}");
                            return samples;
                        }
                    };
                    let mut reader = BufReader::new(stream);
                    for round in 0..args.rounds {
                        for (wi, (name, req)) in mix.iter().enumerate() {
                            let mut req = req.clone();
                            req.id = (client * 1_000_000 + round * 1_000 + wi) as u64;
                            let frame = format!("{}\n", req.to_line());
                            let begun = Instant::now();
                            let mut line = String::new();
                            let ok = writer.write_all(frame.as_bytes()).is_ok()
                                && writer.flush().is_ok()
                                && matches!(reader.read_line(&mut line), Ok(n) if n > 0);
                            let micros = begun.elapsed().as_micros() as u64;
                            let resp = if ok {
                                Json::parse(line.trim())
                                    .ok()
                                    .and_then(|doc| Response::from_json(&doc).ok())
                            } else {
                                None
                            };
                            samples.push(Sample {
                                name: name.clone(),
                                micros,
                                server_micros: resp.as_ref().map_or(0, |r| r.compile_micros),
                                tag: resp.map(|r| r.cache),
                            });
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = started.elapsed().as_secs_f64().max(1e-9);

    // Shut the self-hosted daemon down before reporting.
    if let Some((daemon, cache_dir, ephemeral)) = hosted {
        if let Ok(mut stream) = TcpStream::connect(&addr) {
            let _ = stream.write_all(b"{\"op\": \"shutdown\"}\n");
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
        match daemon.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => eprintln!("loadgen: daemon error: {e}"),
            Err(_) => eprintln!("loadgen: daemon panicked"),
        }
        if ephemeral {
            let _ = std::fs::remove_dir_all(&cache_dir);
        }
    }

    // Aggregate.
    let total = samples.len();
    let failed = samples.iter().filter(|s| s.tag.is_none()).count();
    let hits = samples
        .iter()
        .filter(|s| matches!(s.tag, Some(CacheTag::Hit) | Some(CacheTag::Coalesced)))
        .count();
    let hit_rate = hits as f64 / total.max(1) as f64;
    let coalesced = samples
        .iter()
        .filter(|s| s.tag == Some(CacheTag::Coalesced))
        .count();
    let latencies = histogram(samples.iter().map(|s| s.micros));
    let p50 = latencies.percentile(50.0);
    let p95 = latencies.percentile(95.0);
    let p99 = latencies.percentile(99.0);
    // Cold-vs-hit on *server-reported* time: client wall clock under full
    // concurrency folds queueing and CPU contention from neighboring
    // compiles into hit latency, which would understate (and jitter) the
    // amortization the cache actually provides.
    let cold_count = samples
        .iter()
        .filter(|s| matches!(s.tag, Some(CacheTag::Miss) | Some(CacheTag::Warm)))
        .count();
    let cold_micros = histogram(
        samples
            .iter()
            .filter(|s| matches!(s.tag, Some(CacheTag::Miss) | Some(CacheTag::Warm)))
            .map(|s| s.server_micros),
    )
    .mean();
    let hit_micros = histogram(
        samples
            .iter()
            .filter(|s| matches!(s.tag, Some(CacheTag::Hit)))
            .map(|s| s.server_micros),
    )
    .mean();
    let hit_speedup = if hit_micros > 0.0 {
        cold_micros / hit_micros
    } else {
        0.0
    };
    let throughput = total as f64 / wall;

    // Per-workload table.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, _) in &mix {
        let of: Vec<&Sample> = samples.iter().filter(|s| &s.name == name).collect();
        if of.is_empty() {
            continue;
        }
        let lat = histogram(of.iter().map(|s| s.micros));
        let tag_count = |want: CacheTag| {
            of.iter()
                .filter(|s| s.tag == Some(want))
                .count()
                .to_string()
        };
        rows.push(vec![
            name.clone(),
            of.len().to_string(),
            of.iter().filter(|s| s.tag.is_none()).count().to_string(),
            tag_count(CacheTag::Miss),
            tag_count(CacheTag::Warm),
            tag_count(CacheTag::Coalesced),
            tag_count(CacheTag::Hit),
            lat.percentile(50.0).to_string(),
            lat.percentile(95.0).to_string(),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        total.to_string(),
        failed.to_string(),
        String::new(),
        String::new(),
        String::new(),
        hits.to_string(),
        p50.to_string(),
        p95.to_string(),
    ]);
    emit(
        "serve_loadgen",
        &format!(
            "loadgen: {} clients x {} rounds x {} workloads over {addr}",
            args.clients,
            args.rounds,
            mix.len()
        ),
        &[
            "workload",
            "requests",
            "failed",
            "miss",
            "warm",
            "coalesced",
            "hit",
            "p50_us",
            "p95_us",
        ],
        &rows,
    )
    .unwrap_or_else(|e| eprintln!("[warn] {e}"));
    println!(
        "hit rate {} | p50 {p50} µs | p95 {p95} µs | p99 {p99} µs | {} req/s | cold {} µs vs hit {} µs ({}x)",
        f3(hit_rate),
        f3(throughput),
        f3(cold_micros),
        f3(hit_micros),
        f3(hit_speedup),
    );

    // The trajectory artifact bench_check gates.
    let doc = Json::Obj(vec![
        ("schema".into(), Json::int(1)),
        (
            "generated_by".into(),
            Json::Str(format!(
                "loadgen --clients {} --rounds {}{}",
                args.clients,
                args.rounds,
                if args.quick { " --quick" } else { "" }
            )),
        ),
        (
            "workloads".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("serve/mixed".into())),
                ("nodes".into(), Json::int(args.clients as u64)),
                ("requests".into(), Json::int(total as u64)),
                ("failed".into(), Json::int(failed as u64)),
                ("hit_rate".into(), Json::Num(hit_rate)),
                ("p50_micros".into(), Json::int(p50)),
                ("p95_micros".into(), Json::int(p95)),
                ("p99_us".into(), Json::int(p99)),
                ("coalesced_requests".into(), Json::int(coalesced as u64)),
                ("throughput_rps".into(), Json::Num(throughput)),
                ("cold_micros".into(), Json::Num(cold_micros)),
                ("hit_micros".into(), Json::Num(hit_micros)),
                ("hit_speedup".into(), Json::Num(hit_speedup)),
            ])]),
        ),
    ]);
    match std::fs::write("BENCH_serve.json", doc.render()) {
        Ok(()) => println!("[saved BENCH_serve.json]"),
        Err(e) => {
            eprintln!("loadgen: could not write BENCH_serve.json: {e}");
            std::process::exit(1);
        }
    }

    // The serving acceptance bar — enforced in --quick (CI) so regressions
    // fail loudly; plain runs just report.
    if args.quick {
        let mut violations: Vec<String> = Vec::new();
        if failed > 0 {
            violations.push(format!("{failed} of {total} requests failed"));
        }
        if hit_rate < 0.5 {
            violations.push(format!("hit rate {hit_rate:.3} below 0.5"));
        }
        // Vacuous when the persistent cache already covered the whole mix
        // (a re-run against a warmed daemon has no cold samples to
        // compare against — the best-case serving state, not a failure).
        if cold_count == 0 {
            println!("[no cold compiles this run (cache fully warm): speedup bar skipped]");
        } else if hit_speedup < 100.0 {
            violations.push(format!(
                "cache hits only {hit_speedup:.1}x faster than cold compiles (need >= 100x)"
            ));
        }
        if !violations.is_empty() {
            eprintln!("loadgen --quick FAILED (artifact written above):");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
        println!("loadgen --quick acceptance OK");
    }
}
