//! The `serve` workload: a closed loop of two connections against an
//! in-process `cello_serve::serve` on loopback with two workers. Compile
//! clients block on the reply, so a closed loop is the faithful shape.
//!
//! Set-up opens a fresh store and compiles the loadgen base mix once (every
//! response must be a miss). The timed stream, drawn from the seed, is
//! mostly exact repeats of the base mix — store hits — plus one request in
//! sixteen on each connection that is a novel near-miss: the same DAG with an SRAM
//! size and node menu never asked before, which warm-starts from the family
//! record, runs an exact-beam tune and writes the store.
//!
//! Checks: every response parses with `status: ok` and echoes its id; a
//! hit returns the `best_key`/`tuned_cycles` set-up got for that
//! fingerprint; a repeated near-miss returns what its first answer did;
//! each base request's fingerprint and baseline cycles match an
//! independent derivation through the public search API.

use crate::stats::{self, Metric, Rng};
use crate::trace::{self, Tracer};
use crate::{Args, RunResult};
use cello_bench::json::Json;
use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_obs::metrics::Registry;
use cello_obs::SpanNode;
use cello_search::{fingerprint, SearchSpace, SpaceConfig, Strategy};
use cello_serve::protocol::{parse_frame, CacheTag, Frame, Request, Response};
use cello_serve::service::dataset_by_name;
use cello_serve::{serve, ScheduleStore, Service, DEFAULT_FLIGHT_DEPTH};
use cello_sim::evaluate::evaluate_schedule;
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::load_matrix_market;
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::hpcg::{build_hpcg_dag, HpcgParams};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Client connections, and server workers: two of each, or fewer on a box
/// with fewer cores, so no more of them do work than there are cores.
fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

const NOVEL_ONE_IN: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const WARMUP_ROUNDS: usize = 2;
/// Flight-recorder depth of the traced run: deep enough to keep every
/// timed request's span tree.
const TRACED_FLIGHT_DEPTH: usize = 1 << 20;
const PROBE_REPS: usize = 20;
const STORE_DIR: &str = "cellobench/out/serve-store";
const PROBE_DIR: &str = "cellobench/out/serve-probe";
const MTX: &str = "data/pde_512.mtx";

/// loadgen's base mix: production-sized cold compiles over widened spaces.
fn base_mix(tr: &mut Tracer) -> Result<Vec<(String, Request)>, String> {
    let cg = |dataset: &str, iterations: u32, nodes: Vec<u64>| {
        let mut req = Request::cg(dataset);
        req.iterations = iterations;
        req.nodes = nodes;
        req.strategy = "beam8".into();
        req.widened = true;
        req
    };
    let a = tr
        .span("workloads.mtx_load", |_| load_matrix_market(Path::new(MTX)))
        .map_err(|e| format!("cannot load {MTX}: {e}"))?;
    let mut g2 = cg("G2_circuit", 5, vec![1, 4]);
    g2.per_phase_sram = true;
    let mut hpcg = cg("fv1", 4, vec![1]);
    hpcg.workload = "hpcg".into();
    hpcg.dataset = None;
    hpcg.nx = Some(32);
    let mut gcn = cg("cora", 2, vec![1, 4]);
    gcn.workload = "gcn".into();
    gcn.layers = 3;
    let mut bicg = cg("NASA4704", 3, vec![1]);
    bicg.workload = "bicgstab".into();
    let mut mtx = cg("fv1", 6, vec![1]);
    mtx.dataset = None;
    mtx.m = Some(a.rows() as u64);
    mtx.nnz = Some(a.nnz() as u64);
    Ok(vec![
        ("cg/G2_circuit".into(), g2),
        ("cg/fv1".into(), cg("fv1", 6, vec![1])),
        ("hpcg/nx32".into(), hpcg),
        ("gcn/cora".into(), gcn),
        ("bicgstab/NASA4704".into(), bicg),
        (format!("cg/mtx:{MTX}"), mtx),
    ])
}

/// The DAG, accelerator, space and strategy a compile request names,
/// derived independently of the service through the public workload and
/// search APIs.
fn derive(req: &Request) -> Result<(TensorDag, CelloConfig, SpaceConfig, Strategy), String> {
    let accel = CelloConfig::paper().with_sram_bytes(req.sram_mb << 20);
    let dataset = match &req.dataset {
        Some(name) => Some(dataset_by_name(name).ok_or(format!("unknown dataset {name}"))?),
        None => None,
    };
    let (m, nnz) = match (req.m, req.nnz, &dataset) {
        (Some(m), Some(nnz), _) => (m, nnz),
        (_, _, Some(d)) => (d.m as u64, d.nnz as u64),
        _ => (0, 0),
    };
    let dag = match req.workload.as_str() {
        "cg" => build_cg_dag(&CgParams {
            m,
            occupancy: nnz as f64 / m as f64,
            a_payload_words: 2 * nnz + m + 1,
            n: req.n,
            nprime: req.n,
            iterations: req.iterations,
            a_occupancy: None,
        }),
        "bicgstab" => build_bicgstab_dag(&BicgParams {
            m,
            occupancy: nnz as f64 / m as f64,
            a_payload_words: 2 * nnz + m + 1,
            n: req.n,
            iterations: req.iterations,
        }),
        "hpcg" => build_hpcg_dag(&HpcgParams {
            nx: req.nx.unwrap_or(48),
            n: req.n,
            iterations: req.iterations,
        }),
        "gcn" => build_gcn_dag(&GcnParams::from_dataset(
            dataset.as_ref().ok_or("gcn needs a dataset")?,
            req.layers,
        )),
        other => return Err(format!("no derivation for workload {other}")),
    };
    let mut cfg = if req.widened {
        SpaceConfig::widened_with_nodes(&req.nodes)
    } else {
        SpaceConfig::with_nodes(&req.nodes)
    };
    if req.per_phase_sram {
        cfg = cfg.with_repartition(accel.sram_words());
    }
    let strategy = Strategy::parse(&req.strategy).ok_or("unknown strategy")?;
    Ok((dag, accel, cfg, strategy))
}

struct Setup {
    mix: Vec<(String, Request)>,
    service: Arc<Service>,
    responses: Vec<Response>,
}

/// A fresh store plus one cold compile of every base request.
fn setup(tr: &mut Tracer, depth: usize) -> Result<Setup, String> {
    let mix = base_mix(tr)?;
    let _ = std::fs::remove_dir_all(STORE_DIR);
    let service =
        Service::open_with_options(Path::new(STORE_DIR), Arc::new(Registry::new()), depth)
            .map_err(|e| format!("cannot open the store: {e}"))?;
    let mut responses = Vec::new();
    for (name, req) in &mix {
        let resp = service
            .handle(req)
            .map_err(|e| format!("{name}: set-up compile failed: {e}"))?;
        if resp.cache != CacheTag::Miss {
            return Err(format!(
                "{name}: set-up compile was a {}",
                resp.cache.as_str()
            ));
        }
        responses.push(resp);
    }
    Ok(Setup {
        mix,
        service: Arc::new(service),
        responses,
    })
}

/// One timed request as the client saw it.
struct Sample {
    id: u64,
    /// The base-mix request a repeat asks again; `None` for a novel
    /// near-miss.
    base: Option<usize>,
    start: Instant,
    wall_us: f64,
    server_us: u64,
    tag: Option<CacheTag>,
}

/// What a request must answer: `(best_key, tuned_cycles)` per fingerprint.
type Answers = HashMap<String, (String, u64)>;

/// Sends one frame and reads its reply line.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Result<String, String> {
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Ok(line),
        Ok(_) => Err("connection closed".into()),
        Err(e) => Err(format!("receive failed: {e}")),
    }
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((writer, BufReader::new(stream)))
}

/// Parses a reply and checks it against what the request must answer.
fn check_reply(
    line: &str,
    id: u64,
    novel: bool,
    known: &Answers,
    novel_answers: &Mutex<Answers>,
) -> Result<Response, String> {
    let doc = Json::parse(line.trim()).map_err(|e| format!("reply is not JSON: {e}"))?;
    let resp = Response::from_json(&doc).map_err(|e| format!("request {id}: {e}"))?;
    if resp.id != id {
        return Err(format!("reply id {} for request {id}", resp.id));
    }
    let answer = (resp.best_key.clone(), resp.tuned_cycles);
    if !novel {
        if resp.cache != CacheTag::Hit {
            return Err(format!("repeat {id} was a {}", resp.cache.as_str()));
        }
        return match known.get(&resp.fingerprint) {
            Some(want) if *want == answer => Ok(resp),
            _ => Err(format!("hit {id} answered {answer:?}, set-up got another")),
        };
    }
    let mut seen = novel_answers
        .lock()
        .expect("no client panics holding the map");
    match seen.get(&resp.fingerprint) {
        Some(want) if *want != answer => Err(format!("near-miss {id} changed its answer")),
        _ => {
            seen.insert(resp.fingerprint.clone(), answer);
            Ok(resp)
        }
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let depth = if args.trace {
        TRACED_FLIGHT_DEPTH
    } else {
        DEFAULT_FLIGHT_DEPTH
    };
    let mut tr = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut set = crate::timed(&mut setup_s, || setup(&mut tr, depth))?;
    for _ in 1..SETUP_REPS {
        set = crate::timed(&mut setup_s, || setup(&mut tr, depth))?;
    }
    let mut result = RunResult::default();

    // Independent derivation of every base request: same fingerprint, same
    // baseline cycles, and the baseline's traffic for the quality ratio.
    let mut speedups = Vec::new();
    let mut traffic = Vec::new();
    let mut known: Answers = HashMap::new();
    for ((name, req), resp) in set.mix.iter().zip(&set.responses) {
        let (dag, accel, cfg, strategy) = derive(req)?;
        let fp = fingerprint(&dag, &accel, &cfg, &strategy);
        let space = SearchSpace::from_dag(&dag, &cfg);
        let base = evaluate_schedule(
            &dag,
            &space.assemble(&space.default_picks()).build(&dag),
            &accel,
        );
        result.check(if fp.hash != resp.fingerprint {
            Some(format!(
                "{name}: fingerprint {} served as {}",
                fp.hash, resp.fingerprint
            ))
        } else if base.cycles != resp.base_cycles {
            Some(format!(
                "{name}: baseline {} cycles served as {}",
                base.cycles, resp.base_cycles
            ))
        } else {
            None
        });
        speedups.push(resp.base_cycles as f64 / resp.tuned_cycles.max(1) as f64);
        traffic.push(resp.tuned_traffic_bytes as f64 / base.total_traffic_bytes().max(1) as f64);
        known.insert(
            resp.fingerprint.clone(),
            (resp.best_key.clone(), resp.tuned_cycles),
        );
    }

    // The novel near-misses: every base request under every node menu at
    // SRAM sizes 1..=128 MB other than set-up's, in bit-reversed size
    // order. They rotate over base requests and menus, and any prefix of
    // the order covers the size range evenly, so every run pays the same
    // mix of near-miss tunes; the seed picks where the rotation starts.
    let mut rng = Rng::new(args.seed);
    let menus = [vec![1], vec![1, 2], vec![1, 4]];
    let slots: Vec<(&Vec<u64>, &Request)> = menus
        .iter()
        .flat_map(|nodes| set.mix.iter().map(move |(_, base)| (nodes, base)))
        .collect();
    let novels: Vec<Request> = (0..128u8)
        .flat_map(|k| {
            let mb = (k.reverse_bits() >> 1) as u64 + 1;
            slots.iter().map(move |slot| (slot, mb))
        })
        .filter(|((_, base), mb)| *mb != base.sram_mb)
        .map(|((nodes, base), mb)| {
            let mut req = (*base).clone();
            req.sram_mb = mb;
            req.nodes = nodes.to_vec();
            req
        })
        .collect();
    let stream_seeds: Vec<u64> = (0..parallelism()).map(|_| rng.next_u64()).collect();

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let service = Arc::clone(&set.service);
    let daemon = std::thread::spawn(move || serve(listener, service, parallelism()));

    let novel_answers: Mutex<Answers> = Mutex::new(HashMap::new());
    let next_novel = AtomicUsize::new(rng.below(slots.len()));
    let outcome = (|| -> Result<(Vec<Sample>, f64, u64), String> {
        // Warm-up (untimed): every base request repeated over one
        // connection.
        let (mut w, mut r) = connect(&addr)?;
        let mut warm_failed = 0;
        for round in 0..WARMUP_ROUNDS {
            for (i, (_, req)) in set.mix.iter().enumerate() {
                let mut req = req.clone();
                req.id = 1_000_000 + (round * set.mix.len() + i) as u64;
                let line = round_trip(&mut w, &mut r, &req)?;
                if check_reply(&line, req.id, false, &known, &novel_answers).is_err() {
                    warm_failed += 1;
                }
            }
        }
        drop((w, r));

        let started = Instant::now();
        let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = stream_seeds
                .iter()
                .enumerate()
                .map(|(c, &seed)| {
                    let (addr, set, known) = (&addr, &set, &known);
                    let (novels, next_novel, novel_answers) =
                        (&novels, &next_novel, &novel_answers);
                    scope.spawn(move || -> Result<Vec<Sample>, String> {
                        let mut rng = Rng::new(seed);
                        let phase = rng.below(NOVEL_ONE_IN);
                        let (mut w, mut r) = connect(addr)?;
                        let mut samples = Vec::new();
                        while started.elapsed().as_secs_f64() < args.seconds {
                            let novel = (samples.len() + phase).is_multiple_of(NOVEL_ONE_IN);
                            let base = (!novel).then(|| rng.below(set.mix.len()));
                            let mut req = match base {
                                None => {
                                    let k = next_novel.fetch_add(1, Ordering::Relaxed);
                                    novels[k % novels.len()].clone()
                                }
                                Some(i) => set.mix[i].1.clone(),
                            };
                            req.id = (c as u64 + 1) * 1_000_000_000 + samples.len() as u64;
                            let start = Instant::now();
                            let reply = round_trip(&mut w, &mut r, &req);
                            let wall_us = start.elapsed().as_secs_f64() * 1e6;
                            let resp = reply.and_then(|line| {
                                check_reply(&line, req.id, novel, known, novel_answers)
                            });
                            if let Err(e) = &resp {
                                eprintln!("cellobench serve: {e}");
                            }
                            let resp = resp.ok();
                            samples.push(Sample {
                                id: req.id,
                                base,
                                start,
                                wall_us,
                                server_us: resp.as_ref().map_or(0, |r| r.compile_micros),
                                tag: resp.map(|r| r.cache),
                            });
                        }
                        Ok(samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut samples = Vec::new();
        for conn in per_conn {
            samples.extend(conn?);
        }
        Ok((samples, wall_s, warm_failed))
    })();

    // Stop the daemon whatever happened to the stream.
    if let Ok((mut w, mut r)) = connect(&addr) {
        let _ = w.write_all(b"{\"op\": \"shutdown\"}\n");
        let mut line = String::new();
        let _ = r.read_line(&mut line);
    }
    match daemon.join() {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => return Err(format!("daemon failed: {e}")),
        Err(_) => return Err("daemon panicked".into()),
    }
    let (samples, wall_s, warm_failed) = outcome?;
    result.attempted += (WARMUP_ROUNDS * set.mix.len()) as u64;
    result.failed += warm_failed;
    for s in &samples {
        result.check(s.tag.is_none().then(|| format!("request {} failed", s.id)));
    }

    // Each base request at its fastest hit of the run, as the other
    // workloads time each input at its fastest run: the host drifts between
    // speed states and its noise only ever adds time, so per-request
    // minimums stay steady where medians, and the novel tunes that dominate
    // throughput, move with the drift.
    let n = samples.len();
    let hit = |s: &&Sample| s.tag == Some(CacheTag::Hit);
    let hits_us: Vec<f64> = samples.iter().filter(hit).map(|s| s.wall_us).collect();
    let best_hit_ms: Vec<f64> = (0..set.mix.len())
        .filter_map(|i| {
            let us: Vec<f64> = samples
                .iter()
                .filter(|s| hit(s) && s.base == Some(i))
                .map(|s| s.wall_us)
                .collect();
            (!us.is_empty()).then(|| stats::min(&us) / 1e3)
        })
        .collect();
    let novel_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.base.is_none() && s.tag.is_some())
        .map(|s| s.wall_us / 1e3)
        .collect();
    result.e2e = vec![
        Metric::new("op_ms", stats::geomean(&best_hit_ms), "ms", hits_us.len()),
        Metric::new(
            "speedup_geomean",
            stats::geomean(&speedups),
            "x",
            speedups.len(),
        ),
        Metric::new(
            "traffic_ratio_geomean",
            stats::geomean(&traffic),
            "x",
            traffic.len(),
        ),
        Metric::new("setup_s", stats::median(&setup_s), "s", setup_s.len()),
    ];
    result.named = vec![
        Metric::new("serve_rps", n as f64 / wall_s, "1/s", n),
        Metric::new("hit_us.p50", stats::median(&hits_us), "us", hits_us.len()),
        Metric::new(
            "novel_ms.p50",
            stats::median(&novel_ms),
            "ms",
            novel_ms.len(),
        ),
    ];
    if let Some(p99) = stats::tail(&hits_us, 99.0) {
        result
            .named
            .push(Metric::new("hit_us.p99", p99, "us", hits_us.len()));
    }

    if args.trace {
        let probes = probe(&mut tr, &set, &mut result)?;
        record_flights(&mut tr, &set.service, &samples);
        let times = tr.self_times();
        let us = |name: &str| tr.self_us(&times, name);
        let count = |tag: CacheTag| samples.iter().filter(|s| s.tag == Some(tag)).count() as f64;
        let wire: Vec<f64> = samples
            .iter()
            .filter(|s| s.tag == Some(CacheTag::Hit))
            .map(|s| s.wall_us - s.server_us as f64)
            .collect();
        let nh = hits_us.len();
        let nn = novel_ms.len();
        let overhead =
            100.0 * tr.len() as f64 * trace::span_cost_us() / (wall_s * parallelism() as f64 * 1e6);
        result.layers = vec![
            Metric::new(
                "workloads.dag_build_us",
                us("workloads.dag_build"),
                "us",
                probes,
            ),
            Metric::new(
                "workloads.mtx_load_us",
                us("workloads.mtx_load"),
                "us",
                setup_s.len(),
            ),
            Metric::new("serve.parse_us", us("serve.parse"), "us", probes),
            Metric::new(
                "search.fingerprint_us",
                us("search.fingerprint"),
                "us",
                probes,
            ),
            Metric::new(
                "serve.store_lookup_us",
                us("serve.store_lookup"),
                "us",
                probes,
            ),
            Metric::new(
                "serve.store_insert_us",
                us("serve.store_insert"),
                "us",
                probes,
            ),
            Metric::new("serve.build_us", us("serve.hit.build"), "us", nh),
            Metric::new("serve.lookup_us", us("serve.hit.lookup"), "us", nh),
            Metric::new("serve.respond_us", us("serve.hit.respond"), "us", nh),
            Metric::new("serve.wire_us", stats::mean(&wire), "us", nh),
            Metric::new("serve.tune_us", us("serve.novel.tune"), "us", nn),
            Metric::new("serve.coalesce_us", us("serve.novel.coalesce"), "us", nn),
            Metric::new("serve.hits", count(CacheTag::Hit), "count", n),
            Metric::new("serve.warm", count(CacheTag::Warm), "count", n),
            Metric::new("serve.misses", count(CacheTag::Miss), "count", n),
            Metric::new("serve.coalesced", count(CacheTag::Coalesced), "count", n),
            Metric::new(
                "serve.store_records",
                set.service.store_len() as f64,
                "count",
                1,
            ),
            Metric::new("obs.trace_overhead_pct", overhead, "%", tr.len()),
        ];
        crate::write_trace("serve", &tr)?;
    }
    let _ = std::fs::remove_dir_all(STORE_DIR);
    let _ = std::fs::remove_dir_all(PROBE_DIR);
    Ok(result)
}

/// Times the hit path's steps through their public functions: frame
/// parsing, the request's DAG build, fingerprinting, a store lookup, and a
/// store write into a scratch store. Returns the probes made.
fn probe(tr: &mut Tracer, set: &Setup, result: &mut RunResult) -> Result<usize, String> {
    let store = ScheduleStore::open(Path::new(STORE_DIR)).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(PROBE_DIR);
    let scratch = ScheduleStore::open(Path::new(PROBE_DIR)).map_err(|e| e.to_string())?;
    let mut probes = 0;
    for rep in 0..PROBE_REPS {
        for ((name, req), resp) in set.mix.iter().zip(&set.responses) {
            tr.set_trace_id(2_000_000 + probes as u64);
            probes += 1;
            let line = req.to_line();
            let parsed = tr.span("serve.parse", |_| parse_frame(&line));
            let Ok(Frame::Compile(parsed)) = parsed else {
                result.check(Some(format!("{name}: own request line does not parse")));
                continue;
            };
            let (dag, accel, cfg, strategy) =
                tr.span("workloads.dag_build", |_| derive(&parsed))?;
            let fp = tr.span("search.fingerprint", |_| {
                fingerprint(&dag, &accel, &cfg, &strategy)
            });
            let rec = tr.span("serve.store_lookup", |_| store.lookup(&fp));
            let err = match rec {
                Some(rec) if rec.best.key == resp.best_key => {
                    let written = tr.span("serve.store_insert", |_| scratch.insert(&fp, &rec));
                    written
                        .err()
                        .map(|e| format!("{name}: scratch insert failed: {e}"))
                }
                _ => Some(format!("{name}: store lookup {rep} missed or changed")),
            };
            result.check(err);
        }
    }
    Ok(probes)
}

/// Records every timed request as a client span, with the server's flight
/// tree for it (matched by request id) nested inside. The server tree is
/// centred in the client interval: the wire time splits evenly around it.
fn record_flights(tr: &mut Tracer, service: &Service, samples: &[Sample]) {
    let flights: HashMap<u64, SpanNode> = service
        .flights()
        .recent()
        .into_iter()
        .filter_map(|f| match f.get_arg("id") {
            Some(cello_obs::ArgValue::U64(id)) => Some((*id, f)),
            _ => None,
        })
        .collect();
    for s in samples {
        tr.set_trace_id(s.id);
        let start = tr.at_us(s.start);
        let root = tr.record("serve.request", start, start + s.wall_us, None);
        let Some(flight) = flights.get(&s.id) else {
            continue;
        };
        let hit = s.tag == Some(CacheTag::Hit);
        let offset = start + ((s.wall_us - flight.dur_us) / 2.0).max(0.0);
        let server = tr.record("serve.server", offset, offset + flight.dur_us, Some(root));
        record_stages(tr, flight, offset - flight.ts_us, server, hit);
    }
}

fn record_stages(tr: &mut Tracer, node: &SpanNode, origin: f64, parent: usize, hit: bool) {
    for child in &node.children {
        let name = match (hit, child.name.as_str()) {
            (true, "build") => "serve.hit.build",
            (true, "lookup") => "serve.hit.lookup",
            (true, "respond") => "serve.hit.respond",
            (false, "build") => "serve.novel.build",
            (false, "lookup") => "serve.novel.lookup",
            (false, "coalesce") => "serve.novel.coalesce",
            (false, "tune") => "serve.novel.tune",
            (false, "respond") => "serve.novel.respond",
            _ => "serve.other",
        };
        let start = origin + child.ts_us;
        let idx = tr.record(name, start, start + child.dur_us, Some(parent));
        record_stages(tr, child, origin, idx, hit);
    }
}
