//! Property + integration tests for the serving subsystem:
//!
//! - **protocol totality**: arbitrary byte soup and structurally-mutated
//!   frames through `Service::handle_line` produce exactly one valid JSON
//!   response line — `status: ok` or a typed error — and never a panic;
//! - **round-trip**: randomized well-formed requests survive
//!   render → parse → render;
//! - **coalescing**: k identical concurrent requests trigger exactly one
//!   tuner run (the acceptance shape, at the service level);
//! - **cache-hit differential**: a hit response is bit-identical (schedule
//!   key and all four objectives) to an independent fresh compilation of
//!   the same request.

use cello_core::accel::CelloConfig;
use cello_obs::json::Json;
use cello_search::{SpaceConfig, Strategy, Tuner};
use cello_serve::protocol::{parse_frame, CacheTag, Frame, Request, Response};
use cello_serve::Service;
use cello_tensor::gen::{for_cases, SplitMix64};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::FV1;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cello-serveit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cheap-but-real compile request (fv1, one unrolled iteration, beam 2).
fn tiny_request(id: u64) -> Request {
    let mut req = Request::cg("fv1");
    req.id = id;
    req.iterations = 1;
    req.strategy = "beam2".into();
    req
}

/// Builds a randomized — always well-formed — request.
fn random_request(rng: &mut SplitMix64) -> Request {
    fn pick<'a>(rng: &mut SplitMix64, xs: &[&'a str]) -> &'a str {
        xs[rng.below(xs.len() as u64) as usize]
    }
    let mut req = Request::cg(pick(
        rng,
        &["fv1", "G2_circuit", "cora", "NASA4704", "protein"],
    ));
    req.id = rng.below(1_000_000);
    req.workload = pick(rng, &["cg", "hpcg", "gcn", "bicgstab"]).into();
    if req.workload == "hpcg" {
        req.nx = Some(8 + rng.below(40));
    }
    if rng.below(3) == 0 {
        req.dataset = None;
        req.m = Some(1 + rng.below(100_000));
        req.nnz = Some(1 + rng.below(1_000_000));
    }
    req.n = 1 + rng.below(64);
    req.iterations = 1 + rng.below(4) as u32;
    req.layers = 1 + rng.below(4) as u32;
    req.nodes = match rng.below(3) {
        0 => vec![1],
        1 => vec![1, 4],
        _ => vec![1, 2, 16],
    };
    req.strategy = pick(
        rng,
        &[
            "beam2",
            "beam8",
            "exhaustive",
            "random16@3",
            "prefilter0.5+beam4",
        ],
    )
    .into();
    req.per_phase_sram = rng.next_u64() & 1 == 1;
    req.widened = rng.next_u64() & 1 == 1;
    req.sram_mb = 1 << rng.below(4);
    req.emit_dot = rng.next_u64() & 1 == 1;
    req
}

/// Well-formed requests round-trip through the wire text exactly.
#[test]
fn request_render_parse_round_trip() {
    for_cases("request_render_parse_round_trip", 64, |rng| {
        let req = random_request(rng);
        let line = req.to_line();
        match parse_frame(&line) {
            Ok(Frame::Compile(back)) => assert_eq!(back, req),
            other => panic!("{:?} did not parse: {:?}", line, other),
        }
    });
}

/// Arbitrary bytes through the full line handler: one valid JSON
/// response, ok or typed error, never a panic. (The service handles the
/// line end to end, so garbage that happens to parse as a tiny compile
/// request really compiles — which is why the byte budget stays small.)
#[test]
fn arbitrary_bytes_never_panic_the_handler() {
    for_cases("arbitrary_bytes_never_panic_the_handler", 64, |rng| {
        let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
        let dir = tmpdir("fuzz-bytes");
        let service = Service::open(&dir).unwrap();
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let (resp, _) = service.handle_line(&line);
        let doc = Json::parse(&resp).expect("response is valid JSON");
        let status = doc.get("status").and_then(Json::as_str);
        assert!(status == Some("ok") || status == Some("error"), "{}", resp);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Structurally-mutated JSON frames (valid JSON, hostile shapes) land in
/// typed errors, never panics.
#[test]
fn mutated_frames_get_typed_errors() {
    for_cases("mutated_frames_get_typed_errors", 64, |rng| {
        let seed = rng.below(100_000);
        let mutations = [
            r#"{"workload": 3}"#.to_string(),
            r#"{"workload": "cg", "dataset": 7}"#.to_string(),
            r#"{"workload": "cg", "nodes": "four"}"#.to_string(),
            r#"{"workload": "cg", "nodes": [1.5]}"#.to_string(),
            r#"{"workload": "cg", "iterations": -3}"#.to_string(),
            r#"{"workload": "cg", "sram_mb": 1e30}"#.to_string(),
            format!(r#"{{"workload": "cg", "m": {}}}"#, u64::MAX),
            format!(r#"{{"op": "op{seed}"}}"#),
            format!(r#"{{"workload": "cg", "strategy": "beam{seed}e"}}"#),
            format!(r#"[{seed}]"#),
        ];
        let line = &mutations[(seed % mutations.len() as u64) as usize];
        let err = parse_frame(line).expect_err(line);
        assert!(!err.kind().is_empty());
        assert!(Json::parse(&cello_serve::protocol::error_line(0, &err)).is_ok());
    });
}

/// The coalescing acceptance criterion at the service level: k identical
/// concurrent requests trigger exactly one tuner run, everyone gets the
/// same schedule, and exactly one caller is the leader.
#[test]
fn k_identical_concurrent_requests_compile_once() {
    let dir = tmpdir("coalesce");
    let service = Arc::new(Service::open(&dir).unwrap());
    let k = 8;
    let barrier = std::sync::Barrier::new(k);
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|i| {
                let service = Arc::clone(&service);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    service.handle(&tiny_request(i as u64)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        service.compiles(),
        1,
        "exactly one tuner run for {k} requests"
    );
    let leaders = responses
        .iter()
        .filter(|r| r.cache == CacheTag::Miss)
        .count();
    let coalesced = responses
        .iter()
        .filter(|r| r.cache == CacheTag::Coalesced || r.cache == CacheTag::Hit)
        .count();
    assert_eq!(leaders, 1, "{responses:?}");
    assert_eq!(coalesced, k - 1);
    // Everyone got the same schedule.
    for r in &responses {
        assert_eq!(r.best_key, responses[0].best_key);
        assert_eq!(r.tuned_cycles, responses[0].tuned_cycles);
        assert_eq!(r.fingerprint, responses[0].fingerprint);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache-hit differential: a served hit is bit-identical to compiling
/// the same request fresh — same canonical schedule key, same four
/// objectives, same baseline — because the store replays the exact outcome
/// rather than re-deriving anything.
#[test]
fn cache_hit_is_bit_identical_to_fresh_compilation() {
    let dir = tmpdir("differential");
    let service = Service::open(&dir).unwrap();
    let miss = service.handle(&tiny_request(1)).unwrap();
    assert_eq!(miss.cache, CacheTag::Miss);
    let hit = service.handle(&tiny_request(2)).unwrap();
    assert_eq!(hit.cache, CacheTag::Hit);

    // Independent ground truth: the same workload through a fresh tuner,
    // exactly as the service builds it.
    let dag = build_cg_dag(&CgParams::from_dataset(&FV1, 16, 1));
    let accel = CelloConfig::paper();
    let cfg = SpaceConfig::with_nodes(&[1]);
    let out = Tuner::new(&dag, &accel, cfg).tune(&Strategy::Beam { width: 2 });

    for resp in [&miss, &hit] {
        assert_eq!(resp.best_key, out.best_traffic.key.hex());
        assert_eq!(resp.tuned_cycles, out.best_cycles.cost.cycles);
        assert_eq!(resp.tuned_dram_bytes, out.best_traffic.cost.dram_bytes);
        assert_eq!(
            resp.tuned_noc_hop_bytes,
            out.best_traffic.cost.noc_hop_bytes
        );
        assert_eq!(
            resp.tuned_traffic_bytes,
            out.best_traffic.cost.total_traffic_bytes()
        );
        assert_eq!(resp.base_cycles, out.baseline.cost.cycles);
        assert_eq!(resp.pareto_size as usize, out.pareto.len().min(12));
    }
    // And the hit cost the service zero fresh evaluations.
    assert_eq!(hit.evaluations, 0);
    assert!(miss.evaluations > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Near-miss warm start at the service level: the warm compile reuses the
/// family record's Pareto front and spends strictly fewer sim evaluations
/// than the cold compile of the same family did, while never losing to the
/// paper heuristic.
#[test]
fn warm_start_spends_fewer_evaluations_than_cold() {
    let dir = tmpdir("warmevals");
    let service = Service::open(&dir).unwrap();
    let mut cold_req = tiny_request(1);
    cold_req.strategy = "beam8".into();
    let cold = service.handle(&cold_req).unwrap();
    assert_eq!(cold.cache, CacheTag::Miss);
    let mut warm_req = tiny_request(2);
    warm_req.strategy = "beam8".into();
    warm_req.sram_mb = 8; // near miss: same DAG + strategy, different SRAM
    let warm = service.handle(&warm_req).unwrap();
    assert_eq!(warm.cache, CacheTag::Warm);
    assert!(
        warm.evaluations < cold.evaluations,
        "warm {} !< cold {}",
        warm.evaluations,
        cold.evaluations
    );
    assert!(warm.tuned_cycles <= warm.base_cycles);
    let _ = std::fs::remove_dir_all(&dir);
}
