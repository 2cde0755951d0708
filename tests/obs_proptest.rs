//! Property and acceptance tests for the observability layer: histogram
//! percentile ordering and merge algebra, Chrome-trace export validity for
//! nested span trees, and the end-to-end `cello_run --trace-out` invariants
//! (phase spans tile the model-time root; `dram_bytes` args are verbatim
//! `RunReport::phase_dram_bytes`).

use cello::obs::json::Json;
use cello::obs::metrics::HistogramSnapshot;
use cello::obs::{ArgValue, SpanNode};
use cello::tensor::gen::{for_cases, SplitMix64};

/// `0..max_len` uniform 64-bit values.
fn random_values(rng: &mut SplitMix64, max_len: u64) -> Vec<u64> {
    (0..rng.below(max_len)).map(|_| rng.next_u64()).collect()
}

/// Percentiles come back ordered and clamped to the observed range:
/// `min ≤ p50 ≤ p95 ≤ p99 ≤ max` for any non-empty sample.
#[test]
fn percentiles_are_bounded_and_monotone() {
    for_cases("percentiles_are_bounded_and_monotone", 64, |rng| {
        let values: Vec<u64> = (0..1 + rng.below(199)).map(|_| rng.next_u64()).collect();
        let mut h = HistogramSnapshot::empty();
        for &v in &values {
            h.record(v);
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(lo <= p50, "min {lo} > p50 {p50}");
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
        assert!(p99 <= hi, "p99 {p99} > max {hi}");
    });
}

/// Merge is associative and commutative (shard-and-merge aggregation is
/// order-independent), and matches recording the union directly.
#[test]
fn merge_is_associative_and_order_free() {
    for_cases("merge_is_associative_and_order_free", 64, |rng| {
        let a = random_values(rng, 64);
        let b = random_values(rng, 64);
        let c = random_values(rng, 64);
        let snap = |values: &[u64]| {
            let mut h = HistogramSnapshot::empty();
            for &v in values {
                h.record(v);
            }
            h
        };
        // (a ⊕ b) ⊕ c
        let mut left = snap(&a);
        left.merge(&snap(&b));
        left.merge(&snap(&c));
        // a ⊕ (b ⊕ c)
        let mut bc = snap(&b);
        bc.merge(&snap(&c));
        let mut right = snap(&a);
        right.merge(&bc);
        // b ⊕ a ⊕ c (commuted)
        let mut commuted = snap(&b);
        commuted.merge(&snap(&a));
        commuted.merge(&snap(&c));
        // The union recorded flat.
        let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let flat = snap(&union);
        for h in [&left, &right, &commuted] {
            assert_eq!(h.count, flat.count);
            assert_eq!(h.sum, flat.sum);
            assert_eq!(h.min, flat.min);
            assert_eq!(h.max, flat.max);
            assert_eq!(&h.counts[..], &flat.counts[..]);
        }
    });
}

/// Every event object of a parsed Chrome trace document.
fn trace_events(doc: &Json) -> &[Json] {
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
}

fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
    event.get(key).expect(key)
}

/// A nested span tree exports one complete (`"ph": "X"`) event per node,
/// with every event of a tree sharing the root's pid/tid — parseable by the
/// workspace JSON codec the bench artifacts use.
#[test]
fn nested_span_tree_exports_valid_chrome_trace() {
    let mut root = SpanNode::new("request").arg("id", 7u64);
    root.ts_us = 0.0;
    root.dur_us = 1000.0;
    let mut tune = SpanNode::new("tune").arg("strategy", "beam8");
    tune.ts_us = 100.0;
    tune.dur_us = 800.0;
    let mut eval = SpanNode::new("evaluate");
    eval.ts_us = 150.0;
    eval.dur_us = 500.0;
    tune.children.push(eval);
    root.children.push(tune);
    let mut respond = SpanNode::new("respond");
    respond.ts_us = 900.0;
    respond.dur_us = 100.0;
    root.children.push(respond);

    let trace = cello::obs::chrome::chrome_trace(&[root]);
    let doc = Json::parse(&trace).expect("chrome trace parses with cello_obs::json");
    let events = trace_events(&doc);
    assert_eq!(events.len(), 4, "one event per span node");
    let mut names = Vec::new();
    for event in events {
        assert_eq!(field(event, "ph"), &Json::Str("X".into()));
        assert_eq!(field(event, "pid"), &Json::Num(1.0));
        // All nodes of one tree share the root's lane; viewers nest the
        // children by interval containment.
        assert_eq!(field(event, "tid"), &Json::Num(1.0));
        let Json::Str(name) = field(event, "name") else {
            panic!("name must be a string");
        };
        names.push(name.clone());
    }
    for expected in ["request", "tune", "evaluate", "respond"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
    // Args survive the round trip.
    assert!(trace.contains("\"strategy\": \"beam8\""), "{trace}");
}

/// Two roots land in two lanes (tid 1 and 2) of the same process.
#[test]
fn sibling_roots_get_distinct_lanes() {
    let mut a = SpanNode::new("cello:cg");
    a.dur_us = 10.0;
    let mut b = SpanNode::new("flat:cg");
    b.dur_us = 20.0;
    let trace = cello::obs::chrome::chrome_trace(&[a, b]);
    let doc = Json::parse(&trace).unwrap();
    let events = trace_events(&doc);
    let tids: Vec<f64> = events
        .iter()
        .map(|e| {
            let Json::Num(tid) = field(e, "tid") else {
                panic!("tid must be a number");
            };
            *tid
        })
        .collect();
    assert_eq!(tids, vec![1.0, 2.0]);
}

/// The `cello_run --trace-out` acceptance bar, end to end through the
/// public facade: per-phase span durations sum to the root (the
/// cycles-model wall time) within 1%, and each phase's `dram_bytes` arg
/// equals `RunReport::phase_dram_bytes` exactly.
#[test]
fn cg_trace_spans_match_the_report() {
    use cello::core::accel::CelloConfig;
    use cello::sim::baselines::run_config;
    use cello::sim::ConfigKind;
    use cello::workloads::cg::{build_cg_dag, CgParams};

    let dag = build_cg_dag(&CgParams::from_dataset(
        &cello::workloads::datasets::FV1,
        16,
        2,
    ));
    let accel = CelloConfig::paper();
    let report = run_config(&dag, ConfigKind::Cello, &accel, "cg");
    let span = cello::sim::obs::report_span(&report, &accel);

    assert_eq!(span.children.len(), report.phase_cycles.len());
    assert!((span.dur_us - report.seconds * 1e6).abs() < 1e-6);
    let sum: f64 = span.children.iter().map(|c| c.dur_us).sum();
    assert!(
        (sum - span.dur_us).abs() <= span.dur_us * 0.01,
        "phase spans sum to {sum} µs but the run took {} µs",
        span.dur_us
    );
    for (i, child) in span.children.iter().enumerate() {
        assert_eq!(
            child.get_arg("dram_bytes"),
            Some(&ArgValue::U64(report.phase_dram_bytes[i])),
            "phase {i} dram_bytes arg must be verbatim"
        );
    }
    // And the exported trace is valid JSON carrying those args.
    let trace = cello::obs::chrome::chrome_trace(&[span]);
    let doc = Json::parse(&trace).expect("trace parses");
    assert!(trace_events(&doc).len() > report.phase_cycles.len());
}
