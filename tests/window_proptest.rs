//! Property tests for the sliding-window metrics layer and the Prometheus
//! exposition it feeds.
//!
//! The window core ([`WindowHistogram`]) promises that a slot holds only
//! its newest epoch's samples and that an expired slot can never
//! resurrect, no matter how late a sample arrives. These tests pin that
//! against an executable reference model, and pin the
//! text exposition against the format's grammar under adversarial metric
//! names (newlines, quotes, backslashes, leading digits, unicode).

use cello::obs::metrics::{HistogramSnapshot, Registry};
use cello::obs::window::WindowHistogram;
use cello::tensor::gen::{for_cases, SplitMix64};
use std::collections::BTreeMap;

/// `(epoch, value)` observation streams with enough epoch collisions (per
/// slot and exact) to exercise every branch of `record_at`.
fn random_ops(rng: &mut SplitMix64) -> Vec<(u64, u64)> {
    (0..rng.below(48))
        .map(|_| (rng.below(24), rng.below(10_000)))
        .collect()
}

/// The reference model of a [`WindowHistogram`]: each slot is won by the
/// largest epoch that ever mapped to it, and holds exactly the samples
/// stamped with that epoch — arrival order is irrelevant. `snapshot_at`
/// then merges the slots whose winning epoch lies in `(now − len, now]`.
fn model_snapshot(len: u64, ops: &[(u64, u64)], now: u64) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::empty();
    for slot in 0..len {
        let winner = ops
            .iter()
            .filter(|(e, _)| e % len == slot)
            .map(|&(e, _)| e)
            .max();
        let Some(winner) = winner else { continue };
        if winner <= now && winner.saturating_add(len) > now {
            for &(_, v) in ops.iter().filter(|&&(e, _)| e == winner) {
                out.record(v);
            }
        }
    }
    out
}

fn replay(len: usize, ops: &[(u64, u64)]) -> WindowHistogram {
    let mut w = WindowHistogram::new(len);
    for &(e, v) in ops {
        w.record_at(e, v);
    }
    w
}

/// The window matches the reference model at every `now` — one
/// property covering expiry (old epochs leave the snapshot), slot
/// reset (a newer epoch evicts the slot's contents), and
/// never-resurrect (a late sample from a beaten epoch vanishes
/// without a trace, regardless of where it sat in the stream).
#[test]
fn window_histogram_matches_the_reference_model() {
    for_cases("window_histogram_matches_the_reference_model", 64, |rng| {
        let len = 1 + rng.below(7) as usize;
        let ops = random_ops(rng);
        let w = replay(len, &ops);
        for now in 0..32u64 {
            assert_eq!(
                w.snapshot_at(now),
                model_snapshot(len as u64, &ops, now),
                "len {} now {} ops {:?}",
                len,
                now,
                &ops
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Prometheus exposition under adversarial names.
// ---------------------------------------------------------------------------

/// Metric names drawn from a hostile alphabet: exposition-format
/// metacharacters (newline, quote, backslash, braces, spaces), leading
/// digits, unicode — everything `prom_name`/`prom_escape` exist to defuse.
/// Names are 0..12 characters drawn uniformly from the alphabet.
fn random_name(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '_', ':', '7', '0', '-', '.', '"', '\\', '\n', ' ', '{', '}', '=', 'µ', '/', '#',
    ];
    (0..rng.below(12))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

/// True iff `name` is a valid exposition metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Line-validates a scrape and checks histogram bucket series: every line
/// is a well-formed comment or sample, every sample name is in the metric
/// charset, `_bucket` series are cumulative non-decreasing, and the
/// `+Inf` bucket equals the family's `_count`.
fn validate_exposition(text: &str) -> Result<(), String> {
    let mut bucket_values: Vec<u64> = Vec::new();
    let mut inf_bucket: Option<u64> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if keyword != "HELP" && keyword != "TYPE" {
                return Err(format!("unknown comment keyword in {line:?}"));
            }
            if !valid_metric_name(name) {
                return Err(format!("invalid name {name:?} in {line:?}"));
            }
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                if !["counter", "gauge", "histogram", "summary"].contains(&kind) {
                    return Err(format!("unknown type {kind:?} in {line:?}"));
                }
                if kind == "histogram" {
                    bucket_values.clear();
                    inf_bucket = None;
                }
            }
            continue;
        }
        // Sample line: `name value` or `name{labels} value`.
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("sample line without value: {line:?}"));
        };
        value
            .parse::<f64>()
            .map_err(|_| format!("non-numeric value {value:?} in {line:?}"))?;
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("unclosed label set in {line:?}"));
                }
                name
            }
            None => series,
        };
        if !valid_metric_name(name) {
            return Err(format!("invalid sample name {name:?} in {line:?}"));
        }
        // Histogram family checks ride on the renderer's contiguity: each
        // family's `_bucket` lines run unbroken into `_sum`/`_count`.
        if series.contains("_bucket{le=\"+Inf\"}") {
            inf_bucket = Some(value.parse::<u64>().unwrap());
        } else if series.contains("_bucket{le=") {
            let v = value.parse::<u64>().unwrap();
            if bucket_values.last().is_some_and(|&prev| v < prev) {
                return Err(format!("bucket series not cumulative at {line:?}"));
            }
            bucket_values.push(v);
        } else if let (true, Some(inf)) = (name.ends_with("_count"), inf_bucket) {
            let count = value.parse::<u64>().unwrap();
            if inf != count {
                return Err(format!("+Inf bucket {inf} != _count {count} for {name:?}"));
            }
            if bucket_values.last().is_some_and(|&prev| prev > inf) {
                return Err(format!("largest finite bucket exceeds +Inf for {name:?}"));
            }
            bucket_values.clear();
            inf_bucket = None;
        }
    }
    Ok(())
}

/// A scrape rendered from adversarially-named instruments is still a
/// well-formed exposition document: no raw newline or quote ever
/// splits a line, every family keeps the metric-name charset, and
/// histogram bucket series stay cumulative with `+Inf == _count`.
#[test]
fn prometheus_text_survives_adversarial_names() {
    for_cases("prometheus_text_survives_adversarial_names", 64, |rng| {
        let names: Vec<String> = (0..1 + rng.below(7)).map(|_| random_name(rng)).collect();
        let values: Vec<u64> = (0..1 + rng.below(31))
            .map(|_| rng.below(1_000_000))
            .collect();
        let window_samples: Vec<u64> = (0..rng.below(16)).map(|_| rng.below(1_000_000)).collect();
        let registry = Registry::new();
        for (i, name) in names.iter().enumerate() {
            match i % 3 {
                0 => registry.counter(name).add(values[i % values.len()]),
                1 => registry
                    .gauge(name)
                    .set(values[i % values.len()] as i64 - 500_000),
                _ => {
                    let h = registry.histogram(name);
                    for &v in &values {
                        h.record(v);
                    }
                }
            }
        }
        let mut windows = BTreeMap::new();
        if let Some(name) = names.last() {
            let mut snap = HistogramSnapshot::empty();
            for &v in &window_samples {
                snap.record(v);
            }
            windows.insert(format!("{name}_window"), snap);
        }
        let text = registry
            .snapshot()
            .to_prometheus_text_with_windows(&windows);
        assert!(!text.is_empty());
        if let Err(e) = validate_exposition(&text) {
            panic!("{}\n--- scrape ---\n{}", e, text);
        }
    });
}
