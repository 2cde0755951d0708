//! Chrome trace-event JSON export.
//!
//! Renders a forest of [`SpanNode`]s as the trace-event format understood
//! by Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: a
//! top-level object with a `traceEvents` array of *complete* events
//! (`"ph": "X"`) carrying `name`, `ts`/`dur` in microseconds, `pid`/`tid`,
//! and an `args` object. Every root in the forest gets its own `tid`
//! (1-based) under a single `pid` so concurrent requests stack as separate
//! tracks; children inherit their root's ids and nest by interval
//! containment, which is how the viewers reconstruct the flame graph.

use crate::json::write_string;
use crate::span::{ArgValue, SpanNode};
use std::fmt::Write as _;

const PID: u32 = 1;

/// Renders `roots` as a Chrome trace JSON document.
pub fn chrome_trace(roots: &[SpanNode]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    for (idx, root) in roots.iter().enumerate() {
        write_events(&mut out, root, idx as u32 + 1, &mut first);
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}");
    out
}

fn write_events(out: &mut String, node: &SpanNode, tid: u32, first: &mut bool) {
    if !*first {
        out.push_str(", ");
    }
    *first = false;
    out.push_str("{\"name\": ");
    write_string(out, &node.name);
    let _ = write!(
        out,
        ", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {PID}, \"tid\": {tid}, \"args\": {{",
        node.ts_us, node.dur_us,
    );
    for (i, (key, value)) in node.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_string(out, key);
        out.push_str(": ");
        match value {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(_) => out.push_str("null"),
            ArgValue::Str(s) => write_string(out, s),
        }
    }
    out.push_str("}}");
    for child in &node.children {
        write_events(out, child, tid, first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_complete_events_per_node() {
        let root = SpanNode {
            name: "request".into(),
            ts_us: 0.0,
            dur_us: 120.5,
            args: vec![("id".into(), ArgValue::U64(9))],
            children: vec![SpanNode {
                name: "tune \"cg\"".into(),
                ts_us: 10.0,
                dur_us: 100.0,
                args: vec![
                    ("evals".into(), ArgValue::U64(12)),
                    ("frac".into(), ArgValue::F64(0.25)),
                    ("tag".into(), ArgValue::Str("hit\n".into())),
                ],
                children: vec![],
            }],
        };
        let json = chrome_trace(&[root.clone(), SpanNode::new("other")]);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(json.contains("\"tune \\\"cg\\\"\""));
        assert!(json.contains("\"evals\": 12"));
        assert!(json.contains("\"frac\": 0.25"));
        assert!(json.contains("\"hit\\n\""));
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"tid\": 2"));
        assert!(json.contains("\"dur\": 120.500"));
        // Second root and its single event are the only tid-2 entries.
        assert_eq!(json.matches("\"tid\": 2").count(), 1);
    }

    /// Every argument kind and escape-worthy names and keys; the exported
    /// bytes are pinned literally.
    #[test]
    fn fixed_forest_bytes_are_pinned() {
        let mut tune = SpanNode::new("tune \"cg\"\n")
            .arg("evals", u64::MAX)
            .arg("frac", 0.25)
            .arg("nan", f64::NAN)
            .arg("inf", f64::NEG_INFINITY)
            .arg("big", 1e21)
            .arg("tag", "hit\n");
        (tune.ts_us, tune.dur_us) = (10.25, 100.0004);
        tune.children.push(SpanNode::new("leaf"));
        let mut root = SpanNode::new("request")
            .arg("id", 9u64)
            .arg("key \"q\"\\", "ctl\u{1}\u{1f}\r\t\u{1F600}");
        root.dur_us = 120.5;
        root.children.push(tune);
        let expected = r#"{"traceEvents": [{"name": "request", "ph": "X", "ts": 0.000, "dur": 120.500, "pid": 1, "tid": 1, "args": {"id": 9, "key \"q\"\\": "ctl\u0001\u001f\r\t😀"}}, {"name": "tune \"cg\"\n", "ph": "X", "ts": 10.250, "dur": 100.000, "pid": 1, "tid": 1, "args": {"evals": 18446744073709551615, "frac": 0.25, "nan": null, "inf": null, "big": 1000000000000000000000, "tag": "hit\n"}}, {"name": "leaf", "ph": "X", "ts": 0.000, "dur": 0.000, "pid": 1, "tid": 1, "args": {}}, {"name": "other", "ph": "X", "ts": 0.000, "dur": 0.000, "pid": 1, "tid": 2, "args": {}}], "displayTimeUnit": "ms"}"#;
        assert_eq!(chrome_trace(&[root, SpanNode::new("other")]), expected);
    }

    #[test]
    fn empty_forest_is_valid() {
        let json = chrome_trace(&[]);
        assert!(json.starts_with("{\"traceEvents\": []"));
    }
}
