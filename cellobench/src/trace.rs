//! Benchmark-side tracing: spans recorded around the calls this benchmark
//! makes into each layer's public functions.
//!
//! A span is a name, a start, an end, the span that caused it, and the id
//! shared by every span of one tune or request. Spans stay in memory until
//! the run ends; then they are written as a Chrome trace (through
//! `cello_obs::chrome`) and folded into per-layer self time — a span's
//! duration minus the part its children cover.

use cello_obs::{ArgValue, SpanNode};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub trace_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_id: u64,
}

impl Tracer {
    /// A disabled tracer records nothing and costs one branch per span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds since the tracer's epoch at `t`.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Tags every span recorded from now on with `id` (one tune or request).
    pub fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let start = self.now_us();
        let idx = self.record(name, start, start, self.open.last().copied());
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Records a span whose interval was measured elsewhere (a server-side
    /// flight, a client round trip); returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            trace_id: self.trace_id,
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: `(total self µs, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end_us - s.start_us - c).max(0.0);
            entry.1 += 1;
        }
        out
    }

    /// Mean self time per span of `name`, in µs (0 when none was recorded).
    pub fn self_us(&self, times: &BTreeMap<&'static str, (f64, u64)>, name: &str) -> f64 {
        times
            .get(name)
            .map_or(0.0, |&(total, count)| total / count.max(1) as f64)
    }

    /// The recorded spans as a Chrome trace document, one track per root.
    pub fn chrome(&self) -> String {
        let mut nodes: Vec<Option<SpanNode>> = self
            .spans
            .iter()
            .map(|s| {
                let mut n = SpanNode::new(s.name).arg("trace_id", ArgValue::U64(s.trace_id));
                n.ts_us = s.start_us;
                n.dur_us = s.end_us - s.start_us;
                Some(n)
            })
            .collect();
        // Children always come after their parent, so folding from the back
        // attaches every finished subtree before its parent moves.
        let mut roots = Vec::new();
        for i in (0..self.spans.len()).rev() {
            let node = nodes[i].take().expect("each span folds once");
            match self.spans[i].parent {
                Some(p) => nodes[p]
                    .as_mut()
                    .expect("parent precedes child")
                    .children
                    .insert(0, node),
                None => roots.push(node),
            }
        }
        roots.reverse();
        cello_obs::chrome::chrome_trace(&roots)
    }
}

/// Measured cost of recording one span, in µs: the per-span price the
/// traced run pays on top of the work it times.
pub fn span_cost_us() -> f64 {
    const SPANS: usize = 20_000;
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    tracer.span("overhead.root", |t| {
        for _ in 0..SPANS {
            t.span("overhead.leaf", |_| std::hint::black_box(()));
        }
    });
    started.elapsed().as_secs_f64() * 1e6 / (SPANS + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.record("root", 0.0, 10.0, None);
        let child = t.record("child", 2.0, 6.0, Some(root));
        t.record("leaf", 3.0, 4.0, Some(child));
        let times = t.self_times();
        assert_eq!(times["root"], (6.0, 1));
        assert_eq!(times["child"], (3.0, 1));
        assert_eq!(times["leaf"], (1.0, 1));
        let doc = t.chrome();
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 3);
        assert_eq!(doc.matches("\"tid\": 1").count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
