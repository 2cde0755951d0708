//! Hierarchical spans.
//!
//! Three ways to produce a [`SpanNode`] tree, by decreasing magic:
//!
//! - **Guards** (`span!("tune")`, `span!("phase", idx = i)`): wall-clock
//!   spans on a thread-local stack. Collection is **off by default** — a
//!   disabled guard costs one relaxed atomic load, which is what lets the
//!   tuner keep per-beam-level spans on its hot path. Enable with
//!   [`set_enabled`], collect finished roots with [`drain`].
//! - **[`SpanRecorder`]**: an explicit wall-clock builder for code that owns
//!   its tree (one per request in `cello-serve`), independent of the global
//!   switch and safe under any threading.
//! - **Plain [`SpanNode`] construction**: for *model-time* trees where
//!   `ts`/`dur` come from simulated cycles, not a clock (`cello-sim`'s
//!   phase trace).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A span argument value (rendered into Chrome trace `args`).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (exact in JSON up to 2^53).
    U64(u64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One finished span: a named interval with arguments and children.
/// Timestamps are microseconds relative to the tree's epoch (wall clock for
/// recorded spans, model time for constructed ones).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanNode {
    /// Span name (the Chrome trace event name).
    pub name: String,
    /// Start, µs from the tree epoch.
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Key/value arguments.
    pub args: Vec<(String, ArgValue)>,
    /// Nested spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A zero-length span at t=0 named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SpanNode {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder: attach an argument.
    pub fn arg(mut self, key: &str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key.to_string(), value.into()));
        self
    }

    /// Builder: attach a child.
    pub fn child(mut self, child: SpanNode) -> Self {
        self.children.push(child);
        self
    }

    /// Total node count including `self` (event count in a Chrome export).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::node_count)
            .sum::<usize>()
    }

    /// Looks up an argument by key.
    pub fn get_arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

// ---------------------------------------------------------------------------
// Explicit wall-clock recording.
// ---------------------------------------------------------------------------

/// Builds one span tree against a fixed epoch (its own creation instant).
/// Stages nest through [`SpanRecorder::timed`]; [`SpanRecorder::finish`]
/// closes the root.
pub struct SpanRecorder {
    epoch: Instant,
    started: Instant,
    name: String,
    args: Vec<(String, ArgValue)>,
    children: Vec<SpanNode>,
}

impl SpanRecorder {
    /// Opens a root span named `name`; the epoch is *now*.
    pub fn new(name: impl Into<String>) -> Self {
        let now = Instant::now();
        SpanRecorder {
            epoch: now,
            started: now,
            name: name.into(),
            args: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Attaches an argument to the span being recorded.
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        self.args.push((key.to_string(), value.into()));
    }

    /// Runs `f` under a child span named `name`; the child closes when `f`
    /// returns. The closure receives the child recorder, so stages nest.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanRecorder) -> T) -> T {
        let mut child = SpanRecorder {
            epoch: self.epoch,
            started: Instant::now(),
            name: name.to_string(),
            args: Vec::new(),
            children: Vec::new(),
        };
        let out = f(&mut child);
        self.children.push(child.into_node());
        out
    }

    /// Closes the span, stamping its duration.
    pub fn finish(self) -> SpanNode {
        self.into_node()
    }

    fn into_node(self) -> SpanNode {
        SpanNode {
            name: self.name,
            ts_us: self.started.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: self.started.elapsed().as_secs_f64() * 1e6,
            args: self.args,
            children: self.children,
        }
    }
}

// ---------------------------------------------------------------------------
// Global guard-based collection (the `span!` macro).
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static FINISHED: OnceLock<Mutex<Vec<SpanNode>>> = OnceLock::new();
static PROCESS_EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<Pending>> = const { RefCell::new(Vec::new()) };
}

struct Pending {
    name: String,
    args: Vec<(String, ArgValue)>,
    started: Instant,
    children: Vec<SpanNode>,
}

/// Turns global span collection on or off. Off (the default) makes every
/// `span!` guard a single relaxed atomic load.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether `span!` guards currently record.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every finished root span collected so far (across
/// all threads).
pub fn drain() -> Vec<SpanNode> {
    std::mem::take(&mut *crate::lock(FINISHED.get_or_init(Default::default)))
}

/// An RAII guard opened by the `span!` macro. Dropping it closes the span:
/// nested guards attach to their parent, a root lands in the global
/// finished list (see [`drain`]).
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Opens a span when collection is enabled; inert otherwise.
    pub fn enter(name: &str, args: Vec<(String, ArgValue)>) -> SpanGuard {
        if !enabled() {
            return SpanGuard { active: false };
        }
        STACK.with(|stack| {
            stack.borrow_mut().push(Pending {
                name: name.to_string(),
                args,
                started: Instant::now(),
                children: Vec::new(),
            });
        });
        SpanGuard { active: true }
    }

    /// A guard that records nothing: what `span!` yields while collection
    /// is off, without evaluating its arguments.
    pub fn inert() -> SpanGuard {
        SpanGuard { active: false }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(pending) = stack.pop() else { return };
            let epoch = *PROCESS_EPOCH.get_or_init(Instant::now);
            let node = SpanNode {
                ts_us: pending
                    .started
                    .checked_duration_since(epoch)
                    .map_or(0.0, |d| d.as_secs_f64() * 1e6),
                dur_us: pending.started.elapsed().as_secs_f64() * 1e6,
                name: pending.name,
                args: pending.args,
                children: pending.children,
            };
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => crate::lock(FINISHED.get_or_init(Default::default)).push(node),
            }
        });
    }
}

/// Opens a wall-clock span guard: `let _s = span!("tune");` or
/// `let _s = span!("phase", idx = i, bytes = b);`. The span closes when the
/// guard drops. No-op (one atomic load) unless [`set_enabled`] was called:
/// while collection is off the argument expressions are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::span::enabled() {
            $crate::span::SpanGuard::enter(
                $name,
                vec![$((stringify!($key).to_string(), $crate::span::ArgValue::from($value))),+],
            )
        } else {
            $crate::span::SpanGuard::inert()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = SpanRecorder::new("request");
        rec.arg("id", 7u64);
        let answer = rec.timed("parse", |_| 41) + 1;
        rec.timed("tune", |tune| {
            tune.arg("evals", 12u64);
            tune.timed("beam", |_| {});
        });
        let root = rec.finish();
        assert_eq!(answer, 42);
        assert_eq!(root.name, "request");
        assert_eq!(root.get_arg("id"), Some(&ArgValue::U64(7)));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[1].children[0].name, "beam");
        assert_eq!(root.node_count(), 4);
        // Children start at or after the root and fit inside it.
        for child in &root.children {
            assert!(child.ts_us >= root.ts_us);
            assert!(child.ts_us + child.dur_us <= root.ts_us + root.dur_us + 1.0);
        }
    }

    #[test]
    fn disabled_guards_are_inert() {
        set_enabled(false);
        let before = drain().len();
        {
            let _g = crate::span!("invisible");
        }
        assert_eq!(drain().len(), before, "nothing collected while disabled");
    }

    #[test]
    fn enabled_guards_collect_trees() {
        set_enabled(true);
        {
            let _root = crate::span!("span-test-root", kind = "test");
            let _child = crate::span!("span-test-child", idx = 3u64);
        }
        set_enabled(false);
        let finished = drain();
        let root = finished
            .iter()
            .find(|s| s.name == "span-test-root")
            .expect("root collected");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "span-test-child");
        assert_eq!(root.children[0].get_arg("idx"), Some(&ArgValue::U64(3)));
        assert!(root.dur_us >= root.children[0].dur_us);
    }
}
