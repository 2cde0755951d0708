//! # cello-obs — the observability substrate
//!
//! Vendored, zero-dependency (in the `crates/compat` spirit: the build
//! container has no registry route, so anything `tracing`/`metrics`-shaped
//! must live here). Three pieces, shared by `cello-sim`, `cello-search`,
//! and `cello-serve`:
//!
//! 1. **Structured leveled logging** ([`log`]): `error!`…`trace!` macros
//!    with a target string, filtered by `CELLO_LOG` (`info` by default,
//!    `debug,serve=trace` grammar for per-target overrides), written to
//!    stderr.
//! 2. **Hierarchical spans** ([`mod@span`]): `span!("tune")` /
//!    `span!("phase", idx = i)` guards with wall-clock timing on a
//!    thread-local stack (collection is off by default — one relaxed atomic
//!    load on the tuner's hot path), plus [`span::SpanRecorder`] for
//!    explicitly-built trees (per-request spans in `cello-serve`) and plain
//!    [`span::SpanNode`] construction for model-time trees (the cycles-model
//!    phase trace in `cello-sim`).
//! 3. **Metrics** ([`metrics`]): named saturating counters, gauges, and
//!    fixed-bucket latency histograms (p50/p95/p99) behind a global-or-
//!    injected [`metrics::Registry`], with Prometheus text exposition
//!    ([`metrics::RegistrySnapshot::to_prometheus_text`]) and
//!    epoch-bucketed sliding-window histograms ([`mod@window`]) for
//!    p95-over-last-60s style readouts.
//!
//! [`chrome::chrome_trace`] renders any span forest as Chrome trace-event
//! JSON (`"ph": "X"` complete events) loadable in Perfetto or
//! `chrome://tracing`; [`recorder::FlightRecorder`] is the bounded ring
//! buffer `cello-serve` keeps recent request spans in. [`json::Json`] is
//! the workspace's one JSON codec (artifacts, wire, store, traces).
//!
//! Every lock in this crate is poison-proof (`PoisonError::into_inner`,
//! matching the `EvalCache` convention): a panicking thread must never take
//! the daemon's metrics or flight recorder down with it.

pub mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod window;

pub use log::Level;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use recorder::FlightRecorder;
pub use span::{ArgValue, SpanNode, SpanRecorder};
pub use window::{WindowHistogram, WindowedHistogram};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-proof lock (the `EvalCache` convention): the data under these
/// locks are monotone counters and append-only buffers, valid even if a
/// holder panicked mid-update.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
