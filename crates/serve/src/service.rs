//! The compilation service: request → workload → fingerprint → (store |
//! coalesced warm/cold search) → response.
//!
//! The full request path, in order:
//!
//! 1. build the workload DAG + accelerator the request names (typed errors
//!    for unknown datasets / impossible parameters);
//! 2. fingerprint (DAG, accel, space, strategy) — `cello_search::fingerprint`;
//! 3. **exact store hit**: collision-checked read of the persistent cache,
//!    served without touching the tuner (this is the ≥100× path);
//! 4. otherwise **coalesce** on the fingerprint: one leader compiles,
//!    concurrent identical requests share its result;
//! 5. the leader looks for a **family** record (same DAG + strategy,
//!    different SRAM/nodes) and, when found, warm-starts a *narrowed* beam
//!    from its stored Pareto seeds ([`cello_search::Tuner::tune_seeded`]);
//!    cold otherwise;
//! 6. the outcome is persisted and answered.
//!
//! Every step is panic-fenced: a compile that panics becomes a typed
//! `internal` error response and the daemon keeps serving.

use crate::coalesce::Coalescer;
use crate::error::ServeError;
use crate::protocol::{error_line, parse_frame, CacheTag, Frame, Request, Response};
use crate::store::{ScheduleStore, StoredOutcome};
use cello_core::accel::CelloConfig;
use cello_core::score::binding::Schedule;
use cello_graph::dag::TensorDag;
use cello_graph::dot::to_dot_annotated;
use cello_obs::json::Json;
use cello_obs::metrics::{Counter, Histogram, Registry};
use cello_obs::window::WindowedHistogram;
use cello_obs::{FlightRecorder, SpanRecorder};
use cello_search::fingerprint::{fingerprint, Fingerprint};
use cello_search::{SpaceConfig, Strategy, Tuner};
use cello_sim::evaluate::phase_chord_capacity_words;
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{registry, Dataset, DatasetKind};
use cello_workloads::gcn::{build_gcn_dag, GcnParams};
use cello_workloads::hpcg::{build_hpcg_dag, HpcgParams};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How many finished request span trees the flight recorder retains for
/// `trace` requests (`cello_serve --flight-depth` overrides).
pub const DEFAULT_FLIGHT_DEPTH: usize = 128;

/// The live `request_us` window: 60 one-second buckets, so `metrics-prom`
/// reports p95-over-the-last-60s instead of p95-since-boot.
const REQUEST_WINDOW_BUCKETS: usize = 60;
const REQUEST_WINDOW_BUCKET_SECS: u64 = 1;

/// The service's registry-backed instruments (all saturating, poison-proof
/// by construction). Handles are resolved once at `open` so the request
/// path never takes the registry lock.
struct Instruments {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    errors: Arc<Counter>,
    hits: Arc<Counter>,
    warm: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    compiles: Arc<Counter>,
    tune_us: Arc<Histogram>,
    request_us: Arc<Histogram>,
    /// Sliding 60-second window over request latencies (feeds the
    /// `request_us_window` summary in `metrics-prom`).
    request_us_window: WindowedHistogram,
}

impl Instruments {
    fn new(registry: Arc<Registry>) -> Self {
        Self {
            requests: registry.counter("requests_total"),
            ok: registry.counter("responses_ok"),
            errors: registry.counter("errors_total"),
            hits: registry.counter("cache_hits"),
            warm: registry.counter("cache_warm"),
            misses: registry.counter("cache_misses"),
            coalesced: registry.counter("coalesced_requests"),
            compiles: registry.counter("compiles_total"),
            tune_us: registry.histogram("tune_us"),
            request_us: registry.histogram("request_us"),
            request_us_window: WindowedHistogram::new(
                REQUEST_WINDOW_BUCKETS,
                REQUEST_WINDOW_BUCKET_SECS,
            ),
            registry,
        }
    }
}

/// What one leader's compilation produced, shared with coalesced followers.
#[derive(Clone)]
struct CompileResult {
    rec: Arc<StoredOutcome>,
    cache: CacheTag,
}

/// The schedule-compilation service (transport-agnostic; `server` puts it
/// behind TCP, tests and `loadgen --in-process` call it directly).
pub struct Service {
    store: ScheduleStore,
    coalescer: Coalescer<Result<CompileResult, ServeError>>,
    obs: Instruments,
    flights: FlightRecorder,
}

impl Service {
    /// Opens the service over a persistent cache directory, with its own
    /// private metrics registry (so parallel tests never share counters).
    pub fn open(cache_dir: &Path) -> Result<Self, ServeError> {
        Self::open_with_options(cache_dir, Arc::new(Registry::new()), DEFAULT_FLIGHT_DEPTH)
    }

    /// Opens the service recording into `registry`, with a flight-recorder
    /// ring of `flight_depth` requests (`cello_serve --flight-depth`). The
    /// daemon passes `cello_obs::metrics::global()` so one `metrics`
    /// snapshot carries both the service counters and the tuner's
    /// `search_*` counters (which `cello-search` records globally). The
    /// configured depth is published as the `flight_depth` gauge so a
    /// metrics scrape can tell how much trace history a daemon keeps.
    pub fn open_with_options(
        cache_dir: &Path,
        registry: Arc<Registry>,
        flight_depth: usize,
    ) -> Result<Self, ServeError> {
        let flight_depth = flight_depth.max(1);
        registry.gauge("flight_depth").set(flight_depth as i64);
        Ok(Self {
            store: ScheduleStore::open(cache_dir)?,
            coalescer: Coalescer::new(),
            obs: Instruments::new(registry),
            flights: FlightRecorder::new(flight_depth),
        })
    }

    /// Total tuner runs this process performed (the coalescing test's
    /// observable: k identical concurrent requests must move this by 1).
    pub fn compiles(&self) -> u64 {
        self.obs.compiles.get()
    }

    /// The registry this service records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// The flight recorder holding recent request span trees.
    pub fn flights(&self) -> &FlightRecorder {
        &self.flights
    }

    /// Number of records in the persistent store.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Handles one wire line. Returns the response line (never panics,
    /// always valid JSON) plus whether a shutdown was requested.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match parse_frame(line) {
            Err(e) => {
                self.obs.errors.inc();
                (error_line(0, &e), false)
            }
            Ok(Frame::Stats { id }) => (self.stats_line(id), false),
            Ok(Frame::Metrics { id }) => (self.metrics_line(id), false),
            Ok(Frame::MetricsProm { id }) => (self.metrics_prom_line(id), false),
            Ok(Frame::Trace { id }) => (self.trace_line(id), false),
            Ok(Frame::Shutdown { id }) => (
                Json::Obj(vec![
                    ("id".into(), Json::int(id)),
                    ("status".into(), Json::Str("ok".into())),
                    ("op".into(), Json::Str("shutdown".into())),
                ])
                .compact(),
                true,
            ),
            Ok(Frame::Compile(req)) => {
                self.obs.requests.inc();
                // Panic fence: a compile bug answers `internal`, the daemon
                // lives on.
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(&req)))
                        .unwrap_or_else(|panic| {
                            let msg = panic
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| panic.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "compile panicked".into());
                            Err(ServeError::Internal(msg))
                        });
                match outcome {
                    Ok(resp) => {
                        self.obs.ok.inc();
                        (resp.to_json().compact(), false)
                    }
                    Err(e) => {
                        self.obs.errors.inc();
                        (error_line(req.id, &e), false)
                    }
                }
            }
        }
    }

    /// Handles one parsed compile request, recording its staged span tree
    /// (build → lookup → coalesce/tune → respond) into the flight recorder.
    pub fn handle(&self, req: &Request) -> Result<Response, ServeError> {
        let started = Instant::now();
        let mut flight = SpanRecorder::new("request");
        flight.arg("id", req.id);
        flight.arg("workload", req.workload.as_str());
        if let Some(d) = &req.dataset {
            flight.arg("dataset", d.as_str());
        }
        let result = self.handle_staged(req, started, &mut flight);
        match &result {
            Ok(resp) => flight.arg("cache", resp.cache.as_str()),
            Err(e) => flight.arg("error", e.kind()),
        }
        let elapsed_us = started.elapsed().as_micros() as u64;
        self.obs.request_us.record(elapsed_us);
        self.obs.request_us_window.record(elapsed_us);
        self.flights.push(flight.finish());
        result
    }

    fn handle_staged(
        &self,
        req: &Request,
        started: Instant,
        flight: &mut SpanRecorder,
    ) -> Result<Response, ServeError> {
        let (dag, accel, cfg, strategy, fp) = flight.timed("build", |_| {
            let (dag, accel) = build_workload(req)?;
            let strategy = Strategy::parse(&req.strategy)
                .ok_or_else(|| ServeError::UnknownStrategy(req.strategy.clone()))?;
            let cfg = space_of(req, &accel);
            let fp = fingerprint(&dag, &accel, &cfg, &strategy);
            Ok::<_, ServeError>((dag, accel, cfg, strategy, fp))
        })?;

        if let Some(rec) = flight.timed("lookup", |_| self.store.lookup(&fp)) {
            self.obs.hits.inc();
            return Ok(flight.timed("respond", |_| {
                self.respond(req, &fp, &rec, CacheTag::Hit, started, &dag, &accel)
            }));
        }

        let (result, shared) = flight.timed("coalesce", |span| {
            self.coalescer.run(&fp.hash, || {
                span.timed("tune", |_| self.compile(&dag, &accel, &cfg, &strategy, &fp))
            })
        });
        let result = result?;
        let tag = if shared {
            CacheTag::Coalesced
        } else {
            result.cache
        };
        match tag {
            CacheTag::Hit => &self.obs.hits,
            CacheTag::Warm => &self.obs.warm,
            CacheTag::Miss => &self.obs.misses,
            CacheTag::Coalesced => &self.obs.coalesced,
        }
        .inc();
        Ok(flight.timed("respond", |_| {
            self.respond(req, &fp, &result.rec, tag, started, &dag, &accel)
        }))
    }

    /// The leader path under coalescing: re-check the store (an identical
    /// leader may have landed between our miss and acquiring the slot),
    /// then warm- or cold-compile, persist, and share.
    fn compile(
        &self,
        dag: &TensorDag,
        accel: &CelloConfig,
        cfg: &SpaceConfig,
        strategy: &Strategy,
        fp: &Fingerprint,
    ) -> Result<CompileResult, ServeError> {
        if let Some(rec) = self.store.lookup(fp) {
            return Ok(CompileResult {
                rec: Arc::new(rec),
                cache: CacheTag::Hit,
            });
        }
        let family = self.store.lookup_family(fp);
        let tuner = Tuner::new(dag, accel, cfg.clone());
        let tune_started = Instant::now();
        let (out, cache) = match &family {
            Some(rec) => (
                tuner.tune_seeded(&warm_strategy(strategy), &rec.seeds()),
                CacheTag::Warm,
            ),
            None => (tuner.tune(strategy), CacheTag::Miss),
        };
        self.obs
            .tune_us
            .record(tune_started.elapsed().as_micros() as u64);
        self.obs.compiles.inc();
        cello_obs::debug!(
            "serve",
            "compiled {} ({}): {} evals, {} tier-1",
            fp.hash,
            cache.as_str(),
            out.evaluations,
            out.surrogate_scored
        );
        let rec = StoredOutcome::from_outcome(fp, &out);
        if let Err(e) = self.store.insert(fp, &rec) {
            // Serving beats caching: answer from the in-memory outcome and
            // let the next identical request recompile.
            cello_obs::warn!("serve", "could not persist {}: {e}", fp.hash);
        }
        Ok(CompileResult {
            rec: Arc::new(rec),
            cache,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        req: &Request,
        fp: &Fingerprint,
        rec: &StoredOutcome,
        cache: CacheTag,
        started: Instant,
        dag: &TensorDag,
        accel: &CelloConfig,
    ) -> Response {
        let dot = req.emit_dot.then(|| {
            let schedule = rec.best.candidate.build(dag);
            schedule_dot(dag, &schedule, accel)
        });
        Response {
            id: req.id,
            fingerprint: fp.hash.clone(),
            family: fp.family.clone(),
            cache,
            compile_micros: started.elapsed().as_micros() as u64,
            strategy: rec.strategy.clone(),
            best_key: rec.best.key.clone(),
            base_cycles: rec.base_cycles,
            tuned_cycles: rec.tuned_cycles,
            tuned_dram_bytes: rec.best.cost.dram_bytes,
            tuned_noc_hop_bytes: rec.best.cost.noc_hop_bytes,
            tuned_traffic_bytes: rec.best.cost.total_traffic_bytes(),
            tuned_energy_pj: rec.tuned_energy_pj,
            evaluations: match cache {
                CacheTag::Hit => 0,
                _ => rec.evaluations,
            },
            surrogate_scored: match cache {
                CacheTag::Hit => 0,
                _ => rec.surrogate_scored,
            },
            pareto_size: rec.pareto.len() as u64,
            dot,
        }
    }

    fn stats_line(&self, id: u64) -> String {
        let c = &self.obs;
        Json::Obj(vec![
            ("id".into(), Json::int(id)),
            ("status".into(), Json::Str("ok".into())),
            ("op".into(), Json::Str("stats".into())),
            ("requests".into(), Json::int(c.requests.get())),
            ("ok".into(), Json::int(c.ok.get())),
            ("errors".into(), Json::int(c.errors.get())),
            ("hits".into(), Json::int(c.hits.get())),
            ("warm".into(), Json::int(c.warm.get())),
            ("misses".into(), Json::int(c.misses.get())),
            ("coalesced".into(), Json::int(c.coalesced.get())),
            ("compiles".into(), Json::int(c.compiles.get())),
            ("store_records".into(), Json::int(self.store.len() as u64)),
            (
                "store_collisions".into(),
                Json::int(self.store.collisions()),
            ),
            (
                "in_flight".into(),
                Json::int(self.coalescer.in_flight() as u64),
            ),
        ])
        .compact()
    }

    /// Point-in-time gauges refresh at snapshot time (shared by the
    /// `metrics` and `metrics-prom` ops).
    fn refresh_gauges(&self) {
        self.obs
            .registry
            .gauge("in_flight")
            .set(self.coalescer.in_flight() as i64);
        self.obs
            .registry
            .gauge("store_records")
            .set(self.store.len() as i64);
        self.obs
            .registry
            .gauge("flight_spans")
            .set(self.flights.len() as i64);
    }

    /// The `metrics` op: the full registry snapshot — counters, gauges, and
    /// histogram summaries (count/mean/min/max/p50/p95/p99).
    fn metrics_line(&self, id: u64) -> String {
        self.refresh_gauges();
        let snap = self.obs.registry.snapshot();
        let counters = Json::Obj(
            snap.counters
                .iter()
                .map(|(name, v)| (name.clone(), Json::int(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            snap.gauges
                .iter()
                .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
                .iter()
                .map(|(name, h)| {
                    let empty = h.count == 0;
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::int(h.count)),
                            ("mean".into(), Json::Num(h.mean())),
                            ("min".into(), Json::int(if empty { 0 } else { h.min })),
                            ("max".into(), Json::int(h.max)),
                            ("p50".into(), Json::int(h.percentile(50.0))),
                            ("p95".into(), Json::int(h.percentile(95.0))),
                            ("p99".into(), Json::int(h.percentile(99.0))),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("id".into(), Json::int(id)),
            ("status".into(), Json::Str("ok".into())),
            ("op".into(), Json::Str("metrics".into())),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
        .compact()
    }

    /// The `metrics-prom` op: the registry rendered in the Prometheus text
    /// exposition format, plus the live `request_us_window` summary
    /// (quantiles over the last 60 s, not since boot). Exposition text is
    /// multi-line, so it ships as the escaped `text` member of a one-line
    /// JSON response; `cello_client --metrics-prom` unwraps and prints it
    /// raw, scrape-ready.
    fn metrics_prom_line(&self, id: u64) -> String {
        self.refresh_gauges();
        let snap = self.obs.registry.snapshot();
        let windows = std::collections::BTreeMap::from([(
            "request_us_window".to_string(),
            self.obs.request_us_window.snapshot(),
        )]);
        let text = snap.to_prometheus_text_with_windows(&windows);
        Json::Obj(vec![
            ("id".into(), Json::int(id)),
            ("status".into(), Json::Str("ok".into())),
            ("op".into(), Json::Str("metrics-prom".into())),
            ("text".into(), Json::Str(text)),
        ])
        .compact()
    }

    /// The `trace` op: the flight recorder's retained request span trees
    /// rendered as an embedded Chrome trace document (one track per
    /// request), importable straight into Perfetto.
    fn trace_line(&self, id: u64) -> String {
        let recent = self.flights.recent();
        // `chrome_trace` emits a single-line JSON object, embeddable as-is.
        format!(
            "{{\"id\": {id}, \"status\": \"ok\", \"op\": \"trace\", \"spans\": {}, \"trace\": {}}}",
            recent.len(),
            cello_obs::chrome::chrome_trace(&recent),
        )
    }
}

/// The warm-start narrowing: seeds substitute for beam breadth, so a warm
/// beam runs at a quarter of the requested width (floor 2). Non-beam
/// traversals keep their shape (seeds still join the comparison set).
fn warm_strategy(strategy: &Strategy) -> Strategy {
    match strategy {
        Strategy::Beam { width } => Strategy::Beam {
            width: (*width / 4).max(2),
        },
        Strategy::Prefiltered { keep_frac, inner } => Strategy::Prefiltered {
            keep_frac: *keep_frac,
            inner: Box::new(warm_strategy(inner)),
        },
        other => other.clone(),
    }
}

/// Resolves a request's pattern into (DAG, accelerator).
fn build_workload(req: &Request) -> Result<(TensorDag, CelloConfig), ServeError> {
    let accel = CelloConfig::paper().with_sram_bytes(req.sram_mb << 20);
    let dataset = match &req.dataset {
        Some(name) => Some(
            registry()
                .into_iter()
                .find(|d| d.name == name.as_str())
                .ok_or_else(|| ServeError::UnknownDataset(name.clone()))?,
        ),
        None => None,
    };
    // Explicit m/nnz (e.g. derived client-side from a real SuiteSparse
    // `.mtx`) beats the registry; one of the two must pin the pattern.
    let pattern = |what: &'static str| -> Result<(u64, u64), ServeError> {
        match (req.m, req.nnz, &dataset) {
            (Some(m), Some(nnz), _) => Ok((m, nnz)),
            (None, None, Some(d)) => Ok((d.m as u64, d.nnz as u64)),
            (Some(_), None, _) | (None, Some(_), _) => Err(ServeError::BadParam(
                "explicit patterns need both m and nnz".into(),
            )),
            (None, None, None) => Err(ServeError::MissingField(what)),
        }
    };
    let dag = match req.workload.as_str() {
        "cg" => {
            let (m, nnz) = pattern("dataset")?;
            build_cg_dag(&CgParams {
                m,
                occupancy: nnz as f64 / m as f64,
                a_payload_words: 2 * nnz + m + 1,
                n: req.n,
                nprime: req.n,
                iterations: req.iterations,
                a_occupancy: None,
            })
        }
        "bicgstab" => {
            let (m, nnz) = pattern("dataset")?;
            build_bicgstab_dag(&BicgParams {
                m,
                occupancy: nnz as f64 / m as f64,
                a_payload_words: 2 * nnz + m + 1,
                n: req.n,
                iterations: req.iterations,
            })
        }
        "hpcg" => build_hpcg_dag(&HpcgParams {
            nx: req.nx.unwrap_or(48),
            n: req.n,
            iterations: req.iterations,
        }),
        "gcn" => {
            let params = match &dataset {
                Some(d) => {
                    if !matches!(d.kind, DatasetKind::Graph { .. }) {
                        return Err(ServeError::BadParam(format!(
                            "dataset {:?} is not a graph (gcn needs cora/protein or explicit m+nnz)",
                            d.name
                        )));
                    }
                    GcnParams::from_dataset(d, req.layers)
                }
                None => {
                    let (m, nnz) = pattern("dataset")?;
                    GcnParams {
                        vertices: m,
                        nnz,
                        // Paper-typical feature widths for ad-hoc graphs.
                        features: 128,
                        outputs: 16,
                        layers: req.layers,
                    }
                }
            };
            build_gcn_dag(&params)
        }
        other => return Err(ServeError::UnknownWorkload(other.into())),
    };
    Ok((dag, accel))
}

/// The search space a request asks for.
fn space_of(req: &Request, accel: &CelloConfig) -> SpaceConfig {
    let mut cfg = if req.widened {
        SpaceConfig::widened_with_nodes(&req.nodes)
    } else {
        SpaceConfig::with_nodes(&req.nodes)
    };
    if req.per_phase_sram {
        cfg = cfg.with_repartition(accel.sram_words());
    }
    cfg
}

/// Renders a scheduled DAG as annotated Graphviz: nodes clustered by phase,
/// each cluster labeled with its resolved SRAM split (pipeline / RF words
/// and the CHORD capacity the engine sizes for that phase), edges colored
/// by realization.
pub fn schedule_dot(dag: &TensorDag, schedule: &Schedule, accel: &CelloConfig) -> String {
    let phase_of = schedule.phase_of();
    let labels: Vec<String> = schedule
        .phase_splits
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let chord = if schedule.options.enable_chord {
                phase_chord_capacity_words(accel, s, &schedule.transfer)
            } else {
                0
            };
            format!(
                "phase {i} | pb={} rf={} chord={}",
                s.pipeline_buffer_words, s.rf_capacity_words, chord
            )
        })
        .collect();
    to_dot_annotated(
        dag,
        |e| {
            if schedule.realized.get(e.0).copied().unwrap_or(false) {
                ("blue".into(), "pipe".into())
            } else {
                let tensor = &dag.node(cello_graph::dag::NodeId(dag.edge(e).src)).output;
                let binding = format!("{:?}", schedule.binding_of(&tensor.name)).to_lowercase();
                ("gray".into(), binding)
            }
        },
        |n| phase_of.get(n.0).copied(),
        &labels,
    )
}

/// Data needed by tests and `loadgen` to pick apart a workload the same way
/// the service does.
pub fn dataset_by_name(name: &str) -> Option<Dataset> {
    registry().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cello-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_request(id: u64) -> Request {
        let mut req = Request::cg("fv1");
        req.id = id;
        req.iterations = 1;
        req.strategy = "beam2".into();
        req
    }

    #[test]
    fn miss_then_hit_with_persistent_cache() {
        let dir = tmpdir("miss-hit");
        let service = Service::open(&dir).unwrap();
        let first = service.handle(&tiny_request(1)).unwrap();
        assert_eq!(first.cache, CacheTag::Miss);
        assert!(first.evaluations > 0);
        let second = service.handle(&tiny_request(2)).unwrap();
        assert_eq!(second.cache, CacheTag::Hit);
        assert_eq!(second.id, 2);
        assert_eq!(second.evaluations, 0);
        assert_eq!(second.best_key, first.best_key);
        assert_eq!(second.tuned_cycles, first.tuned_cycles);
        assert_eq!(service.compiles(), 1);
        // A fresh service over the same directory hits straight from disk.
        let warm_boot = Service::open(&dir).unwrap();
        let third = warm_boot.handle(&tiny_request(3)).unwrap();
        assert_eq!(third.cache, CacheTag::Hit);
        assert_eq!(third.best_key, first.best_key);
        assert_eq!(warm_boot.compiles(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn near_miss_warm_starts() {
        let dir = tmpdir("warm");
        let service = Service::open(&dir).unwrap();
        let cold = service.handle(&tiny_request(1)).unwrap();
        assert_eq!(cold.cache, CacheTag::Miss);
        // Same DAG + strategy, different SRAM: family member → warm.
        let mut near = tiny_request(2);
        near.sram_mb = 8;
        let warm = service.handle(&near).unwrap();
        assert_eq!(warm.cache, CacheTag::Warm);
        assert_eq!(warm.family, cold.family);
        assert_ne!(warm.fingerprint, cold.fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_line_never_panics_and_shutdown_flags() {
        let dir = tmpdir("lines");
        let service = Service::open(&dir).unwrap();
        // Nesting far past the codec's depth cap must not overflow the stack.
        let deep_arrays = "[".repeat(1 << 20);
        let deep_objects = "{\"a\":".repeat(50_000);
        for (line, kind) in [
            ("", "parse"),
            ("{", "parse"),
            ("null", "parse"),
            (r#"{"workload": "fft"}"#, "unknown-workload"),
            (&deep_arrays, "parse"),
            (&deep_objects, "parse"),
        ] {
            let (resp, shutdown) = service.handle_line(line);
            assert!(resp.contains("\"status\": \"error\""), "{resp}");
            assert!(!shutdown);
            let doc = Json::parse(&resp).expect("error responses are valid JSON");
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some(kind), "{resp}");
        }
        let (resp, shutdown) = service.handle_line(r#"{"op": "stats"}"#);
        assert!(!shutdown);
        assert!(resp.contains("\"requests\""));
        let (resp, shutdown) = service.handle_line(r#"{"op": "shutdown", "id": 5}"#);
        assert!(shutdown);
        assert!(resp.contains("\"shutdown\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_and_trace_ops_reflect_activity() {
        let dir = tmpdir("metrics");
        let service = Service::open(&dir).unwrap();
        let (first, _) = service.handle_line(&tiny_request(1).to_line());
        assert!(first.contains("\"status\": \"ok\""), "{first}");
        let (_, _) = service.handle_line(&tiny_request(2).to_line());

        let (m, shutdown) = service.handle_line(r#"{"op": "metrics", "id": 9}"#);
        assert!(!shutdown);
        let doc = Json::parse(&m).expect("metrics is valid JSON");
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("counter {name} missing: {m}")) as u64
        };
        assert_eq!(counter("requests_total"), 2);
        assert_eq!(counter("cache_hits"), 1, "second request hit the store");
        assert_eq!(counter("cache_misses"), 1);
        assert_eq!(counter("compiles_total"), 1);
        let tune = doc
            .get("histograms")
            .and_then(|h| h.get("tune_us"))
            .expect("tune_us histogram present");
        let field = |k: &str| tune.get(k).and_then(Json::as_f64).unwrap() as u64;
        assert_eq!(field("count"), 1, "one real tuner run");
        assert!(field("min") <= field("p50"));
        assert!(field("p50") <= field("p95"));
        assert!(field("p95") <= field("p99"));
        assert!(field("p99") <= field("max").max(1));
        assert_eq!(
            doc.get("histograms")
                .and_then(|h| h.get("request_us"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_f64),
            Some(2.0),
            "both requests timed"
        );

        let (t, shutdown) = service.handle_line(r#"{"op": "trace", "id": 4}"#);
        assert!(!shutdown);
        let tdoc = Json::parse(&t).expect("trace is valid JSON");
        assert_eq!(
            tdoc.get("spans").and_then(Json::as_f64),
            Some(2.0),
            "two flights retained: {t}"
        );
        let events = tdoc
            .get("trace")
            .and_then(|tr| tr.get("traceEvents"))
            .and_then(Json::as_array)
            .expect("embedded chrome document");
        assert!(
            events.len() >= 2 + 2 * 3,
            "request roots plus stage children"
        );
        assert!(t.contains("\"ph\": \"X\""));
        assert!(
            t.contains("\"tune\""),
            "leader flight records the tune stage"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_prom_scrape_is_parseable_and_monotone() {
        let dir = tmpdir("prom");
        let service = Service::open(&dir).unwrap();
        let (_, _) = service.handle_line(&tiny_request(1).to_line());

        let scrape = |id: u64| {
            let (line, shutdown) =
                service.handle_line(&format!(r#"{{"op": "metrics-prom", "id": {id}}}"#));
            assert!(!shutdown);
            let doc = Json::parse(&line).expect("metrics-prom is valid JSON");
            doc.get("text")
                .and_then(Json::as_str)
                .expect("text member present")
                .to_string()
        };
        let first = scrape(1);
        assert!(first.contains("# TYPE requests_total counter\n"), "{first}");
        assert!(first.contains("requests_total 1\n"));
        assert!(first.contains("# TYPE request_us histogram\n"));
        assert!(first.contains("request_us_bucket{le=\"+Inf\"} 1\n"));
        assert!(
            first.contains("request_us_window{quantile=\"0.95\"} "),
            "live windowed p95 exposed: {first}"
        );
        assert!(first.contains("request_us_window_count 1\n"));
        assert!(first.contains("flight_depth 128\n"), "default depth gauge");
        // Every non-comment line is `name[{labels}] value`.
        for line in first.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect(line);
            assert!(!metric.is_empty());
            value.parse::<f64>().expect(line);
        }

        let (_, _) = service.handle_line(&tiny_request(2).to_line());
        let second = scrape(2);
        assert!(
            second.contains("requests_total 2\n"),
            "requests_total monotone across scrapes: {second}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_depth_is_configurable_and_published() {
        let dir = tmpdir("depth");
        let service = Service::open_with_options(&dir, Arc::new(Registry::new()), 2).unwrap();
        for id in 0..5 {
            let _ = service.handle(&tiny_request(id));
        }
        assert_eq!(service.flights().len(), 2, "ring truncates to the depth");
        assert_eq!(service.registry().gauge("flight_depth").get(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dot_response_is_annotated() {
        let dir = tmpdir("dot");
        let service = Service::open(&dir).unwrap();
        let mut req = tiny_request(1);
        req.emit_dot = true;
        let resp = service.handle(&req).unwrap();
        let dot = resp.dot.expect("dot requested");
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("pb="), "phase labels carry the SRAM split");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each phase label shows the CHORD capacity the engine sizes for that
    /// phase, prefetch staging carve included.
    #[test]
    fn dot_label_chord_matches_the_engine() {
        use cello_core::score::binding::{
            build_schedule_with, ScheduleConstraints, ScheduleOptions,
        };
        use cello_core::TransferTuning;
        let accel = CelloConfig::paper();
        let dag = build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: None,
        });
        let constraints = ScheduleConstraints {
            transfer: Some(TransferTuning::double_buffered(1)),
            ..Default::default()
        };
        let schedule = build_schedule_with(&dag, ScheduleOptions::cello(), &constraints);
        assert!(schedule.transfer.staging_words(accel.staging_quantum_words) > 0);
        let dot = schedule_dot(&dag, &schedule, &accel);
        for (i, split) in schedule.phase_splits.iter().enumerate() {
            let label = format!(
                "phase {i} | pb={} rf={} chord={}",
                split.pipeline_buffer_words,
                split.rf_capacity_words,
                phase_chord_capacity_words(&accel, split, &schedule.transfer)
            );
            assert!(dot.contains(&label), "missing {label:?} in\n{dot}");
        }
    }

    #[test]
    fn unknown_dataset_is_typed() {
        let dir = tmpdir("unknown");
        let service = Service::open(&dir).unwrap();
        let mut req = tiny_request(1);
        req.dataset = Some("zz_matrix".into());
        assert_eq!(service.handle(&req).unwrap_err().kind(), "unknown-dataset");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
