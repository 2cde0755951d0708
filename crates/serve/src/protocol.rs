//! The newline-delimited JSON wire protocol and the candidate-spec
//! serialization the persistent store uses.
//!
//! One request per line, one response per line, both JSON objects written
//! with [`Json::compact`] (`cello_obs::json`). Parsing is *total*: any
//! byte sequence, however deeply nested, maps to either a [`Frame`] or a
//! typed [`ServeError`], never a panic — the protocol proptest feeds
//! arbitrary garbage through [`parse_frame`] to pin that.
//!
//! A compile request names a workload family (`cg`/`hpcg`/`gcn`/
//! `bicgstab`), a sparsity pattern (a Table VI `dataset` name or explicit
//! `m`/`nnz` — e.g. read client-side from a real SuiteSparse `.mtx`), and
//! the search configuration (strategy label, node menu, SRAM size, widened /
//! per-phase-SRAM toggles). Unknown fields are ignored (forward
//! compatibility); wrong types and out-of-range values are typed errors.

use crate::error::ServeError;
use cello_core::chord::{PriorityBias, MAX_BIAS_LEVEL};
use cello_core::score::binding::{Binding, PipelineScope};
use cello_core::score::loop_order::LoopOrder;
use cello_core::score::multinode::{Partition, PartitionAxis};
use cello_core::score::repartition::{PhaseRepartition, PhaseSplit, PhaseSplits};
use cello_core::{ChordOverbook, TransferTuning, MAX_OVERBOOK_LEVEL};
use cello_obs::json::Json;
use cello_search::{Candidate, Strategy};
use cello_tensor::shape::RankId;

/// Hard caps on compile-request parameters. One runaway request must not
/// starve the worker pool: the DAG size scales with `iterations` and the
/// search cost with the node menu, so both are bounded; the rest are sanity
/// bounds (typed [`ServeError::TooLarge`], not panics or OOM).
pub mod caps {
    /// Max matrix order `M`.
    pub const MAX_M: u64 = 50_000_000;
    /// Max non-zeros.
    pub const MAX_NNZ: u64 = 2_000_000_000;
    /// Max unrolled loop iterations.
    pub const MAX_ITERATIONS: u32 = 64;
    /// Max block width `N`.
    pub const MAX_N: u64 = 4_096;
    /// Max HPCG grid side.
    pub const MAX_NX: u64 = 256;
    /// Max stacked GCN layers.
    pub const MAX_LAYERS: u32 = 16;
    /// Max node count in the partition menu.
    pub const MAX_NODES: u64 = 1_024;
    /// Max entries in the node menu.
    pub const MAX_NODE_MENU: usize = 8;
    /// Max SRAM size in MiB.
    pub const MAX_SRAM_MB: u64 = 1_024;
    /// Max assignments a `random` strategy draws. The draws, and the
    /// schedules built from them, are held in memory at once.
    pub const MAX_RANDOM_SAMPLES: usize = 4_096;
    /// Max assignments a `tier0` sweep sketches.
    pub const MAX_TIER0_BUDGET: u64 = 1 << 20;
    /// Max request line length in bytes (a frame beyond this is rejected
    /// before JSON parsing).
    pub const MAX_LINE_BYTES: usize = 1 << 20;
}

/// One parsed wire frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Compile (or fetch) a schedule.
    Compile(Request),
    /// Report service counters.
    Stats {
        /// Echoed request id.
        id: u64,
    },
    /// Report the full observability registry snapshot (counters, gauges,
    /// and histogram percentiles).
    Metrics {
        /// Echoed request id.
        id: u64,
    },
    /// Report the registry snapshot rendered as Prometheus text exposition
    /// (plus live windowed summaries), shipped as the `text` member of the
    /// response object.
    MetricsProm {
        /// Echoed request id.
        id: u64,
    },
    /// Ship the flight recorder's recent per-request span trees as Chrome
    /// trace JSON.
    Trace {
        /// Echoed request id.
        id: u64,
    },
    /// Stop accepting connections and exit the daemon.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
}

/// A validated compile request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response (default 0).
    pub id: u64,
    /// Workload family: `cg` | `hpcg` | `gcn` | `bicgstab`.
    pub workload: String,
    /// Table VI dataset name (`fv1`, `G2_circuit`, …). Exclusive with the
    /// explicit pattern below.
    pub dataset: Option<String>,
    /// Explicit pattern: matrix order (vertices for `gcn`).
    pub m: Option<u64>,
    /// Explicit pattern: non-zero count.
    pub nnz: Option<u64>,
    /// HPCG grid side (`m = nx³`); `hpcg` only.
    pub nx: Option<u64>,
    /// Stacked GCN layers (default 2); `gcn` only.
    pub layers: u32,
    /// Block width `N` (default 16).
    pub n: u64,
    /// Loop iterations to unroll (default 2).
    pub iterations: u32,
    /// Node-count menu for the partition dimension (default `[1]`).
    pub nodes: Vec<u64>,
    /// Strategy label (`cello_search::Strategy::parse` grammar).
    pub strategy: String,
    /// Open the per-phase SRAM repartition dimension.
    pub per_phase_sram: bool,
    /// Use the widened (prefilter-scale) space.
    pub widened: bool,
    /// Accelerator SRAM in MiB (default 4, the paper value).
    pub sram_mb: u64,
    /// Include an annotated DOT render of the winning schedule.
    pub emit_dot: bool,
}

impl Request {
    /// A CG compile of `dataset` with everything else at protocol defaults —
    /// the shape `loadgen` and tests start from.
    pub fn cg(dataset: &str) -> Self {
        Self {
            id: 0,
            workload: "cg".into(),
            dataset: Some(dataset.into()),
            m: None,
            nnz: None,
            nx: None,
            layers: 2,
            n: 16,
            iterations: 2,
            nodes: vec![1],
            strategy: "beam4".into(),
            per_phase_sram: false,
            widened: false,
            sram_mb: 4,
            emit_dot: false,
        }
    }

    /// Renders the request as its wire object (round-trips through
    /// [`parse_frame`]).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("id".into(), Json::int(self.id)),
            ("op".into(), Json::Str("compile".into())),
            ("workload".into(), Json::Str(self.workload.clone())),
        ];
        if let Some(d) = &self.dataset {
            members.push(("dataset".into(), Json::Str(d.clone())));
        }
        if let Some(m) = self.m {
            members.push(("m".into(), Json::int(m)));
        }
        if let Some(nnz) = self.nnz {
            members.push(("nnz".into(), Json::int(nnz)));
        }
        if let Some(nx) = self.nx {
            members.push(("nx".into(), Json::int(nx)));
        }
        members.extend([
            ("layers".into(), Json::int(self.layers as u64)),
            ("n".into(), Json::int(self.n)),
            ("iterations".into(), Json::int(self.iterations as u64)),
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().map(|&n| Json::int(n)).collect()),
            ),
            ("strategy".into(), Json::Str(self.strategy.clone())),
            ("per_phase_sram".into(), Json::Bool(self.per_phase_sram)),
            ("widened".into(), Json::Bool(self.widened)),
            ("sram_mb".into(), Json::int(self.sram_mb)),
            ("emit_dot".into(), Json::Bool(self.emit_dot)),
        ]);
        Json::Obj(members)
    }

    /// One line of wire text (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().compact()
    }
}

pub(crate) fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.0e15 => Ok(Some(*n as u64)),
        Some(other) => Err(ServeError::BadParam(format!(
            "{key} must be a non-negative integer, got {other:?}"
        ))),
    }
}

pub(crate) fn field_str(obj: &Json, key: &str) -> Result<Option<String>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(ServeError::BadParam(format!(
            "{key} must be a string, got {other:?}"
        ))),
    }
}

pub(crate) fn field_bool(obj: &Json, key: &str) -> Result<Option<bool>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(ServeError::BadParam(format!(
            "{key} must be a boolean, got {other:?}"
        ))),
    }
}

/// Rejects a `random` draw count or a `tier0` budget above its cap: an
/// allocation failure aborts the daemon, so the bound must hold before the
/// tuner runs.
fn strategy_within_caps(strategy: &Strategy) -> Result<(), ServeError> {
    match strategy {
        Strategy::Random { samples, .. } if *samples > caps::MAX_RANDOM_SAMPLES => {
            Err(ServeError::TooLarge(format!(
                "random samples {samples} (cap {})",
                caps::MAX_RANDOM_SAMPLES
            )))
        }
        Strategy::Tier0 { budget, .. } if *budget > caps::MAX_TIER0_BUDGET => {
            Err(ServeError::TooLarge(format!(
                "tier0 budget {budget} (cap {})",
                caps::MAX_TIER0_BUDGET
            )))
        }
        Strategy::Prefiltered { inner, .. } => strategy_within_caps(inner),
        _ => Ok(()),
    }
}

/// Parses one wire line into a [`Frame`] — total over arbitrary bytes.
pub fn parse_frame(line: &str) -> Result<Frame, ServeError> {
    if line.len() > caps::MAX_LINE_BYTES {
        return Err(ServeError::TooLarge(format!(
            "frame of {} bytes (cap {})",
            line.len(),
            caps::MAX_LINE_BYTES
        )));
    }
    let doc = Json::parse(line.trim()).map_err(ServeError::Parse)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ServeError::Parse("frame must be a JSON object".into()));
    }
    let id = field_u64(&doc, "id")?.unwrap_or(0);
    let op = field_str(&doc, "op")?.unwrap_or_else(|| "compile".into());
    match op.as_str() {
        "stats" => return Ok(Frame::Stats { id }),
        "metrics" => return Ok(Frame::Metrics { id }),
        "metrics-prom" => return Ok(Frame::MetricsProm { id }),
        "trace" => return Ok(Frame::Trace { id }),
        "shutdown" => return Ok(Frame::Shutdown { id }),
        "compile" => {}
        other => {
            return Err(ServeError::BadParam(format!(
                "op must be compile|stats|metrics|metrics-prom|trace|shutdown, got {other:?}"
            )))
        }
    }

    let workload = field_str(&doc, "workload")?.ok_or(ServeError::MissingField("workload"))?;
    if !matches!(workload.as_str(), "cg" | "hpcg" | "gcn" | "bicgstab") {
        return Err(ServeError::UnknownWorkload(workload));
    }
    let nodes = match doc.get("nodes") {
        None | Some(Json::Null) => vec![1],
        Some(Json::Arr(items)) => {
            if items.is_empty() || items.len() > caps::MAX_NODE_MENU {
                return Err(ServeError::BadParam(format!(
                    "nodes menu must have 1..={} entries",
                    caps::MAX_NODE_MENU
                )));
            }
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_f64() {
                    Some(n) if n >= 1.0 && n.fract() == 0.0 && n <= caps::MAX_NODES as f64 => {
                        out.push(n as u64)
                    }
                    _ => {
                        return Err(ServeError::BadParam(format!(
                            "nodes entries must be integers in 1..={}, got {item:?}",
                            caps::MAX_NODES
                        )))
                    }
                }
            }
            out
        }
        Some(other) => {
            return Err(ServeError::BadParam(format!(
                "nodes must be an array, got {other:?}"
            )))
        }
    };
    let strategy = field_str(&doc, "strategy")?.unwrap_or_else(|| "beam4".into());
    match Strategy::parse(&strategy) {
        Some(parsed) => strategy_within_caps(&parsed)?,
        None => return Err(ServeError::UnknownStrategy(strategy)),
    }
    let bounded = |key: &'static str, v: Option<u64>, lo: u64, hi: u64, default: u64| {
        let v = v.unwrap_or(default);
        if (lo..=hi).contains(&v) {
            Ok(v)
        } else if v > hi {
            Err(ServeError::TooLarge(format!("{key} {v} (cap {hi})")))
        } else {
            Err(ServeError::BadParam(format!(
                "{key} {v} below minimum {lo}"
            )))
        }
    };
    let req = Request {
        id,
        workload,
        dataset: field_str(&doc, "dataset")?,
        m: match field_u64(&doc, "m")? {
            Some(m) => Some(bounded("m", Some(m), 1, caps::MAX_M, 1)?),
            None => None,
        },
        nnz: match field_u64(&doc, "nnz")? {
            Some(nnz) => Some(bounded("nnz", Some(nnz), 1, caps::MAX_NNZ, 1)?),
            None => None,
        },
        nx: match field_u64(&doc, "nx")? {
            Some(nx) => Some(bounded("nx", Some(nx), 1, caps::MAX_NX, 1)?),
            None => None,
        },
        layers: bounded(
            "layers",
            field_u64(&doc, "layers")?,
            1,
            caps::MAX_LAYERS as u64,
            2,
        )? as u32,
        n: bounded("n", field_u64(&doc, "n")?, 1, caps::MAX_N, 16)?,
        iterations: bounded(
            "iterations",
            field_u64(&doc, "iterations")?,
            1,
            caps::MAX_ITERATIONS as u64,
            2,
        )? as u32,
        nodes,
        strategy,
        per_phase_sram: field_bool(&doc, "per_phase_sram")?.unwrap_or(false),
        widened: field_bool(&doc, "widened")?.unwrap_or(false),
        sram_mb: bounded(
            "sram_mb",
            field_u64(&doc, "sram_mb")?,
            1,
            caps::MAX_SRAM_MB,
            4,
        )?,
        emit_dot: field_bool(&doc, "emit_dot")?.unwrap_or(false),
    };
    Ok(Frame::Compile(req))
}

/// How a compile response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTag {
    /// Served from the persistent store (exact fingerprint match).
    Hit,
    /// Compiled fresh, warm-started from a same-family record.
    Warm,
    /// Compiled fresh from scratch.
    Miss,
    /// Waited on an identical in-flight compilation and shared its result.
    Coalesced,
}

impl CacheTag {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTag::Hit => "hit",
            CacheTag::Warm => "warm",
            CacheTag::Miss => "miss",
            CacheTag::Coalesced => "coalesced",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<CacheTag> {
        Some(match s {
            "hit" => CacheTag::Hit,
            "warm" => CacheTag::Warm,
            "miss" => CacheTag::Miss,
            "coalesced" => CacheTag::Coalesced,
            _ => return None,
        })
    }
}

/// A successful compile response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Exact workload fingerprint (the cache key).
    pub fingerprint: String,
    /// Near-miss family hash.
    pub family: String,
    /// How this response was produced.
    pub cache: CacheTag,
    /// Wall-clock spent producing it, µs.
    pub compile_micros: u64,
    /// Strategy label the outcome was tuned with.
    pub strategy: String,
    /// Canonical schedule key of the best-total-traffic schedule.
    pub best_key: String,
    /// Paper-heuristic baseline cycles.
    pub base_cycles: u64,
    /// Best-found cycles.
    pub tuned_cycles: u64,
    /// Best-total-traffic schedule's DRAM bytes.
    pub tuned_dram_bytes: u64,
    /// Best-total-traffic schedule's NoC hop-bytes.
    pub tuned_noc_hop_bytes: u64,
    /// DRAM + NoC total of the best-total-traffic schedule.
    pub tuned_traffic_bytes: u64,
    /// Energy estimate of the best-cycles schedule, pJ.
    pub tuned_energy_pj: f64,
    /// Fresh sim evaluations this response cost (0 on hits).
    pub evaluations: u64,
    /// Surrogate scorings this response cost.
    pub surrogate_scored: u64,
    /// Pareto-front size of the outcome.
    pub pareto_size: u64,
    /// Annotated DOT of the winning schedule, when requested.
    pub dot: Option<String>,
}

impl Response {
    /// Renders the wire object.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("id".into(), Json::int(self.id)),
            ("status".into(), Json::Str("ok".into())),
            ("fingerprint".into(), Json::Str(self.fingerprint.clone())),
            ("family".into(), Json::Str(self.family.clone())),
            ("cache".into(), Json::Str(self.cache.as_str().into())),
            ("compile_micros".into(), Json::int(self.compile_micros)),
            ("strategy".into(), Json::Str(self.strategy.clone())),
            ("best_key".into(), Json::Str(self.best_key.clone())),
            ("base_cycles".into(), Json::int(self.base_cycles)),
            ("tuned_cycles".into(), Json::int(self.tuned_cycles)),
            ("tuned_dram_bytes".into(), Json::int(self.tuned_dram_bytes)),
            (
                "tuned_noc_hop_bytes".into(),
                Json::int(self.tuned_noc_hop_bytes),
            ),
            (
                "tuned_traffic_bytes".into(),
                Json::int(self.tuned_traffic_bytes),
            ),
            ("tuned_energy_pj".into(), Json::Num(self.tuned_energy_pj)),
            ("evaluations".into(), Json::int(self.evaluations)),
            ("surrogate_scored".into(), Json::int(self.surrogate_scored)),
            ("pareto_size".into(), Json::int(self.pareto_size)),
        ];
        if let Some(dot) = &self.dot {
            members.push(("dot".into(), Json::Str(dot.clone())));
        }
        Json::Obj(members)
    }

    /// Parses a wire object back (the client and the differential tests).
    /// Returns `Err` with the server's message for error responses.
    pub fn from_json(doc: &Json) -> Result<Response, ServeError> {
        let status = field_str(doc, "status")?.ok_or(ServeError::MissingField("status"))?;
        if status != "ok" {
            let kind = field_str(doc, "kind")?.unwrap_or_else(|| "?".into());
            let msg = field_str(doc, "message")?.unwrap_or_default();
            return Err(ServeError::Internal(format!(
                "server error [{kind}]: {msg}"
            )));
        }
        let need_u64 =
            |key: &'static str| field_u64(doc, key)?.ok_or(ServeError::MissingField(key));
        let need_str =
            |key: &'static str| field_str(doc, key)?.ok_or(ServeError::MissingField(key));
        Ok(Response {
            id: field_u64(doc, "id")?.unwrap_or(0),
            fingerprint: need_str("fingerprint")?,
            family: need_str("family")?,
            cache: CacheTag::parse(&need_str("cache")?)
                .ok_or_else(|| ServeError::BadParam("bad cache tag".into()))?,
            compile_micros: need_u64("compile_micros")?,
            strategy: need_str("strategy")?,
            best_key: need_str("best_key")?,
            base_cycles: need_u64("base_cycles")?,
            tuned_cycles: need_u64("tuned_cycles")?,
            tuned_dram_bytes: need_u64("tuned_dram_bytes")?,
            tuned_noc_hop_bytes: need_u64("tuned_noc_hop_bytes")?,
            tuned_traffic_bytes: need_u64("tuned_traffic_bytes")?,
            tuned_energy_pj: doc
                .get("tuned_energy_pj")
                .and_then(Json::as_f64)
                .ok_or(ServeError::MissingField("tuned_energy_pj"))?,
            evaluations: need_u64("evaluations")?,
            surrogate_scored: need_u64("surrogate_scored")?,
            pareto_size: need_u64("pareto_size")?,
            dot: field_str(doc, "dot")?,
        })
    }
}

/// The error response line for a failed request (`status: "error"`, the
/// typed kind, and the human-readable message).
pub fn error_line(id: u64, err: &ServeError) -> String {
    Json::Obj(vec![
        ("id".into(), Json::int(id)),
        ("status".into(), Json::Str("error".into())),
        ("kind".into(), Json::Str(err.kind().into())),
        ("message".into(), Json::Str(err.to_string())),
    ])
    .compact()
}

// ---------------------------------------------------------------------------
// Candidate specs: the store's portable schedule representation.
// ---------------------------------------------------------------------------

/// Serializes a search candidate as a space-independent JSON spec: exactly
/// the options/constraints the decision dimensions control, so a cached
/// candidate can be rebuilt in a *different* request's space (via
/// `SearchSpace::project`) for warm-starting.
pub fn candidate_to_json(c: &Candidate) -> Json {
    let scope = match c.options.scope {
        PipelineScope::None => "none",
        PipelineScope::SoleConsumer => "sole",
        PipelineScope::AllPipelineOrHold => "all-hold",
        PipelineScope::Any => "any",
    };
    let mut members = vec![
        ("scope".into(), Json::Str(scope.into())),
        ("hold".into(), Json::Bool(c.options.enable_hold)),
        ("multicast".into(), Json::Bool(c.options.enable_multicast)),
        ("chord".into(), Json::Bool(c.options.enable_chord)),
        ("pb".into(), Json::int(c.options.pipeline_buffer_words)),
        ("rf".into(), Json::int(c.options.rf_capacity_words)),
        (
            "cuts".into(),
            Json::Arr(
                c.constraints
                    .cut_before
                    .iter()
                    .map(|&n| Json::int(n as u64))
                    .collect(),
            ),
        ),
    ];
    let binding_str = |b: Binding| match b {
        Binding::RegisterFile => "rf",
        Binding::Pipeline => "pipe",
        Binding::Chord => "chord",
        Binding::Dram => "dram",
    };
    members.push((
        "steer".into(),
        Json::Obj(
            c.constraints
                .binding_overrides
                .iter()
                .map(|(t, b)| (t.clone(), Json::Str(binding_str(*b).into())))
                .collect(),
        ),
    ));
    members.push((
        "orders".into(),
        Json::Obj(
            c.constraints
                .loop_orders
                .iter()
                .map(|(node, order)| {
                    (
                        node.to_string(),
                        Json::Arr(
                            order
                                .order
                                .iter()
                                .map(|r| Json::Str(r.name().into()))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        ),
    ));
    members.push((
        "bias".into(),
        Json::Obj(
            c.constraints
                .chord_priority_bias
                .iter()
                .map(|(t, b)| {
                    // Graded wire form: "+N"/"-N" (level 1..=MAX_BIAS_LEVEL).
                    let tag = match b {
                        PriorityBias::Boost(_) => format!("+{}", b.level()),
                        PriorityBias::Demote(_) => format!("-{}", b.level()),
                    };
                    (t.clone(), Json::Str(tag))
                })
                .collect(),
        ),
    ));
    if let Some(p) = c.constraints.partition {
        let mut part = vec![("nodes".into(), Json::int(p.nodes))];
        match p.axis {
            PartitionAxis::Stage => part.push(("axis".into(), Json::Str("stage".into()))),
            PartitionAxis::Rank(r) => {
                part.push(("axis".into(), Json::Str("rank".into())));
                part.push(("rank".into(), Json::Str(r.name().into())));
            }
        }
        members.push(("partition".into(), Json::Obj(part)));
    }
    if let Some(rep) = &c.constraints.phase_repartition {
        let split = |s: &PhaseSplit| {
            Json::Arr(vec![
                Json::int(s.pipeline_buffer_words),
                Json::int(s.rf_capacity_words),
            ])
        };
        let mut obj = vec![("sram".into(), Json::int(rep.sram_words))];
        match &rep.splits {
            PhaseSplits::ByKind { fused, solo } => {
                obj.push(("fused".into(), split(fused)));
                obj.push(("solo".into(), split(solo)));
            }
            PhaseSplits::ByIndex(map) => {
                obj.push((
                    "by_index".into(),
                    Json::Obj(
                        map.iter()
                            .map(|(idx, s)| (idx.to_string(), split(s)))
                            .collect(),
                    ),
                ));
            }
        }
        members.push(("repartition".into(), Json::Obj(obj)));
    }
    if let Some(t) = c.constraints.transfer {
        let t = t.normalized();
        if !t.is_off() {
            members.push((
                "transfer".into(),
                Json::Obj(vec![
                    ("depth".into(), Json::int(t.prefetch_depth as u64)),
                    ("db".into(), Json::Bool(t.double_buffer)),
                ]),
            ));
        }
    }
    if let Some(o) = c.constraints.chord_overbook {
        let o = o.normalized();
        if !o.is_off() {
            members.push((
                "overbook".into(),
                Json::Obj(vec![("level".into(), Json::int(o.level as u64))]),
            ));
        }
    }
    Json::Obj(members)
}

/// Inverse of [`candidate_to_json`]. Malformed specs (a corrupted or
/// hand-edited cache file) are typed errors, not panics — a bad record
/// degrades to a cache miss upstream.
pub fn candidate_from_json(doc: &Json) -> Result<Candidate, ServeError> {
    let bad = |msg: &str| ServeError::Store(format!("bad candidate spec: {msg}"));
    let mut c = Candidate::paper_heuristic();
    c.options.scope = match field_str(doc, "scope")?.as_deref() {
        Some("none") => PipelineScope::None,
        Some("sole") => PipelineScope::SoleConsumer,
        Some("all-hold") => PipelineScope::AllPipelineOrHold,
        Some("any") => PipelineScope::Any,
        other => return Err(bad(&format!("scope {other:?}"))),
    };
    c.options.enable_hold = field_bool(doc, "hold")?.ok_or_else(|| bad("missing hold"))?;
    c.options.enable_multicast =
        field_bool(doc, "multicast")?.ok_or_else(|| bad("missing multicast"))?;
    c.options.enable_chord = field_bool(doc, "chord")?.ok_or_else(|| bad("missing chord"))?;
    c.options.pipeline_buffer_words = field_u64(doc, "pb")?.ok_or_else(|| bad("missing pb"))?;
    c.options.rf_capacity_words = field_u64(doc, "rf")?.ok_or_else(|| bad("missing rf"))?;
    if let Some(cuts) = doc.get("cuts") {
        for item in cuts.as_array().ok_or_else(|| bad("cuts not an array"))? {
            let n = item
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| bad("bad cut index"))?;
            c.constraints.cut_before.insert(n as usize);
        }
    }
    if let Some(Json::Obj(steer)) = doc.get("steer") {
        for (tensor, b) in steer {
            let binding = match b.as_str() {
                Some("rf") => Binding::RegisterFile,
                Some("pipe") => Binding::Pipeline,
                Some("chord") => Binding::Chord,
                Some("dram") => Binding::Dram,
                other => return Err(bad(&format!("steer binding {other:?}"))),
            };
            c.constraints
                .binding_overrides
                .insert(tensor.clone(), binding);
        }
    }
    if let Some(Json::Obj(orders)) = doc.get("orders") {
        for (node, ranks) in orders {
            let node: usize = node.parse().map_err(|_| bad("bad order node index"))?;
            let order = ranks
                .as_array()
                .ok_or_else(|| bad("order not an array"))?
                .iter()
                .map(|r| {
                    r.as_str()
                        .map(RankId::new)
                        .ok_or_else(|| bad("bad rank name"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            c.constraints.loop_orders.insert(node, LoopOrder { order });
        }
    }
    if let Some(Json::Obj(bias)) = doc.get("bias") {
        for (tensor, b) in bias {
            // "+N"/"-N" with N in 1..=MAX_BIAS_LEVEL.
            let level = |rest: &str| -> Result<u8, ServeError> {
                rest.parse::<u8>()
                    .ok()
                    .filter(|l| (1..=MAX_BIAS_LEVEL).contains(l))
                    .ok_or_else(|| bad(&format!("bias level {rest:?}")))
            };
            let bias = match b.as_str() {
                Some(s) if s.starts_with('+') => PriorityBias::Boost(level(&s[1..])?),
                Some(s) if s.starts_with('-') => PriorityBias::Demote(level(&s[1..])?),
                other => return Err(bad(&format!("bias {other:?}"))),
            };
            c.constraints
                .chord_priority_bias
                .insert(tensor.clone(), bias);
        }
    }
    if let Some(part) = doc.get("partition") {
        let nodes = field_u64(part, "nodes")?.ok_or_else(|| bad("partition missing nodes"))?;
        let axis = match field_str(part, "axis")?.as_deref() {
            Some("stage") => PartitionAxis::Stage,
            Some("rank") => PartitionAxis::Rank(RankId::new(
                &field_str(part, "rank")?.ok_or_else(|| bad("rank axis missing rank"))?,
            )),
            other => return Err(bad(&format!("partition axis {other:?}"))),
        };
        c.constraints.partition = Some(Partition { nodes, axis });
    }
    if let Some(rep) = doc.get("repartition") {
        let sram = field_u64(rep, "sram")?.ok_or_else(|| bad("repartition missing sram"))?;
        let split = |v: &Json| -> Result<PhaseSplit, ServeError> {
            let arr = v
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| bad("split must be [pipeline_words, rf_words]"))?;
            let get = |i: usize| {
                arr[i]
                    .as_f64()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .map(|n| n as u64)
                    .ok_or_else(|| bad("bad split words"))
            };
            Ok(PhaseSplit::new(get(0)?, get(1)?))
        };
        let rebuilt = match (rep.get("fused"), rep.get("solo"), rep.get("by_index")) {
            (Some(f), Some(s), None) => PhaseRepartition::by_kind(sram, split(f)?, split(s)?),
            (None, None, Some(Json::Obj(map))) => {
                let mut splits = std::collections::BTreeMap::new();
                for (idx, v) in map {
                    let idx: usize = idx.parse().map_err(|_| bad("bad phase index"))?;
                    splits.insert(idx, split(v)?);
                }
                PhaseRepartition::by_index(sram, splits)
            }
            _ => return Err(bad("repartition needs fused+solo or by_index")),
        };
        c.constraints.phase_repartition =
            Some(rebuilt.map_err(|e| bad(&format!("invalid repartition: {e}")))?);
    }
    // Absent member = serialized transfers (the only spelling depth 0 has;
    // specs written before the dimension existed parse unchanged).
    if let Some(xfer) = doc.get("transfer") {
        let depth = field_u64(xfer, "depth")?.ok_or_else(|| bad("transfer missing depth"))?;
        if !(1..=u8::MAX as u64).contains(&depth) {
            return Err(bad(&format!("transfer depth {depth} out of range")));
        }
        let t = if field_bool(xfer, "db")?.unwrap_or(false) {
            TransferTuning::double_buffered(depth as u8)
        } else {
            TransferTuning::single_buffered(depth as u8)
        };
        c.constraints.transfer = Some(t);
    }
    // Absent member = overbooking off (the only spelling level 0 has; specs
    // written before the dimension existed parse unchanged).
    if let Some(ob) = doc.get("overbook") {
        let level = field_u64(ob, "level")?.ok_or_else(|| bad("overbook missing level"))?;
        if !(1..=MAX_OVERBOOK_LEVEL as u64).contains(&level) {
            return Err(bad(&format!("overbook level {level} out of range")));
        }
        c.constraints.chord_overbook = Some(ChordOverbook::at(level as u8));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_wire_text() {
        let mut req = Request::cg("G2_circuit");
        req.id = 42;
        req.nodes = vec![1, 4];
        req.strategy = "prefilter0.1+beam8".into();
        req.per_phase_sram = true;
        req.emit_dot = true;
        let line = req.to_line();
        assert!(!line.contains('\n'));
        match parse_frame(&line).unwrap() {
            Frame::Compile(back) => assert_eq!(back, req),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn defaults_fill_in_and_ops_parse() {
        match parse_frame(r#"{"workload": "cg", "dataset": "fv1"}"#).unwrap() {
            Frame::Compile(req) => {
                assert_eq!(req.n, 16);
                assert_eq!(req.iterations, 2);
                assert_eq!(req.nodes, vec![1]);
                assert_eq!(req.strategy, "beam4");
                assert_eq!(req.sram_mb, 4);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_frame(r#"{"op": "stats", "id": 7}"#).unwrap(),
            Frame::Stats { id: 7 }
        );
        assert_eq!(
            parse_frame(r#"{"op": "metrics", "id": 3}"#).unwrap(),
            Frame::Metrics { id: 3 }
        );
        assert_eq!(
            parse_frame(r#"{"op": "metrics-prom", "id": 5}"#).unwrap(),
            Frame::MetricsProm { id: 5 }
        );
        assert_eq!(
            parse_frame(r#"{"op": "trace"}"#).unwrap(),
            Frame::Trace { id: 0 }
        );
        assert_eq!(
            parse_frame(r#"{"op": "shutdown"}"#).unwrap(),
            Frame::Shutdown { id: 0 }
        );
    }

    /// The caps admit the strategies the benchmark and the trajectory
    /// send, and everything up to the cap itself.
    #[test]
    fn strategies_at_the_caps_parse() {
        for strategy in [
            "beam8".to_string(),
            "prefilter0.1+tier0b49152k96".to_string(),
            format!("random{}@1", caps::MAX_RANDOM_SAMPLES),
            format!("prefilter0.5+tier0b{}k16", caps::MAX_TIER0_BUDGET),
        ] {
            let line = format!(r#"{{"workload": "cg", "strategy": "{strategy}"}}"#);
            match parse_frame(&line) {
                Ok(Frame::Compile(req)) => assert_eq!(req.strategy, strategy),
                other => panic!("{strategy}: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let cases: Vec<(&str, &str)> = vec![
            ("", "parse"),
            ("{", "parse"),
            ("[1,2]", "parse"),
            (r#"{"op": "explode"}"#, "bad-param"),
            (r#"{"op": "compile"}"#, "missing-field"),
            (r#"{"workload": "fft"}"#, "unknown-workload"),
            (
                r#"{"workload": "cg", "strategy": "annealed"}"#,
                "unknown-strategy",
            ),
            (r#"{"workload": "cg", "n": "sixteen"}"#, "bad-param"),
            (r#"{"workload": "cg", "nodes": []}"#, "bad-param"),
            (r#"{"workload": "cg", "nodes": [0]}"#, "bad-param"),
            (r#"{"workload": "cg", "iterations": 100000}"#, "too-large"),
            (r#"{"workload": "cg", "m": 99999999999}"#, "too-large"),
            (r#"{"workload": "cg", "iterations": 0}"#, "bad-param"),
            (
                r#"{"workload": "cg", "strategy": "random100000000000@1"}"#,
                "too-large",
            ),
            (
                r#"{"workload": "cg", "strategy": "tier0b1048577k96"}"#,
                "too-large",
            ),
            (
                r#"{"workload": "cg", "strategy": "prefilter0.1+tier0b99999999999k96"}"#,
                "too-large",
            ),
        ];
        for (line, kind) in cases {
            let err = parse_frame(line).expect_err(line);
            assert_eq!(err.kind(), kind, "{line} -> {err}");
        }
        let huge = format!(
            r#"{{"workload": "cg", "pad": "{}"}}"#,
            "x".repeat(caps::MAX_LINE_BYTES)
        );
        assert_eq!(parse_frame(&huge).unwrap_err().kind(), "too-large");
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: 9,
            fingerprint: "ab".repeat(16),
            family: "cd".repeat(16),
            cache: CacheTag::Warm,
            compile_micros: 1234,
            strategy: "beam4".into(),
            best_key: "k|;10;".into(),
            base_cycles: 100,
            tuned_cycles: 80,
            tuned_dram_bytes: 4096,
            tuned_noc_hop_bytes: 128,
            tuned_traffic_bytes: 4224,
            tuned_energy_pj: 1.5,
            evaluations: 17,
            surrogate_scored: 90,
            pareto_size: 3,
            dot: Some("digraph cello {}\n".into()),
        };
        let line = resp.to_json().compact();
        assert!(!line.contains('\n'), "dot newlines must be escaped");
        let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, resp);
        // Error lines parse as Err with the kind preserved in the message.
        let err_line = error_line(3, &ServeError::UnknownDataset("zz".into()));
        let err = Response::from_json(&Json::parse(&err_line).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown-dataset"), "{err}");
    }

    #[test]
    fn candidate_spec_round_trips_rich_candidates() {
        use cello_core::score::repartition::PhaseSplit;
        let mut c = Candidate::paper_heuristic();
        c.options.scope = PipelineScope::AllPipelineOrHold;
        c.options.pipeline_buffer_words = 16_384;
        c.constraints.cut_before.extend([3, 9]);
        c.constraints
            .binding_overrides
            .insert("S@1".into(), Binding::Dram);
        c.constraints.loop_orders.insert(
            4,
            LoopOrder {
                order: vec![RankId::new("m"), RankId::new("k"), RankId::new("n")],
            },
        );
        c.constraints
            .chord_priority_bias
            .insert("A".into(), PriorityBias::Boost(1));
        c.constraints
            .chord_priority_bias
            .insert("B".into(), PriorityBias::Demote(2));
        c.constraints.partition = Some(Partition::by_rank(4, RankId::new("m")));
        c.constraints.phase_repartition = Some(
            PhaseRepartition::by_kind(
                1 << 20,
                PhaseSplit::new(65_536, 16_384),
                PhaseSplit::new(0, 4_096),
            )
            .unwrap(),
        );
        c.constraints.transfer = Some(TransferTuning::double_buffered(2));
        c.constraints.chord_overbook = Some(ChordOverbook::at(2));
        let json = candidate_to_json(&c);
        // Through wire text, like a store record.
        let text = json.compact();
        let back = candidate_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        // The plain heuristic round-trips too — and emits no transfer or
        // overbook member, so pre-transfer cache files stay byte-compatible.
        let plain = Candidate::paper_heuristic();
        let plain_json = candidate_to_json(&plain);
        assert!(plain_json.get("transfer").is_none());
        assert!(plain_json.get("overbook").is_none());
        let back = candidate_from_json(&plain_json).unwrap();
        assert_eq!(back, plain);
        // Explicitly-off overbooking serializes exactly like absent: the
        // member is dropped and the spec parses back to the off default.
        let mut off = Candidate::paper_heuristic();
        off.constraints.chord_overbook = Some(ChordOverbook::off());
        let off_json = candidate_to_json(&off);
        assert!(off_json.get("overbook").is_none());
        // Single-buffered prefetch keeps its db=false spelling.
        let mut sb = Candidate::paper_heuristic();
        sb.constraints.transfer = Some(TransferTuning::single_buffered(3));
        let back = candidate_from_json(&candidate_to_json(&sb)).unwrap();
        assert_eq!(back, sb);
    }

    #[test]
    fn corrupted_candidate_specs_are_typed_errors() {
        for bad in [
            r#"{"scope": "diagonal"}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "cuts": ["x"]}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "partition": {"axis": "rank"}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "repartition": {"sram": 10, "fused": [100, 100], "solo": [0, 0]}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "bias": {"A": "+9"}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "bias": {"A": "~1"}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "bias": {"A": "+"}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "bias": {"A": "-"}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "transfer": {"depth": 0}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "transfer": {"db": true}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "overbook": {"level": 0}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "overbook": {"level": 99}}"#,
            r#"{"scope": "any", "hold": true, "multicast": true, "chord": true, "pb": 1, "rf": 1, "overbook": {}}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            let err = candidate_from_json(&doc).unwrap_err();
            assert_eq!(err.kind(), "store", "{bad}");
        }
    }
}
