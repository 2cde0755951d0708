//! Cluster formation and tensor→buffer binding (§V-B/C, Fig 5 and Fig 8).
//!
//! SCORE walks the DAG in topological order and greedily grows *pipeline
//! clusters* (the space-time boxes of Fig 8): an op joins the current cluster
//! when every in-cluster producer reaches it through a *realizable* edge
//! (pipelineable / delayed-hold with compatible loop orders and no swizzle),
//! or when it shares a parallel-multicast input with an in-cluster op.
//! Classified-pipelineable edges whose endpoints land in *different* clusters
//! are **not realized** — their tensors are steered to CHORD exactly like
//! writeback operands (§V-C: "steers the operands with downstream consumers
//! requiring writeback to CHORD"). This is how CG's cross-iteration
//! `X(i)→X(i+1)` edge ends up in CHORD.
//!
//! The same builder, parameterized by [`ScheduleOptions`], produces every
//! baseline of Table IV: the oracle op-by-op schedule (no fusion at all),
//! FLAT-like pairwise pipelining (only when the intermediate has a *sole*
//! pipelineable consumer), SET-like (adds delayed-hold and multicast), and
//! CELLO (everything, plus CHORD steering).

use crate::chord::PriorityBias;
use crate::score::classify::{classify, Classification, Dependency};
use crate::score::loop_order::{can_pipeline, choose_loop_order, LoopOrder};
use crate::score::multinode::{Partition, PartitionAxis};
use crate::score::overbook::ChordOverbook;
use crate::score::repartition::{PhaseRepartition, PhaseSplit};
use crate::score::swizzle::{minimize_swizzles, SwizzleReport};
use crate::score::tiling::{pipeline_can_stream, rf_fits};
use crate::score::transfer::TransferTuning;
use cello_graph::dag::{EdgeId, NodeId, TensorDag};
use cello_graph::node::OpKind;
use std::collections::{BTreeMap, BTreeSet};

/// How aggressively a scheduler may realize pipelining (Table IV rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineScope {
    /// Never pipeline (oracle op-by-op, Flexagon-like).
    None,
    /// Pipeline only intermediates whose *single* consumer is pipelineable
    /// (FLAT-like: "instances with delayed downstream consumers are not
    /// considered").
    SoleConsumer,
    /// Pipeline when every consumer is pipelineable or delayed-hold
    /// (SET-like: hold slots cover the delayed ones).
    AllPipelineOrHold,
    /// Pipeline whatever fits; CHORD covers the rest (CELLO).
    Any,
}

/// Scheduler feature switches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduleOptions {
    /// Pipelining realization scope.
    pub scope: PipelineScope,
    /// Serve delayed-hold edges from the pipeline buffer (SET, CELLO).
    pub enable_hold: bool,
    /// Fuse parallel-multicast siblings into one cluster (SET, CELLO).
    pub enable_multicast: bool,
    /// Steer writeback/sequential operands to CHORD (CELLO only).
    pub enable_chord: bool,
    /// Register-file capacity in words (small-tensor threshold).
    pub rf_capacity_words: u64,
    /// Pipeline-buffer capacity in words.
    pub pipeline_buffer_words: u64,
}

impl ScheduleOptions {
    /// CELLO: SCORE + CHORD (Table IV last row).
    pub fn cello() -> Self {
        Self {
            scope: PipelineScope::Any,
            enable_hold: true,
            enable_multicast: true,
            enable_chord: true,
            rf_capacity_words: 16_384,
            pipeline_buffer_words: 65_536,
        }
    }

    /// Oracle op-by-op (Flexagon-like best intra-layer). `rf_capacity_words`
    /// is 0 because in the op-by-op oracle "all tensor operands begin and end
    /// in DRAM" (§VII-A1) — the RF only serves reuse *within* one op, which
    /// the cold-access accounting already assumes.
    pub fn best_intra() -> Self {
        Self {
            scope: PipelineScope::None,
            enable_hold: false,
            enable_multicast: false,
            enable_chord: false,
            rf_capacity_words: 0,
            ..Self::cello()
        }
    }

    /// FLAT-like adjacent pipelining (oracle op-by-op plus pairwise
    /// pipelining — operands still begin and end in DRAM).
    pub fn flat() -> Self {
        Self {
            scope: PipelineScope::SoleConsumer,
            ..Self::best_intra()
        }
    }

    /// SET-like pipelining + delayed hold.
    pub fn set_like() -> Self {
        Self {
            scope: PipelineScope::AllPipelineOrHold,
            enable_hold: true,
            enable_multicast: true,
            ..Self::best_intra()
        }
    }

    /// PRELUDE-only (§VII-C3): best-intra schedule; the PRELUDE SRAM is
    /// configured at the simulator level.
    pub fn prelude_only() -> Self {
        Self {
            enable_chord: true, // operands still steered to the (PRELUDE) SRAM
            ..Self::best_intra()
        }
    }
}

/// Where a tensor lives between producer and consumer(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binding {
    /// Small tensors streamed from the register file (CG's Greek tensors).
    RegisterFile,
    /// All consumers realized in-cluster: lives (transiently) in the pipeline
    /// buffer, never touches DRAM.
    Pipeline,
    /// Steered to CHORD: resident head reused, tail spills (CELLO).
    Chord,
    /// Round-trips through DRAM (baselines / terminal outputs).
    Dram,
}

/// One pipeline cluster: ops co-resident on the PE array (Fig 8 boxes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Member ops in topological order.
    pub ops: Vec<NodeId>,
    /// Edges realized as on-chip pipelining inside this cluster.
    pub realized_edges: Vec<EdgeId>,
}

/// A complete SCORE schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Pipeline clusters in execution order.
    pub phases: Vec<Phase>,
    /// Per-edge realization flag (true = served by the pipeline buffer).
    pub realized: Vec<bool>,
    /// Tensor name → buffer binding.
    pub binding: BTreeMap<String, Binding>,
    /// The Algorithm 2 classification this schedule was derived from.
    pub classification: Classification,
    /// Per-node loop orders (dominant rank outermost).
    pub loop_orders: Vec<LoopOrder>,
    /// Layout choices minimizing swizzles (Challenge 4, §V-B).
    pub swizzle: SwizzleReport,
    /// The options used.
    pub options: ScheduleOptions,
    /// Multi-node partitioning (§V-B scalable dataflow); single-node unless
    /// the constraints requested (and validity allowed) more.
    pub partition: Partition,
    /// Per-tensor RIFF `(freq, dist)` priority biases — the searched half of
    /// the SCORE-CHORD interface. Only CHORD-bound tensors keep an entry
    /// (bias requests on other bindings are dropped as invalid).
    pub chord_bias: BTreeMap<String, PriorityBias>,
    /// Resolved per-phase SRAM splits, one per phase (§V/§VI co-design at
    /// phase granularity). All entries equal the global
    /// `options.{pipeline_buffer_words, rf_capacity_words}` split unless a
    /// [`ScheduleConstraints::phase_repartition`] was applied — the uniform
    /// case is the degenerate global split, bit-exact in both evaluators.
    pub phase_splits: Vec<PhaseSplit>,
    /// DRAM transfer ordering (prefetch depth + double-buffering). The
    /// default ([`TransferTuning::off`]) replays the serialized cycle model
    /// bit-identically; see [`crate::score::transfer`].
    pub transfer: TransferTuning,
    /// CHORD overbooking level. The default ([`ChordOverbook::off`]) keeps
    /// the worst-case-dense capacity model bit-identically; see
    /// [`crate::score::overbook`].
    pub chord_overbook: ChordOverbook,
}

impl Schedule {
    /// Phase index of each node.
    pub fn phase_of(&self) -> Vec<usize> {
        let n: usize = self.phases.iter().map(|p| p.ops.len()).sum();
        let mut out = vec![usize::MAX; n];
        for (pi, p) in self.phases.iter().enumerate() {
            for &op in &p.ops {
                out[op.0] = pi;
            }
        }
        out
    }

    /// Flattened execution order.
    pub fn order(&self) -> Vec<NodeId> {
        self.phases.iter().flat_map(|p| p.ops.clone()).collect()
    }

    /// Binding of a tensor (DRAM if unknown).
    pub fn binding_of(&self, tensor: &str) -> Binding {
        self.binding.get(tensor).copied().unwrap_or(Binding::Dram)
    }

    /// The SRAM split in force during `phase` (the global split for
    /// out-of-range indices, e.g. the drain pseudo-phase).
    pub fn phase_split(&self, phase: usize) -> PhaseSplit {
        self.phase_splits
            .get(phase)
            .copied()
            .unwrap_or_else(|| PhaseSplit::of_options(&self.options))
    }

    /// True when some phase deviates from the global split — the signal for
    /// the simulator to resize CHORD at phase boundaries. The uniform
    /// repartition stays on the global path (bit-exact with no repartition).
    pub fn repartition_active(&self) -> bool {
        let global = PhaseSplit::of_options(&self.options);
        self.phase_splits.iter().any(|s| *s != global)
    }

    /// Validates that the phase sequence is a topological order of the DAG,
    /// that co-phase edges are realized, and that a rank-partitioned
    /// schedule only realizes edges whose producer streams the sliced rank
    /// outermost (the §V-B rule: only dominant-rank parallelization keeps
    /// pipelining intra-node). Used by tests.
    pub fn validate(&self, dag: &TensorDag) -> Result<(), String> {
        let phase_of = self.phase_of();
        if phase_of.contains(&usize::MAX) {
            return Err("some node was never scheduled".into());
        }
        if self.phase_splits.len() != self.phases.len() {
            return Err(format!(
                "{} phase splits for {} phases",
                self.phase_splits.len(),
                self.phases.len()
            ));
        }
        for (eid, edge) in dag.edges() {
            let (ps, pd) = (phase_of[edge.src], phase_of[edge.dst]);
            if ps > pd {
                return Err(format!("edge {eid:?} goes backward across phases"));
            }
            if ps == pd && !self.realized[eid.0] {
                return Err(format!(
                    "edge {eid:?} co-scheduled in phase {ps} but not realized"
                ));
            }
            if let Some(rank) = self.partition.sliced_rank() {
                if self.realized[eid.0] && self.loop_orders[edge.src].outermost() != rank {
                    return Err(format!(
                        "edge {eid:?} realized but its producer does not stream \
                         the sliced rank {rank:?} outermost (cross-node pipeline)"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Does the producer's tensor satisfy the scope rule for realization?
fn scope_allows(dag: &TensorDag, cls: &Classification, src: NodeId, scope: PipelineScope) -> bool {
    let outs = dag.out_edges(src);
    match scope {
        PipelineScope::None => false,
        PipelineScope::SoleConsumer => {
            outs.len() == 1 && cls.dep(outs[0]) == Dependency::Pipelineable
        }
        PipelineScope::AllPipelineOrHold => outs.iter().all(|&e| {
            matches!(
                cls.dep(e),
                Dependency::Pipelineable | Dependency::DelayedHold
            )
        }),
        PipelineScope::Any => true,
    }
}

/// Is edge `e` realizable as in-cluster pipelining under `opts` and
/// `partition`, with `pipeline_budget` words of streaming buffer available
/// to the forming cluster (per-phase under a repartition, global otherwise)?
fn realizable(
    dag: &TensorDag,
    cls: &Classification,
    orders: &[LoopOrder],
    opts: &ScheduleOptions,
    partition: &Partition,
    pipeline_budget: u64,
    e: EdgeId,
) -> bool {
    let edge = dag.edge(e);
    let dep = cls.dep(e);
    let kind_ok = match dep {
        Dependency::Pipelineable => true,
        Dependency::DelayedHold => opts.enable_hold,
        _ => false,
    };
    // §V-B scalable-dataflow rule: with work sliced along a rank, pipelining
    // stays intra-node only when the producer streams that rank outermost
    // (each node then pipelines its own slice). Any other producer order
    // would put the stream's slices on different nodes, so the edge must
    // not realize. The `Stage` axis deliberately allows realization — that
    // IS the naive strategy, and the engine charges its NoC cost.
    let partition_ok = partition
        .sliced_rank()
        .is_none_or(|rank| orders[edge.src].outermost() == rank);
    kind_ok
        && partition_ok
        && scope_allows(dag, cls, NodeId(edge.src), opts.scope)
        && can_pipeline(dag, cls, e, &orders[edge.src], &orders[edge.dst])
        && pipeline_can_stream(
            stream_row_words(dag, NodeId(edge.src), &orders[edge.src]),
            pipeline_budget,
            1,
        )
}

/// Do `v` and some member of `cluster` share a parallel-multicast input?
fn shares_multicast_input(
    dag: &TensorDag,
    cls: &Classification,
    v: NodeId,
    cluster: &[NodeId],
) -> bool {
    for &eid in dag.in_edges(v) {
        let src = NodeId(dag.edge(eid).src);
        if !cls.is_multicast(src) || cls.transitive[eid.0] {
            continue;
        }
        for &sib in dag.out_edges(src) {
            let sib_edge = dag.edge(sib);
            if !cls.transitive[sib.0] && cluster.contains(&NodeId(sib_edge.dst)) {
                return true;
            }
        }
    }
    false
}

/// Programmatic schedule-construction constraints — the hook the DSE engine
/// (`cello-search`) uses to explore the §V schedule space instead of being
/// limited to the preset [`ScheduleOptions`] heuristics.
///
/// Every constraint is *advisory toward validity*: the builder applies a
/// constraint only when the resulting schedule stays valid (per-tensor
/// binding rules, cluster topology), so any constraint set yields a
/// schedule that passes [`Schedule::validate`]. Invalid requests are
/// silently dropped rather than rejected — the search treats them as
/// no-ops, and the memo cache (keyed by the canonicalized *schedule*)
/// dedupes the resulting duplicates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleConstraints {
    /// Node indices forced to start a new pipeline cluster (a "cluster cut"):
    /// the builder never joins such a node to the running cluster.
    pub cut_before: BTreeSet<usize>,
    /// Tensor name → requested binding. Applied only when valid:
    /// `RegisterFile` requires the tensor to fit the RF; `Pipeline` requires
    /// every consumer edge realized; `Chord` requires `enable_chord` and a
    /// non-terminal tensor (terminal results must drain to DRAM); `Dram` is
    /// always honored.
    pub binding_overrides: BTreeMap<String, Binding>,
    /// Node index → loop order override (ranks outermost-first). The order
    /// must be a permutation of the node's ranks; others are ignored.
    pub loop_orders: BTreeMap<usize, LoopOrder>,
    /// Requested multi-node partition (`None` = single node). A `Rank` axis
    /// naming a rank no op iterates degrades to single-node; a valid rank
    /// axis additionally *constrains realization*: edges whose producer does
    /// not stream the sliced rank outermost cannot pipeline intra-node, so
    /// the builder refuses to realize them (the §V-B validity rule).
    pub partition: Option<Partition>,
    /// Tensor name → RIFF priority bias. Applied only when the schedule
    /// actually steers the tensor to CHORD (and `enable_chord` is on):
    /// biasing an RF/pipeline/DRAM-bound tensor would be dead metadata, so
    /// such requests are dropped like any other invalid constraint.
    pub chord_priority_bias: BTreeMap<String, PriorityBias>,
    /// Per-phase SRAM split request (`None` = the global split everywhere).
    /// Splits are validated against the repartition's own declared
    /// `sram_words` budget: an overcommitted split (`pipeline + rf >
    /// sram_words` — a typed [`crate::score::repartition::RepartitionError`]
    /// from the validated constructors) is dropped in favor of the global
    /// split, like every other invalid constraint.
    pub phase_repartition: Option<PhaseRepartition>,
    /// Requested DRAM transfer ordering (`None` = the serialized default).
    /// Always valid — every depth is executable; the evaluators price the
    /// staging carve it implies, so the search sees its real cost. The
    /// builder normalizes it (`double_buffer` is cleared at depth 0) so the
    /// no-op request collapses onto the unconstrained schedule.
    pub transfer: Option<TransferTuning>,
    /// Requested CHORD overbooking (`None` = worst-case dense). Always
    /// valid — it only reshapes what the evaluators charge for
    /// occupancy-carrying CHORD operands; tensors without measured
    /// occupancy keep their dense footprints regardless of the level.
    pub chord_overbook: Option<ChordOverbook>,
}

impl ScheduleConstraints {
    /// No constraints: `build_schedule_with` degenerates to `build_schedule`.
    pub fn none() -> Self {
        Self::default()
    }

    /// Only a partition request, everything else unconstrained.
    pub fn partitioned(partition: Partition) -> Self {
        Self {
            partition: Some(partition),
            ..Self::default()
        }
    }

    /// True when no constraint is set (a normalized-to-off transfer request
    /// counts as unset — it is the no-op decision).
    pub fn is_empty(&self) -> bool {
        self.cut_before.is_empty()
            && self.binding_overrides.is_empty()
            && self.loop_orders.is_empty()
            && self.partition.is_none()
            && self.chord_priority_bias.is_empty()
            && self.phase_repartition.is_none()
            && self.transfer.is_none_or(|t| t.normalized().is_off())
            && self.chord_overbook.is_none_or(|o| o.normalized().is_off())
    }
}

/// Validates a requested partition against the DAG. Node counts below one
/// and `Rank` axes naming unknown ranks degrade to the single-node
/// partition — advisory semantics, like every other constraint.
fn normalize_partition(dag: &TensorDag, requested: Option<Partition>) -> Partition {
    let Some(p) = requested else {
        return Partition::single();
    };
    if p.nodes <= 1 {
        return Partition::single();
    }
    match p.axis {
        PartitionAxis::Rank(rank) => {
            let known = dag
                .nodes()
                .any(|(_, n)| n.spec.extents().iter().any(|e| e.rank == rank));
            if known {
                p
            } else {
                Partition::single()
            }
        }
        PartitionAxis::Stage => p,
    }
}

/// Builds a schedule for `dag` under `opts` (see module docs).
pub fn build_schedule(dag: &TensorDag, opts: ScheduleOptions) -> Schedule {
    build_schedule_with(dag, opts, &ScheduleConstraints::none())
}

/// Is `requested` a valid binding for a tensor with the given properties?
/// `rf_capacity_words` is the tensor's *effective* RF capacity — the
/// minimum over every phase it is live in under a per-phase repartition
/// (the global capacity otherwise).
fn override_valid(
    requested: Binding,
    words: u64,
    terminal: bool,
    all_realized: bool,
    rf_capacity_words: u64,
    opts: &ScheduleOptions,
) -> bool {
    match requested {
        Binding::RegisterFile => rf_fits(words, rf_capacity_words),
        Binding::Pipeline => !terminal && all_realized,
        Binding::Chord => opts.enable_chord && !terminal,
        Binding::Dram => true,
    }
}

/// Builds a schedule for `dag` under `opts` and `constraints` (see
/// [`ScheduleConstraints`]). `build_schedule` is the unconstrained special
/// case.
pub fn build_schedule_with(
    dag: &TensorDag,
    opts: ScheduleOptions,
    constraints: &ScheduleConstraints,
) -> Schedule {
    build_schedule_from(dag, classify(dag), opts, constraints)
}

/// [`build_schedule_with`] over a precomputed `cls`, which must be
/// `classify(dag)`. Callers building many schedules of one DAG classify
/// once and pass a clone to each build.
pub fn build_schedule_from(
    dag: &TensorDag,
    cls: Classification,
    opts: ScheduleOptions,
    constraints: &ScheduleConstraints,
) -> Schedule {
    let partition = normalize_partition(dag, constraints.partition);
    let orders: Vec<LoopOrder> = dag
        .topo_order()
        .into_iter()
        .map(|n| match constraints.loop_orders.get(&n.0) {
            Some(req) if is_rank_permutation(dag, n, req) => req.clone(),
            _ => choose_loop_order(dag, n),
        })
        .collect();

    let global_split = PhaseSplit::of_options(&opts);
    let mut phases: Vec<Phase> = Vec::new();
    let mut realized = vec![false; dag.edge_count()];
    let mut current = Phase {
        ops: Vec::new(),
        realized_edges: Vec::new(),
    };
    // Double-buffered row-tile words the current cluster's realized edges
    // reserve in the pipeline buffer. A join whose added streams would
    // overflow the cluster's pipeline budget is refused — this is what makes
    // the pipeline-buffer size a real scheduling constraint (and a real DSE
    // knob) instead of free SRAM. Under a per-phase repartition the budget
    // is the *forming* phase's (a join is what makes a cluster fused, so
    // kind profiles answer with their fused split).
    let mut current_demand: u64 = 0;

    for v in dag.topo_order() {
        let mut join_edges: Vec<EdgeId> = Vec::new();
        let mut join = false;
        let mut join_demand: u64 = 0;
        if !current.ops.is_empty()
            && opts.scope != PipelineScope::None
            && dag.node(v).kind == OpKind::TensorMac
            && !constraints.cut_before.contains(&v.0)
        {
            let budget = match &constraints.phase_repartition {
                Some(rep) => rep.join_pipeline_budget(phases.len(), &global_split),
                None => global_split.pipeline_buffer_words,
            };
            let in_phase: Vec<EdgeId> = dag
                .in_edges(v)
                .iter()
                .copied()
                .filter(|&e| current.ops.contains(&NodeId(dag.edge(e).src)))
                .collect();
            if !in_phase.is_empty() {
                if in_phase
                    .iter()
                    .all(|&e| realizable(dag, &cls, &orders, &opts, &partition, budget, e))
                {
                    join_demand = in_phase
                        .iter()
                        .map(|&e| {
                            let src = NodeId(dag.edge(e).src);
                            2 * stream_row_words(dag, src, &orders[src.0])
                        })
                        .sum();
                    if current_demand + join_demand <= budget {
                        join = true;
                        join_edges = in_phase;
                    }
                }
            } else if opts.enable_multicast && shares_multicast_input(dag, &cls, v, &current.ops) {
                join = true;
            }
        }
        if join {
            current.ops.push(v);
            current_demand += join_demand;
            for e in join_edges {
                realized[e.0] = true;
                current.realized_edges.push(e);
            }
        } else {
            if !current.ops.is_empty() {
                phases.push(
                    std::mem::take(&mut current.ops)
                        .into_phase(std::mem::take(&mut current.realized_edges)),
                );
            }
            current.ops.push(v);
            current_demand = 0;
        }
    }
    if !current.ops.is_empty() {
        phases.push(current.ops.into_phase(current.realized_edges));
    }

    // Resolve the per-phase SRAM splits now that the cluster list is final
    // (fused = multi-op). Without a repartition every phase carries the
    // global split — the degenerate uniform case.
    let phase_splits: Vec<PhaseSplit> = phases
        .iter()
        .enumerate()
        .map(|(pi, p)| match &constraints.phase_repartition {
            Some(rep) => rep.resolve(pi, p.ops.len() > 1, global_split),
            None => global_split,
        })
        .collect();
    let mut node_phase = vec![0usize; dag.node_count()];
    for (pi, p) in phases.iter().enumerate() {
        for &op in &p.ops {
            node_phase[op.0] = pi;
        }
    }
    // An RF-bound tensor occupies the register file in *every* phase it is
    // live in — including the phases it merely sits across between producer
    // and last consumer — so its effective RF capacity is the minimum over
    // that whole contiguous phase range (global under the uniform split).
    // Min-ing only the endpoint phases would let a tensor parked in the RF
    // across an RF-starved intermediate phase overcommit that phase's SRAM
    // for free (CHORD is simultaneously granted the starved split's
    // remainder there).
    let rf_over = |lo: usize, hi: usize| -> u64 {
        phase_splits[lo..=hi.max(lo)]
            .iter()
            .map(|s| s.rf_capacity_words)
            .min()
            .unwrap_or(global_split.rf_capacity_words)
    };
    let eff_rf_node = |nid: NodeId| -> u64 {
        let lo = node_phase[nid.0];
        let hi = dag
            .out_edges(nid)
            .iter()
            .map(|&e| node_phase[dag.edge(e).dst])
            .max()
            .unwrap_or(lo);
        rf_over(lo, hi)
    };

    // Tensor bindings (§V-C "SCORE-CHORD Interface").
    let mut binding = BTreeMap::new();
    for (nid, node) in dag.nodes() {
        let outs = dag.out_edges(nid);
        let terminal = outs.is_empty();
        let all_realized = !terminal && outs.iter().all(|&e| realized[e.0]);
        let rf_words = eff_rf_node(nid);
        let default = if terminal {
            // Terminal results must end in DRAM.
            Binding::Dram
        } else if rf_fits(node.output.words, rf_words) {
            Binding::RegisterFile
        } else if all_realized {
            Binding::Pipeline
        } else if opts.enable_chord {
            Binding::Chord
        } else {
            Binding::Dram
        };
        let b = match constraints.binding_overrides.get(&node.output.name) {
            Some(&req)
                if override_valid(
                    req,
                    node.output.words,
                    terminal,
                    all_realized,
                    rf_words,
                    &opts,
                ) =>
            {
                req
            }
            _ => default,
        };
        binding.insert(node.output.name.clone(), b);
    }
    for ext in dag.externals() {
        // Externals live in the RF from their first to their last consumer.
        let rf_words = match (
            ext.consumers.iter().map(|&(c, _)| node_phase[c]).min(),
            ext.consumers.iter().map(|&(c, _)| node_phase[c]).max(),
        ) {
            (Some(lo), Some(hi)) => rf_over(lo, hi),
            _ => global_split.rf_capacity_words,
        };
        let default = if rf_fits(ext.meta.words, rf_words) {
            Binding::RegisterFile
        } else if opts.enable_chord {
            Binding::Chord
        } else {
            Binding::Dram
        };
        // Externals are DRAM-resident inputs: never terminal (read, not
        // drained) and never pipeline-bound (no producing op) — the
        // `all_realized = false` argument makes `override_valid` reject
        // Pipeline requests.
        let b = match constraints.binding_overrides.get(&ext.meta.name) {
            Some(&req) if override_valid(req, ext.meta.words, false, false, rf_words, &opts) => req,
            _ => default,
        };
        binding.insert(ext.meta.name.clone(), b);
    }

    // CHORD priority biases: honored only for tensors the schedule actually
    // steers to CHORD — everywhere else the RIFF metadata is never read.
    let chord_bias: BTreeMap<String, PriorityBias> = constraints
        .chord_priority_bias
        .iter()
        .filter(|(name, _)| {
            opts.enable_chord && binding.get(name.as_str()) == Some(&Binding::Chord)
        })
        .map(|(name, &bias)| (name.clone(), bias))
        .collect();

    Schedule {
        phases,
        realized,
        binding,
        classification: cls,
        loop_orders: orders,
        swizzle: minimize_swizzles(dag),
        options: opts,
        partition,
        chord_bias,
        phase_splits,
        transfer: constraints
            .transfer
            .map(TransferTuning::normalized)
            .unwrap_or_default(),
        chord_overbook: constraints
            .chord_overbook
            .map(ChordOverbook::normalized)
            .unwrap_or_default(),
    }
}

/// Words of one outermost-rank "row" of the producer's output — the minimum
/// unit a pipelined stream must double-buffer per stage (§V-B Tiling).
fn stream_row_words(dag: &TensorDag, src: NodeId, order: &LoopOrder) -> u64 {
    let node = dag.node(src);
    let outer = order.outermost();
    let extent = node
        .spec
        .extents()
        .iter()
        .find(|r| r.rank == outer)
        .map(|r| r.effective)
        .unwrap_or(1);
    node.output.words.div_ceil(extent.max(1))
}

/// Is `req` a permutation of `node`'s ranks? (Any permutation is executable;
/// the §V-B co-dependence conditions then decide what it can pipeline.)
fn is_rank_permutation(dag: &TensorDag, node: NodeId, req: &LoopOrder) -> bool {
    let mut have: Vec<_> = dag
        .node(node)
        .spec
        .extents()
        .iter()
        .map(|r| r.rank)
        .collect();
    let mut want: Vec<_> = req.order.clone();
    have.sort();
    want.sort();
    have == want
}

trait IntoPhase {
    fn into_phase(self, realized_edges: Vec<EdgeId>) -> Phase;
}

impl IntoPhase for Vec<NodeId> {
    fn into_phase(self, realized_edges: Vec<EdgeId>) -> Phase {
        Phase {
            ops: self,
            realized_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_graph::edge::TensorMeta;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::{RankExtent, RankId};

    const M: u64 = 81_920;
    const N: u64 = 16;

    fn u_spec(big: &str) -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new(big), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new(big), RankId::new("n")],
            &[
                RankExtent::dense(big, M),
                RankExtent::dense("j", N),
                RankExtent::dense("n", N),
            ],
        )
    }

    fn c_spec() -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new("k"), RankId::new("p")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("p"), RankId::new("n")],
            &[
                RankExtent::dense("k", M),
                RankExtent::dense("p", N),
                RankExtent::dense("n", N),
            ],
        )
    }

    fn small_spec() -> EinsumSpec {
        EinsumSpec::parse(
            "pj,jn->pn",
            &[
                RankExtent::dense("p", N),
                RankExtent::dense("j", N),
                RankExtent::dense("n", N),
            ],
        )
    }

    fn big(name: &str) -> TensorMeta {
        TensorMeta::dense(name, &["m", "n"], M * N)
    }

    fn small(name: &str) -> TensorMeta {
        TensorMeta::dense(name, &["p", "n"], N * N)
    }

    /// One CG iteration: ops 1, 2a, 2b, 3, 4, 5, 6, 7 with the paper's edges.
    fn cg_iteration() -> TensorDag {
        let mut dag = TensorDag::new();
        let spmm = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("k")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[
                RankExtent::dense("m", M),
                RankExtent::compressed("k", M, 4),
                RankExtent::dense("n", N),
            ],
        );
        let n1 = dag.add_op("1:S=A·P", spmm, OpKind::TensorMac, big("S"));
        let n2a = dag.add_op("2a:Δ=PᵀS", c_spec(), OpKind::TensorMac, small("D"));
        let n2b = dag.add_op("2b:Λ=Δ⁻¹Γ", small_spec(), OpKind::Inverse, small("L"));
        let n3 = dag.add_op("3:X+=PΛ", u_spec("m"), OpKind::TensorMac, big("X"));
        let n4 = dag.add_op("4:R-=SΛ", u_spec("m"), OpKind::TensorMac, big("R"));
        let n5 = dag.add_op("5:Γ=RᵀR", c_spec(), OpKind::TensorMac, small("G"));
        let n6 = dag.add_op("6:Φ=Γp⁻¹Γ", small_spec(), OpKind::Inverse, small("F"));
        let n7 = dag.add_op("7:P=R+PΦ", u_spec("m"), OpKind::TensorMac, big("P"));
        dag.add_edge(n1, n2a, &["k", "n"]); // e0: S -> 2a
        dag.add_edge(n2a, n2b, &["p", "j"]); // e1: Δ -> 2b
        dag.add_edge(n2b, n3, &["j", "n"]); // e2: Λ -> 3
        dag.add_edge(n2b, n4, &["j", "n"]); // e3: Λ -> 4
        dag.add_edge(n1, n4, &["m", "j"]); // e4: S -> 4 (transitive)
        dag.add_edge(n4, n5, &["k", "n"]); // e5: R -> 5
        dag.add_edge(n5, n6, &["p", "j"]); // e6: Γ -> 6
        dag.add_edge(n6, n7, &["j", "n"]); // e7: Φ -> 7
        dag.add_edge(n4, n7, &["m", "j"]); // e8: R -> 7 (transitive)
        dag.add_external(
            TensorMeta::sparse("A", &["m", "k"], M * 4 * 2 + M + 1),
            &[(n1, &["m", "k"])],
        );
        dag
    }

    /// CELLO forms the Fig 8 clusters: [1,2a], [2b], [3,4,5], [6], [7].
    #[test]
    fn cello_forms_fig8_clusters() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::cello());
        let clusters: Vec<Vec<usize>> = s
            .phases
            .iter()
            .map(|p| p.ops.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(
            clusters,
            vec![vec![0, 1], vec![2], vec![3, 4, 5], vec![6], vec![7]],
            "clusters {clusters:?}"
        );
        s.validate(&dag).unwrap();
    }

    /// In the CELLO schedule, S and R must be steered to CHORD (delayed
    /// writeback consumers), Greek tensors to the RF, P (terminal here) to DRAM.
    #[test]
    fn cello_bindings_on_cg() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(s.binding_of("S"), Binding::Chord);
        assert_eq!(s.binding_of("R"), Binding::Chord);
        assert_eq!(s.binding_of("D"), Binding::RegisterFile);
        assert_eq!(s.binding_of("L"), Binding::RegisterFile);
        assert_eq!(s.binding_of("G"), Binding::RegisterFile);
        assert_eq!(s.binding_of("P"), Binding::Dram); // terminal in this 1-iter DAG
        assert_eq!(s.binding_of("X"), Binding::Dram); // terminal too
        assert_eq!(s.binding_of("A"), Binding::Chord); // external, too big for RF
    }

    /// The realized edges in CELLO's CG schedule are 1→2a and 4→5 (pipelining)
    /// — the delayed writebacks are NOT realized.
    #[test]
    fn cello_realizes_only_pipeline_edges() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::cello());
        let realized: Vec<usize> = (0..dag.edge_count()).filter(|&i| s.realized[i]).collect();
        assert_eq!(realized, vec![0, 5], "realized {realized:?}");
    }

    /// Best-intra never fuses: one op per phase.
    #[test]
    fn best_intra_is_op_by_op() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::best_intra());
        assert_eq!(s.phases.len(), dag.node_count());
        assert!(s.realized.iter().all(|&r| !r));
        s.validate(&dag).unwrap();
    }

    /// FLAT on CG degenerates to op-by-op: S and R both have delayed
    /// downstream consumers, so the sole-consumer rule blocks pipelining
    /// (the paper's observation that SET/FLAT/Flexagon tie on CG).
    #[test]
    fn flat_degenerates_on_cg() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::flat());
        assert_eq!(s.phases.len(), dag.node_count());
        assert_eq!(s.binding_of("S"), Binding::Dram);
        assert_eq!(s.binding_of("R"), Binding::Dram);
    }

    /// SET also fails to fuse CG (delayed *writeback*, which holds can't serve).
    #[test]
    fn set_like_degenerates_on_cg() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::set_like());
        assert!(s.realized.iter().all(|&r| !r));
    }

    fn resnet_block() -> TensorDag {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 784),
                RankExtent::dense("k", 512),
                RankExtent::dense("n", 128),
            ],
        );
        let t = |n: &str| TensorMeta::dense(n, &["m", "n"], 784 * 128);
        let mut dag = TensorDag::new();
        let inp = dag.add_op("in", spec.clone(), OpKind::TensorMac, t("T0"));
        let c1 = dag.add_op("c1", spec.clone(), OpKind::TensorMac, t("T1"));
        let c2 = dag.add_op("c2", spec.clone(), OpKind::TensorMac, t("T2"));
        let add = dag.add_op("add", spec, OpKind::TensorMac, t("T3"));
        dag.add_edge(inp, c1, &["m", "k"]);
        dag.add_edge(c1, c2, &["m", "k"]);
        dag.add_edge(c2, add, &["m", "k"]);
        dag.add_edge(inp, add, &["m", "k"]); // skip (delayed hold)
        dag
    }

    /// SET and CELLO fuse the whole ResNet block; FLAT cannot (the skip is a
    /// delayed consumer of T0).
    #[test]
    fn resnet_fusion_by_scheduler() {
        let dag = resnet_block();
        let cello = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(cello.phases.len(), 1, "{:?}", cello.phases);
        cello.validate(&dag).unwrap();
        let set = build_schedule(&dag, ScheduleOptions::set_like());
        assert_eq!(set.phases.len(), 1);
        let flat = build_schedule(&dag, ScheduleOptions::flat());
        // FLAT: in -> c1 blocked (T0 has 2 consumers); c1 -> c2 allowed
        // (sole pipelineable consumer); c2 -> add blocked? c2's tensor T2 has
        // sole consumer add: allowed. So clusters: [in], [c1, c2, add]... but
        // add also consumes T0 from `in`, which is in another phase -> fine,
        // it reads T0 from DRAM.
        assert!(flat.phases.len() >= 2);
        flat.validate(&dag).unwrap();
    }

    /// The held tensor (T0) binds to Pipeline under CELLO (all consumers
    /// realized in-cluster).
    #[test]
    fn resnet_skip_binds_to_pipeline() {
        let dag = resnet_block();
        let s = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(s.binding_of("T0"), Binding::Pipeline);
        assert_eq!(s.binding_of("T3"), Binding::Dram); // terminal
    }

    /// Validation catches a broken schedule.
    #[test]
    fn validate_rejects_unrealized_cophase_edges() {
        let dag = resnet_block();
        let mut s = build_schedule(&dag, ScheduleOptions::cello());
        // Corrupt: clear realization flags but keep the fused phase.
        s.realized.iter_mut().for_each(|r| *r = false);
        assert!(s.validate(&dag).is_err());
    }

    /// Pipeline-buffer capacity bounds fusion: below one double-buffered
    /// row no edge realizes at all; the full ResNet block (4 realized
    /// edges x 2 buffers x 128-word rows = 1024 words) only fuses once the
    /// whole cluster's demand fits.
    #[test]
    fn tiny_pipeline_buffer_blocks_fusion() {
        let dag = resnet_block();
        // Below one double-buffered 128-word row: op-by-op, nothing streams.
        let mut opts = ScheduleOptions::cello();
        opts.pipeline_buffer_words = 255;
        let s = build_schedule(&dag, opts);
        assert!(s.realized.iter().all(|&r| !r), "nothing can stream");
        assert_eq!(s.phases.len(), dag.node_count());
        s.validate(&dag).unwrap();
        // One word short of the full cluster demand: partial fusion only.
        opts.pipeline_buffer_words = 1023;
        let partial = build_schedule(&dag, opts);
        assert!(partial.phases.len() > 1, "{:?}", partial.phases);
        partial.validate(&dag).unwrap();
        // At exactly the aggregate demand the whole block fuses.
        opts.pipeline_buffer_words = 1024;
        let full = build_schedule(&dag, opts);
        assert_eq!(full.phases.len(), 1, "{:?}", full.phases);
    }

    /// Empty constraints reproduce the unconstrained schedule exactly.
    #[test]
    fn constraints_none_is_identity() {
        for dag in [cg_iteration(), resnet_block()] {
            let a = build_schedule(&dag, ScheduleOptions::cello());
            let b =
                build_schedule_with(&dag, ScheduleOptions::cello(), &ScheduleConstraints::none());
            assert_eq!(a.phases, b.phases);
            assert_eq!(a.realized, b.realized);
            assert_eq!(a.binding, b.binding);
        }
    }

    /// A cluster cut forces a node out of its Fig 8 cluster and the schedule
    /// stays valid.
    #[test]
    fn cut_splits_cluster() {
        let dag = cg_iteration();
        // Cut before 2a (node 1): the [1, 2a] cluster splits.
        let constraints = ScheduleConstraints {
            cut_before: [1].into_iter().collect(),
            ..Default::default()
        };
        let s = build_schedule_with(&dag, ScheduleOptions::cello(), &constraints);
        let clusters: Vec<Vec<usize>> = s
            .phases
            .iter()
            .map(|p| p.ops.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(clusters[0], vec![0]);
        assert_eq!(clusters[1], vec![1]);
        s.validate(&dag).unwrap();
    }

    /// Valid binding overrides are honored; invalid ones are dropped.
    #[test]
    fn binding_overrides_validated() {
        let dag = cg_iteration();
        let constraints = ScheduleConstraints {
            binding_overrides: [
                ("S".to_string(), Binding::Dram),         // valid: Chord -> Dram
                ("X".to_string(), Binding::Chord),        // invalid: terminal
                ("D".to_string(), Binding::Dram),         // valid: RF -> Dram
                ("A".to_string(), Binding::Dram),         // valid: external
                ("R".to_string(), Binding::RegisterFile), // invalid: too big
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let s = build_schedule_with(&dag, ScheduleOptions::cello(), &constraints);
        assert_eq!(s.binding_of("S"), Binding::Dram);
        assert_eq!(s.binding_of("X"), Binding::Dram, "terminal stays DRAM");
        assert_eq!(s.binding_of("D"), Binding::Dram);
        assert_eq!(s.binding_of("A"), Binding::Dram);
        assert_eq!(
            s.binding_of("R"),
            Binding::Chord,
            "oversize RF request dropped"
        );
        s.validate(&dag).unwrap();
    }

    /// CHORD priority biases survive only on CHORD-bound tensors: requests
    /// on RF/DRAM-bound tensors are dropped, and a CHORD-less preset drops
    /// everything.
    #[test]
    fn chord_bias_validated_against_bindings() {
        let dag = cg_iteration();
        let constraints = ScheduleConstraints {
            chord_priority_bias: [
                ("S".to_string(), PriorityBias::Boost(1)), // valid: S is CHORD-bound
                ("R".to_string(), PriorityBias::Demote(2)), // valid
                ("D".to_string(), PriorityBias::Boost(1)), // invalid: RF-bound
                ("X".to_string(), PriorityBias::Boost(1)), // invalid: terminal/DRAM
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let s = build_schedule_with(&dag, ScheduleOptions::cello(), &constraints);
        assert_eq!(s.chord_bias.get("S"), Some(&PriorityBias::Boost(1)));
        assert_eq!(s.chord_bias.get("R"), Some(&PriorityBias::Demote(2)));
        assert!(!s.chord_bias.contains_key("D"));
        assert!(!s.chord_bias.contains_key("X"));
        // No CHORD, no bias.
        let oracle = build_schedule_with(&dag, ScheduleOptions::best_intra(), &constraints);
        assert!(oracle.chord_bias.is_empty());
    }

    /// A rank partition along the dominant rank keeps the Fig 8 clusters:
    /// both CG producers (ops 1 and 4) stream m outermost, so realization is
    /// untouched, and the normalized partition lands in the schedule.
    #[test]
    fn rank_partition_on_dominant_rank_keeps_pipelining() {
        use cello_tensor::shape::RankId;
        let dag = cg_iteration();
        let partition = Partition::by_rank(16, RankId::new("m"));
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(partition),
        );
        assert_eq!(s.partition, partition);
        let realized: Vec<usize> = (0..dag.edge_count()).filter(|&i| s.realized[i]).collect();
        assert_eq!(realized, vec![0, 5], "same as the single-node schedule");
        s.validate(&dag).unwrap();
    }

    /// Partitioning along a non-dominant rank de-realizes every pipeline
    /// (producers stream m outermost, not n), splitting the clusters — the
    /// §V-B "only dominant-rank parallelization keeps pipelining
    /// intra-node" rule, surfaced as schedule cost instead of a panic.
    #[test]
    fn rank_partition_on_minor_rank_blocks_pipelining() {
        use cello_tensor::shape::RankId;
        let dag = cg_iteration();
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(Partition::by_rank(16, RankId::new("n"))),
        );
        assert!(s.realized.iter().all(|&r| !r), "no cross-node pipelines");
        // Multicast co-scheduling (no streamed edge) may still fuse ops, but
        // every *streaming* cluster must have split.
        assert!(s.phases.len() > build_schedule(&dag, ScheduleOptions::cello()).phases.len());
        s.validate(&dag).unwrap();
    }

    /// Stage partitioning (the naive strategy) keeps pipelining realized —
    /// the simulator charges the NoC cost instead.
    #[test]
    fn stage_partition_keeps_pipelining() {
        let dag = cg_iteration();
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(Partition::by_stage(16)),
        );
        let realized: Vec<usize> = (0..dag.edge_count()).filter(|&i| s.realized[i]).collect();
        assert_eq!(realized, vec![0, 5]);
        assert_eq!(s.partition, Partition::by_stage(16));
        s.validate(&dag).unwrap();
    }

    /// Invalid partition requests degrade to single-node: unknown ranks and
    /// degenerate node counts are dropped, not errors.
    #[test]
    fn bogus_partitions_degrade_to_single_node() {
        use cello_tensor::shape::RankId;
        let dag = cg_iteration();
        for req in [
            Partition::by_rank(8, RankId::new("zz")), // unknown rank
            Partition::by_rank(1, RankId::new("m")),  // 1 node
            Partition::by_stage(0),                   // 0 nodes
        ] {
            let s = build_schedule_with(
                &dag,
                ScheduleOptions::cello(),
                &ScheduleConstraints::partitioned(req),
            );
            assert_eq!(s.partition, Partition::single(), "{req:?}");
        }
        // And no partition at all is the same thing.
        let s = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(s.partition, Partition::single());
    }

    /// `validate` rejects a hand-corrupted schedule that realizes an edge
    /// whose producer does not stream the sliced rank outermost.
    #[test]
    fn validate_rejects_cross_node_pipelines() {
        use cello_tensor::shape::RankId;
        let dag = cg_iteration();
        let mut s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(Partition::by_rank(4, RankId::new("m"))),
        );
        s.validate(&dag).unwrap();
        // Corrupt: claim slicing along n while producers stream m.
        s.partition = Partition::by_rank(4, RankId::new("n"));
        assert!(s.validate(&dag).is_err());
    }

    /// Without a repartition every phase carries the global split, the
    /// schedule reports no repartition activity, and `phase_split` falls
    /// back to the global split past the end (the drain pseudo-phase).
    #[test]
    fn default_phase_splits_are_global() {
        let dag = cg_iteration();
        let s = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(s.phase_splits.len(), s.phases.len());
        let global = PhaseSplit::of_options(&s.options);
        assert!(s.phase_splits.iter().all(|sp| *sp == global));
        assert!(!s.repartition_active());
        assert_eq!(s.phase_split(s.phases.len() + 5), global);
        s.validate(&dag).unwrap();
    }

    /// A uniform repartition (every phase = the global split) builds the
    /// *identical* schedule: same phases, same bindings, same splits — the
    /// differential baseline the proptests pin end to end.
    #[test]
    fn uniform_repartition_is_identity() {
        let dag = cg_iteration();
        let opts = ScheduleOptions::cello();
        let plain = build_schedule(&dag, opts);
        let global = PhaseSplit::of_options(&opts);
        let rep =
            crate::score::repartition::PhaseRepartition::by_kind(1 << 20, global, global).unwrap();
        let uniform = build_schedule_with(
            &dag,
            opts,
            &ScheduleConstraints {
                phase_repartition: Some(rep),
                ..Default::default()
            },
        );
        assert_eq!(plain.phases, uniform.phases);
        assert_eq!(plain.realized, uniform.realized);
        assert_eq!(plain.binding, uniform.binding);
        assert_eq!(plain.phase_splits, uniform.phase_splits);
        assert!(!uniform.repartition_active());
    }

    /// A kind profile lands fused splits on multi-op clusters and solo
    /// splits on the rest, and a fused split too small to stream blocks
    /// fusion exactly as a small global buffer would.
    #[test]
    fn kind_profile_resolves_by_cluster_size() {
        use crate::score::repartition::PhaseRepartition;
        let dag = resnet_block();
        let fused = PhaseSplit::new(65_536, 16_384);
        let solo = PhaseSplit::new(1024, 4096);
        let constraints = ScheduleConstraints {
            phase_repartition: Some(PhaseRepartition::by_kind(1 << 20, fused, solo).unwrap()),
            cut_before: [3].into_iter().collect(), // keep `add` solo
            ..Default::default()
        };
        let s = build_schedule_with(&dag, ScheduleOptions::cello(), &constraints);
        assert!(s.phases.len() >= 2);
        for (pi, p) in s.phases.iter().enumerate() {
            let expect = if p.ops.len() > 1 { fused } else { solo };
            assert_eq!(s.phase_splits[pi], expect, "phase {pi}");
        }
        assert!(s.repartition_active());
        s.validate(&dag).unwrap();

        // A fused split below one double-buffered row blocks fusion: the
        // repartition is a real schedule decision, not post-hoc bookkeeping.
        let starved = ScheduleConstraints {
            phase_repartition: Some(
                PhaseRepartition::by_kind(1 << 20, PhaseSplit::new(255, 16_384), solo).unwrap(),
            ),
            ..Default::default()
        };
        let s2 = build_schedule_with(&dag, ScheduleOptions::cello(), &starved);
        assert!(s2.realized.iter().all(|&r| !r), "nothing can stream");
        assert_eq!(s2.phases.len(), dag.node_count());
        s2.validate(&dag).unwrap();
    }

    /// An overcommitted per-phase split (`pipeline + rf > sram`) hand-built
    /// through the public fields is dropped by the builder — the global
    /// split applies — while the validated constructors reject it upfront.
    #[test]
    fn overcommitted_phase_split_is_dropped() {
        use crate::score::repartition::{PhaseRepartition, PhaseSplits};
        let dag = cg_iteration();
        let sram = 1u64 << 20;
        let bad = PhaseSplit::new(sram, sram);
        assert!(PhaseRepartition::by_index(sram, [(0, bad)].into_iter().collect()).is_err());
        let rep = PhaseRepartition {
            sram_words: sram,
            splits: PhaseSplits::ByIndex([(0usize, bad)].into_iter().collect()),
        };
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints {
                phase_repartition: Some(rep),
                ..Default::default()
            },
        );
        let global = PhaseSplit::of_options(&s.options);
        assert_eq!(s.phase_splits[0], global, "degenerate split dropped");
        assert!(!s.repartition_active());
    }

    /// Per-phase RF capacity feeds bindings: a tensor is RF-bound only when
    /// it fits the RF in *every* phase it is live in (min over producing and
    /// consuming phases), so shrinking one phase's RF re-steers the Greek
    /// tensors that cross it.
    #[test]
    fn per_phase_rf_rebinds_small_tensors() {
        use crate::score::repartition::PhaseRepartition;
        let dag = cg_iteration();
        let plain = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(plain.binding_of("D"), Binding::RegisterFile);
        // D (N×N = 256 words) is produced in phase 0 and consumed in phase
        // 1 (op 2b). Starve phase 1's RF below 256 words: D must leave the
        // RF even though phase 0 could hold it.
        let rep = PhaseRepartition::by_index(
            1 << 20,
            [(1usize, PhaseSplit::new(65_536, 128))]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints {
                phase_repartition: Some(rep),
                ..Default::default()
            },
        );
        assert_ne!(s.binding_of("D"), Binding::RegisterFile);
        // Tensors that never touch phase 1 keep their RF binding.
        assert_eq!(s.binding_of("G"), Binding::RegisterFile);
        s.validate(&dag).unwrap();
    }

    /// Effective RF capacity is the min over the tensor's whole live range,
    /// not just its endpoint phases: a tensor parked in the RF *across* an
    /// RF-starved intermediate phase would silently overcommit that phase's
    /// SRAM (CHORD already owns the starved split's remainder there).
    #[test]
    fn rf_capacity_min_over_live_range() {
        use crate::score::repartition::PhaseRepartition;
        let mut dag = TensorDag::new();
        let a = dag.add_op("a", small_spec(), OpKind::TensorMac, small("s"));
        let _b = dag.add_op("b", small_spec(), OpKind::TensorMac, big("u"));
        let c = dag.add_op("c", small_spec(), OpKind::TensorMac, small("w"));
        dag.add_edge(a, c, &["p", "j"]); // s skips over b's phase
        let cuts: BTreeSet<usize> = [1, 2].into_iter().collect();
        let plain = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints {
                cut_before: cuts.clone(),
                ..Default::default()
            },
        );
        assert_eq!(plain.phases.len(), 3);
        assert_eq!(plain.binding_of("s"), Binding::RegisterFile);
        // Starve only the *intermediate* phase's RF below s's 256 words:
        // the endpoints alone would still admit s, the live range must not.
        let rep = PhaseRepartition::by_index(
            1 << 20,
            [(1usize, PhaseSplit::new(65_536, 128))]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints {
                cut_before: cuts,
                phase_repartition: Some(rep),
                ..Default::default()
            },
        );
        assert_ne!(s.binding_of("s"), Binding::RegisterFile);
        s.validate(&dag).unwrap();
    }

    /// A loop-order override that breaks the §V-B co-dependence conditions
    /// de-realizes the downstream pipelining (the cluster split follows).
    #[test]
    fn loop_order_override_blocks_pipelining() {
        use cello_tensor::shape::RankId;
        let dag = cg_iteration();
        // Node 0 (op 1) canonically runs m-outermost (uncontracted), which
        // enables the 1 -> 2a pipeline. Forcing k outermost (contracted)
        // violates condition 2, so the [1, 2a] cluster cannot form.
        let forced = crate::score::loop_order::LoopOrder {
            order: vec![RankId::new("k"), RankId::new("m"), RankId::new("n")],
        };
        let constraints = ScheduleConstraints {
            loop_orders: [(0usize, forced)].into_iter().collect(),
            ..Default::default()
        };
        let s = build_schedule_with(&dag, ScheduleOptions::cello(), &constraints);
        assert!(!s.realized[0], "1 -> 2a must not realize under k-outermost");
        s.validate(&dag).unwrap();
        // A non-permutation override is ignored.
        let bogus = ScheduleConstraints {
            loop_orders: [(
                0usize,
                crate::score::loop_order::LoopOrder {
                    order: vec![RankId::new("z")],
                },
            )]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        let s2 = build_schedule_with(&dag, ScheduleOptions::cello(), &bogus);
        assert!(s2.realized[0], "bogus override ignored, pipeline intact");
    }
}
