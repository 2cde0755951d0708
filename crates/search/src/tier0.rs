//! Tier-0: closed-form asymptotic cost sketches + symbolic dominance
//! pruning — the wide mouth of the three-tier DSE funnel.
//!
//! The two concrete tiers both pay a per-candidate fixed cost that has
//! nothing to do with scoring: `Candidate::build` materializes a schedule
//! through the constraint-validating builder, and the simulator then walks
//! the phase plan. That caps how many candidates a
//! search can *consider* per second, which caps how wide a space it can
//! reach. Tier 0 scores an assignment **without building its schedule**:
//! a [`Sketch`] of four monotone resource terms is computed directly from
//! the [`SearchSpace`] decision vector and DAG-level quantities
//! precomputed once per space. [`Tier0Model::new`] classifies the DAG once
//! and runs one binding pass per (scheduler preset × SRAM split) pair over
//! that classification, paid once per space; the per-assignment sketch
//! afterwards is O(decisions) with no allocation.
//!
//! The split axis matters to the *DRAM* term, not just capacity: the
//! pipeline buffer gates which edges can realize at all
//! (`pipeline_can_stream`), so a lean split that donates SRAM to CHORD
//! also blocks fusion and round-trips the unrealized intermediates. A
//! capacity-only model would let lean splits falsely dominate fat ones;
//! baking the split into the precomputed DRAM base keeps dominance honest.
//!
//! The four sketch terms, all in machine units so dominance is meaningful:
//!
//! 1. **DRAM floor words** — cold external reads, terminal writebacks,
//!    round-trips of intermediates the (preset, split) leaves unrealized,
//!    per-use streaming of DRAM-steered tensors, plus cut decisions'
//!    consequences;
//! 2. **NoC word-hops** — the §V-B closed forms per partition choice:
//!    `0` single-node, small-tensor broadcast/reduce over the mesh
//!    diameter for rank slicing, full intermediates over the NoC for stage
//!    splitting;
//! 3. **CHORD spill words** — a greedy priority-ordered fill of the hot
//!    CHORD-bound tensors (bias decisions re-weight the fill order, rank
//!    slicing shrinks sliced footprints `1/nodes`) against the split's
//!    CHORD capacity; whatever does not fit streams per use. Under an
//!    overbook decision ([`crate::space::Choice::Overbook`]) an
//!    occupancy-carrying tensor fills at its *granted*
//!    (expected-occupancy) footprint instead of its worst-case-dense one,
//!    shrinks its external cold fill on the DRAM axis by the same grant,
//!    and charges the Tailors-style variance tail on this axis — the
//!    exact `granted/spill` split [`cello_sim::phases::plan_phases`]
//!    applies, so the sketch's axes move the way the concrete tiers will;
//! 4. **cycle proxy** — the roofline `max(compute, DRAM)` over the terms
//!    above plus NoC transfer cycles; under a transfer-tuning decision
//!    ([`crate::space::Choice::Transfer`]) only the *exposed* fraction of
//!    the DRAM cycles enters the max (see [`Tier0Model::sketch`]), while
//!    the prefetch staging carve shrinks the CHORD capacity the spill
//!    term fills against.
//!
//! A candidate whose sketch is elementwise `>=` another's (and strictly
//! `>` somewhere) cannot beat it under any cost model monotone in these
//! resources — it is **symbolically dominated** and pruned without ever
//! being built. Equal sketches are mutually non-dominating and both
//! survive, so pruning alone never separates candidates the sketch cannot
//! tell apart; the `keep` cap (scalar-magnitude tiebreak) is the only
//! lossy step, and the tier-0 soundness proptest pins that with cap slack
//! the surviving set always contains the sim-optimal candidate.
//!
//! **Floor first.** Once the capped front is full it rejects every sketch
//! whose scalar is at least its largest (`Front::rejects`), which on the
//! tuner's sampled sweeps is almost every offer. Four decisions — preset,
//! SRAM split, partition and repartition — fix an assignment's base
//! schedule, CHORD capacity, node count and NoC term, and from those alone
//! a *floor* bounds the sketch's scalar from below. Each floor term is at
//! most its sketch counterpart (DRAM and spill: their sum is), and the
//! floor sums them saturating, as [`Sketch::scalar`] does:
//!
//! - **DRAM**: the base's words, minus the largest cold-fill shrink every
//!   external occupancy member (resident or cuttable) can take, at the
//!   menu's deepest overbook level (grants only shrink with depth).
//!   Steering and CHORD-off cuts only add DRAM.
//! - **NoC word-hops**: exact.
//! - **Spill**: the optimal fractional knapsack of the base's CHORD
//!   members into the full capacity, each at its smallest need (its
//!   deepest grant): every granted word saves its tensor's `uses`, so
//!   filling highest uses first spills least. Any other fill order, the
//!   staging carve, a shallower grant, the variance tail and cut members
//!   only spill more; a steered member pays `words × uses` on DRAM
//!   instead, at least the spill it adds here. Zero with CHORD off.
//! - **Cycles**: NoC cycles plus the larger of the compute cycles at the
//!   partition's node count and the DRAM cycles of the two floors above,
//!   spread over the menu's widest prefetch window. Every transfer
//!   setting exposes at least that share of its DRAM cycles.
//!
//! [`Tier0Model::prune`] tabulates the floor once per sweep over those four
//! decisions' picks and rejects an assignment by its floor before it is
//! sketched, or on the sampled branch even fully drawn. Rejection is
//! monotone in the scalar, so a rejected floor means a rejected sketch,
//! and the survivors are exactly the sketch-first sweep's. The sketch
//! itself is `finish(decode(picks))`, and the floor reads the same
//! `decode`.

use crate::candidate::Candidate;
use crate::space::{Choice, SearchSpace};
use cello_core::accel::CelloConfig;
use cello_core::chord::PriorityBias;
use cello_core::score::binding::{build_schedule_from, Binding};
use cello_core::score::classify::{classify, Classification};
use cello_core::score::multinode::{NocModel, Partition, PartitionAxis};
use cello_core::{ChordOverbook, TransferTuning};
use cello_graph::dag::{NodeId, TensorDag};
use cello_tensor::shape::RankId;
use cello_tensor::sparse::OccupancyStats;
use std::collections::HashMap;

/// Cap on the pressure list (hot CHORD tensors + cuttable intermediates)
/// the greedy fill scans per sketch — keeps the per-candidate cost O(1).
/// Must stay ≤ 32 (pressure sets are `u32` bitmasks).
const MAX_PRESSURE: usize = 16;

/// Cap on (preset × split) base schedules ≤ 64 (membership bitmasks are
/// `u64`). Six presets × six splits fits; degenerate hand-built spaces
/// that exceed it fall back to the last base.
const MAX_BASES: usize = 64;

/// The four-term asymptotic cost sketch (see module docs for the terms).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sketch(pub [u64; 4]);

impl Sketch {
    /// Elementwise `<=` with strict `<` somewhere: `self`'s candidate is
    /// at least as cheap on every resource and strictly cheaper on one, so
    /// any cost model monotone in the terms prefers it.
    pub fn dominates(&self, other: &Sketch) -> bool {
        let mut strict = false;
        for i in 0..4 {
            if self.0[i] > other.0[i] {
                return false;
            }
            strict |= self.0[i] < other.0[i];
        }
        strict
    }

    /// Scalar magnitude for the `keep`-cap tiebreak among mutually
    /// non-dominated sketches (smaller = kept first). Not used for
    /// pruning — only for choosing which front members to drop when the
    /// front outgrows the cap.
    pub fn scalar(&self) -> u64 {
        self.0[0]
            .saturating_add(self.0[1])
            .saturating_add(self.0[2])
            .saturating_add(self.0[3])
    }
}

/// What the sketch needs of one named tensor (a node output or an
/// external input).
#[derive(Clone, Copy)]
struct TensorInfo<'a> {
    words: u64,
    /// Reads after production: out-edges of a node output, consumers of an
    /// external.
    uses: u64,
    ranks: &'a [RankId],
    occupancy: Option<OccupancyStats>,
    external: bool,
}

/// One potential occupant of CHORD capacity: a hot CHORD-bound tensor from
/// a base schedule, or an intermediate a cut decision can push out of the
/// pipeline into CHORD.
struct PressureTensor {
    words: u64,
    /// Reads after production (consumer count) — the per-use streaming
    /// multiplier for whatever spills.
    uses: u64,
    /// Static fill priority (hotter = filled first).
    score: u64,
    /// The tensor's ranks, to detect `1/nodes` footprint slicing.
    ranks: Vec<RankId>,
    /// External input ⇔ its cold DRAM fill lives in the base `dram_words`
    /// and shrinks with an overbooked grant.
    external: bool,
    /// Measured nonzero structure, when the workload carried one — the
    /// gate for the overbook decision's effect on this tensor.
    occupancy: Option<OccupancyStats>,
    /// Bit `b` set ⇔ CHORD-bound under base schedule `b` (already
    /// competing for capacity without any cut).
    member: u64,
}

/// What one (preset, SRAM split) pair fixes before the per-assignment
/// decisions apply.
struct Base {
    chord_on: bool,
    /// DRAM floor words of this pair's default schedule — includes the
    /// round-trips of edges the split's pipeline buffer blocks.
    dram_words: u64,
}

/// Closed-form consequences of one partition choice.
struct PartitionChoice {
    nodes: u64,
    sliced: Option<RankId>,
    noc_word_hops: u64,
}

/// Consequences of one repartition profile: which split's base models its
/// fused-phase realizability, and the (optimistic) CHORD capacity of its
/// most generous phase.
struct RepartitionChoice {
    base_split: Option<usize>,
    capacity: u64,
}

/// Per-decision sketch effect, aligned with `space.decisions`.
enum Effect {
    /// The preset decision.
    Preset,
    /// The SRAM-split decision: per-choice CHORD capacity words.
    SramSplit(Vec<u64>),
    /// Partition decision: per-choice closed forms.
    Partition(Vec<PartitionChoice>),
    /// Per-phase repartition: per-choice override (`None` = keep the
    /// global split).
    Repartition(Vec<Option<RepartitionChoice>>),
    /// Cut decision (choice 1 = enabled): pressure-list index of the
    /// intermediate it unrealizes.
    Cut { pressure: usize },
    /// Steer decision (choice 1 = DRAM): pressure-list index of the
    /// steered tensor.
    Steer { pressure: Option<usize> },
    /// Bias decision: per-choice signed magnitude (`+l` boost, `-l`
    /// demote, `0` neutral) applied to the tensor's fill score.
    Bias {
        pressure: Option<usize>,
        shift: Vec<i8>,
    },
    /// Transfer-tuning decision: per-choice prefetch/double-buffer
    /// setting (choice 0 is always "off").
    Transfer(Vec<TransferTuning>),
    /// Overbook decision: per-choice CHORD overbooking level (choice 0 is
    /// always the worst-case-dense "off").
    Overbook(Vec<ChordOverbook>),
    /// Decisions the sketch cannot see (loop-order flips are cost-neutral
    /// intra-op by construction — §V-B).
    Inert,
}

/// Result of a tier-0 sweep.
pub struct Tier0Prune {
    /// Surviving assignments (sketch-Pareto, capped), in admission order.
    pub kept: Vec<Vec<usize>>,
    /// Assignments swept.
    pub swept: u64,
    /// Swept assignments whose floor the front rejected, so they were
    /// never sketched (see [`Tier0Model::prune`]).
    pub floored: u64,
}

/// The per-space precomputation that makes sketches build-free (see
/// module docs).
pub struct Tier0Model {
    /// Indexed `preset * n_splits + split`.
    bases: Vec<Base>,
    n_splits: usize,
    pressure: Vec<PressureTensor>,
    effects: Vec<Effect>,
    /// Pressure-list bitmask of the intermediates a cut decision can push
    /// into the CHORD fill.
    cuttable: u32,
    /// The overbook menu's deepest level (off without a menu): the
    /// smallest grant any assignment gives an occupancy-carrying tensor.
    deepest_overbook: ChordOverbook,
    /// The transfer menu's deepest prefetch window, `depth + 1` (1 without
    /// a menu): no assignment exposes less than `1/widest_window` of its
    /// DRAM cycles.
    widest_window: u64,
    /// CHORD capacity when no SRAM-split decision exists (derived spaces
    /// always have one, but the model stays total).
    default_capacity: u64,
    compute_macs: u64,
    pe_count: u64,
    word_bytes: u64,
    /// Quantum for the prefetch staging carve
    /// ([`cello_core::TransferTuning::staging_words`]).
    staging_quantum_words: u64,
    /// DRAM bytes transferred per core cycle (bandwidth / frequency).
    dram_bytes_per_cycle: u64,
    /// NoC bytes per core cycle per link.
    noc_bytes_per_cycle: u64,
}

impl Tier0Model {
    /// Precomputes sketch ingredients for `space` over `dag`/`accel`: one
    /// classification of `dag`, one binding pass per (preset, SRAM split)
    /// pair over it (the only schedules tier 0 ever binds), the unified
    /// CHORD pressure list, and per-decision effects.
    pub fn new(dag: &TensorDag, accel: &CelloConfig, space: &SearchSpace) -> Self {
        Self::from_classification(dag, &classify(dag), accel, space)
    }

    /// [`Self::new`] over a classification of `dag` the caller already
    /// holds (a [`crate::Tuner`] classifies its DAG once).
    pub(crate) fn from_classification(
        dag: &TensorDag,
        cls: &Classification,
        accel: &CelloConfig,
        space: &SearchSpace,
    ) -> Self {
        // Tensor name -> what the sketch needs of it, over node outputs and
        // externals (an external shadows a node output of the same name).
        let mut out_edges = vec![0u64; dag.node_count()];
        for (_, e) in dag.edges() {
            out_edges[e.src] += 1;
        }
        let mut meta: HashMap<&str, TensorInfo> = HashMap::new();
        for (id, node) in dag.nodes() {
            meta.insert(
                &node.output.name,
                TensorInfo {
                    words: node.output.words,
                    uses: out_edges[id.0],
                    ranks: &node.output.ranks,
                    occupancy: node.output.occupancy,
                    external: false,
                },
            );
        }
        for ext in dag.externals() {
            meta.insert(
                &ext.meta.name,
                TensorInfo {
                    words: ext.meta.words,
                    uses: ext.consumers.len() as u64,
                    ranks: &ext.meta.ranks,
                    occupancy: ext.meta.occupancy,
                    external: true,
                },
            );
        }

        let preset_di = space
            .decisions
            .iter()
            .position(|d| matches!(d.choices.first(), Some(Choice::Preset { .. })));
        let split_di = space
            .decisions
            .iter()
            .position(|d| matches!(d.choices.first(), Some(Choice::SramSplit { .. })));
        let preset_count = preset_di.map_or(1, |di| space.decisions[di].choices.len());
        let n_splits = split_di.map_or(1, |di| space.decisions[di].choices.len());

        // Bind each (preset, split) default schedule once over a single
        // classification; derive its DRAM floor and which tensors it binds
        // to CHORD.
        let mut bases = Vec::with_capacity((preset_count * n_splits).min(MAX_BASES));
        let mut pressure: Vec<PressureTensor> = Vec::new();
        let mut pressure_idx: HashMap<String, usize> = HashMap::new();
        'bases: for pi in 0..preset_count {
            for si in 0..n_splits {
                if bases.len() >= MAX_BASES {
                    break 'bases;
                }
                let base_bit = bases.len();
                let mut c = Candidate::paper_heuristic();
                if let Some(di) = preset_di {
                    space.apply_pick(&mut c, di, pi);
                }
                if let Some(di) = split_di {
                    space.apply_pick(&mut c, di, si);
                }
                let schedule = build_schedule_from(dag, cls.clone(), c.options, &c.constraints);
                let chord_on = schedule.options.enable_chord;
                let mut dram_words = 0u64;
                for (name, binding) in &schedule.binding {
                    let Some(&TensorInfo {
                        words,
                        uses,
                        ranks,
                        occupancy,
                        external,
                    }) = meta.get(name.as_str())
                    else {
                        continue;
                    };
                    let terminal = !external && uses == 0;
                    match binding {
                        Binding::Dram => {
                            // Streams per use; producers also write it out.
                            dram_words += words * uses.max(1);
                            if !external {
                                dram_words += words;
                            }
                        }
                        Binding::Chord => {
                            // Cold fill once (externals) / eventual
                            // terminal writeback; re-use cost is the spill
                            // term's job.
                            if external || terminal {
                                dram_words += words;
                            }
                            let idx = *pressure_idx.entry(name.clone()).or_insert_with(|| {
                                pressure.push(PressureTensor {
                                    words,
                                    uses: uses.max(1),
                                    score: pressure_score(words, uses),
                                    ranks: ranks.to_vec(),
                                    external,
                                    occupancy,
                                    member: 0,
                                });
                                pressure.len() - 1
                            });
                            pressure[idx].member |= 1 << base_bit;
                        }
                        Binding::RegisterFile => {
                            if external {
                                dram_words += words; // one cold load
                            }
                        }
                        Binding::Pipeline => {}
                    }
                }
                bases.push(Base {
                    chord_on,
                    dram_words,
                });
            }
        }

        // Per-decision effects. Cut decisions add their intermediate to the
        // pressure list: under build-free sketching a cut's effect is "this
        // tensor now competes for CHORD" (or round-trips DRAM with CHORD
        // off).
        let mut effects = Vec::with_capacity(space.decisions.len());
        for d in &space.decisions {
            let effect = match d.choices.first() {
                Some(Choice::Preset { .. }) => Effect::Preset,
                Some(Choice::SramSplit { .. }) => {
                    let caps = d
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::SramSplit {
                                pipeline_words,
                                rf_words,
                            } => accel.sram_words().saturating_sub(pipeline_words + rf_words),
                            _ => 0,
                        })
                        .collect();
                    Effect::SramSplit(caps)
                }
                Some(Choice::Partition { .. }) => {
                    let choices = d
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::Partition { partition } => partition_choice(dag, *partition),
                            _ => PartitionChoice {
                                nodes: 1,
                                sliced: None,
                                noc_word_hops: 0,
                            },
                        })
                        .collect();
                    Effect::Partition(choices)
                }
                Some(Choice::Repartition { .. }) => {
                    let splits: Vec<(u64, u64)> = split_di
                        .map(|di| {
                            space.decisions[di]
                                .choices
                                .iter()
                                .map(|c| match c {
                                    Choice::SramSplit {
                                        pipeline_words,
                                        rf_words,
                                    } => (*pipeline_words, *rf_words),
                                    _ => (0, 0),
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    let choices = d
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::Repartition { profile: Some(p) } => {
                                // The most generous phase's capacity — the
                                // optimistic (sound) direction for a floor —
                                // and the fused phase's split for
                                // realizability, when the split menu has it.
                                let fused =
                                    p.fused.pipeline_buffer_words + p.fused.rf_capacity_words;
                                let solo = p.solo.pipeline_buffer_words + p.solo.rf_capacity_words;
                                Some(RepartitionChoice {
                                    base_split: splits.iter().position(|&(pw, rw)| {
                                        pw == p.fused.pipeline_buffer_words
                                            && rw == p.fused.rf_capacity_words
                                    }),
                                    capacity: accel.sram_words().saturating_sub(fused.min(solo)),
                                })
                            }
                            _ => None,
                        })
                        .collect();
                    Effect::Repartition(choices)
                }
                Some(Choice::Cut { node, .. }) => {
                    // The intermediate a cut before `node` stops streaming:
                    // its first incoming edge's producer output.
                    let name = dag
                        .edges()
                        .find(|(_, e)| e.dst == *node)
                        .map(|(_, e)| dag.node(NodeId(e.src)).output.name.clone());
                    match name {
                        Some(name) => {
                            let idx = *pressure_idx.entry(name.clone()).or_insert_with(|| {
                                let t = meta.get(name.as_str()).copied().unwrap_or(TensorInfo {
                                    words: 0,
                                    uses: 1,
                                    ranks: &[],
                                    occupancy: None,
                                    external: false,
                                });
                                pressure.push(PressureTensor {
                                    words: t.words,
                                    uses: t.uses.max(1),
                                    score: pressure_score(t.words, t.uses),
                                    ranks: t.ranks.to_vec(),
                                    // Cut intermediates are node outputs.
                                    external: false,
                                    occupancy: t.occupancy,
                                    member: 0,
                                });
                                pressure.len() - 1
                            });
                            Effect::Cut { pressure: idx }
                        }
                        None => Effect::Inert,
                    }
                }
                Some(Choice::Steer { tensor, .. }) => Effect::Steer {
                    pressure: pressure_idx.get(tensor.as_str()).copied(),
                },
                Some(Choice::Transfer { .. }) => {
                    let menu = d
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::Transfer { tuning } => tuning.normalized(),
                            _ => TransferTuning::off(),
                        })
                        .collect();
                    Effect::Transfer(menu)
                }
                Some(Choice::Overbook { .. }) => {
                    let menu = d
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::Overbook { overbook } => overbook.normalized(),
                            _ => ChordOverbook::off(),
                        })
                        .collect();
                    Effect::Overbook(menu)
                }
                Some(Choice::ChordBias { tensor, .. }) => {
                    let shift = d
                        .choices
                        .iter()
                        .map(|c| match c {
                            Choice::ChordBias {
                                bias: Some(b @ PriorityBias::Boost(_)),
                                ..
                            } => b.level() as i8,
                            Choice::ChordBias {
                                bias: Some(b @ PriorityBias::Demote(_)),
                                ..
                            } => -(b.level() as i8),
                            _ => 0i8,
                        })
                        .collect();
                    Effect::Bias {
                        pressure: pressure_idx.get(tensor.as_str()).copied(),
                        shift,
                    }
                }
                _ => Effect::Inert,
            };
            effects.push(effect);
        }

        // Keep the pressure list bounded: heaviest tensors first, then
        // re-point the effects at the surviving indices (dropped tensors'
        // DRAM consequences stay covered by the bases).
        if pressure.len() > MAX_PRESSURE {
            let mut order: Vec<usize> = (0..pressure.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(pressure[i].words));
            order.truncate(MAX_PRESSURE);
            let mut remap: HashMap<usize, usize> = HashMap::new();
            let mut trimmed: Vec<PressureTensor> = Vec::with_capacity(MAX_PRESSURE);
            for &old_i in &order {
                remap.insert(old_i, trimmed.len());
                trimmed.push(std::mem::replace(
                    &mut pressure[old_i],
                    PressureTensor {
                        words: 0,
                        uses: 1,
                        score: 0,
                        ranks: Vec::new(),
                        external: false,
                        occupancy: None,
                        member: 0,
                    },
                ));
            }
            pressure = trimmed;
            for effect in &mut effects {
                match effect {
                    Effect::Cut { pressure: p } => match remap.get(p) {
                        Some(&n) => *p = n,
                        None => *effect = Effect::Inert,
                    },
                    Effect::Steer { pressure: p } | Effect::Bias { pressure: p, .. } => {
                        *p = p.and_then(|old| remap.get(&old).copied());
                    }
                    _ => {}
                }
            }
        }

        let mut cuttable = 0u32;
        let mut deepest_overbook = ChordOverbook::off();
        let mut widest_window = 1u64;
        for effect in &effects {
            match effect {
                Effect::Cut { pressure } => cuttable |= 1 << pressure,
                Effect::Transfer(menu) => {
                    for t in menu {
                        widest_window = widest_window.max(t.prefetch_depth as u64 + 1);
                    }
                }
                Effect::Overbook(menu) => {
                    for ob in menu {
                        deepest_overbook.level = deepest_overbook.level.max(ob.level);
                    }
                }
                _ => {}
            }
        }
        let compute_macs: u64 = dag.nodes().map(|(_, n)| n.spec.macs()).sum();
        Self {
            bases,
            n_splits,
            pressure,
            effects,
            cuttable,
            deepest_overbook,
            widest_window,
            default_capacity: accel
                .sram_words()
                .saturating_sub(accel.pipeline_buffer_words + accel.rf_capacity_words),
            compute_macs,
            pe_count: accel.pe_count.max(1),
            word_bytes: accel.word_bytes as u64,
            staging_quantum_words: accel.staging_quantum_words,
            dram_bytes_per_cycle: ((accel.dram.bandwidth_bytes_per_sec / accel.freq_hz) as u64)
                .max(1),
            noc_bytes_per_cycle: ((accel.noc_bandwidth_bytes_per_sec / accel.freq_hz) as u64)
                .max(1),
        }
    }

    /// Sketches one assignment — O(decisions + pressure), no allocation,
    /// no schedule build.
    pub fn sketch(&self, picks: &[usize]) -> Sketch {
        self.finish(&self.decode(picks))
    }

    /// Folds each decision's pick into what the sketch terms read.
    fn decode(&self, picks: &[usize]) -> Decoded {
        debug_assert_eq!(picks.len(), self.effects.len());
        let mut preset = 0usize;
        let mut base_split = 0usize;
        let mut d = Decoded {
            base_idx: 0,
            capacity: self.default_capacity,
            nodes: 1,
            sliced: None,
            noc_word_hops: 0,
            steered: 0,
            cuts: 0,
            shifts: [0; MAX_PRESSURE],
            transfer: TransferTuning::off(),
            overbook: ChordOverbook::off(),
        };
        for (effect, &pick) in self.effects.iter().zip(picks) {
            match effect {
                Effect::Preset => preset = pick,
                Effect::SramSplit(caps) => {
                    base_split = pick.min(caps.len().saturating_sub(1));
                    d.capacity = caps[base_split];
                }
                Effect::Partition(choices) => {
                    let c = &choices[pick.min(choices.len() - 1)];
                    d.nodes = c.nodes;
                    d.sliced = c.sliced;
                    d.noc_word_hops = c.noc_word_hops;
                }
                Effect::Repartition(choices) => {
                    if let Some(Some(r)) = choices.get(pick) {
                        d.capacity = r.capacity;
                        if let Some(s) = r.base_split {
                            base_split = s;
                        }
                    }
                }
                Effect::Cut { pressure } => {
                    if pick == 1 {
                        d.cuts |= 1 << pressure;
                    }
                }
                Effect::Steer { pressure } => {
                    if pick == 1 {
                        if let Some(p) = pressure {
                            d.steered |= 1 << p;
                        }
                    }
                }
                Effect::Bias { pressure, shift } => {
                    if let Some(p) = pressure {
                        d.shifts[*p] = shift[pick.min(shift.len() - 1)];
                    }
                }
                Effect::Transfer(menu) => {
                    d.transfer = menu[pick.min(menu.len() - 1)];
                }
                Effect::Overbook(menu) => {
                    d.overbook = menu[pick.min(menu.len() - 1)];
                }
                Effect::Inert => {}
            }
        }
        d.base_idx = (preset * self.n_splits + base_split).min(self.bases.len() - 1);
        d
    }

    /// The sketch terms of a decoded assignment.
    fn finish(&self, d: &Decoded) -> Sketch {
        let base = &self.bases[d.base_idx];
        let mut dram_words = base.dram_words;
        let mut spill_words = 0u64;
        if base.chord_on {
            // Gather the live pressure set (base members + enabled cuts,
            // minus DRAM-steered) into a fixed-size descending-score fill.
            let mut order = [0usize; MAX_PRESSURE];
            let mut scores = [0u64; MAX_PRESSURE];
            let mut len = 0usize;
            for (i, t) in self.pressure.iter().enumerate() {
                let resident = (t.member >> d.base_idx) & 1 == 1;
                if (d.steered >> i) & 1 == 1 {
                    if resident {
                        // Steered to DRAM: streams per use instead of
                        // competing for CHORD.
                        dram_words += t.words * t.uses;
                    }
                    continue;
                }
                if !resident && (d.cuts >> i) & 1 != 1 {
                    continue;
                }
                let shift = d.shifts[i];
                let score = if shift >= 0 {
                    t.score << shift as u32
                } else {
                    t.score >> (-shift) as u32
                };
                // Insertion sort: descending score, earlier index on ties.
                let mut j = len;
                while j > 0 && scores[j - 1] < score {
                    scores[j] = scores[j - 1];
                    order[j] = order[j - 1];
                    j -= 1;
                }
                scores[j] = score;
                order[j] = i;
                len += 1;
            }
            // The prefetch staging region comes out of whatever CHORD
            // capacity the split (or repartition override) left — the same
            // carve the sim applies in `phase_chord_capacity_words`.
            let mut remaining = d
                .capacity
                .saturating_sub(d.transfer.staging_words(self.staging_quantum_words));
            for &i in &order[..len] {
                let t = &self.pressure[i];
                let eff_words = t.footprint(d);
                // Overbooked grant: occupancy-carrying tensors reserve
                // capacity at expected occupancy and pay the variance tail
                // on the spill axis — the same `granted/spill` split
                // `plan_phases` applies. Off (or absent occupancy) is the
                // identity, so overbook-free sketches are unchanged.
                let (need, ob_spill) = match t.occupancy {
                    Some(occ) if !d.overbook.is_off() => (
                        d.overbook.granted_words(eff_words, &occ),
                        d.overbook.spill_words(eff_words, &occ),
                    ),
                    _ => (eff_words, 0),
                };
                if t.external {
                    // The cold DRAM fill shrinks with the grant, exactly
                    // as the engine's occupancy-scaled access words do.
                    dram_words = dram_words.saturating_sub(eff_words - need);
                }
                spill_words = spill_words.saturating_add(ob_spill.saturating_mul(t.uses));
                let granted = need.min(remaining);
                remaining -= granted;
                spill_words = spill_words.saturating_add((need - granted) * t.uses);
            }
        } else {
            // CHORD off: every enabled cut's intermediate round-trips DRAM.
            for (i, t) in self.pressure.iter().enumerate() {
                if (d.cuts >> i) & 1 == 1 {
                    dram_words = dram_words.saturating_add(t.words * (1 + t.uses));
                }
            }
        }

        let compute_cycles = self.compute_cycles(d.nodes);
        let dram_cycles = self.dram_cycles(dram_words.saturating_add(spill_words), d.nodes);
        let noc_cycles = self.noc_cycles(d.noc_word_hops);
        // Overlap-aware cycle proxy. Depth 0 is the serialized roofline,
        // bit-identical to the pre-overlap sketch. With a prefetch window
        // of depth `d`, double-buffered transfers expose only ~1/(d+1) of
        // the DRAM cycles (each phase's inbound hides behind up to `d`
        // predecessors); single-buffered prefetch can only use idle
        // bandwidth, so it never exposes less than the memory-over-compute
        // excess. The asymmetry keeps off/sb/db sketches mutually
        // non-dominated (the carve above already charges the spill axis),
        // so the soundness proptest's covering property survives.
        let transfer = d.transfer;
        let cycles = if transfer.is_off() {
            compute_cycles.max(dram_cycles) + noc_cycles
        } else {
            let window = transfer.prefetch_depth as u64 + 1;
            let pipelined = dram_cycles.div_ceil(window);
            let exposed = if transfer.double_buffer {
                pipelined
            } else {
                dram_cycles.saturating_sub(compute_cycles).max(pipelined)
            };
            compute_cycles.max(exposed) + noc_cycles
        };
        Sketch([dram_words, d.noc_word_hops, spill_words, cycles])
    }

    /// A lower bound on `finish(d).scalar()` over every assignment that
    /// shares `d`'s preset, SRAM split, partition and repartition picks
    /// (the module docs argue each term).
    fn floor(&self, d: &Decoded) -> u64 {
        let base = &self.bases[d.base_idx];
        let mut dram_words = base.dram_words;
        let mut spill_words = 0u64;
        if base.chord_on {
            let mut members = [(0u64, 0u64); MAX_PRESSURE];
            let mut len = 0usize;
            for (i, t) in self.pressure.iter().enumerate() {
                let resident = (t.member >> d.base_idx) & 1 == 1;
                if !resident && (self.cuttable >> i) & 1 != 1 {
                    continue;
                }
                let eff_words = t.footprint(d);
                let need = match t.occupancy {
                    Some(occ) => self.deepest_overbook.granted_words(eff_words, &occ),
                    None => eff_words,
                };
                if t.external {
                    dram_words = dram_words.saturating_sub(eff_words - need);
                }
                if resident {
                    members[len] = (t.uses, need);
                    len += 1;
                }
            }
            members[..len].sort_unstable_by_key(|&(uses, _)| std::cmp::Reverse(uses));
            let mut remaining = d.capacity;
            for &(uses, need) in &members[..len] {
                let granted = need.min(remaining);
                remaining -= granted;
                spill_words = spill_words.saturating_add((need - granted).saturating_mul(uses));
            }
        }
        let dram_cycles = self.dram_cycles(dram_words.saturating_add(spill_words), d.nodes);
        let cycles = self
            .compute_cycles(d.nodes)
            .max(dram_cycles.div_ceil(self.widest_window))
            + self.noc_cycles(d.noc_word_hops);
        Sketch([dram_words, d.noc_word_hops, spill_words, cycles]).scalar()
    }

    /// Compute cycles of the whole DAG spread over `nodes`.
    fn compute_cycles(&self, nodes: u64) -> u64 {
        self.compute_macs.div_ceil(self.pe_count).div_ceil(nodes)
    }

    /// Cycles to move `words` between DRAM and `nodes` nodes.
    fn dram_cycles(&self, words: u64, nodes: u64) -> u64 {
        words
            .saturating_mul(self.word_bytes)
            .div_ceil(self.dram_bytes_per_cycle.saturating_mul(nodes))
    }

    /// Cycles to move `word_hops` over one NoC link.
    fn noc_cycles(&self, word_hops: u64) -> u64 {
        word_hops
            .saturating_mul(self.word_bytes)
            .div_ceil(self.noc_bytes_per_cycle)
    }

    /// [`Self::floor`] of every (preset, split, partition, repartition)
    /// cell of `space`, decoded with every other decision at its default.
    fn floor_table(&self, space: &SearchSpace) -> FloorTable {
        let mut decisions = Vec::new();
        let mut cells = 1usize;
        for (di, effect) in self.effects.iter().enumerate() {
            if matches!(
                effect,
                Effect::Preset
                    | Effect::SramSplit(_)
                    | Effect::Partition(_)
                    | Effect::Repartition(_)
            ) {
                decisions.push((di, cells));
                cells *= space.decisions[di].choices.len();
            }
        }
        let mut picks = vec![0usize; self.effects.len()];
        let floors = (0..cells)
            .map(|cell| {
                let mut rem = cell;
                for &(di, _) in &decisions {
                    let radix = space.decisions[di].choices.len();
                    picks[di] = rem % radix;
                    rem /= radix;
                }
                self.floor(&self.decode(&picks))
            })
            .collect();
        FloorTable { decisions, floors }
    }

    /// Sweeps up to `budget` assignments of `space` (`SearchSpace::sweep`:
    /// the full odometer when it fits, a seeded uniform sample otherwise)
    /// and returns the
    /// sketch-Pareto survivors, capped at `keep` by scalar magnitude.
    /// Deterministic: same space + budget + keep + seed ⇒ same survivors.
    ///
    /// Once the front is full, a candidate whose scalar exceeds the front's
    /// largest (or ties it, below saturation) is skipped without a
    /// dominance scan (`Front::rejects` argues why that is exact). The
    /// `floor` of an assignment's four floor decisions, read from a
    /// per-sweep table, goes through that test first: the floor is at most
    /// the sketch's scalar, so a rejected floor means a rejected sketch,
    /// and the assignment is counted in `floored` without being sketched
    /// — on the sampled branch without even drawing its other picks. On
    /// the capped sweeps the tuner runs, this skips most of the budget.
    /// Debug builds sketch every floored assignment anyway and assert the
    /// bound.
    pub fn prune(&self, space: &SearchSpace, budget: u64, keep: usize, seed: u64) -> Tier0Prune {
        let floors = self.floor_table(space);
        let mut front = Front::new(keep);
        let mut floored = 0u64;
        let mut sweep = space.sweep_cursor(budget.max(1), seed);
        let mut swept = 0u64;
        while let Some(order) = sweep.step() {
            swept += 1;
            let floor = floors.at(|di| sweep.pick(di));
            if front.rejects(floor) {
                floored += 1;
                #[cfg(debug_assertions)]
                {
                    let picks = sweep.picks();
                    let scalar = self.sketch(picks).scalar();
                    assert!(
                        floor <= scalar,
                        "floor {floor} > scalar {scalar} at {picks:?}"
                    );
                }
                continue;
            }
            let picks = sweep.picks();
            front.offer(self.sketch(picks), order, picks);
        }
        Tier0Prune {
            kept: front.into_kept(),
            swept,
            floored,
        }
    }
}

/// One assignment's decisions, as the sketch terms read them.
struct Decoded {
    /// Index into `Tier0Model::bases`.
    base_idx: usize,
    /// CHORD capacity words before the staging carve.
    capacity: u64,
    nodes: u64,
    sliced: Option<RankId>,
    noc_word_hops: u64,
    /// Pressure-list bitmasks.
    steered: u32,
    cuts: u32,
    shifts: [i8; MAX_PRESSURE],
    transfer: TransferTuning,
    overbook: ChordOverbook,
}

impl PressureTensor {
    /// Words this tensor occupies per node: rank slicing shrinks a sliced
    /// footprint `1/nodes`.
    fn footprint(&self, d: &Decoded) -> u64 {
        match d.sliced {
            Some(r) if self.ranks.contains(&r) => (self.words / d.nodes).max(1),
            _ => self.words,
        }
    }
}

/// A sweep's [`Tier0Model::floor`] per cell of its floor decisions.
struct FloorTable {
    /// (decision index, stride) of each floor decision.
    decisions: Vec<(usize, usize)>,
    floors: Vec<u64>,
}

impl FloorTable {
    /// The floor of the cell `pick` selects (`pick(di)` is decision
    /// `di`'s pick).
    fn at(&self, pick: impl Fn(usize) -> usize) -> u64 {
        let cell = self
            .decisions
            .iter()
            .map(|&(di, stride)| pick(di) * stride)
            .sum::<usize>();
        self.floors[cell]
    }
}

/// One member of a sweep's front.
struct Entry {
    sketch: Sketch,
    scalar: u64,
    order: u64,
    picks: Vec<usize>,
}

/// The sketch-Pareto front of a sweep, capped at `keep` members by
/// `(scalar, order)`: admission drops every member the newcomer dominates,
/// and an overfull front evicts its largest scalar, latest admission on
/// ties (incumbents win).
struct Front {
    keep: usize,
    entries: Vec<Entry>,
    /// Largest `scalar` among `entries`; refreshed whenever they change.
    max_scalar: u64,
}

impl Front {
    fn new(keep: usize) -> Self {
        let keep = keep.max(1);
        Front {
            keep,
            // `keep` may be enormous ("keep everything"); cap the
            // pre-allocation, not the logic.
            entries: Vec::with_capacity(keep.saturating_add(1).min(4096)),
            max_scalar: 0,
        }
    }

    /// Offers the sweep's `order`-th assignment; orders must increase
    /// across calls. A [`Self::rejects`]ed scalar leaves the front as it
    /// was and is skipped unscanned.
    fn offer(&mut self, sketch: Sketch, order: u64, picks: &[usize]) {
        let scalar = sketch.scalar();
        if self.rejects(scalar) {
            return;
        }
        if self.entries.iter().any(|k| k.sketch.dominates(&sketch)) {
            return;
        }
        self.entries.retain(|k| !sketch.dominates(&k.sketch));
        self.entries.push(Entry {
            sketch,
            scalar,
            order,
            picks: picks.to_vec(),
        });
        if self.entries.len() > self.keep {
            let worst = self
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(_, k)| (k.scalar, k.order))
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries.remove(worst);
        }
        self.max_scalar = self.entries.iter().map(|k| k.scalar).max().unwrap_or(0);
    }

    /// The early exit: on a full front, a candidate with
    /// `scalar > max_scalar`, or `scalar == max_scalar` below `u64::MAX`,
    /// would leave the front as it was. Dominating a member needs a scalar
    /// no larger than the member's, and strictly smaller unless the sum
    /// saturates, so such a candidate removes nobody. Admitted, it would
    /// then be the unique `(scalar, order)` maximum of an overfull front
    /// and be evicted at once. The `>` half holds for any cap key that
    /// dominance cannot raise; the tie half also needs dominance to lower
    /// the key strictly, which is why saturated scalars fall through. A
    /// lexicographic key over all four terms, such as a (cycles, DRAM, NoC,
    /// spill) cap order, keeps both.
    ///
    /// Rejection is monotone: if `scalar` is rejected, so is every larger
    /// one, which is what lets a lower bound on a scalar stand in for it.
    fn rejects(&self, scalar: u64) -> bool {
        self.entries.len() >= self.keep
            && (scalar > self.max_scalar || (scalar == self.max_scalar && scalar != u64::MAX))
    }

    /// The surviving assignments, in admission order.
    fn into_kept(mut self) -> Vec<Vec<usize>> {
        self.entries.sort_by_key(|k| k.order);
        self.entries.into_iter().map(|k| k.picks).collect()
    }
}

/// Reuse-density fill priority: reused words fill before single-use ones;
/// among equal reuse, smaller tensors first (more reuse per capacity
/// word). Headroom above bit 20 keeps ±[`cello_core::chord::MAX_BIAS_LEVEL`]
/// shifts meaningful without overflow.
fn pressure_score(words: u64, uses: u64) -> u64 {
    (uses.max(1) << 20) | ((1 << 19) - words.min((1 << 19) - 1))
}

/// Closed-form NoC consequences of one partition choice (§V-B).
fn partition_choice(dag: &TensorDag, partition: Partition) -> PartitionChoice {
    if !partition.is_multi() {
        return PartitionChoice {
            nodes: 1,
            sliced: None,
            noc_word_hops: 0,
        };
    }
    let noc = NocModel::new(partition.nodes);
    let noc_word_hops = match partition.axis {
        PartitionAxis::Rank(rank) => {
            // Scalable dataflow (Fig 8 bottom): only tensors *not* carrying
            // the sliced rank cross the NoC — externals broadcast in,
            // partial outputs reduce out, each over the mesh diameter.
            let mut words = 0u64;
            for ext in dag.externals() {
                if !ext.meta.ranks.contains(&rank) {
                    words =
                        words.saturating_add(ext.meta.words.saturating_mul(noc.hops_broadcast()));
                }
            }
            for (_, node) in dag.nodes() {
                if !node.output.ranks.contains(&rank) {
                    words =
                        words.saturating_add(node.output.words.saturating_mul(noc.hops_reduce()));
                }
            }
            words
        }
        PartitionAxis::Stage => {
            // Naive strategy (Fig 8 top): every producer→consumer
            // intermediate ships in full between stage nodes.
            let mut words = 0u64;
            for (_, edge) in dag.edges() {
                words = words.saturating_add(dag.node(NodeId(edge.src)).output.words);
            }
            words
        }
    };
    PartitionChoice {
        nodes: partition.nodes,
        sliced: partition.sliced_rank(),
        noc_word_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use cello_tensor::gen::{for_cases, SplitMix64};
    use cello_workloads::cg::{build_cg_dag, CgParams};

    fn cg(iters: u32) -> TensorDag {
        build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: iters,
            a_occupancy: None,
        })
    }

    #[test]
    fn dominance_is_elementwise_and_strict() {
        let a = Sketch([1, 2, 3, 4]);
        let b = Sketch([1, 2, 3, 5]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "equal sketches never dominate");
        let c = Sketch([0, 9, 3, 4]); // trade on term 1
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    /// The default assignment's sketch is finite and sane: nonzero DRAM
    /// floor (externals must be read), zero NoC (single-node), and a cycle
    /// proxy at least the compute roofline.
    #[test]
    fn default_sketch_is_sane() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        let model = Tier0Model::new(&dag, &accel, &space);
        let s = model.sketch(&space.default_picks());
        assert!(s.0[0] > 0, "externals must cost DRAM words");
        assert_eq!(s.0[1], 0, "single-node has no NoC term");
        let compute = dag
            .nodes()
            .map(|(_, n)| n.spec.macs())
            .sum::<u64>()
            .div_ceil(accel.pe_count);
        assert!(s.0[3] >= compute, "cycle proxy respects the compute floor");
    }

    /// Multi-node rank slicing pays NoC hops the single-node default does
    /// not — the sketch must keep the axes separate so the NoC-free
    /// default never falsely dominates a capacity-relieved slice.
    #[test]
    fn rank_slice_pays_noc_but_keeps_its_own_axis() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::with_nodes(&[1, 4]));
        let model = Tier0Model::new(&dag, &accel, &space);
        let pd = space
            .decisions
            .iter()
            .position(|d| d.name == "partition")
            .unwrap();
        let mut picks = space.default_picks();
        picks[pd] = 1; // 4-node dominant-rank slice
        let sliced = model.sketch(&picks);
        assert!(sliced.0[1] > 0, "rank slice pays NoC hops");
    }

    /// In the exhaustive regime with no keep-cap pressure, pruning is
    /// *covering*: every dropped assignment is sketch-dominated by a
    /// survivor (dominance is transitive, so admission preserves this).
    /// The paper-heuristic default in particular is either kept outright or
    /// dominated by a kept assignment — never silently lost. Survivors are
    /// mutually non-dominated (a genuine Pareto set).
    #[test]
    fn prune_covers_the_default_and_keeps_a_pareto_set() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        let model = Tier0Model::new(&dag, &accel, &space);
        let total = space.exhaustive_size();
        let out = model.prune(&space, total, usize::MAX >> 1, 0);
        assert_eq!(out.swept, total);
        assert!(!out.kept.is_empty());
        let default_picks = space.default_picks();
        let default = model.sketch(&default_picks);
        assert!(
            out.kept.contains(&default_picks)
                || out.kept.iter().any(|p| model.sketch(p).dominates(&default)),
            "the default was dropped without a dominating survivor"
        );
        let sketches: Vec<Sketch> = out.kept.iter().map(|p| model.sketch(p)).collect();
        for (i, a) in sketches.iter().enumerate() {
            for (j, b) in sketches.iter().enumerate() {
                assert!(
                    i == j || !a.dominates(b),
                    "survivors must be mutually non-dominated ({i} vs {j})"
                );
            }
        }
    }

    /// Pruning is deterministic and respects budget and keep caps in both
    /// the exhaustive and sampled regimes.
    #[test]
    fn prune_is_deterministic_and_capped() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened_with_nodes(&[1, 4]));
        let model = Tier0Model::new(&dag, &accel, &space);
        // Sampled regime: the widened multi-node space exceeds the budget.
        assert!(space.exhaustive_size() > 2000);
        let a = model.prune(&space, 2000, 16, 7);
        let b = model.prune(&space, 2000, 16, 7);
        assert_eq!(a.swept, 2000);
        assert_eq!(a.kept, b.kept, "same seed ⇒ same survivors");
        assert!(a.kept.len() <= 16);
        // Exhaustive regime: budget covers the whole (default) space.
        let small = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        let sm = Tier0Model::new(&dag, &accel, &small);
        let total = small.exhaustive_size();
        let out = sm.prune(&small, total, usize::MAX >> 1, 0);
        assert_eq!(out.swept, total, "budget ≥ space ⇒ full sweep");
        for picks in &out.kept {
            for (p, d) in picks.iter().zip(&small.decisions) {
                assert!(*p < d.choices.len());
            }
        }
    }

    /// The transfer decision reaches the sketch: on a memory-bound
    /// workload a double-buffered pick shrinks the cycle proxy below the
    /// serialized (off) proxy, never below the compute floor, and the two
    /// sketches stay mutually non-dominated (the overlapped pick pays the
    /// staging carve on the spill axis or wins strictly on cycles — either
    /// way neither prunes the other).
    #[test]
    fn transfer_tuning_shapes_the_cycle_proxy() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let cfg = SpaceConfig {
            transfer_menu: SpaceConfig::default_transfer_menu(),
            ..SpaceConfig::default()
        };
        let space = SearchSpace::from_dag(&dag, &cfg);
        let model = Tier0Model::new(&dag, &accel, &space);
        let td = space
            .decisions
            .iter()
            .position(|d| d.name == "transfer")
            .expect("transfer decision exists");
        let menu: Vec<TransferTuning> = space.decisions[td]
            .choices
            .iter()
            .map(|c| match c {
                Choice::Transfer { tuning } => *tuning,
                _ => unreachable!("transfer decision holds transfer choices"),
            })
            .collect();
        assert!(menu[0].is_off(), "choice 0 is the serialized baseline");
        let db = menu
            .iter()
            .position(|t| t.double_buffer)
            .expect("menu has a double-buffered entry");
        let mut picks = space.default_picks();
        let off = model.sketch(&picks);
        picks[td] = db;
        let on = model.sketch(&picks);
        let compute = dag
            .nodes()
            .map(|(_, n)| n.spec.macs())
            .sum::<u64>()
            .div_ceil(accel.pe_count);
        assert!(on.0[3] < off.0[3], "double-buffering hides DRAM cycles");
        assert!(on.0[3] >= compute, "never below the compute floor");
        assert!(on.0[2] >= off.0[2], "the staging carve can only add spill");
        assert!(
            !off.dominates(&on) && !on.dominates(&off),
            "off and overlapped picks must coexist on the sketch front"
        );
    }

    /// The overbook decision reaches the sketch: on an occupancy-carrying
    /// sparse workload an overbooked pick shrinks the DRAM axis (the
    /// grant scales the external cold fill). With a high-variance, high-
    /// mean matrix — `rel_std` above the mean's slack `1 - rel_mean`, so
    /// the modeled refetch tail outweighs the footprint the grant gives
    /// back — the spill axis grows, and the off and overbooked picks stay
    /// mutually non-dominated: the prune keeps both sides of the trade.
    /// (A low-mean matrix makes overbooking a pure win and the sketch
    /// rightly lets it dominate.) A dense-occupancy DAG sketches
    /// identically at every level — where overbooking has no effect the
    /// sketch cannot separate candidates, so the prune stays sound.
    #[test]
    fn overbooking_scales_the_dram_and_spill_axes() {
        let skewed = OccupancyStats {
            mean: 0.9,
            variance: 0.09,
            ..OccupancyStats::dense()
        };
        let mut prm = CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: Some(skewed),
        };
        let accel = CelloConfig::paper();
        let cfg = SpaceConfig {
            overbook_menu: SpaceConfig::default_overbook_menu(),
            ..SpaceConfig::default()
        };
        let dag = build_cg_dag(&prm);
        let space = SearchSpace::from_dag(&dag, &cfg);
        let model = Tier0Model::new(&dag, &accel, &space);
        let od = space
            .decisions
            .iter()
            .position(|d| d.name == "overbook")
            .expect("overbook decision exists");
        let mut picks = space.default_picks();
        let off = model.sketch(&picks);
        picks[od] = 1; // ChordOverbook::at(1)
        let on = model.sketch(&picks);
        assert!(on.0[0] < off.0[0], "the grant shrinks the A cold fill");
        assert!(on.0[2] > off.0[2], "the variance tail lands on spill");
        assert!(
            !off.dominates(&on) && !on.dominates(&off),
            "off and overbooked picks must coexist on the sketch front"
        );
        // Dense occupancy is the identity at every level.
        prm.a_occupancy = Some(OccupancyStats::dense());
        let dag = build_cg_dag(&prm);
        let space = SearchSpace::from_dag(&dag, &cfg);
        let model = Tier0Model::new(&dag, &accel, &space);
        let od = space
            .decisions
            .iter()
            .position(|d| d.name == "overbook")
            .expect("dense occupancy still gates the dimension on");
        let mut picks = space.default_picks();
        let base = model.sketch(&picks);
        for choice in 1..space.decisions[od].choices.len() {
            picks[od] = choice;
            assert_eq!(
                model.sketch(&picks),
                base,
                "dense occupancy sketches identically at every level"
            );
        }
    }

    /// The front upkeep as it was before the early exit, kept verbatim as
    /// the differential reference for [`Front`]: `(sketch, picks)` in sweep
    /// order in, survivors in admission order out.
    fn reference_front(
        stream: impl IntoIterator<Item = (Sketch, Vec<usize>)>,
        keep: usize,
    ) -> Vec<Vec<usize>> {
        let keep = keep.max(1);
        let mut kept: Vec<Entry> = Vec::with_capacity(keep.saturating_add(1).min(4096));
        let consider = |sketch: Sketch, picks: &[usize], order: u64, kept: &mut Vec<Entry>| {
            if kept.iter().any(|k| k.sketch.dominates(&sketch)) {
                return;
            }
            kept.retain(|k| !sketch.dominates(&k.sketch));
            kept.push(Entry {
                sketch,
                scalar: sketch.scalar(),
                order,
                picks: picks.to_vec(),
            });
            if kept.len() > keep {
                // Drop the worst non-dominated survivor: largest scalar,
                // latest admission on ties (incumbents win).
                let worst = kept
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, k)| (k.scalar, k.order))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                kept.remove(worst);
            }
        };
        for (order, (sketch, picks)) in stream.into_iter().enumerate() {
            consider(sketch, &picks, order as u64, &mut kept);
        }
        kept.sort_by_key(|k| k.order);
        kept.into_iter().map(|k| k.picks).collect()
    }

    /// The sweep stream spelled with the public enumeration calls
    /// (`index_to_picks`, `sample_assignments`).
    fn reference_stream(space: &SearchSpace, budget: u64, seed: u64) -> Vec<Vec<usize>> {
        let total = space.exhaustive_size();
        if total <= budget {
            (0..total).map(|i| space.index_to_picks(i)).collect()
        } else {
            space.sample_assignments(budget as usize, seed)
        }
    }

    /// `prune`'s sweep from the reference stream, fed to the reference
    /// front.
    fn reference_prune(
        model: &Tier0Model,
        space: &SearchSpace,
        budget: u64,
        keep: usize,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        let picks = reference_stream(space, budget, seed);
        reference_front(picks.into_iter().map(|p| (model.sketch(&p), p)), keep)
    }

    /// A synthetic sketch stream that is dense in the early exit's edge
    /// cases: small terms make scalar ties and equal sketches common, and
    /// huge terms saturate the scalar at `u64::MAX`. On odd seeds the first
    /// term is pinned at `u64::MAX`, so every scalar saturates and the
    /// front fills with saturated sketches that still dominate one another.
    fn synthetic_stream(len: usize, seed: u64) -> Vec<(Sketch, Vec<usize>)> {
        let mut rng = SplitMix64::new(seed);
        let pinned = seed % 2 == 1;
        (0..len)
            .map(|i| {
                let mut term = || match rng.below(16) {
                    0 => u64::MAX,
                    1 => u64::MAX / 2 + rng.below(3),
                    _ => rng.below(4),
                };
                let first = if pinned { u64::MAX } else { term() };
                (Sketch([first, term(), term(), term()]), vec![i])
            })
            .collect()
    }

    #[test]
    fn front_matches_the_reference_on_synthetic_streams() {
        const LEN: usize = 300;
        let mut saturated = 0;
        for seed in 0..48u64 {
            let stream = synthetic_stream(LEN, seed);
            saturated += stream
                .iter()
                .filter(|(s, _)| s.scalar() == u64::MAX)
                .count();
            for keep in [1, 2, 96, LEN + 1] {
                let mut front = Front::new(keep);
                for (order, (sketch, picks)) in stream.iter().enumerate() {
                    front.offer(*sketch, order as u64, picks);
                }
                assert_eq!(
                    front.into_kept(),
                    reference_front(stream.iter().cloned(), keep),
                    "seed {seed}, keep {keep}"
                );
            }
        }
        assert!(saturated > 0, "the streams must exercise saturated scalars");
    }

    fn gcn(layers: u32) -> TensorDag {
        cello_workloads::gcn::build_gcn_dag(&cello_workloads::gcn::GcnParams::from_dataset(
            &cello_workloads::datasets::CORA,
            layers,
        ))
    }

    fn hpcg(nx: u64) -> TensorDag {
        cello_workloads::hpcg::build_hpcg_dag(&cello_workloads::hpcg::HpcgParams {
            nx,
            n: 16,
            iterations: 2,
        })
    }

    /// Sparse CG over a seeded SPD pattern: the DAG carries occupancy, so
    /// widened spaces hold an overbook dimension.
    fn sparse_cg(m: usize, seed: u64) -> TensorDag {
        let a = cello_tensor::gen::random_spd(m, 7 * m, seed);
        build_cg_dag(&CgParams::from_csr(&a, 16, 2))
    }

    /// One of cg, hpcg, gcn and sparse CG, at one of two sizes.
    fn workload(rng: &mut SplitMix64) -> TensorDag {
        let size = rng.below(2) as u32;
        match rng.below(4) {
            0 => cg(2 + size),
            1 => hpcg(16 + 16 * u64::from(size)),
            2 => gcn(1 + size),
            _ => sparse_cg(512 + 256 * size as usize, rng.next_u64()),
        }
    }

    /// The floor `prune` rejects by never exceeds the sketch it stands in
    /// for: on sampled assignments of 1–64-node spaces, with and without
    /// repartition, floor ≤ `sketch(picks).scalar()`. The floor table's
    /// cell also equals the floor of the whole decoded assignment, so the
    /// floor reads nothing but its four decisions.
    #[test]
    fn floor_never_exceeds_the_sketch() {
        let mut overbooked = 0;
        for_cases("floor_never_exceeds_the_sketch", 16, |rng| {
            let dag = workload(rng);
            let accel = CelloConfig::paper();
            let nodes: &[u64] = [&[1u64][..], &[1, 4], &[1, 4, 16, 64]][rng.below(3) as usize];
            let mut cfg = SpaceConfig::widened_with_nodes(nodes);
            if rng.next_u64() & 1 == 1 {
                cfg = cfg.with_repartition(accel.sram_words());
            }
            let space = SearchSpace::from_dag(&dag, &cfg);
            let model = Tier0Model::new(&dag, &accel, &space);
            overbooked += usize::from(!model.deepest_overbook.is_off());
            let floors = model.floor_table(&space);
            for picks in space.sample_assignments(1_024, rng.next_u64()) {
                let floor = floors.at(|di| picks[di]);
                let scalar = model.sketch(&picks).scalar();
                assert!(
                    floor <= scalar,
                    "floor {floor} > scalar {scalar} at {picks:?}"
                );
                assert_eq!(floor, model.floor(&model.decode(&picks)), "{picks:?}");
            }
        });
        assert!(overbooked > 0, "no case drew an overbook dimension");
    }

    /// `SearchSpace::sweep` yields exactly the reference stream, and
    /// `prune` returns exactly the reference's survivors, on both
    /// branches: the exhaustive odometer (cut, steer, loop-order, bias
    /// and transfer menus narrowed so the space fits the budget) and
    /// the seeded sample of the full widened space.
    #[test]
    fn prune_matches_the_reference() {
        for_cases("prune_matches_the_reference", 12, |rng| {
            let dag = workload(rng);
            let mesh = rng.below(3) as usize;
            let per_phase = rng.next_u64() & 1 == 1;
            let keep = 1 + rng.below(39) as usize;
            let seed = rng.below(1_000);
            let accel = CelloConfig::paper();
            let nodes: &[u64] = [&[1u64][..], &[1, 4], &[1, 4, 16, 64]][mesh];
            let mut wide = SpaceConfig::widened_with_nodes(nodes);
            if per_phase {
                wide = wide.with_repartition(accel.sram_words());
            }
            let narrow = SpaceConfig {
                max_cut_points: 1,
                max_steer_tensors: 1,
                max_loop_order_nodes: 0,
                max_chord_bias_tensors: 0,
                transfer_menu: wide.transfer_menu[..1].to_vec(),
                ..wide.clone()
            };
            for (cfg, exhaustive) in [(narrow, true), (wide, false)] {
                let space = SearchSpace::from_dag(&dag, &cfg);
                let model = Tier0Model::new(&dag, &accel, &space);
                let total = space.exhaustive_size();
                let budget = if exhaustive { total } else { 2_048 };
                assert!(
                    if exhaustive {
                        total <= 40_000
                    } else {
                        total > budget
                    },
                    "{total} assignments do not fit the branch under test"
                );
                let mut streamed: Vec<Vec<usize>> = Vec::new();
                let swept = space.sweep(budget, seed, |order, picks| {
                    assert_eq!(order, streamed.len() as u64, "stream positions count up");
                    streamed.push(picks.to_vec());
                });
                assert_eq!(swept, streamed.len() as u64);
                assert_eq!(streamed, reference_stream(&space, budget, seed));
                for k in [keep, 96] {
                    let got = model.prune(&space, budget, k, seed);
                    assert_eq!(got.kept, reference_prune(&model, &space, budget, k, seed));
                }
            }
        });
    }

    /// A sampled sweep prunes hard: survivors are a small fraction of the
    /// swept budget (the whole point of the tier).
    #[test]
    fn prune_discards_most_of_the_budget() {
        let dag = cg(3);
        let accel = CelloConfig::paper();
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened_with_nodes(&[1, 4]));
        let model = Tier0Model::new(&dag, &accel, &space);
        let out = model.prune(&space, 8192, 48, 0);
        assert_eq!(out.swept, 8192);
        assert!(out.kept.len() <= 48);
        assert!(
            (out.kept.len() as u64) * 20 < out.swept,
            "kept {} of {}",
            out.kept.len(),
            out.swept
        );
    }
}
