//! Candidate generation: the decision dimensions of the co-design space.
//!
//! A [`SearchSpace`] is an ordered list of [`Decision`]s, each with a small
//! choice set whose **first entry is always the paper-heuristic default** —
//! so the all-zeros assignment reproduces `ScheduleOptions::cello()` exactly,
//! beam search starts from the heuristic, and the tuned result can never be
//! worse than the baseline. Decisions are derived from the DAG itself:
//!
//! 1. **Preset** — the Table IV scheduler family (pipelining scope, hold,
//!    multicast, CHORD steering);
//! 2. **SRAM split** — how the on-chip budget divides between the pipeline
//!    buffer, the register file, and CHORD (which gets the remainder, see
//!    `cello_sim::evaluate::chord_capacity_words`). The pipeline buffer is
//!    the tiling knob: `pipeline_can_stream` gates which edges can realize
//!    at all (a buffer below one double-buffered row per stage blocks
//!    fusion), so shrinking it to feed CHORD is a modeled trade, not free
//!    SRAM — and the oversized choice is the safe direction for wide-row
//!    DAGs;
//! 3. **Cluster cuts** — one boolean per node that joins a pipeline cluster
//!    under the fully-fused schedule;
//! 4. **Steering** — one `{CHORD, DRAM}` choice per large CHORD-bound
//!    tensor (demoting a low-reuse tensor frees CHORD capacity for hotter
//!    ones);
//! 5. **CHORD priority biasing** — per hot CHORD tensor, leave the derived
//!    RIFF `(freq, dist)` facts alone or boost/demote them
//!    ([`SpaceConfig::max_chord_bias_tensors`], 0 by default;
//!    [`SpaceConfig::widened`] turns it on) — the full SCORE-CHORD
//!    interface as a decision, not just the bindings;
//! 6. **Loop-order flips** — only on *balanced* nodes, where §V-B leaves
//!    the order cost-neutral intra-op, so flipping trades nothing the cost
//!    model cannot see (it only disables/enables pipelining realizability);
//! 7. **Multi-node partition** — node count × dataflow axis (§V-B): slice
//!    the DAG's dominant rank (pipelining stays intra-node, small tensors
//!    broadcast/reduce over the NoC) or split pipeline stages across nodes
//!    (the Fig 8 naive strategy, full intermediates on the NoC). Enabled by
//!    listing node counts > 1 in [`SpaceConfig::node_choices`]; the
//!    single-node partition is always choice 0;
//! 8. **Transfer ordering** — prefetch depth × double-buffer toggle
//!    ([`cello_core::TransferTuning`]): how far the DMA engine runs ahead
//!    of compute, hiding inbound DRAM transfers behind earlier phases at
//!    the price of a staging carve out of CHORD capacity. Enabled by a
//!    non-empty [`SpaceConfig::transfer_menu`]; the serialized depth-0
//!    model is always choice 0;
//! 9. **CHORD overbooking** — Tailors-style capacity grants at expected
//!    occupancy ([`cello_core::ChordOverbook`]): sparse operands with
//!    measured `.mtx` occupancy give back the footprint slack they almost
//!    never fill, at the price of a modeled spill penalty when a tile
//!    overflows its grant. Enabled by a non-empty
//!    [`SpaceConfig::overbook_menu`] **and** a DAG that actually carries
//!    occupancy statistics — occupancy-free DAGs get no dimension (the
//!    knob cannot change their evaluation); the worst-case-dense level-0
//!    model is always choice 0.

use crate::candidate::Candidate;
use cello_core::chord::PriorityBias;
use cello_core::score::binding::{Binding, PipelineScope};
use cello_core::score::loop_order::{choose_loop_order, LoopOrder};
use cello_core::score::multinode::{dominant_partition_rank, Partition};
use cello_core::score::overbook::ChordOverbook;
use cello_core::score::repartition::{PhaseRepartition, PhaseSplit};
use cello_core::score::transfer::TransferTuning;
use cello_graph::dag::TensorDag;
use cello_graph::node::Dominance;

/// One selectable option within a [`Decision`].
#[derive(Clone, Debug, PartialEq)]
pub enum Choice {
    /// Scheduler feature preset (Table IV row shape).
    Preset {
        /// Pipelining realization scope.
        scope: PipelineScope,
        /// Serve delayed-hold edges from the pipeline buffer.
        enable_hold: bool,
        /// Fuse parallel-multicast siblings.
        enable_multicast: bool,
        /// Steer writeback/sequential operands to CHORD.
        enable_chord: bool,
    },
    /// SRAM partition: pipeline-buffer and RF words (CHORD gets the rest).
    SramSplit {
        /// Pipeline-buffer capacity in words.
        pipeline_words: u64,
        /// Register-file capacity in words.
        rf_words: u64,
    },
    /// Force (or don't) a cluster cut before `node`.
    Cut {
        /// Node index.
        node: usize,
        /// Whether the cut is applied.
        enabled: bool,
    },
    /// Steer `tensor` to `binding` (`Chord` = keep the heuristic default).
    Steer {
        /// Tensor name.
        tensor: String,
        /// Requested binding.
        binding: Binding,
    },
    /// Replace `node`'s loop order (`None` = keep the canonical order).
    OrderFlip {
        /// Node index.
        node: usize,
        /// The alternative order, if this choice applies one.
        order: Option<LoopOrder>,
    },
    /// Bias `tensor`'s RIFF `(freq, dist)` priority (`None` = keep the
    /// derived facts) — searching the SCORE→CHORD metadata interface
    /// itself, not just the bindings.
    ChordBias {
        /// Tensor name.
        tensor: String,
        /// The applied bias, if this choice applies one.
        bias: Option<PriorityBias>,
    },
    /// Run the schedule over a multi-node mesh (`Partition::single()` = the
    /// default single-node dataflow).
    Partition {
        /// Node count and parallelized axis.
        partition: Partition,
    },
    /// Repartition the SRAM per phase (`None` = the global split everywhere
    /// — the paper-heuristic default).
    Repartition {
        /// The fused/solo profile applied, if any.
        profile: Option<RepartitionProfile>,
    },
    /// Reorder DRAM transfers (`TransferTuning::off()` = the serialized
    /// depth-0 model — the paper-heuristic default).
    Transfer {
        /// The prefetch-depth/double-buffer tuning applied.
        tuning: TransferTuning,
    },
    /// Overbook CHORD capacity for occupancy-carrying sparse operands
    /// (`ChordOverbook::off()` = the worst-case-dense model — the
    /// paper-heuristic default).
    Overbook {
        /// The overbooking level applied.
        overbook: ChordOverbook,
    },
}

/// One per-phase SRAM split profile the repartition decision can apply.
/// Profiles are phase-structure-agnostic (fused vs solo clusters), so one
/// menu serves every candidate schedule of a space; `sram_words` is the
/// budget the splits were validated against.
#[derive(Clone, Debug, PartialEq)]
pub struct RepartitionProfile {
    /// SRAM capacity in words the splits respect.
    pub sram_words: u64,
    /// Split for fused (multi-op) pipeline clusters.
    pub fused: PhaseSplit,
    /// Split for solo clusters.
    pub solo: PhaseSplit,
}

impl RepartitionProfile {
    /// The default profile menu over an SRAM of `sram_words`: fused clusters
    /// keep a streaming-capable pipeline buffer (the paper split, then a fat
    /// one for wide-row DAGs), while solo clusters — which never stream a
    /// realized edge — donate the pipeline buffer and most of the RF to
    /// CHORD capacity. A *global* split can never express the donation: some
    /// phase always needs the buffer, so the global menu's floor is pinned
    /// by the fused clusters.
    pub fn menu(sram_words: u64) -> Vec<RepartitionProfile> {
        [
            (PhaseSplit::new(65_536, 16_384), PhaseSplit::new(0, 4_096)),
            (PhaseSplit::new(262_144, 16_384), PhaseSplit::new(0, 4_096)),
            (PhaseSplit::new(16_384, 4_096), PhaseSplit::new(0, 4_096)),
        ]
        .into_iter()
        .filter(|(fused, solo)| fused.fits(sram_words) && solo.fits(sram_words))
        .map(|(fused, solo)| RepartitionProfile {
            sram_words,
            fused,
            solo,
        })
        .collect()
    }

    /// The validated constraint this profile lowers to, or `None` for a
    /// profile whose splits overcommit its declared SRAM. [`Self::menu`]
    /// never produces such profiles, but the config fields are public —
    /// and like every other invalid constraint in the builder, a degenerate
    /// hand-built profile is dropped (the candidate keeps its global
    /// split), not a panic inside the tuner.
    pub fn to_constraint(&self) -> Option<PhaseRepartition> {
        PhaseRepartition::by_kind(self.sram_words, self.fused, self.solo).ok()
    }
}

/// One dimension of the space: a named set of mutually-exclusive choices.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Human-readable dimension name (shows up in the CLI output).
    pub name: String,
    /// The options; index 0 is always the paper-heuristic default.
    pub choices: Vec<Choice>,
}

/// Caps and menus bounding the generated space.
#[derive(Clone, Debug, PartialEq)]
pub struct SpaceConfig {
    /// Max cluster-cut decisions (largest-cluster joiners first).
    pub max_cut_points: usize,
    /// Max per-tensor steering decisions (largest footprints first).
    pub max_steer_tensors: usize,
    /// Max balanced-node loop-order decisions.
    pub max_loop_order_nodes: usize,
    /// Pipeline-buffer size menu in words (first = paper default).
    pub pipeline_words_choices: Vec<u64>,
    /// Register-file size menu in words (first = paper default).
    pub rf_words_choices: Vec<u64>,
    /// Node-count menu for the multi-node partition dimension. Counts > 1
    /// each contribute a dominant-rank-sliced and a stage-split choice;
    /// single-node is always available as the default. `vec![1]` (the
    /// default) disables the dimension entirely.
    pub node_choices: Vec<u64>,
    /// Max per-tensor CHORD `(freq, dist)` priority-bias decisions (largest
    /// CHORD footprints first; each adds a `1 + 2×|magnitudes|` dimension:
    /// neutral, then boost/demote per listed magnitude). 0 — the default —
    /// keeps the interface purely derived.
    pub max_chord_bias_tensors: usize,
    /// Bias magnitude levels offered per biased tensor (each contributes a
    /// `Boost(level)` and a `Demote(level)` choice). `vec![1]` — the default
    /// — reproduces the original ±1 menu; the widened config opens the full
    /// graded range `1..=MAX_BIAS_LEVEL`.
    pub chord_bias_magnitudes: Vec<u8>,
    /// Per-phase SRAM repartition profiles (fused/solo split pairs). Empty —
    /// the default — keeps the split a single global decision; a non-empty
    /// menu adds a repartition dimension with "no repartition" as choice 0.
    pub repartition_profiles: Vec<RepartitionProfile>,
    /// DRAM transfer-ordering menu (prefetch depth × double-buffering).
    /// Empty — the default — keeps the serialized depth-0 model and adds no
    /// dimension; a non-empty menu adds a transfer dimension with the
    /// serialized model as choice 0 (off entries in the menu are dropped —
    /// choice 0 already is the off tuning).
    pub transfer_menu: Vec<TransferTuning>,
    /// CHORD overbooking level menu. Empty — the default — keeps the
    /// worst-case-dense capacity model and adds no dimension; a non-empty
    /// menu adds an overbook dimension **only on DAGs that carry occupancy
    /// statistics** (level 0 / off entries are dropped — choice 0 already
    /// is the off level).
    pub overbook_menu: Vec<ChordOverbook>,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        Self {
            max_cut_points: 4,
            max_steer_tensors: 4,
            max_loop_order_nodes: 2,
            // Paper defaults first; then a lean split that donates SRAM to
            // CHORD and a fat pipeline buffer that takes it back.
            pipeline_words_choices: vec![65_536, 16_384, 262_144],
            rf_words_choices: vec![16_384, 4_096],
            node_choices: vec![1],
            max_chord_bias_tensors: 0,
            chord_bias_magnitudes: vec![1],
            repartition_profiles: Vec::new(),
            transfer_menu: Vec::new(),
            overbook_menu: Vec::new(),
        }
    }
}

impl SpaceConfig {
    /// The default space widened with a multi-node partition dimension.
    pub fn with_nodes(nodes: &[u64]) -> Self {
        Self {
            node_choices: nodes.to_vec(),
            ..Self::default()
        }
    }

    /// The exhaustive-scale space the tiered prefilter unlocks: more
    /// cluster-cut points and graded per-tensor CHORD priority biasing
    /// (the full `1..=MAX_BIAS_LEVEL` magnitude menu) on top of the default
    /// menus. Roughly 200× the default assignment count on CG — affordable
    /// under `Strategy::Prefiltered` with a tier-0 inner stage, wasteful to
    /// re-simulate exhaustively.
    pub fn widened() -> Self {
        Self {
            max_cut_points: 6,
            max_chord_bias_tensors: 2,
            chord_bias_magnitudes: (1..=cello_core::chord::MAX_BIAS_LEVEL).collect(),
            transfer_menu: Self::default_transfer_menu(),
            overbook_menu: Self::default_overbook_menu(),
            ..Self::default()
        }
    }

    /// The overbooking menu the widened space searches on occupancy-carrying
    /// DAGs: conservative (half the slack), moderate, and aggressive grants.
    /// The worst-case-dense level 0 is implicit choice 0 of the dimension,
    /// never part of the menu.
    pub fn default_overbook_menu() -> Vec<ChordOverbook> {
        vec![
            ChordOverbook::at(1),
            ChordOverbook::at(2),
            ChordOverbook::at(4),
        ]
    }

    /// The transfer-ordering menu the widened space searches: shallow
    /// single-buffered prefetch (idle-bandwidth only, no extra carve
    /// banks), then double-buffered depths 1/2/4 — deeper hiding for a
    /// bigger staging carve. The serialized depth-0 model is implicit
    /// choice 0 of the dimension, never part of the menu.
    pub fn default_transfer_menu() -> Vec<TransferTuning> {
        vec![
            TransferTuning::single_buffered(1),
            TransferTuning::double_buffered(1),
            TransferTuning::double_buffered(2),
            TransferTuning::double_buffered(4),
        ]
    }

    /// [`Self::widened`] plus the multi-node partition dimension.
    pub fn widened_with_nodes(nodes: &[u64]) -> Self {
        Self {
            node_choices: nodes.to_vec(),
            ..Self::widened()
        }
    }

    /// This space with the per-phase SRAM repartition dimension opened over
    /// an SRAM of `sram_words` (the default profile menu).
    pub fn with_repartition(self, sram_words: u64) -> Self {
        Self {
            repartition_profiles: RepartitionProfile::menu(sram_words),
            ..self
        }
    }
}

/// The derived decision list for one DAG.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Ordered decisions (assignment vectors index into these).
    pub decisions: Vec<Decision>,
}

impl SearchSpace {
    /// Derives the space from a DAG (see module docs for the dimensions).
    pub fn from_dag(dag: &TensorDag, cfg: &SpaceConfig) -> Self {
        let mut decisions = Vec::new();

        // 1. Scheduler presets: CELLO first, then the rest of Table IV.
        decisions.push(Decision {
            name: "preset".into(),
            choices: vec![
                preset(PipelineScope::Any, true, true, true), // CELLO
                preset(PipelineScope::AllPipelineOrHold, true, true, true),
                preset(PipelineScope::None, false, false, true), // PRELUDE-ish
                preset(PipelineScope::Any, true, true, false),
                preset(PipelineScope::SoleConsumer, false, false, false), // FLAT
                preset(PipelineScope::None, false, false, false),         // oracle
            ],
        });

        // 2. Multi-node partition (§V-B): single-node first, then per node
        // count a dominant-rank slice and a stage split. Skipped entirely
        // when the config lists no count above 1, so single-node spaces are
        // unchanged. Placed early so beam search settles the partition
        // before tuning the knobs that depend on per-node footprints.
        let mut partitions = vec![Choice::Partition {
            partition: Partition::single(),
        }];
        let sliceable = dominant_partition_rank(dag);
        for &n in cfg.node_choices.iter().filter(|&&n| n > 1) {
            if let Some(rank) = sliceable {
                partitions.push(Choice::Partition {
                    partition: Partition::by_rank(n, rank),
                });
            }
            partitions.push(Choice::Partition {
                partition: Partition::by_stage(n),
            });
        }
        if partitions.len() > 1 {
            decisions.push(Decision {
                name: "partition".into(),
                choices: partitions,
            });
        }

        // 3. SRAM split menu (paper default first by SpaceConfig contract).
        let mut splits = Vec::new();
        for &pw in &cfg.pipeline_words_choices {
            for &rw in &cfg.rf_words_choices {
                splits.push(Choice::SramSplit {
                    pipeline_words: pw,
                    rf_words: rw,
                });
            }
        }
        decisions.push(Decision {
            name: "sram-split".into(),
            choices: splits,
        });

        // 3b. Per-phase SRAM repartition (the Tailors/SoMa-style
        // phase-granular buffer decision): no repartition first, then the
        // configured fused/solo profiles. A profile overrides the global
        // sram-split dimension phase by phase, so both dimensions coexist —
        // the global split remains what un-profiled candidates (and the
        // drain pseudo-phase) use.
        if !cfg.repartition_profiles.is_empty() {
            let mut choices = vec![Choice::Repartition { profile: None }];
            choices.extend(
                cfg.repartition_profiles
                    .iter()
                    .map(|p| Choice::Repartition {
                        profile: Some(p.clone()),
                    }),
            );
            decisions.push(Decision {
                name: "repartition".into(),
                choices,
            });
        }

        // 3c. Transfer ordering (the SoMa-style DRAM communication-schedule
        // decision): serialized depth-0 first, then the configured
        // prefetch/double-buffer tunings. Off entries are dropped — they
        // would duplicate choice 0 and collapse onto the same schedule.
        if !cfg.transfer_menu.is_empty() {
            let mut choices = vec![Choice::Transfer {
                tuning: TransferTuning::off(),
            }];
            choices.extend(
                cfg.transfer_menu
                    .iter()
                    .map(|t| t.normalized())
                    .filter(|t| !t.is_off())
                    .map(|tuning| Choice::Transfer { tuning }),
            );
            if choices.len() > 1 {
                decisions.push(Decision {
                    name: "transfer".into(),
                    choices,
                });
            }
        }

        // 3d. CHORD overbooking (the Tailors-style expected-occupancy
        // grant): worst-case-dense level 0 first, then the configured
        // levels. Only DAGs that carry measured occupancy get the dimension
        // — on occupancy-free DAGs every level evaluates identically to
        // off, so offering it would multiply the space by pure duplicates.
        let carries_occupancy = dag.nodes().any(|(_, n)| n.output.occupancy.is_some())
            || dag.externals().iter().any(|x| x.meta.occupancy.is_some());
        if !cfg.overbook_menu.is_empty() && carries_occupancy {
            let mut choices = vec![Choice::Overbook {
                overbook: ChordOverbook::off(),
            }];
            choices.extend(
                cfg.overbook_menu
                    .iter()
                    .map(|o| o.normalized())
                    .filter(|o| !o.is_off())
                    .map(|overbook| Choice::Overbook { overbook }),
            );
            if choices.len() > 1 {
                decisions.push(Decision {
                    name: "overbook".into(),
                    choices,
                });
            }
        }

        // 4. Cluster cuts: nodes that actually join a cluster under the
        // fully-fused heuristic, biggest clusters first so the cuts that
        // matter most fit under the cap.
        let fused = Candidate::paper_heuristic().build(dag);
        let mut joiners: Vec<(usize, usize)> = Vec::new(); // (cluster size, node)
        for phase in &fused.phases {
            for &op in phase.ops.iter().skip(1) {
                joiners.push((phase.ops.len(), op.0));
            }
        }
        joiners.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, node) in joiners.iter().take(cfg.max_cut_points) {
            decisions.push(Decision {
                name: format!("cut@{node}"),
                choices: vec![
                    Choice::Cut {
                        node,
                        enabled: false,
                    },
                    Choice::Cut {
                        node,
                        enabled: true,
                    },
                ],
            });
        }

        // 5. Steering: CHORD-bound tensors by descending footprint.
        let mut chord_tensors: Vec<(u64, String)> = Vec::new();
        for (_, node) in dag.nodes() {
            if fused.binding_of(&node.output.name) == Binding::Chord {
                chord_tensors.push((node.output.words, node.output.name.clone()));
            }
        }
        for ext in dag.externals() {
            if fused.binding_of(&ext.meta.name) == Binding::Chord {
                chord_tensors.push((ext.meta.words, ext.meta.name.clone()));
            }
        }
        chord_tensors.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, tensor) in chord_tensors.iter().take(cfg.max_steer_tensors) {
            decisions.push(Decision {
                name: format!("steer@{tensor}"),
                choices: vec![
                    Choice::Steer {
                        tensor: tensor.clone(),
                        binding: Binding::Chord,
                    },
                    Choice::Steer {
                        tensor: tensor.clone(),
                        binding: Binding::Dram,
                    },
                ],
            });
        }

        // 6. CHORD priority biasing on the hottest CHORD-bound tensors: the
        // RIFF (freq, dist) metadata stops being a derived fact and becomes
        // a searched decision (neutral always first). Rides the same
        // footprint-ordered list as steering — the tensors whose residency
        // the bias can actually move.
        for (_, tensor) in chord_tensors.iter().take(cfg.max_chord_bias_tensors) {
            let mut choices = vec![Choice::ChordBias {
                tensor: tensor.clone(),
                bias: None,
            }];
            for &level in &cfg.chord_bias_magnitudes {
                choices.push(Choice::ChordBias {
                    tensor: tensor.clone(),
                    bias: Some(PriorityBias::Boost(level)),
                });
                choices.push(Choice::ChordBias {
                    tensor: tensor.clone(),
                    bias: Some(PriorityBias::Demote(level)),
                });
            }
            decisions.push(Decision {
                name: format!("bias@{tensor}"),
                choices,
            });
        }

        // 7. Loop-order flips on balanced nodes: the alternative is the pure
        // descending-extent order (no uncontracted-first promotion). Only
        // nodes where that actually differs get a decision.
        let mut flips = 0usize;
        for (nid, node) in dag.nodes() {
            if flips >= cfg.max_loop_order_nodes {
                break;
            }
            if node.dominance != Dominance::Balanced {
                continue;
            }
            let canonical = choose_loop_order(dag, nid);
            let mut ranks = node.spec.extents();
            ranks.sort_by(|a, b| b.effective.cmp(&a.effective).then(a.rank.cmp(&b.rank)));
            let flat = LoopOrder {
                order: ranks.into_iter().map(|r| r.rank).collect(),
            };
            if flat == canonical {
                continue;
            }
            decisions.push(Decision {
                name: format!("order@{}", nid.0),
                choices: vec![
                    Choice::OrderFlip {
                        node: nid.0,
                        order: None,
                    },
                    Choice::OrderFlip {
                        node: nid.0,
                        order: Some(flat),
                    },
                ],
            });
            flips += 1;
        }

        Self { decisions }
    }

    /// Number of full assignments (what exhaustive search enumerates).
    /// Saturates at `u64::MAX` instead of silently wrapping — the
    /// multi-node dimension can push combinatorial spaces past 2⁶⁴, and a
    /// wrapped size would make exhaustive enumeration think it was done
    /// after a sliver of the space.
    pub fn exhaustive_size(&self) -> u64 {
        self.decisions
            .iter()
            .map(|d| d.choices.len() as u64)
            .fold(1u64, u64::saturating_mul)
    }

    /// The all-defaults assignment (index 0 everywhere).
    pub fn default_picks(&self) -> Vec<usize> {
        vec![0; self.decisions.len()]
    }

    /// `samples` uniform seeded-random assignments — **the**
    /// `Strategy::Random` stream (one SplitMix64 draw per decision per
    /// sample, in order). The rank-correlation harnesses sample through
    /// this same method so "random candidates" means one thing everywhere.
    pub fn sample_assignments(&self, samples: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = crate::strategy::SplitMix64::new(seed);
        (0..samples)
            .map(|_| {
                self.decisions
                    .iter()
                    .map(|d| rng.below(d.choices.len() as u64) as usize)
                    .collect()
            })
            .collect()
    }

    /// **The** tier-0 sweep stream: the whole space in odometer order (the
    /// [`Self::index_to_picks`] order) when it holds at most `budget`
    /// assignments, `budget` seeded uniform draws otherwise (the
    /// [`Self::sample_assignments`] stream). Each assignment is lent to
    /// `visit` with its position in the stream, from one reused buffer.
    /// Returns how many were visited.
    pub(crate) fn sweep(
        &self,
        budget: u64,
        seed: u64,
        mut visit: impl FnMut(u64, &[usize]),
    ) -> u64 {
        let total = self.exhaustive_size();
        let radices: Vec<usize> = self.decisions.iter().map(|d| d.choices.len()).collect();
        let mut picks = vec![0usize; radices.len()];
        if total <= budget {
            for order in 0..total {
                visit(order, &picks);
                for (p, &radix) in picks.iter_mut().zip(&radices) {
                    *p += 1;
                    if *p < radix {
                        break;
                    }
                    *p = 0;
                }
            }
            total
        } else {
            let mut rng = crate::strategy::SplitMix64::new(seed);
            for order in 0..budget {
                for (p, &radix) in picks.iter_mut().zip(&radices) {
                    *p = rng.below(radix as u64) as usize;
                }
                visit(order, &picks);
            }
            budget
        }
    }

    /// Inverse of [`Self::assemble`] *across spaces*: the assignment of
    /// **this** space that best reproduces `candidate`, which may have been
    /// assembled by a different space (other node menus, other SRAM splits,
    /// another DAG-derived decision list). Decisions with no matching choice
    /// fall back to their paper-heuristic default, and candidate settings
    /// this space cannot express are dropped — projection is total, never an
    /// error. This is what lets `cello-serve` warm-start a search from a
    /// near-miss cache record: the cached Pareto candidates project into the
    /// new request's space as beam seeds.
    pub fn project(&self, candidate: &Candidate) -> Vec<usize> {
        let c = candidate;
        self.decisions
            .iter()
            .map(|d| {
                d.choices
                    .iter()
                    .position(|choice| match choice {
                        Choice::Preset {
                            scope,
                            enable_hold,
                            enable_multicast,
                            enable_chord,
                        } => {
                            c.options.scope == *scope
                                && c.options.enable_hold == *enable_hold
                                && c.options.enable_multicast == *enable_multicast
                                && c.options.enable_chord == *enable_chord
                        }
                        Choice::SramSplit {
                            pipeline_words,
                            rf_words,
                        } => {
                            c.options.pipeline_buffer_words == *pipeline_words
                                && c.options.rf_capacity_words == *rf_words
                        }
                        Choice::Cut { node, enabled } => {
                            c.constraints.cut_before.contains(node) == *enabled
                        }
                        Choice::Steer { tensor, binding } => {
                            c.constraints
                                .binding_overrides
                                .get(tensor)
                                .copied()
                                .unwrap_or(Binding::Chord)
                                == *binding
                        }
                        Choice::OrderFlip { node, order } => {
                            c.constraints.loop_orders.get(node) == order.as_ref()
                        }
                        Choice::ChordBias { tensor, bias } => {
                            c.constraints.chord_priority_bias.get(tensor).copied() == *bias
                        }
                        Choice::Partition { partition } => {
                            c.constraints.partition.unwrap_or_else(Partition::single) == *partition
                        }
                        Choice::Repartition { profile } => {
                            profile.as_ref().and_then(|p| p.to_constraint())
                                == c.constraints.phase_repartition
                        }
                        Choice::Transfer { tuning } => {
                            c.constraints
                                .transfer
                                .map(TransferTuning::normalized)
                                .unwrap_or_default()
                                == *tuning
                        }
                        Choice::Overbook { overbook } => {
                            c.constraints
                                .chord_overbook
                                .map(ChordOverbook::normalized)
                                .unwrap_or_default()
                                == *overbook
                        }
                    })
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Folds an assignment into a candidate. `picks` may be shorter than the
    /// decision list — unassigned decisions take their defaults — which is
    /// what beam search's partial prefixes rely on.
    pub fn assemble(&self, picks: &[usize]) -> Candidate {
        let mut c = Candidate::paper_heuristic();
        for (di, d) in self.decisions.iter().enumerate() {
            let pick = picks.get(di).copied().unwrap_or(0);
            apply_choice(&mut c, &d.choices[pick]);
        }
        c
    }

    /// Applies one decision's pick onto an already-assembled candidate —
    /// the incremental counterpart of [`Self::assemble`]. Because every
    /// default (index-0) choice is a no-op on the paper heuristic and each
    /// decision mutates disjoint candidate state, extending a prefix
    /// `picks[..di]`'s candidate with `apply_pick(c, di, pick)` yields
    /// exactly `assemble(picks[..di] ++ [pick])` — what lets beam search
    /// reuse prefix-built candidates instead of re-assembling the whole
    /// vector at every level.
    pub fn apply_pick(&self, c: &mut Candidate, decision: usize, pick: usize) {
        apply_choice(&mut *c, &self.decisions[decision].choices[pick]);
    }

    /// Decodes an exhaustive-enumeration index into an assignment vector
    /// (mixed-radix, decision 0 least significant — the odometer order
    /// `Strategy::Exhaustive` walks; the tests' random-access reference for
    /// it). Indices are taken modulo [`Self::exhaustive_size`].
    pub fn index_to_picks(&self, index: u64) -> Vec<usize> {
        let mut rem = index;
        self.decisions
            .iter()
            .map(|d| {
                let n = d.choices.len() as u64;
                let p = (rem % n) as usize;
                rem /= n;
                p
            })
            .collect()
    }
}

/// Applies one [`Choice`] to a candidate (see [`SearchSpace::apply_pick`]).
fn apply_choice(c: &mut Candidate, choice: &Choice) {
    match choice {
        Choice::Preset {
            scope,
            enable_hold,
            enable_multicast,
            enable_chord,
        } => {
            c.options.scope = *scope;
            c.options.enable_hold = *enable_hold;
            c.options.enable_multicast = *enable_multicast;
            c.options.enable_chord = *enable_chord;
        }
        Choice::SramSplit {
            pipeline_words,
            rf_words,
        } => {
            c.options.pipeline_buffer_words = *pipeline_words;
            c.options.rf_capacity_words = *rf_words;
        }
        Choice::Cut { node, enabled } => {
            if *enabled {
                c.constraints.cut_before.insert(*node);
            }
        }
        Choice::Steer { tensor, binding } => {
            if *binding != Binding::Chord {
                c.constraints
                    .binding_overrides
                    .insert(tensor.clone(), *binding);
            }
        }
        Choice::Partition { partition } => {
            if partition.is_multi() {
                c.constraints.partition = Some(*partition);
            }
        }
        Choice::OrderFlip { node, order } => {
            if let Some(order) = order {
                c.constraints.loop_orders.insert(*node, order.clone());
            }
        }
        Choice::ChordBias { tensor, bias } => {
            if let Some(bias) = bias {
                c.constraints
                    .chord_priority_bias
                    .insert(tensor.clone(), *bias);
            }
        }
        Choice::Repartition { profile } => {
            if let Some(rep) = profile.as_ref().and_then(|p| p.to_constraint()) {
                c.constraints.phase_repartition = Some(rep);
            }
        }
        Choice::Transfer { tuning } => {
            if !tuning.normalized().is_off() {
                c.constraints.transfer = Some(tuning.normalized());
            }
        }
        Choice::Overbook { overbook } => {
            if !overbook.normalized().is_off() {
                c.constraints.chord_overbook = Some(overbook.normalized());
            }
        }
    }
}

fn preset(
    scope: PipelineScope,
    enable_hold: bool,
    enable_multicast: bool,
    enable_chord: bool,
) -> Choice {
    Choice::Preset {
        scope,
        enable_hold,
        enable_multicast,
        enable_chord,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn default_assignment_is_paper_heuristic() {
        let dag = cg(2);
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        let c = space.assemble(&space.default_picks());
        assert_eq!(c, Candidate::paper_heuristic());
        // Partial (empty) prefix does the same.
        assert_eq!(space.assemble(&[]), Candidate::paper_heuristic());
    }

    #[test]
    fn cg_space_has_all_dimensions() {
        let dag = cg(2);
        let cfg = SpaceConfig::default();
        let space = SearchSpace::from_dag(&dag, &cfg);
        let names: Vec<&str> = space.decisions.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names[0], "preset");
        assert_eq!(names[1], "sram-split");
        assert_eq!(
            names.iter().filter(|n| n.starts_with("cut@")).count(),
            cfg.max_cut_points
        );
        assert_eq!(
            names.iter().filter(|n| n.starts_with("steer@")).count(),
            cfg.max_steer_tensors
        );
        assert!(space.exhaustive_size() >= 6 * 6 * 16 * 16);
    }

    /// Listing node counts adds a partition dimension with single-node as
    /// the default choice, dominant-rank + stage variants per count, and
    /// assembled candidates that carry the partition constraint.
    #[test]
    fn node_choices_add_partition_dimension() {
        let dag = cg(2);
        let cfg = SpaceConfig::with_nodes(&[1, 4, 16]);
        let space = SearchSpace::from_dag(&dag, &cfg);
        let pd = space
            .decisions
            .iter()
            .position(|d| d.name == "partition")
            .expect("partition decision present");
        let d = &space.decisions[pd];
        // 1 single-node default + (rank + stage) × {4, 16}.
        assert_eq!(d.choices.len(), 5);
        assert_eq!(
            d.choices[0],
            Choice::Partition {
                partition: Partition::single()
            }
        );
        // Default assignment still reproduces the paper heuristic.
        assert_eq!(
            space.assemble(&space.default_picks()),
            Candidate::paper_heuristic()
        );
        // A non-default pick lands in the constraints and builds validly.
        let mut picks = space.default_picks();
        picks[pd] = 1;
        let c = space.assemble(&picks);
        let p = c.constraints.partition.expect("partition constrained");
        assert!(p.is_multi());
        c.build(&dag).validate(&dag).unwrap();

        // Default config: no partition dimension at all.
        let plain = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        assert!(plain.decisions.iter().all(|d| d.name != "partition"));
    }

    /// The widened config adds graded bias decisions (neutral + boost/demote
    /// per magnitude level) on the hottest CHORD tensors, keeps neutral as
    /// choice 0, and assembled bias picks land in the constraints.
    #[test]
    fn widened_space_adds_chord_bias_dimension() {
        let dag = cg(2);
        let cfg = SpaceConfig::widened();
        let space = SearchSpace::from_dag(&dag, &cfg);
        let biases: Vec<&Decision> = space
            .decisions
            .iter()
            .filter(|d| d.name.starts_with("bias@"))
            .collect();
        assert_eq!(biases.len(), cfg.max_chord_bias_tensors);
        for d in &biases {
            // Neutral + {boost, demote} × {1, 2, 3}.
            assert_eq!(d.choices.len(), 1 + 2 * cfg.chord_bias_magnitudes.len());
            assert_eq!(d.choices.len(), 7);
            assert!(matches!(d.choices[0], Choice::ChordBias { bias: None, .. }));
        }
        // Defaults still reproduce the heuristic; a bias pick constrains.
        assert_eq!(
            space.assemble(&space.default_picks()),
            Candidate::paper_heuristic()
        );
        let bi = space
            .decisions
            .iter()
            .position(|d| d.name.starts_with("bias@"))
            .unwrap();
        let mut picks = space.default_picks();
        picks[bi] = 1;
        let c = space.assemble(&picks);
        assert_eq!(c.constraints.chord_priority_bias.len(), 1);
        c.build(&dag).validate(&dag).unwrap();
        // The default config emits no bias dimension at all.
        let plain = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        assert!(plain.decisions.iter().all(|d| !d.name.starts_with("bias@")));
        // Widening multiplies the assignment count as advertised (6 cut
        // points × 7² graded biases × 5 transfer tunings vs 4 cut points).
        assert_eq!(
            space.exhaustive_size(),
            plain.exhaustive_size() * 4 * 49 * 5,
            "two extra cuts (×4), two graded bias tensors (×49), transfer (×5)"
        );
    }

    /// A transfer menu adds its dimension with the serialized depth-0 model
    /// as choice 0, assembled picks land as normalized constraints, off
    /// entries dedupe onto choice 0, and the default config leaves the
    /// space untouched.
    #[test]
    fn transfer_menu_adds_dimension() {
        let dag = cg(2);
        let cfg = SpaceConfig::widened();
        let space = SearchSpace::from_dag(&dag, &cfg);
        let td = space
            .decisions
            .iter()
            .position(|d| d.name == "transfer")
            .expect("transfer decision present");
        let d = &space.decisions[td];
        assert_eq!(d.choices.len(), 1 + cfg.transfer_menu.len());
        assert_eq!(
            d.choices[0],
            Choice::Transfer {
                tuning: TransferTuning::off()
            }
        );
        // Defaults still reproduce the paper heuristic (no constraint).
        let base = space.assemble(&space.default_picks());
        assert_eq!(base, Candidate::paper_heuristic());
        assert!(base.constraints.transfer.is_none());
        // A non-default pick lands normalized in the constraints and builds
        // a schedule that carries it.
        let mut picks = space.default_picks();
        picks[td] = 2; // double_buffered(1)
        let c = space.assemble(&picks);
        assert_eq!(
            c.constraints.transfer,
            Some(TransferTuning::double_buffered(1))
        );
        let s = c.build(&dag);
        s.validate(&dag).unwrap();
        assert_eq!(s.transfer, TransferTuning::double_buffered(1));
        // Off/denormalized menu entries are dropped rather than duplicated.
        let degenerate = SpaceConfig {
            transfer_menu: vec![
                TransferTuning::off(),
                TransferTuning {
                    prefetch_depth: 0,
                    double_buffer: true,
                },
            ],
            ..SpaceConfig::default()
        };
        let degen_space = SearchSpace::from_dag(&dag, &degenerate);
        assert!(degen_space.decisions.iter().all(|d| d.name != "transfer"));
        // The default config emits no transfer dimension at all.
        let plain = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        assert!(plain.decisions.iter().all(|d| d.name != "transfer"));
    }

    /// An overbook menu adds its dimension only on occupancy-carrying DAGs,
    /// with the worst-case-dense level as choice 0; picks land as normalized
    /// constraints; occupancy-free DAGs (and the default config) are
    /// untouched.
    #[test]
    fn overbook_menu_gated_on_dag_occupancy() {
        use cello_tensor::sparse::OccupancyStats;
        // The plain CG test DAG carries no occupancy: no dimension even
        // under the widened config (every level would evaluate identically).
        let plain_dag = cg(2);
        let widened = SearchSpace::from_dag(&plain_dag, &SpaceConfig::widened());
        assert!(widened.decisions.iter().all(|d| d.name != "overbook"));
        // An occupancy-carrying DAG opens the dimension.
        let mut skew = OccupancyStats::dense();
        skew.mean = 0.25;
        skew.variance = 0.04;
        let dag = build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: Some(skew),
        });
        let cfg = SpaceConfig::widened();
        let space = SearchSpace::from_dag(&dag, &cfg);
        let od = space
            .decisions
            .iter()
            .position(|d| d.name == "overbook")
            .expect("overbook decision present");
        let d = &space.decisions[od];
        assert_eq!(d.choices.len(), 1 + cfg.overbook_menu.len());
        assert_eq!(
            d.choices[0],
            Choice::Overbook {
                overbook: ChordOverbook::off()
            }
        );
        // Defaults still reproduce the paper heuristic (no constraint).
        let base = space.assemble(&space.default_picks());
        assert_eq!(base, Candidate::paper_heuristic());
        assert!(base.constraints.chord_overbook.is_none());
        // A non-default pick lands normalized and the schedule carries it.
        let mut picks = space.default_picks();
        picks[od] = 1;
        let c = space.assemble(&picks);
        assert_eq!(c.constraints.chord_overbook, Some(ChordOverbook::at(1)));
        let s = c.build(&dag);
        s.validate(&dag).unwrap();
        assert_eq!(s.chord_overbook, ChordOverbook::at(1));
        // Off/denormalized menu entries dedupe away the whole dimension.
        let degenerate = SpaceConfig {
            overbook_menu: vec![ChordOverbook::off(), ChordOverbook { level: 0 }],
            ..SpaceConfig::default()
        };
        let degen = SearchSpace::from_dag(&dag, &degenerate);
        assert!(degen.decisions.iter().all(|d| d.name != "overbook"));
        // The default config emits no overbook dimension at all.
        let dflt = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        assert!(dflt.decisions.iter().all(|d| d.name != "overbook"));
    }

    /// `index_to_picks` decodes the exhaustive odometer: index 0 is the
    /// default assignment, consecutive indices step decision 0 first, and
    /// every decoded pick is in range.
    #[test]
    fn index_to_picks_decodes_odometer_order() {
        let dag = cg(2);
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened_with_nodes(&[1, 4]));
        assert_eq!(space.index_to_picks(0), space.default_picks());
        let one = space.index_to_picks(1);
        assert_eq!(one[0], 1);
        assert!(one[1..].iter().all(|&p| p == 0));
        let radix0 = space.decisions[0].choices.len() as u64;
        let carry = space.index_to_picks(radix0);
        assert_eq!(carry[0], 0);
        assert_eq!(carry[1], 1);
        for idx in [7u64, 1000, space.exhaustive_size() - 1] {
            for (p, d) in space.index_to_picks(idx).iter().zip(&space.decisions) {
                assert!(*p < d.choices.len());
            }
        }
    }

    /// `apply_pick` on a prefix-assembled candidate equals re-assembling the
    /// extended prefix — the identity incremental beam assembly relies on.
    #[test]
    fn apply_pick_matches_prefix_reassembly() {
        let dag = cg(2);
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened_with_nodes(&[1, 4]));
        for picks in space.sample_assignments(8, 23) {
            let mut inc = space.assemble(&[]);
            for (di, &p) in picks.iter().enumerate() {
                space.apply_pick(&mut inc, di, p);
                assert_eq!(inc, space.assemble(&picks[..=di]));
            }
            assert_eq!(inc, space.assemble(&picks));
        }
    }

    /// A repartition menu adds its dimension with "no repartition" as the
    /// default, assembled picks land as validated constraints, and the empty
    /// menu (the default config) leaves the space untouched.
    #[test]
    fn repartition_menu_adds_dimension() {
        let dag = cg(2);
        let cfg = SpaceConfig::default().with_repartition(1 << 20);
        let space = SearchSpace::from_dag(&dag, &cfg);
        let rd = space
            .decisions
            .iter()
            .position(|d| d.name == "repartition")
            .expect("repartition decision present");
        let d = &space.decisions[rd];
        assert_eq!(d.choices.len(), 1 + cfg.repartition_profiles.len());
        assert!(matches!(
            d.choices[0],
            Choice::Repartition { profile: None }
        ));
        // Defaults still reproduce the paper heuristic.
        assert_eq!(
            space.assemble(&space.default_picks()),
            Candidate::paper_heuristic()
        );
        // A profile pick constrains and builds a valid, active repartition.
        let mut picks = space.default_picks();
        picks[rd] = 1;
        let c = space.assemble(&picks);
        let rep = c
            .constraints
            .phase_repartition
            .as_ref()
            .expect("profile constrained");
        rep.validate().unwrap();
        let s = c.build(&dag);
        s.validate(&dag).unwrap();
        assert!(s.repartition_active());
        // The default config has no repartition dimension at all.
        let plain = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        assert!(plain.decisions.iter().all(|d| d.name != "repartition"));
    }

    /// Menu profiles always fit their declared SRAM (oversized entries are
    /// filtered), and a degenerate hand-built profile is dropped at
    /// assembly — advisory semantics, never a panic inside the tuner.
    #[test]
    fn repartition_menu_respects_sram_budget() {
        for sram in [1u64 << 20, 1 << 18, 1 << 15] {
            for p in RepartitionProfile::menu(sram) {
                assert!(p.fused.fits(sram) && p.solo.fits(sram), "{p:?}");
                p.to_constraint().expect("menu fits").validate().unwrap();
            }
        }
        // A tiny SRAM filters the fat profiles but keeps the space usable.
        assert!(RepartitionProfile::menu(1 << 15).len() < RepartitionProfile::menu(1 << 20).len());

        // Hand-built overcommitted profile through the public fields: the
        // assembled candidate keeps the global split instead of panicking.
        let dag = cg(1);
        let cfg = SpaceConfig {
            repartition_profiles: vec![RepartitionProfile {
                sram_words: 100,
                fused: PhaseSplit::new(1000, 0),
                solo: PhaseSplit::new(0, 0),
            }],
            ..SpaceConfig::default()
        };
        let space = SearchSpace::from_dag(&dag, &cfg);
        let rd = space
            .decisions
            .iter()
            .position(|d| d.name == "repartition")
            .unwrap();
        let mut picks = space.default_picks();
        picks[rd] = 1;
        let c = space.assemble(&picks);
        assert!(c.constraints.phase_repartition.is_none(), "dropped");
        assert_eq!(c, Candidate::paper_heuristic());
    }

    /// `project` inverts `assemble` within one space, and across spaces it
    /// keeps what the target space can express while defaulting the rest.
    #[test]
    fn project_inverts_assemble_and_degrades_across_spaces() {
        let dag = cg(2);
        let cfg = SpaceConfig::widened_with_nodes(&[1, 4]).with_repartition(1 << 20);
        let space = SearchSpace::from_dag(&dag, &cfg);
        // Within one space: every sampled assignment round-trips exactly
        // (assemble is injective up to constraint no-ops, and none of the
        // sampled dimensions here collapse).
        for picks in space.sample_assignments(16, 11) {
            let c = space.assemble(&picks);
            assert_eq!(space.assemble(&space.project(&c)), c);
        }
        // Across spaces: a multi-node candidate projected into a single-node
        // space keeps the shared decisions (preset, sram split, cuts) and
        // defaults the partition it cannot express.
        let small = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        let mut picks = space.default_picks();
        let pd = space
            .decisions
            .iter()
            .position(|d| d.name == "partition")
            .unwrap();
        let sd = space
            .decisions
            .iter()
            .position(|d| d.name == "sram-split")
            .unwrap();
        picks[pd] = 1; // 4-node rank slice
        picks[sd] = 1; // non-default split
        let c = space.assemble(&picks);
        let projected = small.assemble(&small.project(&c));
        assert!(projected.constraints.partition.is_none(), "inexpressible");
        assert_eq!(
            projected.options.pipeline_buffer_words, c.options.pipeline_buffer_words,
            "shared decisions survive"
        );
    }

    /// Regression: the enlarged multi-node space must not wrap `u64` —
    /// `exhaustive_size` saturates instead.
    #[test]
    fn exhaustive_size_saturates_instead_of_overflowing() {
        let huge = Decision {
            name: "x".into(),
            choices: vec![
                Choice::Cut {
                    node: 0,
                    enabled: false
                };
                1 << 16
            ],
        };
        let space = SearchSpace {
            decisions: vec![huge; 5], // (2^16)^5 = 2^80 ≫ u64::MAX
        };
        assert_eq!(space.exhaustive_size(), u64::MAX);
    }

    #[test]
    fn every_assembled_candidate_builds_valid_schedule() {
        let dag = cg(1);
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        // Walk a deterministic sample of assignments (stride through the
        // odometer) and validate each built schedule.
        let total = space.exhaustive_size();
        let stride = (total / 50).max(1);
        let mut idx = 0u64;
        while idx < total {
            let mut rem = idx;
            let picks: Vec<usize> = space
                .decisions
                .iter()
                .map(|d| {
                    let p = (rem % d.choices.len() as u64) as usize;
                    rem /= d.choices.len() as u64;
                    p
                })
                .collect();
            let c = space.assemble(&picks);
            c.build(&dag).validate(&dag).unwrap();
            idx += stride;
        }
    }
}
