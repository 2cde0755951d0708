//! # cello-search — schedule auto-tuner over the SCORE × CHORD space
//!
//! The paper's central claim is that CHORD collapses the *buffer allocation*
//! search space (from ~10⁸⁰ explicit-scratchpad choices to `O(nodes+edges)`
//! policy inputs, §VI-B), leaving *schedule* search as the tractable
//! remaining problem. The seed repo counted that space
//! (`cello_core::search_space`) but never searched it: every schedule came
//! from the fixed [`ScheduleOptions`](cello_core::score::binding::ScheduleOptions)
//! presets. This crate is the missing design-space explorer:
//!
//! - [`space`]: derives the candidate dimensions from a
//!   [`TensorDag`](cello_graph::dag::TensorDag) — scheduler preset (the
//!   Table IV family), the SRAM split between pipeline buffer / RF / CHORD
//!   (the tiling knob: `pipeline_can_stream` gates which edges can realize,
//!   so a lean buffer that feeds CHORD risks blocking fusion on wide-row
//!   DAGs), cluster cuts, per-tensor buffer
//!   steering, loop-order flips on balanced nodes (the only nodes where
//!   §V-B leaves the order cost-neutral, so the search cannot exploit
//!   unmodeled intra-op costs), and — when
//!   [`SpaceConfig::node_choices`](space::SpaceConfig) lists counts above
//!   one — the §V-B multi-node partition (node count × dominant-rank-slice
//!   or stage-split axis, scored on NoC hop-bytes and per-node footprints);
//! - [`candidate`]: one point of that space — a `ScheduleOptions` plus a
//!   [`ScheduleConstraints`](cello_core::score::binding::ScheduleConstraints) —
//!   buildable into a valid [`Schedule`](cello_core::score::binding::Schedule)
//!   by construction;
//! - [`cost`]: the Pareto machinery over
//!   [`CostEstimate`](cello_sim::evaluate::CostEstimate)
//!   (cycles, DRAM bytes, NoC hop-bytes, energy);
//! - [`cache`]: a memo table keyed by the **canonicalized
//!   schedule** (not the candidate), so decision combinations that collapse
//!   to the same schedule are evaluated once;
//! - [`strategy`]: exhaustive enumeration (small DAGs), beam search with
//!   configurable width, a seeded random-sampling baseline, the symbolic
//!   [`Strategy::Tier0`] sweep, and the tiered [`Strategy::Prefiltered`]
//!   wrapper;
//! - [`tier0`]: the tier-0 asymptotic cost sketch — a closed-form
//!   `[dram, noc, spill, cycles]` vector computed per assignment from
//!   precomputed per-decision effects, no schedule built and no phase walk,
//!   pruned by symbolic Pareto dominance so only non-dominated sketches
//!   reach the concrete tiers;
//! - [`tuner`]: drives everything — candidates are scored one by one on
//!   the calling thread through `cello_sim::evaluate`'s cheap
//!   traffic+roofline path, the one cost model every concrete tier uses.
//!   Under `Strategy::Prefiltered` the traversal is scored into a tier-1 memo
//!   table and only its top-ranked fraction is promoted to the exact table
//!   (both tables live in one cache keyed by interned 128-bit schedule
//!   keys, read and written only on the calling thread);
//! - [`audit`]: funnel forensics — [`Tuner::tune_audited`] is `tune` plus
//!   post-hoc checks: it runs the same funnel path, ledgers where every
//!   candidate died (tier-0 prune, schedule dedup, tier-1 cut) from the
//!   counts that path returns, then cross-checks tier-0 sketch rank against
//!   exact sim rank and samples the pruned set for survivor loss.
//!
//! Every strategy is deterministic: scoring keeps input order,
//! ranking ties break on the canonical schedule key, and the random strategy
//! derives from an explicit seed.
//!
//! ```
//! use cello_search::{SpaceConfig, Strategy, Tuner};
//! use cello_core::accel::CelloConfig;
//! use cello_workloads::cg::{build_cg_dag, CgParams};
//!
//! let dag = build_cg_dag(&CgParams {
//!     m: 20_000, occupancy: 4.0, a_payload_words: 2 * 80_000 + 20_001,
//!     n: 16, nprime: 16, iterations: 2, a_occupancy: None,
//! });
//! let accel = CelloConfig::paper();
//! let tuner = Tuner::new(&dag, &accel, SpaceConfig::default());
//! let outcome = tuner.tune(&Strategy::Beam { width: 4 });
//! // The paper heuristic is always part of the explored space, so the tuned
//! // schedule can only match or beat it.
//! assert!(outcome.best_cycles.cost.cycles <= outcome.baseline.cost.cycles);
//! assert!(!outcome.pareto.is_empty());
//!
//! // Two-tier: rank the traversal in tier 1, promote the top 20% to tier 2.
//! let two_tier = tuner.tune(&Strategy::prefiltered(0.2, Strategy::Beam { width: 4 }));
//! assert!(two_tier.best_cycles.cost.cycles <= two_tier.baseline.cost.cycles);
//! assert!(two_tier.surrogate_scored > 0);
//!
//! // Three-tier: sketch-prune symbolically, rank the survivors in tier 1,
//! // promote the top 20% of those.
//! let funnel = tuner.tune(&Strategy::prefiltered(
//!     0.2,
//!     Strategy::Tier0 { budget: 512, keep: 32 },
//! ));
//! assert!(funnel.best_cycles.cost.cycles <= funnel.baseline.cost.cycles);
//! ```

#![forbid(unsafe_code)]

pub mod audit;
pub mod cache;
pub mod candidate;
pub mod cost;
pub mod fingerprint;
pub mod space;
pub mod strategy;
pub mod tier0;
pub mod tuner;

pub use audit::{spearman, AuditConfig, FunnelAudit};
pub use candidate::Candidate;
pub use cost::{pareto_front, Evaluated};
pub use fingerprint::{fingerprint, Fingerprint, Fnv128Writer, ScheduleKey};
pub use space::{Choice, Decision, RepartitionProfile, SearchSpace, SpaceConfig};
pub use strategy::Strategy;
pub use tier0::{Sketch, Tier0Model, Tier0Prune};
pub use tuner::{SearchOutcome, Tuner};

/// Tier 1 of [`Strategy::Prefiltered`] under its former name: the
/// simulator's [`evaluate_schedule`](cello_sim::evaluate::evaluate_schedule),
/// the one cost model of the funnel. It and `Prefiltered` remain for the
/// `cellobench` tune replay; collapsing the funnel to sketch → sim needs a
/// benchmark change first, and also deletes the tuner's tier-1 cut, the
/// tier-1 memo table and the ledger's `dropped` count (the audit's
/// `surrogate_dropped`), each in one place.
pub use cello_sim::evaluate::evaluate_schedule as surrogate_cost;
