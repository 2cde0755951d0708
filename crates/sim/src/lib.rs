//! # cello-sim — accelerator performance/energy engine and Table IV baselines
//!
//! The paper evaluates schedule × buffer-hierarchy *combinations* (Table IV)
//! on a traffic-first model: DRAM bytes determine memory-bound phase time,
//! MACs determine compute-bound phase time, and a phase takes
//! `max(compute, memory)` (the paper notes "stalls due to memory bandwidth
//! dominate the delay", §VII-A1). This crate provides:
//!
//! - [`phases`]: the shared phase-walk planner — per-phase operand accesses
//!   (multicast-deduped, realized edges skipped, sliced footprints, RIFF
//!   metadata), compute shares and NoC hop-words, computed once per
//!   schedule and replayed by the engine;
//! - [`engine`]: replays a [`phases::PhasePlan`] phase by phase, issuing
//!   tensor-granular reads/writes to a [`backends::MemoryBackend`] and
//!   accumulating per-phase roofline timing; multi-node schedules
//!   ([`cello_core::Partition`], §V-B) additionally slice per-node tile
//!   footprints and charge NoC word-hop cycles/energy against the mesh;
//! - [`backends`]: the memory systems — explicit oracle (Flexagon-/FLAT-/
//!   SET-like), LRU/BRRIP caches (trace-driven, line-granular), and CHORD
//!   (operand-granular, PRELUDE+RIFF or PRELUDE-only);
//! - [`trace`]: the address map used by cache backends (versioned tensors
//!   alias the same physical buffer, as in-place solvers do);
//! - [`baselines`]: the Table IV configuration registry, the Table II
//!   capability matrix, and the runners that pair a configuration's schedule
//!   (single-node, or under a §V-B [`cello_core::Partition`]) with its
//!   backend;
//! - [`energy`]: off-chip + on-chip energy accounting (Fig 14/15);
//! - [`evaluate`]: the cheap cost path (traffic + roofline cycles + NoC
//!   hop-bytes + energy, no trace) that the `cello-search` DSE engine
//!   scores candidates with;
//! - [`overlap`]: the transfer-timing ledger — prefetch/double-buffer
//!   overlap ([`cello_core::TransferTuning`]) converted into exposed
//!   transfer cycles, the one place the engine times DRAM transfers;
//! - [`report`]: run reports, geomeans, TSV emission;
//! - [`obs`]: the cycles-model span tree — a [`RunReport`] rendered as a
//!   `cello_obs` span forest (model time, not wall clock) for the
//!   `cello_run --trace-out` Chrome-trace flame view.

#![forbid(unsafe_code)]

pub mod backends;
pub mod baselines;
pub mod energy;
pub mod engine;
pub mod evaluate;
pub mod obs;
pub mod overlap;
pub mod phases;
pub mod report;
pub mod trace;

pub use baselines::{run_config, ConfigKind};
pub use engine::run_schedule;
pub use evaluate::{evaluate_schedule, CostEstimate};
pub use report::RunReport;
