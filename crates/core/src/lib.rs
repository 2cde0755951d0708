//! # cello-core — the CELLO contribution: SCORE + CHORD
//!
//! This crate implements the paper's two co-designed novelties and the glue
//! between them:
//!
//! - [`chord`]: the hybrid implicit/explicit buffer (§VI). Placement and
//!   replacement happen at **operand** (tensor) granularity: the
//!   [`chord::RiffIndexTable`] holds one 512-bit entry per tensor (Fig 10),
//!   the **PRELUDE** policy keeps the *head* of a spilling tensor resident and
//!   sends the tail to DRAM (Fig 9 left), and the **RIFF** policy evicts the
//!   tail of the lowest-priority resident tensor — priority = (reuse
//!   frequency, reuse distance) supplied by SCORE — to admit a hotter one
//!   (Fig 9 right).
//! - [`score`]: the software scheduler (§V). [`score::classify`] is
//!   Algorithm 2 (sequential / pipelineable / delayed-hold /
//!   delayed-writeback / parallel-multicast), [`score::loop_order`] enforces
//!   the pipelining co-dependence rules, [`score::binding`] forms pipeline
//!   clusters (Fig 8) and steers each tensor to RF / pipeline buffer / CHORD,
//!   [`score::tiling`] gates pipeline streaming and RF residency, and
//!   [`score::multinode`] is the scalable multi-node dataflow of §V-B.
//! - [`search_space`]: the §VI-B accounting showing why explicit scratchpad
//!   allocation explodes (~10⁸⁰ choices) while CHORD's policy space is
//!   `O(nodes + edges)` (~10²).
//! - [`accel`]: the Table V accelerator configuration (`CelloConfig`).

#![forbid(unsafe_code)]

pub mod accel;
pub mod chord;
pub mod score;
pub mod search_space;

pub use accel::CelloConfig;
pub use chord::{Chord, ChordConfig, ChordPolicyKind, PriorityBias, RiffPriority};
pub use score::binding::{
    build_schedule, build_schedule_with, Binding, Phase, Schedule, ScheduleConstraints,
    ScheduleOptions,
};
pub use score::classify::{classify, Classification, Dependency};
pub use score::multinode::{dominant_partition_rank, NocModel, Partition, PartitionAxis};
pub use score::overbook::{ChordOverbook, MAX_OVERBOOK_LEVEL};
pub use score::repartition::{PhaseRepartition, PhaseSplit, PhaseSplits, RepartitionError};
pub use score::transfer::TransferTuning;
