//! SCORE — Scheduler for Complex Inter-Operation Reuse (§V).
//!
//! SCORE takes the application as a [`cello_graph::TensorDag`] and produces a
//! [`binding::Schedule`]: which ops run concurrently as pipeline clusters
//! (Fig 8), which edges are *realized* as on-chip pipelining, and which buffer
//! each tensor is steered to (register file / pipeline buffer / CHORD / DRAM).
//!
//! - [`classify`]: Algorithm 2 — tensor-level dependency taxonomy;
//! - [`loop_order`]: per-op loop orders and the producer/consumer
//!   co-dependence conditions for pipelining (§V-B);
//! - [`tiling`]: whether a pipelined edge can stream through the pipeline
//!   buffer, and whether a small tensor fits the register file;
//! - [`binding`]: cluster formation and tensor→buffer steering (§V-C);
//! - [`multinode`]: the scalable multi-node dataflow (§V-B "Scalable
//!   Dataflow") — the mesh NoC model plus the [`multinode::Partition`]
//!   schedule decision (node count × rank-slice/stage-split axis) that
//!   `binding::build_schedule_with` validates and the simulator scores;
//! - [`repartition`]: the per-phase SRAM split
//!   ([`repartition::PhaseRepartition`]) — pipeline-buffer/RF reservations
//!   as a *per-cluster* decision, with CHORD resized at phase boundaries;
//! - [`transfer`]: DRAM transfer ordering ([`transfer::TransferTuning`]) —
//!   prefetch depth and double-buffering as a schedule decision, trading a
//!   staging carve out of CHORD for compute/transfer overlap;
//! - [`overbook`]: Tailors-style CHORD overbooking
//!   ([`overbook::ChordOverbook`]) — granting capacity at a sparse
//!   operand's *expected* occupancy with a modeled spill penalty, instead
//!   of its worst-case dense footprint.

pub mod binding;
pub mod classify;
pub mod loop_order;
pub mod multinode;
pub mod overbook;
pub mod repartition;
pub mod swizzle;
pub mod tiling;
pub mod transfer;
