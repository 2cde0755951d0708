//! # cello-workloads — the paper's evaluation workloads (§VII, Table VI)
//!
//! Each workload is a **tensor dependency DAG builder** producing the
//! `cello-graph` IR that SCORE schedules and the simulator runs — with
//! versioned tensor names (`R@3`), per-edge consumer rank lists and exact
//! word footprints, unrolled across loop iterations so cross-iteration reuse
//! (CG's `A`, `X`, `P`, `R`) is visible to CHORD. The simulator reads only
//! shapes and sparsity structure, so no workload computes numeric values.
//!
//! Modules: [`datasets`] (Table VI registry + synthetic SuiteSparse/OMEGA
//! stand-ins), [`cg`] (Algorithm 1), [`bicgstab`], [`gcn`], [`resnet`]
//! (He et al. conv3_x residual block, GEMM-lowered), [`hpcg`] (Table I), and
//! [`power_iter`] (an extension workload).

pub mod bicgstab;
pub mod cg;
pub mod datasets;
pub mod gcn;
pub mod hpcg;
pub mod power_iter;
pub mod resnet;

pub use cg::{build_cg_dag, CgParams};
pub use datasets::{Dataset, DatasetKind};
