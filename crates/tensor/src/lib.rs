//! # cello-tensor — tensor substrate for the CELLO reproduction
//!
//! This crate provides everything the CELLO accelerator study needs to
//! *describe* tensor algebra (the simulator reads shapes and sparsity
//! structure, never numeric results):
//!
//! - [`shape`]: ranks, extents, and skewness metrics (skewed GEMMs are the paper's
//!   central motivation, §III-A);
//! - [`einsum`]: einsum specifications (`"mk,kn->mn"`) with named ranks, contracted
//!   and uncontracted rank queries;
//! - [`intensity`]: arithmetic-intensity and roofline arithmetic (paper Fig 2,
//!   Eq 3–4);
//! - [`layout`]: row-/column-major layouts and swizzle (layout transformation)
//!   accounting (Challenge 4, §III-B);
//! - [`sparse`]: CSR sparse matrices with a COO builder and block-occupancy
//!   statistics (CG's `A` operand, §V-B "Handling sparsity");
//! - [`gen`]: synthetic dataset generators standing in for SuiteSparse matrices
//!   and OMEGA graphs (see DESIGN.md §2 for the substitution argument).

pub mod einsum;
pub mod gen;
pub mod intensity;
pub mod layout;
pub mod shape;
pub mod sparse;

pub use einsum::{EinsumSpec, RankKind};
pub use intensity::{ai_best_gemm, ai_skewed_limit, ArithmeticIntensity};
pub use layout::Layout;
pub use shape::{RankExtent, RankId, Shape2D, SkewClass};
pub use sparse::{CooMatrix, CsrMatrix};
