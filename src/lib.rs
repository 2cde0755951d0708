//! # cello — facade crate for the CELLO reproduction
//!
//! Re-exports the whole workspace under one roof so examples, integration
//! tests and downstream users can `use cello::…` without naming individual
//! crates. See `README.md` for the architecture overview (including the
//! `cello-search` auto-tuner, the `cello_dse` trajectory and `loadgen` driver in
//! `cello-bench`, and the `cello-serve` schedule-compilation daemon with
//! its `cello_client` tool).
//!
//! ```
//! use cello::tensor::ai_best_gemm;
//! // Paper Fig 2(a): a skewed GEMM has ~2 ops/byte at 4-byte words.
//! let ai = ai_best_gemm(524_288, 16, 16, 4);
//! assert!((ai.ops_per_byte() - 2.0).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]

pub use cello_core as core;
pub use cello_graph as graph;
pub use cello_mem as mem;
pub use cello_obs as obs;
pub use cello_search as search;
pub use cello_serve as serve;
pub use cello_sim as sim;
pub use cello_tensor as tensor;
pub use cello_workloads as workloads;
