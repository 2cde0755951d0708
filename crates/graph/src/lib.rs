//! # cello-graph — tensor-dependency DAG IR
//!
//! Tensor-algebra applications are "chains of Einsums" whose intermediate
//! tensors form a *tensor dependency graph* (paper §III-A, Fig 1). This crate
//! is the IR those applications are lowered to and the substrate SCORE's
//! Algorithm 2 runs on:
//!
//! - [`node`]: operation nodes — einsum spec, op kind (`tensor_mac` vs the
//!   small inverse ops Algorithm 2 forces sequential), node *dominance*
//!   ('U'/'C'/"bal" in Fig 7);
//! - [`edge`]: producer→consumer edges carrying the intermediate tensor, with
//!   the rank names the consumer sees (needed for the "unshared" test);
//! - [`dag`]: the graph itself — topological order, **transitive edge**
//!   detection and **longest paths** (both load-bearing in Algorithm 2);
//! - [`dot`]: Graphviz rendering used by the Fig 7 harness.
//!
//! The reuse metadata SCORE hands CHORD's RIFF policy (Fig 10's `Freq` and
//! `Dist` columns) is derived per access by `cello_sim::phases`, where the
//! schedule's realized edges are known.

pub mod dag;
pub mod dot;
pub mod edge;
pub mod metrics;
pub mod node;

pub use dag::{EdgeId, NodeId, TensorDag};
pub use edge::{Edge, TensorMeta};
pub use metrics::{metrics, DagMetrics};
pub use node::{Dominance, OpKind, OpNode};
