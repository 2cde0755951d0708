//! Operation nodes and node dominance.
//!
//! Algorithm 2 speaks about nodes through two attributes:
//!
//! - **op kind** — only `tensor_mac` operations participate in pipelining
//!   (`if node.op ≠ tensor_mac: edge.dependency = sequential`); CG's tiny
//!   matrix inversions (`Λ = Δ⁻¹Γ`) are not MAC pipelines;
//! - **dominance** — whether the node's dominant (largest *effective*) rank is
//!   contracted ('C'), uncontracted ('U'), or whether all ranks are comparable
//!   ("bal", Fig 7). Contraction-dominant producers never pipeline: the bulk
//!   of their compute only *produces* the output (Challenge 2, §III-B).

use crate::edge::TensorMeta;
use cello_tensor::einsum::{EinsumSpec, RankKind};
use cello_tensor::shape::SkewClass;
use std::fmt;

/// What the node computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A multiply-accumulate einsum (GEMM / SpMM / tensor contraction).
    TensorMac,
    /// A small dense inverse (CG lines 2b and 6). Not a MAC pipeline.
    Inverse,
    /// Elementwise add/sub fused with a MAC (still MAC-like for scheduling).
    Elementwise,
}

/// Node dominance as drawn in Fig 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dominance {
    /// The dominant rank is uncontracted ('U') — candidate pipeline producer.
    Uncontracted,
    /// The dominant rank is contracted ('C') — contraction heavy, never
    /// pipelines with its consumer.
    Contracted,
    /// All ranks are big/comparable ("bal") — the DNN regime.
    Balanced,
}

impl fmt::Display for Dominance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dominance::Uncontracted => "U",
            Dominance::Contracted => "C",
            Dominance::Balanced => "bal",
        })
    }
}

/// Minimum effective extent for a rank to count as "big": when *every* rank
/// clears this, the node is "bal" regardless of aspect ratio. This captures
/// Fig 7's ResNet labels — conv2 contracts over K=1152 vs M=784 outputs, yet
/// the paper calls it balanced because no rank is register-file small and the
/// output is produced at a pipeline-friendly rate.
pub const BALANCED_MIN_EXTENT: u64 = 64;

/// Computes dominance from an einsum spec. `skew_threshold` separates
/// "one rank dwarfs the rest" from "all ranks big" (default 4.0 in SCORE);
/// nodes whose every effective extent reaches [`BALANCED_MIN_EXTENT`] are
/// balanced irrespective of the ratio.
pub fn dominance_of(spec: &EinsumSpec, skew_threshold: f64) -> Dominance {
    let all_big = spec
        .extents()
        .iter()
        .all(|r| r.effective >= BALANCED_MIN_EXTENT);
    if all_big || spec.skew(skew_threshold) == SkewClass::Balanced {
        return Dominance::Balanced;
    }
    match spec.rank_kind(spec.dominant().rank) {
        RankKind::Contracted => Dominance::Contracted,
        RankKind::Uncontracted => Dominance::Uncontracted,
    }
}

/// An operation node of the tensor dependency DAG.
#[derive(Clone, Debug)]
pub struct OpNode {
    /// Short label, e.g. `"1: S=A·P"` (Algorithm 1 line numbers).
    pub name: String,
    /// The einsum this node computes.
    pub spec: EinsumSpec,
    /// MAC vs inverse vs elementwise.
    pub kind: OpKind,
    /// Cached dominance (computed at insertion with the DAG's skew threshold).
    pub dominance: Dominance,
    /// MACs performed (effective, i.e. sparsity-aware).
    pub macs: u64,
    /// The tensor this node produces.
    pub output: TensorMeta,
}

impl OpNode {
    /// Builds a node, computing dominance and MACs from the spec.
    pub fn new(
        name: impl Into<String>,
        spec: EinsumSpec,
        kind: OpKind,
        output: TensorMeta,
        skew_threshold: f64,
    ) -> Self {
        let dominance = dominance_of(&spec, skew_threshold);
        let macs = spec.macs();
        Self {
            name: name.into(),
            spec,
            kind,
            dominance,
            macs,
            output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_tensor::shape::RankExtent;

    fn spec(m: u64, k: u64, n: u64) -> EinsumSpec {
        EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", m),
                RankExtent::dense("k", k),
                RankExtent::dense("n", n),
            ],
        )
    }

    #[test]
    fn uncontracted_dominant_node() {
        // CG line 3/4/7 shape: M x J x N with M huge.
        assert_eq!(
            dominance_of(&spec(81_920, 16, 16), 4.0),
            Dominance::Uncontracted
        );
    }

    #[test]
    fn contracted_dominant_node() {
        // CG line 2a/5 shape: contraction over huge k.
        let s = EinsumSpec::parse(
            "kp,kn->pn",
            &[
                RankExtent::dense("k", 81_920),
                RankExtent::dense("p", 16),
                RankExtent::dense("n", 16),
            ],
        );
        assert_eq!(dominance_of(&s, 4.0), Dominance::Contracted);
    }

    #[test]
    fn balanced_node() {
        assert_eq!(dominance_of(&spec(512, 512, 512), 4.0), Dominance::Balanced);
        // ResNet GEMM-lowered convs: every rank ≥ 64 ⇒ "bal" (Fig 7), even
        // conv2 whose contraction K=1152 exceeds M=784.
        assert_eq!(dominance_of(&spec(784, 512, 128), 4.0), Dominance::Balanced);
        assert_eq!(
            dominance_of(&spec(784, 1152, 128), 4.0),
            Dominance::Balanced
        );
        // A rank below the threshold re-enables skew classification.
        assert_eq!(
            dominance_of(&spec(784, 1152, 16), 4.0),
            Dominance::Contracted
        );
    }

    #[test]
    fn sparse_spmm_is_uncontracted_dominant() {
        // SpMM: contracted k compressed to occupancy 4 -> m dominates (Fig 7
        // caption: "the first operation is 'U' because the contracted rank is
        // compressed").
        let s = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 81_920),
                RankExtent::compressed("k", 81_920, 4),
                RankExtent::dense("n", 16),
            ],
        );
        assert_eq!(dominance_of(&s, 4.0), Dominance::Uncontracted);
    }

    #[test]
    fn node_caches_macs() {
        let out = TensorMeta::dense("Z", &["m", "n"], 800);
        let n = OpNode::new("op", spec(100, 8, 8), OpKind::TensorMac, out, 4.0);
        assert_eq!(n.macs, 100 * 8 * 8);
        assert_eq!(n.dominance, Dominance::Uncontracted);
        assert_eq!(n.output.name, "Z");
    }

    #[test]
    fn dominance_display() {
        assert_eq!(Dominance::Uncontracted.to_string(), "U");
        assert_eq!(Dominance::Contracted.to_string(), "C");
        assert_eq!(Dominance::Balanced.to_string(), "bal");
    }
}
