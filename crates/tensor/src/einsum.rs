//! Einsum specifications.
//!
//! CELLO's workloads are "chains of Einsums" (§III-A). An [`EinsumSpec`]
//! captures one operation — its input tensors' rank lists and the output's —
//! in the TACO-style notation used by the paper:
//! `Z[m,n] = Σ_k A[m,k] · B[k,n]` is written `"mk,kn->mn"`.
//!
//! The spec knows which ranks are **contracted** (appear in an input but not in
//! the output) and which are **uncontracted**, which is the vocabulary
//! Algorithm 2 (dependency classification) and the loop-order rules (§V-B)
//! are written in.

use crate::shape::{dominant_rank, skew_class, RankExtent, RankId, SkewClass};
use std::collections::BTreeMap;
use std::fmt;

/// Whether a rank is contracted away by the operation or survives to the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankKind {
    /// Appears in the output (an "uncontracted" rank, `m`/`n` in a GEMM).
    Uncontracted,
    /// Summed over (the `k` rank of a GEMM); does not appear in the output.
    Contracted,
}

/// A parsed einsum such as `"mk,kn->mn"` with per-rank extents attached.
#[derive(Clone, Debug, PartialEq)]
pub struct EinsumSpec {
    /// Rank lists of each input tensor, in operand order.
    pub inputs: Vec<Vec<RankId>>,
    /// Rank list of the output tensor.
    pub output: Vec<RankId>,
    /// Extents for every rank mentioned anywhere in the spec.
    extents: BTreeMap<RankId, RankExtent>,
}

impl EinsumSpec {
    /// Parses `"mk,kn->mn"`-style notation where every rank is a single ASCII
    /// character, then attaches extents. Multi-character ranks can be added
    /// with [`EinsumSpec::from_parts`].
    ///
    /// # Panics
    /// Panics if the notation is malformed or if a rank lacks an extent.
    pub fn parse(notation: &str, extents: &[RankExtent]) -> Self {
        let (lhs, rhs) = notation
            .split_once("->")
            .unwrap_or_else(|| panic!("einsum {notation:?} missing '->'"));
        let inputs: Vec<Vec<RankId>> = lhs
            .split(',')
            .map(|t| t.chars().map(|c| RankId::new(&c.to_string())).collect())
            .collect();
        let output: Vec<RankId> = rhs.chars().map(|c| RankId::new(&c.to_string())).collect();
        Self::from_parts(inputs, output, extents)
    }

    /// Builds a spec from explicit rank lists (for multi-character ranks such
    /// as `n'` which we spell `np`).
    pub fn from_parts(
        inputs: Vec<Vec<RankId>>,
        output: Vec<RankId>,
        extents: &[RankExtent],
    ) -> Self {
        let map: BTreeMap<RankId, RankExtent> = extents.iter().map(|e| (e.rank, *e)).collect();
        let spec = Self {
            inputs,
            output,
            extents: map,
        };
        for rank in spec.all_ranks() {
            assert!(
                spec.extents.contains_key(&rank),
                "rank {rank} used in einsum but has no extent"
            );
        }
        spec
    }

    /// Every distinct rank mentioned in inputs or output, in first-use order.
    pub fn all_ranks(&self) -> Vec<RankId> {
        let mut seen = Vec::new();
        for list in self.inputs.iter().chain(std::iter::once(&self.output)) {
            for &r in list {
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
        }
        seen
    }

    /// Classifies one rank.
    pub fn rank_kind(&self, rank: RankId) -> RankKind {
        if self.output.contains(&rank) {
            RankKind::Uncontracted
        } else {
            RankKind::Contracted
        }
    }

    /// Extent record for a rank.
    pub fn extent(&self, rank: RankId) -> RankExtent {
        self.extents[&rank]
    }

    /// All extents, in rank order.
    pub fn extents(&self) -> Vec<RankExtent> {
        self.all_ranks().iter().map(|r| self.extents[r]).collect()
    }

    /// The dominant rank of the whole operation (largest effective extent),
    /// the quantity Algorithm 2's node "dominance" is defined over.
    pub fn dominant(&self) -> RankExtent {
        dominant_rank(&self.extents()).expect("einsum has at least one rank")
    }

    /// Skew classification over effective extents.
    pub fn skew(&self, threshold: f64) -> SkewClass {
        skew_class(&self.extents(), threshold)
    }

    /// Number of multiply-accumulates: the product of all effective rank extents
    /// that participate in the compute loop nest.
    pub fn macs(&self) -> u64 {
        self.all_ranks()
            .iter()
            .map(|r| self.extents[r].effective)
            .product()
    }
}

impl fmt::Display for EinsumSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ins: Vec<String> = self
            .inputs
            .iter()
            .map(|t| t.iter().map(|r| r.name()).collect::<Vec<_>>().join(""))
            .collect();
        let out: String = self
            .output
            .iter()
            .map(|r| r.name())
            .collect::<Vec<_>>()
            .join("");
        write!(f, "{}->{}", ins.join(","), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm(m: u64, k: u64, n: u64) -> EinsumSpec {
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
    fn parse_identifies_contracted_ranks() {
        let g = gemm(512, 512, 512);
        assert_eq!(g.rank_kind(RankId::new("k")), RankKind::Contracted);
        assert_eq!(g.rank_kind(RankId::new("m")), RankKind::Uncontracted);
    }

    #[test]
    fn macs_is_product_of_extents() {
        assert_eq!(gemm(512, 512, 512).macs(), 512 * 512 * 512);
        assert_eq!(gemm(524_288, 16, 16).macs(), 524_288 * 16 * 16);
    }

    #[test]
    fn regular_and_skewed_gemm_have_equal_macs() {
        // The paper's Fig 2 point: same multiplications, drastically different AI.
        assert_eq!(gemm(512, 512, 512).macs(), gemm(524_288, 16, 16).macs());
    }

    #[test]
    fn dominance_of_skewed_gemm_is_m() {
        let g = gemm(524_288, 16, 16);
        assert_eq!(g.dominant().rank, RankId::new("m"));
        assert_eq!(g.rank_kind(g.dominant().rank), RankKind::Uncontracted);
    }

    #[test]
    fn contraction_heavy_op_detected() {
        // Δ[n',n] = Σ_k P[k,n'] S[k,n] with huge k: the dominant rank is
        // contracted (a 'C' node under `cello_graph::node::dominance_of`).
        let spec = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("k"), RankId::new("np")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("np"), RankId::new("n")],
            &[
                RankExtent::dense("k", 81_920),
                RankExtent::dense("np", 16),
                RankExtent::dense("n", 16),
            ],
        );
        assert_eq!(spec.dominant().rank, RankId::new("k"));
        assert_eq!(spec.rank_kind(spec.dominant().rank), RankKind::Contracted);
    }

    #[test]
    fn compressed_rank_macs_use_effective_extent() {
        // SpMM: A is M x M with ~5 nnz per row -> k effective 5.
        let spec = EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("k")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[
                RankExtent::dense("m", 81_920),
                RankExtent::compressed("k", 81_920, 5),
                RankExtent::dense("n", 16),
            ],
        );
        assert_eq!(spec.macs(), 81_920 * 5 * 16); // nnz * N
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(gemm(4, 4, 4).to_string(), "mk,kn->mn");
    }

    #[test]
    #[should_panic(expected = "no extent")]
    fn missing_extent_panics() {
        let _ = EinsumSpec::parse("mk,kn->mn", &[RankExtent::dense("m", 4)]);
    }
}
