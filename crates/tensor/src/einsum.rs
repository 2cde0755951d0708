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

    /// The contracted ranks: used by an input, absent from the output.
    pub fn contracted_ranks(&self) -> Vec<RankId> {
        self.all_ranks()
            .into_iter()
            .filter(|r| !self.output.contains(r))
            .collect()
    }

    /// The uncontracted ranks (those of the output).
    pub fn uncontracted_ranks(&self) -> Vec<RankId> {
        self.output.clone()
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

    /// True when the dominant rank is contracted — the "'C'" nodes of Fig 7
    /// (lines 2 and 5 of CG: `Δ = Pᵀ S`, `Γ = Rᵀ R` contract over the huge `k`).
    pub fn contracted_dominant(&self) -> bool {
        matches!(self.rank_kind(self.dominant().rank), RankKind::Contracted)
            && self.skew(4.0) == SkewClass::Skewed
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

    /// Number of words in one input operand (product of its ranks' effective
    /// extents — effective, because compressed tensors only store occupied
    /// positions).
    pub fn input_words(&self, idx: usize) -> u64 {
        self.inputs[idx]
            .iter()
            .map(|r| self.extents[r].effective)
            .product()
    }

    /// Number of words in the output tensor (outputs are dense: full extents).
    pub fn output_words(&self) -> u64 {
        self.output.iter().map(|r| self.extents[r].extent).product()
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
        assert_eq!(g.contracted_ranks(), vec![RankId::new("k")]);
        assert_eq!(
            g.uncontracted_ranks(),
            vec![RankId::new("m"), RankId::new("n")]
        );
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
        assert!(!g.contracted_dominant());
    }

    #[test]
    fn contraction_heavy_op_detected() {
        // Δ[n',n] = Σ_k P[k,n'] S[k,n] with huge k: contracted dominant ('C').
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
        assert!(spec.contracted_dominant());
        assert_eq!(spec.dominant().rank, RankId::new("k"));
    }

    #[test]
    fn balanced_gemm_is_not_contracted_dominant() {
        // 512^3: even though k ties for the max, all ranks are comparable, so the
        // operator is compute-friendly, not "contraction heavy".
        assert!(!gemm(512, 512, 512).contracted_dominant());
    }

    #[test]
    fn word_counts() {
        let g = gemm(100, 20, 8);
        assert_eq!(g.input_words(0), 2000);
        assert_eq!(g.input_words(1), 160);
        assert_eq!(g.output_words(), 800);
    }

    #[test]
    fn compressed_input_words_use_effective_extent() {
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
        assert_eq!(spec.input_words(0), 81_920 * 5); // nnz
        assert_eq!(spec.macs(), 81_920 * 5 * 16); // nnz * N
                                                  // B is indexed by full k rows but only effective are touched per row:
        assert_eq!(spec.input_words(1), 5 * 16);
        assert_eq!(spec.output_words(), 81_920 * 16);
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
