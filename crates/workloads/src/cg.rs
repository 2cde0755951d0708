//! Block Conjugate Gradient (paper Algorithm 1): DAG builder.
//!
//! Block CG solves `A·X = B` for `N` right-hand sides simultaneously
//! (Eq 2). One loop iteration is the 7-operation cascade of Fig 1:
//!
//! ```text
//! 1   S = A·P            SpMM                      (U: contracted rank compressed)
//! 2a  Δ = Pᵀ·S           contraction over M        (C)
//! 2b  Λ = Δ⁻¹·Γ          small inverse             (op ≠ tensor_mac)
//! 3   X = X + P·Λ        skewed GEMM + add         (U)
//! 4   R = R − S·Λ        skewed GEMM + sub         (U)
//! 5   Γ = Rᵀ·R           contraction over M        (C)
//! 6   Φ = Γ_prev⁻¹·Γ     small inverse             (op ≠ tensor_mac)
//! 7   P = R + P·Φ        skewed GEMM + add         (U)
//! ```
//!
//! [`build_cg_dag`] unrolls `iterations` copies with versioned tensor names
//! and all cross-iteration edges, so SCORE sees the delayed dependencies the
//! paper highlights: `S→4` and `R→7`/`R→4'` (delayed writeback), `X→3'`
//! (classified pipelineable but unrealizable across clusters → CHORD), `A`
//! reused every iteration, and the Greek tensors in the register file.

use cello_graph::dag::{NodeId, TensorDag};
use cello_graph::edge::TensorMeta;
use cello_graph::node::OpKind;
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::{RankExtent, RankId};
use cello_tensor::sparse::{CsrMatrix, OccupancyStats};

/// Row-block granularity for occupancy statistics: aim for ~64 blocks so the
/// histogram resolves structure without micro-blocking tiny matrices.
pub(crate) const OCCUPANCY_BLOCK_TARGET: usize = 64;

/// Shape parameters of a CG problem (Table VI/VII).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgParams {
    /// Large dimension `M` (matrix order).
    pub m: u64,
    /// Average non-zeros per row of `A`.
    pub occupancy: f64,
    /// CSR payload of `A` in words (values + indices + pointers).
    pub a_payload_words: u64,
    /// Block width `N` (number of simultaneous right-hand sides).
    pub n: u64,
    /// `N'` (equal to `N` in the paper's runs).
    pub nprime: u64,
    /// CG loop iterations to unroll (Table VII: 10).
    pub iterations: u32,
    /// Measured per-row-block occupancy statistics of `A` when built from a
    /// real matrix ([`CgParams::from_csr`]). `None` keeps the worst-case
    /// dense footprint model.
    pub a_occupancy: Option<OccupancyStats>,
}

impl CgParams {
    /// Builds from a dataset registry entry.
    pub fn from_dataset(d: &crate::datasets::Dataset, n: u64, iterations: u32) -> Self {
        Self {
            m: d.m as u64,
            occupancy: d.occupancy(),
            a_payload_words: d.csr_payload_words(),
            n,
            nprime: n,
            iterations,
            a_occupancy: None,
        }
    }

    /// Builds from an actual sparse matrix — e.g. a real SuiteSparse
    /// pattern loaded with [`crate::datasets::load_matrix_market`] — so the
    /// DAG's footprints and occupancy reflect the file's true sparsity
    /// rather than a registry entry's published statistics. The per-row-block
    /// occupancy histogram of `A` rides along for the overbooking model.
    pub fn from_csr(a: &CsrMatrix, n: u64, iterations: u32) -> Self {
        let block_rows = a.rows().div_ceil(OCCUPANCY_BLOCK_TARGET).max(1);
        Self {
            m: a.rows() as u64,
            occupancy: a.occupancy(),
            a_payload_words: a.payload_words(),
            n,
            nprime: n,
            iterations,
            a_occupancy: Some(a.occupancy_stats(block_rows)),
        }
    }

    /// Words of one skewed `M×N` tensor (`P`, `R`, `S`, `X`).
    pub fn big_words(&self) -> u64 {
        self.m * self.n
    }

    /// Words of one small `N'×N` tensor (`Δ`, `Λ`, `Γ`, `Φ`).
    pub fn small_words(&self) -> u64 {
        self.nprime * self.n
    }

    /// Effective nnz used for MAC counting.
    pub fn nnz(&self) -> u64 {
        (self.m as f64 * self.occupancy).round() as u64
    }
}

/// Rank extents for one CG iteration's einsums.
struct CgRanks {
    m: RankExtent,
    k_sparse: RankExtent,
    k_dense: RankExtent,
    j: RankExtent,
    n: RankExtent,
    p: RankExtent,
}

impl CgRanks {
    fn new(prm: &CgParams) -> Self {
        let occ = prm.occupancy.ceil().max(1.0) as u64;
        Self {
            m: RankExtent::dense("m", prm.m),
            k_sparse: RankExtent::compressed("k", prm.m, occ.min(prm.m)),
            k_dense: RankExtent::dense("k", prm.m),
            j: RankExtent::dense("j", prm.nprime),
            n: RankExtent::dense("n", prm.n),
            p: RankExtent::dense("p", prm.nprime),
        }
    }

    /// SpMM `S[m,n] = Σ_k A[m,k]·P[k,n]` (compressed k).
    fn spmm(&self) -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("k")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[self.m, self.k_sparse, self.n],
        )
    }

    /// Contraction `Δ[p,n] = Σ_k P[k,p]·S[k,n]` (dense huge k).
    fn contraction(&self) -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new("k"), RankId::new("p")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("p"), RankId::new("n")],
            &[self.k_dense, self.p, self.n],
        )
    }

    /// Skewed update `Z[m,n] = Σ_j T[m,j]·W[j,n]` (lines 3/4/7).
    fn update(&self) -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new("m"), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[self.m, self.j, self.n],
        )
    }

    /// Small op `Λ[p,n] = Δ⁻¹[p,j]·Γ[j,n]` (lines 2b/6).
    fn small(&self) -> EinsumSpec {
        EinsumSpec::from_parts(
            vec![
                vec![RankId::new("p"), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new("p"), RankId::new("n")],
            &[self.p, self.j, self.n],
        )
    }
}

/// Node ids of one unrolled CG iteration.
#[derive(Clone, Copy, Debug)]
pub struct CgIterationNodes {
    /// Line 1 (SpMM).
    pub n1: NodeId,
    /// Line 2 contraction.
    pub n2a: NodeId,
    /// Line 2 inverse.
    pub n2b: NodeId,
    /// Line 3.
    pub n3: NodeId,
    /// Line 4.
    pub n4: NodeId,
    /// Line 5.
    pub n5: NodeId,
    /// Line 6.
    pub n6: NodeId,
    /// Line 7.
    pub n7: NodeId,
}

/// Builds the unrolled CG tensor dependency DAG (Fig 1 across iterations).
pub fn build_cg_dag(prm: &CgParams) -> TensorDag {
    let r = CgRanks::new(prm);
    let mut dag = TensorDag::new();
    let big = |name: String, w: u64| TensorMeta::dense(name, &["m", "n"], w);
    let small = |name: String, w: u64| TensorMeta::dense(name, &["p", "n"], w);
    let bw = prm.big_words();
    let sw = prm.small_words();

    let mut iters: Vec<CgIterationNodes> = Vec::with_capacity(prm.iterations as usize);
    for i in 1..=prm.iterations {
        let n1 = dag.add_op(
            format!("1@{i}:S=A·P"),
            r.spmm(),
            OpKind::TensorMac,
            big(format!("S@{i}"), bw),
        );
        let n2a = dag.add_op(
            format!("2a@{i}:Δ=PᵀS"),
            r.contraction(),
            OpKind::TensorMac,
            small(format!("D@{i}"), sw),
        );
        let n2b = dag.add_op(
            format!("2b@{i}:Λ=Δ⁻¹Γ"),
            r.small(),
            OpKind::Inverse,
            small(format!("L@{i}"), sw),
        );
        let n3 = dag.add_op(
            format!("3@{i}:X+=PΛ"),
            r.update(),
            OpKind::TensorMac,
            big(format!("X@{i}"), bw),
        );
        let n4 = dag.add_op(
            format!("4@{i}:R-=SΛ"),
            r.update(),
            OpKind::TensorMac,
            big(format!("R@{i}"), bw),
        );
        let n5 = dag.add_op(
            format!("5@{i}:Γ=RᵀR"),
            r.contraction(),
            OpKind::TensorMac,
            small(format!("G@{i}"), sw),
        );
        let n6 = dag.add_op(
            format!("6@{i}:Φ=Γp⁻¹Γ"),
            r.small(),
            OpKind::Inverse,
            small(format!("F@{i}"), sw),
        );
        let n7 = dag.add_op(
            format!("7@{i}:P=R+PΦ"),
            r.update(),
            OpKind::TensorMac,
            big(format!("P@{i}"), bw),
        );

        // Intra-iteration edges.
        dag.add_edge(n1, n2a, &["k", "n"]); // S into the contraction
        dag.add_edge(n2a, n2b, &["p", "j"]); // Δ
        dag.add_edge(n2b, n3, &["j", "n"]); // Λ multicast …
        dag.add_edge(n2b, n4, &["j", "n"]); // … to 3 and 4
        dag.add_edge(n1, n4, &["m", "j"]); // S delayed (via 2a/2b)
        dag.add_edge(n4, n5, &["k", "n"]); // R into the contraction
        dag.add_edge(n5, n6, &["j", "n"]); // Γ
        dag.add_edge(n6, n7, &["j", "n"]); // Φ
        dag.add_edge(n4, n7, &["m", "j"]); // R delayed (via 5/6)

        // Cross-iteration edges from the previous iteration.
        if let Some(prev) = iters.last().copied() {
            dag.add_edge(prev.n7, n1, &["k", "n"]); // P into SpMM (unshared)
            dag.add_edge(prev.n7, n2a, &["k", "p"]); // P into Δ
            dag.add_edge(prev.n7, n3, &["m", "j"]); // P into X update
            dag.add_edge(prev.n7, n7, &["m", "j"]); // P into the next P
            dag.add_edge(prev.n3, n3, &["m", "n"]); // X accumulator
            dag.add_edge(prev.n4, n4, &["m", "n"]); // R accumulator
            dag.add_edge(prev.n5, n2b, &["j", "n"]); // Γ into Λ
            dag.add_edge(prev.n5, n6, &["p", "j"]); // Γ_prev into Φ
        }
        iters.push(CgIterationNodes {
            n1,
            n2a,
            n2b,
            n3,
            n4,
            n5,
            n6,
            n7,
        });
    }

    // External inputs.
    let first = iters[0];
    let a_consumers: Vec<(NodeId, &[&str])> = iters
        .iter()
        .map(|it| (it.n1, ["m", "k"].as_slice()))
        .collect();
    let mut a_meta = TensorMeta::sparse("A", &["m", "k"], prm.a_payload_words);
    if let Some(occ) = prm.a_occupancy {
        a_meta = a_meta.with_occupancy(occ);
    }
    dag.add_external(a_meta, &a_consumers);
    dag.add_external(
        TensorMeta::dense("P@0", &["m", "n"], bw),
        &[
            (first.n1, &["k", "n"]),
            (first.n2a, &["k", "p"]),
            (first.n3, &["m", "j"]),
            (first.n7, &["m", "j"]),
        ],
    );
    dag.add_external(
        TensorMeta::dense("X@0", &["m", "n"], bw),
        &[(first.n3, &["m", "n"])],
    );
    dag.add_external(
        TensorMeta::dense("R@0", &["m", "n"], bw),
        &[(first.n4, &["m", "n"])],
    );
    dag.add_external(
        TensorMeta::dense("G@0", &["p", "n"], sw),
        &[(first.n2b, &["j", "n"]), (first.n6, &["p", "j"])],
    );
    dag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CgParams {
        CgParams {
            m: 81_920,
            occupancy: 4.0,
            a_payload_words: 2 * 327_680 + 81_921,
            n: 16,
            nprime: 16,
            iterations: 3,
            a_occupancy: None,
        }
    }

    #[test]
    fn dag_shape() {
        let dag = build_cg_dag(&params());
        assert_eq!(dag.node_count(), 8 * 3);
        // 9 intra edges per iteration + 8 cross-iteration edges per boundary.
        assert_eq!(dag.edge_count(), 9 * 3 + 8 * 2);
        assert_eq!(dag.externals().len(), 5);
    }

    #[test]
    fn dominances_match_fig7() {
        use cello_graph::node::Dominance;
        let dag = build_cg_dag(&params());
        let doms: Vec<Dominance> = dag.nodes().take(8).map(|(_, n)| n.dominance).collect();
        assert_eq!(
            doms,
            vec![
                Dominance::Uncontracted, // 1 (compressed k)
                Dominance::Contracted,   // 2a
                Dominance::Balanced,     // 2b (all small)
                Dominance::Uncontracted, // 3
                Dominance::Uncontracted, // 4
                Dominance::Contracted,   // 5
                Dominance::Balanced,     // 6
                Dominance::Uncontracted, // 7
            ]
        );
    }

    #[test]
    fn macs_accounting() {
        let dag = build_cg_dag(&params());
        let spmm_macs = dag.node(NodeId(0)).macs;
        assert_eq!(spmm_macs, 81_920 * 4 * 16); // nnz × N
        let contraction_macs = dag.node(NodeId(1)).macs;
        assert_eq!(contraction_macs, 81_920 * 16 * 16);
    }
}
