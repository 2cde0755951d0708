//! Block Conjugate Gradient (paper Algorithm 1): numeric solver + DAG builder.
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
//! [`solve_block_cg`] is the numeric algorithm over real kernels.

use cello_graph::dag::{NodeId, TensorDag};
use cello_graph::edge::TensorMeta;
use cello_graph::node::OpKind;
use cello_tensor::dense::DenseMatrix;
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::kernels::{add, gemm, gemm_at_b, invert_small, spmm, sub};
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

/// Result of a numeric block-CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// The solution block `X` (`M × N`).
    pub x: DenseMatrix,
    /// Iterations actually run.
    pub iterations_run: u32,
    /// Worst (max) squared column residual norm among unconverged columns
    /// after each iteration — `max(diag(Γ))` over the whole block while no
    /// column has deflated.
    pub residual_history: Vec<f64>,
    /// Whether `diag(Γ) ≤ ε` was reached.
    pub converged: bool,
}

/// Numeric block CG (Algorithm 1) on real kernels.
///
/// ```
/// use cello_tensor::dense::DenseMatrix;
/// use cello_tensor::gen::laplacian_2d;
/// use cello_workloads::cg::solve_block_cg;
///
/// let a = laplacian_2d(12, 12); // 144×144 SPD Poisson matrix
/// let mut b = DenseMatrix::zeros(144, 2);
/// for i in 0..144 { b.set(i, 0, 1.0); b.set(i, 1, (i % 3) as f64); }
/// let res = solve_block_cg(&a, &b, 500, 1e-12);
/// assert!(res.converged);
/// ```
///
/// Block CG can *break down* when the search-direction block loses rank
/// (columns of `P` become dependent as individual right-hand sides converge
/// at different rates, driving `Γ_prev` numerically singular). Like
/// production block solvers, we handle this by **deflation**: converged
/// columns leave the active block, and each restart phase solves the
/// column-normalized correction system `A·Y = R·D⁻¹` so `Δ` and `Γ` stay
/// well-scaled regardless of per-column residual spread. A phase ends on
/// per-column convergence, conditioning loss, stagnation, or inversion
/// failure (rank-deficient blocks additionally drop to one column at a
/// time); the outer loop then recomputes the true residual and re-deflates.
pub fn solve_block_cg(a: &CsrMatrix, b: &DenseMatrix, max_iters: u32, eps: f64) -> CgResult {
    assert_eq!(a.rows(), a.cols(), "CG needs a square matrix");
    assert_eq!(a.rows(), b.rows(), "rhs row mismatch");
    // A column is done when its squared residual falls below the caller's
    // eps — or below a relative guard near machine precision, so stalled
    // columns deflate instead of poisoning Γ for the others.
    const REL_FLOOR: f64 = 1e-28;
    let n = b.cols();
    let floors: Vec<f64> = (0..n).map(|j| eps.max(col_sq(b, j) * REL_FLOOR)).collect();
    let mut x = DenseMatrix::zeros(b.rows(), n);
    let mut history = Vec::new();
    let mut converged = false;
    let mut it = 0u32;
    // Block phases share one Krylov space across right-hand sides. When the
    // residual columns go (near-)collinear, Γ turns numerically singular and
    // the conjugacy recurrence blows up; a phase that fails to reduce the
    // residual demotes the solve to per-column scalar phases (the same 7-op
    // cascade with 1×1 Δ/Γ/Φ), which cannot break down.
    let mut scalar_mode = false;
    let mut round = 0usize;
    while it < max_iters {
        // True residual, recomputed per phase (kills incremental drift).
        let resid = sub(b, &spmm(a, &x));
        let all_active: Vec<usize> = (0..n).filter(|&j| col_sq(&resid, j) > floors[j]).collect();
        if all_active.is_empty() {
            converged = true;
            break;
        }
        let active: Vec<usize> = if scalar_mode {
            vec![all_active[round % all_active.len()]]
        } else {
            all_active.clone()
        };
        round += 1;
        // Worst squared residual among unconverged columns *outside* this
        // phase's block — folded into every history entry so the history
        // keeps its global "worst unconverged column" meaning even when a
        // scalar phase works on a single column.
        let other_worst: f64 = all_active
            .iter()
            .filter(|j| !active.contains(j))
            .map(|&j| col_sq(&resid, j))
            .fold(0.0f64, f64::max);
        // Column-normalized correction system A·Y = R_a·D⁻¹.
        let scales: Vec<f64> = active.iter().map(|&j| col_sq(&resid, j).sqrt()).collect();
        let start_worst: f64 = scales.iter().map(|s| s * s).fold(0.0f64, f64::max);
        let mut r = gather_scaled(&resid, &active, &scales);
        let mut y = DenseMatrix::zeros(b.rows(), active.len());
        let mut gamma = gemm_at_b(&r, &r); // Γ = RᵀR (≈ I at phase start)
        let mut p = r.clone();
        let mut stagnant = 0u32;
        let mut last_worst = f64::INFINITY;
        let mut floor_exit = false;
        while it < max_iters {
            it += 1;
            let s = spmm(a, &p); // 1
            let delta = gemm_at_b(&p, &s); // 2a
            let Some(delta_inv) = invert_small(&delta) else {
                // Rank-deficient search block (e.g. duplicate right-hand
                // sides): demote to one column at a time.
                scalar_mode = scalar_mode || active.len() > 1;
                break;
            };
            let lambda = gemm(&delta_inv, &gamma); // 2b
            y = add(&y, &gemm(&p, &lambda)); // 3
            r = sub(&r, &gemm(&s, &lambda)); // 4
            let gamma_prev = gamma.clone();
            gamma = gemm_at_b(&r, &r); // 5
            let diag = gamma.diagonal();
            // History records the worst *unscaled* squared residual.
            let worst = diag
                .iter()
                .zip(&scales)
                .map(|(d, s)| d * s * s)
                .fold(0.0f64, f64::max);
            history.push(worst.max(other_worst));
            let hit_floor = diag
                .iter()
                .zip(scales.iter().zip(&active))
                .any(|(d, (s, &j))| d * s * s <= floors[j]);
            if hit_floor {
                last_worst = worst;
                floor_exit = true;
                break; // re-deflate in the outer loop
            }
            // Stagnation: residual shrinking by less than 0.1% per iteration
            // for several iterations — conjugacy lost to round-off (healthy
            // CG at any realistic condition number converges orders of
            // magnitude faster than this, so only genuine stalls qualify;
            // a post-breakdown crawl decreases strictly but glacially, which
            // an exact `worst >= last` test would never catch).
            if worst > last_worst * 0.999 {
                stagnant += 1;
            } else {
                stagnant = 0;
            }
            last_worst = worst;
            if stagnant >= 3 {
                break;
            }
            let Some(gamma_prev_inv) = invert_small(&gamma_prev) else {
                scalar_mode = scalar_mode || active.len() > 1;
                break;
            };
            let phi = gemm(&gamma_prev_inv, &gamma); // 6
            p = add(&r, &gemm(&p, &phi)); // 7
        }
        // Fold the correction back: X[:, active] += Y·D.
        scatter_add_scaled(&mut x, &y, &active, &scales);
        // A block phase that ended without substantial progress means the
        // shared Krylov recurrence broke down — demote to scalar phases.
        // A floor exit is the opposite of breakdown (a column converged and
        // leaves the block), so it never demotes no matter how little the
        // slowest column moved.
        if !scalar_mode && !floor_exit && active.len() > 1 && last_worst > 0.25 * start_worst {
            scalar_mode = true;
        }
    }
    // Final convergence check when the iteration budget ran out exactly at
    // a phase boundary.
    if !converged {
        let resid = sub(b, &spmm(a, &x));
        converged = (0..n).all(|j| col_sq(&resid, j) <= floors[j]);
    }
    CgResult {
        x,
        iterations_run: it,
        residual_history: history,
        converged,
    }
}

/// Sum of squares of column `j`.
fn col_sq(m: &DenseMatrix, j: usize) -> f64 {
    (0..m.rows()).map(|i| m.get(i, j) * m.get(i, j)).sum()
}

/// Extracts `cols` of `m`, dividing column `k` by `scales[k]`.
fn gather_scaled(m: &DenseMatrix, cols: &[usize], scales: &[f64]) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(m.rows(), cols.len());
    for (k, (&j, &s)) in cols.iter().zip(scales).enumerate() {
        let inv = 1.0 / s;
        for i in 0..m.rows() {
            out.set(i, k, m.get(i, j) * inv);
        }
    }
    out
}

/// `x[:, cols[k]] += y[:, k] * scales[k]`.
fn scatter_add_scaled(x: &mut DenseMatrix, y: &DenseMatrix, cols: &[usize], scales: &[f64]) {
    for (k, (&j, &s)) in cols.iter().zip(scales).enumerate() {
        for i in 0..x.rows() {
            let v = x.get(i, j) + y.get(i, k) * s;
            x.set(i, j, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_tensor::gen::{laplacian_2d, random_spd};

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
    fn reuse_matches_fig10() {
        use cello_graph::reuse::ReuseProfile;
        let dag = build_cg_dag(&CgParams {
            iterations: 10,
            ..params()
        });
        let profile = ReuseProfile::compute(&dag, &dag.topo_order());
        // A is consumed once per iteration: freq 10 (Fig 10).
        assert_eq!(profile.tensor("A").unwrap().frequency, 10);
        // R@i: consumed by 5@i, 7@i, 4@(i+1): freq 3 (Fig 10).
        assert_eq!(profile.tensor("R@1").unwrap().frequency, 3);
        // X@i: only consumer is 3@(i+1): freq 1 (the paper's X example).
        assert_eq!(profile.tensor("X@1").unwrap().frequency, 1);
        // P@i: consumed by 1, 2a, 3, 7 of the next iteration.
        assert_eq!(profile.tensor("P@1").unwrap().frequency, 4);
        // Terminal-iteration outputs are dead.
        assert_eq!(profile.tensor("X@10").unwrap().frequency, 0);
    }

    #[test]
    fn numeric_cg_converges_on_laplacian() {
        let a = laplacian_2d(20, 20); // 400x400 SPD
        let mut b = DenseMatrix::zeros(400, 4);
        for i in 0..400 {
            for j in 0..4 {
                b.set(i, j, ((i * 7 + j * 13) % 23) as f64 / 23.0 + 0.1);
            }
        }
        let res = solve_block_cg(&a, &b, 200, 1e-18);
        assert!(res.converged, "history: {:?}", res.residual_history.last());
        // Check A·X ≈ B.
        let ax = spmm(&a, &res.x);
        assert!(ax.max_abs_diff(&b) < 1e-6, "{}", ax.max_abs_diff(&b));
    }

    #[test]
    fn numeric_cg_converges_on_random_spd() {
        let a = random_spd(300, 1800, 11);
        let mut b = DenseMatrix::zeros(300, 8);
        for i in 0..300 {
            for j in 0..8 {
                b.set(i, j, (((i + 3 * j) % 17) as f64 - 8.0) / 8.0);
            }
        }
        let res = solve_block_cg(&a, &b, 300, 1e-20);
        let ax = spmm(&a, &res.x);
        assert!(ax.max_abs_diff(&b) < 1e-7, "{}", ax.max_abs_diff(&b));
    }

    #[test]
    fn block_width_speeds_convergence() {
        // Block CG with more RHS should not need more iterations for the
        // same per-column accuracy (it searches a bigger Krylov block).
        let a = laplacian_2d(12, 12);
        let ones = |n: usize| {
            let mut b = DenseMatrix::zeros(144, n);
            for i in 0..144 {
                b.set(i, 0, 1.0);
            }
            b
        };
        let r1 = solve_block_cg(&a, &ones(1), 500, 1e-16);
        let r8 = solve_block_cg(&a, &ones(8), 500, 1e-16);
        assert!(r8.iterations_run <= r1.iterations_run);
    }

    #[test]
    fn residuals_decrease_monotonically_enough() {
        let a = laplacian_2d(15, 15);
        let mut b = DenseMatrix::zeros(225, 2);
        for i in 0..225 {
            b.set(i, 0, 1.0);
            b.set(i, 1, (i % 5) as f64);
        }
        let res = solve_block_cg(&a, &b, 50, 0.0);
        // Residual after the run is far below the start.
        let first = res.residual_history.first().copied().unwrap();
        let last = res.residual_history.last().copied().unwrap();
        assert!(last < first * 1e-6, "first {first} last {last}");
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
