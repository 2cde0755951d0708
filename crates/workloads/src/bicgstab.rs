//! BiCGStab (van der Vorst 1992): numeric solver + DAG builder (Fig 13).
//!
//! The paper uses BiCGStab as a second PDE solver to show SCORE/CHORD
//! generalize beyond CG. One iteration is a 9-operation cascade with *two*
//! SpMMs and even richer delayed dependencies than CG (`v` is needed by the
//! α-contraction *and* the later `s` update; `s` by the SpMM, the
//! ω-contraction, and two updates; `t` by the contraction and the `r`
//! update):
//!
//! ```text
//! b1  ρ   = r̂₀ᵀ·r                 (C)
//! b2  p   = r + β(p − ω v)        (U)   β from scalars
//! b3  v   = A·p                   SpMM  (U)
//! b4  α   = ρ / (r̂₀ᵀ·v)          (C)
//! b5  s   = r − α v               (U)
//! b6  t   = A·s                   SpMM  (U)
//! b7  ω   = (tᵀ·s)/(tᵀ·t)        (C)
//! b8  x   = x + α p + ω s         (U)
//! b9  r   = s − ω t               (U)
//! ```

use cello_graph::dag::{NodeId, TensorDag};
use cello_graph::edge::TensorMeta;
use cello_graph::node::OpKind;
use cello_tensor::dense::DenseMatrix;
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::{RankExtent, RankId};
use cello_tensor::sparse::CsrMatrix;

/// Shape parameters for a BiCGStab problem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BicgParams {
    /// Matrix order `M`.
    pub m: u64,
    /// Average non-zeros per row.
    pub occupancy: f64,
    /// CSR payload words of `A`.
    pub a_payload_words: u64,
    /// Block width `N` (the paper runs N=1).
    pub n: u64,
    /// Iterations to unroll.
    pub iterations: u32,
}

impl BicgParams {
    /// From a dataset.
    pub fn from_dataset(d: &crate::datasets::Dataset, n: u64, iterations: u32) -> Self {
        Self {
            m: d.m as u64,
            occupancy: d.occupancy(),
            a_payload_words: d.csr_payload_words(),
            n,
            iterations,
        }
    }

    /// Words of an `M×N` vector block.
    pub fn big_words(&self) -> u64 {
        self.m * self.n
    }
}

fn specs(prm: &BicgParams) -> (EinsumSpec, EinsumSpec, EinsumSpec, EinsumSpec) {
    let occ = prm.occupancy.ceil().max(1.0) as u64;
    let m = RankExtent::dense("m", prm.m);
    let k_sp = RankExtent::compressed("k", prm.m, occ.min(prm.m));
    let k = RankExtent::dense("k", prm.m);
    let j = RankExtent::dense("j", prm.n);
    let n = RankExtent::dense("n", prm.n);
    let p = RankExtent::dense("p", prm.n);
    let spmm = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("m"), RankId::new("k")],
            vec![RankId::new("k"), RankId::new("n")],
        ],
        vec![RankId::new("m"), RankId::new("n")],
        &[m, k_sp, n],
    );
    let contraction = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("k"), RankId::new("p")],
            vec![RankId::new("k"), RankId::new("n")],
        ],
        vec![RankId::new("p"), RankId::new("n")],
        &[k, p, n],
    );
    let update = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("m"), RankId::new("j")],
            vec![RankId::new("j"), RankId::new("n")],
        ],
        vec![RankId::new("m"), RankId::new("n")],
        &[m, j, n],
    );
    let small = EinsumSpec::from_parts(
        vec![
            vec![RankId::new("p"), RankId::new("j")],
            vec![RankId::new("j"), RankId::new("n")],
        ],
        vec![RankId::new("p"), RankId::new("n")],
        &[p, j, n],
    );
    (spmm, contraction, update, small)
}

/// Builds the unrolled BiCGStab DAG.
pub fn build_bicgstab_dag(prm: &BicgParams) -> TensorDag {
    let (spmm, contraction, update, _small) = specs(prm);
    let mut dag = TensorDag::new();
    let bw = prm.big_words();
    let sw = prm.n * prm.n;
    let big = |name: String| TensorMeta::dense(name, &["m", "n"], bw);
    let tiny = |name: String| TensorMeta::dense(name, &["p", "n"], sw);

    struct Iter {
        b1: NodeId,
        b2: NodeId,
        b3: NodeId,
        b8: NodeId,
        b9: NodeId,
    }
    let mut prev: Option<Iter> = None;
    let mut first: Option<(NodeId, NodeId, NodeId, NodeId, NodeId)> = None;

    for i in 1..=prm.iterations {
        let b1 = dag.add_op(
            format!("b1@{i}:ρ=r̂ᵀr"),
            contraction.clone(),
            OpKind::TensorMac,
            tiny(format!("rho@{i}")),
        );
        let b2 = dag.add_op(
            format!("b2@{i}:p=r+β(p-ωv)"),
            update.clone(),
            OpKind::TensorMac,
            big(format!("p@{i}")),
        );
        let b3 = dag.add_op(
            format!("b3@{i}:v=A·p"),
            spmm.clone(),
            OpKind::TensorMac,
            big(format!("v@{i}")),
        );
        let b4 = dag.add_op(
            format!("b4@{i}:α=ρ/r̂ᵀv"),
            contraction.clone(),
            OpKind::TensorMac,
            tiny(format!("al@{i}")),
        );
        let b5 = dag.add_op(
            format!("b5@{i}:s=r-αv"),
            update.clone(),
            OpKind::TensorMac,
            big(format!("s@{i}")),
        );
        let b6 = dag.add_op(
            format!("b6@{i}:t=A·s"),
            spmm.clone(),
            OpKind::TensorMac,
            big(format!("t@{i}")),
        );
        let b7 = dag.add_op(
            format!("b7@{i}:ω=tᵀs/tᵀt"),
            contraction.clone(),
            OpKind::TensorMac,
            tiny(format!("om@{i}")),
        );
        let b8 = dag.add_op(
            format!("b8@{i}:x+=αp+ωs"),
            update.clone(),
            OpKind::TensorMac,
            big(format!("x@{i}")),
        );
        let b9 = dag.add_op(
            format!("b9@{i}:r=s-ωt"),
            update.clone(),
            OpKind::TensorMac,
            big(format!("r@{i}")),
        );

        // Intra-iteration edges.
        dag.add_edge(b1, b2, &["p", "n"]); // ρ into β (tiny)
        dag.add_edge(b2, b3, &["k", "n"]); // p into SpMM (unshared -> seq)
        dag.add_edge(b3, b4, &["k", "n"]); // v into contraction (pipelineable)
        dag.add_edge(b4, b5, &["j", "n"]); // α
        dag.add_edge(b3, b5, &["m", "j"]); // v delayed via b4 (writeback)
        dag.add_edge(b5, b6, &["k", "n"]); // s into SpMM (unshared)
        dag.add_edge(b6, b7, &["k", "n"]); // t into contraction (pipelineable)
        dag.add_edge(b5, b7, &["k", "p"]); // s delayed into ω
        dag.add_edge(b7, b8, &["j", "n"]); // ω multicast …
        dag.add_edge(b7, b9, &["j", "n"]); // … to x and r updates
        dag.add_edge(b2, b8, &["m", "j"]); // p delayed into x (writeback)
        dag.add_edge(b5, b8, &["m", "j"]); // s delayed into x
        dag.add_edge(b5, b9, &["m", "j"]); // s delayed into r
        dag.add_edge(b6, b9, &["m", "j"]); // t delayed into r

        if let Some(pr) = &prev {
            dag.add_edge(pr.b9, b1, &["k", "n"]); // r into ρ
            dag.add_edge(pr.b9, b2, &["m", "j"]); // r into p update
            dag.add_edge(pr.b9, b5, &["m", "j"]); // r into s update
            dag.add_edge(pr.b2, b2, &["m", "j"]); // p accumulator
            dag.add_edge(pr.b3, b2, &["m", "j"]); // v into p update
            dag.add_edge(pr.b8, b8, &["m", "n"]); // x accumulator
            dag.add_edge(pr.b1, b2, &["p", "j"]); // ρ_prev into β
        } else {
            first = Some((b1, b2, b3, b5, b8));
        }
        prev = Some(Iter { b1, b2, b3, b8, b9 });
    }

    // Externals: A feeds both SpMMs of every iteration; r̂0 feeds the ρ/α
    // contractions; initial r/p/v/x feed iteration 1.
    let spmm_nodes: Vec<(NodeId, &[&str])> = dag
        .nodes()
        .filter(|(_, n)| n.name.contains("b3@") || n.name.contains("b6@"))
        .map(|(id, _)| (id, ["m", "k"].as_slice()))
        .collect();
    dag.add_external(
        TensorMeta::sparse("A", &["m", "k"], prm.a_payload_words),
        &spmm_nodes,
    );
    let rhat_nodes: Vec<(NodeId, &[&str])> = dag
        .nodes()
        .filter(|(_, n)| n.name.contains("b1@") || n.name.contains("b4@"))
        .map(|(id, _)| (id, ["k", "p"].as_slice()))
        .collect();
    dag.add_external(TensorMeta::dense("rhat0", &["m", "n"], bw), &rhat_nodes);
    let (f1, f2, _f3, f5, f8) = first.expect("at least one iteration");
    dag.add_external(
        TensorMeta::dense("r@0", &["m", "n"], bw),
        &[(f1, &["k", "n"]), (f2, &["m", "j"]), (f5, &["m", "j"])],
    );
    dag.add_external(
        TensorMeta::dense("p@0", &["m", "n"], bw),
        &[(f2, &["m", "j"])],
    );
    dag.add_external(
        TensorMeta::dense("v@0", &["m", "n"], bw),
        &[(f2, &["m", "j"])],
    );
    dag.add_external(
        TensorMeta::dense("x@0", &["m", "n"], bw),
        &[(f8, &["m", "n"])],
    );
    dag
}

/// Result of a numeric BiCGStab solve (single right-hand side).
#[derive(Clone, Debug)]
pub struct BicgResult {
    /// Solution vector (`M × 1`).
    pub x: DenseMatrix,
    /// Iterations run.
    pub iterations_run: u32,
    /// ‖r‖₂ after each iteration.
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
}

fn dot(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| x * y)
        .sum()
}

/// Numeric BiCGStab for `A·x = b` (van der Vorst 1992).
pub fn solve_bicgstab(a: &CsrMatrix, b: &DenseMatrix, max_iters: u32, tol: f64) -> BicgResult {
    use cello_tensor::kernels::spmm;
    assert_eq!(b.cols(), 1, "solve_bicgstab is single-RHS");
    let m = a.rows();
    let mut x = DenseMatrix::zeros(m, 1);
    let mut r = b.clone();
    let rhat = r.clone();
    let (mut rho_prev, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
    let mut v = DenseMatrix::zeros(m, 1);
    let mut p = DenseMatrix::zeros(m, 1);
    let mut history = Vec::new();
    let mut converged = false;
    let mut it = 0;
    while it < max_iters {
        it += 1;
        let rho = dot(&rhat, &r); // b1
        if rho.abs() < 1e-300 {
            break;
        }
        let beta = (rho / rho_prev) * (alpha / omega); // scalar
                                                       // b2: p = r + β (p − ω v)
        let mut pmwv = p.clone();
        pmwv.axpy(-omega, &v);
        p = r.clone();
        p.axpy(beta, &pmwv);
        v = spmm(a, &p); // b3
        let rhat_v = dot(&rhat, &v); // b4
        if rhat_v.abs() < 1e-300 {
            break;
        }
        alpha = rho / rhat_v;
        let mut s = r.clone(); // b5
        s.axpy(-alpha, &v);
        let t = spmm(a, &s); // b6
        let tt = dot(&t, &t); // b7
        omega = if tt.abs() < 1e-300 {
            0.0
        } else {
            dot(&t, &s) / tt
        };
        x.axpy(alpha, &p); // b8
        x.axpy(omega, &s);
        r = s; // b9
        r.axpy(-omega, &t);
        let rnorm = r.frobenius_norm();
        history.push(rnorm);
        if rnorm <= tol {
            converged = true;
            break;
        }
        if omega == 0.0 {
            break;
        }
        rho_prev = rho;
    }
    BicgResult {
        x,
        iterations_run: it,
        residual_history: history,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_tensor::gen::{laplacian_2d, random_spd};
    use cello_tensor::kernels::spmm;

    fn prm() -> BicgParams {
        BicgParams {
            m: 9604,
            occupancy: 8.9,
            a_payload_words: 2 * 85_264 + 9605,
            n: 1,
            iterations: 3,
        }
    }

    #[test]
    fn dag_shape() {
        let dag = build_bicgstab_dag(&prm());
        assert_eq!(dag.node_count(), 9 * 3);
        assert_eq!(dag.edge_count(), 14 * 3 + 7 * 2);
        assert_eq!(dag.externals().len(), 6);
        // A feeds two SpMMs per iteration.
        assert_eq!(dag.externals()[0].consumers.len(), 6);
    }

    #[test]
    fn delayed_writebacks_exist() {
        use cello_core::score::classify::classify;
        let dag = build_bicgstab_dag(&prm());
        let cls = classify(&dag);
        let h = cls.histogram();
        // BiCGStab is rich in delayed writebacks (v, s, t, p…).
        assert!(h[3] > 0, "expected delayed writebacks, histogram {h:?}");
        assert!(h[1] > 0, "expected pipelineable edges (v→α, t→ω)");
    }

    #[test]
    fn numeric_bicgstab_converges_on_spd() {
        let a = laplacian_2d(18, 18);
        let mut b = DenseMatrix::zeros(324, 1);
        for i in 0..324 {
            b.set(i, 0, ((i % 11) as f64 - 5.0) / 5.0 + 0.05);
        }
        let res = solve_bicgstab(&a, &b, 400, 1e-10);
        assert!(res.converged, "residual {:?}", res.residual_history.last());
        let ax = spmm(&a, &res.x);
        assert!(ax.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn numeric_bicgstab_on_random_spd() {
        let a = random_spd(250, 1500, 5);
        let mut b = DenseMatrix::zeros(250, 1);
        for i in 0..250 {
            b.set(i, 0, 1.0 + (i % 7) as f64);
        }
        let res = solve_bicgstab(&a, &b, 400, 1e-9);
        let ax = spmm(&a, &res.x);
        assert!(ax.max_abs_diff(&b) < 1e-6, "{}", ax.max_abs_diff(&b));
    }

    #[test]
    fn residuals_shrink() {
        let a = laplacian_2d(14, 14);
        let mut b = DenseMatrix::zeros(196, 1);
        for i in 0..196 {
            b.set(i, 0, 1.0);
        }
        let res = solve_bicgstab(&a, &b, 60, 0.0);
        let first = res.residual_history.first().copied().unwrap();
        let last = res.residual_history.last().copied().unwrap();
        assert!(last < first * 1e-3, "first {first} last {last}");
    }
}
