//! Synthetic dataset generators.
//!
//! The paper evaluates on SuiteSparse matrices (fv1, shallow_water1,
//! G2_circuit, NASA4704) and OMEGA GNN graphs (cora, protein). Those artifacts
//! are not redistributable here, so we generate **synthetic stand-ins that
//! match the published `M` and `nnz`** (Table VI). The traffic/roofline study
//! only depends on shapes and footprints; [`random_spd`] additionally keeps
//! the solver matrices symmetric positive-definite, as CG's input must be.

use crate::sparse::{CooMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Symmetric positive-definite matrix with a *target* size and nnz:
/// a random symmetric pattern of `≈ nnz` off-diagonal entries plus a
/// diagonally-dominant diagonal. Used to match a SuiteSparse dataset's
/// published statistics exactly.
pub fn random_spd(m: usize, target_nnz: usize, seed: u64) -> CsrMatrix {
    assert!(target_nnz >= m, "need at least the diagonal ({m} entries)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(m, m);
    // Off-diagonal pairs: each contributes 2 nnz. Draw within a band to mimic
    // the locality of PDE matrices (bandwidth ~ sqrt(m) keeps patterns realistic).
    let band = (m as f64).sqrt().ceil() as usize + 1;
    let off_pairs = (target_nnz.saturating_sub(m)) / 2;
    let mut row_weight = vec![0.0f64; m];
    let mut placed = std::collections::HashSet::with_capacity(off_pairs * 2);
    let mut attempts = 0usize;
    let mut count = 0usize;
    while count < off_pairs && attempts < off_pairs * 20 {
        attempts += 1;
        let r = rng.gen_range(0..m);
        let span = band.min(m - 1).max(1);
        let offset = rng.gen_range(1..=span);
        let c = if rng.gen_bool(0.5) && r >= offset {
            r - offset
        } else if r + offset < m {
            r + offset
        } else {
            continue;
        };
        let (lo, hi) = (r.min(c), r.max(c));
        if lo == hi || !placed.insert((lo, hi)) {
            continue;
        }
        let v = -rng.gen_range(0.1..1.0);
        coo.push(lo, hi, v);
        coo.push(hi, lo, v);
        row_weight[lo] += v.abs();
        row_weight[hi] += v.abs();
        count += 1;
    }
    // Diagonal dominance => SPD. Row 0 additionally gets a decisive boost so
    // the spectrum has a dominant, well-separated leading eigenvalue (as the
    // real SuiteSparse matrices these stand in for do): by Gershgorin its
    // disc then clears the rest of the spectrum by a constant factor, which
    // keeps power iteration well-posed on every seed.
    let wmax = row_weight.iter().cloned().fold(0.0f64, f64::max);
    for (i, w) in row_weight.iter().enumerate() {
        let boost = if i == 0 {
            1.2 * (2.0 * wmax + 1.5)
        } else {
            0.0
        };
        coo.push(i, i, w + 1.0 + boost + rng.gen_range(0.0..0.5));
    }
    coo.to_csr()
}

/// Random undirected graph adjacency (with self-loops, à la GCN's `Â = A + I`)
/// targeting a given nnz — the stand-in for cora / protein graphs.
pub fn random_graph_adjacency(vertices: usize, target_nnz: usize, seed: u64) -> CsrMatrix {
    assert!(
        target_nnz >= vertices,
        "adjacency needs at least the self-loops"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(vertices, vertices);
    for i in 0..vertices {
        coo.push(i, i, 1.0);
    }
    let off_pairs = (target_nnz - vertices) / 2;
    let mut placed = std::collections::HashSet::with_capacity(off_pairs * 2);
    let mut count = 0usize;
    let mut attempts = 0usize;
    while count < off_pairs && attempts < off_pairs * 40 {
        attempts += 1;
        let a = rng.gen_range(0..vertices);
        let b = rng.gen_range(0..vertices);
        if a == b {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if !placed.insert((lo, hi)) {
            continue;
        }
        coo.push(lo, hi, 1.0);
        coo.push(hi, lo, 1.0);
        count += 1;
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_spd_hits_target_stats() {
        let a = random_spd(500, 3000, 42);
        assert_eq!(a.rows(), 500);
        let err = (a.nnz() as f64 - 3000.0).abs() / 3000.0;
        assert!(err < 0.05, "nnz {} vs target 3000", a.nnz());
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn random_spd_diagonally_dominant() {
        let a = random_spd(200, 1200, 7);
        for r in 0..200 {
            let diag = a.get(r, r);
            let off: f64 = a
                .row(r)
                .filter(|&(c, _)| c != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "row {r}: diag {diag} <= off-sum {off}");
        }
    }

    #[test]
    fn random_graph_has_self_loops_and_symmetry() {
        let g = random_graph_adjacency(300, 1500, 3);
        assert!(g.is_symmetric(1e-12));
        for i in 0..300 {
            assert_eq!(g.get(i, i), 1.0);
        }
        let err = (g.nnz() as f64 - 1500.0).abs() / 1500.0;
        assert!(err < 0.1, "nnz {}", g.nnz());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_spd(100, 600, 9), random_spd(100, 600, 9));
        assert_eq!(
            random_graph_adjacency(100, 500, 9),
            random_graph_adjacency(100, 500, 9)
        );
    }

    /// FNV-1a over the CSR arrays: `row_ptr`, `col_idx`, then the bit
    /// patterns of `values`, each word little-endian.
    fn csr_digest(a: &CsrMatrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let words = a.row_ptr().iter().chain(a.col_idx()).map(|&w| w as u64);
        for w in words.chain(a.values().iter().map(|v| v.to_bits())) {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn generators_match_pinned_digests() {
        // The datasets and the benchmark draw from these generators, so
        // their output is pinned bit-for-bit across commits, not only
        // between two runs of one build.
        assert_eq!(csr_digest(&random_spd(100, 600, 9)), 0x34f9_9150_8f9e_15ab);
        assert_eq!(
            csr_digest(&random_graph_adjacency(100, 500, 9)),
            0x6c0c_6c69_8814_f0e7
        );
    }
}
