//! Synthetic dataset generators.
//!
//! The paper evaluates on SuiteSparse matrices (fv1, shallow_water1,
//! G2_circuit, NASA4704) and OMEGA GNN graphs (cora, protein). Those artifacts
//! are not redistributable here, so we generate **synthetic stand-ins that
//! match the published `M` and `nnz`** (Table VI). The traffic/roofline study
//! only depends on shapes and footprints; the generators additionally produce
//! symmetric positive-definite matrices so the *numeric* CG/BiCGStab solvers
//! converge (see DESIGN.md §2).

use crate::sparse::{CooMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2-D 5-point Laplacian on a `nx × ny` grid: SPD, `nnz ≈ 5·nx·ny`.
///
/// This is the canonical PDE-solver test matrix (HPCG itself uses a 27-point
/// 3-D stencil) and the structural stand-in for the paper's "2D/3D problem"
/// and fluid-dynamics datasets.
pub fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
    let m = nx * ny;
    let mut coo = CooMatrix::new(m, m);
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            coo.push(i, i, 4.0);
            if x > 0 {
                coo.push(i, idx(x - 1, y), -1.0);
            }
            if x + 1 < nx {
                coo.push(i, idx(x + 1, y), -1.0);
            }
            if y > 0 {
                coo.push(i, idx(x, y - 1), -1.0);
            }
            if y + 1 < ny {
                coo.push(i, idx(x, y + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// 3-D 7-point Laplacian on a `nx × ny × nz` grid: SPD, `nnz ≈ 7·n`.
pub fn laplacian_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let m = nx * ny * nz;
    let mut coo = CooMatrix::new(m, m);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                coo.push(i, i, 6.0);
                if x > 0 {
                    coo.push(i, idx(x - 1, y, z), -1.0);
                }
                if x + 1 < nx {
                    coo.push(i, idx(x + 1, y, z), -1.0);
                }
                if y > 0 {
                    coo.push(i, idx(x, y - 1, z), -1.0);
                }
                if y + 1 < ny {
                    coo.push(i, idx(x, y + 1, z), -1.0);
                }
                if z > 0 {
                    coo.push(i, idx(x, y, z - 1), -1.0);
                }
                if z + 1 < nz {
                    coo.push(i, idx(x, y, z + 1), -1.0);
                }
            }
        }
    }
    coo.to_csr()
}

/// Symmetric positive-definite matrix with a *target* size and nnz:
/// a random symmetric pattern of `≈ nnz` off-diagonal entries plus a
/// diagonally-dominant diagonal. Used to match a SuiteSparse dataset's
/// published statistics exactly where no stencil fits.
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

/// Scales a 2-D grid to approximately hit `(m, nnz)`: returns `(nx, ny)` such
/// that `nx·ny ≈ m`. Used by the dataset registry to pick stencil dimensions.
pub fn grid_for(m: usize) -> (usize, usize) {
    let nx = (m as f64).sqrt().round() as usize;
    let ny = m.div_ceil(nx.max(1));
    (nx.max(1), ny.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_2d_shape_and_nnz() {
        let a = laplacian_2d(10, 10);
        assert_eq!(a.rows(), 100);
        // interior: 5 per row; edges fewer. nnz = 5*100 - 2*(10+10) = 460
        assert_eq!(a.nnz(), 460);
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn laplacian_3d_shape_and_symmetry() {
        let a = laplacian_3d(4, 4, 4);
        assert_eq!(a.rows(), 64);
        assert!(a.is_symmetric(1e-12));
        assert!(a.occupancy() > 4.0 && a.occupancy() < 7.0);
    }

    #[test]
    fn laplacian_is_positive_definite_ish() {
        // x^T A x > 0 for a few random-ish x (necessary condition check).
        let a = laplacian_2d(6, 6);
        for seed in 1..5u64 {
            let mut x = [0.0f64; 36];
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for xi in x.iter_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *xi = ((s % 100) as f64 - 50.0) / 50.0 + 0.01;
            }
            let quad: f64 = (0..36)
                .map(|r| x[r] * a.row(r).map(|(c, v)| v * x[c]).sum::<f64>())
                .sum();
            assert!(quad > 0.0, "x^T A x = {quad} not positive");
        }
    }

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
    fn grid_for_covers_m() {
        for m in [100, 9604, 81920, 150102] {
            let (nx, ny) = grid_for(m);
            assert!(nx * ny >= m);
            assert!(nx * ny < m + nx + ny); // tight cover
        }
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
        assert_eq!(csr_digest(&laplacian_3d(4, 4, 4)), 0x852b_2c53_e76c_0442);
    }
}
