//! Synthetic dataset generators.
//!
//! The paper evaluates on SuiteSparse matrices (fv1, shallow_water1,
//! G2_circuit, NASA4704) and OMEGA GNN graphs (cora, protein). Those artifacts
//! are not redistributable here, so we generate **synthetic stand-ins that
//! match the published `M` and `nnz`** (Table VI). The traffic/roofline study
//! only depends on shapes and footprints; [`random_spd`] additionally keeps
//! the solver matrices symmetric positive-definite, as CG's input must be.
//!
//! [`SplitMix64`] is the workspace's one random generator: these datasets,
//! the schedule search (`cello_search`'s random and tier-0 sample streams)
//! and the property tests ([`for_cases`]) all draw from it, so every
//! stream is pinned by this code alone.

use crate::sparse::{CooMatrix, CsrMatrix};

/// The Weyl increment every draw adds to the state.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The search's seeding: the state is `seed ^ 0x9E37_79B9_7F4A_7C15`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ GAMMA,
        }
    }

    /// The dataset generators' seeding: one scramble of `seed` becomes the
    /// state, then one warm-up draw, so nearby seeds diverge at once.
    fn scrambled(seed: u64) -> Self {
        let mut scramble = Self {
            state: seed ^ 0xD6E8_FEB8_6659_FD93,
        };
        let mut rng = Self {
            state: scramble.next_u64(),
        };
        rng.next_u64();
        rng
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skips `n` draws in O(1): the state is a Weyl sequence, so `n` calls
    /// of [`Self::next_u64`] add `n` increments to it. This is what lets a
    /// stream be read at any position without drawing its prefix.
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform in `[0, bound)` (Lemire's multiply-shift, no rejection).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` from the draw's 53 high bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }
}

/// Runs `cases` cases of a property test. The cases draw their inputs in
/// turn from one [`SplitMix64::new`] stream seeded by the FNV-1a hash of
/// `name`, so every run draws the same inputs. A failing case panics with
/// `name`, its index out of `cases`, the seed and the case's own message.
pub fn for_cases(name: &str, cases: u32, mut case: impl FnMut(&mut SplitMix64)) {
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut rng = SplitMix64::new(seed);
    for i in 0..cases {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(panic) = run {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("{name} failed at case {i}/{cases} (seed {seed:#018x}): {message}");
        }
    }
}

/// Symmetric positive-definite matrix with a *target* size and nnz:
/// a random symmetric pattern of `≈ nnz` off-diagonal entries plus a
/// diagonally-dominant diagonal. Used to match a SuiteSparse dataset's
/// published statistics exactly.
pub fn random_spd(m: usize, target_nnz: usize, seed: u64) -> CsrMatrix {
    assert!(target_nnz >= m, "need at least the diagonal ({m} entries)");
    let mut rng = SplitMix64::scrambled(seed);
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
        let r = rng.below(m as u64) as usize;
        let span = band.min(m - 1).max(1);
        let offset = 1 + rng.below(span as u64) as usize;
        let c = if rng.unit_f64() < 0.5 && r >= offset {
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
        let v = -rng.uniform(0.1, 1.0);
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
        coo.push(i, i, w + 1.0 + boost + rng.uniform(0.0, 0.5));
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
    let mut rng = SplitMix64::scrambled(seed);
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
        let a = rng.below(vertices as u64) as usize;
        let b = rng.below(vertices as u64) as usize;
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
    fn splitmix_deterministic_and_in_bounds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for bound in 1..=1_000 {
            let (x, y) = (a.below(bound), b.below(bound));
            assert_eq!(x, y);
            assert!(x < bound);
        }
    }

    #[test]
    fn advance_skips_draws() {
        for n in 0..64u64 {
            let mut drawn = SplitMix64::new(n ^ 0x5eed);
            let mut skipped = drawn.clone();
            for _ in 0..n {
                drawn.next_u64();
            }
            skipped.advance(n);
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "n = {n}");
        }
        for (a, b) in [(3, 5), (0, 9), (0xdead_beef, u64::MAX - 7)] {
            let mut split = SplitMix64::new(3);
            split.advance(a);
            split.advance(b);
            let mut whole = SplitMix64::new(3);
            whole.advance(a.wrapping_add(b));
            assert_eq!(split.next_u64(), whole.next_u64(), "{a} + {b}");
        }
    }

    #[test]
    fn unit_f64_stays_in_unit_interval() {
        let mut rng = SplitMix64::scrambled(9);
        let draws: Vec<f64> = (0..10_000).map(|_| rng.unit_f64()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let heads = draws.iter().filter(|&&u| u < 0.5).count();
        assert!((4_000..6_000).contains(&heads), "heads {heads}");
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::scrambled(1);
        let mut b = SplitMix64::scrambled(2);
        let same = (0..64)
            .filter(|_| a.below(1 << 32) == b.below(1 << 32))
            .count();
        assert!(same < 4);
    }

    #[test]
    #[should_panic(expected = "for_cases_reports_the_failing_case failed at case 3/8 \
                               (seed 0xf0f463f110c8c56a): case 3 drew")]
    fn for_cases_reports_the_failing_case() {
        let mut case = 0;
        for_cases("for_cases_reports_the_failing_case", 8, |rng| {
            let draw = rng.next_u64();
            assert!(case < 3, "case {case} drew {draw:#x}");
            case += 1;
        });
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
