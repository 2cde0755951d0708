//! Sparse matrices: COO builder and CSR.
//!
//! CG's operand `A` is the only sparse tensor in the paper's workloads
//! (§III-A): shape up to `M × M` with 1–100 non-zeros per row. SCORE "stores
//! the sparse tensor in compressed (CSR/CSC) format and tiles based on
//! occupancy" (§V-B), and CHORD stores both the data and the metadata in that
//! format. The traffic model therefore needs exact payload accounting
//! ([`CsrMatrix::payload_words`]): values + column indices + row pointers.

/// Coordinate-format builder for sparse matrices.
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// New empty builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds (accumulates) an entry. Out-of-bounds coordinates panic.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "entry ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Converts to CSR, summing duplicate coordinates and dropping explicit
    /// zeros (including cancellations produced by the summing itself).
    ///
    /// Dropping zeros is deliberate: CSR stores *structural* non-zeros, and
    /// every payload consumer ([`CsrMatrix::payload_words`],
    /// [`CsrMatrix::occupancy`], the traffic model) reads the stored
    /// [`CsrMatrix::nnz`], never a declared header count. A Matrix Market
    /// file with explicit zeros therefore loads to an `nnz()` *below* its
    /// header count — by design, documented at
    /// `cello_workloads::datasets::parse_matrix_market`.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Sum duplicates.
        let mut dedup: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            match dedup.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => dedup.push((r, c, v)),
            }
        }
        dedup.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &dedup {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = dedup.iter().map(|&(_, c, _)| c).collect();
        let values = dedup.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Number of buckets in [`OccupancyStats::histogram`].
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Per-row-block occupancy statistics of a sparse matrix — the nonzero
/// structure summary the cost model consumes (SCORE "tiles based on
/// occupancy", §V-B; Tailors-style overbooking sizes buffer grants from
/// exactly these moments).
///
/// Each row block of `block_rows` rows gets an *occupancy fraction*: its
/// stored non-zeros over its dense capacity (`rows_in_block × cols`). The
/// stats summarize the distribution of those fractions. A fully dense
/// matrix has `mean == max == 1` and `variance == 0`, so every consumer
/// degenerates to the dense model bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OccupancyStats {
    /// Rows per block the stats were computed over.
    pub block_rows: u32,
    /// Number of row blocks (≥ 1 for a non-empty matrix).
    pub blocks: u32,
    /// Mean per-block occupancy fraction.
    pub mean: f64,
    /// Population variance of the per-block occupancy fractions.
    pub variance: f64,
    /// Maximum per-block occupancy fraction (the worst-case tile).
    pub max: f64,
    /// Histogram of `fraction / max` over [`OCCUPANCY_BUCKETS`] equal
    /// buckets (bucket `i` counts blocks with relative occupancy in
    /// `[i/8, (i+1)/8)`; exactly `max` lands in the last bucket).
    pub histogram: [u32; OCCUPANCY_BUCKETS],
}

impl OccupancyStats {
    /// The stats of a fully dense tensor: every block at fraction 1, no
    /// variance. The identity element of every occupancy-aware formula.
    pub fn dense() -> Self {
        let mut histogram = [0u32; OCCUPANCY_BUCKETS];
        histogram[OCCUPANCY_BUCKETS - 1] = 1;
        OccupancyStats {
            block_rows: 1,
            blocks: 1,
            mean: 1.0,
            variance: 0.0,
            max: 1.0,
            histogram,
        }
    }

    /// Mean block occupancy relative to the worst block, in `[0, 1]` —
    /// the expected-over-worst-case ratio overbooked grants scale by.
    /// 1.0 when the distribution is flat (dense *or* uniformly sparse).
    pub fn rel_mean(&self) -> f64 {
        if self.max <= 0.0 {
            return 1.0;
        }
        (self.mean / self.max).clamp(0.0, 1.0)
    }

    /// Standard deviation of block occupancy relative to the worst block
    /// — the skew that overbooked spill penalties scale by. 0 for dense
    /// and uniformly sparse matrices.
    pub fn rel_std(&self) -> f64 {
        if self.max <= 0.0 {
            return 0.0;
        }
        (self.variance.max(0.0).sqrt() / self.max).clamp(0.0, 1.0)
    }
}

/// Compressed Sparse Row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average non-zeros per row (the paper's "occupancy", 1–100 for CG).
    pub fn occupancy(&self) -> f64 {
        self.nnz() as f64 / self.rows.max(1) as f64
    }

    /// Row pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Values array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The (col, value) pairs of one row.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// DRAM payload in *words* (one word per value + one per column index +
    /// one per row pointer) — the quantity the traffic model charges when `A`
    /// streams on-chip. Matches the paper's "data and metadata in CSR format".
    pub fn payload_words(&self) -> u64 {
        (self.values.len() + self.col_idx.len() + self.row_ptr.len()) as u64
    }

    /// Per-row-block occupancy statistics over blocks of `block_rows` rows
    /// (see [`OccupancyStats`]). `block_rows` is clamped to `1..=rows`; the
    /// last block may be short and its fraction uses its actual capacity.
    pub fn occupancy_stats(&self, block_rows: usize) -> OccupancyStats {
        let rows = self.rows.max(1);
        let block_rows = block_rows.clamp(1, rows);
        let blocks = rows.div_ceil(block_rows);
        let cols = self.cols.max(1) as f64;
        let mut fractions = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let lo = b * block_rows;
            let hi = ((b + 1) * block_rows).min(self.rows);
            let nnz = if lo < self.rows {
                (self.row_ptr[hi] - self.row_ptr[lo]) as f64
            } else {
                0.0
            };
            let capacity = (hi.saturating_sub(lo)).max(1) as f64 * cols;
            fractions.push(nnz / capacity);
        }
        let n = fractions.len() as f64;
        let mean = fractions.iter().sum::<f64>() / n;
        let variance = fractions
            .iter()
            .map(|f| (f - mean) * (f - mean))
            .sum::<f64>()
            / n;
        let max = fractions.iter().cloned().fold(0.0f64, f64::max);
        let mut histogram = [0u32; OCCUPANCY_BUCKETS];
        for f in &fractions {
            let rel = if max > 0.0 { f / max } else { 0.0 };
            let bucket = ((rel * OCCUPANCY_BUCKETS as f64) as usize).min(OCCUPANCY_BUCKETS - 1);
            histogram[bucket] = histogram[bucket].saturating_add(1);
        }
        OccupancyStats {
            block_rows: block_rows as u32,
            blocks: blocks as u32,
            mean,
            variance,
            max,
            histogram,
        }
    }

    /// True when the sparsity pattern and values are symmetric (within `tol`),
    /// a precondition for CG.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let vt = self.get(c, r);
                if (v - vt).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Point lookup (O(row nnz)).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.row(row)
            .find(|&(c, _)| c == col)
            .map_or(0.0, |(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 1 0 4 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 1.0);
        coo.push(2, 2, 4.0);
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_basic() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 4.0);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 5]);
    }

    #[test]
    fn coo_sums_duplicates_and_drops_zeros() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 5.0);
        coo.push(1, 1, -5.0);
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn symmetric_detection() {
        assert!(sample().is_symmetric(1e-12));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn payload_words_counts_metadata() {
        let m = sample();
        // 5 values + 5 col indices + 4 row pointers
        assert_eq!(m.payload_words(), 14);
    }

    #[test]
    fn occupancy() {
        assert!((sample().occupancy() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_iteration() {
        let m = sample();
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 2.0), (2, 1.0)]);
        let row1: Vec<_> = m.row(1).collect();
        assert_eq!(row1, vec![(1, 3.0)]);
    }

    #[test]
    fn occupancy_stats_dense_is_identity() {
        // A fully dense 4x4 matrix: every block fraction is 1.
        let mut coo = CooMatrix::new(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                coo.push(r, c, 1.0 + (r * 4 + c) as f64);
            }
        }
        let s = coo.to_csr().occupancy_stats(2);
        assert_eq!(s.blocks, 2);
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert!((s.max - 1.0).abs() < 1e-12);
        assert!(s.variance.abs() < 1e-12);
        assert!((s.rel_mean() - 1.0).abs() < 1e-12);
        assert!(s.rel_std().abs() < 1e-12);
        assert_eq!(s.histogram[OCCUPANCY_BUCKETS - 1], 2);
        // The canned dense stats agree.
        let d = OccupancyStats::dense();
        assert_eq!(d.rel_mean(), 1.0);
        assert_eq!(d.rel_std(), 0.0);
    }

    #[test]
    fn occupancy_stats_capture_skew() {
        // Arrowhead pattern: block 0 (row 0) is dense, the rest carry only
        // the diagonal + first column — strongly skewed occupancy.
        let n = 8;
        let mut coo = CooMatrix::new(n, n);
        for c in 0..n {
            coo.push(0, c, 1.0);
        }
        for r in 1..n {
            coo.push(r, 0, 1.0);
            coo.push(r, r, 2.0);
        }
        let s = coo.to_csr().occupancy_stats(1);
        assert_eq!(s.blocks, n as u32);
        assert!((s.max - 1.0).abs() < 1e-12, "row 0 is dense");
        assert!(s.rel_mean() < 0.5, "mean well below the worst block");
        assert!(s.rel_std() > 0.1, "skew shows up as relative std");
        assert!(s.variance > 0.0);
        // Uniform sparsity (diagonal only) has no skew at all.
        let mut diag = CooMatrix::new(n, n);
        for r in 0..n {
            diag.push(r, r, 1.0);
        }
        let u = diag.to_csr().occupancy_stats(1);
        assert!((u.rel_mean() - 1.0).abs() < 1e-12);
        assert!(u.rel_std() < 1e-12);
        assert!(u.max < 1.0, "still sparse in absolute terms");
    }

    #[test]
    fn occupancy_stats_degenerate_inputs() {
        // Block size clamps; short last block uses its own capacity.
        let m = sample();
        let s = m.occupancy_stats(2);
        assert_eq!(s.blocks, 2);
        assert_eq!(s.block_rows, 2);
        let huge = m.occupancy_stats(1000);
        assert_eq!(huge.blocks, 1);
        // Empty matrix: max 0, rel_mean defaults to the dense identity.
        let empty = CooMatrix::new(3, 3).to_csr();
        let e = empty.occupancy_stats(1);
        assert_eq!(e.max, 0.0);
        assert_eq!(e.rel_mean(), 1.0);
        assert_eq!(e.rel_std(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coo_bounds_checked() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }
}
