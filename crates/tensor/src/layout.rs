//! Data layouts and swizzle (layout transformation) accounting.
//!
//! Challenge 4 of the paper (§III-B): when one operand has multiple consumers,
//! *preserving its on-chip layout* across those consumers is crucial — a
//! consumer that needs the transposed layout forces a swizzle, which costs a
//! full pass over the tensor. SCORE's loop-order selection minimizes the number
//! of swizzles (§V-B); this module provides the layout vocabulary and the cost
//! accounting it optimizes.

/// Storage order of a 2-D tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Rows are contiguous (C order). A consumer streaming along rows is
    /// layout-compatible.
    RowMajor,
    /// Columns are contiguous (Fortran order).
    ColMajor,
}

impl Layout {
    /// The transposed layout.
    pub fn transposed(self) -> Layout {
        match self {
            Layout::RowMajor => Layout::ColMajor,
            Layout::ColMajor => Layout::RowMajor,
        }
    }

    /// Linear index of `(row, col)` in a `rows × cols` tensor stored with this
    /// layout.
    pub fn index(self, rows: usize, cols: usize, row: usize, col: usize) -> usize {
        debug_assert!(row < rows && col < cols);
        match self {
            Layout::RowMajor => row * cols + col,
            Layout::ColMajor => col * rows + row,
        }
    }
}

/// Cost of serving a consumer that wants `wanted` from a tensor stored as
/// `stored`, in *extra* full-tensor passes (0 when compatible, 1 when a swizzle
/// is needed). The units are tensor-sized word transfers; callers multiply by
/// the tensor footprint.
pub fn swizzle_passes(stored: Layout, wanted: Layout) -> u64 {
    u64::from(stored != wanted)
}

/// Given a produced layout and the layouts wanted by each consumer, returns the
/// number of swizzles incurred. SCORE picks the produced layout minimizing this
/// (ties resolve to the producer's natural layout).
pub fn count_swizzles(produced: Layout, consumers: &[Layout]) -> u64 {
    consumers.iter().map(|&c| swizzle_passes(produced, c)).sum()
}

/// Chooses the production layout that minimizes total swizzles across
/// consumers; `natural` breaks ties (the producer's cheapest layout).
pub fn best_layout(natural: Layout, consumers: &[Layout]) -> Layout {
    let cost_nat = count_swizzles(natural, consumers);
    let cost_alt = count_swizzles(natural.transposed(), consumers);
    if cost_alt < cost_nat {
        natural.transposed()
    } else {
        natural
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposed_round_trips() {
        assert_eq!(Layout::RowMajor.transposed().transposed(), Layout::RowMajor);
    }

    #[test]
    fn index_math() {
        // 2x3 tensor: element (1,2).
        assert_eq!(Layout::RowMajor.index(2, 3, 1, 2), 5);
        assert_eq!(Layout::ColMajor.index(2, 3, 1, 2), 5); // col*rows+row = 2*2+1
        assert_eq!(Layout::RowMajor.index(2, 3, 0, 1), 1);
        assert_eq!(Layout::ColMajor.index(2, 3, 0, 1), 2);
    }

    #[test]
    fn swizzle_cost_zero_when_compatible() {
        assert_eq!(swizzle_passes(Layout::RowMajor, Layout::RowMajor), 0);
        assert_eq!(swizzle_passes(Layout::RowMajor, Layout::ColMajor), 1);
    }

    #[test]
    fn best_layout_minimizes_swizzles() {
        use Layout::*;
        // Two consumers want ColMajor, one wants RowMajor: produce ColMajor.
        assert_eq!(
            best_layout(RowMajor, &[ColMajor, ColMajor, RowMajor]),
            ColMajor
        );
        // Tie: keep the natural layout.
        assert_eq!(best_layout(RowMajor, &[ColMajor, RowMajor]), RowMajor);
        // No consumers: natural.
        assert_eq!(best_layout(ColMajor, &[]), ColMajor);
    }

    #[test]
    fn fig3_challenge4_example() {
        // Paper Fig 3(b) challenge 4: tensor S consumed row-major by ops 2 and 4;
        // producing it row-major avoids all swizzles.
        use Layout::*;
        assert_eq!(count_swizzles(RowMajor, &[RowMajor, RowMajor]), 0);
        assert_eq!(count_swizzles(ColMajor, &[RowMajor, RowMajor]), 2);
        assert_eq!(best_layout(ColMajor, &[RowMajor, RowMajor]), RowMajor);
    }
}
