//! Tile sizing (§V-B "Tiling" and "Handling sparsity").
//!
//! SCORE's tiling is deliberately simple — the whole point of CHORD is that
//! fine-grained buffer allocation is *not* searched:
//!
//! - the **small tensor** of a skewed GEMM lives entirely in the register
//!   file and streams from there ("they do not require scheduling search,
//!   since we fix the mapping");
//! - the **large tensor** is stationary per tile, tiled along the dominant
//!   rank so a producer tile + consumer tile double-buffer in the pipeline
//!   buffer;
//! - the **sparse tensor** is tiled by *occupancy*: rows per tile chosen so
//!   the CSR payload (values + column indices + row pointers) fits.

/// A tile decision for one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileChoice {
    /// Rows of the dominant rank per tile (`M0` in the paper's loop nests).
    pub tile_rows: u64,
    /// Words per tile.
    pub tile_words: u64,
    /// Number of tiles covering the dominant extent.
    pub tiles: u64,
}

/// Tiles the dominant rank so that `stages` tiles double-buffer within
/// `pipeline_capacity_words` (each stage holds one in-flight tile plus one
/// being filled).
///
/// `row_words` is the footprint of a single dominant-rank row (e.g. `N` words
/// for an `M×N` tensor).
pub fn tile_for_pipeline(
    dominant_extent: u64,
    row_words: u64,
    pipeline_capacity_words: u64,
    stages: u64,
) -> TileChoice {
    assert!(row_words > 0 && stages > 0);
    let budget_per_stage = pipeline_capacity_words / (stages * 2); // double buffer
    let tile_rows = (budget_per_stage / row_words).clamp(1, dominant_extent.max(1));
    TileChoice {
        tile_rows,
        tile_words: tile_rows * row_words,
        tiles: dominant_extent.div_ceil(tile_rows),
    }
}

/// Occupancy-based sparse tiling: rows per tile such that the CSR payload
/// (`2·nnz_per_row` words for values+indices, +1 word per row pointer) fits
/// within `capacity_words`.
pub fn sparse_tile_rows(occupancy: f64, capacity_words: u64) -> u64 {
    assert!(occupancy >= 0.0);
    let words_per_row = 2.0 * occupancy + 1.0;
    ((capacity_words as f64 / words_per_row).floor() as u64).max(1)
}

/// Whether a tensor fits entirely in the register file — the small Greek
/// tensors of CG (`Δ`, `Λ`, `Γ`, `Φ`, all `N×N'`) do.
pub fn rf_fits(words: u64, rf_capacity_words: u64) -> bool {
    words <= rf_capacity_words
}

/// Whether a pipelined producer→consumer stream is *feasible* in a pipeline
/// buffer of `pipeline_capacity_words`: each of the `stages` stages must
/// double-buffer at least one dominant-rank row (`row_words`), i.e.
/// [`tile_for_pipeline`] must be able to pick `tile_rows >= 1` without
/// overflowing its per-stage budget. Below this floor the edge cannot be
/// realized as on-chip pipelining at all — which is what makes the pipeline
/// buffer size a real knob for the DSE engine rather than free SRAM.
pub fn pipeline_can_stream(row_words: u64, pipeline_capacity_words: u64, stages: u64) -> bool {
    assert!(stages > 0);
    pipeline_capacity_words / (stages * 2) >= row_words.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_double_buffers() {
        // 64K-word pipeline buffer, 2 stages, 16-word rows:
        // per stage budget 16K words -> 1024 rows/tile.
        let t = tile_for_pipeline(81_920, 16, 65_536, 2);
        assert_eq!(t.tile_rows, 1024);
        assert_eq!(t.tile_words, 16_384);
        assert_eq!(t.tiles, 80);
    }

    #[test]
    fn tile_clamps_to_extent() {
        let t = tile_for_pipeline(100, 4, 1 << 20, 1);
        assert_eq!(t.tile_rows, 100);
        assert_eq!(t.tiles, 1);
    }

    #[test]
    fn tile_never_zero_rows() {
        // Pathologically wide rows still make progress one row at a time.
        let t = tile_for_pipeline(1000, 1 << 20, 1024, 2);
        assert_eq!(t.tile_rows, 1);
        assert_eq!(t.tiles, 1000);
    }

    #[test]
    fn tiles_cover_extent() {
        for extent in [1u64, 7, 100, 81_920] {
            for cap in [256u64, 4096, 1 << 16] {
                let t = tile_for_pipeline(extent, 16, cap, 2);
                assert!(t.tile_rows * t.tiles >= extent, "{t:?} vs {extent}");
                assert!(t.tile_rows * (t.tiles - 1) < extent, "{t:?} over-covers");
            }
        }
    }

    #[test]
    fn sparse_tiling_respects_occupancy() {
        // occupancy 4 nnz/row -> 9 words per row -> 1000-word tile = 111 rows.
        assert_eq!(sparse_tile_rows(4.0, 1000), 111);
        // Denser matrix, fewer rows per tile.
        assert!(sparse_tile_rows(50.0, 1000) < sparse_tile_rows(4.0, 1000));
        assert_eq!(sparse_tile_rows(1000.0, 10), 1);
    }

    #[test]
    fn pipeline_stream_floor() {
        // 16-word rows, 2 stages, double-buffered: needs >= 64 words.
        assert!(pipeline_can_stream(16, 64, 2));
        assert!(!pipeline_can_stream(16, 63, 2));
        // The paper's 64K-word buffer streams even 16K-word rows.
        assert!(pipeline_can_stream(16_384, 65_536, 2));
        assert!(!pipeline_can_stream(16_385, 65_536, 2));
    }

    #[test]
    fn rf_thresholds() {
        // CG's Greek tensors: N=16 -> 256 words, fits a 16K-word RF.
        assert!(rf_fits(256, 16_384));
        // P (81920 x 16) does not.
        assert!(!rf_fits(81_920 * 16, 16_384));
    }
}
