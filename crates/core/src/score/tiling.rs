//! Tile feasibility (§V-B "Tiling").
//!
//! SCORE's tiling is deliberately simple — the whole point of CHORD is that
//! fine-grained buffer allocation is *not* searched. Binding asks two yes/no
//! questions and sizes nothing:
//!
//! - [`rf_fits`]: the **small tensor** of a skewed GEMM lives entirely in
//!   the register file and streams from there ("they do not require
//!   scheduling search, since we fix the mapping");
//! - [`pipeline_can_stream`]: the **large tensor** is tiled along the
//!   dominant rank so a producer tile + consumer tile double-buffer in the
//!   pipeline buffer, which needs room for at least one row per stage.

/// Whether a tensor fits entirely in the register file — the small Greek
/// tensors of CG (`Δ`, `Λ`, `Γ`, `Φ`, all `N×N'`) do.
pub fn rf_fits(words: u64, rf_capacity_words: u64) -> bool {
    words <= rf_capacity_words
}

/// Whether a pipelined producer→consumer stream is *feasible* in a pipeline
/// buffer of `pipeline_capacity_words`: each of the `stages` stages must
/// double-buffer at least one dominant-rank row (`row_words`) within its
/// `capacity / (2·stages)` share. Below this floor the edge cannot be
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
