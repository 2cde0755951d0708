//! Rank identifiers, extents and skewness classification.
//!
//! The paper's central observation (§III-A) is that HPC tensor operators have
//! *skewed* shapes — one huge rank (e.g. `M = 1 000 000`) and small remaining
//! ranks (e.g. `N = 8`) — which caps the best achievable arithmetic intensity at
//! `N/2` ops/word (Eq 4) and makes the operation memory-bound regardless of
//! schedule. This module gives shapes a vocabulary: named ranks, extents, the
//! dominant rank, and a [`SkewClass`] used by SCORE's dominance analysis.

use std::fmt;

/// A named rank (loop index / tensor mode), e.g. `m`, `k`, `n`.
///
/// Ranks are interned as small copyable tokens so that DAG-level analyses can
/// compare them cheaply. Names longer than [`RankId::MAX_LEN`] bytes are
/// rejected at construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankId {
    bytes: [u8; Self::MAX_LEN],
    len: u8,
}

impl RankId {
    /// Maximum rank-name length in bytes.
    pub const MAX_LEN: usize = 8;

    /// Creates a rank id from a short ASCII name. Panics on empty/oversized names.
    pub fn new(name: &str) -> Self {
        assert!(
            !name.is_empty() && name.len() <= Self::MAX_LEN,
            "rank name must be 1..={} bytes, got {name:?}",
            Self::MAX_LEN
        );
        let mut bytes = [0u8; Self::MAX_LEN];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Self {
            bytes,
            len: name.len() as u8,
        }
    }

    /// The rank's name.
    pub fn name(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("rank names are ASCII")
    }
}

impl fmt::Debug for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RankId({})", self.name())
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for RankId {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

/// A rank together with its loop extent.
///
/// `effective` is the extent *as seen by the memory system*: for a rank of a
/// compressed (sparse) tensor the effective extent per traversal is the average
/// occupancy, not the full dimension. This is exactly why the paper marks the
/// SpMM node of CG as **U**ncontracted-dominant ("the contracted rank is
/// compressed", Fig 7 caption): `A`'s contracted rank `k` has full extent `M`
/// but effective extent `nnz/M`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankExtent {
    /// The rank identifier.
    pub rank: RankId,
    /// The full (dense) loop extent.
    pub extent: u64,
    /// The effective extent after compression (equals `extent` for dense ranks).
    pub effective: u64,
}

impl RankExtent {
    /// Dense rank: effective extent equals the full extent.
    pub fn dense(rank: impl Into<RankId>, extent: u64) -> Self {
        let rank = rank.into();
        Self {
            rank,
            extent,
            effective: extent,
        }
    }

    /// Compressed rank: traversal only touches `effective` of the `extent` positions.
    pub fn compressed(rank: impl Into<RankId>, extent: u64, effective: u64) -> Self {
        let rank = rank.into();
        assert!(
            effective <= extent,
            "effective extent {effective} exceeds full extent {extent} for rank {rank}"
        );
        Self {
            rank,
            extent,
            effective,
        }
    }
}

/// Shape classification used throughout the paper's motivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkewClass {
    /// All ranks are within `skew_threshold` of each other ("bal" in Fig 7):
    /// the regime DNN accelerators were designed for.
    Balanced,
    /// One rank dwarfs the others — CG's `P`, `R`, `S`, `X` (e.g. 1 000 000 × 8).
    Skewed,
}

/// A plain 2-D shape helper for matrices (`rows × cols`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Shape2D {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Shape2D {
    /// Creates a new 2-D shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the shape holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aspect ratio `max(rows, cols) / min(rows, cols)` (∞-safe: returns
    /// `f64::INFINITY` if the small side is zero).
    pub fn aspect_ratio(&self) -> f64 {
        let hi = self.rows.max(self.cols) as f64;
        let lo = self.rows.min(self.cols) as f64;
        if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }

    /// Classifies the shape given a skew threshold (the paper's examples use
    /// ratios of 65 536:1 for skewed and ≈1:1 for regular; any threshold in
    /// between separates them — we default to 4 elsewhere).
    pub fn skew_class(&self, skew_threshold: f64) -> SkewClass {
        if self.aspect_ratio() > skew_threshold {
            SkewClass::Skewed
        } else {
            SkewClass::Balanced
        }
    }
}

/// Returns the dominant (largest-effective-extent) rank among `ranks`,
/// or `None` for an empty slice. Ties resolve to the first maximal rank,
/// which keeps dominance deterministic for balanced operators.
pub fn dominant_rank(ranks: &[RankExtent]) -> Option<RankExtent> {
    ranks
        .iter()
        .copied()
        .max_by(|a, b| a.effective.cmp(&b.effective).then(b.rank.cmp(&a.rank)))
}

/// Classifies a set of ranks as balanced or skewed: skewed iff the ratio of the
/// largest to the smallest effective extent exceeds `skew_threshold`.
pub fn skew_class(ranks: &[RankExtent], skew_threshold: f64) -> SkewClass {
    let max = ranks.iter().map(|r| r.effective).max().unwrap_or(1).max(1);
    let min = ranks.iter().map(|r| r.effective).min().unwrap_or(1).max(1);
    if max as f64 / min as f64 > skew_threshold {
        SkewClass::Skewed
    } else {
        SkewClass::Balanced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_id_round_trips_names() {
        let r = RankId::new("m");
        assert_eq!(r.name(), "m");
        let r2 = RankId::new("nprime");
        assert_eq!(r2.name(), "nprime");
        assert_ne!(r, r2);
    }

    #[test]
    fn rank_id_equality_is_by_name() {
        assert_eq!(RankId::new("k"), RankId::from("k"));
    }

    #[test]
    #[should_panic(expected = "rank name")]
    fn rank_id_rejects_oversized_names() {
        let _ = RankId::new("waytoolongname");
    }

    #[test]
    #[should_panic(expected = "rank name")]
    fn rank_id_rejects_empty_names() {
        let _ = RankId::new("");
    }

    #[test]
    fn compressed_extent_validated() {
        let r = RankExtent::compressed("k", 1_000_000, 50);
        assert_eq!(r.extent, 1_000_000);
        assert_eq!(r.effective, 50);
    }

    #[test]
    #[should_panic(expected = "effective extent")]
    fn compressed_extent_rejects_inflation() {
        let _ = RankExtent::compressed("k", 10, 11);
    }

    #[test]
    fn dominant_rank_picks_largest_effective() {
        let ranks = [
            RankExtent::dense("m", 524_288),
            RankExtent::dense("k", 16),
            RankExtent::dense("n", 16),
        ];
        assert_eq!(dominant_rank(&ranks).unwrap().rank, RankId::new("m"));
    }

    #[test]
    fn dominant_rank_respects_compression() {
        // CG SpMM: contracted k has full extent M but tiny effective extent.
        let ranks = [
            RankExtent::dense("m", 81_920),
            RankExtent::compressed("k", 81_920, 4),
            RankExtent::dense("n", 16),
        ];
        assert_eq!(dominant_rank(&ranks).unwrap().rank, RankId::new("m"));
    }

    #[test]
    fn skew_classification_matches_paper_examples() {
        // Regular GEMM 512^3 -> balanced; skewed 524288x16x16 -> skewed.
        let regular = [
            RankExtent::dense("m", 512),
            RankExtent::dense("k", 512),
            RankExtent::dense("n", 512),
        ];
        let skewed = [
            RankExtent::dense("m", 524_288),
            RankExtent::dense("k", 16),
            RankExtent::dense("n", 16),
        ];
        assert_eq!(skew_class(&regular, 4.0), SkewClass::Balanced);
        assert_eq!(skew_class(&skewed, 4.0), SkewClass::Skewed);
    }

    #[test]
    fn shape2d_aspect_ratio() {
        assert_eq!(Shape2D::new(8, 8).aspect_ratio(), 1.0);
        assert_eq!(Shape2D::new(1_000_000, 8).aspect_ratio(), 125_000.0);
        assert_eq!(
            Shape2D::new(1_000_000, 8).skew_class(4.0),
            SkewClass::Skewed
        );
    }

    #[test]
    fn shape2d_len_and_empty() {
        assert_eq!(Shape2D::new(3, 4).len(), 12);
        assert!(Shape2D::new(0, 4).is_empty());
        assert!(Shape2D::new(0, 4).aspect_ratio().is_infinite());
    }
}
