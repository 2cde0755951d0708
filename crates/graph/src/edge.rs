//! Tensors and the edges that carry them.
//!
//! An edge `u → v` means "v consumes the tensor u produced". The tensor's
//! *rank names as the consumer sees them* ride along (`dst_ranks`): CG's `S`
//! is produced as `S[m,n]` by line 1 but consumed as `S[k,n]` by line 2a —
//! Algorithm 2's "unshared" test (`edge.dest.dominance ∉ edge.tensor.ranks`)
//! is evaluated against these consumer-side names. The consumer's preferred
//! layout also rides along so SCORE can count swizzles (Challenge 4).

use cello_tensor::layout::Layout;
use cello_tensor::shape::RankId;
use cello_tensor::sparse::OccupancyStats;

/// Metadata of a tensor (an op output or an external DAG input such as CG's `A`).
#[derive(Clone, Debug, PartialEq)]
pub struct TensorMeta {
    /// Tensor name (`"S"`, `"R"`, `"A"`, …) — unique within a DAG.
    pub name: String,
    /// Rank names as produced.
    pub ranks: Vec<RankId>,
    /// Footprint in words (CSR payload incl. metadata for sparse tensors).
    pub words: u64,
    /// Whether the tensor is stored compressed.
    pub sparse: bool,
    /// The layout the producer naturally emits.
    pub layout: Layout,
    /// Per-row-block occupancy statistics of the real nonzero structure,
    /// when known (`.mtx`-derived sparse operands). `None` keeps the
    /// worst-case dense model — the pre-occupancy behavior, bit for bit.
    pub occupancy: Option<OccupancyStats>,
}

impl TensorMeta {
    /// Dense tensor helper.
    pub fn dense(name: impl Into<String>, ranks: &[&str], words: u64) -> Self {
        Self {
            name: name.into(),
            ranks: ranks.iter().map(|r| RankId::new(r)).collect(),
            words,
            sparse: false,
            layout: Layout::RowMajor,
            occupancy: None,
        }
    }

    /// Sparse (CSR/CSC) tensor helper; `words` must include metadata payload.
    pub fn sparse(name: impl Into<String>, ranks: &[&str], words: u64) -> Self {
        Self {
            sparse: true,
            ..Self::dense(name, ranks, words)
        }
    }

    /// Same tensor with a different layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Same tensor carrying occupancy statistics of its nonzero structure
    /// (the Tailors-style overbooking model reads these).
    pub fn with_occupancy(mut self, occupancy: OccupancyStats) -> Self {
        self.occupancy = Some(occupancy);
        self
    }
}

/// A producer→consumer edge of the tensor dependency DAG.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Producing node index.
    pub src: usize,
    /// Consuming node index.
    pub dst: usize,
    /// Rank names the consumer uses for this tensor (for the "unshared" test).
    pub dst_ranks: Vec<RankId>,
    /// The layout the consumer wants to stream the tensor in.
    pub dst_layout: Layout,
}

impl Edge {
    /// Convenience constructor with rank names.
    pub fn new(src: usize, dst: usize, dst_ranks: &[&str]) -> Self {
        Self {
            src,
            dst,
            dst_ranks: dst_ranks.iter().map(|r| RankId::new(r)).collect(),
            dst_layout: Layout::RowMajor,
        }
    }

    /// Sets the consumer-side layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.dst_layout = layout;
        self
    }

    /// True when `rank` is one of the tensor's ranks at the consumer — i.e.
    /// the consumer's dominant rank is *shared* with this tensor.
    pub fn shares_rank(&self, rank: RankId) -> bool {
        self.dst_ranks.contains(&rank)
    }
}

/// An external (DRAM-resident) input tensor with its consumer list — CG's `A`
/// and the initial `X`, `B`. These are not produced by any node, but they are
/// first-class reuse candidates: Fig 10's RIFF table holds `A` with `Freq 10`
/// (one use per CG iteration).
#[derive(Clone, Debug, PartialEq)]
pub struct ExternalInput {
    /// Tensor metadata.
    pub meta: TensorMeta,
    /// `(consumer node, rank names at that consumer)` pairs.
    pub consumers: Vec<(usize, Vec<RankId>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_meta() {
        let t = TensorMeta::dense("S", &["m", "n"], 81_920 * 16);
        assert_eq!(t.name, "S");
        assert!(!t.sparse);
        assert_eq!(t.ranks.len(), 2);
        assert_eq!(t.words, 1_310_720);
    }

    #[test]
    fn sparse_meta() {
        let t = TensorMeta::sparse("A", &["m", "k"], 327_680 * 2 + 81_921);
        assert!(t.sparse);
        assert!(t.occupancy.is_none(), "worst-case dense by default");
        let o = t.with_occupancy(OccupancyStats::dense());
        assert_eq!(o.occupancy, Some(OccupancyStats::dense()));
    }

    #[test]
    fn edge_shares_rank() {
        let e = Edge::new(0, 1, &["k", "n"]);
        assert!(e.shares_rank(RankId::new("k")));
        assert!(e.shares_rank(RankId::new("n")));
        assert!(!e.shares_rank(RankId::new("m")));
    }

    #[test]
    fn layout_builders() {
        let t = TensorMeta::dense("Z", &["m"], 8).with_layout(Layout::ColMajor);
        assert_eq!(t.layout, Layout::ColMajor);
        let e = Edge::new(0, 1, &["m"]).with_layout(Layout::ColMajor);
        assert_eq!(e.dst_layout, Layout::ColMajor);
    }
}
