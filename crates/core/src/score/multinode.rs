//! Scalable multi-node dataflow (§V-B "Scalable Dataflow", Fig 8 bottom).
//!
//! With multiple accelerator nodes, SCORE parallelizes the *dominant* rank
//! across nodes and keeps pipelining within a node, so only the **small**
//! tensors cross the NoC:
//!
//! - naive strategy (Fig 8 top): pipelining split across nodes moves the
//!   intermediate `R` — `M × N` words — through the NoC;
//! - scalable strategy (Fig 8 bottom): each node owns a slice of `M`; only
//!   `Λ` is broadcast and `Γ` partials reduced:
//!   `N × N' × (Hops_broadcast + Hops_reduce)` words.
//!
//! Since `M ≫ N × hops` in CG, the scalable strategy wins by orders of
//! magnitude; `paper_results`' `ablation_noc` table regenerates the
//! comparison.
//!
//! Both strategies are expressible as **schedule decisions**: a
//! [`Partition`] (node count + [`PartitionAxis`]) rides on a
//! `ScheduleConstraints`, is validated by `build_schedule_with` (only
//! dominant-rank parallelization keeps pipelining intra-node), and the
//! simulator's engine scores the resulting per-node tile footprints and NoC
//! word-hops. [`NocModel`] supplies the mesh geometry the engine charges
//! hops against; the `cello-search` DSE engine explores node counts and
//! axes like any other decision dimension.

use cello_graph::dag::TensorDag;
use cello_graph::node::Dominance;
use cello_tensor::shape::RankId;
use std::collections::BTreeMap;

/// A 2-D mesh NoC of `nodes` accelerator nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocModel {
    /// Number of nodes (assumed arranged in a near-square mesh).
    pub nodes: u64,
}

impl NocModel {
    /// Creates a NoC model.
    pub fn new(nodes: u64) -> Self {
        assert!(nodes >= 1);
        Self { nodes }
    }

    /// Mesh side length (⌈√nodes⌉).
    pub fn mesh_side(&self) -> u64 {
        (self.nodes as f64).sqrt().ceil() as u64
    }

    /// Worst-case hop count of a broadcast from a corner (2·(side−1)).
    pub fn hops_broadcast(&self) -> u64 {
        2 * (self.mesh_side().saturating_sub(1))
    }

    /// Hop count of a dimension-ordered reduction (same diameter).
    pub fn hops_reduce(&self) -> u64 {
        self.hops_broadcast()
    }

    /// NoC word-hops of the naive strategy: the big `M×N` intermediate moves
    /// between pipeline stages placed on different nodes.
    pub fn naive_words(&self, m: u64, n: u64) -> u64 {
        m * n
    }

    /// NoC word-hops of the scalable strategy:
    /// `SIZE_Λ × HOPS_broadcast + SIZE_Γ × HOPS_reduce` with the small
    /// tensors sized `N × N'`.
    pub fn scalable_words(&self, n: u64, nprime: u64) -> u64 {
        n * nprime * (self.hops_broadcast() + self.hops_reduce())
    }

    /// The improvement factor of the scalable strategy (∞-safe).
    pub fn advantage(&self, m: u64, n: u64, nprime: u64) -> f64 {
        let scalable = self.scalable_words(n, nprime).max(1);
        self.naive_words(m, n) as f64 / scalable as f64
    }
}

/// Which dataflow axis a multi-node schedule parallelizes (Fig 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionAxis {
    /// Slice this rank across nodes (Fig 8 bottom when the rank is the
    /// producers' dominant rank): every tensor carrying the rank is split
    /// `1/nodes` per node, tensors without it are broadcast/reduced over the
    /// NoC, and pipelining stays intra-node as long as producers stream the
    /// sliced rank outermost.
    Rank(RankId),
    /// Place pipeline stages on different nodes (Fig 8 top, the naive
    /// strategy): tensor footprints are not sliced and every realized
    /// (pipelined) edge ships its full intermediate through the NoC.
    #[default]
    Stage,
}

/// A schedule's multi-node partitioning decision: how many accelerator nodes
/// share the work and along which [`PartitionAxis`]. `nodes == 1` means the
/// single-node dataflow regardless of axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Number of accelerator nodes (mesh-arranged, see [`NocModel`]).
    pub nodes: u64,
    /// The parallelized axis.
    pub axis: PartitionAxis,
}

impl Partition {
    /// The single-node partition (no NoC, no slicing) — the default.
    pub fn single() -> Self {
        Self {
            nodes: 1,
            axis: PartitionAxis::Stage,
        }
    }

    /// Slice `rank` across `nodes` (the §V-B scalable strategy when `rank`
    /// is dominant).
    pub fn by_rank(nodes: u64, rank: RankId) -> Self {
        Self {
            nodes,
            axis: PartitionAxis::Rank(rank),
        }
    }

    /// Split pipeline stages across `nodes` (the Fig 8 top naive strategy).
    pub fn by_stage(nodes: u64) -> Self {
        Self {
            nodes,
            axis: PartitionAxis::Stage,
        }
    }

    /// True when more than one node shares the work.
    pub fn is_multi(&self) -> bool {
        self.nodes > 1
    }

    /// The rank sliced across nodes, when multi-node rank partitioning is in
    /// effect.
    pub fn sliced_rank(&self) -> Option<RankId> {
        match self.axis {
            PartitionAxis::Rank(r) if self.is_multi() => Some(r),
            _ => None,
        }
    }
}

impl Default for Partition {
    fn default() -> Self {
        Self::single()
    }
}

/// The DAG-wide partitionable rank: the dominant rank of the
/// uncontracted-dominant ops, weighted by output footprint (the rank whose
/// slicing shrinks the most per-node working set). Ties break toward the
/// lexicographically smallest rank so the choice is deterministic; returns
/// `None` when no op is uncontracted-dominant (nothing worth slicing).
pub fn dominant_partition_rank(dag: &TensorDag) -> Option<RankId> {
    let mut weights: BTreeMap<RankId, u64> = BTreeMap::new();
    for (_, node) in dag.nodes() {
        if node.dominance == Dominance::Uncontracted {
            *weights.entry(node.spec.dominant().rank).or_default() += node.output.words;
        }
    }
    let mut best: Option<(RankId, u64)> = None;
    for (rank, weight) in weights {
        if best.is_none_or(|(_, w)| weight > w) {
            best = Some((rank, weight));
        }
    }
    best.map(|(rank, _)| rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_geometry() {
        assert_eq!(NocModel::new(1).mesh_side(), 1);
        assert_eq!(NocModel::new(4).mesh_side(), 2);
        assert_eq!(NocModel::new(16).mesh_side(), 4);
        assert_eq!(NocModel::new(17).mesh_side(), 5);
    }

    #[test]
    fn single_node_has_no_hops() {
        let noc = NocModel::new(1);
        assert_eq!(noc.hops_broadcast(), 0);
        assert_eq!(noc.scalable_words(16, 16), 0);
    }

    /// The paper's argument: M >> N × hops, so moving Λ/Γ beats moving R.
    #[test]
    fn scalable_beats_naive_on_cg_shapes() {
        let noc = NocModel::new(16);
        let (m, n, nprime) = (1_000_000u64, 8u64, 8u64);
        let naive = noc.naive_words(m, n);
        let scalable = noc.scalable_words(n, nprime);
        assert!(
            naive > 1000 * scalable,
            "naive {naive} vs scalable {scalable}"
        );
        assert!(noc.advantage(m, n, nprime) > 1000.0);
    }

    #[test]
    fn advantage_shrinks_with_mesh_size() {
        // More nodes -> more hops -> less advantage (still enormous for CG).
        let a4 = NocModel::new(4).advantage(1_000_000, 8, 8);
        let a64 = NocModel::new(64).advantage(1_000_000, 8, 8);
        assert!(a4 > a64);
        assert!(a64 > 100.0);
    }

    #[test]
    fn naive_scales_with_m() {
        let noc = NocModel::new(4);
        assert_eq!(noc.naive_words(100, 8), 800);
        assert_eq!(noc.naive_words(200, 8), 1600);
        // Scalable is independent of M entirely.
        assert_eq!(noc.scalable_words(8, 8), noc.scalable_words(8, 8));
    }

    #[test]
    fn partition_accessors() {
        let single = Partition::single();
        assert!(!single.is_multi());
        assert_eq!(single.sliced_rank(), None);
        assert_eq!(Partition::default(), single);

        let m = RankId::new("m");
        let ranked = Partition::by_rank(4, m);
        assert!(ranked.is_multi());
        assert_eq!(ranked.sliced_rank(), Some(m));

        let staged = Partition::by_stage(4);
        assert!(staged.is_multi());
        assert_eq!(staged.sliced_rank(), None);

        // A 1-node rank partition slices nothing.
        assert_eq!(Partition::by_rank(1, m).sliced_rank(), None);
    }

    #[test]
    fn dominant_partition_rank_on_skewed_dag() {
        use cello_graph::edge::TensorMeta;
        use cello_graph::node::OpKind;
        use cello_tensor::einsum::EinsumSpec;
        use cello_tensor::shape::RankExtent;
        let mut dag = TensorDag::new();
        // Skewed GEMM dominated by m: the partition rank must be m.
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 100_000),
                RankExtent::dense("k", 16),
                RankExtent::dense("n", 16),
            ],
        );
        dag.add_op(
            "u",
            spec,
            OpKind::TensorMac,
            TensorMeta::dense("T", &["m", "n"], 1_600_000),
        );
        assert_eq!(dominant_partition_rank(&dag), Some(RankId::new("m")));

        // A DAG with only contraction-dominant ops has nothing to slice.
        let mut cdag = TensorDag::new();
        let cspec = EinsumSpec::parse(
            "kp,kn->pn",
            &[
                RankExtent::dense("k", 100_000),
                RankExtent::dense("p", 16),
                RankExtent::dense("n", 16),
            ],
        );
        cdag.add_op(
            "c",
            cspec,
            OpKind::TensorMac,
            TensorMeta::dense("D", &["p", "n"], 256),
        );
        assert_eq!(dominant_partition_rank(&cdag), None);
    }
}
