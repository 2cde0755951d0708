//! ResNet conv3_x residual block, GEMM-lowered (Table VI; §VII-C1, Fig 16a).
//!
//! The paper's DNN case study is the conv3_x residual block of ResNet-50 on
//! ImageNet at 16-bit words. Convolutions lower to GEMMs via im2col:
//! `M = H·W·batch` output pixels, `K = C_in·kh·kw`, `N = C_out`. The identity
//! block is the Fig 7 example: a producer, three convolutions, and the
//! elementwise add fed by the **skip connection** — a transitive edge over an
//! all-pipelineable path, i.e. the `Delayed_hold` dependency that SET handles
//! and FLAT does not.

use cello_graph::dag::TensorDag;
use cello_graph::edge::TensorMeta;
use cello_graph::node::OpKind;
use cello_tensor::einsum::EinsumSpec;
use cello_tensor::shape::{RankExtent, RankId};

/// One convolution lowered to a GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGemm {
    /// Output pixels × batch (`M`).
    pub m: u64,
    /// `C_in · kh · kw` (`K`).
    pub k: u64,
    /// Output channels (`N`).
    pub n: u64,
}

impl ConvGemm {
    /// MACs of the lowered GEMM.
    pub fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }

    /// Output tensor words.
    pub fn out_words(&self) -> u64 {
        self.m * self.n
    }

    /// Weight tensor words.
    pub fn weight_words(&self) -> u64 {
        self.k * self.n
    }
}

/// ResNet-50 conv3_x block parameters (28×28 feature maps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResNetBlockParams {
    /// Feature-map side (28 for conv3_x).
    pub hw: u64,
    /// Bottleneck width (128 for conv3_x).
    pub bottleneck: u64,
    /// Block output channels (512 for conv3_x).
    pub channels: u64,
    /// Batch size.
    pub batch: u64,
}

impl ResNetBlockParams {
    /// The paper's configuration: conv3_x (He et al. 2016), batch 1.
    pub fn conv3x() -> Self {
        Self {
            hw: 28,
            bottleneck: 128,
            channels: 512,
            batch: 1,
        }
    }

    /// Output pixels (`M` of every GEMM in the block).
    pub fn m(&self) -> u64 {
        self.hw * self.hw * self.batch
    }

    /// The producer conv that generates the block input (previous block's
    /// last 1×1 conv).
    pub fn producer(&self) -> ConvGemm {
        ConvGemm {
            m: self.m(),
            k: self.bottleneck,
            n: self.channels,
        }
    }

    /// conv1: 1×1, channels → bottleneck.
    pub fn conv1(&self) -> ConvGemm {
        ConvGemm {
            m: self.m(),
            k: self.channels,
            n: self.bottleneck,
        }
    }

    /// conv2: 3×3, bottleneck → bottleneck (K = 9·bottleneck).
    pub fn conv2(&self) -> ConvGemm {
        ConvGemm {
            m: self.m(),
            k: 9 * self.bottleneck,
            n: self.bottleneck,
        }
    }

    /// conv3: 1×1, bottleneck → channels.
    pub fn conv3(&self) -> ConvGemm {
        ConvGemm {
            m: self.m(),
            k: self.bottleneck,
            n: self.channels,
        }
    }
}

fn gemm_spec(c: ConvGemm) -> EinsumSpec {
    EinsumSpec::from_parts(
        vec![
            vec![RankId::new("m"), RankId::new("k")],
            vec![RankId::new("k"), RankId::new("n")],
        ],
        vec![RankId::new("m"), RankId::new("n")],
        &[
            RankExtent::dense("m", c.m),
            RankExtent::dense("k", c.k),
            RankExtent::dense("n", c.n),
        ],
    )
}

/// Builds the residual-block DAG: producer → conv1 → conv2 → conv3 → add,
/// with the skip edge producer → add (the Fig 7 `Delayed_hold`).
pub fn build_resnet_block_dag(prm: &ResNetBlockParams) -> TensorDag {
    let mut dag = TensorDag::new();
    let t = |name: &str, words: u64| TensorMeta::dense(name, &["m", "n"], words);

    let producer = dag.add_op(
        "prev:1×1",
        gemm_spec(prm.producer()),
        OpKind::TensorMac,
        t("T0", prm.producer().out_words()),
    );
    let c1 = dag.add_op(
        "conv1:1×1",
        gemm_spec(prm.conv1()),
        OpKind::TensorMac,
        t("T1", prm.conv1().out_words()),
    );
    let c2 = dag.add_op(
        "conv2:3×3",
        gemm_spec(prm.conv2()),
        OpKind::TensorMac,
        t("T2", prm.conv2().out_words()),
    );
    let c3 = dag.add_op(
        "conv3:1×1",
        gemm_spec(prm.conv3()),
        OpKind::TensorMac,
        t("T3", prm.conv3().out_words()),
    );
    // The add is an elementwise M×channels op; model as a thin MAC.
    let add = dag.add_op(
        "add",
        gemm_spec(ConvGemm {
            m: prm.m(),
            k: 1,
            n: prm.channels,
        }),
        OpKind::TensorMac,
        t("T4", prm.m() * prm.channels),
    );

    dag.add_edge(producer, c1, &["m", "k"]);
    dag.add_edge(c1, c2, &["m", "k"]);
    dag.add_edge(c2, c3, &["m", "k"]);
    dag.add_edge(c3, add, &["m", "n"]);
    dag.add_edge(producer, add, &["m", "n"]); // skip connection

    // Weights stream from DRAM (single use each).
    for (node, conv, name) in [
        (producer, prm.producer(), "Wp"),
        (c1, prm.conv1(), "W1"),
        (c2, prm.conv2(), "W2"),
        (c3, prm.conv3(), "W3"),
    ] {
        dag.add_external(
            TensorMeta::dense(name, &["k", "n"], conv.weight_words()),
            &[(node, &["k", "n"])],
        );
    }
    // The producer's own input activation.
    dag.add_external(
        TensorMeta::dense("In", &["m", "k"], prm.m() * prm.bottleneck),
        &[(producer, &["m", "k"])],
    );
    dag
}

/// Builds a whole ResNet *stage* of `blocks` chained residual blocks
/// (conv3_x has four): block `b`'s add-output feeds block `b+1`'s first conv
/// *and* its add (the identity skip), so every block boundary carries both a
/// pipelineable edge and a delayed-hold edge — the stress test for SET-style
/// hold capacity.
pub fn build_resnet_stage_dag(prm: &ResNetBlockParams, blocks: u32) -> TensorDag {
    assert!(blocks >= 1);
    let mut dag = TensorDag::new();
    let t = |name: String, words: u64| TensorMeta::dense(name, &["m", "n"], words);

    let producer = dag.add_op(
        "prev:1×1",
        gemm_spec(prm.producer()),
        OpKind::TensorMac,
        t("T0".to_string(), prm.producer().out_words()),
    );
    dag.add_external(
        TensorMeta::dense("In", &["m", "k"], prm.m() * prm.bottleneck),
        &[(producer, &["m", "k"])],
    );
    dag.add_external(
        TensorMeta::dense("Wp", &["k", "n"], prm.producer().weight_words()),
        &[(producer, &["k", "n"])],
    );

    let mut skip_src = producer;
    for b in 1..=blocks {
        let c1 = dag.add_op(
            format!("b{b}.conv1:1×1"),
            gemm_spec(prm.conv1()),
            OpKind::TensorMac,
            t(format!("B{b}T1"), prm.conv1().out_words()),
        );
        let c2 = dag.add_op(
            format!("b{b}.conv2:3×3"),
            gemm_spec(prm.conv2()),
            OpKind::TensorMac,
            t(format!("B{b}T2"), prm.conv2().out_words()),
        );
        let c3 = dag.add_op(
            format!("b{b}.conv3:1×1"),
            gemm_spec(prm.conv3()),
            OpKind::TensorMac,
            t(format!("B{b}T3"), prm.conv3().out_words()),
        );
        let add = dag.add_op(
            format!("b{b}.add"),
            gemm_spec(ConvGemm {
                m: prm.m(),
                k: 1,
                n: prm.channels,
            }),
            OpKind::TensorMac,
            t(format!("B{b}T4"), prm.m() * prm.channels),
        );
        dag.add_edge(skip_src, c1, &["m", "k"]);
        dag.add_edge(c1, c2, &["m", "k"]);
        dag.add_edge(c2, c3, &["m", "k"]);
        dag.add_edge(c3, add, &["m", "n"]);
        dag.add_edge(skip_src, add, &["m", "n"]); // identity skip
        for (node, conv, name) in [
            (c1, prm.conv1(), format!("B{b}W1")),
            (c2, prm.conv2(), format!("B{b}W2")),
            (c3, prm.conv3(), format!("B{b}W3")),
        ] {
            dag.add_external(
                TensorMeta::dense(name, &["k", "n"], conv.weight_words()),
                &[(node, &["k", "n"])],
            );
        }
        skip_src = add;
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_core::score::classify::{classify, Dependency};

    #[test]
    fn conv3x_shapes_match_resnet50() {
        let p = ResNetBlockParams::conv3x();
        assert_eq!(p.m(), 784);
        assert_eq!(p.conv1().k, 512);
        assert_eq!(p.conv2().k, 1152);
        assert_eq!(p.conv3().n, 512);
        // conv2 dominates compute: 784 × 1152 × 128.
        assert_eq!(p.conv2().macs(), 784 * 1152 * 128);
    }

    #[test]
    fn skip_classified_delayed_hold() {
        let dag = build_resnet_block_dag(&ResNetBlockParams::conv3x());
        let cls = classify(&dag);
        // Edges: p→c1, c1→c2, c2→c3, c3→add, p→add(skip).
        assert_eq!(cls.deps[4], Dependency::DelayedHold, "skip must be hold");
        assert_eq!(cls.deps[0], Dependency::Pipelineable);
        assert_eq!(cls.deps[3], Dependency::Pipelineable);
    }

    #[test]
    fn batch_scales_m() {
        let p = ResNetBlockParams {
            batch: 8,
            ..ResNetBlockParams::conv3x()
        };
        assert_eq!(p.m(), 784 * 8);
        assert_eq!(p.conv1().out_words(), 784 * 8 * 128);
    }

    #[test]
    fn dag_structure() {
        let dag = build_resnet_block_dag(&ResNetBlockParams::conv3x());
        assert_eq!(dag.node_count(), 5);
        assert_eq!(dag.edge_count(), 5);
        assert_eq!(dag.externals().len(), 5); // 4 weights + input
    }

    #[test]
    fn stage_chains_blocks() {
        let prm = ResNetBlockParams::conv3x();
        let dag = build_resnet_stage_dag(&prm, 4);
        // producer + 4 blocks × 4 ops.
        assert_eq!(dag.node_count(), 1 + 16);
        // 5 edges per block.
        assert_eq!(dag.edge_count(), 20);
        // In + Wp + 3 weights per block.
        assert_eq!(dag.externals().len(), 2 + 12);
        // Every block's skip is a delayed hold.
        let cls = classify(&dag);
        let holds = cls
            .deps
            .iter()
            .filter(|&&d| d == Dependency::DelayedHold)
            .count();
        assert_eq!(holds, 4, "one hold per residual block");
    }

    #[test]
    fn stage_fuses_fully_under_cello() {
        use cello_core::score::binding::{build_schedule, ScheduleOptions};
        let dag = build_resnet_stage_dag(&ResNetBlockParams::conv3x(), 2);
        let s = build_schedule(&dag, ScheduleOptions::cello());
        // The whole stage is one pipeline cluster: every edge is
        // pipelineable or hold and loop orders are compatible.
        assert_eq!(s.phases.len(), 1, "{:?}", s.phases);
        s.validate(&dag).unwrap();
    }

    #[test]
    fn block_arithmetic_intensity_is_high() {
        // ResNet blocks are compute-dense: AI far above CG's ~2 ops/byte
        // (the paper notes ResNet is compute-bound at 1 TB/s).
        let p = ResNetBlockParams::conv3x();
        // The block's MACs: every op but the producer.
        let dag = build_resnet_block_dag(&p);
        let macs = dag.nodes().skip(1).map(|(_, n)| n.macs).sum::<u64>() as f64;
        let words = (p.m() * p.channels * 3
            + p.conv1().weight_words()
            + p.conv2().weight_words()
            + p.conv3().weight_words()) as f64;
        let ai = macs / (words * 2.0); // 16-bit words
        assert!(ai > 16.384, "AI {ai} should exceed the 1 TB/s ridge point");
    }
}
