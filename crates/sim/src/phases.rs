//! Per-phase footprint/traffic planning — the shared primitive under both
//! evaluation tiers.
//!
//! [`plan_phases`] walks a SCORE [`Schedule`] once and materializes, per
//! pipeline cluster, exactly what the execution engine would do: the ordered
//! operand-granular accesses (multicast-deduped, realized edges skipped,
//! RIFF `(freq, dist)` metadata attached with any `PriorityBias` already
//! applied), the per-node compute share, and the NoC hop-words the §V-B
//! partition charges. The [`crate::engine`] *replays* the plan against a
//! stateful [`crate::backends::MemoryBackend`], so footprint, slicing,
//! multicast, and NoC accounting are decided here once and the backend
//! decides only the buffer's replacement behavior.

use cello_core::score::binding::{Binding, Schedule};
use cello_core::score::multinode::{NocModel, PartitionAxis};
use cello_core::score::repartition::PhaseSplit;
use cello_graph::dag::{NodeId, TensorDag};
use cello_graph::edge::TensorMeta;
use cello_graph::node::Dominance;
use std::collections::BTreeMap;

/// One operand-granular access the engine will issue.
#[derive(Clone, Debug)]
pub struct PlannedAccess {
    /// Versioned tensor name.
    pub name: String,
    /// Effective footprint in words (sliced `1/nodes` under rank
    /// partitioning when the tensor carries the sliced rank; shrunk to the
    /// overbooked grant for occupancy-carrying CHORD operands).
    pub words: u64,
    /// Words expected to overflow an overbooked CHORD grant and round-trip
    /// to DRAM — the Tailors-style spill penalty. Zero unless the schedule
    /// overbooks, the tensor is CHORD-bound, and it carries measured
    /// occupancy. Both tiers charge these as un-hideable outbound traffic.
    pub spill_words: u64,
    /// SCORE's binding for this tensor.
    pub binding: Binding,
    /// True for DAG externals (DRAM-resident inputs).
    pub external: bool,
    /// True for the producing write, false for a consuming read.
    pub write: bool,
    /// Backend-visible uses remaining after this access (RIFF freq, biased).
    pub freq_after: u32,
    /// Ops until the next backend-visible use (RIFF dist, biased;
    /// `u32::MAX` = none).
    pub dist_after: u32,
}

/// One pipeline cluster's planned work.
#[derive(Clone, Debug, Default)]
pub struct PlannedPhase {
    /// Backend accesses in engine issue order.
    pub accesses: Vec<PlannedAccess>,
    /// Per-node compute share in MACs (rank-parallel credit folded in;
    /// stage splits bounded below by the heaviest single stage).
    pub compute_macs: u64,
    /// NoC word-hops this phase (broadcast/reduce smalls under rank
    /// slicing, full realized intermediates under stage splits).
    pub noc_hop_words: u64,
    /// The SRAM split in force during this phase (the schedule's resolved
    /// per-phase repartition; equals the global split without one). Both
    /// tiers derive the phase's CHORD capacity from this one value, so they
    /// cannot disagree about it.
    pub split: PhaseSplit,
}

impl PlannedPhase {
    /// Total overbook spill this phase, in words — charged by both tiers as
    /// outbound DRAM traffic that no prefetch can hide.
    pub fn spill_words(&self) -> u64 {
        self.accesses.iter().map(|a| a.spill_words).sum()
    }
}

/// The full plan for one schedule.
#[derive(Clone, Debug)]
pub struct PhasePlan {
    /// Planned phases in execution order.
    pub phases: Vec<PlannedPhase>,
    /// Accelerator nodes the schedule runs on.
    pub nodes: u64,
    /// Multiplier aggregating per-node DRAM traffic/energy across the mesh:
    /// `nodes` under rank slicing (the plan describes one node's share),
    /// 1 otherwise (stage splits see the whole problem).
    pub dram_agg: u64,
}

impl PhasePlan {
    /// Total NoC word-hops across all phases.
    pub fn noc_hop_words(&self) -> u64 {
        self.phases.iter().map(|p| p.noc_hop_words).sum()
    }
}

/// Tensors are numbered `0..node_count` (op outputs, by node index) then
/// `node_count..node_count + externals` (externals, by external index) —
/// the hot loops below run on these indices instead of string keys.
type TensorId = usize;

/// Per-tensor consumer sites visible to the backend (realized edges
/// removed), one entry per consuming phase, sorted:
/// `(phase index, op position of first use)`.
type ConsumerSites = Vec<Vec<(usize, usize)>>;

fn consumer_sites(
    dag: &TensorDag,
    schedule: &Schedule,
    pos: &[usize],
    phase_of: &[usize],
) -> ConsumerSites {
    let ext_base = dag.node_count();
    let mut sites: ConsumerSites = vec![Vec::new(); ext_base + dag.externals().len()];
    let mut push = |tensor: TensorId, consumer: usize| {
        let (ph, p) = (phase_of[consumer], pos[consumer]);
        let list = &mut sites[tensor];
        match list.iter_mut().find(|(lph, _)| *lph == ph) {
            Some((_, first)) => *first = (*first).min(p),
            None => list.push((ph, p)),
        }
    };
    for (eid, edge) in dag.edges() {
        if schedule.realized[eid.0] {
            continue;
        }
        push(edge.src, edge.dst);
    }
    for (xi, ext) in dag.externals().iter().enumerate() {
        for &(consumer, _) in &ext.consumers {
            push(ext_base + xi, consumer);
        }
    }
    for list in sites.iter_mut() {
        list.sort_unstable();
    }
    sites
}

fn future_use(sites: &ConsumerSites, tensor: TensorId, phase: usize, op_pos: usize) -> (u32, u32) {
    let list = &sites[tensor];
    // `list` is sorted by (phase, op position): the first site past `phase`
    // starts the future suffix (allocation-free — this runs per access).
    let start = list.partition_point(|&(ph, _)| ph <= phase);
    let freq = (list.len() - start) as u32;
    let dist = list
        .get(start)
        .map(|&(_, p)| (p - op_pos.min(p)) as u32)
        .unwrap_or(u32::MAX);
    (freq, dist)
}

/// Plans the engine's full phase walk for `schedule` on `dag` (see module
/// docs). Deterministic and backend-free: the same plan replays against any
/// [`crate::backends::MemoryBackend`] or scores analytically.
pub fn plan_phases(dag: &TensorDag, schedule: &Schedule) -> PhasePlan {
    let ext_base = dag.node_count();
    let mut pos = vec![0usize; ext_base];
    for (i, n) in schedule.order().into_iter().enumerate() {
        pos[n.0] = i;
    }
    let phase_of = schedule.phase_of();
    let sites = consumer_sites(dag, schedule, &pos, &phase_of);
    // Per-node external inputs.
    let mut node_exts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (xi, ext) in dag.externals().iter().enumerate() {
        for &(consumer, _) in &ext.consumers {
            node_exts.entry(consumer).or_default().push(xi);
        }
    }
    // Hoist the per-tensor lookups (meta, binding, bias) out of the access
    // loops: the hot path then runs on integer tensor ids only.
    let metas: Vec<&TensorMeta> = (0..ext_base)
        .map(|i| &dag.node(NodeId(i)).output)
        .chain(dag.externals().iter().map(|x| &x.meta))
        .collect();
    let bindings: Vec<Binding> = metas.iter().map(|m| schedule.binding_of(&m.name)).collect();
    let biases: Vec<Option<cello_core::chord::PriorityBias>> = metas
        .iter()
        .map(|m| schedule.chord_bias.get(&m.name).copied())
        .collect();

    // Multi-node partitioning (§V-B). Under a rank axis every tensor
    // carrying the sliced rank shrinks to its per-node tile and the plan
    // describes one node's traffic (aggregated ×nodes by `dram_agg`); under
    // the stage axis footprints stay whole and realized edges pay the NoC.
    //
    // Like the paper's own Fig 8 accounting, the rank-axis model idealizes
    // sparse-stencil contractions: an uncontracted-dominant op consuming a
    // sliced operand along its (compressed) contracted rank — CG's SpMM
    // reading `P`, GCN's aggregation reading the previous layer — touches
    // only a neighborhood per row, so its halo exchange is dropped rather
    // than modeled as a full gather. Dense global contractions (the
    // contracted-dominant ops) are the ones charged a mesh reduce.
    let partition = schedule.partition;
    let nodes = partition.nodes.max(1);
    let noc = NocModel::new(nodes);
    let sliced_rank = partition.sliced_rank();
    let stage_split = partition.is_multi() && matches!(partition.axis, PartitionAxis::Stage);
    let is_sliced = |meta: &TensorMeta| sliced_rank.is_some_and(|rank| meta.ranks.contains(&rank));
    let eff_words = |meta: &TensorMeta| {
        if is_sliced(meta) {
            meta.words.div_ceil(nodes)
        } else {
            meta.words
        }
    };
    // Tailors-style overbooking: an occupancy-carrying CHORD operand is
    // granted capacity at its expected occupancy (`words` shrinks to the
    // grant) and charged the modeled overflow as `spill_words`, decided
    // once per access in the plan the engine replays. Off, non-CHORD, or
    // occupancy-free tensors keep the worst-case dense model bit for bit.
    let overbook = schedule.chord_overbook;
    let occ_words = |meta: &TensorMeta, binding: Binding, words: u64| -> (u64, u64) {
        match (meta.occupancy, binding) {
            (Some(occ), Binding::Chord) if !overbook.is_off() => (
                overbook.granted_words(words, &occ),
                overbook.spill_words(words, &occ),
            ),
            _ => (words, 0),
        }
    };
    // A replicated (unsliced) operand is *broadcast* over the mesh only
    // when it lives on-chip (RF/pipeline residents — the paper's Λ/Φ
    // exchanges). DRAM/CHORD-bound replicated operands are instead fetched
    // by every node through its own DRAM channel, which the ×nodes traffic
    // aggregation already charges — broadcasting those too would
    // double-count the same bytes.
    let broadcast_read = |meta: &TensorMeta, binding: Binding| {
        sliced_rank.is_some()
            && !is_sliced(meta)
            && matches!(binding, Binding::RegisterFile | Binding::Pipeline)
    };
    // Does rank slicing actually divide this op's iteration space? Yes when
    // the op iterates the sliced rank by name, or when it is a dense global
    // contraction over the sliced data (contracted-dominant — CG's Δ/Γ
    // ops, whose huge `k` *is* the sliced dimension under another name).
    // Anything else (e.g. the tiny Λ/Φ inverses) runs replicated on every
    // node and gets no compute credit.
    let op_parallel = |node: &cello_graph::node::OpNode| {
        sliced_rank.is_some_and(|rank| {
            node.spec.extents().iter().any(|e| e.rank == rank)
                || node.dominance == Dominance::Contracted
        })
    };
    // The DSE-searched half of the SCORE-CHORD interface: bias the derived
    // RIFF metadata before the backend sees it.
    let biased = |tensor: TensorId, freq: u32, dist: u32| -> (u32, u32) {
        match biases[tensor] {
            Some(bias) => {
                let p = bias.apply(cello_core::chord::RiffPriority::new(freq, dist));
                (p.freq, p.dist)
            }
            None => (freq, dist),
        }
    };

    let mut phases: Vec<PlannedPhase> = Vec::with_capacity(schedule.phases.len());
    // Phase stamp (pi + 1) per tensor: same-phase multicast dedup without a
    // per-phase set allocation.
    let mut read_stamp = vec![0usize; metas.len()];
    for (pi, phase) in schedule.phases.iter().enumerate() {
        let mut planned = PlannedPhase {
            split: schedule.phase_split(pi),
            ..PlannedPhase::default()
        };
        let mut phase_macs: u64 = 0;
        let mut max_op_macs: u64 = 0;
        for &op in &phase.ops {
            let node = dag.node(op);
            // Per-node compute share: only ops whose iteration space the
            // slicing divides get credit; replicated ops keep full MACs.
            phase_macs += if op_parallel(node) {
                node.macs.div_ceil(nodes)
            } else {
                node.macs
            };
            max_op_macs = max_op_macs.max(node.macs);
            let op_pos = pos[op.0];

            // Producer inputs via unrealized edges.
            for &eid in dag.in_edges(op) {
                if schedule.realized[eid.0] {
                    continue;
                }
                let tensor: TensorId = dag.edge(eid).src;
                if read_stamp[tensor] == pi + 1 {
                    continue; // same-phase multicast: one NoC fetch
                }
                read_stamp[tensor] = pi + 1;
                let meta = metas[tensor];
                let binding = bindings[tensor];
                if broadcast_read(meta, binding) {
                    planned.noc_hop_words += meta.words * noc.hops_broadcast();
                }
                let (freq, dist) = future_use(&sites, tensor, pi, op_pos);
                let (freq, dist) = biased(tensor, freq, dist);
                let (words, spill_words) = occ_words(meta, binding, eff_words(meta));
                planned.accesses.push(PlannedAccess {
                    name: meta.name.clone(),
                    words,
                    spill_words,
                    binding,
                    external: false,
                    write: false,
                    freq_after: freq,
                    dist_after: dist,
                });
            }
            // External inputs.
            if let Some(exts) = node_exts.get(&op.0) {
                for &xi in exts {
                    let tensor: TensorId = ext_base + xi;
                    if read_stamp[tensor] == pi + 1 {
                        continue;
                    }
                    read_stamp[tensor] = pi + 1;
                    let meta = metas[tensor];
                    let binding = bindings[tensor];
                    if broadcast_read(meta, binding) {
                        planned.noc_hop_words += meta.words * noc.hops_broadcast();
                    }
                    let (freq, dist) = future_use(&sites, tensor, pi, op_pos);
                    let (freq, dist) = biased(tensor, freq, dist);
                    let (words, spill_words) = occ_words(meta, binding, eff_words(meta));
                    planned.accesses.push(PlannedAccess {
                        name: meta.name.clone(),
                        words,
                        spill_words,
                        binding,
                        external: true,
                        write: false,
                        freq_after: freq,
                        dist_after: dist,
                    });
                }
            }
            // Output.
            let out = &node.output;
            if sliced_rank.is_some() && !is_sliced(out) && node.dominance == Dominance::Contracted {
                // A contraction over the sliced rank leaves per-node
                // partials: reduce them across the mesh.
                planned.noc_hop_words += out.words * noc.hops_reduce();
            }
            let (freq, dist) = future_use(&sites, op.0, pi, op_pos);
            let (freq, dist) = biased(op.0, freq, dist);
            let (words, spill_words) = occ_words(out, bindings[op.0], eff_words(out));
            planned.accesses.push(PlannedAccess {
                name: out.name.clone(),
                words,
                spill_words,
                binding: bindings[op.0],
                external: false,
                write: true,
                freq_after: freq,
                dist_after: dist,
            });
        }
        if stage_split {
            // Naive strategy: every realized edge streams its whole
            // intermediate between adjacent stage nodes (1 hop).
            for &eid in &phase.realized_edges {
                planned.noc_hop_words += dag.node(NodeId(dag.edge(eid).src)).output.words;
            }
        }
        // Rank slicing already folded per-op shares into `phase_macs`.
        // Stage pipelining is bounded below by the heaviest single stage
        // (one op never splits across stage nodes) and by the cluster's
        // total work spread over the nodes actually available.
        planned.compute_macs = if stage_split {
            max_op_macs.max(phase_macs.div_ceil(nodes))
        } else {
            phase_macs
        };
        phases.push(planned);
    }

    PhasePlan {
        phases,
        nodes,
        dram_agg: if sliced_rank.is_some() { nodes } else { 1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_core::chord::PriorityBias;
    use cello_core::score::binding::{
        build_schedule, build_schedule_with, ScheduleConstraints, ScheduleOptions,
    };
    use cello_graph::node::OpKind;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::RankExtent;

    fn chain(n_ops: usize, words: u64) -> TensorDag {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", words / 16),
                RankExtent::dense("k", 16),
                RankExtent::dense("n", 16),
            ],
        );
        let mut dag = TensorDag::new();
        let mut prev = None;
        for i in 0..n_ops {
            let id = dag.add_op(
                format!("op{i}"),
                spec.clone(),
                OpKind::TensorMac,
                cello_graph::edge::TensorMeta::dense(format!("T{i}"), &["m", "n"], words),
            );
            if let Some(p) = prev {
                dag.add_edge(p, id, &["m", "k"]);
            } else {
                dag.add_external(
                    cello_graph::edge::TensorMeta::dense("In", &["m", "k"], words),
                    &[(id, &["m", "k"])],
                );
            }
            prev = Some(id);
        }
        dag
    }

    /// The fused chain plans one phase: one external read, one terminal
    /// write, no NoC, and compute equal to the cluster MACs.
    #[test]
    fn fused_chain_plan_shape() {
        let dag = chain(3, 1600);
        let s = build_schedule(&dag, ScheduleOptions::cello());
        let plan = plan_phases(&dag, &s);
        assert_eq!(plan.phases.len(), 1);
        assert_eq!(plan.nodes, 1);
        assert_eq!(plan.dram_agg, 1);
        assert_eq!(plan.noc_hop_words(), 0);
        let p = &plan.phases[0];
        let reads: Vec<&PlannedAccess> = p.accesses.iter().filter(|a| !a.write).collect();
        let writes: Vec<&PlannedAccess> = p.accesses.iter().filter(|a| a.write).collect();
        assert_eq!(reads.len(), 1, "only the external In is read");
        assert!(reads[0].external && reads[0].name == "In");
        assert_eq!(writes.len(), 3, "every op writes its output once");
        let macs: u64 = dag.nodes().map(|(_, n)| n.macs).sum();
        assert_eq!(p.compute_macs, macs);
    }

    /// Rank partitioning slices planned footprints and sets the aggregate
    /// multiplier; stage splits keep footprints whole but ship realized
    /// intermediates.
    #[test]
    fn plan_reflects_partition_axes() {
        use cello_core::score::multinode::Partition;
        use cello_tensor::shape::RankId;
        let dag = chain(3, 1600);
        let sliced = build_schedule_with(
            &dag,
            ScheduleOptions::best_intra(),
            &ScheduleConstraints::partitioned(Partition::by_rank(4, RankId::new("m"))),
        );
        let plan = plan_phases(&dag, &sliced);
        assert_eq!((plan.nodes, plan.dram_agg), (4, 4));
        // Every tensor carries m: all footprints quarter, nothing crosses
        // the NoC.
        assert!(plan
            .phases
            .iter()
            .flat_map(|p| &p.accesses)
            .all(|a| a.words == 400));
        assert_eq!(plan.noc_hop_words(), 0);
        let staged = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(Partition::by_stage(4)),
        );
        let splan = plan_phases(&dag, &staged);
        assert_eq!((splan.nodes, splan.dram_agg), (4, 1));
        // Two realized edges × 1600 words × 1 hop.
        assert_eq!(splan.noc_hop_words(), 2 * 1600);
    }

    /// A CHORD priority bias shows up in the planned RIFF metadata (and only
    /// for the biased tensor).
    #[test]
    fn plan_applies_chord_bias() {
        let dag = chain(3, 200_000);
        // Cut the chain so T0 round-trips CHORD with real reuse metadata.
        let mut constraints = ScheduleConstraints {
            cut_before: [1, 2].into_iter().collect(),
            ..Default::default()
        };
        let plain = plan_phases(
            &dag,
            &build_schedule_with(&dag, ScheduleOptions::cello(), &constraints),
        );
        constraints
            .chord_priority_bias
            .insert("T0".into(), PriorityBias::Boost(1));
        let boosted = plan_phases(
            &dag,
            &build_schedule_with(&dag, ScheduleOptions::cello(), &constraints),
        );
        let find_write = |plan: &PhasePlan, name: &str| -> (u32, u32) {
            plan.phases
                .iter()
                .flat_map(|p| &p.accesses)
                .find(|a| a.write && a.name == name)
                .map(|a| (a.freq_after, a.dist_after))
                .unwrap()
        };
        let (f0, d0) = find_write(&plain, "T0");
        let (f1, d1) = find_write(&boosted, "T0");
        assert!(f0 > 0 && d0 > 0, "T0 has a real future use");
        assert_eq!(f1, f0.saturating_mul(2));
        assert_eq!(d1, (d0 / 2).max(1));
        // Unbiased tensors are untouched.
        assert_eq!(find_write(&plain, "T1"), find_write(&boosted, "T1"));
    }
}
