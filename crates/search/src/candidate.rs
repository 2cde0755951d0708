//! One point of the SCORE × CHORD co-design space.

use crate::fingerprint::{Fnv128Writer, ScheduleKey};
use cello_core::score::binding::{
    build_schedule_with, Binding, Schedule, ScheduleConstraints, ScheduleOptions,
};
use cello_core::score::multinode::PartitionAxis;
use cello_graph::dag::TensorDag;

/// A candidate schedule: preset knobs plus programmatic constraints.
///
/// Candidates are *specs*, not schedules — [`Candidate::build`] materializes
/// one through `cello-core`'s constraint-validating builder, so every
/// candidate yields a schedule that passes `Schedule::validate` (invalid
/// constraint requests degrade to no-ops and dedupe in the eval cache).
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Scheduler feature switches and buffer-partition sizes.
    pub options: ScheduleOptions,
    /// Cluster cuts, binding overrides, loop-order overrides.
    pub constraints: ScheduleConstraints,
}

impl Candidate {
    /// The paper's CELLO heuristic (`ScheduleOptions::cello()`, no
    /// constraints) — the baseline every search run scores first.
    pub fn paper_heuristic() -> Self {
        Self {
            options: ScheduleOptions::cello(),
            constraints: ScheduleConstraints::none(),
        }
    }

    /// Materializes the schedule.
    pub fn build(&self, dag: &TensorDag) -> Schedule {
        build_schedule_with(dag, self.options, &self.constraints)
    }

    /// Canonical key of a **built schedule** — the memo-cache identity.
    ///
    /// Two candidates whose decisions collapse to the same schedule (e.g. a
    /// "cut" before a node that never joined a cluster anyway, or a bogus
    /// partition the builder degraded to single-node) share a key and are
    /// evaluated once. The key covers everything the cheap evaluator's
    /// result depends on: phase structure, realized edges, bindings, the
    /// normalized multi-node partition, and — only when CHORD is in play —
    /// the SRAM partition that sizes it.
    pub fn schedule_key(schedule: &Schedule) -> String {
        let mut key = String::new();
        write_schedule_key(&mut key, schedule);
        key
    }

    /// The interned form of [`Self::schedule_key`]: the same canonical byte
    /// sequence streamed straight into a 128-bit FNV hasher, no `String`
    /// materialized. Both paths share `write_schedule_key`, so interned
    /// keys collide **exactly** when the string keys are equal — by
    /// construction, and pinned by the migration differential test.
    pub fn interned_key(schedule: &Schedule) -> ScheduleKey {
        let mut w = Fnv128Writer::new();
        write_schedule_key(&mut w, schedule);
        w.finish()
    }
}

/// Streams the canonical schedule-key text into any [`std::fmt::Write`]
/// sink — the single source of truth for both the human-readable `String`
/// key and the interned [`ScheduleKey`] hash.
pub(crate) fn write_schedule_key<W: std::fmt::Write>(key: &mut W, schedule: &Schedule) {
    for phase in &schedule.phases {
        for op in &phase.ops {
            let _ = write!(key, "{}.", op.0);
        }
        let _ = key.write_char('|');
    }
    let _ = key.write_char(';');
    for &r in &schedule.realized {
        let _ = key.write_char(if r { '1' } else { '0' });
    }
    let _ = key.write_char(';');
    for (name, b) in &schedule.binding {
        let tag = match b {
            Binding::RegisterFile => 'R',
            Binding::Pipeline => 'P',
            Binding::Chord => 'C',
            Binding::Dram => 'D',
        };
        let _ = write!(key, "{name}:{tag},");
    }
    let _ = key.write_char(';');
    if schedule.options.enable_chord {
        if schedule.repartition_active() {
            // Per-phase SRAM repartition: once any phase deviates, the
            // evaluators derive every capacity from the resolved
            // `phase_splits` vector and the global split is inert (the
            // engine resizes away the initial capacity before the first
            // access) — so the *vector* is the identity. Serializing
            // global+deviations instead would split candidates that
            // differ only in the unused global pb/rf choice into
            // distinct keys and re-run identical sim evaluations.
            for split in &schedule.phase_splits {
                let _ = write!(
                    key,
                    "@{}.{}",
                    split.pipeline_buffer_words, split.rf_capacity_words
                );
            }
        } else {
            // Uniform split: the global values are the whole story, and
            // a uniform repartition shares its key with the plain global
            // schedule (they evaluate identically by construction — the
            // differential proptest pins it). Without CHORD the splits
            // only matter through the phase structure and bindings
            // already serialized above.
            let _ = write!(
                key,
                "pb{}rf{}",
                schedule.options.pipeline_buffer_words, schedule.options.rf_capacity_words
            );
        }
    } else {
        let _ = key.write_char('x');
    }
    let _ = key.write_char(';');
    // CHORD priority biases: already validated down to CHORD-bound
    // tensors by the builder (empty without CHORD), so serializing the
    // surviving map is exactly the evaluation-relevant subset. The
    // magnitude level is part of the identity: Boost(1) and Boost(2)
    // evaluate differently.
    for (name, bias) in &schedule.chord_bias {
        let (tag, level) = match bias {
            cello_core::chord::PriorityBias::Boost(_) => ('+', bias.level()),
            cello_core::chord::PriorityBias::Demote(_) => ('-', bias.level()),
        };
        let _ = write!(key, "{name}{tag}{level},");
    }
    let _ = key.write_char(';');
    if schedule.partition.is_multi() {
        let _ = write!(key, "n{}", schedule.partition.nodes);
        match schedule.partition.axis {
            PartitionAxis::Rank(rank) => {
                let _ = write!(key, "r{rank}");
            }
            PartitionAxis::Stage => {
                let _ = key.write_char('s');
            }
        }
    } else {
        let _ = key.write_char('1');
    }
    // Transfer ordering: serialized only when it changes evaluation. A
    // depth-0 tuning is the pre-overlap model bit for bit, so those
    // schedules keep their historical keys (and their cached evaluations);
    // double- vs single-buffered staging at the same depth evaluates
    // differently, so the bank flag is part of the identity.
    if !schedule.transfer.is_off() {
        let _ = write!(
            key,
            ";t{}{}",
            schedule.transfer.prefetch_depth,
            if schedule.transfer.double_buffer {
                'd'
            } else {
                's'
            }
        );
    }
    // CHORD overbooking: serialized only when it changes evaluation. Level 0
    // is the worst-case-dense model bit for bit, so those schedules keep
    // their historical keys (and their cached evaluations).
    if !schedule.chord_overbook.is_off() {
        let _ = write!(key, ";ob{}", schedule.chord_overbook.level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_graph::edge::TensorMeta;
    use cello_graph::node::OpKind;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::RankExtent;

    fn toy_chain(n_ops: usize) -> TensorDag {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 100_000),
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
                TensorMeta::dense(format!("T{i}"), &["m", "n"], 1_600_000),
            );
            if let Some(p) = prev {
                dag.add_edge(p, id, &["m", "k"]);
            }
            prev = Some(id);
        }
        dag
    }

    #[test]
    fn heuristic_builds_valid_schedule() {
        let dag = toy_chain(4);
        let s = Candidate::paper_heuristic().build(&dag);
        s.validate(&dag).unwrap();
    }

    #[test]
    fn key_distinguishes_structure_not_noise() {
        let dag = toy_chain(3);
        let a = Candidate::paper_heuristic();
        // A cut before a node that never joined anything is a no-op...
        let mut noop = Candidate::paper_heuristic();
        noop.constraints.cut_before.insert(0); // node 0 starts a cluster anyway
        assert_eq!(
            Candidate::schedule_key(&a.build(&dag)),
            Candidate::schedule_key(&noop.build(&dag)),
        );
        // ...while a real cut changes the key.
        let mut cut = Candidate::paper_heuristic();
        cut.constraints.cut_before.insert(1);
        assert_ne!(
            Candidate::schedule_key(&a.build(&dag)),
            Candidate::schedule_key(&cut.build(&dag)),
        );
    }

    /// Multi-node partitions are part of the memo identity: same structure
    /// on different node counts (or axes) must evaluate separately, while a
    /// degraded (bogus-rank) partition collapses onto the single-node key.
    #[test]
    fn key_covers_multinode_partition() {
        use cello_core::score::multinode::Partition;
        use cello_tensor::shape::RankId;
        let dag = toy_chain(3);
        let base = Candidate::paper_heuristic();
        let with = |p: Partition| {
            let mut c = Candidate::paper_heuristic();
            c.constraints.partition = Some(p);
            Candidate::schedule_key(&c.build(&dag))
        };
        let k1 = Candidate::schedule_key(&base.build(&dag));
        let k4r = with(Partition::by_rank(4, RankId::new("m")));
        let k16r = with(Partition::by_rank(16, RankId::new("m")));
        let k4s = with(Partition::by_stage(4));
        assert_ne!(k1, k4r);
        assert_ne!(k4r, k16r);
        assert_ne!(k4r, k4s);
        // An unknown rank degrades to single-node and shares its key.
        assert_eq!(k1, with(Partition::by_rank(4, RankId::new("zz"))));
    }

    /// Valid CHORD priority biases are part of the memo identity; dropped
    /// (invalid) ones collapse onto the unbiased key.
    #[test]
    fn key_covers_chord_bias() {
        use cello_core::chord::PriorityBias;
        let dag = toy_chain(3);
        // T0/T1 are CHORD-bound intermediates under the cut schedule below.
        let with_bias = |tensor: &str, bias| {
            let mut c = Candidate::paper_heuristic();
            c.constraints.cut_before.insert(1);
            c.constraints.cut_before.insert(2);
            c.constraints
                .chord_priority_bias
                .insert(tensor.to_string(), bias);
            Candidate::schedule_key(&c.build(&dag))
        };
        let mut base = Candidate::paper_heuristic();
        base.constraints.cut_before.insert(1);
        base.constraints.cut_before.insert(2);
        let k = Candidate::schedule_key(&base.build(&dag));
        let kb = with_bias("T0", PriorityBias::Boost(1));
        let kd = with_bias("T0", PriorityBias::Demote(1));
        assert_ne!(k, kb);
        assert_ne!(kb, kd);
        // The magnitude level is part of the identity.
        assert_ne!(kb, with_bias("T0", PriorityBias::Boost(2)));
        // Biasing the terminal (DRAM-bound) tensor is dropped: same key.
        assert_eq!(k, with_bias("T2", PriorityBias::Boost(1)));
    }

    /// Key-migration differential: the interned 128-bit key is the FNV hash
    /// of exactly the canonical string key, so interned keys collide iff the
    /// strings were equal — across every structurally distinct schedule a
    /// small widened space can produce.
    #[test]
    fn interned_key_matches_string_key_exactly() {
        use crate::fingerprint::fnv128_hex;
        use crate::space::{SearchSpace, SpaceConfig};
        let dag = toy_chain(3);
        let cfg = SpaceConfig {
            max_cut_points: 2,
            max_steer_tensors: 1,
            max_loop_order_nodes: 1,
            max_chord_bias_tensors: 1,
            node_choices: vec![1, 4],
            ..SpaceConfig::default()
        };
        let space = SearchSpace::from_dag(&dag, &cfg);
        let total = space.exhaustive_size() as usize;
        let mut by_string = std::collections::HashMap::new();
        for i in 0..total {
            let cand = space.assemble(&space.index_to_picks(i as u64));
            let schedule = cand.build(&dag);
            let s = Candidate::schedule_key(&schedule);
            let k = Candidate::interned_key(&schedule);
            // The interned key is literally the hash of the string key.
            assert_eq!(k.hex(), fnv128_hex(&s));
            // Equal strings always landed on equal interned keys (and the
            // hash equation above makes unequal-string collisions a 128-bit
            // FNV collision — the trust level the serve cache already uses).
            let prev = by_string.insert(s, k);
            if let Some(p) = prev {
                assert_eq!(p, k);
            }
        }
        assert!(by_string.len() > 4, "space exercised distinct schedules");
    }

    /// Per-phase splits are part of the memo identity exactly when they
    /// deviate from the global split: a uniform repartition shares the plain
    /// schedule's key (identical evaluation), distinct profiles get
    /// distinct keys.
    #[test]
    fn key_covers_phase_repartition() {
        use cello_core::{PhaseRepartition, PhaseSplit};
        let dag = toy_chain(3);
        let sram = 1u64 << 20;
        let with = |fused: PhaseSplit, solo: PhaseSplit| {
            let mut c = Candidate::paper_heuristic();
            c.constraints.phase_repartition =
                Some(PhaseRepartition::by_kind(sram, fused, solo).unwrap());
            Candidate::schedule_key(&c.build(&dag))
        };
        let plain = Candidate::schedule_key(&Candidate::paper_heuristic().build(&dag));
        let global = PhaseSplit::of_options(&cello_core::ScheduleOptions::cello());
        assert_eq!(plain, with(global, global), "uniform = global identity");
        // The fused chain is one multi-op cluster: a solo-only profile is a
        // no-op (same key), while deviating fused splits each get their own.
        assert_eq!(plain, with(global, PhaseSplit::new(0, 4096)));
        let k1 = with(PhaseSplit::new(131_072, 16_384), PhaseSplit::new(0, 4096));
        let k2 = with(PhaseSplit::new(262_144, 16_384), PhaseSplit::new(0, 4096));
        assert_ne!(plain, k1);
        assert_ne!(k1, k2);
        // With a profile active the global sram-split choice is inert (every
        // capacity derives from the resolved per-phase vector), so two
        // candidates differing only in the unused global pb/rf must share a
        // key — one sim evaluation, not |global menu| duplicates.
        let with_global = |pb: u64, rf: u64| {
            let mut c = Candidate::paper_heuristic();
            c.options.pipeline_buffer_words = pb;
            c.options.rf_capacity_words = rf;
            c.constraints.phase_repartition = Some(
                PhaseRepartition::by_kind(
                    sram,
                    PhaseSplit::new(131_072, 16_384),
                    PhaseSplit::new(0, 4096),
                )
                .unwrap(),
            );
            Candidate::schedule_key(&c.build(&dag))
        };
        assert_eq!(with_global(65_536, 16_384), with_global(16_384, 4_096));
        assert_eq!(with_global(65_536, 16_384), k1);
    }

    /// Transfer tunings are part of the memo identity exactly when they
    /// overlap anything: the depth-0 tuning shares the plain schedule's key
    /// (bit-identical evaluation), while depth and bank mode each split it.
    #[test]
    fn key_covers_transfer_tuning() {
        use cello_core::TransferTuning;
        let dag = toy_chain(3);
        let with = |t: Option<TransferTuning>| {
            let mut c = Candidate::paper_heuristic();
            c.constraints.transfer = t;
            Candidate::schedule_key(&c.build(&dag))
        };
        let plain = with(None);
        assert_eq!(plain, with(Some(TransferTuning::off())), "off = no-op");
        assert_eq!(
            plain,
            with(Some(TransferTuning {
                prefetch_depth: 0,
                double_buffer: true,
            })),
            "depth-0 normalizes away the bank flag"
        );
        let d1 = with(Some(TransferTuning::double_buffered(1)));
        let d2 = with(Some(TransferTuning::double_buffered(2)));
        let s1 = with(Some(TransferTuning::single_buffered(1)));
        assert_ne!(plain, d1);
        assert_ne!(d1, d2, "depth is part of the identity");
        assert_ne!(d1, s1, "bank mode is part of the identity");
    }

    /// Overbook levels are part of the memo identity exactly when they
    /// overbook anything: level 0 shares the plain schedule's key
    /// (bit-identical evaluation), while distinct levels each split it.
    #[test]
    fn key_covers_chord_overbook() {
        use cello_core::ChordOverbook;
        let dag = toy_chain(3);
        let with = |o: Option<ChordOverbook>| {
            let mut c = Candidate::paper_heuristic();
            c.constraints.chord_overbook = o;
            Candidate::schedule_key(&c.build(&dag))
        };
        let plain = with(None);
        assert_eq!(plain, with(Some(ChordOverbook::off())), "off = no-op");
        let l1 = with(Some(ChordOverbook::at(1)));
        let l2 = with(Some(ChordOverbook::at(2)));
        assert_ne!(plain, l1);
        assert_ne!(l1, l2, "the level is part of the identity");
        // Beyond-max levels normalize onto the clamped key.
        assert_eq!(
            with(Some(ChordOverbook::at(200))),
            with(Some(ChordOverbook::at(cello_core::MAX_OVERBOOK_LEVEL)))
        );
    }

    #[test]
    fn key_ignores_partition_without_chord() {
        let dag = toy_chain(3);
        let mut a = Candidate::paper_heuristic();
        a.options.enable_chord = false;
        let mut b = a.clone();
        b.options.pipeline_buffer_words = 1024;
        // Without CHORD the partition does not affect evaluation: same key.
        assert_eq!(
            Candidate::schedule_key(&a.build(&dag)),
            Candidate::schedule_key(&b.build(&dag)),
        );
    }
}
