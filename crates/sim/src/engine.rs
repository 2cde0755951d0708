//! The phase-walking execution engine.
//!
//! Replays a [`PhasePlan`] (see [`crate::phases`]) cluster by cluster and
//! issues its operand-granular traffic to a [`MemoryBackend`]:
//!
//! - edges *realized* as pipelining never reach the backend (the pipeline
//!   buffer serves them on-chip);
//! - a tensor read by several ops of the same cluster is fetched **once**
//!   (parallel multicast over the NoC);
//! - every read/write carries the RIFF metadata SCORE derived — uses
//!   remaining after this phase and distance to the next use, biased by any
//!   searched [`cello_core::chord::PriorityBias`] — which is how the CHORD
//!   backend gets its priorities;
//! - phase time is `max(compute, memory)` cycles: compute = cluster MACs
//!   over the PE array, memory = phase DRAM bytes over the DRAM bandwidth
//!   (§VII-A1's "stalls due to memory bandwidth dominate"). Under a
//!   non-trivial [`cello_core::TransferTuning`] the memory term shrinks to
//!   the *exposed* transfer — inbound bytes prefetched behind earlier
//!   phases are hidden by the [`crate::overlap::OverlapLedger`], and NoC
//!   time folds into the same `max`;
//! - multi-node schedules (§V-B, [`cello_core::Partition`]) are scored
//!   through the same walk: rank partitioning slices every tensor carrying
//!   the partitioned rank to a per-node tile (`words / nodes`), charges
//!   broadcast hops for replicated-tensor reads and reduce hops for
//!   contraction partials, and divides cluster compute across nodes; stage
//!   partitioning keeps full footprints and ships every realized
//!   (pipelined) intermediate through the NoC — the Fig 8 naive strategy.
//!   NoC time serializes with each phase (contention-free model), and DRAM
//!   traffic/energy aggregate across nodes.
//!
//! All of the slicing/multicast/NoC accounting lives in
//! [`crate::phases::plan_phases`]; the engine replays that plan against a
//! stateful memory backend.

use crate::backends::{MemoryBackend, TensorRequest};
use crate::energy::{noc_energy_pj, offchip_energy_pj, onchip_energy_pj};
use crate::overlap::OverlapLedger;
use crate::phases::{plan_phases, PhasePlan};
use crate::report::RunReport;
use cello_core::accel::CelloConfig;
use cello_core::score::binding::Schedule;
use cello_graph::dag::TensorDag;
use cello_mem::model::AreaEnergyModel;

/// Runs `schedule` for `dag` on `backend` under `accel`, returning the
/// traffic/time/energy report.
pub fn run_schedule(
    dag: &TensorDag,
    schedule: &Schedule,
    accel: &CelloConfig,
    backend: &mut dyn MemoryBackend,
    config_label: &str,
    workload: &str,
) -> RunReport {
    let plan: PhasePlan = plan_phases(dag, schedule);

    let mut phase_cycles: Vec<(u64, u64)> = Vec::with_capacity(plan.phases.len());
    let mut phase_dram_bytes: Vec<u64> = Vec::with_capacity(plan.phases.len() + 1);
    let mut phase_stats: Vec<cello_mem::stats::AccessStats> =
        Vec::with_capacity(plan.phases.len() + 1);
    let mut phase_noc_hop_words: Vec<u64> = Vec::with_capacity(plan.phases.len());
    let mut phase_total_cycles: Vec<u64> = Vec::with_capacity(plan.phases.len() + 1);
    let mut total_cycles: u64 = 0;
    let mut total_noc_hop_words: u64 = 0;
    let mut prev_stats = backend.stats();
    // Per-phase SRAM repartition (§V/§VI at phase granularity): re-derive
    // CHORD's capacity per phase and resize at the boundary — dirty tails a
    // shrink evicts become DRAM writebacks charged to the entering phase.
    // Uniform/global splits never take this path, so every single-split
    // schedule replays bit-identically to the pre-repartition engine.
    let repartition = schedule.repartition_active();
    // Transfer timing: the ledger hides prefetched inbound bytes behind
    // earlier phases. A depth-0 tuning (the default) reproduces
    // `max(compute, mem) + noc` bit-identically.
    let mut ledger = OverlapLedger::new(schedule.transfer, accel);
    // Overbook spill (see `crate::phases`): planned per access, charged here
    // as outbound DRAM traffic — overflow writebacks happen mid-phase, so no
    // prefetch depth can hide them. Zero whenever the schedule doesn't
    // overbook, keeping the pre-overbook engine bit for bit.
    let mut spill_bytes_total: u64 = 0;

    for (pi, phase) in plan.phases.iter().enumerate() {
        let _span = cello_obs::span!(
            "phase",
            idx = pi,
            ops = phase.compute_macs,
            noc_hop_words = phase.noc_hop_words,
        );
        if repartition {
            backend.phase_boundary(crate::evaluate::phase_chord_capacity_words(
                accel,
                &phase.split,
                &schedule.transfer,
            ));
        }
        for access in &phase.accesses {
            let req = TensorRequest {
                name: &access.name,
                words: access.words,
                binding: access.binding,
                external: access.external,
                freq_after: access.freq_after,
                dist_after: access.dist_after,
            };
            if access.write {
                backend.write(&req);
            } else {
                backend.read(&req);
            }
        }

        let now = backend.stats();
        let delta = now.delta_since(&prev_stats);
        let spill_bytes = phase.spill_words() * accel.word_bytes as u64;
        spill_bytes_total += spill_bytes;
        let phase_dram = delta.dram_bytes() + spill_bytes;
        prev_stats = now;
        let compute = phase.compute_macs.div_ceil(accel.pe_count.max(1));
        let timing = ledger.phase(
            compute,
            delta.dram_read_bytes,
            delta.dram_write_bytes + spill_bytes,
            noc_cycles(phase.noc_hop_words, accel),
        );
        phase_stats.push(delta);
        phase_cycles.push((compute, timing.exposed_mem_cycles));
        phase_dram_bytes.push(phase_dram);
        phase_noc_hop_words.push(phase.noc_hop_words);
        total_noc_hop_words += phase.noc_hop_words;
        phase_total_cycles.push(timing.cycles);
        total_cycles += timing.cycles;
    }

    backend.finish();
    let final_stats = backend.stats();
    let drain = final_stats.dram_bytes() - prev_stats.dram_bytes();
    if drain > 0 {
        // The terminal drain has no later compute to hide behind: fully
        // exposed at every prefetch depth.
        let mem = ledger.drain(drain);
        phase_cycles.push((0, mem));
        phase_dram_bytes.push(drain);
        phase_stats.push(final_stats.delta_since(&prev_stats));
        phase_total_cycles.push(mem);
        total_cycles += mem;
    }

    // Aggregate per-node traffic across the mesh: rank slicing simulated
    // one node's share, stage splitting already saw the whole problem.
    let nodes = plan.nodes;
    let agg = plan.dram_agg;
    let noc_hop_bytes = total_noc_hop_words * accel.word_bytes as u64;
    let macs: u64 = dag.nodes().map(|(_, n)| n.macs).sum();
    let seconds = total_cycles as f64 / accel.freq_hz;
    let model = AreaEnergyModel::default();
    RunReport {
        config: config_label.to_string(),
        workload: workload.to_string(),
        cycles: total_cycles,
        seconds,
        macs,
        dram_bytes: (final_stats.dram_bytes() + spill_bytes_total) * agg,
        nodes,
        noc_hop_bytes,
        offchip_energy_pj: (offchip_energy_pj(&final_stats, accel.dram.energy_pj_per_byte)
            + spill_bytes_total as f64 * accel.dram.energy_pj_per_byte)
            * agg as f64,
        onchip_energy_pj: onchip_energy_pj(
            &final_stats,
            backend.buffer_kind(),
            accel.sram_bytes,
            backend.sram_access_bytes(),
            &model,
        ) * agg as f64,
        noc_energy_pj: noc_energy_pj(noc_hop_bytes),
        stats: final_stats,
        phase_cycles,
        phase_dram_bytes,
        phase_stats,
        phase_noc_hop_words,
        phase_total_cycles,
    }
}

/// Cycles an inter-node exchange of `hop_words` word-hops costs, serialized
/// against the phase (contention-free link model).
pub(crate) fn noc_cycles(hop_words: u64, accel: &CelloConfig) -> u64 {
    if hop_words == 0 {
        return 0;
    }
    let bytes = (hop_words * accel.word_bytes as u64) as f64;
    (bytes / accel.noc_bandwidth_bytes_per_sec * accel.freq_hz).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::ExplicitBackend;
    use cello_core::score::binding::{build_schedule, ScheduleOptions};
    use cello_graph::edge::TensorMeta;
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
                TensorMeta::dense(format!("T{i}"), &["m", "n"], words),
            );
            if let Some(p) = prev {
                dag.add_edge(p, id, &["m", "k"]);
            } else {
                dag.add_external(
                    TensorMeta::dense("In", &["m", "k"], words),
                    &[(id, &["m", "k"])],
                );
            }
            prev = Some(id);
        }
        dag
    }

    #[test]
    fn best_intra_traffic_is_cold_per_op() {
        let dag = chain(3, 1600);
        let schedule = build_schedule(&dag, ScheduleOptions::best_intra());
        let mut backend = ExplicitBackend::new(4);
        let accel = CelloConfig::paper();
        let r = run_schedule(&dag, &schedule, &accel, &mut backend, "Flexagon", "chain");
        // op0: read In (1600w) write T0; op1: read T0 write T1; op2: read T1 write T2.
        // Total = 3 reads + 3 writes of 1600 words × 4 B.
        assert_eq!(r.dram_bytes, 6 * 1600 * 4);
        assert_eq!(r.phase_cycles.len(), 3);
    }

    #[test]
    fn pipelined_chain_saves_intermediates() {
        let dag = chain(3, 1600);
        // CELLO fuses the whole chain: only In is read and T2 written.
        let schedule = build_schedule(&dag, ScheduleOptions::cello());
        assert_eq!(schedule.phases.len(), 1, "{:?}", schedule.phases);
        let mut backend = ExplicitBackend::new(4);
        let accel = CelloConfig::paper();
        let r = run_schedule(&dag, &schedule, &accel, &mut backend, "CELLO", "chain");
        assert_eq!(r.dram_bytes, 2 * 1600 * 4);
    }

    #[test]
    fn timing_is_roofline_max() {
        let dag = chain(2, 1 << 20);
        let schedule = build_schedule(&dag, ScheduleOptions::best_intra());
        let mut backend = ExplicitBackend::new(4);
        let accel = CelloConfig::paper();
        let r = run_schedule(&dag, &schedule, &accel, &mut backend, "Flexagon", "chain");
        for &(c, m) in &r.phase_cycles {
            assert!(r.cycles >= c.max(m));
        }
        let expected: u64 = r.phase_cycles.iter().map(|&(c, m)| c.max(m)).sum();
        assert_eq!(r.cycles, expected);
    }

    #[test]
    fn multicast_read_deduped_within_phase() {
        // Diamond: p multicasts T0 to a and b; both consume it in one phase.
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 1000),
                RankExtent::dense("k", 8),
                RankExtent::dense("n", 8),
            ],
        );
        let mut dag = TensorDag::new();
        let t = |n: &str| TensorMeta::dense(n, &["m", "n"], 8000);
        let p = dag.add_op("p", spec.clone(), OpKind::TensorMac, t("T0"));
        let a = dag.add_op("a", spec.clone(), OpKind::TensorMac, t("T1"));
        let b = dag.add_op("b", spec.clone(), OpKind::TensorMac, t("T2"));
        dag.add_edge(p, a, &["m", "k"]);
        dag.add_edge(p, b, &["m", "k"]);
        dag.add_external(
            TensorMeta::dense("In", &["m", "k"], 8000),
            &[(p, &["m", "k"])],
        );
        let schedule = build_schedule(&dag, ScheduleOptions::cello());
        let mut backend = ExplicitBackend::new(4);
        let accel = CelloConfig::paper();
        let r = run_schedule(&dag, &schedule, &accel, &mut backend, "CELLO", "diamond");
        // a and b fuse with p (multicast): T0 pipelined once to both.
        // Traffic = In read + T1 + T2 writes.
        assert_eq!(r.dram_bytes, 3 * 8000 * 4, "phases {:?}", schedule.phases);
    }

    /// Rank partitioning slices tile footprints: per-node DRAM traffic is
    /// `1/nodes` of the single-node run on an explicit backend (all tensors
    /// carry the sliced rank here), and the aggregate matches the
    /// single-node total exactly.
    #[test]
    fn rank_partition_slices_footprints() {
        use cello_core::score::binding::{build_schedule_with, ScheduleConstraints};
        use cello_core::score::multinode::Partition;
        use cello_tensor::shape::RankId;
        let dag = chain(3, 1600);
        let accel = CelloConfig::paper();
        let single = {
            let s = build_schedule(&dag, ScheduleOptions::best_intra());
            let mut b = ExplicitBackend::new(4);
            run_schedule(&dag, &s, &accel, &mut b, "1node", "chain")
        };
        let four = {
            let s = build_schedule_with(
                &dag,
                ScheduleOptions::best_intra(),
                &ScheduleConstraints::partitioned(Partition::by_rank(4, RankId::new("m"))),
            );
            let mut b = ExplicitBackend::new(4);
            run_schedule(&dag, &s, &accel, &mut b, "4node", "chain")
        };
        assert_eq!(four.nodes, 4);
        assert_eq!(four.stats.dram_bytes(), single.dram_bytes / 4);
        assert_eq!(four.dram_bytes, single.dram_bytes, "aggregate preserved");
        // Every tensor here carries m, so nothing is broadcast or reduced.
        assert_eq!(four.noc_hop_bytes, 0);
        assert!(four.cycles < single.cycles, "sliced roofline is faster");
    }

    /// Stage partitioning (the naive §V-B strategy) ships every realized
    /// intermediate through the NoC: hop-bytes equal the pipelined tensors'
    /// full footprints, and DRAM traffic stays un-sliced.
    #[test]
    fn stage_partition_ships_realized_edges() {
        use cello_core::score::binding::{build_schedule_with, ScheduleConstraints};
        use cello_core::score::multinode::Partition;
        let dag = chain(3, 1600);
        let accel = CelloConfig::paper();
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints::partitioned(Partition::by_stage(4)),
        );
        assert_eq!(s.phases.len(), 1, "whole chain still fuses");
        let mut b = ExplicitBackend::new(4);
        let r = run_schedule(&dag, &s, &accel, &mut b, "naive", "chain");
        // Two realized edges (T0, T1), each 1600 words × 4 B × 1 hop.
        assert_eq!(r.noc_hop_bytes, 2 * 1600 * 4);
        assert_eq!(r.dram_bytes, 2 * 1600 * 4, "In read + T2 write, unsliced");
        assert!(r.noc_energy_pj > 0.0);
    }

    /// A DRAM-bound replicated operand is fetched per node (covered by the
    /// ×nodes aggregation), NOT additionally broadcast — charging both
    /// would double-count the same bytes. Only on-chip (RF/pipeline)
    /// residents ride the broadcast mesh.
    #[test]
    fn dram_bound_replicated_tensors_are_not_broadcast() {
        use cello_core::score::binding::{build_schedule_with, ScheduleConstraints};
        use cello_core::score::multinode::Partition;
        use cello_tensor::shape::RankId;
        // One m-dominant op reading a big external declared over (k, n) —
        // replicated under m-slicing, too big for the RF, DRAM-bound under
        // the oracle options.
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 100_000),
                RankExtent::dense("k", 16),
                RankExtent::dense("n", 16),
            ],
        );
        let mut dag = TensorDag::new();
        let op = dag.add_op(
            "u",
            spec,
            OpKind::TensorMac,
            TensorMeta::dense("T", &["m", "n"], 1_600_000),
        );
        dag.add_external(
            TensorMeta::dense("W", &["k", "n"], 200_000),
            &[(op, &["k", "n"])],
        );
        let accel = CelloConfig::paper();
        let s = build_schedule_with(
            &dag,
            ScheduleOptions::best_intra(),
            &ScheduleConstraints::partitioned(Partition::by_rank(4, RankId::new("m"))),
        );
        let mut b = ExplicitBackend::new(4);
        let r = run_schedule(&dag, &s, &accel, &mut b, "4node", "repl");
        assert_eq!(r.noc_hop_bytes, 0, "no broadcast for DRAM-bound W");
        // Per node: full W read + sliced T write; aggregate ×4.
        assert_eq!(r.dram_bytes, 4 * (200_000 + 1_600_000 / 4) * 4);
    }

    /// A uniform per-phase repartition (every phase = the global split)
    /// replays bit-identically to the plain schedule through the CHORD
    /// backend — the engine-side differential baseline.
    #[test]
    fn uniform_repartition_is_bit_exact() {
        use cello_core::score::binding::{build_schedule_with, ScheduleConstraints};
        use cello_core::score::repartition::{PhaseRepartition, PhaseSplit};
        use cello_core::ChordConfig;
        let dag = chain(3, 200_000);
        let accel = CelloConfig::paper();
        let cuts = ScheduleConstraints {
            cut_before: [1, 2].into_iter().collect(),
            ..Default::default()
        };
        let plain = build_schedule_with(&dag, ScheduleOptions::cello(), &cuts);
        let global = PhaseSplit::of_options(&plain.options);
        let uniform_s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints {
                phase_repartition: Some(
                    PhaseRepartition::by_kind(accel.sram_words(), global, global).unwrap(),
                ),
                ..cuts
            },
        );
        let run = |s: &cello_core::score::binding::Schedule| {
            let mut b = crate::backends::ChordBackend::new(ChordConfig {
                capacity_words: crate::evaluate::chord_capacity_words(&accel, s),
                word_bytes: accel.word_bytes,
                policy: cello_core::ChordPolicyKind::PreludeRiff,
                max_entries: accel.riff_entries,
            });
            run_schedule(&dag, s, &accel, &mut b, "c", "chain")
        };
        let (a, b) = (run(&plain), run(&uniform_s));
        assert_eq!(a.dram_bytes, b.dram_bytes);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
    }

    /// Shrinking one phase's CHORD capacity below a live dirty resident
    /// charges the resize eviction as DRAM writeback traffic — repartition
    /// is not free SRAM shuffling.
    #[test]
    fn phase_capacity_shrink_charges_resize_traffic() {
        use cello_core::score::binding::{build_schedule_with, ScheduleConstraints};
        use cello_core::score::repartition::{PhaseRepartition, PhaseSplit};
        use cello_core::ChordConfig;
        let dag = chain(3, 200_000);
        let accel = CelloConfig::paper();
        let cuts = ScheduleConstraints {
            cut_before: [1, 2].into_iter().collect(),
            ..Default::default()
        };
        let baseline_s = build_schedule_with(&dag, ScheduleOptions::cello(), &cuts);
        // Phase 1 reserves all but 100_000 words: T0 (200_000 dirty words,
        // resident from phase 0, still consumed in phase 1) loses half its
        // residency at the boundary.
        let rep = PhaseRepartition::by_index(
            accel.sram_words(),
            [(1usize, PhaseSplit::new(accel.sram_words() - 100_000, 0))]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let shrunk_s = build_schedule_with(
            &dag,
            ScheduleOptions::cello(),
            &ScheduleConstraints {
                phase_repartition: Some(rep),
                ..cuts
            },
        );
        assert!(shrunk_s.repartition_active());
        let run = |s: &cello_core::score::binding::Schedule| {
            let mut b = crate::backends::ChordBackend::new(ChordConfig {
                capacity_words: crate::evaluate::chord_capacity_words(&accel, s),
                word_bytes: accel.word_bytes,
                policy: cello_core::ChordPolicyKind::PreludeRiff,
                max_entries: accel.riff_entries,
            });
            run_schedule(&dag, s, &accel, &mut b, "c", "chain")
        };
        let (base, shrunk) = (run(&baseline_s), run(&shrunk_s));
        assert!(
            shrunk.stats.writebacks > base.stats.writebacks,
            "resize evictions recorded as writebacks"
        );
        // The evicted dirty tail pays a writeback now and a re-read miss at
        // its phase-1 consume: strictly more DRAM than the uniform split.
        assert!(
            shrunk.dram_bytes > base.dram_bytes,
            "{} !> {}",
            shrunk.dram_bytes,
            base.dram_bytes
        );
    }

    #[test]
    fn report_totals_consistent() {
        let dag = chain(4, 4000);
        let schedule = build_schedule(&dag, ScheduleOptions::best_intra());
        let mut backend = ExplicitBackend::new(4);
        let accel = CelloConfig::paper();
        let r = run_schedule(&dag, &schedule, &accel, &mut backend, "Flexagon", "chain");
        assert_eq!(r.macs, dag.nodes().map(|(_, n)| n.macs).sum::<u64>());
        assert!(r.seconds > 0.0);
        assert!(r.gfpmuls_per_sec() > 0.0);
        assert!((r.offchip_energy_pj - r.dram_bytes as f64 * 31.2).abs() < 1e-6);
    }
}
