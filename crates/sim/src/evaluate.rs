//! Lightweight cost evaluation for design-space exploration.
//!
//! The DSE engine (`cello-search`) scores thousands of candidate schedules;
//! it needs traffic + roofline cycles + energy, not the full [`RunReport`]
//! with its per-phase breakdown, labels and address-map/trace machinery.
//! This module provides that path: one operand-granular walk through the
//! existing engine against the backend the candidate's options imply
//! (CHORD-backed when `enable_chord`, the explicit oracle otherwise), with
//! the on-chip SRAM **partitioned by the candidate itself** — CHORD gets
//! whatever the schedule's pipeline buffer and register file leave behind.
//! That partition is the buffer half of the paper's co-design space: a
//! schedule that asks for a smaller pipeline buffer buys CHORD capacity,
//! and vice versa. Under a per-phase repartition
//! ([`cello_core::PhaseRepartition`]) the split is re-derived per pipeline
//! cluster and CHORD is resized at phase boundaries — the uniform split is
//! the degenerate global case, bit-exact with the single-split path.
//!
//! Multi-node schedules ([`cello_core::Partition`]) evaluate through the
//! same path: each node carries its own SRAM with the same
//! pipeline/RF/CHORD split, the engine scores one node's sliced tile
//! footprints against it, and DRAM totals aggregate across the mesh while
//! NoC word-hops become a fourth objective.

use crate::backends::{ChordBackend, ExplicitBackend, MemoryBackend};
use crate::engine::run_schedule;
use crate::report::RunReport;
use cello_core::accel::CelloConfig;
use cello_core::chord::{ChordConfig, ChordPolicyKind};
use cello_core::score::binding::Schedule;
use cello_graph::dag::TensorDag;

/// The four objectives the search optimizes (Pareto dimensions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Total roofline cycles (`max(compute, memory)` per phase, summed,
    /// plus serialized NoC exchanges on multi-node schedules).
    pub cycles: u64,
    /// Total DRAM traffic in bytes, aggregated across nodes.
    pub dram_bytes: u64,
    /// NoC traffic in byte-hops (0 on a single node).
    pub noc_hop_bytes: u64,
    /// Off-chip + on-chip + NoC energy in picojoules.
    pub energy_pj: f64,
}

impl CostEstimate {
    /// Collapses a full report to the four search objectives.
    pub fn from_report(r: &RunReport) -> Self {
        Self {
            cycles: r.cycles,
            dram_bytes: r.dram_bytes,
            noc_hop_bytes: r.noc_hop_bytes,
            energy_pj: r.offchip_energy_pj + r.onchip_energy_pj + r.noc_energy_pj,
        }
    }

    /// Total bytes moved between chips: DRAM plus NoC hop-bytes — the §V-B
    /// scalable-dataflow figure of merit.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.dram_bytes.saturating_add(self.noc_hop_bytes)
    }

    /// Weak Pareto dominance: no worse on every objective, strictly better
    /// on at least one.
    ///
    /// Energy compares through `total_cmp`, which is a total order even for
    /// NaN/∞ — a NaN energy sorts above every finite value, so a
    /// NaN-energy candidate can be dominated (and never dominates on
    /// energy). Under the naive `<=`/`<` comparison a NaN candidate was
    /// both non-dominated and non-dominating, silently corrupting the
    /// Pareto front.
    pub fn dominates(&self, other: &CostEstimate) -> bool {
        let energy = self.energy_pj.total_cmp(&other.energy_pj);
        let no_worse = self.cycles <= other.cycles
            && self.dram_bytes <= other.dram_bytes
            && self.noc_hop_bytes <= other.noc_hop_bytes
            && energy != std::cmp::Ordering::Greater;
        let better = self.cycles < other.cycles
            || self.dram_bytes < other.dram_bytes
            || self.noc_hop_bytes < other.noc_hop_bytes
            || energy == std::cmp::Ordering::Less;
        no_worse && better
    }
}

/// CHORD capacity left for a schedule that reserves `pipeline_buffer_words`
/// and `rf_capacity_words` of the accelerator's SRAM, minus the schedule's
/// prefetch staging carve (never below one cache line's worth, so
/// degenerate partitions still simulate). The global split is just the
/// uniform case of [`phase_chord_capacity_words`] — one formula, not two.
pub fn chord_capacity_words(accel: &CelloConfig, schedule: &Schedule) -> u64 {
    phase_chord_capacity_words(
        accel,
        &cello_core::PhaseSplit::of_options(&schedule.options),
        &schedule.transfer,
    )
}

/// CHORD capacity during one phase of a repartitioned schedule: the SRAM
/// minus that phase's own pipeline/RF reservation and the schedule-wide
/// prefetch staging carve ([`cello_core::TransferTuning::staging_words`] —
/// overlap trades CHORD reuse capacity for latency hiding), with the same
/// one-cache-line floor. Equals [`chord_capacity_words`] for every phase of
/// a uniform split — the global path is the degenerate case.
pub fn phase_chord_capacity_words(
    accel: &CelloConfig,
    split: &cello_core::score::repartition::PhaseSplit,
    transfer: &cello_core::TransferTuning,
) -> u64 {
    accel
        .sram_words()
        .saturating_sub(split.reserved_words())
        .saturating_sub(transfer.staging_words(accel.staging_quantum_words))
        .max(16)
}

/// Evaluates one schedule on the cheap path, returning the three objectives.
///
/// Backend choice mirrors [`crate::baselines::run_config`]: CHORD (full
/// PRELUDE+RIFF) when the schedule steers operands to CHORD, the explicit
/// oracle otherwise — but CHORD is sized by [`chord_capacity_words`] rather
/// than the whole SRAM, because the candidate's own buffer split is part of
/// what the search explores.
pub fn evaluate_schedule(
    dag: &TensorDag,
    schedule: &Schedule,
    accel: &CelloConfig,
) -> CostEstimate {
    CostEstimate::from_report(&evaluate_report(dag, schedule, accel))
}

/// The full report behind [`evaluate_schedule`] (the `cello_dse` CLI uses it
/// for TSV emission; the search itself only keeps the [`CostEstimate`]).
pub fn evaluate_report(dag: &TensorDag, schedule: &Schedule, accel: &CelloConfig) -> RunReport {
    let mut backend: Box<dyn MemoryBackend> = if schedule.options.enable_chord {
        Box::new(ChordBackend::new(ChordConfig {
            capacity_words: chord_capacity_words(accel, schedule),
            word_bytes: accel.word_bytes,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: accel.riff_entries,
        }))
    } else {
        Box::new(ExplicitBackend::new(accel.word_bytes))
    };
    run_schedule(dag, schedule, accel, backend.as_mut(), "dse", "dse")
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn cost_matches_full_report() {
        let dag = chain(3, 100_000);
        let s = build_schedule(&dag, ScheduleOptions::cello());
        let accel = CelloConfig::paper();
        let report = evaluate_report(&dag, &s, &accel);
        let cost = evaluate_schedule(&dag, &s, &accel);
        assert_eq!(cost.cycles, report.cycles);
        assert_eq!(cost.dram_bytes, report.dram_bytes);
        assert_eq!(cost.noc_hop_bytes, report.noc_hop_bytes);
        assert_eq!(cost.noc_hop_bytes, 0, "single node never pays the NoC");
        assert!(
            (cost.energy_pj
                - report.offchip_energy_pj
                - report.onchip_energy_pj
                - report.noc_energy_pj)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn chord_capacity_respects_partition() {
        let accel = CelloConfig::paper(); // 1 Mi words of SRAM
        let dag = chain(2, 1_000);
        let mut opts = ScheduleOptions::cello();
        opts.pipeline_buffer_words = 1 << 18;
        opts.rf_capacity_words = 1 << 14;
        let s = build_schedule(&dag, opts);
        assert_eq!(
            chord_capacity_words(&accel, &s),
            (1 << 20) - (1 << 18) - (1 << 14)
        );
        // Degenerate partitions clamp instead of underflowing.
        let mut greedy = ScheduleOptions::cello();
        greedy.pipeline_buffer_words = 2 << 20;
        let s2 = build_schedule(&dag, greedy);
        assert_eq!(chord_capacity_words(&accel, &s2), 16);
    }

    #[test]
    fn non_chord_schedules_use_explicit_backend() {
        let dag = chain(3, 50_000);
        let accel = CelloConfig::paper();
        let oracle = build_schedule(&dag, ScheduleOptions::best_intra());
        let cost = evaluate_schedule(&dag, &oracle, &accel);
        // Oracle cold traffic: 3 reads + 3 writes of 50_000 words x 4 B.
        assert_eq!(cost.dram_bytes, 6 * 50_000 * 4);
    }

    fn cost(cycles: u64, dram: u64, noc: u64, energy: f64) -> CostEstimate {
        CostEstimate {
            cycles,
            dram_bytes: dram,
            noc_hop_bytes: noc,
            energy_pj: energy,
        }
    }

    #[test]
    fn dominance_is_strict_and_consistent() {
        let a = cost(10, 10, 0, 10.0);
        let b = cost(10, 11, 0, 10.0);
        let c = cost(9, 12, 0, 10.0);
        let d = cost(10, 10, 5, 10.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "no self-dominance");
        assert!(!a.dominates(&c) && !c.dominates(&a), "incomparable pair");
        assert!(a.dominates(&d), "NoC hop-bytes is a real objective");
        assert!(!d.dominates(&a));
    }

    /// Regression: dominance must stay total under non-finite energy. A
    /// NaN-energy candidate is strictly worse than an otherwise-equal
    /// finite one (total_cmp puts NaN above +∞), so it can be pruned from
    /// the Pareto front instead of sitting there as an incomparable ghost.
    #[test]
    fn dominance_is_total_under_nan_energy() {
        let finite = cost(10, 10, 0, 10.0);
        let nan = cost(10, 10, 0, f64::NAN);
        assert!(finite.dominates(&nan), "finite energy beats NaN");
        assert!(!nan.dominates(&finite));
        assert!(!nan.dominates(&nan), "no self-dominance even for NaN");
        // +∞ behaves the same way.
        let inf = cost(10, 10, 0, f64::INFINITY);
        assert!(finite.dominates(&inf));
        assert!(inf.dominates(&nan), "total order: ∞ < NaN under total_cmp");
    }

    #[test]
    fn total_traffic_saturates() {
        let big = cost(1, u64::MAX, u64::MAX, 0.0);
        assert_eq!(big.total_traffic_bytes(), u64::MAX);
        assert_eq!(cost(1, 100, 20, 0.0).total_traffic_bytes(), 120);
    }
}
