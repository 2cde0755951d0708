//! Funnel forensics: per-tier attribution of where every candidate died.
//!
//! The three-tier funnel ([`crate::tuner`]) discards candidates at three
//! lossy stages — the tier-0 symbolic prune, schedule-key deduplication,
//! and the tier-1 keep-fraction cut — and only the survivors reach the
//! exact tier. The plain [`SearchOutcome`]
//! reports aggregate counts; this module answers the forensic questions a
//! regression hunt actually asks:
//!
//! 1. **Does the accounting close?** Every proposed candidate must die in
//!    exactly one tier or be promoted:
//!    `candidates_seen = tier0_pruned + dedup_merged +
//!    surrogate_dropped + promoted`
//!    ([`FunnelAudit::accounts_exactly`]). A gap means a tier is
//!    silently eating (or double-counting) candidates.
//! 2. **Is tier 0 ranking sanely?** The sketch scalar is cross-checked
//!    against exact sim cycles on a sampled survivor subset via Spearman
//!    rank correlation ([`spearman`]).
//! 3. **Did the prune cost us the winner?** A deterministic sample of the
//!    *pruned* assignments is re-scored through the exact simulator; any
//!    sampled candidate whose cost strictly beats the reported winner
//!    (`cost::cost_order`, no key tiebreak) is
//!    counted as `survivor_loss`. On exhaustively-coverable spaces the
//!    check is total: `sim_optimum_survived` evaluates the whole space and
//!    flags whether the funnel's winner matches the true sim optimum —
//!    the same property the `tier0_never_discards_the_sim_optimum`
//!    proptest pins.
//!
//! The audit is `tune` plus post-hoc checks: [`Tuner::tune_audited`] runs
//! the tuner's one funnel path (the same function [`Tuner::tune`] runs),
//! which hands back the per-stage counts it already keeps and, when a
//! tier-0 stage ran, its model and sweep result. The returned outcome is
//! therefore the unaudited one, field for field. The forensics cost extra
//! sim evaluations only for the sampled cross-checks, all after the
//! outcome is fixed.

use crate::cost::{cost_order, rank};
use crate::strategy::{SplitMix64, Strategy};
use crate::tier0::Tier0Prune;
use crate::tuner::{Funnel, SearchOutcome, Tuner, TIER0_SWEEP_SEED};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Knobs for the audit's sampled cross-checks. All sampling is seeded and
/// deterministic: the same tune audited twice yields the same ledger.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// How many *pruned* assignments to re-score exactly for the
    /// survivor-loss check.
    pub pruned_samples: usize,
    /// How many tier-0 survivors to cross-check (sketch scalar vs exact
    /// sim cycles, Spearman).
    pub rank_samples: usize,
    /// When the space's exhaustive size is at most this, the audit
    /// sim-evaluates *everything* and sets
    /// [`FunnelAudit::sim_optimum_survived`]; larger spaces leave it
    /// `None` (the sampled survivor-loss check still runs).
    pub exhaustive_cap: u64,
    /// Seed for the pruned-assignment reservoir sample.
    pub seed: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            pruned_samples: 16,
            rank_samples: 24,
            exhaustive_cap: 512,
            seed: 0xA0D1,
        }
    }
}

/// The per-tier ledger of one audited tune: where every candidate died.
#[derive(Clone, Debug, PartialEq)]
pub struct FunnelAudit {
    /// Strategy label (matches the outcome's).
    pub strategy: String,
    /// Assignments the strategy proposed (the funnel's mouth).
    pub candidates_seen: u64,
    /// Assignments tier 0 sketched (0 when the strategy has no tier-0
    /// stage).
    pub tier0_swept: u64,
    /// Sketch-Pareto survivors tier 0 promoted.
    pub tier0_kept: u64,
    /// Died in tier 0: sketched, symbolically dominated (or cap-evicted),
    /// never built.
    pub tier0_pruned: u64,
    /// Died by deduplication: distinct pick vectors that collapsed to an
    /// already-scored canonical schedule.
    pub dedup_merged: u64,
    /// Distinct schedules tier 1 ranked (the keep-fraction cut's
    /// input; 0 for single-tier strategies).
    pub surrogate_ranked: u64,
    /// Died at the tier-1 cut: ranked below the keep fraction.
    pub surrogate_dropped: u64,
    /// Promoted to the exact simulator (distinct schedules).
    pub promoted: u64,
    /// Spearman rank correlation between the tier-0 sketch scalar and
    /// exact sim cycles over the sampled survivors (`None` without a
    /// tier-0 stage or with fewer than two samples).
    pub sketch_sim_spearman: Option<f64>,
    /// Survivors in the rank cross-check sample.
    pub rank_checked: u64,
    /// Pruned assignments re-scored exactly for the survivor-loss check.
    pub pruned_sampled: u64,
    /// Sampled pruned assignments whose exact cost strictly beats the
    /// reported winner — every one is a candidate the funnel lost.
    pub survivor_loss: u64,
    /// On exhaustively-coverable spaces (see
    /// [`AuditConfig::exhaustive_cap`]): did the funnel's winner match the
    /// sim optimum over the *whole* space? `None` when the space was too
    /// large to cover.
    pub sim_optimum_survived: Option<bool>,
}

impl FunnelAudit {
    /// The funnel-conservation identity: every proposed candidate died in
    /// exactly one tier or was promoted.
    pub fn accounts_exactly(&self) -> bool {
        self.candidates_seen == self.tier_sum()
    }

    /// `tier0_pruned + dedup_merged + surrogate_dropped + promoted`.
    pub fn tier_sum(&self) -> u64 {
        self.tier0_pruned + self.dedup_merged + self.surrogate_dropped + self.promoted
    }
}

impl<'a> Tuner<'a> {
    /// [`Tuner::tune`] plus post-hoc checks: the same funnel run (same
    /// traversal, same memo cache, identical outcome), its per-tier
    /// [`FunnelAudit`] ledger, and the forensics. The forensics' extra
    /// exact evaluations (rank cross-check, pruned-sample re-scores,
    /// exhaustive coverage) run *after* the outcome is assembled, so they
    /// never perturb it.
    pub fn tune_audited(
        &self,
        strategy: &Strategy,
        cfg: &AuditConfig,
    ) -> (SearchOutcome, FunnelAudit) {
        let Funnel {
            outcome,
            ledger,
            tier0,
        } = self.funnel(strategy, &[]);

        // Tier-0 rank cross-check: sketch scalar vs exact sim cycles over
        // the first `rank_samples` survivors (admission order, so the
        // sample is deterministic).
        let (sketch_sim_spearman, rank_checked) = match &tier0 {
            Some((model, pruned)) if !pruned.kept.is_empty() => {
                let sample: Vec<&Vec<usize>> =
                    pruned.kept.iter().take(cfg.rank_samples.max(2)).collect();
                let sketch: Vec<u64> = sample.iter().map(|p| model.sketch(p).scalar()).collect();
                let sims = self.eval_batch(sample.iter().map(|p| self.space.assemble(p)).collect());
                let cycles: Vec<u64> = sims.iter().map(|e| e.cost.cycles).collect();
                let rho = (sketch.len() >= 2).then(|| spearman(&sketch, &cycles));
                (rho, sample.len() as u64)
            }
            _ => (None, 0),
        };

        // Survivor-loss check: replay the tier-0 sweep stream,
        // reservoir-sample the *pruned* assignments, and re-score them
        // exactly. Anything that strictly beats the winner is a candidate
        // the funnel lost.
        let (pruned_sampled, survivor_loss) = match &tier0 {
            Some((_, pruned)) if cfg.pruned_samples > 0 => {
                let sample = self.sample_pruned(pruned, cfg.pruned_samples, cfg.seed);
                let evals =
                    self.eval_batch(sample.iter().map(|p| self.space.assemble(p)).collect());
                let losses = evals
                    .iter()
                    .filter(|e| cost_order(e, &outcome.best_cycles) == Ordering::Less)
                    .count() as u64;
                (sample.len() as u64, losses)
            }
            _ => (0, 0),
        };

        // Total coverage on small spaces: does the funnel's winner match
        // the sim optimum over the whole space?
        let total = self.space.exhaustive_size();
        let sim_optimum_survived = (total <= cfg.exhaustive_cap).then(|| {
            let mut all = Vec::with_capacity(total as usize);
            self.space
                .sweep(total, 0, |_, picks| all.push(self.space.assemble(picks)));
            let evals = self.eval_batch(all);
            let optimum = evals.iter().min_by(|a, b| rank(a, b)).expect("non-empty");
            cost_order(optimum, &outcome.best_cycles) != Ordering::Less
        });

        let audit = FunnelAudit {
            strategy: outcome.strategy.clone(),
            candidates_seen: outcome.candidates_seen,
            tier0_swept: ledger.swept,
            tier0_kept: ledger.kept,
            tier0_pruned: ledger.swept - ledger.kept,
            dedup_merged: ledger.scored - ledger.distinct,
            surrogate_ranked: ledger.ranked,
            surrogate_dropped: ledger.dropped,
            promoted: ledger.promoted,
            sketch_sim_spearman,
            rank_checked,
            pruned_sampled,
            survivor_loss,
            sim_optimum_survived,
        };
        let registry = cello_obs::metrics::global();
        registry.counter("search_audit_runs").inc();
        registry
            .counter("search_audit_tier0_pruned")
            .add(audit.tier0_pruned);
        registry
            .counter("search_audit_dedup_merged")
            .add(audit.dedup_merged);
        registry
            .counter("search_audit_surrogate_dropped")
            .add(audit.surrogate_dropped);
        registry
            .counter("search_audit_promoted")
            .add(audit.promoted);
        registry
            .counter("search_audit_survivor_loss")
            .add(survivor_loss);
        (outcome, audit)
    }

    /// Reservoir-samples up to `k` assignments the tier-0 sweep *pruned*,
    /// by replaying the sweep stream ([`SearchSpace::sweep`](crate::SearchSpace::sweep),
    /// deterministic) and skipping the kept set.
    fn sample_pruned(&self, pruned: &Tier0Prune, k: usize, seed: u64) -> Vec<Vec<usize>> {
        let kept: HashSet<&[usize]> = pruned.kept.iter().map(Vec::as_slice).collect();
        let mut reservoir: Vec<Vec<usize>> = Vec::with_capacity(k);
        let mut offered = 0u64;
        let mut rng = SplitMix64::new(seed);
        self.space
            .sweep(pruned.swept, TIER0_SWEEP_SEED, |_, picks| {
                if kept.contains(picks) {
                    return;
                }
                offered += 1;
                if reservoir.len() < k {
                    reservoir.push(picks.to_vec());
                } else {
                    let j = rng.below(offered) as usize;
                    if j < k {
                        reservoir[j] = picks.to_vec();
                    }
                }
            });
        reservoir
    }
}

/// Spearman rank correlation between two paired samples (average ranks for
/// ties). Returns 0.0 for degenerate inputs (fewer than two points, or a
/// side with zero rank variance while the other varies). When **both**
/// sides are constant the rankings trivially agree and the result is 1.0 —
/// a workload whose every candidate costs the same is a perfectly
/// predicted one, not a model failure.
pub fn spearman(xs: &[u64], ys: &[u64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let rx = average_ranks(xs);
    let ry = average_ranks(ys);
    let n = rx.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut vx, mut vy) = (0.0f64, 0.0f64, 0.0f64);
    for (a, b) in rx.iter().zip(&ry) {
        let (da, db) = (a - mean, b - mean);
        cov += da * db;
        vx += da * da;
        vy += db * db;
    }
    match (vx == 0.0, vy == 0.0) {
        (true, true) => 1.0,
        (true, false) | (false, true) => 0.0,
        _ => cov / (vx * vy).sqrt(),
    }
}

/// 1-based ranks with ties sharing their average rank.
fn average_ranks(values: &[u64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by_key(|&i| values[i]);
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Evaluated;
    use crate::space::SpaceConfig;
    use cello_core::accel::CelloConfig;
    use cello_workloads::cg::{build_cg_dag, CgParams};

    fn cg(iters: u32) -> cello_graph::dag::TensorDag {
        build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: iters,
            a_occupancy: None,
        })
    }

    fn small_cfg() -> SpaceConfig {
        SpaceConfig {
            max_cut_points: 2,
            max_steer_tensors: 2,
            max_loop_order_nodes: 1,
            pipeline_words_choices: vec![65_536, 16_384],
            rf_words_choices: vec![16_384],
            node_choices: vec![1],
            max_chord_bias_tensors: 0,
            chord_bias_magnitudes: vec![1],
            repartition_profiles: Vec::new(),
            transfer_menu: Vec::new(),
            overbook_menu: Vec::new(),
        }
    }

    /// The funnel-conservation identity closes on every strategy shape:
    /// full three-tier, two-tier, and direct.
    #[test]
    fn accounting_closes_on_every_strategy_shape() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        for strategy in [
            Strategy::prefiltered(
                0.25,
                Strategy::Tier0 {
                    budget: 256,
                    keep: 16,
                },
            ),
            Strategy::prefiltered(0.25, Strategy::Beam { width: 3 }),
            Strategy::Tier0 {
                budget: 256,
                keep: 16,
            },
            Strategy::Beam { width: 3 },
            Strategy::Exhaustive,
        ] {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let (out, audit) = tuner.tune_audited(&strategy, &AuditConfig::default());
            assert!(
                audit.accounts_exactly(),
                "{}: seen {} != {} (= {} pruned + {} dedup + {} dropped + {} promoted)",
                audit.strategy,
                audit.candidates_seen,
                audit.tier_sum(),
                audit.tier0_pruned,
                audit.dedup_merged,
                audit.surrogate_dropped,
                audit.promoted,
            );
            assert_eq!(audit.candidates_seen, out.candidates_seen);
        }
    }

    /// Every field of two outcomes, energy compared bit for bit.
    fn assert_same_outcome(plain: &SearchOutcome, audited: &SearchOutcome) {
        let label = &plain.strategy;
        let same = |a: &Evaluated, b: &Evaluated, what: &str| {
            assert_eq!(a.key, b.key, "{label}: {what} key");
            assert_eq!(a.candidate, b.candidate, "{label}: {what} candidate");
            assert_eq!(a.cost, b.cost, "{label}: {what} cost");
            assert_eq!(
                a.cost.energy_pj.to_bits(),
                b.cost.energy_pj.to_bits(),
                "{label}: {what} energy"
            );
        };
        assert_eq!(plain.strategy, audited.strategy);
        same(&plain.baseline, &audited.baseline, "baseline");
        same(&plain.best_cycles, &audited.best_cycles, "best_cycles");
        same(&plain.best_dram, &audited.best_dram, "best_dram");
        same(&plain.best_traffic, &audited.best_traffic, "best_traffic");
        assert_eq!(plain.pareto.len(), audited.pareto.len(), "{label}: pareto");
        for (a, b) in plain.pareto.iter().zip(&audited.pareto) {
            same(a, b, "pareto");
        }
        assert_eq!(plain.evaluations, audited.evaluations, "{label}");
        assert_eq!(plain.cache_hits, audited.cache_hits, "{label}");
        assert_eq!(plain.candidates_seen, audited.candidates_seen, "{label}");
        assert_eq!(plain.surrogate_scored, audited.surrogate_scored, "{label}");
    }

    /// The audit is `tune` plus post-hoc checks, not a different search:
    /// on every strategy shape the audited outcome equals the unaudited
    /// one field for field.
    #[test]
    fn audited_outcome_matches_unaudited() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let tier0 = Strategy::Tier0 {
            budget: 256,
            keep: 16,
        };
        let beam = Strategy::Beam { width: 3 };
        for strategy in [
            Strategy::Exhaustive,
            beam.clone(),
            Strategy::Random {
                samples: 40,
                seed: 7,
            },
            tier0.clone(),
            Strategy::prefiltered(0.25, beam.clone()),
            Strategy::prefiltered(0.25, tier0.clone()),
            Strategy::prefiltered(1.0, beam.clone()),
            Strategy::prefiltered(1.0, tier0.clone()),
            Strategy::prefiltered(0.25, Strategy::prefiltered(0.5, tier0.clone())),
        ] {
            let plain = Tuner::new(&dag, &accel, small_cfg()).tune(&strategy);
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let (audited, _) = tuner.tune_audited(&strategy, &AuditConfig::default());
            assert_same_outcome(&plain, &audited);
        }
    }

    /// The full ledger of two small tunes, pinned: a three-tier funnel and
    /// a direct beam.
    #[test]
    fn ledger_is_pinned() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let audit = |strategy: Strategy| {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            tuner.tune_audited(&strategy, &AuditConfig::default()).1
        };
        let funnel = audit(Strategy::prefiltered(
            0.25,
            Strategy::Tier0 {
                budget: 256,
                keep: 16,
            },
        ));
        let beam = audit(Strategy::Beam { width: 3 });
        assert_eq!(
            funnel,
            FunnelAudit {
                strategy: "prefilter0.25+tier0b256k16".into(),
                candidates_seen: 257,
                tier0_swept: 256,
                tier0_kept: 16,
                tier0_pruned: 240,
                dedup_merged: 6,
                surrogate_ranked: 11,
                surrogate_dropped: 8,
                promoted: 3,
                sketch_sim_spearman: Some(0.870571500132014),
                rank_checked: 16,
                pruned_sampled: 16,
                survivor_loss: 0,
                sim_optimum_survived: Some(true),
            }
        );
        assert_eq!(
            beam,
            FunnelAudit {
                strategy: "beam3".into(),
                candidates_seen: 43,
                tier0_swept: 0,
                tier0_kept: 0,
                tier0_pruned: 0,
                dedup_merged: 23,
                surrogate_ranked: 0,
                surrogate_dropped: 0,
                promoted: 20,
                sketch_sim_spearman: None,
                rank_checked: 0,
                pruned_sampled: 0,
                survivor_loss: 0,
                sim_optimum_survived: Some(true),
            }
        );
    }

    /// With budget and keep cap covering the whole space the tier-0 prune
    /// is sound (the `tier0_never_discards_the_sim_optimum` property), and
    /// the audit's total-coverage flag must agree: the sim optimum
    /// survived, and no sampled pruned candidate beats the winner.
    #[test]
    fn coverage_flag_agrees_with_tier0_soundness() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        let budget = tuner.space().exhaustive_size();
        let strategy = Strategy::Tier0 {
            budget,
            keep: usize::MAX >> 1,
        };
        let cfg = AuditConfig {
            exhaustive_cap: budget,
            ..AuditConfig::default()
        };
        let (out, audit) = tuner.tune_audited(&strategy, &cfg);
        assert_eq!(audit.tier0_swept, budget, "full sweep");
        assert_eq!(
            audit.sim_optimum_survived,
            Some(true),
            "sound prune ⇒ the sim optimum survived every tier"
        );
        assert_eq!(
            audit.survivor_loss, 0,
            "no sampled pruned candidate may beat the winner of a sound prune"
        );
        // Cross-check agreement with exhaustive search, the long way.
        let ex = Tuner::new(&dag, &accel, small_cfg()).tune(&Strategy::Exhaustive);
        assert_eq!(out.best_cycles.cost, ex.best_cycles.cost);
    }

    /// The rank cross-check runs and is deterministic; the ledger fields
    /// that describe it are consistent with each other.
    #[test]
    fn rank_cross_check_is_deterministic() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let strategy = Strategy::prefiltered(
            0.25,
            Strategy::Tier0 {
                budget: 256,
                keep: 16,
            },
        );
        let run = || {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let (_, audit) = tuner.tune_audited(&strategy, &AuditConfig::default());
            audit
        };
        let a = run();
        let b = run();
        assert!(a.rank_checked >= 2, "enough survivors to correlate");
        assert_eq!(a.sketch_sim_spearman, b.sketch_sim_spearman);
        assert_eq!(a.survivor_loss, b.survivor_loss);
        assert_eq!(a.pruned_sampled, b.pruned_sampled);
        let rho = a.sketch_sim_spearman.expect("tier-0 ran");
        assert!((-1.0..=1.0).contains(&rho), "rho in range: {rho}");
    }

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1, 2, 3, 4], &[10, 20, 30, 40]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1, 2, 3, 4], &[40, 30, 20, 10]) + 1.0).abs() < 1e-12);
        // Ties share average ranks and still correlate.
        assert!(spearman(&[1, 1, 2, 3], &[5, 5, 9, 12]) > 0.99);
        // Degenerate inputs.
        assert_eq!(spearman(&[1], &[2]), 0.0);
        assert_eq!(spearman(&[3, 3, 3], &[1, 2, 3]), 0.0);
        // Both constant: trivial agreement, not a failure.
        assert_eq!(spearman(&[3, 3, 3], &[7, 7, 7]), 1.0);
    }
}
