//! The tuner: parallel scoring, strategy execution, outcome assembly.
//!
//! Three evaluation tiers form a funnel. Tier 0 ([`crate::tier0`]) is
//! symbolic: closed-form cost sketches over raw pick vectors, no schedule
//! ever built, pruned by Pareto dominance. The two concrete tiers score
//! with one cost model, the simulator (`cello_sim::evaluate`), and keep one
//! memo table each in a shared cache. Direct strategies score everything in
//! the exact tier; [`Strategy::Prefiltered`] traverses in tier 1 and
//! promotes only the top-ranked fraction to the exact tier; with
//! [`Strategy::Tier0`] as its inner traversal the full funnel runs —
//! sketch-prune thousands of assignments per millisecond, rank the
//! survivors, keep the top slice — which is the piece that makes
//! exhaustive-scale spaces ([`SpaceConfig::widened`]) affordable.
//!
//! Every strategy runs through one private funnel path, `Tuner::funnel`.
//! [`Tuner::tune`] keeps its outcome; [`Tuner::tune_audited`]
//! ([`crate::audit`]) also keeps the per-stage counts and the tier-0 stage
//! it hands back, then runs its checks after the outcome is fixed.

use crate::cache::EvalCache;
use crate::candidate::Candidate;
use crate::cost::{pareto_front, rank, Evaluated};
use crate::fingerprint::ScheduleKey;
use crate::space::{SearchSpace, SpaceConfig};
use crate::strategy::Strategy;
use crate::tier0::{Tier0Model, Tier0Prune};
use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_sim::evaluate::{evaluate_schedule, CostEstimate};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Seed for tier-0's sampled sweep when the space exceeds the budget.
/// Fixed (not configurable) for the same reason `Strategy::Exhaustive` has
/// no seed: the tier-0 sweep is part of the strategy's identity, and two
/// runs of the same strategy must visit the same candidates.
pub(crate) const TIER0_SWEEP_SEED: u64 = 0x7E40;

/// What one `tune` run found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Strategy label (for reports).
    pub strategy: String,
    /// The paper heuristic scored through the same evaluator.
    pub baseline: Evaluated,
    /// Fewest total cycles found.
    pub best_cycles: Evaluated,
    /// Fewest DRAM bytes found.
    pub best_dram: Evaluated,
    /// Fewest total traffic bytes (DRAM + NoC hop-bytes) found — the §V-B
    /// scalable-dataflow figure of merit.
    pub best_traffic: Evaluated,
    /// The non-dominated frontier over (cycles, DRAM bytes, NoC hop-bytes,
    /// energy).
    pub pareto: Vec<Evaluated>,
    /// Distinct schedules exactly evaluated (`cello_sim`) during this run.
    pub evaluations: u64,
    /// Lookups served by the exact memo cache during this run.
    pub cache_hits: u64,
    /// Assignments the strategy proposed (>= evaluations; the difference is
    /// deduplication plus cache reuse).
    pub candidates_seen: u64,
    /// Distinct schedules scored into the tier-1 memo table during this run
    /// (0 for single-tier strategies).
    pub surrogate_scored: u64,
}

impl SearchOutcome {
    /// Cycle speedup of the tuned schedule over the paper heuristic.
    pub fn speedup(&self) -> f64 {
        self.baseline.cost.cycles as f64 / self.best_cycles.cost.cycles.max(1) as f64
    }

    /// DRAM-byte ratio tuned/baseline (< 1.0 means traffic saved).
    pub fn dram_ratio(&self) -> f64 {
        self.best_dram.cost.dram_bytes as f64 / self.baseline.cost.dram_bytes.max(1) as f64
    }

    /// Total-traffic (DRAM + NoC) ratio tuned/baseline.
    pub fn traffic_ratio(&self) -> f64 {
        self.best_traffic.cost.total_traffic_bytes() as f64
            / self.baseline.cost.total_traffic_bytes().max(1) as f64
    }
}

/// Ties a DAG + accelerator to a derived [`SearchSpace`] and a shared memo
/// cache, and runs strategies over it.
pub struct Tuner<'a> {
    pub(crate) dag: &'a TensorDag,
    pub(crate) accel: &'a CelloConfig,
    pub(crate) space: SearchSpace,
    pub(crate) cache: EvalCache,
}

impl<'a> Tuner<'a> {
    /// Derives the space from the DAG under `cfg`.
    pub fn new(dag: &'a TensorDag, accel: &'a CelloConfig, cfg: SpaceConfig) -> Self {
        Self {
            dag,
            accel,
            space: SearchSpace::from_dag(dag, &cfg),
            cache: EvalCache::new(),
        }
    }

    /// The derived space (inspectable for reporting).
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Scores a batch of candidates in parallel through `tier`, memoized in
    /// that tier's table. Results align with the input order.
    pub(crate) fn batch_with(&self, candidates: Vec<Candidate>, tier: Tier) -> Vec<Evaluated> {
        // Build every schedule (cheap, parallel) and intern its canonical
        // key — a 128-bit FNV streamed straight off the canonical text, so
        // no per-candidate `String` is ever allocated on this path.
        let built: Vec<(Candidate, cello_core::score::binding::Schedule, ScheduleKey)> = candidates
            .into_par_iter()
            .map(|c| {
                let schedule = c.build(self.dag);
                let key = Candidate::interned_key(&schedule);
                (c, schedule, key)
            })
            .collect();
        // One cache lookup per distinct key in the batch (so the hit counter
        // reflects genuine reuse, not bookkeeping); unique misses get one
        // evaluation each.
        let mut resolved: HashMap<ScheduleKey, CostEstimate> = HashMap::new();
        let mut pending: HashSet<ScheduleKey> = HashSet::new();
        let mut fresh: Vec<(ScheduleKey, &cello_core::score::binding::Schedule)> = Vec::new();
        for (_, schedule, key) in &built {
            if resolved.contains_key(key) || pending.contains(key) {
                continue;
            }
            let cached = match tier {
                Tier::Exact => self.cache.lookup(*key),
                Tier::Surrogate => self.cache.lookup_surrogate(*key),
            };
            match cached {
                Some(cost) => {
                    resolved.insert(*key, cost);
                }
                None => {
                    pending.insert(*key);
                    fresh.push((*key, schedule));
                }
            }
        }
        let costs: Vec<CostEstimate> = fresh
            .par_iter()
            .map(|(_, schedule)| evaluate_schedule(self.dag, schedule, self.accel))
            .collect();
        for ((key, _), cost) in fresh.into_iter().zip(costs) {
            match tier {
                Tier::Exact => self.cache.insert(key, cost),
                Tier::Surrogate => self.cache.insert_surrogate(key, cost),
            }
            resolved.insert(key, cost);
        }
        built
            .iter()
            .map(|(candidate, _, key)| Evaluated {
                candidate: candidate.clone(),
                key: *key,
                cost: resolved[key],
            })
            .collect()
    }

    /// Exact-tier batch scoring.
    pub(crate) fn eval_batch(&self, candidates: Vec<Candidate>) -> Vec<Evaluated> {
        self.batch_with(candidates, Tier::Exact)
    }

    /// Runs a base strategy's traversal, scoring through `tier` and
    /// appending everything scored to `all`. `strategy` must not be
    /// `Prefiltered` (callers flatten it first). `seeds` are full
    /// assignments (see [`SearchSpace::project`]) that guide beam search:
    /// their prefixes always compete in (and survive into) the beam, so a
    /// narrow warm-started beam still walks the cached winners' paths.
    /// Exhaustive, random, and tier-0 traversals ignore seeds — the caller
    /// evaluates the full seed assignments up front instead. A tier-0
    /// traversal hands back its model and sweep result.
    fn traverse(
        &self,
        strategy: &Strategy,
        tier: Tier,
        seeds: &[Vec<usize>],
        seen: &mut u64,
        all: &mut Vec<Evaluated>,
    ) -> Option<(Tier0Model, Tier0Prune)> {
        match *strategy {
            Strategy::Exhaustive => {
                // The whole space in odometer order, scored 1 024 at a time.
                const BATCH: usize = 1024;
                let total = self.space.exhaustive_size();
                let mut batch: Vec<Candidate> = Vec::with_capacity(BATCH);
                self.space.sweep(total, 0, |order, picks| {
                    batch.push(self.space.assemble(picks));
                    if batch.len() == BATCH || order + 1 == total {
                        *seen += batch.len() as u64;
                        all.extend(self.batch_with(std::mem::take(&mut batch), tier));
                    }
                });
                None
            }
            Strategy::Beam { width } => {
                let width = width.max(1);
                // The beam carries each prefix's already-assembled candidate:
                // extending a prefix applies exactly one decision
                // (`SearchSpace::apply_pick`) instead of re-walking the whole
                // vector — the level cost drops from O(prefix·pool) to
                // O(pool).
                let mut beam: Vec<(Vec<usize>, Candidate)> =
                    vec![(Vec::new(), self.space.assemble(&[]))];
                for (di, d) in self.space.decisions.iter().enumerate() {
                    let mut pool: Vec<(Vec<usize>, Candidate)> =
                        Vec::with_capacity(beam.len() * d.choices.len() + seeds.len());
                    let mut members: HashSet<Vec<usize>> = HashSet::with_capacity(pool.capacity());
                    for (prefix, cand) in &beam {
                        for choice in 0..d.choices.len() {
                            let mut picks = prefix.clone();
                            picks.push(choice);
                            if members.insert(picks.clone()) {
                                let mut c = cand.clone();
                                self.space.apply_pick(&mut c, di, choice);
                                pool.push((picks, c));
                            }
                        }
                    }
                    // Seed prefixes enter the pool even when no surviving
                    // beam prefix leads to them.
                    for s in seeds {
                        if let Some(prefix) = s.get(..=di) {
                            if members.insert(prefix.to_vec()) {
                                pool.push((prefix.to_vec(), self.space.assemble(prefix)));
                            }
                        }
                    }
                    let _level_span = cello_obs::span!("beam_level", level = di, pool = pool.len());
                    let batch: Vec<Candidate> = pool.iter().map(|(_, c)| c.clone()).collect();
                    *seen += batch.len() as u64;
                    let scored = self.batch_with(batch, tier);
                    all.extend(scored.iter().cloned());
                    let mut ranked: Vec<(usize, &Evaluated)> = scored.iter().enumerate().collect();
                    ranked.sort_by(|a, b| rank(a.1, b.1).then(a.0.cmp(&b.0)));
                    let survivors: Vec<usize> =
                        ranked.into_iter().take(width).map(|(i, _)| i).collect();
                    let mut kept: HashSet<Vec<usize>> =
                        survivors.iter().map(|&i| pool[i].0.clone()).collect();
                    let mut next: Vec<(Vec<usize>, Candidate)> =
                        survivors.into_iter().map(|i| pool[i].clone()).collect();
                    // Seed prefixes survive every level regardless of local
                    // rank: a seed that looks mediocre half-assigned can
                    // still be the best full schedule (its strength may live
                    // in a later decision), and dropping it would forfeit
                    // the whole point of warm-starting.
                    for s in seeds {
                        if let Some(prefix) = s.get(..=di) {
                            if kept.insert(prefix.to_vec()) {
                                next.push((prefix.to_vec(), self.space.assemble(prefix)));
                            }
                        }
                    }
                    beam = next;
                    debug_assert!(!beam.is_empty(), "beam emptied at decision {di}");
                }
                None
            }
            Strategy::Random { samples, seed } => {
                let batch: Vec<Candidate> = self
                    .space
                    .sample_assignments(samples, seed)
                    .iter()
                    .map(|picks| self.space.assemble(picks))
                    .collect();
                *seen += batch.len() as u64;
                all.extend(self.batch_with(batch, tier));
                None
            }
            Strategy::Tier0 { budget, keep } => {
                // Tier 0: sketch up to `budget` assignments symbolically (no
                // schedule build — see `crate::tier0`), promote only the
                // sketch-Pareto survivors to `tier`. Every sketched
                // assignment counts as seen: the sweep *is* the search
                // considering it and ruling it out.
                let model = Tier0Model::new(self.dag, self.accel, &self.space);
                let pruned = model.prune(&self.space, budget, keep, TIER0_SWEEP_SEED);
                *seen += pruned.swept;
                let registry = cello_obs::metrics::global();
                registry
                    .counter("search_tier0_kept")
                    .add(pruned.kept.len() as u64);
                registry
                    .counter("search_tier0_pruned")
                    .add(pruned.swept - pruned.kept.len() as u64);
                let batch: Vec<Candidate> =
                    pruned.kept.iter().map(|p| self.space.assemble(p)).collect();
                all.extend(self.batch_with(batch, tier));
                Some((model, pruned))
            }
            Strategy::Prefiltered { .. } => unreachable!("prefilter flattened before traversal"),
        }
    }

    /// Runs one strategy, returning the outcome. The memo cache (both
    /// tiers) persists across calls on the same tuner.
    pub fn tune(&self, strategy: &Strategy) -> SearchOutcome {
        self.tune_seeded(strategy, &[])
    }

    /// [`Self::tune`] warm-started from `seeds` — candidates recovered from
    /// a cached Pareto front of a *near-miss* workload (same DAG, different
    /// SRAM split / node menu), projected into this space with
    /// [`SearchSpace::project`]. Every full seed assignment is exactly
    /// evaluated (so the outcome can never be worse than the best cached
    /// schedule re-scored under the new configuration), and beam traversals
    /// additionally keep the seeds' prefixes alive at every level. The
    /// payoff is budgetary: a *narrow* warm beam plus seeds reaches what a
    /// wide cold beam finds, at a fraction of the sim evaluations —
    /// `cello-serve` pairs seeds with `width / 4`.
    pub fn tune_seeded(&self, strategy: &Strategy, seeds: &[Candidate]) -> SearchOutcome {
        self.funnel(strategy, seeds).outcome
    }

    /// The funnel, the one path both [`Self::tune_seeded`] and
    /// [`Self::tune_audited`] run: the baseline, the seeds, the traversal
    /// (tier 0 included), the schedule-key dedup, the tier-1 cut when a
    /// prefilter prunes, and the promotion to the exact tier.
    ///
    /// Under [`Strategy::Prefiltered`] with `keep_frac < 1` the traversal
    /// scores into tier 1, the top `keep_frac` of its distinct schedules
    /// are promoted, and the report covers exact-tier candidates only;
    /// seeds ride the tier-1 traversal as beam guidance *and* are always
    /// promoted. Nested prefilters collapse (pruning an already-pruned
    /// traversal is the same traversal), and `keep_frac >= 1` prunes
    /// nothing, so the run *is* the inner strategy. Any other strategy
    /// scores in the exact tier, seeds first.
    pub(crate) fn funnel(&self, strategy: &Strategy, seeds: &[Candidate]) -> Funnel {
        let _tune_span = cello_obs::span!("tune", strategy = strategy.label(), seeds = seeds.len());
        let seed_picks: Vec<Vec<usize>> = seeds.iter().map(|c| self.space.project(c)).collect();
        let (keep_frac, base) = match strategy {
            Strategy::Prefiltered { keep_frac, inner } => {
                let mut base: &Strategy = inner;
                while let Strategy::Prefiltered { inner, .. } = base {
                    base = inner;
                }
                let cut = if *keep_frac >= 1.0 {
                    None
                } else {
                    Some(*keep_frac)
                };
                (cut, base)
            }
            other => (None, other),
        };
        let tier = if keep_frac.is_some() {
            Tier::Surrogate
        } else {
            Tier::Exact
        };

        let hits_before = self.cache.hits();
        let evals_before = self.cache.evaluations();
        let surr_before = self.cache.surrogate_evaluations();
        let mut seen: u64 = 0;

        // Baseline first: the paper heuristic is always part of the run.
        let default_candidate = || vec![self.space.assemble(&self.space.default_picks())];
        let mut scored = self.batch_with(default_candidate(), tier);
        seen += 1;
        // Direct runs score the full seed assignments next: the cached
        // winners re-scored under this space's configuration, in the
        // comparison set no matter what the traversal keeps.
        if tier == Tier::Exact && !seed_picks.is_empty() {
            let batch: Vec<Candidate> = seed_picks.iter().map(|p| self.space.assemble(p)).collect();
            seen += batch.len() as u64;
            scored.extend(self.eval_batch(batch));
        }
        let tier0 = self.traverse(base, tier, &seed_picks, &mut seen, &mut scored);

        // Dedup by canonical schedule key (first occurrence wins).
        let scored_len = scored.len() as u64;
        let mut keys = HashSet::new();
        let mut uniq: Vec<Evaluated> = scored.into_iter().filter(|e| keys.insert(e.key)).collect();
        let distinct = uniq.len() as u64;

        let (baseline, all, ranked, dropped, promoted) = match keep_frac {
            // Direct: every distinct schedule is already exactly scored,
            // the baseline first.
            None => (uniq[0].clone(), uniq, 0, 0, distinct),
            Some(keep_frac) => {
                // Rank the distinct tier-1 schedules; keep the top fraction
                // (at least one).
                uniq.sort_by(rank);
                let keep =
                    ((keep_frac.max(0.0) * uniq.len() as f64).ceil() as usize).clamp(1, uniq.len());
                let registry = cello_obs::metrics::global();
                registry.counter("search_prefilter_kept").add(keep as u64);
                registry
                    .counter("search_prefilter_dropped")
                    .add(distinct - keep as u64);
                // Tier 2: exact evaluation of the survivors, plus the
                // baseline (always part of the comparison set, filtered or
                // not) and the full seed assignments (cached winners never
                // lost to the tier-1 cut).
                let baseline = self
                    .eval_batch(default_candidate())
                    .pop()
                    .expect("baseline evaluates");
                let mut survivors: Vec<Candidate> =
                    uniq[..keep].iter().map(|e| e.candidate.clone()).collect();
                survivors.extend(seed_picks.iter().map(|p| self.space.assemble(p)));
                let mut all = vec![baseline.clone()];
                all.extend(self.eval_batch(survivors));
                (baseline, all, distinct, distinct - keep as u64, keep as u64)
            }
        };

        // The report, over the exactly-evaluated comparison set.
        let best_by = |order: &dyn Fn(&Evaluated, &Evaluated) -> Ordering| {
            all.iter()
                .min_by(|a, b| order(a, b).then(rank(a, b)))
                .expect("non-empty")
                .clone()
        };
        let best_cycles = best_by(&|_, _| Ordering::Equal);
        let best_dram = best_by(&|a, b| a.cost.dram_bytes.cmp(&b.cost.dram_bytes));
        let best_traffic = best_by(&|a, b| {
            a.cost
                .total_traffic_bytes()
                .cmp(&b.cost.total_traffic_bytes())
        });
        let evaluations = self.cache.evaluations() - evals_before;
        let cache_hits = self.cache.hits() - hits_before;
        let surrogate_scored = self.cache.surrogate_evaluations() - surr_before;
        // Mirror the per-run aggregates into the global metrics registry so
        // long-lived processes (cello-serve, cello_dse) expose cumulative
        // search counters through one `metrics` snapshot.
        let registry = cello_obs::metrics::global();
        registry.counter("search_tunes").inc();
        registry.counter("search_exact_evals").add(evaluations);
        registry.counter("search_cache_hits").add(cache_hits);
        registry
            .counter("search_surrogate_evals")
            .add(surrogate_scored);
        registry.counter("search_candidates").add(seen);
        let (swept, kept) = tier0
            .as_ref()
            .map_or((0, 0), |(_, p)| (p.swept, p.kept.len() as u64));
        Funnel {
            outcome: SearchOutcome {
                strategy: strategy.label(),
                baseline,
                best_cycles,
                best_dram,
                best_traffic,
                pareto: pareto_front(&all),
                evaluations,
                cache_hits,
                candidates_seen: seen,
                surrogate_scored,
            },
            ledger: Ledger {
                swept,
                kept,
                scored: scored_len,
                distinct,
                ranked,
                dropped,
                promoted,
            },
            tier0,
        }
    }
}

/// One run of [`Tuner::funnel`]: the outcome `tune` reports, the counts
/// the audit ledgers, and the tier-0 stage when one ran.
pub(crate) struct Funnel {
    pub(crate) outcome: SearchOutcome,
    pub(crate) ledger: Ledger,
    pub(crate) tier0: Option<(Tier0Model, Tier0Prune)>,
}

/// The funnel's per-stage counts.
pub(crate) struct Ledger {
    /// Assignments tier 0 sketched (0 without a tier-0 stage).
    pub(crate) swept: u64,
    /// Sketch-Pareto survivors tier 0 promoted.
    pub(crate) kept: u64,
    /// Candidates the first concrete tier scored, duplicates included.
    pub(crate) scored: u64,
    /// Distinct schedules among them.
    pub(crate) distinct: u64,
    /// Distinct schedules the tier-1 cut ranked (0 without a cut).
    pub(crate) ranked: u64,
    /// Ranked below the keep fraction.
    pub(crate) dropped: u64,
    /// Distinct schedules promoted to the exact tier (seeds aside).
    pub(crate) promoted: u64,
}

/// Which memo table and counters a batch goes through. Both tiers score
/// with `cello_sim::evaluate`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Tier 2: the exact table, whose counters are `evaluations` and
    /// `cache_hits`.
    Exact,
    /// Tier 1 of [`Strategy::Prefiltered`]: its own table, whose counter is
    /// `surrogate_scored`.
    Surrogate,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use cello_workloads::cg::{build_cg_dag, CgParams};
    use cello_workloads::datasets::G2_CIRCUIT;

    fn cg(iters: u32) -> TensorDag {
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

    #[test]
    fn exhaustive_never_loses_to_heuristic() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        let out = tuner.tune(&Strategy::Exhaustive);
        assert!(out.best_cycles.cost.cycles <= out.baseline.cost.cycles);
        assert!(out.best_dram.cost.dram_bytes <= out.baseline.cost.dram_bytes);
        assert!(out.evaluations > 0);
        assert_eq!(out.surrogate_scored, 0, "single-tier run");
        assert!(!out.pareto.is_empty());
        // The frontier never contains a dominated point.
        for a in &out.pareto {
            for b in &out.pareto {
                assert!(!a.cost.dominates(&b.cost) || a.key == b.key);
            }
        }
    }

    /// Exhaustive search is pinned whole: the three winners and the
    /// counters.
    #[test]
    fn exhaustive_outcome_is_pinned() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let out = Tuner::new(&dag, &accel, small_cfg()).tune(&Strategy::Exhaustive);
        let best = (
            ScheduleKey(0x28ad_2471_15eb_7d9d_0f5b_65dc_8b5d_e37f),
            CostEstimate {
                cycles: 9553,
                dram_bytes: 9_234_564,
                noc_hop_bytes: 0,
                energy_pj: 375_812_142.900_000_04,
            },
        );
        for winner in [&out.best_cycles, &out.best_dram, &out.best_traffic] {
            assert_eq!((winner.key, winner.cost), best);
        }
        assert_eq!(
            (out.evaluations, out.cache_hits, out.candidates_seen),
            (61, 1, 385)
        );
    }

    #[test]
    fn beam_matches_exhaustive_on_small_space() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        let exhaustive = tuner.tune(&Strategy::Exhaustive);
        let tuner2 = Tuner::new(&dag, &accel, small_cfg());
        let beam = tuner2.tune(&Strategy::Beam { width: 4 });
        // Beam found a schedule within 5% of exhaustive-best cycles, with
        // far fewer evaluations.
        let ratio = beam.best_cycles.cost.cycles as f64 / exhaustive.best_cycles.cost.cycles as f64;
        assert!(ratio <= 1.05, "beam within 5% (got {ratio})");
        assert!(beam.evaluations <= exhaustive.evaluations);
    }

    #[test]
    fn tuning_is_deterministic() {
        let dag = cg(1);
        let accel = CelloConfig::paper();
        let run = |strategy: &Strategy| {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let out = tuner.tune(strategy);
            (
                out.best_cycles.key,
                out.pareto.iter().map(|e| e.key).collect::<Vec<_>>(),
                out.evaluations,
            )
        };
        for strategy in [
            Strategy::Exhaustive,
            Strategy::Beam { width: 3 },
            Strategy::Random {
                samples: 40,
                seed: 7,
            },
            Strategy::prefiltered(0.25, Strategy::Beam { width: 3 }),
            Strategy::Tier0 {
                budget: 256,
                keep: 16,
            },
            Strategy::prefiltered(
                0.25,
                Strategy::Tier0 {
                    budget: 256,
                    keep: 16,
                },
            ),
        ] {
            assert_eq!(run(&strategy), run(&strategy), "{:?}", strategy);
        }
    }

    #[test]
    fn random_seed_changes_sample_set() {
        let dag = cg(1);
        let accel = CelloConfig::paper();
        // Fresh tuner per seed so the explored-schedule sets are directly
        // comparable (no cross-seed cache interference).
        let explored = |seed: u64| {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let out = tuner.tune(&Strategy::Random { samples: 30, seed });
            let mut keys: Vec<ScheduleKey> = out.pareto.iter().map(|e| e.key).collect();
            keys.sort();
            (out.evaluations, keys)
        };
        let runs: Vec<_> = (1..=4).map(explored).collect();
        assert!(
            runs.iter().any(|r| r != &runs[0]),
            "four seeds explored identical schedule sets: {runs:?}"
        );
    }

    /// The acceptance claim of the two-tier pipeline: on the widened
    /// (prefilter-scale) CG space, `Prefiltered(0.1, Beam)` lands within 2%
    /// of the full exact beam's best total traffic while making at most 15%
    /// as many exact-tier evaluations.
    #[test]
    fn prefiltered_beam_matches_full_beam_cheaply_on_widened_cg() {
        let dag = cg(3);
        let accel = CelloConfig::paper();
        let cfg = SpaceConfig::widened_with_nodes(&[1, 4]);
        let full = Tuner::new(&dag, &accel, cfg.clone()).tune(&Strategy::Beam { width: 8 });
        let tuner = Tuner::new(&dag, &accel, cfg);
        let pre = tuner.tune(&Strategy::prefiltered(0.1, Strategy::Beam { width: 8 }));
        let ratio = pre.best_traffic.cost.total_traffic_bytes() as f64
            / full.best_traffic.cost.total_traffic_bytes().max(1) as f64;
        assert!(
            ratio <= 1.02,
            "prefiltered traffic {} vs full beam {} ({ratio:.4}x)",
            pre.best_traffic.cost.total_traffic_bytes(),
            full.best_traffic.cost.total_traffic_bytes(),
        );
        assert!(
            (pre.evaluations as f64) <= 0.15 * full.evaluations as f64,
            "prefiltered sim evals {} vs full beam {}",
            pre.evaluations,
            full.evaluations,
        );
        // Tier 1 did the heavy lifting.
        assert!(pre.surrogate_scored > pre.evaluations);
    }

    /// The three-tier acceptance claim: with tier-0 as the inner traversal,
    /// `Prefiltered` lands within 2% of the two-tier funnel's best total
    /// traffic on the widened multi-node CG space while scoring strictly
    /// fewer candidates in tier 1 (the sketch absorbed the sweep) and
    /// sweeping far more assignments overall.
    #[test]
    fn tier0_funnel_matches_two_tier_with_fewer_surrogate_scorings() {
        let dag = cg(3);
        let accel = CelloConfig::paper();
        let cfg = SpaceConfig::widened_with_nodes(&[1, 4]);
        let two_tier = Tuner::new(&dag, &accel, cfg.clone())
            .tune(&Strategy::prefiltered(0.1, Strategy::Beam { width: 8 }));
        let funnel = Tuner::new(&dag, &accel, cfg).tune(&Strategy::prefiltered(
            0.1,
            Strategy::Tier0 {
                budget: 12_288,
                keep: 48,
            },
        ));
        let ratio = funnel.best_traffic.cost.total_traffic_bytes() as f64
            / two_tier.best_traffic.cost.total_traffic_bytes().max(1) as f64;
        assert!(
            ratio <= 1.02,
            "three-tier traffic {} vs two-tier {} ({ratio:.4}x)",
            funnel.best_traffic.cost.total_traffic_bytes(),
            two_tier.best_traffic.cost.total_traffic_bytes(),
        );
        assert!(
            funnel.surrogate_scored < two_tier.surrogate_scored,
            "tier-0 must shrink tier 1 ({} vs {})",
            funnel.surrogate_scored,
            two_tier.surrogate_scored,
        );
        assert!(
            funnel.candidates_seen >= 4 * two_tier.candidates_seen,
            "the sketch sweep must widen the funnel mouth ({} vs {})",
            funnel.candidates_seen,
            two_tier.candidates_seen,
        );
        // Tier-0 never drops the paper heuristic from the comparison set.
        assert!(
            funnel.best_traffic.cost.total_traffic_bytes()
                <= funnel.baseline.cost.total_traffic_bytes()
        );
    }

    /// `keep_frac = 1.0` keeps everything — no pruning — so the two-tier
    /// strategy returns the identical best candidate as its inner strategy.
    #[test]
    fn prefilter_keep_all_is_inner_strategy() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let inner = Strategy::Beam { width: 4 };
        let direct = Tuner::new(&dag, &accel, small_cfg()).tune(&inner);
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        let pre = tuner.tune(&Strategy::prefiltered(1.0, inner));
        assert_eq!(pre.best_cycles.key, direct.best_cycles.key);
        assert_eq!(pre.best_cycles.candidate, direct.best_cycles.candidate);
        assert_eq!(pre.best_traffic.key, direct.best_traffic.key);
        assert_eq!(
            pre.pareto.iter().map(|e| &e.key).collect::<Vec<_>>(),
            direct.pareto.iter().map(|e| &e.key).collect::<Vec<_>>(),
        );
        assert_eq!(pre.strategy, "prefilter1+beam4");
    }

    /// The memo cache is shared across tiers and runs: an exact run after a
    /// prefiltered run re-evaluates only what the prefilter skipped, and
    /// the prefilter's tier-1 table is warm for a second prefilter.
    #[test]
    fn cache_shared_across_tiers() {
        let dag = cg(1);
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        let pre = tuner.tune(&Strategy::prefiltered(0.2, Strategy::Exhaustive));
        assert!(pre.surrogate_scored > 0);
        assert!(pre.evaluations < pre.surrogate_scored);
        // Same tuner, exact exhaustive: survivors already exactly cached.
        let exact = tuner.tune(&Strategy::Exhaustive);
        assert!(
            exact.evaluations < exact.candidates_seen - pre.evaluations,
            "tier-2 results were reused: {} fresh evals after {} prefiltered",
            exact.evaluations,
            pre.evaluations,
        );
        // A second prefilter run costs zero new scores in either tier.
        let again = tuner.tune(&Strategy::prefiltered(0.2, Strategy::Exhaustive));
        assert_eq!(again.surrogate_scored, 0);
        assert_eq!(again.evaluations, 0);
        assert_eq!(again.best_cycles.key, pre.best_cycles.key);
    }

    /// The §V-B acceptance claim: opening the multi-node dimension lets beam
    /// search find a schedule with strictly lower total (DRAM + NoC)
    /// traffic than the best single-node schedule on a capacity-bound CG —
    /// rank slicing shrinks per-node working sets until CHORD stops
    /// spilling, and the broadcast/reduce smalls cost orders of magnitude
    /// less than the spills saved. The winner must actually be multi-node.
    #[test]
    fn multinode_beam_beats_best_single_node_traffic_on_cg() {
        let dag = cg(3); // live set ≈ 1.6 Mi words/iter vs a 1 Mi-word SRAM
        let accel = CelloConfig::paper();
        let single = Tuner::new(&dag, &accel, small_cfg()).tune(&Strategy::Exhaustive);
        let best_single = single.best_traffic.cost.total_traffic_bytes();

        let mut cfg = small_cfg();
        cfg.node_choices = vec![1, 4];
        let multi = Tuner::new(&dag, &accel, cfg).tune(&Strategy::Beam { width: 4 });
        let best_multi = multi.best_traffic.cost.total_traffic_bytes();
        assert!(
            best_multi < best_single,
            "multi-node {best_multi} !< single-node {best_single}"
        );
        let winner = &multi.best_traffic.candidate;
        let partition = winner.constraints.partition.expect("winner is partitioned");
        assert!(partition.nodes >= 4, "{partition:?}");
    }

    /// The warm-start acceptance claim (the `cello-serve` near-miss path):
    /// seeding a *narrow* beam with the Pareto front cached from a run at a
    /// different SRAM size reaches the cold wide beam's best total traffic
    /// with strictly fewer sim evaluations.
    #[test]
    fn warm_started_narrow_beam_matches_cold_wide_beam_cheaply() {
        let dag = cg(3);
        let cfg = SpaceConfig::with_nodes(&[1, 4]);
        // The cached run: paper accel (4 MB SRAM), wide beam.
        let accel4 = CelloConfig::paper();
        let cached = Tuner::new(&dag, &accel4, cfg.clone()).tune(&Strategy::Beam { width: 8 });
        let seeds: Vec<Candidate> = cached.pareto.iter().map(|e| e.candidate.clone()).collect();
        // The near-miss request: same DAG, same space, 8 MB SRAM.
        let accel8 = CelloConfig::paper().with_sram_bytes(8 << 20);
        let cold = Tuner::new(&dag, &accel8, cfg.clone()).tune(&Strategy::Beam { width: 8 });
        let warm = Tuner::new(&dag, &accel8, cfg).tune_seeded(&Strategy::Beam { width: 2 }, &seeds);
        assert!(
            warm.best_traffic.cost.total_traffic_bytes()
                <= cold.best_traffic.cost.total_traffic_bytes(),
            "warm {} B !<= cold {} B",
            warm.best_traffic.cost.total_traffic_bytes(),
            cold.best_traffic.cost.total_traffic_bytes(),
        );
        assert!(
            warm.evaluations < cold.evaluations,
            "warm start must save sim evaluations ({} vs {})",
            warm.evaluations,
            cold.evaluations,
        );
    }

    /// Seeding with nothing is exactly `tune` (same bests, same eval count),
    /// and seeds never make an outcome worse than the best seed re-scored.
    #[test]
    fn empty_seeds_are_identity() {
        let dag = cg(2);
        let accel = CelloConfig::paper();
        let a = Tuner::new(&dag, &accel, small_cfg()).tune(&Strategy::Beam { width: 3 });
        let b =
            Tuner::new(&dag, &accel, small_cfg()).tune_seeded(&Strategy::Beam { width: 3 }, &[]);
        assert_eq!(a.best_cycles.key, b.best_cycles.key);
        assert_eq!(a.evaluations, b.evaluations);
    }

    /// One evaluator for the whole funnel: tier 1 scores with the
    /// simulator, so on every key both memo tables hold — the baseline,
    /// the winners and the Pareto front — the tier-1 cost equals the
    /// tier-2 cost bit for bit, energy included.
    #[test]
    fn tier1_and_tier2_costs_agree_bit_for_bit() {
        let dag = build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5));
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, SpaceConfig::widened_with_nodes(&[1]));
        let out = tuner.tune(&Strategy::prefiltered(
            0.5,
            Strategy::Tier0 {
                budget: 1024,
                keep: 16,
            },
        ));
        let winners = [
            &out.baseline,
            &out.best_cycles,
            &out.best_dram,
            &out.best_traffic,
        ];
        for e in winners.into_iter().chain(&out.pareto) {
            let tier1 = tuner.cache.lookup_surrogate(e.key).expect("tier-1 scored");
            let tier2 = tuner.cache.lookup(e.key).expect("tier-2 scored");
            assert_eq!(tier1, tier2, "{}", e.key.hex());
            assert_eq!(tier1.energy_pj.to_bits(), tier2.energy_pj.to_bits());
        }
    }

    #[test]
    fn cache_is_shared_across_runs() {
        let dag = cg(1);
        let accel = CelloConfig::paper();
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        let first = tuner.tune(&Strategy::Exhaustive);
        let second = tuner.tune(&Strategy::Exhaustive);
        assert!(first.evaluations > 0);
        assert_eq!(second.evaluations, 0, "everything served from cache");
        assert_eq!(first.best_cycles.key, second.best_cycles.key);
    }
}
