//! Search strategies: exhaustive, beam, seeded random sampling, the
//! symbolic tier-0 sweep, and the tiered prefilter.
//!
//! Strategies only decide **which assignments to score**; scoring itself
//! (evaluation, memoization, Pareto bookkeeping) lives in
//! [`crate::Tuner`]. All of them are deterministic — beam ties break on the
//! canonical schedule key, and `Random` draws from an explicit seed through
//! the workspace's one generator, `cello_tensor::gen::SplitMix64`.

/// How to traverse the space.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    /// Enumerate every assignment. Right for small DAG spaces (the
    /// [`crate::SearchSpace`] caps keep CG-sized spaces in the thousands).
    Exhaustive,
    /// Beam search over the decision sequence: expand one decision at a
    /// time, keep the `width` best partial assignments (unassigned
    /// decisions evaluate at their paper-heuristic defaults).
    Beam {
        /// Beam width (`>= 1`).
        width: usize,
    },
    /// Uniform random sampling of `samples` assignments from `seed` —
    /// the baseline the smarter strategies must beat.
    Random {
        /// Number of assignments drawn.
        samples: usize,
        /// RNG seed; same seed + same space ⇒ same candidates.
        seed: u64,
    },
    /// Tier-0 symbolic sweep ([`crate::tier0`]): enumerate up to `budget`
    /// assignments (the whole space when it fits, a seeded uniform sample
    /// otherwise), score each with the closed-form asymptotic cost sketch —
    /// no schedule build, no phase walk — and keep only the sketch-Pareto
    /// non-dominated set, capped at `keep`. The kept candidates are then
    /// concretely scored by whichever tier runs this traversal. On its own
    /// it is a coarse search; as the inner stage of [`Self::Prefiltered`]
    /// it is the wide mouth of the three-tier funnel.
    Tier0 {
        /// Max assignments sketched (the symbolic reach).
        budget: u64,
        /// Max sketch-Pareto survivors promoted to concrete scoring.
        keep: usize,
    },
    /// Tiered search: run `inner`'s traversal in tier 1, rank every
    /// distinct schedule it visited, keep the top `keep_frac` fraction, and
    /// promote only those survivors to the exact tier (tier 2). Both tiers
    /// score with `cello_sim::evaluate` and keep their own table in the
    /// tuner's memo cache. `keep_frac >= 1.0` keeps the whole visited set —
    /// no pruning — so the tuner degenerates it to the inner strategy
    /// exactly. With [`Self::Tier0`] as `inner` this is the full three-tier
    /// funnel: tier 0 prunes symbolically, tier 1 ranks the survivors, tier
    /// 2 reports over the top fraction. This variant remains for the
    /// `cellobench` tune replay: collapsing the funnel to sketch → sim needs
    /// a benchmark change first, and also deletes the tuner's tier-1 cut,
    /// the tier-1 memo table and the audit's `surrogate_dropped` leg.
    Prefiltered {
        /// Fraction of tier-1-ranked candidates promoted to exact
        /// evaluation, clamped to `(0, 1]`; at least one always survives.
        keep_frac: f64,
        /// The traversal strategy tier 1 drives (a nested `Prefiltered`
        /// collapses to its own inner — prefiltering is idempotent).
        inner: Box<Strategy>,
    },
}

impl Strategy {
    /// Display label for reports.
    pub fn label(&self) -> String {
        match self {
            Strategy::Exhaustive => "exhaustive".into(),
            Strategy::Beam { width } => format!("beam{width}"),
            Strategy::Random { samples, seed } => format!("random{samples}@{seed}"),
            Strategy::Tier0 { budget, keep } => format!("tier0b{budget}k{keep}"),
            Strategy::Prefiltered { keep_frac, inner } => {
                format!("prefilter{keep_frac}+{}", inner.label())
            }
        }
    }

    /// Convenience constructor for the common two-tier shape.
    pub fn prefiltered(keep_frac: f64, inner: Strategy) -> Self {
        Strategy::Prefiltered {
            keep_frac,
            inner: Box::new(inner),
        }
    }

    /// Parses a [`Self::label`]-shaped string back into a strategy —
    /// `"exhaustive"`, `"beam8"`, `"random64@7"`, `"tier0b4096k32"`,
    /// `"prefilter0.1+tier0b4096k32"` — the wire format `cello-serve`
    /// requests carry. Returns `None` on anything else (a typed protocol
    /// error at the daemon, never a panic). Parsed parameters are
    /// validity-clamped the same way the tuner clamps them (width ≥ 1,
    /// budget/keep ≥ 1, `keep_frac ∈ (0, 1]`).
    pub fn parse(label: &str) -> Option<Strategy> {
        let label = label.trim();
        if label == "exhaustive" {
            return Some(Strategy::Exhaustive);
        }
        // Before "beam": "tier0…" does not share a prefix, but keep the
        // more specific pattern first anyway.
        if let Some(rest) = label.strip_prefix("tier0b") {
            let (budget, keep) = rest.split_once('k')?;
            let budget: u64 = budget.parse().ok()?;
            let keep: usize = keep.parse().ok()?;
            return Some(Strategy::Tier0 {
                budget: budget.max(1),
                keep: keep.max(1),
            });
        }
        if let Some(rest) = label.strip_prefix("beam") {
            let width: usize = rest.parse().ok()?;
            return Some(Strategy::Beam {
                width: width.max(1),
            });
        }
        if let Some(rest) = label.strip_prefix("random") {
            let (samples, seed) = rest.split_once('@')?;
            return Some(Strategy::Random {
                samples: samples.parse().ok()?,
                seed: seed.parse().ok()?,
            });
        }
        if let Some(rest) = label.strip_prefix("prefilter") {
            let (frac, inner) = rest.split_once('+')?;
            let keep_frac: f64 = frac.parse().ok()?;
            if !(keep_frac > 0.0 && keep_frac <= 1.0) {
                return None;
            }
            // One level of nesting only, matching the tuner's flattening of
            // nested prefilters (prefiltering is idempotent).
            if inner.starts_with("prefilter") {
                return None;
            }
            return Some(Strategy::prefiltered(keep_frac, Strategy::parse(inner)?));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Strategy::Exhaustive.label(), "exhaustive");
        assert_eq!(Strategy::Beam { width: 4 }.label(), "beam4");
        assert_eq!(
            Strategy::Random {
                samples: 9,
                seed: 1
            }
            .label(),
            "random9@1"
        );
        assert_eq!(
            Strategy::prefiltered(0.1, Strategy::Beam { width: 8 }).label(),
            "prefilter0.1+beam8"
        );
        assert_eq!(
            Strategy::Tier0 {
                budget: 4096,
                keep: 32
            }
            .label(),
            "tier0b4096k32"
        );
        assert_eq!(
            Strategy::prefiltered(
                0.1,
                Strategy::Tier0 {
                    budget: 12288,
                    keep: 48
                }
            )
            .label(),
            "prefilter0.1+tier0b12288k48"
        );
    }

    /// `parse` inverts `label` on every strategy shape the wire carries, and
    /// rejects garbage with `None` instead of panicking.
    #[test]
    fn parse_inverts_label() {
        for s in [
            Strategy::Exhaustive,
            Strategy::Beam { width: 8 },
            Strategy::Random {
                samples: 64,
                seed: 7,
            },
            Strategy::prefiltered(0.1, Strategy::Beam { width: 8 }),
            Strategy::prefiltered(0.25, Strategy::Exhaustive),
            Strategy::Tier0 {
                budget: 4096,
                keep: 32,
            },
            Strategy::prefiltered(
                0.1,
                Strategy::Tier0 {
                    budget: 12288,
                    keep: 48,
                },
            ),
        ] {
            assert_eq!(Strategy::parse(&s.label()), Some(s.clone()), "{s:?}");
        }
        for bad in [
            "",
            "beam",
            "beam-1",
            "beamx",
            "random64",
            "random@7",
            "prefilter+beam4",
            "prefilter0+beam4",
            "prefilter1.5+beam4",
            "prefilter0.1+prefilter0.1+beam4",
            "annealed",
            "beam4 extra",
            "tier0b",
            "tier0b4096",
            "tier0bxk4",
            "tier0b4096k",
        ] {
            assert_eq!(Strategy::parse(bad), None, "{bad:?} should not parse");
        }
        // Clamps mirror the tuner's.
        assert_eq!(Strategy::parse("beam0"), Some(Strategy::Beam { width: 1 }));
        assert_eq!(
            Strategy::parse("tier0b0k0"),
            Some(Strategy::Tier0 { budget: 1, keep: 1 })
        );
    }

    /// `Random`'s draws: the same seed gives the same assignments, and every
    /// pick indexes into its decision's menu.
    #[test]
    fn splitmix_deterministic_and_in_bounds() {
        use crate::{SearchSpace, SpaceConfig};
        use cello_workloads::cg::{build_cg_dag, CgParams};
        let dag = build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: None,
        });
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::default());
        let draws = space.sample_assignments(100, 42);
        assert_eq!(draws, space.sample_assignments(100, 42));
        for picks in &draws {
            assert_eq!(picks.len(), space.decisions.len());
            for (&p, d) in picks.iter().zip(&space.decisions) {
                assert!(p < d.choices.len());
            }
        }
    }
}
