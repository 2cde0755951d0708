//! Per-phase SRAM repartition (§V/§VI co-design at phase granularity).
//!
//! The paper's premise is that schedule and buffer split are *one* decision,
//! but a single global `(pipeline buffer, RF)` split forces every pipeline
//! cluster in the DAG onto the same compromise: a fused, pipeline-heavy
//! cluster wants a fat streaming buffer, while a solo CHORD-heavy cluster
//! would rather donate that SRAM to CHORD capacity. A [`PhaseRepartition`]
//! makes the split phase-granular: each pipeline cluster carries its own
//! [`PhaseSplit`], CHORD's data array is resized at phase boundaries (the
//! simulator charges the resize's dirty-eviction traffic), and the uniform
//! repartition degenerates bit-exactly to today's global split.
//!
//! Construction is *validated*: a split that reserves more than the SRAM it
//! was declared against (`pipeline + rf > sram_words`) is a typed
//! [`RepartitionError`], not a silent clamp — the simulator's one-cache-line
//! floor remains only as a backstop for hand-built schedules.

use crate::score::binding::ScheduleOptions;
use std::collections::BTreeMap;
use std::fmt;

/// One phase's share of the on-chip SRAM: what the pipeline buffer and the
/// register file reserve; CHORD gets the remainder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSplit {
    /// Pipeline-buffer capacity in words during this phase.
    pub pipeline_buffer_words: u64,
    /// Register-file capacity in words during this phase.
    pub rf_capacity_words: u64,
}

impl PhaseSplit {
    /// Convenience constructor.
    pub fn new(pipeline_buffer_words: u64, rf_capacity_words: u64) -> Self {
        Self {
            pipeline_buffer_words,
            rf_capacity_words,
        }
    }

    /// The global split a [`ScheduleOptions`] implies — the degenerate
    /// uniform repartition.
    pub fn of_options(opts: &ScheduleOptions) -> Self {
        Self {
            pipeline_buffer_words: opts.pipeline_buffer_words,
            rf_capacity_words: opts.rf_capacity_words,
        }
    }

    /// Words this split withholds from CHORD.
    pub fn reserved_words(&self) -> u64 {
        self.pipeline_buffer_words
            .saturating_add(self.rf_capacity_words)
    }

    /// Does the split fit an SRAM of `sram_words`?
    pub fn fits(&self, sram_words: u64) -> bool {
        self.reserved_words() <= sram_words
    }
}

/// How the per-phase splits are specified.
#[derive(Clone, Debug, PartialEq)]
pub enum PhaseSplits {
    /// Explicit phase-index → split overrides (indices past the built phase
    /// list are ignored; unlisted phases keep the global split).
    ByIndex(BTreeMap<usize, PhaseSplit>),
    /// Behavioral profile: fused (multi-op) pipeline clusters take one
    /// split, solo clusters the other. This is the form the DSE searches —
    /// it is phase-structure-agnostic, so one profile applies to every
    /// candidate schedule of a space.
    ByKind {
        /// Split for fused (multi-op) clusters.
        fused: PhaseSplit,
        /// Split for solo (single-op) clusters.
        solo: PhaseSplit,
    },
}

/// A per-phase SRAM repartition request, declared against the SRAM budget it
/// must respect. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRepartition {
    /// The SRAM capacity in words the splits were validated against
    /// (`CelloConfig::sram_words()` for the paper accelerator).
    pub sram_words: u64,
    /// The split specification.
    pub splits: PhaseSplits,
}

/// Typed rejection of a degenerate repartition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepartitionError {
    /// A phase's split reserves more than the whole SRAM
    /// (`pipeline + rf > sram_words`), leaving CHORD negative capacity.
    Overcommitted {
        /// Which phase (an index, or `fused`/`solo` for kind profiles).
        phase: String,
        /// The offending pipeline-buffer reservation.
        pipeline_buffer_words: u64,
        /// The offending register-file reservation.
        rf_capacity_words: u64,
        /// The budget it had to fit.
        sram_words: u64,
    },
}

impl fmt::Display for RepartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepartitionError::Overcommitted {
                phase,
                pipeline_buffer_words,
                rf_capacity_words,
                sram_words,
            } => write!(
                f,
                "phase {phase}: pipeline {pipeline_buffer_words} + rf {rf_capacity_words} \
                 words overcommit the {sram_words}-word SRAM"
            ),
        }
    }
}

impl std::error::Error for RepartitionError {}

impl PhaseRepartition {
    /// Validated explicit per-phase overrides. Rejects any split with
    /// `pipeline + rf > sram_words`.
    pub fn by_index(
        sram_words: u64,
        splits: BTreeMap<usize, PhaseSplit>,
    ) -> Result<Self, RepartitionError> {
        for (phase, split) in &splits {
            check(split, sram_words, || phase.to_string())?;
        }
        Ok(Self {
            sram_words,
            splits: PhaseSplits::ByIndex(splits),
        })
    }

    /// Validated fused/solo profile.
    pub fn by_kind(
        sram_words: u64,
        fused: PhaseSplit,
        solo: PhaseSplit,
    ) -> Result<Self, RepartitionError> {
        check(&fused, sram_words, || "fused".into())?;
        check(&solo, sram_words, || "solo".into())?;
        Ok(Self {
            sram_words,
            splits: PhaseSplits::ByKind { fused, solo },
        })
    }

    /// Re-validates (for repartitions built through the public fields).
    pub fn validate(&self) -> Result<(), RepartitionError> {
        match &self.splits {
            PhaseSplits::ByIndex(map) => {
                for (phase, split) in map {
                    check(split, self.sram_words, || phase.to_string())?;
                }
            }
            PhaseSplits::ByKind { fused, solo } => {
                check(fused, self.sram_words, || "fused".into())?;
                check(solo, self.sram_words, || "solo".into())?;
            }
        }
        Ok(())
    }

    /// The pipeline-buffer budget the schedule builder probes cluster joins
    /// against while *forming* phase `phase_idx` — a join is what makes a
    /// cluster fused, so kind profiles answer with the fused split.
    /// Overcommitted entries are dropped (advisory semantics, like every
    /// other constraint): the global split applies instead.
    pub fn join_pipeline_budget(&self, phase_idx: usize, global: &PhaseSplit) -> u64 {
        let split = match &self.splits {
            PhaseSplits::ByIndex(map) => map.get(&phase_idx).copied(),
            PhaseSplits::ByKind { fused, .. } => Some(*fused),
        };
        match split {
            Some(s) if s.fits(self.sram_words) => s.pipeline_buffer_words,
            _ => global.pipeline_buffer_words,
        }
    }

    /// The split phase `phase_idx` (fused = multi-op) actually carries once
    /// the cluster list is final. Overcommitted entries fall back to
    /// `global`.
    pub fn resolve(&self, phase_idx: usize, fused: bool, global: PhaseSplit) -> PhaseSplit {
        let split = match &self.splits {
            PhaseSplits::ByIndex(map) => map.get(&phase_idx).copied(),
            PhaseSplits::ByKind { fused: f, solo } => Some(if fused { *f } else { *solo }),
        };
        match split {
            Some(s) if s.fits(self.sram_words) => s,
            _ => global,
        }
    }
}

fn check(
    split: &PhaseSplit,
    sram_words: u64,
    phase: impl FnOnce() -> String,
) -> Result<(), RepartitionError> {
    if split.fits(sram_words) {
        Ok(())
    } else {
        Err(RepartitionError::Overcommitted {
            phase: phase(),
            pipeline_buffer_words: split.pipeline_buffer_words,
            rf_capacity_words: split.rf_capacity_words,
            sram_words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRAM: u64 = 1 << 20;

    #[test]
    fn split_reservation_and_fit() {
        let s = PhaseSplit::new(65_536, 16_384);
        assert_eq!(s.reserved_words(), 81_920);
        assert!(s.fits(SRAM));
        assert!(!s.fits(81_919));
        assert!(s.fits(81_920), "exactly-full reservation is legal");
        // Saturating reservation: no overflow on absurd requests.
        assert_eq!(
            PhaseSplit::new(u64::MAX, 1).reserved_words(),
            u64::MAX,
            "reservation saturates"
        );
    }

    #[test]
    fn of_options_mirrors_global_split() {
        let opts = ScheduleOptions::cello();
        let s = PhaseSplit::of_options(&opts);
        assert_eq!(s.pipeline_buffer_words, opts.pipeline_buffer_words);
        assert_eq!(s.rf_capacity_words, opts.rf_capacity_words);
    }

    /// The satellite fix: a degenerate repartition is a typed error at
    /// constraint-validation time, not a simulator clamp.
    #[test]
    fn overcommitted_split_is_typed_error() {
        let bad = PhaseSplit::new(SRAM, 1);
        let err = PhaseRepartition::by_kind(SRAM, PhaseSplit::new(4096, 4096), bad).unwrap_err();
        match &err {
            RepartitionError::Overcommitted {
                phase,
                pipeline_buffer_words,
                rf_capacity_words,
                sram_words,
            } => {
                assert_eq!(phase, "solo");
                assert_eq!(*pipeline_buffer_words, SRAM);
                assert_eq!(*rf_capacity_words, 1);
                assert_eq!(*sram_words, SRAM);
            }
        }
        let msg = err.to_string();
        assert!(msg.contains("solo") && msg.contains("overcommit"), "{msg}");

        let err =
            PhaseRepartition::by_index(SRAM, [(3usize, bad)].into_iter().collect()).unwrap_err();
        assert!(matches!(
            err,
            RepartitionError::Overcommitted { ref phase, .. } if phase == "3"
        ));
        // Valid ones construct fine and re-validate.
        let ok =
            PhaseRepartition::by_kind(SRAM, PhaseSplit::new(65_536, 16_384), PhaseSplit::new(0, 0))
                .unwrap();
        ok.validate().unwrap();
    }

    #[test]
    fn hand_built_repartition_revalidates() {
        let rep = PhaseRepartition {
            sram_words: 100,
            splits: PhaseSplits::ByIndex([(0, PhaseSplit::new(80, 40))].into_iter().collect()),
        };
        assert!(rep.validate().is_err());
    }

    #[test]
    fn resolution_prefers_override_and_drops_overcommitted() {
        let global = PhaseSplit::new(65_536, 16_384);
        let rep = PhaseRepartition {
            sram_words: SRAM,
            splits: PhaseSplits::ByIndex(
                [
                    (0, PhaseSplit::new(4096, 4096)),
                    (2, PhaseSplit::new(SRAM, SRAM)), // overcommitted: dropped
                ]
                .into_iter()
                .collect(),
            ),
        };
        assert_eq!(rep.resolve(0, true, global), PhaseSplit::new(4096, 4096));
        assert_eq!(rep.resolve(1, false, global), global, "unlisted phase");
        assert_eq!(rep.resolve(2, true, global), global, "overcommitted drops");
        assert_eq!(rep.join_pipeline_budget(0, &global), 4096);
        assert_eq!(rep.join_pipeline_budget(1, &global), 65_536);

        let kind = PhaseRepartition::by_kind(
            SRAM,
            PhaseSplit::new(262_144, 16_384),
            PhaseSplit::new(1024, 4096),
        )
        .unwrap();
        assert_eq!(
            kind.resolve(7, true, global),
            PhaseSplit::new(262_144, 16_384)
        );
        assert_eq!(kind.resolve(7, false, global), PhaseSplit::new(1024, 4096));
        // Joining is what fuses a cluster: the probe budget is the fused one.
        assert_eq!(kind.join_pipeline_budget(7, &global), 262_144);
    }
}
