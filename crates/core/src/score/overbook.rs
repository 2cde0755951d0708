//! CHORD overbooking — granting capacity at *expected* occupancy.
//!
//! The worst-case model sizes every CHORD-bound sparse operand at its dense
//! (full-payload) footprint, so a matrix whose rows are mostly empty still
//! claims the whole tile. *Tailors* (Xue et al., PAPERS.md) shows the win of
//! **overbooking**: grant buffer capacity for the tile occupancy you *expect*
//! and accept a modeled spill/refetch penalty for the tiles that overflow.
//! [`ChordOverbook`] is that decision as a schedule knob:
//!
//! - **Grant**: a tensor with measured occupancy statistics (its
//!   [`OccupancyStats`], derived from the real `.mtx` nonzero structure) is
//!   granted `rel + (1 − rel) / 2^level` of its dense words, where `rel` is
//!   the mean block occupancy relative to the fullest block. Level 0 is off
//!   (grant = dense footprint, the pre-occupancy model bit for bit); each
//!   extra level halves the slack kept above the expected occupancy.
//! - **Spill**: tiles whose actual nnz overflows the grant must round-trip
//!   to DRAM. The expected overflow mass scales with how *uneven* the
//!   blocks are: `rel_std · (1 − 1/2^level)` of the dense words. A uniform
//!   matrix (variance 0) never spills no matter how aggressive the
//!   overbooking; a skewed one pays more the harder it overbooks.
//!
//! A dense tensor (`rel = 1`, `rel_std = 0`) is granted its full footprint
//! and spills nothing at every level, so overbooking is exactly the
//! identity on dense workloads — the invariant the regression baselines
//! rely on.

use cello_tensor::sparse::OccupancyStats;

/// Highest meaningful overbook level: beyond this the grant is within 2% of
/// the expected occupancy and deeper levels change nothing worth searching.
pub const MAX_OVERBOOK_LEVEL: u8 = 6;

/// Per-schedule CHORD overbooking decision (see the module docs).
///
/// The default (`level 0`) is the worst-case-dense model: every operand is
/// granted its full footprint and no spill is charged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChordOverbook {
    /// Overbooking aggressiveness. 0 = off; each extra level halves the
    /// capacity slack granted above a tensor's expected occupancy.
    pub level: u8,
}

impl ChordOverbook {
    /// The worst-case-dense model: full grants, no spill.
    pub fn off() -> Self {
        Self::default()
    }

    /// Overbook at `level` (clamped to [`MAX_OVERBOOK_LEVEL`]).
    pub fn at(level: u8) -> Self {
        Self { level }.normalized()
    }

    /// True when this knob changes nothing (level 0).
    pub fn is_off(&self) -> bool {
        self.level == 0
    }

    /// Canonical form: levels beyond [`MAX_OVERBOOK_LEVEL`] grant and spill
    /// indistinguishably from it, so they clamp — keeping schedule keys and
    /// wire codecs collapse-stable.
    pub fn normalized(self) -> Self {
        Self {
            level: self.level.min(MAX_OVERBOOK_LEVEL),
        }
    }

    /// Fraction of the slack above expected occupancy this level keeps.
    fn slack(&self) -> f64 {
        1.0 / (1u64 << self.level.min(MAX_OVERBOOK_LEVEL)) as f64
    }

    /// Fraction of a tensor's dense words the grant covers.
    pub fn grant_frac(&self, occ: &OccupancyStats) -> f64 {
        let rel = occ.rel_mean();
        (rel + (1.0 - rel) * self.slack()).clamp(0.0, 1.0)
    }

    /// Fraction of a tensor's dense words expected to overflow the grant
    /// and round-trip to DRAM.
    pub fn spill_frac(&self, occ: &OccupancyStats) -> f64 {
        (occ.rel_std() * (1.0 - self.slack())).clamp(0.0, 1.0)
    }

    /// Words of capacity granted to a tensor of `words` dense footprint.
    /// Never exceeds `words`; the full footprint when off.
    pub fn granted_words(&self, words: u64, occ: &OccupancyStats) -> u64 {
        if self.is_off() {
            return words;
        }
        ((words as f64 * self.grant_frac(occ)).ceil() as u64).min(words)
    }

    /// Words expected to spill (re-fetch from DRAM) under this grant.
    /// Zero when off and zero for uniform (variance-free) occupancy.
    pub fn spill_words(&self, words: u64, occ: &OccupancyStats) -> u64 {
        if self.is_off() {
            return 0;
        }
        ((words as f64 * self.spill_frac(occ)).ceil() as u64).min(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed(rel_mean: f64, rel_std: f64) -> OccupancyStats {
        // Synthesize stats with the requested relative moments (max = 1).
        let mut o = OccupancyStats::dense();
        o.mean = rel_mean;
        o.variance = rel_std * rel_std;
        o
    }

    #[test]
    fn off_is_the_identity() {
        let ob = ChordOverbook::off();
        assert!(ob.is_off());
        let occ = skewed(0.25, 0.4);
        assert_eq!(ob.granted_words(1000, &occ), 1000);
        assert_eq!(ob.spill_words(1000, &occ), 0);
    }

    #[test]
    fn dense_occupancy_is_untouched_at_every_level() {
        let dense = OccupancyStats::dense();
        for level in 0..=MAX_OVERBOOK_LEVEL {
            let ob = ChordOverbook::at(level);
            assert_eq!(ob.granted_words(4096, &dense), 4096, "level {level}");
            assert_eq!(ob.spill_words(4096, &dense), 0, "level {level}");
        }
    }

    #[test]
    fn deeper_levels_grant_less_and_spill_more() {
        let occ = skewed(0.25, 0.3);
        let grants: Vec<u64> = (0..=MAX_OVERBOOK_LEVEL)
            .map(|l| ChordOverbook::at(l).granted_words(100_000, &occ))
            .collect();
        let spills: Vec<u64> = (0..=MAX_OVERBOOK_LEVEL)
            .map(|l| ChordOverbook::at(l).spill_words(100_000, &occ))
            .collect();
        assert!(grants.windows(2).all(|w| w[1] <= w[0]), "{grants:?}");
        assert!(spills.windows(2).all(|w| w[1] >= w[0]), "{spills:?}");
        // Level 1 grants half the slack above the 25% expectation.
        assert_eq!(grants[1], 62_500);
        // Uniform occupancy never spills.
        let uniform = skewed(0.25, 0.0);
        assert_eq!(ChordOverbook::at(4).spill_words(100_000, &uniform), 0);
    }

    #[test]
    fn normalization_clamps_and_collapses() {
        assert_eq!(ChordOverbook::at(200).level, MAX_OVERBOOK_LEVEL);
        assert_eq!(
            ChordOverbook { level: 255 }.normalized(),
            ChordOverbook::at(MAX_OVERBOOK_LEVEL)
        );
        assert_eq!(ChordOverbook::at(0), ChordOverbook::off());
    }
}
