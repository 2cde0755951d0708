//! Transfer tuning — *when* DRAM traffic moves, not just how much.
//!
//! The analytical evaluators charge DRAM traffic per phase, but a schedule
//! also decides transfer *ordering*: how many upcoming phases may prefetch
//! their inbound operands while earlier phases compute, and whether the
//! staging region is double-buffered so prefetch overlaps the *current*
//! phase's own DRAM demand. A [`TransferTuning`] captures that decision:
//!
//! - `prefetch_depth` — how many future phases the DMA engine may run ahead
//!   of compute. Depth 0 disables overlap entirely and replays the
//!   serialized `max(compute, mem) + noc` cycle model bit-identically.
//! - `double_buffer` — with double-buffering, prefetch proceeds at full
//!   DRAM bandwidth concurrently with the executing phase's demand misses
//!   (two staging banks ping-pong); without it, prefetch can only use the
//!   bandwidth the executing phase leaves idle.
//!
//! Overlap is not free: each unit of depth carves a staging quantum
//! (`CelloConfig::staging_quantum_words`, doubled when double-buffered) out
//!   of the SRAM that CHORD would otherwise own, so deep prefetch trades
//! reuse capacity for latency hiding — a genuine co-design axis, searched
//! by `cello-search` like every other schedule decision.

/// Per-schedule DRAM transfer-ordering decision (prefetch + double-buffer).
///
/// The default (`depth 0`, single-buffered) is the serialized model: every
/// phase pays `max(compute, transfer)` with no cross-phase hiding and no
/// staging carve. See the module docs for the semantics of each knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TransferTuning {
    /// How many upcoming phases may stage their inbound DRAM operands while
    /// earlier phases compute (0 = no prefetch, the serialized model).
    pub prefetch_depth: u8,
    /// Ping-pong the staging region so prefetch runs at full DRAM bandwidth
    /// concurrently with the executing phase's own demand traffic. Doubles
    /// the staging carve. Meaningless (and normalized away) at depth 0.
    pub double_buffer: bool,
}

impl TransferTuning {
    /// The serialized model: no prefetch, no carve.
    pub fn off() -> Self {
        Self::default()
    }

    /// Prefetch `depth` phases ahead with double-buffered staging.
    pub fn double_buffered(depth: u8) -> Self {
        Self {
            prefetch_depth: depth,
            double_buffer: true,
        }
        .normalized()
    }

    /// Prefetch `depth` phases ahead, single-buffered (idle-bandwidth only).
    pub fn single_buffered(depth: u8) -> Self {
        Self {
            prefetch_depth: depth,
            double_buffer: false,
        }
    }

    /// True when this tuning changes nothing (the depth-0 serialized model).
    pub fn is_off(&self) -> bool {
        self.prefetch_depth == 0
    }

    /// Canonical form: `double_buffer` is dead metadata at depth 0, so it is
    /// cleared there — `off()` has exactly one representation, which keeps
    /// schedule keys and wire codecs collapse-stable.
    pub fn normalized(self) -> Self {
        if self.prefetch_depth == 0 {
            Self::off()
        } else {
            self
        }
    }

    /// Words of SRAM the staging region reserves (and CHORD loses), given
    /// the accelerator's per-depth staging quantum.
    pub fn staging_words(&self, quantum_words: u64) -> u64 {
        let banks = if self.double_buffer { 2 } else { 1 };
        (self.prefetch_depth as u64)
            .saturating_mul(quantum_words)
            .saturating_mul(banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_carves_nothing() {
        let t = TransferTuning::default();
        assert!(t.is_off());
        assert_eq!(t, TransferTuning::off());
        assert_eq!(t.staging_words(4096), 0);
    }

    #[test]
    fn staging_carve_scales_with_depth_and_banks() {
        assert_eq!(TransferTuning::single_buffered(2).staging_words(4096), 8192);
        assert_eq!(
            TransferTuning::double_buffered(2).staging_words(4096),
            16_384
        );
        // Saturates instead of overflowing on absurd quanta.
        assert_eq!(
            TransferTuning::double_buffered(255).staging_words(u64::MAX),
            u64::MAX
        );
    }

    #[test]
    fn depth_zero_normalizes_away_double_buffering() {
        let t = TransferTuning {
            prefetch_depth: 0,
            double_buffer: true,
        };
        assert_eq!(t.normalized(), TransferTuning::off());
        assert_eq!(TransferTuning::double_buffered(0), TransferTuning::off());
        // Depth >0 keeps its flag.
        assert!(TransferTuning::double_buffered(1).double_buffer);
    }
}
