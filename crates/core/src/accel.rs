//! Accelerator configuration (paper Table V).
//!
//! | parameter | value |
//! |---|---|
//! | SRAM size | 4 MB (swept 1–16 MB in §VII-C2) |
//! | MAC units | 16384 |
//! | cache line | 16 B |
//! | associativity | 8-way |
//! | memory bandwidth | 250 GB/s or 1 TB/s |
//! | clock | 1 GHz |
//! | RIFF index table | 64 entries × 512 bits |

use crate::chord::{ChordConfig, ChordPolicyKind};
use cello_mem::cache::CacheConfig;
use cello_mem::dram::DramModel;
use cello_tensor::intensity::Roofline;

/// Full accelerator configuration shared by every Table IV combination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CelloConfig {
    /// Number of MAC units (16384).
    pub pe_count: u64,
    /// Core clock in Hz (1 GHz).
    pub freq_hz: f64,
    /// On-chip SRAM capacity in bytes (4 MB default).
    pub sram_bytes: u64,
    /// Word size in bytes (4 for CG/GNN, 2 for ResNet — Table VII).
    pub word_bytes: u32,
    /// Off-chip interface.
    pub dram: DramModel,
    /// Register-file capacity in words (small-tensor threshold, §V-B).
    pub rf_capacity_words: u64,
    /// Pipeline-buffer capacity in words.
    pub pipeline_buffer_words: u64,
    /// RIFF-index-table entries.
    pub riff_entries: usize,
    /// Per-link NoC bandwidth in bytes/s (multi-node runs, §V-B).
    pub noc_bandwidth_bytes_per_sec: f64,
    /// Words of SRAM one unit of prefetch depth stages (doubled when the
    /// staging region is double-buffered). A schedule's
    /// `TransferTuning::staging_words` carve — subtracted from CHORD's
    /// capacity — is `depth × this × banks`; depth 0 carves nothing.
    pub staging_quantum_words: u64,
}

impl CelloConfig {
    /// The paper's Table V configuration at 1 TB/s, 32-bit words.
    pub fn paper() -> Self {
        Self {
            pe_count: 16_384,
            freq_hz: 1.0e9,
            sram_bytes: 4 << 20,
            word_bytes: 4,
            dram: DramModel::one_tb_per_sec(),
            rf_capacity_words: 16_384,
            pipeline_buffer_words: 65_536,
            riff_entries: 64,
            noc_bandwidth_bytes_per_sec: 256.0e9,
            staging_quantum_words: 4096,
        }
    }

    /// Same with 250 GB/s DRAM.
    pub fn paper_250gbs() -> Self {
        Self {
            dram: DramModel::gb250_per_sec(),
            ..Self::paper()
        }
    }

    /// Variant with a different SRAM size (the §VII-C2 sweep).
    pub fn with_sram_bytes(mut self, bytes: u64) -> Self {
        self.sram_bytes = bytes;
        self
    }

    /// Variant with a different word size (ResNet uses 2 B).
    pub fn with_word_bytes(mut self, word_bytes: u32) -> Self {
        self.word_bytes = word_bytes;
        self
    }

    /// SRAM capacity in words.
    pub fn sram_words(&self) -> u64 {
        self.sram_bytes / self.word_bytes as u64
    }

    /// Peak MAC throughput in ops/second.
    pub fn peak_macs_per_sec(&self) -> f64 {
        self.pe_count as f64 * self.freq_hz
    }

    /// The machine's roofline.
    pub fn roofline(&self) -> Roofline {
        Roofline {
            peak_ops_per_sec: self.peak_macs_per_sec(),
            bytes_per_sec: self.dram.bandwidth_bytes_per_sec,
        }
    }

    /// CHORD configured over this SRAM (full PRELUDE+RIFF).
    pub fn chord_config(&self) -> ChordConfig {
        ChordConfig {
            capacity_words: self.sram_words(),
            word_bytes: self.word_bytes,
            policy: ChordPolicyKind::PreludeRiff,
            max_entries: self.riff_entries,
        }
    }

    /// PRELUDE-only CHORD (the §VII-C3 ablation).
    pub fn prelude_only_config(&self) -> ChordConfig {
        ChordConfig {
            policy: ChordPolicyKind::PreludeOnly,
            ..self.chord_config()
        }
    }

    /// Canonical one-line serialization of every field that can change an
    /// evaluation result — one ingredient of the workload fingerprint
    /// (`cello_search::fingerprint`). Stable across runs and processes:
    /// fields are listed in declaration order with explicit names, floats
    /// print with full round-trip precision, and nothing derived (rooflines,
    /// CHORD configs) is included — only the inputs they derive from.
    pub fn canonical_text(&self) -> String {
        format!(
            "accel{{pe={} freq={:?} sram={} word={} dram_bw={:?} dram_pj={:?} rf={} pb={} riff={} noc_bw={:?} stage_q={}}}",
            self.pe_count,
            self.freq_hz,
            self.sram_bytes,
            self.word_bytes,
            self.dram.bandwidth_bytes_per_sec,
            self.dram.energy_pj_per_byte,
            self.rf_capacity_words,
            self.pipeline_buffer_words,
            self.riff_entries,
            self.noc_bandwidth_bytes_per_sec,
            self.staging_quantum_words,
        )
    }

    /// The Table V cache over the same SRAM.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            capacity_bytes: self.sram_bytes,
            line_bytes: 16,
            associativity: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_values() {
        let c = CelloConfig::paper();
        assert_eq!(c.pe_count, 16_384);
        assert_eq!(c.sram_bytes, 4 << 20);
        assert_eq!(c.sram_words(), 1 << 20);
        assert_eq!(c.peak_macs_per_sec(), 16.384e12);
        assert_eq!(c.riff_entries, 64);
    }

    /// The canonical text distinguishes every evaluation-relevant field and
    /// is bit-stable for equal configs (the fingerprint contract).
    #[test]
    fn canonical_text_distinguishes_configs() {
        let base = CelloConfig::paper();
        assert_eq!(base.canonical_text(), CelloConfig::paper().canonical_text());
        let variants = [
            base.with_sram_bytes(8 << 20),
            base.with_word_bytes(2),
            CelloConfig::paper_250gbs(),
            CelloConfig {
                rf_capacity_words: base.rf_capacity_words + 1,
                ..base
            },
            CelloConfig {
                noc_bandwidth_bytes_per_sec: 1.0e9,
                ..base
            },
            CelloConfig {
                staging_quantum_words: base.staging_quantum_words * 2,
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(base.canonical_text(), v.canonical_text(), "{v:?}");
        }
    }

    #[test]
    fn roofline_ridge_matches_section_7c1() {
        assert!((CelloConfig::paper().roofline().ridge_point() - 16.384).abs() < 1e-9);
        assert!((CelloConfig::paper_250gbs().roofline().ridge_point() - 65.536).abs() < 1e-9);
    }

    #[test]
    fn chord_config_derivation() {
        let c = CelloConfig::paper().chord_config();
        assert_eq!(c.capacity_words, 1 << 20);
        assert_eq!(c.policy, ChordPolicyKind::PreludeRiff);
        let p = CelloConfig::paper().prelude_only_config();
        assert_eq!(p.policy, ChordPolicyKind::PreludeOnly);
    }

    #[test]
    fn word_size_variants() {
        let c = CelloConfig::paper().with_word_bytes(2);
        assert_eq!(c.sram_words(), 2 << 20);
        let s = CelloConfig::paper().with_sram_bytes(16 << 20);
        assert_eq!(s.sram_words(), 4 << 20);
    }

    #[test]
    fn cache_config_matches_table5() {
        let cc = CelloConfig::paper().cache_config();
        assert_eq!(cc.line_bytes, 16);
        assert_eq!(cc.associativity, 8);
        assert_eq!(cc.capacity_bytes, 4 << 20);
    }
}
