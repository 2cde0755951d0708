//! Arithmetic intensity and roofline arithmetic (paper §III-A, Fig 2).
//!
//! The paper quantifies reuse with *arithmetic intensity* (Williams et al.'s
//! roofline metric): operations per byte moved. Two results matter here:
//!
//! - **Eq 3**: `AI_best = MACs / minimum DRAM accesses`, where for an isolated
//!   operation every operand begins and ends in DRAM, so the minimum traffic of
//!   an `M×K×N` GEMM is `MK + KN + MN` words.
//! - **Eq 4**: as `K/M → 0` with `K = N`, `AI_best → N/2` ops/word — i.e. for
//!   CG-like skewed GEMMs with `N ≤ 16` the operation is memory-bound *even in
//!   the best case* (≤ 2 ops/byte at 4-byte words), which is the whole reason
//!   CELLO chases inter-operation reuse instead.

/// An arithmetic-intensity measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArithmeticIntensity {
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Words moved to/from DRAM (minimum / modeled).
    pub words: u64,
    /// Bytes per word.
    pub word_bytes: u32,
}

impl ArithmeticIntensity {
    /// Ops per word.
    pub fn ops_per_word(&self) -> f64 {
        self.macs as f64 / self.words as f64
    }

    /// Ops per byte (the roofline x-axis).
    pub fn ops_per_byte(&self) -> f64 {
        self.macs as f64 / (self.words as f64 * self.word_bytes as f64)
    }
}

/// Best-case arithmetic intensity of an isolated dense `M×K×N` GEMM (Eq 3):
/// all three tensors touched exactly once.
pub fn ai_best_gemm(m: u64, k: u64, n: u64, word_bytes: u32) -> ArithmeticIntensity {
    ArithmeticIntensity {
        macs: m * k * n,
        words: m * k + k * n + m * n,
        word_bytes,
    }
}

/// The Eq 4 limit: for `K = N` and `K/M → 0`, `AI_best → N/2` ops/word.
pub fn ai_skewed_limit(n: u64) -> f64 {
    n as f64 / 2.0
}

/// Roofline model (paper Fig 2b): attainable throughput given a machine's
/// peak compute and memory bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Roofline {
    /// Peak MAC throughput in operations/second (e.g. 16384 MACs × 1 GHz).
    pub peak_ops_per_sec: f64,
    /// DRAM bandwidth in bytes/second.
    pub bytes_per_sec: f64,
}

impl Roofline {
    /// Attainable ops/second at a given arithmetic intensity (ops/byte):
    /// `min(peak, AI × BW)`.
    pub fn attainable(&self, ops_per_byte: f64) -> f64 {
        (ops_per_byte * self.bytes_per_sec).min(self.peak_ops_per_sec)
    }

    /// The machine balance point (ops/byte) above which kernels are
    /// compute-bound. For the paper's 16384 MACs @ 1 GHz and 1 TB/s this is
    /// 16.384 ops/byte; at 250 GB/s it is 65.536 ops/byte (§VII-C1).
    pub fn ridge_point(&self) -> f64 {
        self.peak_ops_per_sec / self.bytes_per_sec
    }

    /// True when a kernel at this intensity is memory-bound.
    pub fn memory_bound(&self, ops_per_byte: f64) -> bool {
        ops_per_byte < self.ridge_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig 2(a): regular 512^3 GEMM has AI = 42.66 ops/byte at 4-byte words.
    #[test]
    fn regular_gemm_intensity_matches_paper() {
        let ai = ai_best_gemm(512, 512, 512, 4);
        assert!(
            (ai.ops_per_byte() - 42.66).abs() < 0.01,
            "{}",
            ai.ops_per_byte()
        );
        // ops/word = 512^3 / (3 * 512^2) = 170.67
        assert!((ai.ops_per_word() - 170.666).abs() < 1e-2);
    }

    /// Paper Fig 2(a): skewed 524288x16x16 GEMM has AI = 2 ops/byte.
    #[test]
    fn skewed_gemm_intensity_matches_paper() {
        let ai = ai_best_gemm(524_288, 16, 16, 4);
        assert!(
            (ai.ops_per_byte() - 2.0).abs() < 0.01,
            "{}",
            ai.ops_per_byte()
        );
    }

    /// Eq 4: the limit N/2 ops/word, and the concrete skewed GEMM approaches it.
    #[test]
    fn eq4_limit() {
        assert_eq!(ai_skewed_limit(16), 8.0);
        assert_eq!(ai_skewed_limit(1), 0.5);
        let ai = ai_best_gemm(524_288, 16, 16, 4);
        // 8 ops/word, within the K/M -> 0 limit's tolerance at M = 524288.
        assert!((ai.ops_per_word() - 8.0).abs() < 0.01);
    }

    /// §VII-C1: ridge point moves from 16.384 to 65.536 ops/byte when bandwidth
    /// drops from 1 TB/s to 250 GB/s.
    #[test]
    fn ridge_points_match_paper() {
        let peak = 16_384.0e9; // 16384 MACs @ 1 GHz
        let fast = Roofline {
            peak_ops_per_sec: peak,
            bytes_per_sec: 1.0e12,
        };
        let slow = Roofline {
            peak_ops_per_sec: peak,
            bytes_per_sec: 250.0e9,
        };
        assert!((fast.ridge_point() - 16.384).abs() < 1e-9);
        assert!((slow.ridge_point() - 65.536).abs() < 1e-9);
    }

    #[test]
    fn attainable_clamps_to_peak() {
        let r = Roofline {
            peak_ops_per_sec: 1e12,
            bytes_per_sec: 1e11,
        };
        assert_eq!(r.attainable(1.0), 1e11); // memory bound
        assert_eq!(r.attainable(1e9), 1e12); // compute bound
        assert!(r.memory_bound(1.0));
        assert!(!r.memory_bound(100.0));
    }

    /// Fig 2(b): the skewed GEMM is memory-bound, the regular one compute-bound
    /// at 1 TB/s.
    #[test]
    fn fig2_roofline_classification() {
        let r = Roofline {
            peak_ops_per_sec: 16_384.0e9,
            bytes_per_sec: 1.0e12,
        };
        assert!(r.memory_bound(ai_best_gemm(524_288, 16, 16, 4).ops_per_byte()));
        assert!(!r.memory_bound(ai_best_gemm(512, 512, 512, 4).ops_per_byte()));
    }
}
