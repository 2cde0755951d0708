//! Run reports and summary statistics.
//!
//! The paper reports throughput in **GigaFPMuls/second** (Fig 12/13), DRAM
//! energy relative to the best-intra baseline (Fig 14), and geomeans across
//! datasets/workloads (the headline "4× geomean speedup"). [`RunReport`]
//! carries everything those harnesses need; [`geomean`] implements the
//! aggregation.

use cello_mem::stats::AccessStats;

/// Result of simulating one configuration on one workload.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Configuration name (Table IV row).
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// Total cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Total multiply-accumulates.
    pub macs: u64,
    /// Total DRAM traffic in bytes, **aggregated across nodes** for
    /// multi-node runs (per-node traffic is `dram_bytes / nodes` under rank
    /// partitioning).
    pub dram_bytes: u64,
    /// Accelerator nodes the schedule ran on (1 = single node).
    pub nodes: u64,
    /// NoC traffic in byte-hops (bytes moved × hops traversed); 0 on a
    /// single node.
    pub noc_hop_bytes: u64,
    /// Off-chip energy (pJ), aggregated across nodes.
    pub offchip_energy_pj: f64,
    /// On-chip energy (pJ), aggregated across nodes.
    pub onchip_energy_pj: f64,
    /// NoC energy (pJ).
    pub noc_energy_pj: f64,
    /// Raw access counters — **per node** for multi-node runs (every node
    /// executes the same sliced traffic pattern).
    pub stats: AccessStats,
    /// Per-phase (compute_cycles, memory_cycles) pairs for roofline analysis.
    pub phase_cycles: Vec<(u64, u64)>,
    /// Per-phase DRAM bytes (per node, un-aggregated — the raw deltas the
    /// memory cycles above derive from). One entry per phase plus a final
    /// drain entry when the backend flushed residual state; the repartition
    /// property tests use this to pin per-phase monotonicity.
    pub phase_dram_bytes: Vec<u64>,
    /// Per-phase backend counter deltas (per node), aligned with
    /// `phase_dram_bytes` including the drain entry: read/write split, SRAM
    /// words, and CHORD hit/miss/writeback attribution feeding the
    /// phase-level trace view.
    pub phase_stats: Vec<AccessStats>,
    /// Per-phase NoC hop-words, one entry per *planned* phase — no drain
    /// entry (the drain moves no NoC traffic), so
    /// `phase_cycles.len() > phase_noc_hop_words.len()` is exactly the
    /// "a drain phase exists" predicate trace builders key off.
    pub phase_noc_hop_words: Vec<u64>,
    /// Per-phase **total** cycles as the overlap ledger charged them,
    /// aligned with `phase_cycles` including the drain entry, summing
    /// exactly to `cycles`. Under overlap this is *not* derivable from
    /// `phase_cycles` (the ledger folds NoC time and hidden prefetch into
    /// the charge); `cello_explain` decomposes regressions from it.
    pub phase_total_cycles: Vec<u64>,
}

impl RunReport {
    /// Throughput in GigaFPMuls/second (the Fig 12/13 y-axis).
    pub fn gfpmuls_per_sec(&self) -> f64 {
        self.macs as f64 / self.seconds / 1e9
    }

    /// Achieved arithmetic intensity (ops per DRAM byte).
    pub fn achieved_intensity(&self) -> f64 {
        self.macs as f64 / self.dram_bytes.max(1) as f64
    }

    /// Fraction of cycles spent memory-bound (memory > compute).
    pub fn memory_bound_fraction(&self) -> f64 {
        let total: u64 = self
            .phase_cycles
            .iter()
            .map(|&(c, m)| c.max(m))
            .sum::<u64>()
            .max(1);
        let membound: u64 = self
            .phase_cycles
            .iter()
            .filter(|&&(c, m)| m > c)
            .map(|&(c, m)| c.max(m))
            .sum();
        membound as f64 / total as f64
    }

    /// Speedup of `self` over `baseline`.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.seconds / self.seconds
    }

    /// Off-chip energy of `self` relative to `baseline` (Fig 14's y-axis).
    pub fn relative_energy(&self, baseline: &RunReport) -> f64 {
        self.offchip_energy_pj / baseline.offchip_energy_pj.max(f64::MIN_POSITIVE)
    }
}

/// Geometric mean (empty input → 1.0, matching "no data, no effect").
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats rows as TSV with a header (used by every fig/tab binary; TSV so
/// results diff cleanly and import anywhere).
pub fn tsv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join("\t"));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Writes TSV to `results/<name>.tsv` (creating the directory), returning the
/// path. Errors are surfaced to the harness caller.
pub fn write_results(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.tsv"));
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seconds: f64, macs: u64, dram: u64) -> RunReport {
        RunReport {
            config: "test".into(),
            workload: "w".into(),
            cycles: (seconds * 1e9) as u64,
            seconds,
            macs,
            dram_bytes: dram,
            nodes: 1,
            noc_hop_bytes: 0,
            offchip_energy_pj: dram as f64 * 31.2,
            onchip_energy_pj: 0.0,
            noc_energy_pj: 0.0,
            stats: AccessStats::default(),
            phase_cycles: vec![],
            phase_dram_bytes: vec![],
            phase_stats: vec![],
            phase_noc_hop_words: vec![],
            phase_total_cycles: vec![],
        }
    }

    #[test]
    fn throughput_units() {
        let r = report(1e-3, 1_000_000_000, 1);
        assert!((r.gfpmuls_per_sec() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_and_energy_ratios() {
        let fast = report(1.0, 100, 50);
        let slow = report(4.0, 100, 200);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((fast.relative_energy(&slow) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_fraction() {
        let mut r = report(1.0, 1, 1);
        r.phase_cycles = vec![(10, 90), (50, 10)];
        // Phase 1: 90 cycles memory-bound; phase 2: 50 compute-bound.
        assert!((r.memory_bound_fraction() - 90.0 / 140.0).abs() < 1e-12);
    }

    #[test]
    fn tsv_format() {
        let s = tsv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(s, "a\tb\n1\t2\n");
    }
}
