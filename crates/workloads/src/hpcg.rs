//! HPCG survey data (paper Table I) and an HPCG-shaped CG workload.
//!
//! The paper motivates CELLO with the HPCG-vs-HPL gap on the top
//! supercomputers (CG reaches only 1–3% of peak). The survey rows are
//! embedded so `paper_results` can re-emit the table (`tab01_hpcg`) and
//! tests can verify the derived percentages. [`build_hpcg_dag`] additionally provides
//! a schedulable workload: HPCG's core is CG over a 27-point 3-D stencil,
//! so the DAG is the CG cascade at occupancy 27 — dense enough that the
//! sparse operand dwarfs the 5-point problems and stresses CHORD capacity
//! (which is what the `cello_dse` auto-tuner sweeps against).

use crate::cg::{build_cg_dag, CgParams, OCCUPANCY_BLOCK_TARGET};
use cello_graph::dag::TensorDag;
use cello_tensor::sparse::{OccupancyStats, OCCUPANCY_BUCKETS};

/// HPCG problem shape: CG over an `nx³` 27-point stencil.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HpcgParams {
    /// Grid points per dimension (`m = nx³`).
    pub nx: u64,
    /// Simultaneous right-hand sides.
    pub n: u64,
    /// CG iterations to unroll.
    pub iterations: u32,
}

impl HpcgParams {
    /// The CG parameters this HPCG shape lowers to. The footprint model
    /// keeps the nominal occupancy 27 (interior rows dominate for any
    /// realistic `nx`), but the per-row-block occupancy histogram is the
    /// *exact* analytic one of the 27-point stencil — boundary blocks are
    /// genuinely thinner than interior ones, which is what lets the DSE's
    /// overbooking axis act on this workload instead of degenerating to
    /// the uniform identity path.
    pub fn cg(&self) -> CgParams {
        let m = self.nx * self.nx * self.nx;
        let occupancy = 27.0;
        let nnz = (m as f64 * occupancy).round() as u64;
        let block_rows = (m as usize).div_ceil(OCCUPANCY_BLOCK_TARGET).max(1);
        CgParams {
            m,
            occupancy,
            // CSR payload: values + column indices + row pointers.
            a_payload_words: 2 * nnz + m + 1,
            n: self.n,
            nprime: self.n,
            iterations: self.iterations,
            a_occupancy: Some(stencil27_occupancy(self.nx, block_rows)),
        }
    }
}

/// Analytic per-row-block occupancy of the 27-point stencil on an `nx³`
/// grid, bit-for-bit what [`CsrMatrix::occupancy_stats`] computes on the
/// materialized matrix — without materializing it. Row `r = (z·nx + y)·nx
/// + x` couples to every grid neighbor within Chebyshev distance 1, so its
/// nnz is `c(x)·c(y)·c(z)` where `c` is 3 interior, 2 on a face, 1 when
/// the dimension is degenerate (`nx == 1`).
///
/// [`CsrMatrix::occupancy_stats`]: cello_tensor::sparse::CsrMatrix::occupancy_stats
pub fn stencil27_occupancy(nx: u64, block_rows: usize) -> OccupancyStats {
    let nx = nx.max(1) as usize;
    let rows = nx * nx * nx;
    let block_rows = block_rows.clamp(1, rows);
    let blocks = rows.div_ceil(block_rows);
    let span = |i: usize| -> u64 {
        if nx == 1 {
            1
        } else if i == 0 || i == nx - 1 {
            2
        } else {
            3
        }
    };
    let row_nnz = |r: usize| span(r % nx) * span((r / nx) % nx) * span(r / (nx * nx));
    let cols = rows as f64;
    let mut fractions = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let lo = b * block_rows;
        let hi = ((b + 1) * block_rows).min(rows);
        let nnz: u64 = (lo..hi).map(row_nnz).sum();
        let capacity = (hi - lo).max(1) as f64 * cols;
        fractions.push(nnz as f64 / capacity);
    }
    let n = fractions.len() as f64;
    let mean = fractions.iter().sum::<f64>() / n;
    let variance = fractions
        .iter()
        .map(|f| (f - mean) * (f - mean))
        .sum::<f64>()
        / n;
    let max = fractions.iter().cloned().fold(0.0f64, f64::max);
    let mut histogram = [0u32; OCCUPANCY_BUCKETS];
    for f in &fractions {
        let rel = if max > 0.0 { f / max } else { 0.0 };
        let bucket = ((rel * OCCUPANCY_BUCKETS as f64) as usize).min(OCCUPANCY_BUCKETS - 1);
        histogram[bucket] = histogram[bucket].saturating_add(1);
    }
    OccupancyStats {
        block_rows: block_rows as u32,
        blocks: blocks as u32,
        mean,
        variance,
        max,
        histogram,
    }
}

/// Builds the HPCG tensor dependency DAG (the unrolled CG cascade over a
/// 27-point stencil matrix).
pub fn build_hpcg_dag(prm: &HpcgParams) -> TensorDag {
    build_cg_dag(&prm.cg())
}

/// One Table I row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HpcgEntry {
    /// Supercomputer name.
    pub system: &'static str,
    /// HPL PFLOP/s.
    pub hpl_pflops: f64,
    /// HPCG PFLOP/s (`None` = not reported, e.g. Eagle).
    pub hpcg_pflops: Option<f64>,
    /// HPCG as % of peak, as published.
    pub hpcg_pct_of_peak: Option<f64>,
}

impl HpcgEntry {
    /// HPCG as a percentage of HPL (derived).
    pub fn hpcg_pct_of_hpl(&self) -> Option<f64> {
        self.hpcg_pflops.map(|h| 100.0 * h / self.hpl_pflops)
    }
}

/// Table I (adapted from the HPCG November 2023 list).
pub fn table1() -> Vec<HpcgEntry> {
    vec![
        HpcgEntry {
            system: "Frontier",
            hpl_pflops: 1206.0,
            hpcg_pflops: Some(14.05),
            hpcg_pct_of_peak: Some(0.8),
        },
        HpcgEntry {
            system: "Aurora",
            hpl_pflops: 1012.0,
            hpcg_pflops: Some(5.61),
            hpcg_pct_of_peak: Some(0.3),
        },
        HpcgEntry {
            system: "Eagle",
            hpl_pflops: 561.2,
            hpcg_pflops: None,
            hpcg_pct_of_peak: None,
        },
        HpcgEntry {
            system: "Fugaku",
            hpl_pflops: 442.01,
            hpcg_pflops: Some(16.0),
            hpcg_pct_of_peak: Some(3.0),
        },
        HpcgEntry {
            system: "Lumi",
            hpl_pflops: 379.7,
            hpcg_pflops: Some(4.587),
            hpcg_pct_of_peak: Some(0.87),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_five_systems() {
        assert_eq!(table1().len(), 5);
    }

    #[test]
    fn derived_percentages_match_paper() {
        let t = table1();
        // Frontier: 14.05/1206 = 1.16%.
        assert!((t[0].hpcg_pct_of_hpl().unwrap() - 1.16).abs() < 0.01);
        // Aurora: 5.61/1012 = 0.55%.
        assert!((t[1].hpcg_pct_of_hpl().unwrap() - 0.55).abs() < 0.01);
        // Fugaku: 16/442.01 = 3.62%.
        assert!((t[3].hpcg_pct_of_hpl().unwrap() - 3.62).abs() < 0.01);
        // Lumi: 4.587/379.7 = 1.2%.
        assert!((t[4].hpcg_pct_of_hpl().unwrap() - 1.21).abs() < 0.02);
    }

    #[test]
    fn cg_reaches_only_single_digit_percent_of_peak() {
        // The motivation: every reported system sits at 1–4% of HPL.
        for e in table1() {
            if let Some(pct) = e.hpcg_pct_of_hpl() {
                assert!(pct < 4.0, "{}: {pct}%", e.system);
                assert!(pct > 0.3);
            }
        }
    }

    #[test]
    fn hpcg_dag_is_cg_shaped_at_occupancy_27() {
        let prm = HpcgParams {
            nx: 32,
            n: 16,
            iterations: 3,
        };
        let cg = prm.cg();
        assert_eq!(cg.m, 32 * 32 * 32);
        assert_eq!(cg.occupancy, 27.0);
        assert_eq!(cg.a_payload_words, 2 * 27 * 32768 + 32768 + 1);
        let dag = build_hpcg_dag(&prm);
        assert_eq!(dag.node_count(), 8 * 3, "the 7-op cascade per iteration");
        assert!(!dag.externals().is_empty());
    }

    /// Materializes the 27-point stencil matrix. Test-only: the production
    /// path never builds it — that is the point of the analytic stats.
    fn stencil27_csr(nx: usize) -> cello_tensor::sparse::CsrMatrix {
        let mut coo = cello_tensor::sparse::CooMatrix::new(nx * nx * nx, nx * nx * nx);
        let idx = |x: usize, y: usize, z: usize| (z * nx + y) * nx + x;
        for z in 0..nx {
            for y in 0..nx {
                for x in 0..nx {
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                                let inside = |v: i64| (0..nx as i64).contains(&v);
                                if inside(xx) && inside(yy) && inside(zz) {
                                    coo.push(
                                        idx(x, y, z),
                                        idx(xx as usize, yy as usize, zz as usize),
                                        1.0,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn analytic_occupancy_matches_the_materialized_stencil() {
        for (nx, block_rows) in [(1u64, 1usize), (2, 1), (4, 3), (5, 2), (6, 64)] {
            let analytic = stencil27_occupancy(nx, block_rows);
            let exact = stencil27_csr(nx as usize).occupancy_stats(block_rows);
            assert_eq!(analytic, exact, "nx {nx}, block_rows {block_rows}");
        }
    }

    #[test]
    fn hpcg_params_carry_skewed_occupancy() {
        let stats = HpcgParams {
            nx: 16,
            n: 16,
            iterations: 1,
        }
        .cg()
        .a_occupancy
        .expect("hpcg must feed the overbooking model");
        // Boundary blocks are thinner than interior ones: real skew, so
        // the overbook axis has something to act on...
        assert!(stats.variance > 0.0, "stencil blocks must not be uniform");
        assert!(stats.rel_mean() < 1.0);
        // ...but a stencil is still far from pathological: the mean block
        // holds most of the worst block's occupancy.
        assert!(stats.rel_mean() > 0.5, "rel_mean {}", stats.rel_mean());
        // m = 16³ = 4096 rows over the 64-block target: 64 blocks of 64.
        assert_eq!((stats.block_rows, stats.blocks), (64, 64));
    }
}
