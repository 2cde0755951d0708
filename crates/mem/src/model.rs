//! CACTI-lite: analytical area and per-access energy for buffer structures.
//!
//! The paper models buffers with CACTI 7 (§VII-A2) and reports, for 4 MB
//! structures (Fig 15 and §VII-B3):
//!
//! | structure | area (mm²) | decomposition |
//! |-----------|-----------|----------------|
//! | buffet    | 6.72      | data 6.59 + 2% controller |
//! | cache     | 9.87      | data 6.59 + tag 1.85 + controller 1.43 |
//! | CHORD     | 6.74      | data 6.59 + RIFF table (~0.01× tag) + controller |
//!
//! We reproduce the same structural decomposition with constants calibrated at
//! the 4 MB point: data-array area scales linearly with capacity, per-access
//! energy scales with √capacity (bitline/wordline growth), the tag array
//! scales with line count, and CHORD's metadata is a fixed 64-entry × 512-bit
//! table regardless of data capacity (§VI-B "Hardware overhead reduction").

/// The buffer structures Fig 15 compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Set-associative cache with per-line tags.
    Cache,
    /// Raw explicit scratchpad.
    Scratchpad,
    /// Credit-managed buffet.
    Buffet,
    /// The paper's hybrid CHORD (data array + RIFF index table).
    Chord,
}

/// Area/energy breakdown of one structure (the Fig 15 bars).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Breakdown {
    /// Data array contribution.
    pub data: f64,
    /// Tag array / metadata table contribution.
    pub tag: f64,
    /// Controller contribution.
    pub controller: f64,
}

impl Breakdown {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.data + self.tag + self.controller
    }
}

/// Analytical area/energy model calibrated to the paper's 4 MB numbers.
#[derive(Clone, Copy, Debug)]
pub struct AreaEnergyModel {
    /// Data-array area of the 4 MB reference point (mm²).
    pub data_area_4mb_mm2: f64,
    /// Tag-array area of the 4 MB, 8-way, 16 B-line reference cache (mm²).
    pub tag_area_4mb_mm2: f64,
    /// Cache-controller area at the reference point (mm²).
    pub cache_ctrl_area_4mb_mm2: f64,
    /// Buffet/CHORD controller overhead as a fraction of data area (2%).
    pub explicit_ctrl_fraction: f64,
    /// RIFF-index-table area relative to the reference tag array (0.01×).
    pub riff_table_tag_fraction: f64,
    /// Data-array energy per access at the 4 MB point (pJ; one 16 B line).
    pub data_energy_4mb_pj: f64,
    /// Tag energy per access at the 4 MB point (pJ; "comparable to data").
    pub tag_energy_4mb_pj: f64,
}

impl Default for AreaEnergyModel {
    fn default() -> Self {
        Self {
            data_area_4mb_mm2: 6.59,
            tag_area_4mb_mm2: 1.85,
            cache_ctrl_area_4mb_mm2: 1.43,
            explicit_ctrl_fraction: 0.02,
            riff_table_tag_fraction: 0.01,
            data_energy_4mb_pj: 60.0,
            tag_energy_4mb_pj: 50.0,
        }
    }
}

const REF_BYTES: f64 = (4u64 << 20) as f64;

impl AreaEnergyModel {
    fn cap_scale(bytes: u64) -> f64 {
        bytes as f64 / REF_BYTES
    }

    fn energy_scale(bytes: u64) -> f64 {
        Self::cap_scale(bytes).sqrt()
    }

    /// Area breakdown (mm²) for a structure of `bytes` capacity.
    pub fn area_breakdown(&self, kind: BufferKind, bytes: u64) -> Breakdown {
        let s = Self::cap_scale(bytes);
        let data = self.data_area_4mb_mm2 * s;
        match kind {
            BufferKind::Cache => Breakdown {
                data,
                tag: self.tag_area_4mb_mm2 * s,
                controller: self.cache_ctrl_area_4mb_mm2 * s,
            },
            BufferKind::Scratchpad => Breakdown {
                data,
                tag: 0.0,
                controller: 0.0,
            },
            BufferKind::Buffet => Breakdown {
                data,
                tag: 0.0,
                controller: data * self.explicit_ctrl_fraction,
            },
            BufferKind::Chord => Breakdown {
                data,
                // The RIFF table is a fixed 64 x 512 b structure: it does NOT
                // scale with data capacity (one entry per tensor, not per line).
                tag: self.tag_area_4mb_mm2 * self.riff_table_tag_fraction,
                controller: data * self.explicit_ctrl_fraction,
            },
        }
    }

    /// Total area in mm².
    pub fn area_mm2(&self, kind: BufferKind, bytes: u64) -> f64 {
        self.area_breakdown(kind, bytes).total()
    }

    /// Per-access energy breakdown (pJ) for one line-granular access.
    pub fn energy_breakdown(&self, kind: BufferKind, bytes: u64) -> Breakdown {
        let s = Self::energy_scale(bytes);
        let data = self.data_energy_4mb_pj * s;
        match kind {
            BufferKind::Cache => Breakdown {
                data,
                tag: self.tag_energy_4mb_pj * s,
                controller: 0.0,
            },
            BufferKind::Scratchpad => Breakdown {
                data,
                tag: 0.0,
                controller: 0.0,
            },
            BufferKind::Buffet => Breakdown {
                data,
                tag: 0.0,
                controller: data * self.explicit_ctrl_fraction,
            },
            BufferKind::Chord => Breakdown {
                data,
                // One 512-bit RIFF entry read: fixed small cost, amortized
                // further because hits don't update metadata (§VI-B).
                tag: self.tag_energy_4mb_pj * self.riff_table_tag_fraction,
                controller: data * self.explicit_ctrl_fraction,
            },
        }
    }

    /// Total per-access energy in pJ.
    pub fn energy_per_access_pj(&self, kind: BufferKind, bytes: u64) -> f64 {
        self.energy_breakdown(kind, bytes).total()
    }

    /// CHORD metadata bits: 64 entries × 512 bits (Table V) — exposed so tests
    /// can confirm the "one entry per tensor" claim.
    pub fn chord_metadata_bits(&self) -> u64 {
        64 * 512
    }

    /// Reference cache tag bits at 4 MB / 16 B lines / 8-way with 48-bit
    /// addresses (for the "~100× smaller than cache metadata" claim, §VI-B).
    pub fn cache_tag_bits_4mb(&self) -> u64 {
        let lines = (4u64 << 20) / 16;
        let sets: u64 = lines / 8;
        let tag_bits = 48 - (sets.trailing_zeros() as u64) - 4; // addr - index - offset
        lines * (tag_bits + 2) // +valid +dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: AreaEnergyModel = AreaEnergyModel {
        data_area_4mb_mm2: 6.59,
        tag_area_4mb_mm2: 1.85,
        cache_ctrl_area_4mb_mm2: 1.43,
        explicit_ctrl_fraction: 0.02,
        riff_table_tag_fraction: 0.01,
        data_energy_4mb_pj: 60.0,
        tag_energy_4mb_pj: 50.0,
    };

    const FOUR_MB: u64 = 4 << 20;

    #[test]
    fn buffet_area_matches_paper() {
        // 6.72 mm² = 6.59 × 1.02
        assert!((M.area_mm2(BufferKind::Buffet, FOUR_MB) - 6.72).abs() < 0.01);
    }

    #[test]
    fn cache_area_matches_paper() {
        // 9.87 mm² = 6.59 + 1.85 + 1.43
        assert!((M.area_mm2(BufferKind::Cache, FOUR_MB) - 9.87).abs() < 0.01);
    }

    #[test]
    fn chord_area_matches_paper() {
        // 6.74 mm² ≈ 6.59 + 0.0185 + 0.132
        assert!((M.area_mm2(BufferKind::Chord, FOUR_MB) - 6.74).abs() < 0.01);
    }

    #[test]
    fn tag_overhead_is_about_a_third_of_cache() {
        // §VI-B: "cache controller and tag bits … almost a third of the cache area".
        let b = M.area_breakdown(BufferKind::Cache, FOUR_MB);
        let overhead = (b.tag + b.controller) / b.total();
        assert!(overhead > 0.30 && overhead < 0.37, "{overhead}");
    }

    #[test]
    fn chord_metadata_much_smaller_than_tags() {
        // "RIFF-index table requires 0.01x area compared to tag area in cache".
        let chord = M.area_breakdown(BufferKind::Chord, FOUR_MB).tag;
        let cache = M.area_breakdown(BufferKind::Cache, FOUR_MB).tag;
        assert!((chord / cache - 0.01).abs() < 1e-9);
        // Bit-level sanity: 32 Kib of RIFF entries vs ~7.9 Mib of tags.
        assert_eq!(M.chord_metadata_bits(), 32_768);
        assert!(M.cache_tag_bits_4mb() > 100 * M.chord_metadata_bits() / 2);
    }

    #[test]
    fn cache_energy_roughly_double_explicit() {
        // Fig 15b: tag energy comparable to data energy makes cache ≈ 2×.
        let cache = M.energy_per_access_pj(BufferKind::Cache, FOUR_MB);
        let buffet = M.energy_per_access_pj(BufferKind::Buffet, FOUR_MB);
        let chord = M.energy_per_access_pj(BufferKind::Chord, FOUR_MB);
        assert!(cache / buffet > 1.6, "{}", cache / buffet);
        assert!(cache / chord > 1.6);
        assert!((chord - buffet).abs() / buffet < 0.02, "chord ≈ buffet");
    }

    #[test]
    fn area_scales_linearly_energy_sublinearly() {
        let a1 = M.area_mm2(BufferKind::Scratchpad, 1 << 20);
        let a16 = M.area_mm2(BufferKind::Scratchpad, 16 << 20);
        assert!((a16 / a1 - 16.0).abs() < 1e-9);
        let e1 = M.energy_per_access_pj(BufferKind::Scratchpad, 1 << 20);
        let e16 = M.energy_per_access_pj(BufferKind::Scratchpad, 16 << 20);
        assert!((e16 / e1 - 4.0).abs() < 1e-9); // sqrt(16)
    }

    #[test]
    fn chord_tag_area_does_not_scale_with_capacity() {
        let t1 = M.area_breakdown(BufferKind::Chord, 1 << 20).tag;
        let t16 = M.area_breakdown(BufferKind::Chord, 16 << 20).tag;
        assert_eq!(t1, t16);
    }

    #[test]
    fn default_model_matches_calibration() {
        let d = AreaEnergyModel::default();
        assert!((d.area_mm2(BufferKind::Cache, FOUR_MB) - 9.87).abs() < 0.01);
    }
}
