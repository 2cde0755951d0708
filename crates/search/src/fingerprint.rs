//! Canonical workload fingerprints — the identity `cello-serve`'s
//! persistent schedule cache is keyed by.
//!
//! A compilation request is fully determined by four inputs: the tensor
//! dependency DAG, the accelerator configuration, the search-space config,
//! and the strategy. [`fingerprint`] serializes all four into one **stable
//! canonical text** (deterministic field order, explicit names, full-
//! precision floats — nothing depends on hash-map iteration order or
//! process state) and hashes it with 128-bit FNV-1a. Two hashes come out:
//!
//! - [`Fingerprint::hash`] over the whole text — the exact cache key;
//! - [`Fingerprint::family`] over the DAG + strategy sections only — the
//!   *near-miss* key: requests that differ solely in accelerator or space
//!   configuration (a different SRAM size, a wider node menu) share a
//!   family, and a cached family member's Pareto front can warm-start the
//!   new search ([`crate::Tuner::tune_seeded`]).
//!
//! Hashes are never trusted alone: the canonical text rides along in
//! [`Fingerprint::canon`], the cache stores it, and every lookup compares
//! the full text — a 128-bit collision (or a serialization-format drift
//! between versions) degrades to a cache miss, never to serving the wrong
//! schedule.

use crate::space::SpaceConfig;
use crate::strategy::Strategy;
use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use std::fmt::Write as _;

/// The fingerprint of one compilation request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// 128-bit FNV-1a of [`Self::canon`], lowercase hex — the cache key.
    pub hash: String,
    /// 128-bit FNV-1a of the DAG + strategy sections — the near-miss
    /// (warm-start) grouping key.
    pub family: String,
    /// The full canonical text the hashes were computed over, one section
    /// per line (`dag:` / `accel:` / `space:` / `strategy:`).
    pub canon: String,
}

impl Fingerprint {
    /// The `dag:` + `strategy:` lines of a canonical text — what two
    /// requests must share to be family (warm-start) candidates. Extracted
    /// rather than recomputed so a *stored* record's family text can be
    /// collision-checked against a fresh request without rebuilding the
    /// stored workload.
    pub fn family_canon_of(canon: &str) -> String {
        canon
            .lines()
            .filter(|l| l.starts_with("dag:") || l.starts_with("strategy:"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Fingerprints a compilation request (see module docs).
pub fn fingerprint(
    dag: &TensorDag,
    accel: &CelloConfig,
    space: &SpaceConfig,
    strategy: &Strategy,
) -> Fingerprint {
    let canon = format!(
        "dag:{}\naccel:{}\nspace:{}\nstrategy:{}",
        dag_canonical_text(dag),
        accel.canonical_text(),
        space_canonical_text(space),
        strategy.label(),
    );
    let family = fnv128_hex(&Fingerprint::family_canon_of(&canon));
    Fingerprint {
        hash: fnv128_hex(&canon),
        family,
        canon,
    }
}

/// Canonical single-line serialization of a DAG's evaluation-relevant
/// structure: nodes in id order (name, einsum with explicit extents, op
/// kind, output tensor), edges in id order (endpoints, consumer-side ranks
/// and layout), externals in declaration order (tensor + consumer list).
/// Everything the schedule builder and both evaluators read is covered;
/// derived fields (dominance, MAC counts) are functions of what's here and
/// stay out.
pub fn dag_canonical_text(dag: &TensorDag) -> String {
    let mut out = String::new();
    let tensor = |out: &mut String, m: &cello_graph::edge::TensorMeta| {
        let _ = write!(out, "{}[", m.name);
        for r in &m.ranks {
            let _ = write!(out, "{r},");
        }
        let _ = write!(out, "]w{}s{}l{:?}", m.words, m.sparse as u8, m.layout);
        // Occupancy statistics feed the overbooking model, so they are part
        // of the evaluation-relevant identity — but only when present:
        // occupancy-free tensors keep their historical spelling (and every
        // pre-occupancy cache entry stays valid).
        if let Some(occ) = &m.occupancy {
            let _ = write!(
                out,
                "o{{b{}n{}m{}v{}x{}h{:?}}}",
                occ.block_rows, occ.blocks, occ.mean, occ.variance, occ.max, occ.histogram
            );
        }
    };
    for (id, node) in dag.nodes() {
        let _ = write!(
            out,
            "n{}={}:{:?}:{}(",
            id.0, node.name, node.kind, node.spec
        );
        for e in node.spec.extents() {
            let _ = write!(out, "{}={}/{},", e.rank, e.extent, e.effective);
        }
        out.push_str(")->");
        tensor(&mut out, &node.output);
        out.push(';');
    }
    for (id, edge) in dag.edges() {
        let _ = write!(out, "e{}={}->{}[", id.0, edge.src, edge.dst);
        for r in &edge.dst_ranks {
            let _ = write!(out, "{r},");
        }
        let _ = write!(out, "]l{:?};", edge.dst_layout);
    }
    for ext in dag.externals() {
        out.push_str("x=");
        tensor(&mut out, &ext.meta);
        out.push('<');
        for (consumer, ranks) in &ext.consumers {
            let _ = write!(out, "{consumer}[");
            for r in ranks {
                let _ = write!(out, "{r},");
            }
            out.push(']');
        }
        out.push_str(">;");
    }
    out
}

/// Canonical serialization of a [`SpaceConfig`] — every cap and menu, in
/// declaration order.
fn space_canonical_text(cfg: &SpaceConfig) -> String {
    let mut out = format!(
        "space{{cuts={} steers={} orders={} pb={:?} rf={:?} nodes={:?} bias={} mags={:?}",
        cfg.max_cut_points,
        cfg.max_steer_tensors,
        cfg.max_loop_order_nodes,
        cfg.pipeline_words_choices,
        cfg.rf_words_choices,
        cfg.node_choices,
        cfg.max_chord_bias_tensors,
        cfg.chord_bias_magnitudes,
    );
    out.push_str(" rep=[");
    for p in &cfg.repartition_profiles {
        let _ = write!(
            out,
            "{}:{}+{}/{}+{},",
            p.sram_words,
            p.fused.pipeline_buffer_words,
            p.fused.rf_capacity_words,
            p.solo.pipeline_buffer_words,
            p.solo.rf_capacity_words,
        );
    }
    out.push_str("] xfer=[");
    for t in &cfg.transfer_menu {
        let _ = write!(
            out,
            "{}{},",
            t.prefetch_depth,
            if t.double_buffer { 'd' } else { 's' }
        );
    }
    out.push_str("] ob=[");
    for o in &cfg.overbook_menu {
        let _ = write!(out, "{},", o.level);
    }
    out.push_str("]}");
    out
}

/// FNV-1a 128-bit offset basis (hash of the empty string).
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a as 32 lowercase hex digits.
pub fn fnv128_hex(text: &str) -> String {
    let mut w = Fnv128Writer::new();
    w.consume(text.as_bytes());
    format!("{:032x}", w.finish().0)
}

/// An interned 128-bit schedule identity: the FNV-1a hash of the canonical
/// `Candidate::schedule_key` text, produced *streamingly* (the key
/// text is hashed as it is formatted, never materialized). Two keys are
/// equal exactly when the underlying canonical strings are equal (up to
/// 128-bit collision — the same trust level serve's fingerprint cache
/// already accepts). `Copy` + 16 bytes makes it free to thread through the
/// eval cache, dedup sets, and the beam, where `String` keys used to cost
/// an allocation plus byte-wise compares per candidate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ScheduleKey(pub u128);

impl ScheduleKey {
    /// The key as 32 lowercase hex digits — the stable wire/disk spelling
    /// used by serve's warm-start codec.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Streaming 128-bit FNV-1a hasher that plugs into [`std::fmt::Write`], so
/// the exact byte sequence a `format!`-style serializer would produce can
/// be hashed without allocating the intermediate `String`.
#[derive(Clone, Debug)]
pub struct Fnv128Writer {
    h: u128,
}

impl Fnv128Writer {
    pub fn new() -> Self {
        Fnv128Writer { h: FNV128_OFFSET }
    }

    fn consume(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u128;
            self.h = self.h.wrapping_mul(FNV128_PRIME);
        }
    }

    pub fn finish(&self) -> ScheduleKey {
        ScheduleKey(self.h)
    }
}

impl Default for Fnv128Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fnv128Writer {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.consume(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_workloads::cg::{build_cg_dag, CgParams};

    fn cg(m: u64, iters: u32) -> TensorDag {
        build_cg_dag(&CgParams {
            m,
            occupancy: 4.0,
            a_payload_words: 2 * 4 * m + m + 1,
            n: 16,
            nprime: 16,
            iterations: iters,
            a_occupancy: None,
        })
    }

    #[test]
    fn equal_requests_fingerprint_identically() {
        let a = fingerprint(
            &cg(20_000, 2),
            &CelloConfig::paper(),
            &SpaceConfig::default(),
            &Strategy::Beam { width: 8 },
        );
        let b = fingerprint(
            &cg(20_000, 2),
            &CelloConfig::paper(),
            &SpaceConfig::default(),
            &Strategy::Beam { width: 8 },
        );
        assert_eq!(a, b);
        assert_eq!(a.hash.len(), 32);
        assert_eq!(a.family.len(), 32);
    }

    /// Every request ingredient separates the exact hash; only DAG and
    /// strategy separate the family.
    #[test]
    fn ingredients_separate_hash_family_tracks_dag_and_strategy() {
        let dag = cg(20_000, 2);
        let base = fingerprint(
            &dag,
            &CelloConfig::paper(),
            &SpaceConfig::default(),
            &Strategy::Beam { width: 8 },
        );
        // Different DAG: new hash AND new family.
        let other_dag = fingerprint(
            &cg(30_000, 2),
            &CelloConfig::paper(),
            &SpaceConfig::default(),
            &Strategy::Beam { width: 8 },
        );
        assert_ne!(base.hash, other_dag.hash);
        assert_ne!(base.family, other_dag.family);
        // Different strategy: new hash AND new family.
        let other_strat = fingerprint(
            &dag,
            &CelloConfig::paper(),
            &SpaceConfig::default(),
            &Strategy::Beam { width: 4 },
        );
        assert_ne!(base.hash, other_strat.hash);
        assert_ne!(base.family, other_strat.family);
        // Different accel / space: new hash, SAME family — the near-miss
        // relation warm-starting is built on.
        let other_accel = fingerprint(
            &dag,
            &CelloConfig::paper().with_sram_bytes(8 << 20),
            &SpaceConfig::default(),
            &Strategy::Beam { width: 8 },
        );
        assert_ne!(base.hash, other_accel.hash);
        assert_eq!(base.family, other_accel.family);
        let other_space = fingerprint(
            &dag,
            &CelloConfig::paper(),
            &SpaceConfig::with_nodes(&[1, 4]),
            &Strategy::Beam { width: 8 },
        );
        assert_ne!(base.hash, other_space.hash);
        assert_eq!(base.family, other_space.family);
        // A transfer menu is part of the space section too.
        let xfer_space = SpaceConfig {
            transfer_menu: SpaceConfig::default_transfer_menu(),
            ..SpaceConfig::default()
        };
        let other_xfer = fingerprint(
            &dag,
            &CelloConfig::paper(),
            &xfer_space,
            &Strategy::Beam { width: 8 },
        );
        assert_ne!(base.hash, other_xfer.hash);
        assert_eq!(base.family, other_xfer.family);
        // So is the overbook menu.
        let ob_space = SpaceConfig {
            overbook_menu: SpaceConfig::default_overbook_menu(),
            ..SpaceConfig::default()
        };
        let other_ob = fingerprint(
            &dag,
            &CelloConfig::paper(),
            &ob_space,
            &Strategy::Beam { width: 8 },
        );
        assert_ne!(base.hash, other_ob.hash);
        assert_eq!(base.family, other_ob.family);
    }

    /// Occupancy statistics change the DAG identity (and therefore the
    /// family): the same shape with different measured sparsity must not
    /// share cached schedules, while occupancy-free DAGs keep their
    /// historical spelling.
    #[test]
    fn occupancy_separates_dag_identity() {
        use cello_tensor::sparse::OccupancyStats;
        let plain = dag_canonical_text(&cg(20_000, 2));
        assert!(!plain.contains("o{"), "no occupancy suffix when absent");
        let dag_occ = build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n: 16,
            nprime: 16,
            iterations: 2,
            a_occupancy: Some(OccupancyStats::dense()),
        });
        let with_occ = dag_canonical_text(&dag_occ);
        assert_ne!(plain, with_occ);
        assert!(with_occ.contains("o{"));
    }

    #[test]
    fn family_canon_extraction_matches_family_hash() {
        let fp = fingerprint(
            &cg(20_000, 1),
            &CelloConfig::paper(),
            &SpaceConfig::default(),
            &Strategy::Exhaustive,
        );
        assert_eq!(
            fnv128_hex(&Fingerprint::family_canon_of(&fp.canon)),
            fp.family
        );
    }

    #[test]
    fn fnv128_known_values() {
        // FNV-1a 128 of the empty string is the offset basis.
        assert_eq!(fnv128_hex(""), "6c62272e07bb014262b821756295c58d");
        assert_ne!(fnv128_hex("a"), fnv128_hex("b"));
    }

    /// The streaming writer hashes exactly the bytes written, whatever the
    /// chunking, and matches the one-shot string hash.
    #[test]
    fn streaming_writer_matches_one_shot_hash() {
        use std::fmt::Write as _;
        let mut w = Fnv128Writer::new();
        let (name, idx, tag) = ("spmv", 3, "realized");
        write!(w, "op.{name}|{idx};{tag}").unwrap();
        assert_eq!(w.finish().hex(), fnv128_hex("op.spmv|3;realized"));
        // Chunk boundaries are invisible.
        let mut a = Fnv128Writer::new();
        a.write_str("hel").unwrap();
        a.write_str("lo").unwrap();
        let mut b = Fnv128Writer::new();
        b.write_str("hello").unwrap();
        assert_eq!(a.finish(), b.finish());
        assert_eq!(Fnv128Writer::new().finish().hex(), fnv128_hex(""));
    }

    #[test]
    fn schedule_key_hex_round_trips() {
        let k = Fnv128Writer::new().finish();
        let k2 = ScheduleKey(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(k2.hex(), "0123456789abcdef0011223344556677");
        // Fixed width, zero-padded, lossless.
        for key in [k, k2, ScheduleKey(1)] {
            assert_eq!(key.hex().len(), 32);
            assert_eq!(u128::from_str_radix(&key.hex(), 16), Ok(key.0));
        }
    }
}
