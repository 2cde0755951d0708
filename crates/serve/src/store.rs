//! The persistent, fingerprint-keyed schedule cache.
//!
//! Layout: one JSON file per compiled workload under the cache directory,
//! named `<fingerprint-hash>.json`. Each record stores the **full canonical
//! text** alongside the outcome, and every lookup re-compares it — a hash
//! collision (or a canonical-format drift across versions) degrades to a
//! cache miss, never to serving another workload's schedule. The
//! [`ServeError::Store`](crate::error::ServeError) path covers unreadable
//! and corrupted files the same way: a bad record is a miss plus a counter
//! tick, and the daemon recompiles.
//!
//! Besides exact hits, the store answers **family** (near-miss) lookups:
//! records whose DAG + strategy match but whose accelerator/space config
//! differs. Their stored Pareto candidates (portable specs, see
//! [`crate::protocol::candidate_to_json`]) become warm-start seeds for
//! [`cello_search::Tuner::tune_seeded`].
//!
//! Writes go through a tmp-file + atomic rename so a crashed or killed
//! daemon never leaves a half-written record that later parses as garbage.

use crate::error::ServeError;
use crate::protocol::{candidate_from_json, candidate_to_json, field_str, field_u64};
use cello_obs::json::Json;
use cello_search::fingerprint::Fingerprint;
use cello_search::{Candidate, SearchOutcome};
use cello_sim::evaluate::CostEstimate;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// How many Pareto entries a record keeps as warm-start seeds. Fronts are
/// rank-sorted, so truncation keeps the best end; a handful of seeds is what
/// the narrow warm beam can actually exploit.
const MAX_STORED_PARETO: usize = 12;

/// One cached candidate: its canonical key, cost, and portable spec.
#[derive(Clone, Debug)]
pub struct StoredCandidate {
    /// Canonical schedule key (hex of the interned 128-bit
    /// [`cello_search::ScheduleKey`]).
    pub key: String,
    /// The four objectives.
    pub cost: CostEstimate,
    /// The rebuild-anywhere candidate spec.
    pub candidate: Candidate,
}

/// One cached compilation outcome.
#[derive(Clone, Debug)]
pub struct StoredOutcome {
    /// Exact fingerprint hash.
    pub fingerprint: String,
    /// Family (near-miss) hash.
    pub family: String,
    /// Strategy label the outcome was tuned with.
    pub strategy: String,
    /// Paper-heuristic baseline cycles.
    pub base_cycles: u64,
    /// Best-total-traffic schedule: canonical key + objectives + spec.
    pub best: StoredCandidate,
    /// Best-cycles energy (the response's energy field).
    pub tuned_energy_pj: f64,
    /// Best-found cycles (may differ from `best`'s, which optimizes
    /// traffic).
    pub tuned_cycles: u64,
    /// Sim evaluations the original compilation cost.
    pub evaluations: u64,
    /// Surrogate scorings the original compilation cost.
    pub surrogate_scored: u64,
    /// Rank-sorted Pareto prefix (capped at `MAX_STORED_PARETO` entries).
    pub pareto: Vec<StoredCandidate>,
}

impl StoredOutcome {
    /// Converts a fresh tuner outcome into its storable form.
    pub fn from_outcome(fp: &Fingerprint, out: &SearchOutcome) -> Self {
        let cand = |e: &cello_search::Evaluated| StoredCandidate {
            key: e.key.hex(),
            cost: e.cost,
            candidate: e.candidate.clone(),
        };
        Self {
            fingerprint: fp.hash.clone(),
            family: fp.family.clone(),
            strategy: out.strategy.clone(),
            base_cycles: out.baseline.cost.cycles,
            best: cand(&out.best_traffic),
            tuned_energy_pj: out.best_cycles.cost.energy_pj,
            tuned_cycles: out.best_cycles.cost.cycles,
            evaluations: out.evaluations,
            surrogate_scored: out.surrogate_scored,
            pareto: out
                .pareto
                .iter()
                .take(MAX_STORED_PARETO)
                .map(cand)
                .collect(),
        }
    }

    /// Warm-start seeds: the stored Pareto candidates (best first).
    pub fn seeds(&self) -> Vec<Candidate> {
        self.pareto.iter().map(|s| s.candidate.clone()).collect()
    }
}

fn stored_candidate_to_json(s: &StoredCandidate) -> Json {
    Json::Obj(vec![
        ("key".into(), Json::Str(s.key.clone())),
        ("cycles".into(), Json::int(s.cost.cycles)),
        ("dram_bytes".into(), Json::int(s.cost.dram_bytes)),
        ("noc_hop_bytes".into(), Json::int(s.cost.noc_hop_bytes)),
        ("energy_pj".into(), Json::Num(s.cost.energy_pj)),
        ("spec".into(), candidate_to_json(&s.candidate)),
    ])
}

fn stored_candidate_from_json(doc: &Json) -> Result<StoredCandidate, ServeError> {
    let need = |key: &'static str| {
        field_u64(doc, key)?.ok_or(ServeError::Store(format!("record missing {key}")))
    };
    Ok(StoredCandidate {
        key: field_str(doc, "key")?
            .ok_or_else(|| ServeError::Store("record missing key".into()))?,
        cost: CostEstimate {
            cycles: need("cycles")?,
            dram_bytes: need("dram_bytes")?,
            noc_hop_bytes: need("noc_hop_bytes")?,
            // A NaN energy was rendered as null; treat it as NaN again
            // rather than rejecting the record.
            energy_pj: doc
                .get("energy_pj")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        },
        candidate: candidate_from_json(
            doc.get("spec")
                .ok_or_else(|| ServeError::Store("record missing spec".into()))?,
        )?,
    })
}

/// The on-disk store plus an in-memory `hash → family` index (rebuilt by
/// scanning the directory at open, kept in sync by inserts).
pub struct ScheduleStore {
    dir: PathBuf,
    index: Mutex<HashMap<String, String>>,
    collisions: AtomicU64,
}

impl ScheduleStore {
    /// Opens (creating if needed) a cache directory and indexes its records.
    /// Unreadable records are skipped with a note — a corrupted cache must
    /// not stop the daemon from starting.
    pub fn open(dir: &Path) -> Result<Self, ServeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError::Store(format!("cannot create {dir:?}: {e}")))?;
        let mut index = HashMap::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| ServeError::Store(format!("cannot scan {dir:?}: {e}")))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            match Self::read_record(&path) {
                Ok((rec, _)) => {
                    index.insert(rec.fingerprint.clone(), rec.family.clone());
                }
                Err(e) => eprintln!("[store] skipping {path:?}: {e}"),
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            index: Mutex::new(index),
            collisions: AtomicU64::new(0),
        })
    }

    fn path_of(&self, hash: &str) -> PathBuf {
        // Hashes are produced by our own hex formatter, but belt-and-
        // braces: never let a stored name escape the cache directory.
        let safe: String = hash.chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        self.dir.join(format!("{safe}.json"))
    }

    fn read_record(path: &Path) -> Result<(StoredOutcome, String), ServeError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Store(format!("cannot read {path:?}: {e}")))?;
        let doc = Json::parse(&text)
            .map_err(|e| ServeError::Store(format!("corrupt record {path:?}: {e}")))?;
        let need_str = |key: &'static str| {
            field_str(&doc, key)?.ok_or(ServeError::Store(format!("record missing {key}")))
        };
        let need_u64 = |key: &'static str| {
            field_u64(&doc, key)?.ok_or(ServeError::Store(format!("record missing {key}")))
        };
        let pareto = doc
            .get("pareto")
            .and_then(Json::as_array)
            .ok_or_else(|| ServeError::Store("record missing pareto".into()))?
            .iter()
            .map(stored_candidate_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let best = stored_candidate_from_json(
            doc.get("best")
                .ok_or_else(|| ServeError::Store("record missing best".into()))?,
        )?;
        let canon = need_str("canon")?;
        Ok((
            StoredOutcome {
                fingerprint: need_str("fingerprint")?,
                family: need_str("family")?,
                strategy: need_str("strategy")?,
                base_cycles: need_u64("base_cycles")?,
                best,
                tuned_energy_pj: doc
                    .get("tuned_energy_pj")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                tuned_cycles: need_u64("tuned_cycles")?,
                evaluations: need_u64("evaluations")?,
                surrogate_scored: need_u64("surrogate_scored")?,
                pareto,
            },
            canon,
        ))
    }

    /// Exact lookup: present, parseable, **and** canonical-text-equal.
    /// A record whose canon differs under the same hash is a detected
    /// collision: counted, reported as a miss.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<StoredOutcome> {
        let path = self.path_of(&fp.hash);
        if !path.exists() {
            return None;
        }
        let (rec, canon) = match Self::read_record(&path) {
            Ok(found) => found,
            Err(e) => {
                eprintln!("[store] {e}");
                return None;
            }
        };
        if canon != fp.canon {
            self.collisions.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[store] fingerprint collision on {}: treating as miss",
                fp.hash
            );
            return None;
        }
        Some(rec)
    }

    /// Near-miss lookup: any record sharing `fp.family` but not its exact
    /// hash, with the stored record's family canon re-checked against the
    /// request's (the same collision discipline as exact hits). Returns the
    /// first match in index order — any family member's front is a usable
    /// seed set.
    pub fn lookup_family(&self, fp: &Fingerprint) -> Option<StoredOutcome> {
        let family_canon = Fingerprint::family_canon_of(&fp.canon);
        let mut candidates: Vec<String> = {
            let index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
            index
                .iter()
                .filter(|(hash, family)| **hash != fp.hash && **family == fp.family)
                .map(|(hash, _)| hash.clone())
                .collect()
        };
        // Hash-map iteration order is arbitrary; sort so which family member
        // seeds a warm start is deterministic across runs.
        candidates.sort();
        for hash in candidates {
            let path = self.path_of(&hash);
            match Self::read_record(&path) {
                Ok((rec, canon)) => {
                    if Fingerprint::family_canon_of(&canon) == family_canon {
                        return Some(rec);
                    }
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!("[store] {e}"),
            }
        }
        None
    }

    /// Persists a record (atomic tmp + rename) and indexes it.
    pub fn insert(&self, fp: &Fingerprint, rec: &StoredOutcome) -> Result<(), ServeError> {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::int(1)),
            ("fingerprint".into(), Json::Str(rec.fingerprint.clone())),
            ("family".into(), Json::Str(rec.family.clone())),
            ("canon".into(), Json::Str(fp.canon.clone())),
            ("strategy".into(), Json::Str(rec.strategy.clone())),
            ("base_cycles".into(), Json::int(rec.base_cycles)),
            ("tuned_cycles".into(), Json::int(rec.tuned_cycles)),
            ("tuned_energy_pj".into(), Json::Num(rec.tuned_energy_pj)),
            ("evaluations".into(), Json::int(rec.evaluations)),
            ("surrogate_scored".into(), Json::int(rec.surrogate_scored)),
            ("best".into(), stored_candidate_to_json(&rec.best)),
            (
                "pareto".into(),
                Json::Arr(rec.pareto.iter().map(stored_candidate_to_json).collect()),
            ),
        ]);
        let path = self.path_of(&fp.hash);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, doc.compact())
            .map_err(|e| ServeError::Store(format!("cannot write {tmp:?}: {e}")))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| ServeError::Store(format!("cannot commit {path:?}: {e}")))?;
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(fp.hash.clone(), fp.family.clone());
        Ok(())
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.index
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no record is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Detected hash collisions (served as misses).
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_core::accel::CelloConfig;
    use cello_search::{fingerprint, SpaceConfig, Strategy, Tuner};
    use cello_workloads::cg::{build_cg_dag, CgParams};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cello-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_outcome() -> (Fingerprint, SearchOutcome) {
        let dag = build_cg_dag(&CgParams {
            m: 10_000,
            occupancy: 4.0,
            a_payload_words: 2 * 40_000 + 10_001,
            n: 16,
            nprime: 16,
            iterations: 1,
            a_occupancy: None,
        });
        let accel = CelloConfig::paper();
        let cfg = SpaceConfig {
            max_cut_points: 1,
            max_steer_tensors: 1,
            max_loop_order_nodes: 0,
            pipeline_words_choices: vec![65_536],
            rf_words_choices: vec![16_384],
            node_choices: vec![1],
            max_chord_bias_tensors: 0,
            chord_bias_magnitudes: vec![1],
            repartition_profiles: Vec::new(),
            transfer_menu: Vec::new(),
            overbook_menu: Vec::new(),
        };
        let strategy = Strategy::Beam { width: 2 };
        let fp = fingerprint(&dag, &accel, &cfg, &strategy);
        let out = Tuner::new(&dag, &accel, cfg).tune(&strategy);
        (fp, out)
    }

    #[test]
    fn insert_lookup_round_trip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let store = ScheduleStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let (fp, out) = small_outcome();
        assert!(store.lookup(&fp).is_none());
        store
            .insert(&fp, &StoredOutcome::from_outcome(&fp, &out))
            .unwrap();
        let rec = store.lookup(&fp).expect("hit");
        assert_eq!(rec.best.key, out.best_traffic.key.hex());
        assert_eq!(rec.best.cost, out.best_traffic.cost);
        assert_eq!(rec.base_cycles, out.baseline.cost.cycles);
        assert_eq!(rec.pareto.len(), out.pareto.len().min(MAX_STORED_PARETO));
        // Reopening re-indexes from disk.
        let reopened = ScheduleStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.lookup(&fp).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same hash + different canon (a forged collision) must read as a miss.
    #[test]
    fn collision_detection_degrades_to_miss() {
        let dir = tmpdir("collision");
        let store = ScheduleStore::open(&dir).unwrap();
        let (fp, out) = small_outcome();
        store
            .insert(&fp, &StoredOutcome::from_outcome(&fp, &out))
            .unwrap();
        let mut forged = fp.clone();
        forged.canon.push_str("tampered");
        assert!(store.lookup(&forged).is_none());
        assert_eq!(store.collisions(), 1);
        // The honest fingerprint still hits.
        assert!(store.lookup(&fp).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted record file is a miss (and survives reopen), not a panic.
    #[test]
    fn corrupt_records_are_misses() {
        let dir = tmpdir("corrupt");
        let store = ScheduleStore::open(&dir).unwrap();
        let (fp, out) = small_outcome();
        store
            .insert(&fp, &StoredOutcome::from_outcome(&fp, &out))
            .unwrap();
        std::fs::write(store.path_of(&fp.hash), "{ not json").unwrap();
        assert!(store.lookup(&fp).is_none());
        let reopened = ScheduleStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 0, "corrupt record skipped at open");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
