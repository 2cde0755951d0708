//! Regression attribution: *why* did this number change?
//!
//! The bench trajectories gate on totals — `tuned_cycles`, DRAM bytes, a
//! ratio against the committed baseline. When a gate trips, the ratio names
//! the symptom but not the cause: under the overlap model a cycle
//! regression can hide in compute vs exposed transfer vs NoC serialization,
//! and a DRAM regression in reads vs writebacks vs the overbook spill tail.
//! This module turns two [`RunReport`]s (or two flat bench records) into a
//! ranked attribution table over exactly those axes.
//!
//! The cycle decomposition is **exact by construction**, not a model: for
//! each phase the engine records `(compute, exposed_mem)` and the total
//! cycles the overlap ledger charged, and
//!
//! ```text
//! total = compute + max(0, exposed_mem − compute) + (total − max(compute, exposed_mem))
//!         └ compute ┘ └ exposed-transfer excess  ┘ └ noc/serialization excess        ┘
//! ```
//!
//! is an identity (the ledger guarantees `total ≥ max(compute,
//! exposed_mem)`). Per-phase axis rows therefore sum to `RunReport::cycles`
//! exactly, and diffed rows sum to the cycle delta exactly — pinned by the
//! `explain_proptest` suite. The DRAM split is exact the same way:
//! `phase_dram_bytes[p] = dram_read + dram_write + spill_tail` where the
//! spill tail is the overbook writeback the backend never saw
//! (`phase_dram_bytes[p] − phase_stats[p].dram_bytes()`).

use cello_mem::stats::AccessStats;
use cello_obs::json::Json;
use cello_sim::report::RunReport;

/// Schema tag for `--report-out` documents.
pub const REPORT_SCHEMA: u64 = 1;

/// Cycle-axis names, in decomposition order.
pub const CYCLE_AXES: [&str; 3] = ["compute", "exposed-transfer", "noc/serialization"];

/// DRAM-axis names, in decomposition order.
pub const DRAM_AXES: [&str; 3] = ["dram-read", "dram-write", "spill-tail"];

// ---------------------------------------------------------------------------
// RunReport ⇄ Json
// ---------------------------------------------------------------------------

fn stats_to_json(s: &AccessStats) -> Json {
    Json::Obj(vec![
        ("dram_read_bytes".into(), Json::int(s.dram_read_bytes)),
        ("dram_write_bytes".into(), Json::int(s.dram_write_bytes)),
        ("sram_read_words".into(), Json::int(s.sram_read_words)),
        ("sram_write_words".into(), Json::int(s.sram_write_words)),
        ("tag_accesses".into(), Json::int(s.tag_accesses)),
        ("hits".into(), Json::int(s.hits)),
        ("misses".into(), Json::int(s.misses)),
        ("writebacks".into(), Json::int(s.writebacks)),
    ])
}

fn field_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn field_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn field_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn u64_array(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    j.get(key)
        .and_then(Json::as_array)
        .map(|a| a.iter().map(|v| v.as_f64().unwrap_or(0.0) as u64).collect())
        .ok_or_else(|| format!("missing array field {key:?}"))
}

fn stats_from_json(j: &Json) -> Result<AccessStats, String> {
    Ok(AccessStats {
        dram_read_bytes: field_u64(j, "dram_read_bytes")?,
        dram_write_bytes: field_u64(j, "dram_write_bytes")?,
        sram_read_words: field_u64(j, "sram_read_words")?,
        sram_write_words: field_u64(j, "sram_write_words")?,
        tag_accesses: field_u64(j, "tag_accesses")?,
        hits: field_u64(j, "hits")?,
        misses: field_u64(j, "misses")?,
        writebacks: field_u64(j, "writebacks")?,
    })
}

/// Serializes a full [`RunReport`] — including every per-phase vector the
/// attribution needs — to the bench JSON value.
pub fn report_to_json(r: &RunReport) -> Json {
    Json::Obj(vec![
        ("config".into(), Json::Str(r.config.clone())),
        ("workload".into(), Json::Str(r.workload.clone())),
        ("cycles".into(), Json::int(r.cycles)),
        ("seconds".into(), Json::Num(r.seconds)),
        ("macs".into(), Json::int(r.macs)),
        ("dram_bytes".into(), Json::int(r.dram_bytes)),
        ("nodes".into(), Json::int(r.nodes)),
        ("noc_hop_bytes".into(), Json::int(r.noc_hop_bytes)),
        ("offchip_energy_pj".into(), Json::Num(r.offchip_energy_pj)),
        ("onchip_energy_pj".into(), Json::Num(r.onchip_energy_pj)),
        ("noc_energy_pj".into(), Json::Num(r.noc_energy_pj)),
        ("stats".into(), stats_to_json(&r.stats)),
        (
            "phase_compute_cycles".into(),
            Json::Arr(r.phase_cycles.iter().map(|&(c, _)| Json::int(c)).collect()),
        ),
        (
            "phase_mem_cycles".into(),
            Json::Arr(r.phase_cycles.iter().map(|&(_, m)| Json::int(m)).collect()),
        ),
        (
            "phase_dram_bytes".into(),
            Json::Arr(r.phase_dram_bytes.iter().map(|&b| Json::int(b)).collect()),
        ),
        (
            "phase_stats".into(),
            Json::Arr(r.phase_stats.iter().map(stats_to_json).collect()),
        ),
        (
            "phase_noc_hop_words".into(),
            Json::Arr(
                r.phase_noc_hop_words
                    .iter()
                    .map(|&w| Json::int(w))
                    .collect(),
            ),
        ),
        (
            "phase_total_cycles".into(),
            Json::Arr(r.phase_total_cycles.iter().map(|&t| Json::int(t)).collect()),
        ),
    ])
}

/// Parses a report serialized by [`report_to_json`].
pub fn report_from_json(j: &Json) -> Result<RunReport, String> {
    let compute = u64_array(j, "phase_compute_cycles")?;
    let mem = u64_array(j, "phase_mem_cycles")?;
    if compute.len() != mem.len() {
        return Err("phase_compute_cycles / phase_mem_cycles length mismatch".into());
    }
    let phase_stats = j
        .get("phase_stats")
        .and_then(Json::as_array)
        .ok_or("missing array field \"phase_stats\"")?
        .iter()
        .map(stats_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunReport {
        config: field_str(j, "config")?,
        workload: field_str(j, "workload")?,
        cycles: field_u64(j, "cycles")?,
        seconds: field_f64(j, "seconds")?,
        macs: field_u64(j, "macs")?,
        dram_bytes: field_u64(j, "dram_bytes")?,
        nodes: field_u64(j, "nodes")?,
        noc_hop_bytes: field_u64(j, "noc_hop_bytes")?,
        offchip_energy_pj: field_f64(j, "offchip_energy_pj")?,
        onchip_energy_pj: field_f64(j, "onchip_energy_pj")?,
        noc_energy_pj: field_f64(j, "noc_energy_pj")?,
        stats: stats_from_json(j.get("stats").ok_or("missing field \"stats\"")?)?,
        phase_cycles: compute.into_iter().zip(mem).collect(),
        phase_dram_bytes: u64_array(j, "phase_dram_bytes")?,
        phase_stats,
        phase_noc_hop_words: u64_array(j, "phase_noc_hop_words")?,
        phase_total_cycles: u64_array(j, "phase_total_cycles")?,
    })
}

/// The document `cello_run --report-out` writes: a schema tag, provenance,
/// and one full report per simulated configuration.
pub fn reports_doc(generated_by: &str, reports: &[RunReport]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::int(REPORT_SCHEMA)),
        ("generated_by".into(), Json::Str(generated_by.to_string())),
        (
            "reports".into(),
            Json::Arr(reports.iter().map(report_to_json).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Axis decomposition
// ---------------------------------------------------------------------------

/// Per-phase cycle decomposition `[compute, exposed-transfer excess,
/// noc/serialization excess]`, one row per entry of `phase_total_cycles`
/// (drain included). Each row sums to that phase's total exactly — see the
/// module docs for the identity.
pub fn cycle_axes(r: &RunReport) -> Vec<[i64; 3]> {
    r.phase_cycles
        .iter()
        .zip(&r.phase_total_cycles)
        .map(|(&(c, m), &t)| {
            [
                c as i64,
                m.saturating_sub(c) as i64,
                t as i64 - c.max(m) as i64,
            ]
        })
        .collect()
}

/// Per-phase, per-node DRAM decomposition `[read, write, spill-tail]`, one
/// row per entry of `phase_dram_bytes` (drain included). Each row sums to
/// `phase_dram_bytes[p]` exactly; multiplying by the report's node
/// aggregation factor recovers `dram_bytes`.
pub fn dram_axes(r: &RunReport) -> Vec<[i64; 3]> {
    r.phase_stats
        .iter()
        .zip(&r.phase_dram_bytes)
        .map(|(s, &d)| {
            [
                s.dram_read_bytes as i64,
                s.dram_write_bytes as i64,
                d.saturating_sub(s.dram_bytes()) as i64,
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Report diffing
// ---------------------------------------------------------------------------

/// One attribution row: how much one (phase, axis) cell moved.
#[derive(Clone, Debug)]
pub struct AxisDelta {
    /// Phase index (the drain phase is the last index when present).
    pub phase: usize,
    /// Axis name (from [`CYCLE_AXES`] / [`DRAM_AXES`]).
    pub axis: &'static str,
    /// Value in the *before* report.
    pub before: i64,
    /// Value in the *after* report.
    pub after: i64,
}

impl AxisDelta {
    /// Signed change (`after − before`).
    pub fn delta(&self) -> i64 {
        self.after - self.before
    }
}

/// The full diff of two reports: exact per-phase cycle and DRAM attribution
/// plus the CHORD behavioral counters for context.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// `config/workload` label of the before report.
    pub before_label: String,
    /// `config/workload` label of the after report.
    pub after_label: String,
    /// Total cycles on each side.
    pub cycles: (u64, u64),
    /// Aggregated DRAM bytes on each side.
    pub dram_bytes: (u64, u64),
    /// Per-(phase, axis) cycle rows; deltas sum to the cycle delta exactly.
    pub cycle_rows: Vec<AxisDelta>,
    /// Per-(phase, axis) per-node DRAM rows.
    pub dram_rows: Vec<AxisDelta>,
    /// CHORD counter context: (name, before, after) for hits / misses /
    /// writebacks.
    pub chord: Vec<(&'static str, u64, u64)>,
}

fn axis_rows(before: &[[i64; 3]], after: &[[i64; 3]], names: [&'static str; 3]) -> Vec<AxisDelta> {
    let phases = before.len().max(after.len());
    let zero = [0i64; 3];
    let mut rows = Vec::with_capacity(phases * 3);
    for p in 0..phases {
        let b = before.get(p).unwrap_or(&zero);
        let a = after.get(p).unwrap_or(&zero);
        for (i, &axis) in names.iter().enumerate() {
            rows.push(AxisDelta {
                phase: p,
                axis,
                before: b[i],
                after: a[i],
            });
        }
    }
    rows
}

/// Diffs two reports into the exact attribution. Phase counts may differ
/// (different schedules phase differently) — the shorter side pads with
/// zero rows, preserving the sum identity.
pub fn diff_reports(before: &RunReport, after: &RunReport) -> Explanation {
    Explanation {
        before_label: format!("{}/{}", before.config, before.workload),
        after_label: format!("{}/{}", after.config, after.workload),
        cycles: (before.cycles, after.cycles),
        dram_bytes: (before.dram_bytes, after.dram_bytes),
        cycle_rows: axis_rows(&cycle_axes(before), &cycle_axes(after), CYCLE_AXES),
        dram_rows: axis_rows(&dram_axes(before), &dram_axes(after), DRAM_AXES),
        chord: vec![
            ("hits", before.stats.hits, after.stats.hits),
            ("misses", before.stats.misses, after.stats.misses),
            (
                "writebacks",
                before.stats.writebacks,
                after.stats.writebacks,
            ),
        ],
    }
}

impl Explanation {
    /// Signed cycle change (`after − before`).
    pub fn cycle_delta(&self) -> i64 {
        self.cycles.1 as i64 - self.cycles.0 as i64
    }

    /// Total signed change per cycle axis, across all phases — the
    /// headline attribution. Sums to [`Self::cycle_delta`] exactly.
    pub fn cycle_axis_totals(&self) -> [(&'static str, i64); 3] {
        let mut totals = CYCLE_AXES.map(|a| (a, 0i64));
        for row in &self.cycle_rows {
            if let Some(t) = totals.iter_mut().find(|(a, _)| *a == row.axis) {
                t.1 += row.delta();
            }
        }
        totals
    }

    /// The axis with the largest absolute total change — "what moved".
    pub fn dominant_cycle_axis(&self) -> (&'static str, i64) {
        self.cycle_axis_totals()
            .into_iter()
            .max_by_key(|&(_, d)| d.unsigned_abs())
            .unwrap_or((CYCLE_AXES[0], 0))
    }

    /// Rows of `rows` with a non-zero delta, ranked by absolute change.
    fn ranked(rows: &[AxisDelta]) -> Vec<&AxisDelta> {
        let mut moved: Vec<&AxisDelta> = rows.iter().filter(|r| r.delta() != 0).collect();
        moved.sort_by_key(|r| std::cmp::Reverse(r.delta().unsigned_abs()));
        moved
    }

    /// Renders the ranked attribution table (at most `top` rows per
    /// section).
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== cello_explain: {} -> {} ==",
            self.before_label, self.after_label
        );
        let _ = writeln!(
            out,
            "cycles {} -> {} (delta {:+})",
            self.cycles.0,
            self.cycles.1,
            self.cycle_delta()
        );
        let _ = writeln!(
            out,
            "dram_bytes {} -> {} (delta {:+})",
            self.dram_bytes.0,
            self.dram_bytes.1,
            self.dram_bytes.1 as i64 - self.dram_bytes.0 as i64
        );
        let totals = self.cycle_axis_totals();
        let _ = writeln!(
            out,
            "cycle axis totals: {}",
            totals
                .iter()
                .map(|(a, d)| format!("{a} {d:+}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let denom = self.cycle_delta().unsigned_abs().max(1) as f64;
        let mut section = |title: &str, rows: &[AxisDelta], unit: &str, share: bool| {
            let ranked = Self::ranked(rows);
            if ranked.is_empty() {
                return;
            }
            let _ = writeln!(out, "{title}");
            let _ = writeln!(
                out,
                "  {:<5} {:<6} {:<19} {:>14} {:>14} {:>14}  share",
                "rank", "phase", "axis", "before", "after", "delta"
            );
            for (i, row) in ranked.iter().take(top).enumerate() {
                let pct = if share {
                    format!("{:.1}%", row.delta().unsigned_abs() as f64 / denom * 100.0)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  {:<5} {:<6} {:<19} {:>14} {:>14} {:>+14}  {}",
                    i + 1,
                    row.phase,
                    row.axis,
                    row.before,
                    row.after,
                    row.delta(),
                    pct
                );
            }
            if ranked.len() > top {
                let _ = writeln!(out, "  ... {} more {unit} rows", ranked.len() - top);
            }
        };
        section(
            "cycle attribution (per phase, per axis):",
            &self.cycle_rows,
            "cycle",
            true,
        );
        section(
            "DRAM attribution (per phase, per axis, bytes per node):",
            &self.dram_rows,
            "DRAM",
            false,
        );
        let moved: Vec<String> = self
            .chord
            .iter()
            .filter(|(_, b, a)| a != b)
            .map(|(n, b, a)| format!("{n} {b} -> {a}"))
            .collect();
        if !moved.is_empty() {
            let _ = writeln!(out, "CHORD counters: {}", moved.join(", "));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Record diffing (BENCH_dse.json-shaped flat records)
// ---------------------------------------------------------------------------

/// One changed numeric field of a flat bench record.
#[derive(Clone, Debug)]
pub struct FieldDelta {
    /// Field key (e.g. `tuned_cycles`).
    pub key: String,
    /// Baseline value.
    pub before: f64,
    /// Current value.
    pub after: f64,
}

impl FieldDelta {
    /// Relative change against the baseline magnitude.
    pub fn rel_change(&self) -> f64 {
        (self.after - self.before) / self.before.abs().max(f64::MIN_POSITIVE)
    }
}

/// Diffs two flat `(key, value)` records, returning the fields present on
/// both sides that changed, ranked by absolute relative change. This is the
/// coarse attribution for `BENCH_dse.json` records (which carry totals, not
/// phases): it names *which* measured quantity moved most.
pub fn rank_field_deltas(before: &[(String, f64)], after: &[(String, f64)]) -> Vec<FieldDelta> {
    let mut rows: Vec<FieldDelta> = after
        .iter()
        .filter_map(|(k, a)| {
            let b = before.iter().find(|(bk, _)| bk == k)?.1;
            (*a != b).then(|| FieldDelta {
                key: k.clone(),
                before: b,
                after: *a,
            })
        })
        .collect();
    rows.sort_by(|x, y| {
        y.rel_change()
            .abs()
            .total_cmp(&x.rel_change().abs())
            .then_with(|| x.key.cmp(&y.key))
    });
    rows
}

/// Renders the ranked field-delta table `bench_check` prints when a record
/// regresses.
pub fn render_field_table(label: &str, rows: &[FieldDelta]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if rows.is_empty() {
        let _ = writeln!(out, "  [explain] {label}: no numeric field changed");
        return out;
    }
    let _ = writeln!(out, "  [explain] {label}: attribution by relative change");
    let _ = writeln!(
        out,
        "    {:<5} {:<22} {:>16} {:>16} {:>9}",
        "rank", "field", "baseline", "current", "change"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {:<5} {:<22} {:>16} {:>16} {:>+8.1}%",
            i + 1,
            r.key,
            trim_num(r.before),
            trim_num(r.after),
            r.rel_change() * 100.0
        );
    }
    out
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_core::accel::CelloConfig;
    use cello_core::score::binding::{build_schedule, ScheduleOptions};
    use cello_graph::dag::TensorDag;
    use cello_graph::edge::TensorMeta;
    use cello_graph::node::OpKind;
    use cello_sim::evaluate::evaluate_report;
    use cello_tensor::einsum::EinsumSpec;
    use cello_tensor::shape::RankExtent;

    fn chain(n_ops: usize, words: u64) -> TensorDag {
        let spec = EinsumSpec::parse(
            "mk,kn->mn",
            &[
                RankExtent::dense("m", words / 16),
                RankExtent::dense("k", 16),
                RankExtent::dense("n", 16),
            ],
        );
        let mut dag = TensorDag::new();
        let mut prev = None;
        for i in 0..n_ops {
            let id = dag.add_op(
                format!("op{i}"),
                spec.clone(),
                OpKind::TensorMac,
                TensorMeta::dense(format!("T{i}"), &["m", "n"], words),
            );
            if let Some(p) = prev {
                dag.add_edge(p, id, &["m", "k"]);
            } else {
                dag.add_external(
                    TensorMeta::dense("In", &["m", "k"], words),
                    &[(id, &["m", "k"])],
                );
            }
            prev = Some(id);
        }
        dag
    }

    fn sample_report() -> RunReport {
        let dag = chain(3, 200_000);
        let s = build_schedule(&dag, ScheduleOptions::best_intra());
        evaluate_report(&dag, &s, &CelloConfig::paper())
    }

    #[test]
    fn report_json_round_trips() {
        let r = sample_report();
        let back = report_from_json(&report_to_json(&r)).unwrap();
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.phase_cycles, r.phase_cycles);
        assert_eq!(back.phase_dram_bytes, r.phase_dram_bytes);
        assert_eq!(back.phase_stats, r.phase_stats);
        assert_eq!(back.phase_total_cycles, r.phase_total_cycles);
        assert_eq!(back.stats, r.stats);
        // And through the text layer.
        let doc = reports_doc("test", std::slice::from_ref(&r));
        let parsed = Json::parse(&doc.render()).unwrap();
        let again =
            report_from_json(&parsed.get("reports").unwrap().as_array().unwrap()[0]).unwrap();
        assert_eq!(again.cycles, r.cycles);
        assert_eq!(again.phase_total_cycles, r.phase_total_cycles);
    }

    #[test]
    fn cycle_axes_sum_to_report_total() {
        let r = sample_report();
        assert!(!r.phase_total_cycles.is_empty());
        let total: i64 = cycle_axes(&r).iter().flatten().sum();
        assert_eq!(total, r.cycles as i64);
    }

    #[test]
    fn dram_axes_sum_to_phase_bytes() {
        let r = sample_report();
        for (row, &b) in dram_axes(&r).iter().zip(&r.phase_dram_bytes) {
            assert_eq!(row.iter().sum::<i64>(), b as i64);
        }
    }

    #[test]
    fn diff_rows_sum_to_cycle_delta_even_across_phase_counts() {
        // Different schedules phase differently: best_intra (3 phases) vs
        // cello (1 fused phase). The padded diff must still telescope.
        let dag = chain(3, 200_000);
        let accel = CelloConfig::paper();
        let a = evaluate_report(
            &dag,
            &build_schedule(&dag, ScheduleOptions::best_intra()),
            &accel,
        );
        let b = evaluate_report(
            &dag,
            &build_schedule(&dag, ScheduleOptions::cello()),
            &accel,
        );
        let e = diff_reports(&a, &b);
        let sum: i64 = e.cycle_rows.iter().map(AxisDelta::delta).sum();
        assert_eq!(sum, e.cycle_delta());
        let totals_sum: i64 = e.cycle_axis_totals().iter().map(|&(_, d)| d).sum();
        assert_eq!(totals_sum, e.cycle_delta());
        // The render path never panics and names the totals.
        let text = e.render(5);
        assert!(text.contains("cycle axis totals"));
    }

    #[test]
    fn field_deltas_rank_by_relative_change() {
        let before = vec![
            ("tuned_cycles".to_string(), 100.0),
            ("tuned_dram_bytes".to_string(), 1000.0),
            ("rank_correlation".to_string(), 1.0),
        ];
        let after = vec![
            ("tuned_cycles".to_string(), 150.0),      // +50%
            ("tuned_dram_bytes".to_string(), 1100.0), // +10%
            ("rank_correlation".to_string(), 1.0),    // unchanged
            ("extra".to_string(), 5.0),               // no baseline — dropped
        ];
        let rows = rank_field_deltas(&before, &after);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "tuned_cycles");
        assert!((rows[0].rel_change() - 0.5).abs() < 1e-12);
        assert_eq!(rows[1].key, "tuned_dram_bytes");
        let table = render_field_table("x", &rows);
        assert!(table.contains("tuned_cycles"));
        assert!(table.contains("+50.0%"));
    }
}
