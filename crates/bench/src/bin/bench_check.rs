//! `bench_check` — the CI perf-regression gate over the bench trajectories.
//!
//! Compares freshly-written trajectory files (`BENCH_dse.json` from
//! `cello_dse`, `BENCH_serve.json` from `loadgen --quick`) against
//! the committed `results/bench_baseline.json` and fails (exit 1) when any
//! record regresses. Records are field-generic — each `(workload, nodes)`
//! record is gated only on the fields it actually carries:
//!
//! | field | gate |
//! |---|---|
//! | `failed` | absolute: must be 0 |
//! | `tuned_cycles` | ≤ 1.10× its baseline value |
//! | `tuned_traffic_bytes` | ≤ 1.10× its baseline value |
//! | `hit_rate` | ≥ baseline − 0.10 (absolute drop) |
//! | `candidates_seen` | ≥ 0.50× its baseline value |
//! | `candidates_per_sec` | per family: the family's rate ≥ 0.25× its baseline rate |
//!
//! The two candidate-throughput floors guard the tier-0 funnel's reason to
//! exist: `candidates_seen` is machine-independent (a deterministic sweep
//! can only shrink if someone narrows the funnel), so its floor is tight;
//! `candidates_per_sec` is machine-dependent, so its floor is loose — it
//! only trips on an asymptotic regression (e.g. a per-candidate allocation
//! sneaking back into the sketch loop), not on a slow CI runner. It is
//! gated over a whole workload family, not per record: a record times one
//! tune of tens of milliseconds, which one stall of a shared host can slow
//! past the floor. A family's rate is `Σ seen / Σ (seen / rate)` over its
//! records that have a baseline, the candidates of the whole trajectory
//! over its total tuning time, and the baseline side takes the same sum
//! over the same records. Each record's own rate is still printed, and a
//! baseline record that carries the field must still carry it.
//!
//! Everything else (latency percentiles, throughput, `hit_speedup`) is
//! machine-dependent: reported, never gated — the *machine-independent*
//! serving bar (zero failures, ≥ 50% hit rate, ≥ 100× hit speedup) is
//! enforced by `loadgen --quick` itself.
//!
//! Coverage is part of the contract, scoped per workload family: a baseline
//! record whose name family (the prefix before `/`) appears in the current
//! run but which itself has no current counterpart means a workload
//! silently fell out of that trajectory — a failure. Families absent from
//! the current run entirely are ignored, so the DSE gate and the serve gate
//! can run in separate CI jobs against the one committed baseline.
//!
//! When a record trips a gate, the failure names the symptom; the
//! attribution table printed alongside it (via [`cello_bench::explain`])
//! names the cause — every numeric field the record shares with its
//! baseline, ranked by relative change, so a cycles regression shows up
//! next to the traffic/eval fields that moved with it. For the
//! per-phase, per-axis view, capture full reports with `cello_run
//! --report-out` and diff them with `cello_explain`.
//!
//! To refresh the baseline after an intentional change: re-run the quick
//! trajectories and merge their `workloads` arrays into
//! `results/bench_baseline.json` (commit the diff with the reason).
//!
//! Usage: `bench_check [current.json ...] [baseline.json]` — the last path
//! is the baseline; earlier ones are current trajectories (defaults:
//! `BENCH_dse.json` plus `BENCH_serve.json` when present, vs
//! `results/bench_baseline.json`).

use cello_obs::json::Json;

/// Allowed relative regression on cycles and traffic.
const TOLERANCE: f64 = 0.10;
/// Allowed absolute drop in cache hit rate.
const HIT_RATE_DROP: f64 = 0.10;
/// Floor on candidates considered, relative to baseline (deterministic).
const SEEN_FLOOR: f64 = 0.50;
/// Floor on candidate throughput, relative to baseline (machine-dependent,
/// so deliberately loose: catches asymptotic regressions only).
const THROUGHPUT_FLOOR: f64 = 0.25;

struct Record {
    name: String,
    nodes: u64,
    fields: Vec<(String, f64)>,
}

impl Record {
    fn label(&self) -> String {
        format!("{}@{}n", self.name, self.nodes)
    }

    fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Workload family: the name prefix before the first `/`.
    fn family(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }
}

fn load(path: &str) -> Vec<Record> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_check: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let workloads = doc
        .get("workloads")
        .and_then(|w| w.as_array())
        .unwrap_or_else(|| {
            eprintln!("bench_check: {path} has no \"workloads\" array");
            std::process::exit(1);
        });
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let name = w
                .get("name")
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| {
                    eprintln!("bench_check: {path}: record {i} has no name");
                    std::process::exit(1);
                })
                .to_string();
            let nodes = w.get("nodes").and_then(|v| v.as_f64()).unwrap_or_else(|| {
                eprintln!("bench_check: {path}: {name} (record {i}) missing numeric \"nodes\"");
                std::process::exit(1);
            }) as u64;
            let fields = match w {
                Json::Obj(members) => members
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect(),
                _ => Vec::new(),
            };
            Record {
                name,
                nodes,
                fields,
            }
        })
        .collect()
}

/// Candidates seen and the time they took, summed over records: a rate
/// over a whole trajectory.
#[derive(Default)]
struct Rate {
    seen: f64,
    seconds: f64,
}

impl Rate {
    /// Adds a record that saw `seen` candidates at `rate` per second.
    fn add(&mut self, seen: f64, rate: f64) {
        self.seen += seen;
        self.seconds += seen / rate.max(f64::MIN_POSITIVE);
    }

    fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.seen / self.seconds
        } else {
            0.0
        }
    }
}

/// `name@Nn` labels of a record set, sorted — the two sides of the coverage
/// diff.
fn record_keys(records: &[Record]) -> Vec<String> {
    let mut keys: Vec<String> = records.iter().map(Record::label).collect();
    keys.sort();
    keys
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (current_paths, baseline_path): (Vec<String>, String) = match args.len() {
        0 => {
            let mut currents = vec!["BENCH_dse.json".to_string()];
            if std::path::Path::new("BENCH_serve.json").exists() {
                currents.push("BENCH_serve.json".into());
            }
            (currents, "results/bench_baseline.json".into())
        }
        1 => (args.clone(), "results/bench_baseline.json".into()),
        _ => {
            let (currents, baseline) = args.split_at(args.len() - 1);
            (currents.to_vec(), baseline[0].clone())
        }
    };
    let current: Vec<Record> = current_paths.iter().flat_map(|p| load(p)).collect();
    let baseline = load(&baseline_path);

    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;
    // Per family: the current and baseline rates over the same records, and
    // how many records.
    let mut throughput: std::collections::BTreeMap<String, (Rate, Rate, usize)> =
        Default::default();
    println!(
        "== bench_check: {} vs {baseline_path} ==",
        current_paths.join(" + ")
    );
    for cur in &current {
        let label = cur.label();
        // Absolute gates: hold whether or not a baseline record exists.
        if let Some(failed) = cur.field("failed") {
            if failed > 0.0 {
                failures.push(format!("{label}: {failed:.0} failed requests (must be 0)"));
            }
        }
        let Some(base) = baseline
            .iter()
            .find(|b| b.name == cur.name && b.nodes == cur.nodes)
        else {
            println!("  {label}: no baseline (new workload) — skipped");
            continue;
        };
        compared += 1;
        let failures_before_record = failures.len();
        // Every gated field the baseline record carries must still be
        // present on the current side: a renamed or dropped field would
        // otherwise skip its gate silently, and "CI green because the
        // regression stopped being measured" is exactly what this tool
        // exists to prevent. (The old schema-rigid loader hard-failed on
        // missing fields; the field-generic one keeps that property
        // per-field.)
        for key in [
            "tuned_cycles",
            "tuned_traffic_bytes",
            "hit_rate",
            "failed",
            "candidates_seen",
            "candidates_per_sec",
        ] {
            if base.field(key).is_some() && cur.field(key).is_none() {
                failures.push(format!(
                    "{label}: gated field {key:?} present in baseline but missing from current run"
                ));
            }
        }
        // Relative gates, per field present on both sides.
        let mut shown: Vec<String> = Vec::new();
        for (key, &(cap, is_ratio)) in [
            ("tuned_cycles", &(1.0 + TOLERANCE, true)),
            ("tuned_traffic_bytes", &(1.0 + TOLERANCE, true)),
            ("hit_rate", &(HIT_RATE_DROP, false)),
        ] {
            let (Some(c), Some(b)) = (cur.field(key), base.field(key)) else {
                continue;
            };
            if is_ratio {
                let ratio = c / b.max(1.0);
                shown.push(format!("{key} {c:.0} ({ratio:.3}x)"));
                if ratio > cap {
                    failures.push(format!(
                        "{label}: {key} regressed {ratio:.3}x (> {cap:.2}x)"
                    ));
                }
            } else {
                shown.push(format!("{key} {c:.3} (base {b:.3})"));
                if c < b - cap {
                    failures.push(format!(
                        "{label}: {key} dropped to {c:.3} (baseline {b:.3}, tolerance -{cap:.2})"
                    ));
                }
            }
        }
        // Ratio floor: the sweep must not *shrink* below a fraction of
        // baseline.
        if let (Some(c), Some(b)) = (cur.field("candidates_seen"), base.field("candidates_seen")) {
            let ratio = c / b.max(1.0);
            shown.push(format!("candidates_seen {c:.0} ({ratio:.3}x)"));
            if ratio < SEEN_FLOOR {
                failures.push(format!(
                    "{label}: candidates_seen fell to {ratio:.3}x of baseline (< {SEEN_FLOOR:.2}x floor)"
                ));
            }
        }
        // The record's rate is shown here and gated over its family below.
        if let (Some(c), Some(b)) = (
            cur.field("candidates_per_sec"),
            base.field("candidates_per_sec"),
        ) {
            shown.push(format!(
                "candidates_per_sec {c:.0} ({:.3}x)",
                c / b.max(1.0)
            ));
            if let (Some(cs), Some(bs)) =
                (cur.field("candidates_seen"), base.field("candidates_seen"))
            {
                let (current, baseline, records) =
                    throughput.entry(cur.family().to_string()).or_default();
                current.add(cs, c);
                baseline.add(bs, b);
                *records += 1;
            }
        }
        // Reported-only context, when present.
        for key in [
            "p50_micros",
            "p95_micros",
            "p99_us",
            "coalesced_requests",
            "throughput_rps",
            "hit_speedup",
        ] {
            if let Some(v) = cur.field(key) {
                shown.push(format!("{key} {v:.3}"));
            }
        }
        println!("  {label}: {}", shown.join(", "));
        // A tripped gate names the symptom; the attribution table names
        // what moved. Printed only on failure so green runs stay terse.
        if failures.len() > failures_before_record {
            let rows = cello_bench::explain::rank_field_deltas(&base.fields, &cur.fields);
            print!(
                "{}",
                cello_bench::explain::render_field_table(&label, &rows)
            );
        }
    }
    // Throughput floor, per family over its whole trajectory.
    for (family, (current, baseline, records)) in &throughput {
        let ratio = current.rate() / baseline.rate().max(1.0);
        println!(
            "  {family}: candidates_per_sec {:.0} over {records} records ({ratio:.3}x)",
            current.rate()
        );
        if ratio < THROUGHPUT_FLOOR {
            failures.push(format!(
                "{family}: candidates_per_sec fell to {ratio:.3}x of baseline (< {THROUGHPUT_FLOOR:.2}x floor)"
            ));
        }
    }
    // Coverage within the families this run produced: a baseline record
    // with no current counterpart means a workload silently fell out of the
    // trajectory — exactly the kind of regression this gate exists to
    // catch. Removing a workload intentionally requires refreshing the
    // baseline. Families entirely absent from the current run (e.g. the
    // serve records during a dse-only gate) are out of scope.
    let current_families: std::collections::HashSet<&str> =
        current.iter().map(Record::family).collect();
    let missing: Vec<String> = baseline
        .iter()
        .filter(|b| current_families.contains(b.family()))
        .filter(|b| {
            !current
                .iter()
                .any(|c| c.name == b.name && c.nodes == b.nodes)
        })
        .map(|b| b.label())
        .collect();
    if !missing.is_empty() {
        failures.push(format!(
            "baseline records missing from current run: [{}]\n    current has:  [{}]\n    baseline has: [{}]",
            missing.join(", "),
            record_keys(&current).join(", "),
            record_keys(&baseline).join(", "),
        ));
    }
    if compared == 0 {
        failures.push("no (workload, nodes) records matched the baseline".into());
    }
    if failures.is_empty() {
        println!("bench_check OK: {compared} records within tolerance");
    } else {
        eprintln!("bench_check FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
