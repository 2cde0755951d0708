//! `cellobench` — the repository benchmark: host time and simulated
//! quality of the three ways this repository is used.
//!
//! ```sh
//! cargo run --release --manifest-path cellobench/Cargo.toml -- \
//!     --workload tune|simulate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the `tune` and `serve` workloads read the
//! `data/*.mtx` fixtures). Every workload builds its inputs from `--seed`,
//! sets up several times (reporting the median as `setup_s`), warms up
//! untimed, then measures for `--seconds` and checks every output. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines above it print every metric
//! by name with its unit and sample count.
//!
//! `--trace 1` is a separate run: it records spans around the calls this
//! benchmark makes into each layer, writes them as a Chrome trace under
//! `cellobench/out/`, and reports per-layer self time plus the measured
//! tracing overhead. Simulated quantities (cycles, bytes) come from an
//! unvalidated model: the repository holds no hardware measurements, so no
//! error figure is given for them.

mod serve;
mod simulate;
mod stats;
mod trace;
mod tune;

use stats::Metric;
use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;

/// End-to-end metrics every workload reports (untraced run).
const END_TO_END: [(&str, &str); 5] = [
    ("op_ms", "ms"),
    ("speedup_geomean", "x"),
    ("traffic_ratio_geomean", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run). A workload that never reaches a layer
/// reports 0 for it: the run made no call into that layer.
const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.dag_build_us", "us"),
    ("workloads.mtx_load_us", "us"),
    ("core.classify_us", "us"),
    ("core.build_us", "us"),
    ("core.build_calls", "count"),
    ("search.space_us", "us"),
    ("search.tier0_model_us", "us"),
    ("search.tier0_sweep_us", "us"),
    ("search.tier0_swept", "count"),
    ("search.tier0_kept", "count"),
    ("search.key_us", "us"),
    ("search.surrogate_us", "us"),
    ("search.surrogate_calls", "count"),
    ("search.tuner_us", "us"),
    ("search.distinct_ratio", "ratio"),
    ("search.evaluations", "count"),
    ("search.cache_hits", "count"),
    ("sim.evaluate_us", "us"),
    ("sim.evaluate_calls", "count"),
    ("sim.build_schedule_us", "us"),
    ("mem.backend_us", "us"),
    ("sim.run_ms.flexagon", "ms"),
    ("sim.run_ms.flex-lru", "ms"),
    ("sim.run_ms.flex-brrip", "ms"),
    ("sim.run_ms.flat", "ms"),
    ("sim.run_ms.set", "ms"),
    ("sim.run_ms.prelude", "ms"),
    ("sim.run_ms.cello", "ms"),
    ("sim.dram_bytes.flexagon", "B"),
    ("sim.dram_bytes.flex-lru", "B"),
    ("sim.dram_bytes.flex-brrip", "B"),
    ("sim.dram_bytes.flat", "B"),
    ("sim.dram_bytes.set", "B"),
    ("sim.dram_bytes.prelude", "B"),
    ("sim.dram_bytes.cello", "B"),
    ("serve.parse_us", "us"),
    ("search.fingerprint_us", "us"),
    ("serve.store_lookup_us", "us"),
    ("serve.build_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.tune_us", "us"),
    ("serve.coalesce_us", "us"),
    ("serve.store_insert_us", "us"),
    ("serve.hits", "count"),
    ("serve.warm", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.store_records", "count"),
    ("obs.trace_overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunResult {
    /// End-to-end metrics (all of [`END_TO_END`] but `peak_rss_mb`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// The workload's own metrics under their workload-specific names,
    /// printed for reading; the gated set is `e2e`.
    pub named: Vec<Metric>,
    /// Operations attempted and how many failed their output check.
    pub attempted: u64,
    pub failed: u64,
}

impl RunResult {
    /// Counts one attempted operation, failing it with `why` when `err` is
    /// set.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(why) = err {
            if self.failed < 5 {
                eprintln!("cellobench: check failed: {why}");
            }
            self.failed += 1;
        }
    }
}

const USAGE: &str =
    "usage: cellobench --workload tune|simulate|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Args {
    let mut found: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag[2..].to_string(),
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                exit(2);
            }
        };
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            exit(2);
        };
        found.insert(key, value);
    }
    let get = |k: &str| {
        found.get(k).cloned().unwrap_or_else(|| {
            eprintln!("missing --{k}\n{USAGE}");
            exit(2);
        })
    };
    let number = |k: &str| {
        get(k).parse::<u64>().unwrap_or_else(|_| {
            eprintln!("--{k} needs a non-negative integer\n{USAGE}");
            exit(2);
        })
    };
    let args = Args {
        workload: get("workload"),
        seed: number("seed"),
        seconds: number("seconds").max(1) as f64,
        trace: match get("trace").as_str() {
            "0" => false,
            "1" => true,
            other => {
                eprintln!("--trace must be 0 or 1, not {other:?}\n{USAGE}");
                exit(2);
            }
        },
    };
    if !["tune", "simulate", "serve"].contains(&args.workload.as_str()) {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        exit(2);
    }
    args
}

/// Runs one set-up, appending its duration in seconds to `times`.
pub fn timed<T>(
    times: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let t = Instant::now();
    let value = setup()?;
    times.push(t.elapsed().as_secs_f64());
    Ok(value)
}

/// Where traced runs write their Chrome traces, relative to the checkout.
pub const OUT_DIR: &str = "cellobench/out";

/// Writes a traced run's spans as a Chrome trace (Perfetto-ready).
pub fn write_trace(workload: &str, tracer: &trace::Tracer) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, tracer.chrome()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("[trace] {} spans -> {path}", tracer.len());
    Ok(())
}

fn json_number(v: f64) -> String {
    // `Display` for f64 prints the shortest round-tripping decimal, never
    // an exponent, so every measured digit survives.
    format!("{v}")
}

fn main() {
    let args = parse_args();
    let result = match args.workload.as_str() {
        "tune" => tune::run(&args),
        "simulate" => simulate::run(&args),
        _ => serve::run(&args),
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cellobench {}: {e}", args.workload);
            exit(1);
        }
    };
    result
        .e2e
        .push(Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB", 1));

    println!(
        "== cellobench --workload {} --seed {} --seconds {} --trace {} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let failed_frac = result.failed as f64 / result.attempted.max(1) as f64;
    let mut shown = result.named.clone();
    shown.push(Metric::new(
        "failed_frac",
        failed_frac,
        "frac",
        result.attempted as usize,
    ));
    shown.extend(result.e2e.iter().cloned());
    shown.extend(result.layers.iter().cloned());
    for m in &shown {
        println!("{:<30} {:>18.6} {:<6} (n={})", m.name, m.value, m.unit, m.n);
    }

    let (table, reported): (&[(&str, &str)], &[Metric]) = if args.trace {
        (&PER_LAYER, &result.layers)
    } else {
        (&END_TO_END, &result.e2e)
    };
    let by_name: BTreeMap<&str, &Metric> = reported.iter().map(|m| (m.name.as_str(), m)).collect();
    for m in reported {
        assert!(
            table.iter().any(|(name, _)| *name == m.name),
            "metric {} is not in the benchmark's table",
            m.name
        );
    }
    let mut errors = Vec::new();
    if result.attempted == 0 {
        errors.push("no operation was attempted".to_string());
    }
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = match by_name.get(name) {
            Some(m) => {
                assert_eq!(m.unit, *unit, "unit of {name}");
                m.value
            }
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !value.is_finite() {
            errors.push(format!("{name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for e in &errors {
        eprintln!("cellobench: {e}");
    }
    let correct = result.failed == 0 && errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
}
