//! The `simulate` workload: sweeps of every Table IV configuration
//! (`ConfigKind::all()`) over cg/fv1 (2 iterations) and bicgstab/NASA4704
//! (1 iteration) at 256 KB SRAM, single-threaded — the figure-regeneration
//! path. The line-granular cache backends do nearly all of the work here.
//! 256 KB holds as many fv1 vectors (3.3) as 4 MB holds G2_circuit ones, so
//! the caches spill as they do on the paper's inputs, while a sweep stays
//! near 0.1 s: a run times every configuration hundreds of times, and the
//! per-configuration minimum finds the host's quiet moments.
//!
//! Each configuration runs as `run_config` composes it: set-up builds the
//! DAGs and every configuration's schedule (`build_schedule`); a sweep gives
//! each schedule a fresh backend (`backend_for`) and runs it on the engine
//! (`run_schedule`). Every sweep must reproduce the first
//! sweep's statistics exactly, and every report's `cycle_axes` rows must sum
//! to its cycles. The seed does not change the inputs: the sweep is the
//! same fixed figure workload every run.

use crate::stats::{self, Metric};
use crate::trace::{self, Tracer};
use crate::{Args, RunResult};
use cello_core::accel::CelloConfig;
use cello_core::score::binding::{build_schedule, Schedule};
use cello_graph::dag::TensorDag;
use cello_sim::baselines::{backend_for, ConfigKind};
use cello_sim::{run_schedule, RunReport};
use cello_workloads::bicgstab::{build_bicgstab_dag, BicgParams};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::{FV1, NASA4704};
use std::time::Instant;

/// Every configuration with its `cello_run --config` name and the span its
/// engine run is recorded under.
const CONFIGS: [(ConfigKind, &str, &str); 7] = [
    (ConfigKind::Flexagon, "flexagon", "sim.run.flexagon"),
    (ConfigKind::FlexLru, "flex-lru", "sim.run.flex-lru"),
    (ConfigKind::FlexBrrip, "flex-brrip", "sim.run.flex-brrip"),
    (ConfigKind::Flat, "flat", "sim.run.flat"),
    (ConfigKind::SetLike, "set", "sim.run.set"),
    (ConfigKind::PreludeOnly, "prelude", "sim.run.prelude"),
    (ConfigKind::Cello, "cello", "sim.run.cello"),
];

/// A DAG with its name and the schedule of every configuration, in
/// `CONFIGS` order.
type Input = (&'static str, TensorDag, Vec<Schedule>);

fn setup(tr: &mut Tracer) -> Vec<Input> {
    let dags = [
        (
            "cg/fv1",
            tr.span("workloads.dag_build", |_| {
                build_cg_dag(&CgParams::from_dataset(&FV1, 16, 2))
            }),
        ),
        (
            "bicgstab/NASA4704",
            tr.span("workloads.dag_build", |_| {
                build_bicgstab_dag(&BicgParams::from_dataset(&NASA4704, 16, 1))
            }),
        ),
    ];
    dags.map(|(name, dag)| {
        let schedules = CONFIGS
            .map(|(kind, _, _)| {
                tr.span("sim.build_schedule", |_| {
                    build_schedule(&dag, kind.schedule_options())
                })
            })
            .to_vec();
        (name, dag, schedules)
    })
    .into()
}

fn simulate(
    tr: &mut Tracer,
    (workload, dag, schedules): &Input,
    i: usize,
    accel: &CelloConfig,
) -> RunReport {
    let (kind, _, span) = CONFIGS[i];
    let mut backend = tr.span("mem.backend", |_| backend_for(dag, kind, accel));
    tr.span(span, |_| {
        run_schedule(
            dag,
            &schedules[i],
            accel,
            backend.as_mut(),
            kind.label(),
            workload,
        )
    })
}

/// Everything a later sweep must reproduce bit for bit.
fn statistics(r: &RunReport) -> (u64, u64, u64, Vec<u64>, Vec<u64>, u64) {
    (
        r.cycles,
        r.dram_bytes,
        r.noc_hop_bytes,
        r.phase_total_cycles.clone(),
        r.phase_dram_bytes.clone(),
        (r.offchip_energy_pj + r.onchip_energy_pj + r.noc_energy_pj).to_bits(),
    )
}

fn check(r: &RunReport, reference: Option<&RunReport>) -> Option<String> {
    let axes: i64 = cello_bench::explain::cycle_axes(r)
        .iter()
        .map(|row| row.iter().sum::<i64>())
        .sum();
    if axes != r.cycles as i64 {
        return Some(format!(
            "{} on {}: cycle axes sum to {axes}, report says {}",
            r.config, r.workload, r.cycles
        ));
    }
    match reference {
        Some(first) if statistics(first) != statistics(r) => Some(format!(
            "{} on {}: statistics differ from the first sweep",
            r.config, r.workload
        )),
        _ => None,
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let accel = CelloConfig::paper().with_sram_bytes(256 << 10);
    let mut tr = Tracer::new(args.trace);
    // Set-up runs once here and again before every sweep, so its median
    // samples the whole run rather than one moment of it. Each timed
    // set-up follows an untimed one: timed straight after a sweep, it would
    // start on caches the sweep had filled, and read the memory system more
    // than the set-up.
    let mut setup_s = Vec::new();
    let inputs = crate::timed(&mut setup_s, || Ok(setup(&mut tr)))?;
    let mut result = RunResult::default();

    // Warm-up (untimed): one whole sweep.
    for input in &inputs {
        for i in 0..CONFIGS.len() {
            std::hint::black_box(simulate(&mut Tracer::new(false), input, i, &accel));
        }
    }

    // Host time of every (DAG, configuration) run, one sample per sweep.
    let mut runs_ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.len() * CONFIGS.len()];
    let mut sweeps = 0;
    let mut first: Vec<RunReport> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        std::hint::black_box(setup(&mut Tracer::new(false)));
        crate::timed(&mut setup_s, || Ok(setup(&mut Tracer::new(false))))?;
        sweeps += 1;
        tr.set_trace_id(sweeps);
        let reports: Vec<RunReport> = tr.span("sim.sweep", |tr| {
            inputs
                .iter()
                .flat_map(|input| (0..CONFIGS.len()).map(move |i| (input, i)))
                .zip(&mut runs_ms)
                .map(|((input, i), times)| {
                    let t = Instant::now();
                    let report = simulate(tr, input, i, &accel);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    report
                })
                .collect()
        });
        for (i, r) in reports.iter().enumerate() {
            result.check(check(r, first.get(i)));
        }
        if first.is_empty() {
            first = reports;
        }
    }

    // Simulated quality of the paper's design against its Flexagon baseline
    // (deterministic model outputs, one pair per DAG).
    let of = |kind: ConfigKind| first.iter().filter(move |r| r.config == kind.label());
    let (mut speedups, mut traffic) = (Vec::new(), Vec::new());
    for (flex, cello) in of(ConfigKind::Flexagon).zip(of(ConfigKind::Cello)) {
        speedups.push(flex.cycles as f64 / cello.cycles.max(1) as f64);
        traffic.push(cello.dram_bytes as f64 / flex.dram_bytes.max(1) as f64);
    }
    // A sweep at every run's fastest host time: the host drifts between
    // speed states for minutes at a time and its noise only ever adds time,
    // so per-run minimums stay steady where medians move with the drift.
    let n = sweeps as usize;
    let busy_s = runs_ms.iter().flatten().sum::<f64>() / 1e3;
    let sweep_ms: f64 = runs_ms.iter().map(|t| stats::min(t)).sum();
    let sweep_totals: Vec<f64> = (0..n).map(|k| runs_ms.iter().map(|t| t[k]).sum()).collect();
    result.e2e = vec![
        Metric::new("op_ms", sweep_ms, "ms", n),
        Metric::new(
            "speedup_geomean",
            stats::geomean(&speedups),
            "x",
            speedups.len(),
        ),
        Metric::new(
            "traffic_ratio_geomean",
            stats::geomean(&traffic),
            "x",
            traffic.len(),
        ),
        Metric::new("setup_s", stats::median(&setup_s), "s", setup_s.len()),
    ];
    result.named = vec![Metric::new(
        "sweep_s",
        stats::median(&sweep_totals) / 1e3,
        "s",
        n,
    )];

    if args.trace {
        let times = tr.self_times();
        let per_sweep_ms =
            |span: &str| times.get(span).map_or(0.0, |t| t.0) / n.max(1) as f64 / 1e3;
        let calls = |span: &str| times.get(span).map_or(0, |t| t.1) as usize;
        let mut layers = vec![
            Metric::new(
                "workloads.dag_build_us",
                tr.self_us(&times, "workloads.dag_build"),
                "us",
                calls("workloads.dag_build"),
            ),
            Metric::new(
                "sim.build_schedule_us",
                tr.self_us(&times, "sim.build_schedule"),
                "us",
                calls("sim.build_schedule"),
            ),
            Metric::new(
                "mem.backend_us",
                tr.self_us(&times, "mem.backend"),
                "us",
                calls("mem.backend"),
            ),
        ];
        for (kind, name, span) in CONFIGS {
            layers.push(Metric::new(
                format!("sim.run_ms.{name}"),
                per_sweep_ms(span),
                "ms",
                n,
            ));
            let bytes: u64 = first
                .iter()
                .filter(|r| r.config == kind.label())
                .map(|r| r.dram_bytes)
                .sum();
            layers.push(Metric::new(
                format!("sim.dram_bytes.{name}"),
                bytes as f64,
                "B",
                inputs.len(),
            ));
        }
        let overhead = 100.0 * tr.len() as f64 * trace::span_cost_us() / (busy_s * 1e6);
        layers.push(Metric::new(
            "obs.trace_overhead_pct",
            overhead,
            "%",
            tr.len(),
        ));
        result.layers = layers;
        crate::write_trace("simulate", &tr)?;
    }
    Ok(result)
}
