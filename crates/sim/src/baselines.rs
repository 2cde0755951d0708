//! The Table IV configuration registry and Table II capability matrix.
//!
//! Each [`ConfigKind`] pairs a scheduler (a `ScheduleOptions` preset) with a
//! buffer hierarchy (a backend), reproducing the paper's evaluated
//! combinations:
//!
//! | kind | schedule | buffer |
//! |---|---|---|
//! | `Flexagon` | best intra-layer (oracle op-by-op) | explicit |
//! | `FlexLru` / `FlexBrrip` | best intra-layer | LRU / BRRIP cache |
//! | `Flat` | adjacent pipelining (sole consumer) | explicit |
//! | `SetLike` | pipelining + delayed hold | explicit |
//! | `PreludeOnly` | best intra-layer | PRELUDE SRAM |
//! | `Cello` | SCORE | CHORD |

use crate::backends::{CacheBackend, ChordBackend, ExplicitBackend, MemoryBackend};
use crate::engine::run_schedule;
use crate::report::RunReport;
use crate::trace::AddressMap;
use cello_core::accel::CelloConfig;
use cello_core::score::binding::{build_schedule_with, ScheduleConstraints, ScheduleOptions};
use cello_core::score::multinode::Partition;
use cello_graph::dag::TensorDag;
use cello_mem::cache::{BrripPolicy, LruPolicy};

/// One Table IV row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// Best intra-layer schedule + explicit buffers (oracle op-by-op).
    Flexagon,
    /// Best intra-layer schedule through an LRU cache.
    FlexLru,
    /// Best intra-layer schedule through a BRRIP cache.
    FlexBrrip,
    /// FLAT-like adjacent pipelining.
    Flat,
    /// SET-like pipelining + delayed hold.
    SetLike,
    /// PRELUDE-only SRAM (§VII-C3 ablation).
    PreludeOnly,
    /// CELLO: SCORE + CHORD.
    Cello,
}

impl ConfigKind {
    /// The five main-result configurations (Fig 12/13/14).
    pub fn main_set() -> Vec<ConfigKind> {
        vec![
            ConfigKind::Flexagon,
            ConfigKind::FlexLru,
            ConfigKind::FlexBrrip,
            ConfigKind::Flat,
            ConfigKind::Cello,
        ]
    }

    /// All seven (adds SET for Fig 16a and PRELUDE-only for Fig 16c).
    pub fn all() -> Vec<ConfigKind> {
        vec![
            ConfigKind::Flexagon,
            ConfigKind::FlexLru,
            ConfigKind::FlexBrrip,
            ConfigKind::Flat,
            ConfigKind::SetLike,
            ConfigKind::PreludeOnly,
            ConfigKind::Cello,
        ]
    }

    /// Table IV display name.
    pub fn label(&self) -> &'static str {
        match self {
            ConfigKind::Flexagon => "Flexagon",
            ConfigKind::FlexLru => "Flex+LRU",
            ConfigKind::FlexBrrip => "Flex+BRRIP",
            ConfigKind::Flat => "FLAT",
            ConfigKind::SetLike => "SET",
            ConfigKind::PreludeOnly => "PRELUDE-only",
            ConfigKind::Cello => "CELLO",
        }
    }

    /// The scheduler preset for this configuration.
    pub fn schedule_options(&self) -> ScheduleOptions {
        match self {
            ConfigKind::Flexagon | ConfigKind::FlexLru | ConfigKind::FlexBrrip => {
                ScheduleOptions::best_intra()
            }
            ConfigKind::Flat => ScheduleOptions::flat(),
            ConfigKind::SetLike => ScheduleOptions::set_like(),
            ConfigKind::PreludeOnly => ScheduleOptions::prelude_only(),
            ConfigKind::Cello => ScheduleOptions::cello(),
        }
    }
}

/// Table II capability row (`paper_results` prints it as `tab02_score`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Intra-operation reuse.
    pub intra_op: bool,
    /// Parallel multicast.
    pub parallel_multicast: bool,
    /// Inter-operation pipelining.
    pub pipelining: bool,
    /// Delayed-hold dependencies.
    pub delayed_hold: bool,
    /// Delayed-writeback dependencies.
    pub delayed_writeback: bool,
    /// Swizzle minimization.
    pub swizzle_minimization: bool,
    /// Partly implicit buffer.
    pub part_implicit_buffer: bool,
}

impl ConfigKind {
    /// Capability flags, derived from the schedule options and backend.
    pub fn capabilities(&self) -> Capabilities {
        let o = self.schedule_options();
        use cello_core::score::binding::PipelineScope;
        Capabilities {
            intra_op: true,
            parallel_multicast: o.enable_multicast,
            pipelining: o.scope != PipelineScope::None,
            delayed_hold: o.enable_hold,
            delayed_writeback: o.enable_chord && *self == ConfigKind::Cello,
            swizzle_minimization: *self == ConfigKind::Cello,
            part_implicit_buffer: matches!(self, ConfigKind::Cello | ConfigKind::PreludeOnly),
        }
    }
}

/// Runs one configuration on one workload DAG under `accel`.
///
/// ```
/// use cello_core::accel::CelloConfig;
/// use cello_sim::baselines::{run_config, ConfigKind};
/// use cello_workloads::gcn::{build_gcn_dag, GcnParams};
/// use cello_workloads::datasets::CORA;
///
/// let dag = build_gcn_dag(&GcnParams::from_dataset(&CORA, 1));
/// let accel = CelloConfig::paper();
/// let cello = run_config(&dag, ConfigKind::Cello, &accel, "cora");
/// let flat = run_config(&dag, ConfigKind::Flat, &accel, "cora");
/// // On GNNs the single intermediate pipelines: CELLO ties FLAT (Fig 13).
/// assert_eq!(cello.dram_bytes, flat.dram_bytes);
/// ```
pub fn run_config(
    dag: &TensorDag,
    kind: ConfigKind,
    accel: &CelloConfig,
    workload: &str,
) -> RunReport {
    run_partitioned(dag, kind, accel, Partition::single(), workload)
}

/// Runs one configuration with its schedule built under a multi-node
/// `partition` (§V-B). A 1-node partition is the single-node schedule, so
/// this is [`run_config`] there.
pub fn run_partitioned(
    dag: &TensorDag,
    kind: ConfigKind,
    accel: &CelloConfig,
    partition: Partition,
    workload: &str,
) -> RunReport {
    let schedule = build_schedule_with(
        dag,
        kind.schedule_options(),
        &ScheduleConstraints::partitioned(partition),
    );
    debug_assert!(schedule.validate(dag).is_ok());
    let mut backend = backend_for(dag, kind, accel);
    run_schedule(
        dag,
        &schedule,
        accel,
        backend.as_mut(),
        kind.label(),
        workload,
    )
}

/// The buffer hierarchy (Table IV column) a configuration runs against.
/// Exposed so a caller that builds its own schedule runs it against the
/// same backend [`run_partitioned`] would pick.
pub fn backend_for(
    dag: &TensorDag,
    kind: ConfigKind,
    accel: &CelloConfig,
) -> Box<dyn MemoryBackend> {
    match kind {
        ConfigKind::Flexagon | ConfigKind::Flat | ConfigKind::SetLike => {
            Box::new(ExplicitBackend::new(accel.word_bytes))
        }
        ConfigKind::FlexLru => Box::new(CacheBackend::<LruPolicy>::new(
            accel.cache_config(),
            AddressMap::build(dag, accel.word_bytes),
            accel.word_bytes,
        )),
        ConfigKind::FlexBrrip => Box::new(CacheBackend::<BrripPolicy>::new(
            accel.cache_config(),
            AddressMap::build(dag, accel.word_bytes),
            accel.word_bytes,
        )),
        ConfigKind::PreludeOnly => Box::new(ChordBackend::new(accel.prelude_only_config())),
        ConfigKind::Cello => Box::new(ChordBackend::new(accel.chord_config())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_workloads::cg::{build_cg_dag, CgParams};
    use cello_workloads::gcn::{build_gcn_dag, GcnParams};
    use cello_workloads::resnet::{build_resnet_block_dag, ResNetBlockParams};

    fn small_cg(n: u64, iterations: u32) -> TensorDag {
        build_cg_dag(&CgParams {
            m: 20_000,
            occupancy: 4.0,
            a_payload_words: 2 * 80_000 + 20_001,
            n,
            nprime: n,
            iterations,
            a_occupancy: None,
        })
    }

    /// Core paper result: on CG, CELLO moves strictly less DRAM data than
    /// FLAT, which (on CG) equals Flexagon; caches land in between or worse.
    #[test]
    fn cg_traffic_ordering() {
        let dag = small_cg(16, 4);
        let accel = CelloConfig::paper();
        let flexagon = run_config(&dag, ConfigKind::Flexagon, &accel, "cg");
        let flat = run_config(&dag, ConfigKind::Flat, &accel, "cg");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        assert_eq!(
            flat.dram_bytes, flexagon.dram_bytes,
            "FLAT degenerates to op-by-op on CG"
        );
        assert!(
            cello.dram_bytes < flexagon.dram_bytes / 2,
            "CELLO {} vs Flexagon {}",
            cello.dram_bytes,
            flexagon.dram_bytes
        );
    }

    /// CELLO is at least as fast as every baseline on CG and reaches the
    /// paper's >2x regime against the explicit oracle on a buffer-friendly
    /// problem size.
    #[test]
    fn cg_speedup_direction() {
        let dag = small_cg(16, 4);
        let accel = CelloConfig::paper();
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        for kind in [ConfigKind::Flexagon, ConfigKind::Flat] {
            let base = run_config(&dag, kind, &accel, "cg");
            let speedup = cello.speedup_over(&base);
            assert!(speedup > 2.0, "{}: speedup {speedup}", kind.label());
        }
    }

    /// On GNNs the intermediate is purely pipelineable: CELLO ties FLAT, and
    /// both beat the op-by-op oracle (Fig 13).
    #[test]
    fn gnn_cello_matches_flat() {
        let dag = build_gcn_dag(&GcnParams {
            vertices: 2708,
            nnz: 9464,
            features: 1433,
            outputs: 7,
            layers: 1,
        });
        let accel = CelloConfig::paper();
        let flat = run_config(&dag, ConfigKind::Flat, &accel, "gcn");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "gcn");
        let flexagon = run_config(&dag, ConfigKind::Flexagon, &accel, "gcn");
        assert_eq!(cello.dram_bytes, flat.dram_bytes, "CELLO == FLAT on GNN");
        assert!(flat.dram_bytes < flexagon.dram_bytes);
    }

    /// On ResNet, SET (delayed hold) ties CELLO; FLAT cannot fuse the skip
    /// (Fig 16a).
    #[test]
    fn resnet_set_matches_cello() {
        let dag = build_resnet_block_dag(&ResNetBlockParams::conv3x());
        let accel = CelloConfig::paper().with_word_bytes(2);
        let set = run_config(&dag, ConfigKind::SetLike, &accel, "resnet");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "resnet");
        let flat = run_config(&dag, ConfigKind::Flat, &accel, "resnet");
        assert_eq!(set.dram_bytes, cello.dram_bytes, "SET == CELLO on ResNet");
        assert!(set.dram_bytes < flat.dram_bytes);
    }

    /// PRELUDE-only sits between the explicit oracle and full CELLO on CG
    /// (Fig 16c).
    #[test]
    fn prelude_only_is_intermediate() {
        let dag = small_cg(16, 4);
        let accel = CelloConfig::paper();
        let flexagon = run_config(&dag, ConfigKind::Flexagon, &accel, "cg");
        let prelude = run_config(&dag, ConfigKind::PreludeOnly, &accel, "cg");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        assert!(prelude.dram_bytes < flexagon.dram_bytes);
        assert!(cello.dram_bytes <= prelude.dram_bytes);
    }

    /// Caches capture some reuse on small problems but lose to CHORD.
    #[test]
    fn caches_worse_than_cello() {
        let dag = small_cg(4, 3);
        let accel = CelloConfig::paper();
        let lru = run_config(&dag, ConfigKind::FlexLru, &accel, "cg");
        let brrip = run_config(&dag, ConfigKind::FlexBrrip, &accel, "cg");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        assert!(
            cello.dram_bytes < lru.dram_bytes,
            "CELLO {} LRU {}",
            cello.dram_bytes,
            lru.dram_bytes
        );
        assert!(cello.dram_bytes < brrip.dram_bytes);
    }

    /// Table II capability matrix: only CELLO covers everything.
    #[test]
    fn capability_matrix() {
        let cello = ConfigKind::Cello.capabilities();
        assert!(cello.delayed_writeback && cello.delayed_hold && cello.pipelining);
        let flat = ConfigKind::Flat.capabilities();
        assert!(flat.pipelining && !flat.delayed_hold && !flat.delayed_writeback);
        let set = ConfigKind::SetLike.capabilities();
        assert!(set.delayed_hold && !set.delayed_writeback);
        let flexagon = ConfigKind::Flexagon.capabilities();
        assert!(flexagon.intra_op && !flexagon.pipelining);
    }

    /// Global cold lower bound: no configuration can move less than one pass
    /// over externals + terminal outputs; CELLO respects it.
    #[test]
    fn cello_respects_cold_bound() {
        let dag = small_cg(16, 3);
        let accel = CelloConfig::paper();
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "cg");
        let wb = accel.word_bytes as u64;
        let ext_bytes: u64 = dag.externals().iter().map(|e| e.meta.words * wb).sum();
        // Terminal outputs: tensors with no consumers.
        let term_bytes: u64 = dag
            .nodes()
            .filter(|(id, _)| dag.out_edges(*id).is_empty())
            .map(|(_, n)| n.output.words * wb)
            .sum();
        // Single-use externals all stream once; terminals written once.
        assert!(cello.dram_bytes >= term_bytes);
        assert!(cello.dram_bytes <= ext_bytes * 4 + term_bytes + cello.dram_bytes / 2);
    }
}
