//! # cello-mem — memory-hierarchy substrate
//!
//! The CELLO evaluation compares schedule/buffer *combinations* (Table IV):
//! explicit scratchpads, implicitly-managed LRU/BRRIP caches, buffets, and the
//! paper's hybrid CHORD (the contribution, which lives in `cello-core`). The
//! simulator drives the caches trace by trace; the explicit buffers enter
//! only as [`model::BufferKind`] area and energy rows:
//!
//! - [`stats`]: shared access counters (DRAM bytes, SRAM accesses, hits…);
//! - [`dram`]: bandwidth + energy model of the off-chip interface;
//! - [`cache`]: trace-driven set-associative cache with pluggable replacement —
//!   [`cache::LruPolicy`] and [`cache::BrripPolicy`] (Jaleel et al.'s RRIP),
//!   the `Flex+LRU` / `Flex+BRRIP` baselines. A tensor moves as one stream,
//!   charged once per stream with the results of one access per line. Each
//!   policy charges long streams by an exact rule argued in the module
//!   docs: LRU's clean-head rule charges a stream that evicts everything in
//!   closed form, and BRRIP's event rule steps only possible hits and long
//!   insertions. Any set count works: lines map to sets by `line % sets`;
//! - [`model`]: CACTI-lite area & per-access energy of every buffer kind
//!   (scratchpad, cache, buffet, CHORD), calibrated to the paper's published
//!   4 MB figures (Table III, Fig 15).

pub mod cache;
pub mod dram;
pub mod model;
pub mod stats;

pub use cache::{BrripPolicy, CacheConfig, LruPolicy, SetAssocCache};
pub use dram::DramModel;
pub use model::{AreaEnergyModel, BufferKind};
pub use stats::AccessStats;
