//! # cello-serve — the concurrent schedule-compilation service
//!
//! The ROADMAP's serving milestone: the stack can *find* co-designed
//! SCORE × CHORD schedules (`cello-search`), but until now every consumer
//! paid the full search cost every time. This crate amortizes it behind a
//! long-running daemon:
//!
//! - [`protocol`]: newline-delimited JSON over TCP — compile requests
//!   (workload + pattern + search config), typed error responses, and the
//!   portable candidate specs the store persists;
//! - [`error`]: the typed request-path error ([`ServeError`]) — one
//!   malformed request can never kill the daemon;
//! - [`store`]: the persistent schedule cache, one collision-checked JSON
//!   record per workload fingerprint (`cello_search::fingerprint`), with
//!   *family* (same DAG + strategy, different SRAM/nodes) lookups feeding
//!   warm starts;
//! - [`coalesce`]: in-flight request coalescing — k identical concurrent
//!   requests trigger exactly one tuner run;
//! - [`service`]: the pipeline: fingerprint → store hit | coalesced
//!   (warm- or cold-)compile → persist → respond, panic-fenced end to end;
//! - [`server`]: the `std::net` TCP accept loop over a fixed pool of
//!   connection-handler threads.
//!
//! Binaries: `cello_serve` (daemon) and `cello_client` (one-shot CLI
//! client). The `loadgen` load driver lives in `cello-bench`, which
//! depends on this crate rather than the reverse.

#![forbid(unsafe_code)]

pub mod coalesce;
pub mod error;
pub mod protocol;
pub mod server;
pub mod service;
pub mod store;

pub use coalesce::Coalescer;
pub use error::ServeError;
pub use protocol::{CacheTag, Frame, Request, Response};
pub use server::serve;
pub use service::{Service, DEFAULT_FLIGHT_DEPTH};
pub use store::{ScheduleStore, StoredOutcome};
