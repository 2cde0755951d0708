//! Leveled, target-filtered logging.
//!
//! The filter grammar is the familiar env-filter subset:
//! `CELLO_LOG=debug` sets the global level, `CELLO_LOG=debug,serve=trace`
//! additionally overrides the `serve` target. Unset means `info`; `off`
//! silences everything. An event that passes prints one timestamped stderr
//! line:
//!
//! ```text
//! [   12.345ms INFO  serve] listening on 127.0.0.1:7070
//! ```

use std::fmt;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Log severity, ordered so `Error < Warn < … < Trace` and a filter level
/// admits everything at or below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something failed; the process keeps going.
    Error,
    /// Something looks wrong but was handled.
    Warn,
    /// Operational milestones (default).
    Info,
    /// Per-request / per-run detail.
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    /// Parses a level name (case-insensitive). `off` maps to `None`.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        Some(Some(match s.to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            "off" | "none" => return Some(None),
            _ => return None,
        }))
    }

    /// Fixed-width display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN ",
            Level::Info => "INFO ",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// A parsed `CELLO_LOG` filter: a default level plus per-target overrides.
#[derive(Clone, Debug, Default)]
pub struct Filter {
    /// Level admitted for targets without an override (`None` = off).
    pub default: Option<Level>,
    /// `target=level` overrides, first match wins.
    pub overrides: Vec<(String, Option<Level>)>,
}

impl Filter {
    /// The unset-environment default: `info` everywhere.
    pub fn info() -> Self {
        Filter {
            default: Some(Level::Info),
            overrides: Vec::new(),
        }
    }

    /// Parses `debug,serve=trace,search=off`. Unrecognized fragments are
    /// ignored rather than fatal — a typo in an env var must not take the
    /// daemon down.
    pub fn parse(spec: &str) -> Self {
        let mut filter = Filter::info();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level.trim()) {
                        filter.overrides.push((target.trim().to_string(), level));
                    }
                }
                None => {
                    if let Some(level) = Level::parse(part) {
                        filter.default = level;
                    }
                }
            }
        }
        filter
    }

    /// Whether an event at `level` for `target` passes.
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        let admit = self
            .overrides
            .iter()
            .find(|(t, _)| t == target)
            .map(|(_, l)| *l)
            .unwrap_or(self.default);
        admit.is_some_and(|cap| level <= cap)
    }
}

struct Logger {
    epoch: Instant,
    filter: Mutex<Filter>,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

fn logger() -> &'static Logger {
    LOGGER.get_or_init(|| Logger {
        epoch: Instant::now(),
        filter: Mutex::new(match std::env::var("CELLO_LOG") {
            Ok(spec) => Filter::parse(&spec),
            Err(_) => Filter::info(),
        }),
    })
}

/// Re-reads `CELLO_LOG` (daemon startup calls this so the filter reflects
/// the environment even if something logged earlier in the process).
pub fn init_from_env() {
    let filter = match std::env::var("CELLO_LOG") {
        Ok(spec) => Filter::parse(&spec),
        Err(_) => Filter::info(),
    };
    set_filter(filter);
}

/// Replaces the active filter.
pub fn set_filter(filter: Filter) {
    *crate::lock(&logger().filter) = filter;
}

/// Whether an event at `level` for `target` would be emitted.
pub fn enabled(level: Level, target: &str) -> bool {
    crate::lock(&logger().filter).enabled(level, target)
}

/// The macro entry point: filter, then render to stderr. `fmt::Arguments`
/// keeps message formatting lazy — a filtered-out event never allocates.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    let logger = logger();
    if !crate::lock(&logger.filter).enabled(level, target) {
        return;
    }
    eprintln!(
        "[{:>9.3}ms {} {}] {}",
        logger.epoch.elapsed().as_micros() as f64 / 1e3,
        level.tag(),
        target,
        args,
    );
}

/// Logs at [`Level::Error`]: `error!("serve", "bind failed: {e}")`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)+))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)+))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)+))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)+))
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::log::Level::Trace, $target, format_args!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_order_admits_downward() {
        assert!(Level::Error < Level::Trace);
        let f = Filter::parse("debug");
        assert!(f.enabled(Level::Info, "any"));
        assert!(f.enabled(Level::Debug, "any"));
        assert!(!f.enabled(Level::Trace, "any"));
    }

    #[test]
    fn env_filter_grammar() {
        let f = Filter::parse("warn,serve=trace,search=off");
        assert!(f.enabled(Level::Warn, "sim"));
        assert!(!f.enabled(Level::Info, "sim"));
        assert!(f.enabled(Level::Trace, "serve"));
        assert!(
            !f.enabled(Level::Error, "search"),
            "off silences errors too"
        );
        // Garbage fragments are ignored, default stays info.
        let g = Filter::parse("purple,serve=plaid");
        assert!(g.enabled(Level::Info, "serve"));
        assert!(!g.enabled(Level::Debug, "serve"));
    }

    #[test]
    fn off_and_default() {
        let f = Filter::parse("off");
        assert!(!f.enabled(Level::Error, "any"));
        assert!(Filter::info().enabled(Level::Info, "x"));
        assert!(!Filter::info().enabled(Level::Debug, "x"));
    }
}
