//! Epoch-bucketed sliding windows over histograms.
//!
//! The registry's instruments are cumulative-forever: `request_us` mixes
//! yesterday's latencies with this second's. A window answers the *live*
//! question — "what is the p95 over the last 60 seconds?" — by bucketing
//! observations into a ring of `N` epoch-keyed slots and merging only the
//! slots whose epoch falls inside `(now − N, now]`.
//!
//! Two layers:
//!
//! - **Pure core** ([`WindowHistogram`]): an explicit-epoch API
//!   (`record_at`, `snapshot_at`) with no clock and no lock, so it is
//!   directly property-testable. An expired slot can never resurrect: a
//!   slot only moves to a *larger* epoch, and `snapshot_at(now)` ignores
//!   anything outside the window.
//! - **Clocked wrapper** ([`WindowedHistogram`]): a `Mutex`-wrapped core
//!   stamped from the system clock, for the serve daemon's hot path (one
//!   lock + one array write per event).

use crate::metrics::HistogramSnapshot;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// A sliding-window histogram: a ring of `N` epoch-keyed
/// [`HistogramSnapshot`] slots. Pure core — callers supply epochs.
#[derive(Clone, Debug)]
pub struct WindowHistogram {
    /// `(epoch, bucket)` pairs; slot index is `epoch % len`.
    slots: Vec<(u64, HistogramSnapshot)>,
}

impl WindowHistogram {
    /// A window of `buckets` epochs (clamped to at least 1), all empty.
    pub fn new(buckets: usize) -> Self {
        WindowHistogram {
            slots: vec![(0, HistogramSnapshot::empty()); buckets.max(1)],
        }
    }

    /// Window length in epochs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot holds any observation.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|(_, h)| h.count == 0)
    }

    /// Records one observation stamped with `epoch`. The epoch's slot is
    /// reused when the epoch matches and reset (expiring the old contents)
    /// when `epoch` is newer; a late sample from an epoch older than the
    /// slot's is dropped, never resurrected.
    pub fn record_at(&mut self, epoch: u64, v: u64) {
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(epoch % len) as usize];
        if slot.0 < epoch {
            *slot = (epoch, HistogramSnapshot::empty());
        }
        if slot.0 == epoch {
            slot.1.record(v);
        }
    }

    /// The merged histogram over the window ending at `now`: slots with
    /// `epoch ∈ (now − len, now]`. Slots from the future (`epoch > now`)
    /// and expired slots are both excluded.
    pub fn snapshot_at(&self, now: u64) -> HistogramSnapshot {
        let len = self.slots.len() as u64;
        let mut out = HistogramSnapshot::empty();
        for (epoch, bucket) in &self.slots {
            if *epoch <= now && epoch.saturating_add(len) > now {
                out.merge(bucket);
            }
        }
        out
    }
}

/// Seconds since the Unix epoch, bucketed by `bucket_secs`.
fn epoch_now(bucket_secs: u64) -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_secs()
        / bucket_secs.max(1)
}

/// A clocked, thread-safe [`WindowHistogram`]: `buckets × bucket_secs`
/// seconds of sliding history (e.g. `60 × 1` for p95-over-last-60s).
#[derive(Debug)]
pub struct WindowedHistogram {
    bucket_secs: u64,
    inner: Mutex<WindowHistogram>,
}

impl WindowedHistogram {
    /// A window of `buckets` slots, each `bucket_secs` wide.
    pub fn new(buckets: usize, bucket_secs: u64) -> Self {
        WindowedHistogram {
            bucket_secs: bucket_secs.max(1),
            inner: Mutex::new(WindowHistogram::new(buckets)),
        }
    }

    /// Records one observation stamped with the current wall clock.
    pub fn record(&self, v: u64) {
        let epoch = epoch_now(self.bucket_secs);
        crate::lock(&self.inner).record_at(epoch, v);
    }

    /// The merged histogram over the window ending now.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let epoch = epoch_now(self.bucket_secs);
        crate::lock(&self.inner).snapshot_at(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sees_only_recent_epochs() {
        let mut w = WindowHistogram::new(3);
        w.record_at(10, 100);
        w.record_at(11, 200);
        w.record_at(12, 300);
        // All three epochs are inside (9, 12].
        let s = w.snapshot_at(12);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 300);
        // Advance: epoch 10 falls out of (10, 13].
        let s = w.snapshot_at(13);
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 200);
        // Far future: everything expired.
        assert_eq!(w.snapshot_at(100).count, 0);
    }

    #[test]
    fn late_samples_from_expired_epochs_are_dropped() {
        let mut w = WindowHistogram::new(3);
        w.record_at(12, 300); // slot 12 % 3 == 0
        w.record_at(9, 999); // same slot, older epoch: dropped
        assert_eq!(w.snapshot_at(12).count, 1);
        assert_eq!(w.snapshot_at(12).max, 300);
        // Epoch 9 is outside (9, 12] anyway, but the slot itself must not
        // have been clobbered either.
        assert_eq!(w.snapshot_at(14).count, 1);
    }

    #[test]
    fn newer_epoch_resets_the_slot() {
        let mut w = WindowHistogram::new(2);
        w.record_at(4, 1);
        w.record_at(6, 2); // same slot index (6 % 2 == 4 % 2), newer epoch
        let s = w.snapshot_at(6);
        assert_eq!(s.count, 1);
        assert_eq!(s.max, 2, "epoch-4 sample expired when the slot advanced");
    }

    #[test]
    fn clocked_wrappers_record_and_read() {
        let h = WindowedHistogram::new(60, 1);
        h.record(500);
        h.record(1500);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.percentile(95.0) >= 500);
    }
}
