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
//!   (`record_at`, `snapshot_at`, `merge`) with no clock and no lock, so
//!   the algebra is directly property-testable. The merge is slot-wise
//!   "newer epoch wins, equal epochs combine" — associative and
//!   commutative, and an expired slot can never resurrect: a slot only
//!   moves to a *larger* epoch, and `snapshot_at(now)` ignores anything
//!   outside the window.
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

    /// The live slot for `epoch`: reused when the epoch matches, reset
    /// (expiring the old contents) when `epoch` is newer, `None` when
    /// `epoch` is older than what the slot already holds — a late sample
    /// from an expired epoch is dropped, never resurrected.
    fn slot_mut(&mut self, epoch: u64) -> Option<&mut HistogramSnapshot> {
        let len = self.slots.len() as u64;
        let slot = &mut self.slots[(epoch % len) as usize];
        if slot.0 > epoch {
            return None;
        }
        if slot.0 < epoch {
            *slot = (epoch, HistogramSnapshot::empty());
        }
        Some(&mut slot.1)
    }

    /// Records one observation stamped with `epoch`.
    pub fn record_at(&mut self, epoch: u64, v: u64) {
        if let Some(h) = self.slot_mut(epoch) {
            h.record(v);
        }
    }

    /// Merges a whole pre-aggregated bucket into the `epoch` slot (the
    /// shard-and-merge path).
    pub fn merge_at(&mut self, epoch: u64, bucket: &HistogramSnapshot) {
        if let Some(h) = self.slot_mut(epoch) {
            h.merge(bucket);
        }
    }

    /// Merges another window in, slot-wise: the newer epoch wins a slot,
    /// equal epochs combine. Associative and commutative (each slot is a
    /// max-graded semilattice merge), so shard aggregation is
    /// order-independent.
    pub fn merge(&mut self, other: &WindowHistogram) {
        for (epoch, bucket) in &other.slots {
            self.merge_at(*epoch, bucket);
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

    /// Total window span in seconds.
    pub fn window_secs(&self) -> u64 {
        crate::lock(&self.inner).len() as u64 * self.bucket_secs
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
    fn merge_is_commutative_and_keeps_newer_epochs() {
        let mut a = WindowHistogram::new(4);
        a.record_at(5, 10);
        a.record_at(6, 20);
        let mut b = WindowHistogram::new(4);
        b.record_at(6, 30);
        b.record_at(9, 40); // same slot index as 5, newer epoch

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for now in 5..12 {
            assert_eq!(ab.snapshot_at(now), ba.snapshot_at(now), "now={now}");
        }
        // Epoch 9 beat epoch 5 in their shared slot.
        let s = ab.snapshot_at(9);
        assert_eq!(s.count, 3, "epochs 6+6 merged, 9 kept, 5 expired");
    }

    #[test]
    fn clocked_wrappers_record_and_read() {
        let h = WindowedHistogram::new(60, 1);
        h.record(500);
        h.record(1500);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.percentile(95.0) >= 500);
        assert_eq!(h.window_secs(), 60);
    }
}
