//! Incremental accumulation of streamed partial results.
//!
//! The paper's motivation is *near-interactive* turnaround: a physicist
//! wants the first plot in seconds, not after the last partition lands.
//! Histogram accumulation is commutative and associative, so the running
//! estimate after any prefix of partitions is a valid (statistically
//! smaller) version of the final answer. This module provides the two
//! pieces an application needs on top of the engine's
//! [`RunObserver`] push channel:
//!
//! * [`StreamAccumulator`] — folds [`PartialUpdate`] deltas into a live
//!   [`HistogramSet`]. Because partition deltas are integer-valued
//!   ([`vine_data::partition_delta`]) and f64 integer arithmetic below
//!   2⁵³ is exact, the fold is **order-independent and bit-identical**
//!   to the batch result at 100% — and every bin is **monotone
//!   non-decreasing** in fraction-complete (deltas are non-negative).
//!   Both properties are proptested in this crate.
//! * [`ConvergenceObserver`] — a ready-made observer that stops the run
//!   once the streamed estimate reaches a target fraction of the full
//!   run's statistical precision, and snapshots the partial histogram at
//!   each decile of progress so a facility can publish partial results
//!   keyed by fraction.

use vine_core::{ObserverControl, PartialUpdate, RunObserver};
use vine_data::{encode_histogram_set, fnv1a64, HistogramSet};

/// Folds partition deltas into a live estimate of the final result.
///
/// Invariants (proptested in `tests/streaming_properties.rs`):
/// * **Monotone**: after each [`fold`](Self::fold), every histogram bin
///   is ≥ its value after the previous fold.
/// * **Order-independent**: folding the same deltas in any order yields
///   a bit-identical [`estimate`](Self::estimate).
/// * **Exact at 100%**: once `fraction() == 1.0`, the estimate equals
///   the batch result (the merge of all partition deltas) bit-for-bit.
#[derive(Clone, Debug, Default)]
pub struct StreamAccumulator {
    acc: HistogramSet,
    partitions_done: u64,
    partitions_total: u64,
    events_done: u64,
    events_total: u64,
    updates: u64,
}

impl StreamAccumulator {
    /// An empty accumulator; totals are learned from the first update.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one partition's delta into the estimate.
    pub fn fold(&mut self, update: &PartialUpdate) {
        self.acc.merge(&update.delta);
        self.partitions_done = update.partitions_done;
        self.partitions_total = update.partitions_total;
        self.events_done = update.events_done;
        self.events_total = update.events_total;
        self.updates += 1;
    }

    /// The live estimate: the merge of every delta folded so far.
    pub fn estimate(&self) -> &HistogramSet {
        &self.acc
    }

    /// Fraction of partitions complete, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.partitions_total == 0 {
            0.0
        } else {
            self.partitions_done as f64 / self.partitions_total as f64
        }
    }

    /// Relative statistical-error bound of the estimate:
    /// `1/sqrt(events_done)`.
    pub fn error_bound(&self) -> f64 {
        if self.events_done == 0 {
            f64::INFINITY
        } else {
            1.0 / (self.events_done as f64).sqrt()
        }
    }

    /// Statistical precision achieved, as a fraction of the full run's:
    /// `sqrt(events_done / events_total)`, in `[0, 1]`.
    pub fn precision(&self) -> f64 {
        if self.events_total == 0 {
            0.0
        } else {
            (self.events_done as f64 / self.events_total as f64).sqrt()
        }
    }

    /// Events folded in so far.
    pub fn events_done(&self) -> u64 {
        self.events_done
    }

    /// Updates folded in so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Content digest of the current estimate (FNV-1a over the canonical
    /// encoding) — what `vine-obs` records as `stream_partial_digest`.
    pub fn digest(&self) -> u64 {
        fnv1a64(&encode_histogram_set(&self.acc))
    }
}

/// A partial result published at a progress milestone.
#[derive(Clone, Debug)]
pub struct PartialSnapshot {
    /// Fraction complete when the snapshot was taken, in milli-units
    /// (e.g. `300` = 30%). Monotone across a run's snapshots.
    pub milli_fraction: u32,
    /// The encoded partial [`HistogramSet`] at that point.
    pub payload: Vec<u8>,
    /// Content digest of `payload` (FNV-1a).
    pub digest: u64,
    /// Simulated time of the snapshot, microseconds.
    pub sim_time_us: u64,
}

/// Stops a run once the streamed estimate reaches `threshold` of the
/// full run's statistical precision.
///
/// The stop rule is `precision() >= threshold`, i.e.
/// `events_done >= threshold² · events_total`. A threshold of `1.0`
/// therefore only fires when every event is in — at which point nothing
/// is left to cancel, so a threshold-1.0 run is identical to one with no
/// early stop (proptested). Along the way the observer snapshots the
/// partial histogram each time progress crosses a decile, for a facility
/// to publish as live partial entries.
pub struct ConvergenceObserver {
    threshold: f64,
    acc: StreamAccumulator,
    snapshots: Vec<PartialSnapshot>,
    next_decile: u32,
    stopped_at: Option<f64>,
}

impl ConvergenceObserver {
    /// `threshold` is clamped to `(0, 1]`: the target fraction of the
    /// full run's statistical precision.
    pub fn new(threshold: f64) -> Self {
        ConvergenceObserver {
            threshold: threshold.clamp(f64::MIN_POSITIVE, 1.0),
            acc: StreamAccumulator::new(),
            snapshots: Vec::new(),
            next_decile: 1,
            stopped_at: None,
        }
    }

    /// The live accumulator.
    pub fn accumulator(&self) -> &StreamAccumulator {
        &self.acc
    }

    /// Decile snapshots taken so far (plus the final one at stop).
    pub fn snapshots(&self) -> &[PartialSnapshot] {
        &self.snapshots
    }

    /// The fraction-complete at which the observer stopped the run, if
    /// it did.
    pub fn stopped_at(&self) -> Option<f64> {
        self.stopped_at
    }

    fn snapshot(&mut self, sim_time_us: u64) {
        let payload = encode_histogram_set(self.acc.estimate());
        self.snapshots.push(PartialSnapshot {
            milli_fraction: (self.acc.fraction() * 1000.0).round() as u32,
            digest: fnv1a64(&payload),
            payload,
            sim_time_us,
        });
    }
}

impl RunObserver for ConvergenceObserver {
    fn on_partition(&mut self, update: PartialUpdate) -> ObserverControl {
        self.acc.fold(&update);
        while self.acc.fraction() >= self.next_decile as f64 / 10.0 {
            self.snapshot(update.sim_time_us);
            self.next_decile += 1;
            if self.next_decile > 10 {
                break;
            }
        }
        if self.stopped_at.is_none() && self.acc.precision() >= self.threshold {
            self.stopped_at = Some(self.acc.fraction());
            // Publish the converged estimate even between deciles.
            if self
                .snapshots
                .last()
                .map(|s| s.milli_fraction != (self.acc.fraction() * 1000.0).round() as u32)
                .unwrap_or(true)
            {
                self.snapshot(update.sim_time_us);
            }
            if self.acc.fraction() < 1.0 {
                return ObserverControl::Stop;
            }
        }
        ObserverControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_dag::TaskId;

    fn update(i: u64, total: u64, ev_per: u64) -> PartialUpdate {
        PartialUpdate {
            task: TaskId(i as u32),
            name: format!("p{i}"),
            delta: vine_data::partition_delta(&format!("p{i}"), ev_per),
            partitions_done: i + 1,
            partitions_total: total,
            events_done: (i + 1) * ev_per,
            events_total: total * ev_per,
            sim_time_us: i * 1_000_000,
        }
    }

    #[test]
    fn accumulator_tracks_progress() {
        let mut acc = StreamAccumulator::new();
        for i in 0..4 {
            acc.fold(&update(i, 8, 1000));
        }
        assert!((acc.fraction() - 0.5).abs() < 1e-12);
        assert_eq!(acc.events_done(), 4000);
        assert!((acc.precision() - (0.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(acc.updates(), 4);
    }

    #[test]
    fn convergence_observer_stops_at_threshold() {
        // threshold 0.5 → stop once events_done >= 0.25 * total.
        let mut obs = ConvergenceObserver::new(0.5);
        let mut stopped = None;
        for i in 0..16 {
            if obs.on_partition(update(i, 16, 1000)) == ObserverControl::Stop {
                stopped = Some(i);
                break;
            }
        }
        assert_eq!(stopped, Some(3), "stops at the 4th partition (25%)");
        assert_eq!(obs.stopped_at(), Some(0.25));
        assert!(!obs.snapshots().is_empty());
    }

    #[test]
    fn threshold_one_never_stops_early() {
        let mut obs = ConvergenceObserver::new(1.0);
        for i in 0..16 {
            assert_eq!(
                obs.on_partition(update(i, 16, 1000)),
                ObserverControl::Continue
            );
        }
        assert_eq!(obs.stopped_at(), Some(1.0), "converged only at the end");
    }

    #[test]
    fn decile_snapshots_are_monotone_in_fraction() {
        let mut obs = ConvergenceObserver::new(1.0);
        for i in 0..20 {
            obs.on_partition(update(i, 20, 500));
        }
        let fracs: Vec<u32> = obs.snapshots().iter().map(|s| s.milli_fraction).collect();
        assert!(fracs.windows(2).all(|w| w[0] < w[1]), "{fracs:?}");
        assert_eq!(*fracs.last().unwrap(), 1000);
    }
}
