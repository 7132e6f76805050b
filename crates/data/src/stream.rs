//! Deterministic per-partition histogram deltas for streaming runs.
//!
//! A streaming engine run pushes one [`HistogramSet`] delta per completed
//! partition. The delta is synthesized from the partition's *identity*
//! (label + event count) alone — no engine RNG stream is touched, so a
//! run with streaming enabled schedules byte-identically to one without.
//!
//! Every filled value and weight is an integer. Integer-valued f64
//! accumulation below 2^53 is exact, so folding deltas is genuinely
//! commutative and associative *at the bit level*: any fold order of the
//! same deltas yields a bit-identical [`HistogramSet`]. That is the
//! property that lets an incremental accumulator promise its estimate at
//! 100% equals the batch merge exactly (asserted by proptests in
//! `vine-analysis`).

use vine_simcore::{fnv1a64, splitmix64};

use crate::hist::{Hist1D, HistogramSet};

/// Name of the observable every partition delta fills.
pub const STREAM_HIST: &str = "mass";
/// Binning of [`STREAM_HIST`] (shared by every delta so merges line up).
pub const STREAM_BINS: usize = 60;
/// Lower edge of [`STREAM_HIST`].
pub const STREAM_LO: f64 = 0.0;
/// Upper edge of [`STREAM_HIST`].
pub const STREAM_HI: f64 = 300.0;
/// At most this many distinct fills per delta; larger partitions widen
/// the per-fill weight instead (keeps delta synthesis O(1)-ish).
const MAX_FILLS: u64 = 1024;

/// The histogram delta contributed by one partition.
///
/// Deterministic in `(label, events)`: the label seeds a private
/// SplitMix64 stream, `events` sets the statistical weight. The shape is
/// a crude peak-over-background (a third of the weight near 125, the
/// rest falling background) — enough structure that partial estimates
/// visibly converge toward the full-run distribution.
pub fn partition_delta(label: &str, events: u64) -> HistogramSet {
    let mut h = Hist1D::new(STREAM_BINS, STREAM_LO, STREAM_HI);
    if events > 0 {
        let mut state = fnv1a64(label.as_bytes());
        let fills = events.min(MAX_FILLS);
        let base_w = events / fills;
        let mut remainder = events - base_w * fills;
        for _ in 0..fills {
            let r = splitmix64(&mut state);
            // Integer-valued observable in [0, STREAM_HI).
            let x = if r.is_multiple_of(3) {
                115 + (splitmix64(&mut state) % 21) // peak: 115..=135
            } else {
                (splitmix64(&mut state) % (STREAM_HI as u64 * 2)).min(STREAM_HI as u64 - 1)
            };
            let mut w = base_w;
            if remainder > 0 {
                w += 1;
                remainder -= 1;
            }
            h.fill_weighted(x as f64, w as f64);
        }
    }
    let mut set = HistogramSet::new();
    set.set_h1(STREAM_HIST, h);
    set.events_processed = events;
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_deterministic_and_weight_preserving() {
        let a = partition_delta("ds0.chunk3", 5_000);
        let b = partition_delta("ds0.chunk3", 5_000);
        assert_eq!(
            a.h1(STREAM_HIST).unwrap().counts(),
            b.h1(STREAM_HIST).unwrap().counts()
        );
        assert_eq!(a.events_processed, 5_000);
        // All weight lands somewhere, and the histogram range covers the
        // synthesized values so nothing overflows.
        let h = a.h1(STREAM_HIST).unwrap();
        assert_eq!(h.total() as u64, 5_000);
    }

    #[test]
    fn different_labels_differ() {
        let a = partition_delta("ds0.chunk0", 1_000);
        let b = partition_delta("ds0.chunk1", 1_000);
        assert_ne!(
            a.h1(STREAM_HIST).unwrap().counts(),
            b.h1(STREAM_HIST).unwrap().counts()
        );
    }

    #[test]
    fn values_are_integers() {
        let d = partition_delta("x", 100_000);
        let h = d.h1(STREAM_HIST).unwrap();
        for &c in h.counts() {
            assert_eq!(c, c.trunc(), "bin counts must be integer-valued");
        }
        assert_eq!(h.sum_wx(), h.sum_wx().trunc());
    }

    #[test]
    fn zero_events_is_an_empty_delta() {
        let d = partition_delta("empty", 0);
        assert_eq!(d.h1(STREAM_HIST).unwrap().total(), 0.0);
        assert_eq!(d.events_processed, 0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
