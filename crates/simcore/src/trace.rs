//! Trace sinks backing the paper's figures.
//!
//! * [`TimeSeries`] / [`StepCounter`] — running/waiting task counts over
//!   time (Figs 12, 15) and per-worker cache occupancy (Fig 11).
//! * [`IntervalTrace`] — per-worker busy intervals for the Gantt views
//!   (Fig 13).
//! * [`TransferMatrix`] — node-pair transfer bytes for the heatmap (Fig 7).
//! * [`LogHistogram`] — log-binned task execution times (Fig 8).

use std::fmt;
use std::fmt::Write as _;

use crate::time::{SimDur, SimTime};

/// A time went backwards in [`TimeSeries::try_push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The last recorded time.
    pub last: SimTime,
    /// The earlier time that was pushed.
    pub pushed: SimTime,
}

impl fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "time series pushed out of order: {} after {}",
            self.pushed, self.last
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// A sequence of `(time, value)` points.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point. Times may repeat but must not decrease; an
    /// out-of-order time is clamped to the last recorded time (in every
    /// build profile — `value_at`'s binary search silently misreads an
    /// unsorted series, so release builds must not accept one either).
    /// Use [`TimeSeries::try_push`] to detect the violation instead.
    pub fn push(&mut self, t: SimTime, v: f64) {
        let t = match self.points.last() {
            Some(&(lt, _)) if t < lt => lt,
            _ => t,
        };
        self.points.push((t, v));
    }

    /// Append a point, rejecting out-of-order times.
    pub fn try_push(&mut self, t: SimTime, v: f64) -> Result<(), OutOfOrder> {
        if let Some(&(lt, _)) = self.points.last() {
            if t < lt {
                return Err(OutOfOrder {
                    last: lt,
                    pushed: t,
                });
            }
        }
        self.points.push((t, v));
        Ok(())
    }

    /// The recorded points, in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The last recorded value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Number of points recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value in effect at time `t` (step interpolation: the value of the
    /// last point at or before `t`, or 0.0 before the first point).
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// The maximum recorded value, or 0.0 if empty.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Resample onto a fixed grid from 0 to `until` with step `dt`,
    /// inclusive of both endpoints, using step interpolation.
    pub fn resample(&self, until: SimTime, dt: SimDur) -> Vec<(SimTime, f64)> {
        assert!(!dt.is_zero(), "resample step must be positive");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            out.push((t, self.value_at(t)));
            if t >= until {
                break;
            }
            t = (t + dt).min(until);
        }
        out
    }
}

/// An integer quantity tracked as deltas, recorded as a step time-series.
///
/// Used for "tasks running" / "tasks waiting" counters and cache occupancy.
#[derive(Clone, Debug, Default)]
pub struct StepCounter {
    value: i64,
    series: TimeSeries,
}

impl StepCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a delta at time `t` and record the new value.
    pub fn add(&mut self, t: SimTime, delta: i64) {
        self.value += delta;
        self.series.push(t, self.value as f64);
    }

    /// Set the absolute value at time `t`.
    pub fn set(&mut self, t: SimTime, value: i64) {
        self.value = value;
        self.series.push(t, value as f64);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// The recorded step series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// Per-entity `[start, end)` intervals with an integer tag (e.g. task kind).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct IntervalTrace {
    intervals: Vec<Interval>,
}

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Which lane/entity (e.g. worker index) the interval belongs to.
    pub entity: usize,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (>= start).
    pub end: SimTime,
    /// Caller-defined tag (e.g. 0 = processing task, 1 = accumulation).
    pub tag: u32,
}

impl IntervalTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one interval.
    pub fn push(&mut self, entity: usize, start: SimTime, end: SimTime, tag: u32) {
        debug_assert!(start <= end);
        self.intervals.push(Interval {
            entity,
            start,
            end,
            tag,
        });
    }

    /// All recorded intervals, in insertion order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Total busy time of one entity.
    pub fn busy_time(&self, entity: usize) -> SimDur {
        self.intervals
            .iter()
            .filter(|iv| iv.entity == entity)
            .map(|iv| iv.end - iv.start)
            .fold(SimDur::ZERO, |a, b| a + b)
    }

    /// Number of entities that have at least one interval.
    pub fn entity_count(&self) -> usize {
        let mut seen: Vec<usize> = self.intervals.iter().map(|iv| iv.entity).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// How many intervals overlap instant `t` (concurrency at `t`).
    pub fn concurrency_at(&self, t: SimTime) -> usize {
        self.intervals
            .iter()
            .filter(|iv| iv.start <= t && t < iv.end)
            .count()
    }
}

/// An `n x n` matrix accumulating bytes transferred between node pairs.
///
/// Node 0 is conventionally the manager (as in the paper's Fig 7 heatmap).
#[derive(Clone, Debug, PartialEq)]
pub struct TransferMatrix {
    n: usize,
    bytes: Vec<u64>,
}

impl TransferMatrix {
    /// A zeroed matrix over `n` nodes.
    pub fn new(n: usize) -> Self {
        TransferMatrix {
            n,
            bytes: vec![0; n * n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Accumulate `bytes` moved from `src` to `dst`.
    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.n && dst < self.n, "node index out of range");
        self.bytes[src * self.n + dst] += bytes;
    }

    /// Bytes moved from `src` to `dst`.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }

    /// The largest single-pair transfer volume.
    pub fn max_cell(&self) -> u64 {
        self.bytes.iter().copied().max().unwrap_or(0)
    }

    /// Total bytes sent by `src` to all destinations.
    pub fn sent_by(&self, src: usize) -> u64 {
        self.bytes[src * self.n..(src + 1) * self.n].iter().sum()
    }

    /// Total bytes received by `dst` from all sources.
    pub fn received_by(&self, dst: usize) -> u64 {
        (0..self.n).map(|s| self.get(s, dst)).sum()
    }

    /// Grand total bytes moved.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Log₂-binned histogram of positive values (e.g. task durations in seconds).
///
/// Bin `i` covers `[min * 2^i, min * 2^(i+1))`. Values below `min` land in
/// bin 0; values beyond the top bin land in the last bin.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    min: f64,
    counts: Vec<u64>,
}

impl LogHistogram {
    /// A histogram with `bins` log₂ bins starting at `min` (> 0).
    pub fn new(min: f64, bins: usize) -> Self {
        assert!(min > 0.0 && bins > 0);
        LogHistogram {
            min,
            counts: vec![0; bins],
        }
    }

    /// A histogram with the given per-bin counts (at least one bin)
    /// starting at `min` (> 0).
    pub fn from_counts(min: f64, counts: Vec<u64>) -> Self {
        assert!(min > 0.0 && !counts.is_empty());
        LogHistogram { min, counts }
    }

    /// Record one value.
    pub fn record(&mut self, value: f64) {
        let idx = if value <= self.min {
            0
        } else {
            ((value / self.min).log2().floor() as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.min * 2f64.powi(i as i32)
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of values in bins whose range lies within `[lo, hi)`.
    pub fn fraction_between(&self, lo: f64, hi: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut in_range = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let bin_lo = self.bin_lo(i);
            let bin_hi = self.bin_lo(i + 1);
            if bin_lo >= lo && bin_hi <= hi {
                in_range += c;
            }
        }
        in_range as f64 / total as f64
    }
}

/// Render a set of named series (sharing no grid) as CSV with columns
/// `series,time_s,value`.
pub fn series_to_csv(named: &[(&str, &TimeSeries)]) -> String {
    let mut out = String::from("series,time_s,value\n");
    for (name, s) in named {
        for &(t, v) in s.points() {
            let _ = writeln!(out, "{name},{:.6},{v}", t.as_secs_f64());
        }
    }
    out
}

/// Render a transfer matrix as CSV with columns `src,dst,bytes` (zero cells
/// omitted).
pub fn matrix_to_csv(m: &TransferMatrix) -> String {
    let mut out = String::from("src,dst,bytes\n");
    for s in 0..m.node_count() {
        for d in 0..m.node_count() {
            let b = m.get(s, d);
            if b > 0 {
                let _ = writeln!(out, "{s},{d},{b}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn out_of_order_push_clamps_in_all_builds() {
        // Regression: this used to be a debug_assert only — release
        // builds silently recorded a decreasing time, corrupting
        // `value_at`'s binary search.
        let mut s = TimeSeries::new();
        s.push(t(5), 1.0);
        s.push(t(3), 2.0); // out of order: clamped to t=5
        assert_eq!(s.points(), &[(t(5), 1.0), (t(5), 2.0)]);
        assert_eq!(s.value_at(t(5)), 2.0);
        assert_eq!(s.value_at(t(4)), 0.0);
    }

    #[test]
    fn try_push_reports_the_violation() {
        let mut s = TimeSeries::new();
        assert!(s.try_push(t(5), 1.0).is_ok());
        assert!(s.try_push(t(5), 2.0).is_ok()); // equal times are fine
        let err = s.try_push(t(3), 9.0).unwrap_err();
        assert_eq!(
            err,
            OutOfOrder {
                last: t(5),
                pushed: t(3)
            }
        );
        // The rejected point was not recorded.
        assert_eq!(s.len(), 2);
        assert!(err.to_string().contains("out of order"));
    }

    #[test]
    fn timeseries_value_at_steps() {
        let mut s = TimeSeries::new();
        s.push(t(1), 10.0);
        s.push(t(3), 20.0);
        assert_eq!(s.value_at(t(0)), 0.0);
        assert_eq!(s.value_at(t(1)), 10.0);
        assert_eq!(s.value_at(t(2)), 10.0);
        assert_eq!(s.value_at(t(3)), 20.0);
        assert_eq!(s.value_at(t(9)), 20.0);
    }

    #[test]
    fn timeseries_resample_grid() {
        let mut s = TimeSeries::new();
        s.push(t(1), 5.0);
        let grid = s.resample(t(2), SimDur::from_secs(1));
        assert_eq!(grid, vec![(t(0), 0.0), (t(1), 5.0), (t(2), 5.0)]);
    }

    #[test]
    fn timeseries_max_value() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(1), 7.0);
        s.push(t(2), 3.0);
        assert_eq!(s.max_value(), 7.0);
        assert_eq!(TimeSeries::new().max_value(), 0.0);
    }

    #[test]
    fn step_counter_tracks_deltas() {
        let mut c = StepCounter::new();
        c.add(t(0), 3);
        c.add(t(1), -1);
        c.set(t(2), 10);
        assert_eq!(c.value(), 10);
        assert_eq!(
            c.series().points(),
            &[(t(0), 3.0), (t(1), 2.0), (t(2), 10.0)]
        );
    }

    #[test]
    fn interval_busy_time_and_concurrency() {
        let mut iv = IntervalTrace::new();
        iv.push(0, t(0), t(5), 0);
        iv.push(0, t(6), t(8), 1);
        iv.push(1, t(2), t(4), 0);
        assert_eq!(iv.busy_time(0), SimDur::from_secs(7));
        assert_eq!(iv.busy_time(1), SimDur::from_secs(2));
        assert_eq!(iv.busy_time(2), SimDur::ZERO);
        assert_eq!(iv.concurrency_at(t(3)), 2);
        assert_eq!(iv.concurrency_at(t(5)), 0); // end-exclusive
        assert_eq!(iv.entity_count(), 2);
    }

    #[test]
    fn transfer_matrix_accumulates() {
        let mut m = TransferMatrix::new(3);
        m.add(0, 1, 100);
        m.add(0, 1, 50);
        m.add(2, 1, 25);
        assert_eq!(m.get(0, 1), 150);
        assert_eq!(m.sent_by(0), 150);
        assert_eq!(m.received_by(1), 175);
        assert_eq!(m.max_cell(), 150);
        assert_eq!(m.total(), 175);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn transfer_matrix_bounds_checked() {
        let mut m = TransferMatrix::new(2);
        m.add(2, 0, 1);
    }

    #[test]
    fn log_histogram_bins() {
        let mut h = LogHistogram::new(0.5, 8); // bins at 0.5,1,2,4,...
        h.record(0.1); // below min -> bin 0
        h.record(0.6); // [0.5,1) -> bin 0
        h.record(1.5); // [1,2)   -> bin 1
        h.record(5.0); // [4,8)   -> bin 3
        h.record(1e9); // clamps to last bin
        assert_eq!(h.counts(), &[2, 1, 0, 1, 0, 0, 0, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bin_lo(1), 1.0);
    }

    #[test]
    fn log_histogram_fraction_between() {
        let mut h = LogHistogram::new(1.0, 6);
        for v in [1.5, 2.5, 3.0, 9.0] {
            h.record(v);
        }
        // bins: [1,2)=1, [2,4)=2, [8,16)=1
        assert!((h.fraction_between(1.0, 4.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn csv_rendering() {
        let mut s = TimeSeries::new();
        s.push(t(1), 2.0);
        let csv = series_to_csv(&[("a", &s)]);
        assert_eq!(csv, "series,time_s,value\na,1.000000,2\n");

        let mut m = TransferMatrix::new(2);
        m.add(1, 0, 7);
        assert_eq!(matrix_to_csv(&m), "src,dst,bytes\n1,0,7\n");
    }
}
