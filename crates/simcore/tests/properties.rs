//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use vine_simcore::trace::{LogHistogram, TimeSeries, TransferMatrix};
use vine_simcore::{Dist, EventId, EventQueue, RngHub, SimDur, SimTime};

/// Reference for `EventQueue`: the live events in a `Vec`, searched by a
/// linear scan for the minimum `(time, id)`.
#[derive(Default)]
struct ScanModel {
    live: Vec<(SimTime, EventId, usize)>,
}

impl ScanModel {
    fn first(&self) -> Option<usize> {
        (0..self.live.len()).min_by_key(|&k| (self.live[k].0, self.live[k].1))
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let (t, _, payload) = self.live.remove(self.first()?);
        Some((t, payload))
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let k = self.live.iter().position(|e| e.1 == id);
        k.map(|k| self.live.remove(k)).is_some()
    }
}

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO order
    /// within equal timestamps.
    #[test]
    fn event_queue_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(pt <= t);
                if pt == t {
                    prop_assert!(pi < i, "FIFO violated within a timestamp");
                }
            }
            prev = Some((t, i));
        }
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn event_queue_cancellation(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .map(|&t| q.schedule(SimTime::from_micros(t), t))
            .collect();
        let mut expect_live = times.len();
        for (id, &c) in ids.iter().zip(cancel_mask.iter()) {
            if c {
                prop_assert!(q.cancel(*id));
                expect_live -= 1;
            }
        }
        prop_assert_eq!(q.len(), expect_live);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, expect_live);
    }

    /// Random sequences of every queue operation return exactly what the
    /// linear-scan model returns, call by call. Times are equal to the
    /// last pop (so ids decide), just before it, near it, or far beyond;
    /// a reservation is used some operations later or never, and cancels
    /// also hit fired, cancelled and reserved ids.
    #[test]
    fn event_queue_matches_linear_scan_model(
        ops in proptest::collection::vec((0u8..7, 0u64..3_000_000, 0usize..64), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = ScanModel::default();
        let mut issued: Vec<EventId> = Vec::new();
        let mut reserved: Vec<EventId> = Vec::new();
        let mut now = 0u64;
        for (n, &(op, x, pick)) in ops.iter().enumerate() {
            let at = SimTime::from_micros(match x % 5 {
                0 => now,
                1 => now.saturating_sub(x % 1_000),
                2 => now + x % 1_000,
                3 => now + x,
                _ => now + x * 1_000,
            });
            match op {
                0 | 1 => {
                    let id = q.schedule(at, n);
                    prop_assert!(issued.last() < Some(&id), "ids are issued in order");
                    issued.push(id);
                    model.live.push((at, id, n));
                }
                2 => {
                    let id = q.reserve();
                    prop_assert!(issued.last() < Some(&id), "ids are issued in order");
                    issued.push(id);
                    reserved.push(id);
                }
                3 => {
                    if !reserved.is_empty() {
                        let id = reserved.swap_remove(pick % reserved.len());
                        q.schedule_reserved(id, at, n);
                        model.live.push((at, id, n));
                    }
                }
                4 => {
                    if !issued.is_empty() {
                        let id = issued[pick % issued.len()];
                        prop_assert_eq!(q.cancel(id), model.cancel(id));
                    }
                }
                5 => prop_assert_eq!(q.peek_time(), model.first().map(|k| model.live[k].0)),
                _ => {
                    let popped = q.pop();
                    prop_assert_eq!(popped, model.pop());
                    if let Some((t, _)) = popped {
                        now = t.as_micros();
                    }
                }
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.is_empty(), model.live.is_empty());
        }
        loop {
            let popped = q.pop();
            prop_assert_eq!(popped, model.pop());
            if popped.is_none() {
                break;
            }
        }
    }

    /// SimTime/SimDur arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_sub_round_trip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(t);
        let d = SimDur::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Same seed + same stream name => identical draws, for any name.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), name in "[a-z]{0,16}") {
        use rand::Rng;
        let hub = RngHub::new(seed);
        let a: u64 = hub.stream(&name).gen();
        let b: u64 = hub.stream(&name).gen();
        prop_assert_eq!(a, b);
    }

    /// Every distribution sample is non-negative and finite.
    #[test]
    fn dist_samples_valid(
        seed in any::<u64>(),
        median in 0.001f64..100.0,
        sigma in 0.0f64..3.0,
    ) {
        let mut rng = RngHub::new(seed).stream("dist");
        for d in [
            Dist::LogNormal { median, sigma },
            Dist::Exponential { mean: median },
            Dist::Uniform { lo: 0.0, hi: median },
            Dist::Normal { mean: median, sd: sigma, min: 0.0 },
        ] {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0, "{:?} -> {}", d, x);
        }
    }

    /// TimeSeries::value_at agrees with a naive linear scan.
    #[test]
    fn timeseries_value_at_matches_scan(
        mut raw in proptest::collection::vec((0u64..1000, -100i64..100), 0..50),
        query in 0u64..1200,
    ) {
        raw.sort_by_key(|&(t, _)| t);
        let mut s = TimeSeries::new();
        for &(t, v) in &raw {
            s.push(SimTime::from_micros(t), v as f64);
        }
        let naive = raw
            .iter().rfind(|&&(t, _)| t <= query)
            .map_or(0.0, |&(_, v)| v as f64);
        prop_assert_eq!(s.value_at(SimTime::from_micros(query)), naive);
    }

    /// Matrix row/column marginals always sum to the grand total.
    #[test]
    fn matrix_marginals_consistent(
        n in 1usize..8,
        ops in proptest::collection::vec((0usize..8, 0usize..8, 0u64..1_000_000), 0..100),
    ) {
        let mut m = TransferMatrix::new(n);
        for (s, d, b) in ops {
            m.add(s % n, d % n, b);
        }
        let by_row: u64 = (0..n).map(|r| m.sent_by(r)).sum();
        let by_col: u64 = (0..n).map(|c| m.received_by(c)).sum();
        prop_assert_eq!(by_row, m.total());
        prop_assert_eq!(by_col, m.total());
    }

    /// Histogram total always equals the number of recorded values, and each
    /// value lands in the bin whose range contains it (when not clamped).
    #[test]
    fn log_histogram_conserves_counts(values in proptest::collection::vec(0.001f64..1e6, 0..200)) {
        let mut h = LogHistogram::new(0.01, 32);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
    }
}
