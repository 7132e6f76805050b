//! The streaming push channel: partial results at partition completion.
//!
//! Histograms merge commutatively, so an analysis does not have to wait
//! for the last partition to see its answer take shape. A
//! [`RunObserver`] attached to a [`crate::RunRequest`] receives one
//! [`PartialUpdate`] per *partition* ([`vine_dag::TaskKind::Process`]
//! task) the first time it completes: the partition's histogram delta,
//! how much of the run is done, and a statistical-error bound for the
//! estimate so far. The observer's return value is a control channel
//! back into the engine — [`ObserverControl::Stop`] cancels every task
//! that has not completed yet (the remaining partition cone), ending the
//! run early with the partial result as the answer.
//!
//! Determinism contract: observer dispatch happens strictly *after* the
//! engine's own collect bookkeeping, synthesizes the delta from task
//! identity alone ([`vine_data::partition_delta`]), and never touches
//! the workload or chaos RNG hubs. A run with no observer attached is
//! therefore byte-identical — same digest, same traces — to one built
//! before this channel existed (CI asserts exactly that).

use vine_dag::TaskId;
use vine_data::HistogramSet;

/// What the engine should do after an observer callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObserverControl {
    /// Keep running.
    Continue,
    /// Converged: cancel all not-yet-completed tasks and finish the run
    /// with the partitions completed so far.
    Stop,
}

/// One partition's worth of streamed progress.
#[derive(Clone, Debug)]
pub struct PartialUpdate {
    /// The partition task that completed.
    pub task: TaskId,
    /// Its graph name (e.g. `dv3-small.ds0.process12`).
    pub name: String,
    /// The partition's histogram contribution. Integer-valued, so
    /// folding deltas in any order is bit-identical (see
    /// [`vine_data::partition_delta`]).
    pub delta: HistogramSet,
    /// Partitions completed so far, this one included.
    pub partitions_done: u64,
    /// Total partitions in the graph (memoized ones count as done).
    pub partitions_total: u64,
    /// Events represented by the completed partitions.
    pub events_done: u64,
    /// Events the full run would process.
    pub events_total: u64,
    /// Simulated time of the completion, microseconds.
    pub sim_time_us: u64,
}

impl PartialUpdate {
    /// Fraction of partitions complete, in `(0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.partitions_total == 0 {
            1.0
        } else {
            self.partitions_done as f64 / self.partitions_total as f64
        }
    }

    /// Relative statistical-error bound of the estimate so far:
    /// `1/sqrt(events_done)` — the Poisson scaling of a counting
    /// analysis.
    pub fn error_bound(&self) -> f64 {
        if self.events_done == 0 {
            f64::INFINITY
        } else {
            1.0 / (self.events_done as f64).sqrt()
        }
    }

    /// The error bound the *full* run would reach.
    pub fn full_run_error_bound(&self) -> f64 {
        if self.events_total == 0 {
            f64::INFINITY
        } else {
            1.0 / (self.events_total as f64).sqrt()
        }
    }

    /// Statistical precision achieved so far, as a fraction of the full
    /// run's: `sqrt(events_done / events_total)`, in `[0, 1]`.
    pub fn precision(&self) -> f64 {
        if self.events_total == 0 {
            1.0
        } else {
            (self.events_done as f64 / self.events_total as f64).sqrt()
        }
    }
}

/// Receives partial results as partitions complete; may stop the run.
pub trait RunObserver {
    /// Called once per partition, at its first completion, in collect
    /// order. Returning [`ObserverControl::Stop`] cancels the remaining
    /// partition cone.
    fn on_partition(&mut self, update: PartialUpdate) -> ObserverControl;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(done: u64, total: u64, ev_done: u64, ev_total: u64) -> PartialUpdate {
        PartialUpdate {
            task: TaskId(0),
            name: "p".into(),
            delta: vine_data::partition_delta("p", ev_done),
            partitions_done: done,
            partitions_total: total,
            events_done: ev_done,
            events_total: ev_total,
            sim_time_us: 0,
        }
    }

    #[test]
    fn fraction_and_bounds() {
        let u = update(25, 100, 2_500, 10_000);
        assert!((u.fraction() - 0.25).abs() < 1e-12);
        assert!((u.error_bound() - 0.02).abs() < 1e-12);
        assert!((u.full_run_error_bound() - 0.01).abs() < 1e-12);
        assert!((u.precision() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_degenerates_safely() {
        let u = update(0, 0, 0, 0);
        assert_eq!(u.fraction(), 1.0);
        assert_eq!(u.error_bound(), f64::INFINITY);
        assert_eq!(u.precision(), 1.0);
    }
}
