//! The streaming push channel: partial results at partition completion.
//!
//! Histograms merge commutatively, so an analysis does not have to wait
//! for the last partition to see its answer take shape. A
//! [`RunObserver`] attached to a [`crate::RunRequest`] receives one
//! [`PartialUpdate`] per *partition* ([`vine_dag::TaskKind::Process`]
//! task) the first time it completes: the partition's histogram delta
//! and how many partitions and events are done out of the run's total
//! (`vine_analysis::StreamAccumulator` turns those counts into the
//! estimate's completed fraction and statistical precision). The observer's return value is a control channel
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

/// Receives partial results as partitions complete; may stop the run.
pub trait RunObserver {
    /// Called once per partition, at its first completion, in collect
    /// order. Returning [`ObserverControl::Stop`] cancels the remaining
    /// partition cone.
    fn on_partition(&mut self, update: PartialUpdate) -> ObserverControl;
}
