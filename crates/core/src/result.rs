//! Run results: outcome, makespan and statistics. Figure series come
//! from the recorder a run is given (`vine_obs::FigureRecorder`), not
//! from the result.

use vine_simcore::SimDur;

/// How a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every task completed.
    Completed,
    /// Graceful degradation: every task either completed or was
    /// quarantined after exhausting its retry budget under injected
    /// faults. The surviving results are valid; the quarantined
    /// partitions are enumerated in [`RunStats::quarantined_tasks`].
    ///
    /// [`RunStats::quarantined_tasks`]: crate::RunStats::quarantined_tasks
    Degraded {
        /// Tasks withdrawn from the run (producers that exhausted their
        /// budget plus their transitive consumers).
        quarantined_tasks: u64,
    },
    /// The run could not finish (e.g. Dask.Distributed at TB scale, or a
    /// single-node reduction that no worker's disk can hold).
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

/// Aggregate counters from one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Distinct tasks in the workflow.
    pub tasks_total: usize,
    /// Task executions, counting preemption-triggered re-runs.
    pub task_executions: u64,
    /// Workers preempted during the run.
    pub preemptions: u64,
    /// Worker-level failures from cache overflow (Fig 11's Xs).
    pub cache_overflow_failures: u64,
    /// Bytes that crossed the manager's access link (either direction).
    pub manager_bytes: u64,
    /// Bytes moved worker→worker (peer transfers).
    pub peer_bytes: u64,
    /// Bytes read from the shared filesystem.
    pub shared_fs_bytes: u64,
    /// Completed network flows.
    pub flows_completed: u64,
    /// LibraryTask instantiations (serverless mode).
    pub libraries_started: u64,
    /// Sum of task execution durations (overhead + compute + local I/O)
    /// across all executions, in microseconds.
    pub total_task_busy_us: u64,
    /// Tasks satisfied from a warm session's caches instead of executing
    /// (zero outside [`crate::RunRequest::session`] runs).
    pub memoized_tasks: u64,
    /// Bytes of already-resident outputs those memoized tasks would have
    /// produced (compute and transfer the warm start avoided).
    pub warm_hit_bytes: u64,
    /// Task-level retries consumed (transient failures and timeouts;
    /// preemption re-runs and corruption-triggered re-stages are not
    /// counted here — see `task_executions`).
    pub retries: u64,
    /// Total sim time spent holding tasks in retry backoff, summed over
    /// retries, in microseconds.
    pub backoff_time_us: u64,
    /// Attempts abandoned by the recovery policy's timeout.
    pub task_timeouts: u64,
    /// Attempts that failed from injected transient task failures.
    pub transient_failures: u64,
    /// Speculative duplicates that finished before the primary attempt.
    pub speculative_wins: u64,
    /// Speculative duplicates cancelled because the primary finished
    /// first (or their worker died).
    pub speculative_losses: u64,
    /// Workers the recovery policy stopped scheduling onto.
    pub blocklisted_workers: u64,
    /// Tasks quarantined after exhausting their retry budget, including
    /// the transitive consumers withdrawn with them.
    pub quarantined_tasks: u64,
    /// Cache reads that detected a chaos-corrupted entry (checksum
    /// mismatch against the cachename).
    pub corruptions_detected: u64,
    /// Highest single-worker cache occupancy reached, bytes.
    pub peak_cache_bytes: u64,
    /// Simulator events processed by the engine's event loop.
    pub events_processed: u64,
    /// Partitions whose completion was pushed to a [`crate::RunObserver`]
    /// (memoized partitions count toward the fraction but are not
    /// re-pushed). Zero when no observer was attached.
    pub partitions_streamed: u64,
    /// Tasks cancelled because the observer declared convergence
    /// ([`crate::ObserverControl::Stop`]). Counted separately from
    /// [`quarantined_tasks`](Self::quarantined_tasks): an early-stopped
    /// run is still [`RunOutcome::Completed`] — the cancellation was the
    /// analysis's choice, not a fault.
    pub early_stop_cancelled: u64,
    /// True if the run ended early at the observer's request.
    pub early_stopped: bool,
}

/// Everything one simulated run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Completion status.
    pub outcome: RunOutcome,
    /// Wall-clock makespan (time of the last task completion).
    pub makespan: SimDur,
    /// Aggregate counters.
    pub stats: RunStats,
    /// Pre-flight lint findings for this (graph, config) pair, recorded
    /// even when the gate lets the run proceed.
    pub lint_findings: Vec<vine_lint::Diagnostic>,
    /// Per-task phase attributions and the run digest, when
    /// `EngineConfig::obs` was on.
    pub obs: Option<vine_obs::RunObs>,
    /// Exact flow-fabric work: changes, solves, water-filling iterations
    /// and link visits. Simulator cost, not simulated behaviour, so it is
    /// kept out of [`RunStats`] and every digest.
    pub fabric_work: vine_net::fairshare::SolveWork,
    /// Exact placement-layer work, kept out of [`RunStats`] and every
    /// digest for the same reason.
    pub placement_work: PlacementWork,
}

/// Exact work of the placement layer's indexes in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlacementWork {
    /// Queued peer-transfer waits examined by drains.
    pub peer_wait_visits: u64,
    /// Load-index entries walked by least-loaded picks.
    pub pick_visits: u64,
}

impl RunResult {
    /// Convenience: makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// True if the run completed every task.
    pub fn completed(&self) -> bool {
        self.outcome == RunOutcome::Completed
    }

    /// True if the run finished rather than aborting: every task either
    /// completed or was gracefully quarantined. This is the liveness
    /// criterion chaos runs assert.
    pub fn finished(&self) -> bool {
        matches!(
            self.outcome,
            RunOutcome::Completed | RunOutcome::Degraded { .. }
        )
    }

    /// Speedup of this run relative to a baseline makespan.
    pub fn speedup_vs(&self, baseline: &RunResult) -> f64 {
        baseline.makespan_secs() / self.makespan_secs().max(1e-9)
    }

    /// Mean task execution time (the quantity Fig 8/Fig 10 plot): total
    /// worker-side busy time divided by task executions.
    pub fn mean_task_secs(&self) -> f64 {
        if self.stats.task_executions == 0 {
            0.0
        } else {
            self.stats.total_task_busy_us as f64 / 1e6 / self.stats.task_executions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(secs: u64) -> RunResult {
        RunResult {
            outcome: RunOutcome::Completed,
            makespan: SimDur::from_secs(secs),
            stats: RunStats::default(),
            lint_findings: Vec::new(),
            obs: None,
            fabric_work: Default::default(),
            placement_work: PlacementWork::default(),
        }
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let slow = dummy(100);
        let fast = dummy(25);
        assert!((fast.speedup_vs(&slow) - 4.0).abs() < 1e-9);
        assert!((slow.speedup_vs(&slow) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn outcome_helpers() {
        assert!(dummy(1).completed());
        assert!(dummy(1).finished());
        let failed = RunResult {
            outcome: RunOutcome::Failed { reason: "x".into() },
            ..dummy(1)
        };
        assert!(!failed.completed());
        assert!(!failed.finished());
        let degraded = RunResult {
            outcome: RunOutcome::Degraded {
                quarantined_tasks: 3,
            },
            ..dummy(1)
        };
        assert!(!degraded.completed(), "degraded is not full completion");
        assert!(degraded.finished(), "but it did not abort");
    }
}
