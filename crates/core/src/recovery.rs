//! Recovery policy: what the engine does about injected (or modeled)
//! faults.
//!
//! A [`RecoveryPolicy`] is pure configuration — the mechanisms live in
//! the engine event loop:
//!
//! * **Retry budgets + backoff.** Task-level failures (transient chaos
//!   failures and timeouts) consume the task's retry budget; each retry
//!   is delayed by exponential backoff with jitter on the *sim clock*,
//!   so a crashing task cannot hot-loop the manager. Worker-level deaths
//!   (preemption) and detected cache corruption do not consume the
//!   budget — the task did nothing wrong; corruption is treated as file
//!   loss and healed by ordinary lineage recovery — matching the
//!   engine's long-standing infinite-retry behavior for preemption.
//! * **Timeouts.** A task attempt is abandoned when it exceeds a
//!   multiple of its category's p99 runtime estimate (computed from the
//!   run's own sampled durations, so the estimate and the samples share
//!   a distribution). Timeouts count as task-level failures.
//! * **Speculation.** When an attempt runs past
//!   `speculation_factor ×` its own estimated total, a duplicate is
//!   launched on a different worker; the first finisher wins and the
//!   loser is cancelled.
//! * **Blocklisting.** After `blocklist_after` failures observed on one
//!   worker (its deaths and its task-level failures), the scheduler
//!   stops placing new work there. The last eligible worker is never
//!   blocklisted.
//! * **Graceful degradation.** A task that exhausts its budget is
//!   *quarantined* together with its transitive consumers; the run then
//!   finishes with [`RunOutcome::Degraded`] instead of aborting, under
//!   every policy.
//!
//! [`RunOutcome::Degraded`]: crate::RunOutcome::Degraded

use vine_simcore::SimDur;

/// Tunable recovery behavior for one engine run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Task-level failures tolerated per task before quarantine. The
    /// budget counts *failures*, so a task may execute `retry_budget + 1`
    /// times.
    pub retry_budget: u32,
    /// First-retry backoff delay; doubles per subsequent failure.
    pub backoff_base: SimDur,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: SimDur,
    /// Uniform jitter fraction: the delay is scaled by a factor drawn
    /// from `[1, 1 + jitter]` on a chaos-seeded stream.
    pub backoff_jitter: f64,
    /// Abandon an attempt whose *compute phase* exceeds this multiple of
    /// the task category's p99 sampled runtime. `0` disables timeouts.
    pub timeout_factor: f64,
    /// Launch a duplicate attempt for stragglers (first-finisher-wins).
    pub speculation: bool,
    /// Speculate once an attempt runs past this multiple of its own
    /// estimated total duration. Ignored unless `speculation`.
    pub speculation_factor: f64,
    /// Stop scheduling onto a worker after this many failures observed
    /// there. `0` disables blocklisting.
    pub blocklist_after: u32,
}

impl Default for RecoveryPolicy {
    /// Retry-only defaults: budgeted retries with backoff, no timeouts,
    /// no speculation, no blocklisting. With an empty fault plan this is
    /// behaviorally identical to the pre-chaos engine (nothing ever draws
    /// on the budget).
    fn default() -> Self {
        RecoveryPolicy {
            retry_budget: 3,
            backoff_base: SimDur::from_millis(500),
            backoff_cap: SimDur::from_secs(30),
            backoff_jitter: 0.25,
            timeout_factor: 0.0,
            speculation: false,
            speculation_factor: 2.0,
            blocklist_after: 0,
        }
    }
}

impl RecoveryPolicy {
    /// The full battery: defaults plus timeouts at 4× the category p99,
    /// speculation at 1.75× the attempt's own estimate, and blocklisting
    /// after 5 failures. What a chaos run should use.
    pub fn hardened() -> Self {
        RecoveryPolicy {
            timeout_factor: 4.0,
            speculation: true,
            speculation_factor: 1.75,
            blocklist_after: 5,
            ..Self::default()
        }
    }

    /// No recovery at all: zero budget, nothing optional. Exhausted tasks
    /// are still quarantined, as under every policy. The control arm for
    /// fig-chaos.
    pub fn fragile() -> Self {
        RecoveryPolicy {
            retry_budget: 0,
            backoff_base: SimDur::ZERO,
            backoff_cap: SimDur::ZERO,
            backoff_jitter: 0.0,
            timeout_factor: 0.0,
            speculation: false,
            speculation_factor: 2.0,
            blocklist_after: 0,
        }
    }

    /// The backoff delay after the `n`-th failure of a task (1-based),
    /// before jitter: `min(cap, base · 2^(n-1))`.
    pub fn backoff_for_failure(&self, n: u32) -> SimDur {
        if self.backoff_base == SimDur::ZERO {
            return SimDur::ZERO;
        }
        let doublings = n.saturating_sub(1).min(20);
        let scaled = self.backoff_base * (1u64 << doublings);
        scaled.min(self.backoff_cap)
    }

    /// Bounds-check the policy.
    pub fn validate(&self) -> Result<(), String> {
        if !self.backoff_jitter.is_finite() || self.backoff_jitter < 0.0 {
            return Err("recovery: backoff jitter must be finite and >= 0".into());
        }
        if !self.timeout_factor.is_finite() || self.timeout_factor < 0.0 {
            return Err("recovery: timeout factor must be finite and >= 0".into());
        }
        if self.speculation
            && (!self.speculation_factor.is_finite() || self.speculation_factor < 1.0)
        {
            return Err("recovery: speculation factor must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RecoveryPolicy {
            backoff_base: SimDur::from_secs(1),
            backoff_cap: SimDur::from_secs(5),
            ..Default::default()
        };
        assert_eq!(p.backoff_for_failure(1), SimDur::from_secs(1));
        assert_eq!(p.backoff_for_failure(2), SimDur::from_secs(2));
        assert_eq!(p.backoff_for_failure(3), SimDur::from_secs(4));
        assert_eq!(p.backoff_for_failure(4), SimDur::from_secs(5));
        assert_eq!(p.backoff_for_failure(40), SimDur::from_secs(5));
    }

    #[test]
    fn fragile_policy_has_zero_backoff() {
        let p = RecoveryPolicy::fragile();
        assert_eq!(p.retry_budget, 0);
        assert_eq!(p.backoff_for_failure(1), SimDur::ZERO);
        p.validate().unwrap();
    }

    #[test]
    fn presets_validate() {
        RecoveryPolicy::default().validate().unwrap();
        RecoveryPolicy::hardened().validate().unwrap();
        let bad = RecoveryPolicy {
            speculation: true,
            speculation_factor: 0.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }
}
