//! Regression test for the chaos-matrix policy spread: each fault
//! preset that fig-chaos reports on must actually *differentiate* the
//! recovery-policy ladder. A preset whose four policies land within a
//! few percent of each other is injecting faults that no policy knob
//! reacts to (rates too low to fire, or failures that bypass the retry
//! budget) — exactly the regression the retuned presets fixed.
//!
//! Runs fig-chaos's own cells (DV3-Small at its default 1/4 scale, 6
//! workers, seed 42), so `results/chaos.csv` and this test see the same
//! trajectories.

use vine_bench::experiments::fig_chaos::{cell, policies, SCALE};
use vine_bench::lab::Lab;
use vine_core::{RecoveryPolicy, RunOutcome};

/// One fig-chaos cell: its makespan and outcome.
fn makespan(preset: &str, policy: RecoveryPolicy) -> (f64, RunOutcome) {
    let r = cell(&mut Lab::quiet(), preset, policy, SCALE);
    (r.makespan_secs(), r.outcome)
}

/// Every preset tuned to exercise the retry budget must show at least a
/// 5 % relative makespan spread across the ladder. `storm` is excluded:
/// its point is breadth (every family at once at modest rates), not
/// policy discrimination, and fig-chaos only reports it.
#[test]
fn retuned_presets_spread_the_policy_ladder() {
    for preset in ["campus", "stragglers", "flaky-net", "bitrot"] {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (pname, policy) in policies() {
            let (m, outcome) = makespan(preset, policy);
            assert!(
                !matches!(outcome, RunOutcome::Failed { .. }),
                "{preset}/{pname} must not hard-fail"
            );
            assert!(m > 0.0, "{preset}/{pname} produced an empty run");
            lo = lo.min(m);
            hi = hi.max(m);
        }
        let spread = (hi - lo) / lo;
        assert!(
            spread >= 0.05,
            "{preset}: makespan spread across recovery policies is {:.1}% \
             ({lo:.1}s..{hi:.1}s) — the preset no longer differentiates the \
             ladder; retune its rates (see FaultPlan::preset docs)",
            100.0 * spread
        );
    }
}

/// The fragile rung trades completeness for speed: under attempt-level
/// failures it quarantines instead of retrying, so it must finish
/// *degraded* and *sooner* than the retrying default.
#[test]
fn fragile_quarantines_instead_of_retrying() {
    for preset in ["campus", "flaky-net", "bitrot"] {
        let (frag, frag_out) = makespan(preset, RecoveryPolicy::fragile());
        let (def, def_out) = makespan(preset, RecoveryPolicy::default());
        assert!(
            matches!(frag_out, RunOutcome::Degraded { .. }),
            "{preset}: fragile should degrade under attempt-level failures"
        );
        assert!(
            matches!(def_out, RunOutcome::Completed),
            "{preset}: default retries should complete the run"
        );
        assert!(
            frag < def,
            "{preset}: fragile ({frag:.1}s) should finish before default ({def:.1}s)"
        );
    }
}
