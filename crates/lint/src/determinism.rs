//! Determinism and reproducibility lints (D codes).
//!
//! The simulator itself is deterministic given a seed, but some
//! configurations make *comparisons between runs* fragile: sole-copy
//! intermediates under preemption mean a single unlucky draw cascades
//! into lineage re-runs that dominate the makespan.

use crate::{Code, Diagnostic, EngineFacts, Locus, Report, SchedulerFamily, Severity};

/// Run the determinism lints.
pub fn lint(facts: &EngineFacts) -> Report {
    let mut report = Report::new();

    // D001 — TaskVine keeps intermediates on worker disks; with
    // preemption on and no replication, losing the sole copy of a partial
    // triggers lineage re-runs whose depth depends on one random draw.
    // Results stay deterministic per seed but vary wildly across seeds.
    if facts.scheduler == SchedulerFamily::TaskVine
        && facts.preemption_rate_per_sec > 0.0
        && facts.replica_target < 2
    {
        report.push(Diagnostic {
            code: Code::D001,
            severity: Severity::Warn,
            locus: Locus::Config,
            message: "preemption with sole-copy intermediates: one loss cascades into \
                      lineage re-runs, making makespans highly seed-sensitive"
                .into(),
            suggestion: Some("set replica_target >= 2 (stacks 3-4 do)".into()),
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_facts_lint_clean() {
        assert!(lint(&EngineFacts::default()).is_clean());
    }

    #[test]
    fn sole_copy_under_preemption_is_d001() {
        let f = EngineFacts {
            preemption_rate_per_sec: 1e-4,
            replica_target: 1,
            ..EngineFacts::default()
        };
        let r = lint(&f);
        assert!(r.has_code(Code::D001) && !r.has_errors());
    }

    #[test]
    fn replication_suppresses_d001() {
        let f = EngineFacts {
            preemption_rate_per_sec: 1e-4,
            ..EngineFacts::default()
        };
        assert!(lint(&f).is_clean());
    }
}
