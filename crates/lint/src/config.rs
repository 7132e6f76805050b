//! Config-consistency lints (C codes).
//!
//! These catch knob combinations §IV warns about: a peer-transfer
//! throttle set to zero (a transfer that can never start is a deadlock,
//! not a slow run), replication that cannot happen, and Dask.Distributed
//! pointed at inputs the paper says it cannot run.

use vine_dag::TaskGraph;

use crate::{fmt_bytes, Code, Diagnostic, EngineFacts, Locus, Report, SchedulerFamily, Severity};

/// Run the config-consistency lints.
pub fn lint(graph: &TaskGraph, facts: &EngineFacts) -> Report {
    let mut report = Report::new();
    let mut push = |code, severity, message: String, suggestion: Option<String>| {
        report.push(Diagnostic {
            code,
            severity,
            locus: Locus::Config,
            message,
            suggestion,
        });
    };

    // C002 — worker-local import distribution only pays off for the
    // serverless path; standard tasks re-import per invocation wherever
    // the environment lives.
    if facts.import_worker_local && !facts.serverless {
        push(
            Code::C002,
            Severity::Warn,
            "worker-local import distribution with conventional (non-serverless) tasks".into(),
            Some("enable FunctionCalls, or import from the shared filesystem".into()),
        );
    }

    // C003 — peer transfers that can never start. The manager throttles
    // concurrent peer transfers per worker; zero means every file wait
    // blocks forever.
    if facts.peer_transfers && facts.max_peer_transfers_per_worker == 0 {
        push(
            Code::C003,
            Severity::Error,
            "peer transfers enabled with max_peer_transfers_per_worker = 0".into(),
            Some("raise the throttle (the presets use 3) or disable peer transfers".into()),
        );
    }

    // C005 — the paper's §V finding, applied statically: beyond ~0.5 TB
    // of input Dask.Distributed "was unable to run" the workload. The
    // engine enforces this at runtime; flagging it here saves the run.
    if facts.scheduler == SchedulerFamily::DaskDistributed {
        if let Some(limit) = facts.dask_unstable_above_bytes {
            let dataset = graph.external_bytes();
            if dataset > limit {
                push(
                    Code::C005,
                    Severity::Error,
                    format!(
                        "Dask.Distributed with {} of input exceeds its stable scale ({})",
                        fmt_bytes(dataset),
                        fmt_bytes(limit)
                    ),
                    Some("run this workload on the TaskVine stack".into()),
                );
            }
        }
    }

    // C006 — more replicas than workers can ever exist.
    if facts.replica_target as usize > facts.workers && facts.workers > 0 {
        push(
            Code::C006,
            Severity::Warn,
            format!(
                "replica_target {} exceeds the {} available workers",
                facts.replica_target, facts.workers
            ),
            Some("lower replica_target or add workers".into()),
        );
    }

    // C007 — data movement contradicting the scheduler generation: Work
    // Queue routes everything through the manager (peer transfers are a
    // TaskVine capability), and TaskVine without peer transfers forfeits
    // the mechanism replication and data-aware placement rely on.
    match facts.scheduler {
        SchedulerFamily::WorkQueue if facts.peer_transfers => push(
            Code::C007,
            Severity::Warn,
            "peer transfers enabled under Work Queue (manager-centric data movement)".into(),
            Some("use the TaskVine scheduler (stack 3+) for peer transfers".into()),
        ),
        SchedulerFamily::TaskVine if !facts.peer_transfers => push(
            Code::C007,
            Severity::Warn,
            "TaskVine without peer transfers: all data still moves through the manager".into(),
            Some("enable peer transfers unless this is a deliberate ablation".into()),
        ),
        _ => {}
    }

    // C008 — replicas travel as peer transfers; with those off,
    // replication does nothing.
    if facts.replica_target >= 2 && !facts.peer_transfers {
        push(
            Code::C008,
            Severity::Warn,
            "replication enabled but peer transfers are off: replicas cannot be made".into(),
            Some("enable peer transfers or set replica_target = 1".into()),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_dag::{TaskGraph, TaskKind};

    fn graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let e = g.add_external_file("in", 1_000_000_000_000);
        g.add_task("t", TaskKind::Process, vec![e], &[10], 1.0);
        g
    }

    #[test]
    fn reference_facts_lint_clean() {
        assert!(lint(&graph(), &EngineFacts::default()).is_clean());
    }

    #[test]
    fn worker_local_imports_without_serverless_is_c002() {
        let f = EngineFacts {
            serverless: false,
            ..EngineFacts::default()
        };
        assert!(lint(&graph(), &f).has_code(Code::C002));
    }

    #[test]
    fn zero_peer_throttle_is_c003_error() {
        let f = EngineFacts {
            max_peer_transfers_per_worker: 0,
            ..EngineFacts::default()
        };
        let r = lint(&graph(), &f);
        assert!(r.has_code(Code::C003) && r.has_errors());
    }

    #[test]
    fn dask_at_tb_scale_is_c005_error() {
        let f = EngineFacts {
            scheduler: SchedulerFamily::DaskDistributed,
            dask_unstable_above_bytes: Some(500_000_000_000),
            ..EngineFacts::default()
        };
        let r = lint(&graph(), &f);
        assert!(r.has_code(Code::C005) && r.has_errors());
    }

    #[test]
    fn dask_below_limit_is_clean() {
        let mut g = TaskGraph::new();
        let e = g.add_external_file("in", 1_000_000);
        g.add_task("t", TaskKind::Process, vec![e], &[10], 1.0);
        let f = EngineFacts {
            scheduler: SchedulerFamily::DaskDistributed,
            dask_unstable_above_bytes: Some(500_000_000_000),
            ..EngineFacts::default()
        };
        assert!(lint(&g, &f).is_clean());
    }

    #[test]
    fn replicas_beyond_workers_is_c006() {
        let f = EngineFacts {
            replica_target: 9,
            workers: 4,
            ..EngineFacts::default()
        };
        assert!(lint(&graph(), &f).has_code(Code::C006));
    }

    #[test]
    fn peer_transfers_under_work_queue_is_c007() {
        let f = EngineFacts {
            scheduler: SchedulerFamily::WorkQueue,
            serverless: false,
            import_worker_local: false,
            replica_target: 1,
            ..EngineFacts::default()
        };
        assert!(lint(&graph(), &f).has_code(Code::C007));
    }

    #[test]
    fn taskvine_without_peer_transfers_is_c007() {
        let f = EngineFacts {
            peer_transfers: false,
            replica_target: 1,
            ..EngineFacts::default()
        };
        assert!(lint(&graph(), &f).has_code(Code::C007));
    }

    #[test]
    fn replication_without_transport_is_c008() {
        let f = EngineFacts {
            peer_transfers: false,
            ..EngineFacts::default()
        };
        let r = lint(&graph(), &f);
        assert!(r.has_code(Code::C008) && r.has_code(Code::C007));
    }
}
