//! Resource-feasibility lints (R codes).
//!
//! The headline check is `R001`, the static version of Fig 11: a worker
//! executing accumulations must pin every input partial plus the output
//! for each concurrently-running reduction. The worst case co-locates
//! the largest `cores_per_worker` accumulations on one worker (data-aware
//! placement will happily do exactly that when their inputs already live
//! together), so the bound is the sum of the largest `cores` accumulation
//! pin sets. For the paper's single-node reduction that bound is ~2 TB
//! against a 700 GB disk — flagged before any event is simulated —
//! while the tree-reduce rewrite stays around 100 GB and passes.

use vine_dag::{TaskGraph, TaskKind};

use crate::{fmt_bytes, Code, Diagnostic, EngineFacts, Locus, Report, Severity};

/// Bytes a running task must hold simultaneously: all inputs + outputs.
fn pin_bytes(graph: &TaskGraph, t: &vine_dag::TaskNode) -> u64 {
    let ins: u64 = t.inputs.iter().map(|&f| graph.file(f).size_hint).sum();
    let outs: u64 = t.outputs.iter().map(|&f| graph.file(f).size_hint).sum();
    ins + outs
}

/// Run the feasibility lints.
pub fn lint(graph: &TaskGraph, facts: &EngineFacts) -> Report {
    let mut report = Report::new();

    // R004 — a cluster that cannot run anything at all. The remaining
    // bounds divide by these quantities, so stop here if degenerate.
    if facts.workers == 0 || facts.cores_per_worker == 0 || facts.disk_per_worker == 0 {
        report.push(Diagnostic {
            code: Code::R004,
            severity: Severity::Error,
            locus: Locus::Cluster,
            message: format!(
                "degenerate cluster: {} workers x {} cores, {} disk each",
                facts.workers,
                facts.cores_per_worker,
                fmt_bytes(facts.disk_per_worker)
            ),
            suggestion: Some("allocate at least one worker with cores and disk".into()),
        });
        return report;
    }

    // R002 — a single task whose pin set no worker can hold. Nothing the
    // scheduler does can make such a task runnable.
    for t in graph.tasks() {
        let pin = pin_bytes(graph, t);
        if pin > facts.disk_per_worker {
            report.push(Diagnostic {
                code: Code::R002,
                severity: Severity::Error,
                locus: Locus::Task(t.id),
                message: format!(
                    "task \"{}\" pins {} but each worker has {} of disk",
                    t.name,
                    fmt_bytes(pin),
                    fmt_bytes(facts.disk_per_worker)
                ),
                suggestion: Some("split the task or raise worker disk".into()),
            });
        }
    }

    // R001 — the Fig 11 bound. Sum of the largest `cores` accumulation
    // pin sets: the worst-case cache footprint when one worker hosts the
    // heaviest concurrent reductions.
    let mut acc_pins: Vec<(u64, vine_dag::TaskId)> = graph
        .tasks()
        .iter()
        .filter(|t| t.kind == TaskKind::Accumulate)
        .map(|t| (pin_bytes(graph, t), t.id))
        .collect();
    if !acc_pins.is_empty() {
        acc_pins.sort_unstable_by(|a, b| b.cmp(a));
        let slots = facts.cores_per_worker as usize;
        let bound: u64 = acc_pins.iter().take(slots).map(|&(p, _)| p).sum();
        if bound > facts.disk_per_worker {
            let worst = acc_pins[0].1;
            report.push(Diagnostic {
                code: Code::R001,
                severity: Severity::Error,
                locus: Locus::Task(worst),
                message: format!(
                    "worst-case reduction footprint {} on one {}-core worker exceeds \
                     its {} disk ({} accumulations, largest pins {})",
                    fmt_bytes(bound),
                    facts.cores_per_worker,
                    fmt_bytes(facts.disk_per_worker),
                    acc_pins.len(),
                    fmt_bytes(acc_pins[0].0)
                ),
                suggestion: Some(
                    "rewrite wide reductions as a bounded-arity tree \
                     (add_tree_reduce) or raise worker disk"
                        .into(),
                ),
            });
        }
    }

    // R003 — the dataset cannot be cached cluster-wide. Routine when
    // inputs stream from the shared filesystem (they are re-read at need)
    // but a real hazard when they arrive over the WAN, where every
    // eviction turns into a repeated wide-area fetch.
    let total_disk = facts.disk_per_worker.saturating_mul(facts.workers as u64);
    let dataset = graph.external_bytes();
    if dataset > total_disk {
        report.push(Diagnostic {
            code: Code::R003,
            severity: if facts.remote_inputs {
                Severity::Warn
            } else {
                Severity::Info
            },
            locus: Locus::Cluster,
            message: format!(
                "dataset {} exceeds aggregate cluster cache {} ({} workers x {})",
                fmt_bytes(dataset),
                fmt_bytes(total_disk),
                facts.workers,
                fmt_bytes(facts.disk_per_worker)
            ),
            suggestion: Some("add workers or expect eviction-driven re-reads".into()),
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_dag::TaskGraph;

    /// `n_parts` partials of `partial` bytes reduced by one accumulation
    /// per `arity` chunk (single level — enough for footprint tests).
    fn reduction(n_parts: usize, partial: u64, arity: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let parts: Vec<_> = (0..n_parts)
            .map(|i| g.add_external_file(format!("p{i}"), partial))
            .collect();
        for (i, chunk) in parts.chunks(arity).enumerate() {
            g.add_task(
                format!("acc{i}"),
                TaskKind::Accumulate,
                chunk.to_vec(),
                &[partial],
                1.0,
            );
        }
        g
    }

    fn facts(cores: u32, disk: u64) -> EngineFacts {
        EngineFacts {
            cores_per_worker: cores,
            disk_per_worker: disk,
            ..EngineFacts::default()
        }
    }

    #[test]
    fn bounded_tree_is_feasible() {
        // 40 partials of 1 GB, arity 4: each acc pins 5 GB; 12 cores can
        // co-host at most 10 of them = 50 GB < 108 GB.
        let g = reduction(40, 1_000_000_000, 4);
        assert!(lint(&g, &facts(12, 108_000_000_000)).is_clean());
    }

    #[test]
    fn single_node_reduce_is_r001() {
        // One 40-input accumulation pinning 41 GB against a 30 GB disk.
        let g = reduction(40, 1_000_000_000, 40);
        let r = lint(&g, &facts(12, 30_000_000_000));
        assert!(r.has_code(Code::R001) && r.has_errors());
        // The single pin also exceeds the disk alone.
        assert!(r.has_code(Code::R002));
    }

    #[test]
    fn concurrency_multiplies_the_footprint() {
        // Each acc pins 5 GB — fine alone, but 12 concurrent pins exceed
        // a 50 GB disk: R001 without R002.
        let g = reduction(48, 1_000_000_000, 4);
        let r = lint(&g, &facts(12, 50_000_000_000));
        assert!(r.has_code(Code::R001));
        assert!(!r.has_code(Code::R002));
    }

    #[test]
    fn degenerate_cluster_is_r004() {
        let g = reduction(4, 100, 2);
        let r = lint(&g, &facts(0, 1_000));
        assert!(r.has_code(Code::R004) && r.has_errors());
    }

    #[test]
    fn oversized_dataset_is_r003_info_on_shared_fs() {
        // 240 GB of small partials against 2 x 108 GB of cluster cache:
        // per-task pins stay tiny, only the aggregate bound trips.
        let g = reduction(2400, 100_000_000, 2);
        let f = EngineFacts {
            workers: 2,
            ..facts(12, 108_000_000_000)
        };
        let r = lint(&g, &f);
        assert!(r.has_code(Code::R003));
        assert!(!r.has_errors());
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::R003)
            .unwrap();
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn oversized_dataset_is_r003_warn_on_remote_inputs() {
        let g = reduction(2400, 100_000_000, 2);
        let f = EngineFacts {
            workers: 2,
            remote_inputs: true,
            ..facts(12, 108_000_000_000)
        };
        let d = lint(&g, &f);
        let diag = d
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::R003)
            .unwrap();
        assert_eq!(diag.severity, Severity::Warn);
    }
}
