//! Graph-structure lints (G codes).
//!
//! Subsumes `TaskGraph::validate`: the typed [`ValidateError`] becomes a
//! `G001`/`G002` diagnostic, and further structural smells the validator
//! does not treat as fatal — duplicate logical file names, output-less
//! tasks, never-consumed inputs, unbounded reduction fan-in — are
//! reported alongside.

use vine_dag::{TaskGraph, TaskKind, ValidateError};

use crate::{Code, Diagnostic, Locus, Report, Severity};

/// Fan-in above which a single accumulation is flagged (`G006`). The
/// paper's tree rewrites use arities 4–16; anything past this bound is
/// in single-node-reduction territory and concentrates partials on one
/// worker (Fig 11's failure shape).
pub const MAX_SAFE_FAN_IN: usize = 64;

/// Run the structural lints.
pub fn lint(graph: &TaskGraph) -> Report {
    let mut report = Report::new();

    // G001/G002 — link consistency and acyclicity, from the typed
    // validator. A broken graph makes the remaining lints unreliable, so
    // report and stop here.
    if let Err(e) = graph.validate() {
        let (code, locus) = match e {
            ValidateError::Cycle => (Code::G002, Locus::Graph),
            ValidateError::UnknownProducer { file, .. }
            | ValidateError::ProducerLinkBroken { file, .. }
            | ValidateError::UnknownConsumer { file, .. }
            | ValidateError::ConsumerLinkBroken { file, .. } => (Code::G001, Locus::File(file)),
            ValidateError::UnknownInput { task, .. }
            | ValidateError::InputLinkBroken { task, .. }
            | ValidateError::UnknownOutput { task, .. }
            | ValidateError::OutputLinkBroken { task, .. } => (Code::G001, Locus::Task(task)),
        };
        report.push(Diagnostic {
            code,
            severity: Severity::Error,
            locus,
            message: e.to_string(),
            suggestion: Some("build graphs through the TaskGraph builder API".into()),
        });
        return report;
    }

    // G007 — nothing to run.
    if graph.task_count() == 0 {
        report.push(Diagnostic {
            code: Code::G007,
            severity: Severity::Info,
            locus: Locus::Graph,
            message: "graph has no tasks; the run will complete immediately".into(),
            suggestion: None,
        });
        return report;
    }

    // G003 — duplicate logical names. The engine derives cache keys from
    // file names, so two distinct files with one name would collide in
    // every worker cache and in transfer bookkeeping. One sort groups
    // each name's files in file order; a repeated name is flagged once,
    // at its first file, and the flags are reported in file order.
    let mut by_name: Vec<(&str, usize)> = graph
        .files()
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    by_name.sort_unstable();
    let mut first_of_repeated: Vec<usize> = by_name
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|group| group.len() > 1)
        .map(|group| group[0].1)
        .collect();
    first_of_repeated.sort_unstable();
    for i in first_of_repeated {
        let f = &graph.files()[i];
        report.push(Diagnostic {
            code: Code::G003,
            severity: Severity::Error,
            locus: Locus::File(f.id),
            message: format!("file name \"{}\" is shared by multiple files", f.name),
            suggestion: Some("give every file a unique logical name".into()),
        });
    }

    for t in graph.tasks() {
        // G004 — a task whose outputs vanish: nothing downstream, nothing
        // reported.
        if t.outputs.is_empty() {
            report.push(Diagnostic {
                code: Code::G004,
                severity: Severity::Warn,
                locus: Locus::Task(t.id),
                message: format!("task \"{}\" produces no outputs", t.name),
                suggestion: Some("drop the task or declare its result files".into()),
            });
        }
        // G006 — reduction fan-in bound.
        if t.kind == TaskKind::Accumulate && t.inputs.len() > MAX_SAFE_FAN_IN {
            report.push(Diagnostic {
                code: Code::G006,
                severity: Severity::Warn,
                locus: Locus::Task(t.id),
                message: format!(
                    "accumulation \"{}\" has fan-in {} (> {MAX_SAFE_FAN_IN})",
                    t.name,
                    t.inputs.len()
                ),
                suggestion: Some(
                    "rewrite as a bounded-arity tree (rewrite_wide_reductions)".into(),
                ),
            });
        }
    }

    // G005 — staged inputs nobody reads.
    for f in graph.external_files() {
        if f.consumers.is_empty() {
            report.push(Diagnostic {
                code: Code::G005,
                severity: Severity::Warn,
                locus: Locus::File(f.id),
                message: format!("external input \"{}\" is never consumed", f.name),
                suggestion: Some("remove the file from the plan".into()),
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_dag::TaskGraph;

    fn small_pipeline() -> TaskGraph {
        let mut g = TaskGraph::new();
        let parts: Vec<_> = (0..4)
            .map(|i| g.add_external_file(format!("p{i}"), 100))
            .collect();
        let partials = g.map_partitions("proc", &parts, 10, 1.0);
        g.add_task("acc", TaskKind::Accumulate, partials, &[1], 0.5);
        g
    }

    #[test]
    fn clean_pipeline_lints_clean() {
        assert!(lint(&small_pipeline()).is_clean());
    }

    #[test]
    fn empty_graph_is_info_only() {
        let r = lint(&TaskGraph::new());
        assert!(r.has_code(Code::G007) && !r.has_errors());
    }

    #[test]
    fn severed_consumer_link_is_g001() {
        let mut g = small_pipeline();
        let (tasks, _) = g.raw_parts_mut();
        tasks[0].inputs.clear();
        let r = lint(&g);
        assert!(r.has_code(Code::G001) && r.has_errors());
    }

    #[test]
    fn duplicate_file_name_is_g003() {
        let mut g = small_pipeline();
        let (_, files) = g.raw_parts_mut();
        files[1].name = files[0].name.clone();
        let r = lint(&g);
        assert!(r.has_code(Code::G003) && r.has_errors());
        // One diagnostic per colliding name, not per file.
        assert_eq!(
            r.diagnostics()
                .iter()
                .filter(|d| d.code == Code::G003)
                .count(),
            1
        );
    }

    #[test]
    fn output_less_task_is_g004() {
        let mut g = small_pipeline();
        let ext = g.add_external_file("extra", 5);
        g.add_task("sink", TaskKind::Generic, vec![ext], &[], 1.0);
        let r = lint(&g);
        assert!(r.has_code(Code::G004) && !r.has_errors());
    }

    #[test]
    fn unconsumed_external_is_g005() {
        let mut g = small_pipeline();
        g.add_external_file("unused", 5);
        let r = lint(&g);
        assert!(r.has_code(Code::G005) && !r.has_errors());
    }

    #[test]
    fn wide_accumulation_is_g006() {
        let mut g = TaskGraph::new();
        let parts: Vec<_> = (0..100)
            .map(|i| g.add_external_file(format!("p{i}"), 100))
            .collect();
        let partials = g.map_partitions("proc", &parts, 10, 1.0);
        g.add_task("acc", TaskKind::Accumulate, partials, &[1], 0.5);
        let r = lint(&g);
        assert!(r.has_code(Code::G006) && !r.has_errors());
    }

    #[test]
    fn cycle_is_g002() {
        use vine_dag::{FileId, TaskId};
        let mut g = small_pipeline();
        // Make task 0 consume its own output's descendant: wire the final
        // accumulate output back into task 0's inputs.
        let last_file = FileId(g.file_count() as u32 - 1);
        let (tasks, files) = g.raw_parts_mut();
        tasks[0].inputs.push(last_file);
        files[last_file.0 as usize].consumers.push(TaskId(0));
        let r = lint(&g);
        assert!(r.has_code(Code::G002) && r.has_errors());
    }
}
