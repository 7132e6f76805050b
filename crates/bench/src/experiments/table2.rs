//! Table II — application workload configurations.
//!
//! The paper's inventory of size variants; we print each spec plus the
//! properties of the generated graph (exact task counts, data volumes,
//! chunk sizes) so the correspondence is checkable.

use vine_analysis::WorkloadSpec;
use vine_simcore::units::fmt_bytes;

use super::Output;
use crate::lab::Lab;

/// One row of Table II, measured from the generated graph.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// Workload name.
    pub name: &'static str,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Tasks in the generated graph (process + accumulation).
    pub total_tasks: usize,
    /// Process (map) tasks.
    pub process_tasks: usize,
    /// Accumulation tasks.
    pub accum_tasks: usize,
    /// Independent datasets.
    pub datasets: usize,
    /// Bytes per input chunk.
    pub chunk_bytes: u64,
    /// Total intermediate bytes produced by the map phase.
    pub intermediate_bytes: u64,
    /// Dependency-graph depth.
    pub critical_path: usize,
}

/// Generate all Table II rows. Each graph gets the structural lint
/// (only the G family applies without an engine config), announced
/// through `lab`.
pub fn run(lab: &Lab) -> Vec<WorkloadRow> {
    WorkloadSpec::table2()
        .into_iter()
        .map(|spec| {
            let g = spec.to_graph();
            let report = vine_lint::lint_graph(&g);
            lab.announce(spec.name, g.task_count(), report.diagnostics());
            let (p, a, _) = g.kind_counts();
            WorkloadRow {
                name: spec.name,
                input_bytes: spec.input_bytes,
                total_tasks: g.task_count(),
                process_tasks: p,
                accum_tasks: a,
                datasets: spec.n_datasets,
                chunk_bytes: spec.chunk_bytes(),
                intermediate_bytes: p as u64 * spec.process_output_bytes,
                critical_path: g.critical_path_len(),
            }
        })
        .collect()
}

pub(super) fn figure(lab: &mut Lab, _args: &[usize]) -> Output {
    let rows = run(lab);
    let header = [
        "Application",
        "Input",
        "Tasks",
        "Process",
        "Accum",
        "Datasets",
        "Chunk",
        "Intermediates",
        "Depth",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                fmt_bytes(r.input_bytes),
                r.total_tasks.to_string(),
                r.process_tasks.to_string(),
                r.accum_tasks.to_string(),
                r.datasets.to_string(),
                fmt_bytes(r.chunk_bytes),
                fmt_bytes(r.intermediate_bytes),
                r.critical_path.to_string(),
            ]
        })
        .collect();
    let mut out = Output::default();
    out.line("\nTABLE II: Application workloads (generated graphs)\n");
    out.table(&header, &data, Some("table2.csv"));
    out.line("Paper: DV3-Large = 17K tasks / 1.2 TB; DV3-Huge = 185K tasks / 1.2 TB;");
    out.line("       RS-TriPhoton = 4K tasks / 500 GB; Small/Medium = 25 GB / 200 GB.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vine_simcore::units::{GB, TB};

    #[test]
    fn rows_match_paper_table2() {
        let rows = run(&Lab::quiet());
        assert_eq!(rows.len(), 5);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();

        let large = by_name("DV3-Large");
        assert!((16_500..=17_500).contains(&large.total_tasks));
        assert_eq!(large.input_bytes, 1_200 * GB);

        let huge = by_name("DV3-Huge");
        assert!((180_000..=190_000).contains(&huge.total_tasks));
        assert_eq!(huge.input_bytes, large.input_bytes); // same data

        let rs = by_name("RS-TriPhoton");
        assert!((3_800..=4_400).contains(&rs.total_tasks));
        assert_eq!(rs.input_bytes, 500 * GB);
        assert_eq!(rs.datasets, 20);

        assert_eq!(by_name("DV3-Small").input_bytes, 25 * GB);
        assert_eq!(by_name("DV3-Medium").input_bytes, 200 * GB);

        // Intermediates exceed input for DV3-Large (§III).
        assert!(large.intermediate_bytes > TB);
    }
}
