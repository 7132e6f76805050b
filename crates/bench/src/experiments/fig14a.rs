//! Fig 14a — TaskVine vs Dask.Distributed scaling on DV3-Small/Medium.
//!
//! The paper: "both TaskVine and Dask.Distributed have similar behavior at
//! small scales, however TaskVine completes execution in about 1/2 the
//! time as we approach 300 cores."

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::EngineConfig;

use vine_obs::FigureSet;

use super::Output;
use crate::lab::Lab;

/// One scaling point.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Workload name.
    pub workload: &'static str,
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Total cores.
    pub cores: u32,
    /// Makespan, seconds (`None` if the run failed).
    pub makespan_s: Option<f64>,
}

/// The paper's core grid: 60–300 cores in steps of 60 (12-core workers).
pub fn core_grid() -> Vec<usize> {
    vec![5, 10, 15, 20, 25] // workers; ×12 = 60..300 cores
}

/// Run the comparison for one workload across the core grid. With
/// `record`, both schedulers' cells at the grid's first point are
/// recorded (`fig14a-taskvine`, `fig14a-dask`).
pub fn run_workload(
    lab: &mut Lab,
    spec: &WorkloadSpec,
    name: &'static str,
    seed: u64,
    workers_grid: &[usize],
    record: bool,
) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for (i, &workers) in workers_grid.iter().enumerate() {
        let cluster = ClusterSpec::standard(workers);
        for (label, export, cfg) in [
            (
                "TaskVine",
                "fig14a-taskvine",
                EngineConfig::stack4(cluster, seed),
            ),
            (
                "Dask.Distributed",
                "fig14a-dask",
                EngineConfig::dask_distributed(cluster, seed),
            ),
        ] {
            let cell = format!("{name} / {label} / {workers}w");
            let export = (record && i == 0).then_some(export);
            let (r, _) = lab.run(&cell, export, cfg, spec.to_graph(), FigureSet::NONE);
            out.push(ScalePoint {
                workload: name,
                scheduler: label,
                cores: cluster.total_cores(),
                makespan_s: r.completed().then(|| r.makespan_secs()),
            });
        }
    }
    out
}

/// Full figure: DV3-Small and DV3-Medium across 60–300 cores; DV3-Small
/// at 60 cores is recorded.
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> Vec<ScalePoint> {
    let scale_down = scale_down.max(1);
    let grid = core_grid();
    let mut out = run_workload(
        lab,
        &WorkloadSpec::dv3_small().scaled_down(scale_down),
        "DV3-Small",
        seed,
        &grid,
        true,
    );
    out.extend(run_workload(
        lab,
        &WorkloadSpec::dv3_medium().scaled_down(scale_down),
        "DV3-Medium",
        seed,
        &grid,
        false,
    ));
    out
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let pts = run(lab, 42, args[0]);
    let mut out = Output::default();
    out.line("\nFIG 14a: Scheduler scaling comparison\n");
    scale_table(&mut out, &pts, "FAILED", "fig14a.csv");
    // Headline ratio at max cores.
    for wl in ["DV3-Small", "DV3-Medium"] {
        let find = |sched: &str| {
            pts.iter()
                .filter(|p| p.workload == wl && p.scheduler == sched)
                .max_by_key(|p| p.cores)
                .and_then(|p| p.makespan_s)
        };
        if let (Some(tv), Some(dd)) = (find("TaskVine"), find("Dask.Distributed")) {
            out.line(format!(
                "{wl} at 300 cores: Dask/TaskVine = {:.2}x  (paper: ~2x)",
                dd / tv
            ));
        }
    }
    out
}

/// The scaling table of Figs 14a/b (a failed run shows as `failed`),
/// queued as `results/<csv>`.
pub(super) fn scale_table(out: &mut Output, pts: &[ScalePoint], failed: &str, csv: &str) {
    let header = ["Workload", "Scheduler", "Cores", "Runtime"];
    let data: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                p.scheduler.to_string(),
                p.cores.to_string(),
                p.makespan_s
                    .map_or_else(|| failed.to_string(), |m| format!("{m:.0}s")),
            ]
        })
        .collect();
    out.table(&header, &data, Some(csv));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taskvine_pulls_ahead_at_scale() {
        let spec = WorkloadSpec::dv3_medium().scaled_down(4);
        let pts = run_workload(&mut Lab::quiet(), &spec, "DV3-Medium", 21, &[5, 25], false);
        let find = |sched: &str, cores: u32| {
            pts.iter()
                .find(|p| p.scheduler == sched && p.cores == cores)
                .and_then(|p| p.makespan_s)
                .expect("run completed")
        };
        let tv_60 = find("TaskVine", 60);
        let dd_60 = find("Dask.Distributed", 60);
        let tv_300 = find("TaskVine", 300);
        let dd_300 = find("Dask.Distributed", 300);
        // Similar at small scale (within ~2x either way)...
        assert!(dd_60 / tv_60 < 2.5, "60 cores: tv {tv_60} dd {dd_60}");
        // ...TaskVine clearly ahead at 300 cores.
        assert!(dd_300 / tv_300 > 1.3, "300 cores: tv {tv_300} dd {dd_300}");
        // And TaskVine itself scales (more cores => not slower).
        assert!(tv_300 <= tv_60 * 1.2);
    }
}
