//! Fig 14b — scaling DV3-Large and RS-TriPhoton from 120 to 2400 cores.
//!
//! The paper: "DV3-Large achieves peak performance at 1200 cores, while
//! RS-TriPhoton continues to see small but non-linear gains up to 2400
//! cores. (Note that Dask.Distributed is unable to execute these
//! workflows at this scale.)"

use vine_analysis::WorkloadSpec;
use vine_cluster::{ClusterSpec, WorkerSpec};
use vine_core::EngineConfig;
use vine_simcore::units::gbit_per_sec;

pub use super::fig14a::ScalePoint;
use vine_obs::FigureSet;

use super::Output;
use crate::lab::Lab;

/// The paper's large-scale worker grid (12-core workers; ×12 = cores).
pub fn worker_grid() -> Vec<usize> {
    vec![10, 25, 50, 100, 150, 200]
}

/// Run one workload across the grid on TaskVine (Stack 4); the cell at
/// the grid's last (widest) point is recorded under `record`.
pub fn run_workload(
    lab: &mut Lab,
    spec: &WorkloadSpec,
    name: &'static str,
    worker_spec: WorkerSpec,
    seed: u64,
    grid: &[usize],
    record: Option<&str>,
) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for (i, &workers) in grid.iter().enumerate() {
        let cluster = ClusterSpec {
            workers,
            worker: worker_spec,
            manager_link_bw: gbit_per_sec(12.0),
        };
        let cfg = EngineConfig::stack4(cluster, seed);
        let cell = format!("{name} / {workers}w");
        let export = record.filter(|_| i + 1 == grid.len());
        let (r, _) = lab.run(&cell, export, cfg, spec.to_graph(), FigureSet::NONE);
        out.push(ScalePoint {
            workload: name,
            scheduler: "TaskVine",
            cores: cluster.total_cores(),
            makespan_s: r.completed().then(|| r.makespan_secs()),
        });
    }
    out
}

/// Full figure: both workloads across 120–2400 cores, plus the
/// Dask.Distributed non-result at paper scale. DV3-Large on 200 workers
/// is recorded.
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> Vec<ScalePoint> {
    let scale_down = scale_down.max(1);
    let grid = worker_grid();
    let mut out = run_workload(
        lab,
        &WorkloadSpec::dv3_large().scaled_down(scale_down),
        "DV3-Large",
        WorkerSpec::dv3_standard(),
        seed,
        &grid,
        Some("fig14b-dv3large"),
    );
    out.extend(run_workload(
        lab,
        &WorkloadSpec::rs_triphoton().scaled_down(scale_down),
        "RS-TriPhoton",
        WorkerSpec::rs_triphoton(),
        seed,
        &grid,
        None,
    ));
    // Dask.Distributed at this scale: reported failure (paper §V-B). The
    // C005 lint predicts it before the engine refuses to run it.
    if scale_down == 1 {
        let cluster = ClusterSpec::standard(10);
        let cfg = EngineConfig::dask_distributed(cluster, seed);
        let graph = WorkloadSpec::dv3_large().to_graph();
        let (r, _) = lab.run("DV3-Large / Dask", None, cfg, graph, FigureSet::NONE);
        out.push(ScalePoint {
            workload: "DV3-Large",
            scheduler: "Dask.Distributed",
            cores: cluster.total_cores(),
            makespan_s: r.completed().then(|| r.makespan_secs()),
        });
    }
    out
}

/// The core count at which a workload's makespan is minimized.
pub fn best_cores(points: &[ScalePoint], workload: &str) -> Option<u32> {
    points
        .iter()
        .filter(|p| p.workload == workload && p.makespan_s.is_some())
        .min_by(|a, b| {
            a.makespan_s
                .unwrap()
                .partial_cmp(&b.makespan_s.unwrap())
                .unwrap()
        })
        .map(|p| p.cores)
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let pts = run(lab, 42, args[0]);
    let mut out = Output::default();
    out.line("\nFIG 14b: Scaling of standard configurations\n");
    super::fig14a::scale_table(&mut out, &pts, "FAILED (crashes/hangs)", "fig14b.csv");
    for wl in ["DV3-Large", "RS-TriPhoton"] {
        if let Some(best) = best_cores(&pts, wl) {
            out.line(format!("{wl}: best makespan at {best} cores"));
        }
    }
    out.line("Paper: DV3-Large peaks at 1200 cores; RS-TriPhoton keeps gaining to 2400;");
    out.line("       Dask.Distributed cannot execute these workflows at this scale.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dv3_large_plateaus_before_max_cores() {
        // 1/10 scale: 1700 tasks. The dispatch-rate ceiling that causes
        // the paper's 1200-core plateau scales with task count, so the
        // plateau appears at proportionally fewer cores.
        let pts = run_workload(
            &mut Lab::quiet(),
            &WorkloadSpec::dv3_large().scaled_down(10),
            "DV3-Large",
            WorkerSpec::dv3_standard(),
            31,
            &[5, 10, 20, 40, 80],
            None,
        );
        let times: Vec<f64> = pts.iter().map(|p| p.makespan_s.unwrap()).collect();
        // More cores help at first...
        assert!(times[1] < times[0] * 0.95, "{times:?}");
        // ...but the largest step shows clearly diminished returns: the
        // final doubling of cores buys well under half the speedup of
        // the first, and under 15% outright.
        let last_gain = times[3] / times[4];
        let first_gain = times[0] / times[1];
        assert!(
            last_gain < 1.15 && (last_gain - 1.0) < (first_gain - 1.0) * 0.5,
            "no plateau: first {first_gain}, last {last_gain} ({times:?})"
        );
    }

    #[test]
    fn rs_triphoton_keeps_gaining() {
        let pts = run_workload(
            &mut Lab::quiet(),
            &WorkloadSpec::rs_triphoton().scaled_down(10),
            "RS-TriPhoton",
            WorkerSpec::rs_triphoton(),
            31,
            &[5, 10, 20],
            None,
        );
        let times: Vec<f64> = pts.iter().map(|p| p.makespan_s.unwrap()).collect();
        assert!(times[1] < times[0], "{times:?}");
        assert!(times[2] < times[1], "{times:?}");
    }
}
