//! Fig 15 — DV3-Huge: 185 000 tasks on 600 × 12-core workers (7200 cores).
//!
//! The paper: "The generated workflow contains 185,000 tasks with 10,000
//! initial executable tasks from the start. TaskVine maintains high
//! concurrency during the duration of the execution until the reduction
//! of the graph."

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunResult};
use vine_obs::{FigureSet, FigureSinks};
use vine_simcore::{SimDur, SimTime};

use super::Output;
use crate::lab::Lab;
use crate::plot::ascii_series;

/// The DV3-Huge run summary.
#[derive(Clone, Debug)]
pub struct HugeRun {
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Total tasks executed (incl. preemption re-runs).
    pub task_executions: u64,
    /// Peak concurrent running tasks.
    pub peak_concurrency: f64,
    /// Mean concurrency over the middle half of the run.
    pub mid_run_concurrency: f64,
    /// Full result (counters for the figure's summary).
    pub result: RunResult,
    /// The run's running/waiting timeline.
    pub figures: FigureSinks,
}

/// Run DV3-Huge on Stack 4 (a recorded cell). `scale_down = 1` is the
/// paper's full configuration (expect a minute or so of wall-clock).
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> HugeRun {
    let scale_down = scale_down.max(1);
    let spec = WorkloadSpec::dv3_huge().scaled_down(scale_down);
    let workers = (600 / scale_down).max(4);
    let cfg = EngineConfig::stack4(ClusterSpec::standard(workers), seed);
    let (r, figs) = lab.run(
        "DV3-Huge",
        Some("fig15-dv3huge"),
        cfg,
        spec.to_graph(),
        FigureSet::TIMELINE,
    );
    assert!(r.completed(), "DV3-Huge failed: {:?}", r.outcome);

    let makespan = r.makespan_secs();
    let peak = figs.running_series.max_value();
    // Mean over [25%, 75%] of the run.
    let samples = 40;
    let mut sum = 0.0;
    for i in 0..samples {
        let t = makespan * (0.25 + 0.5 * i as f64 / samples as f64);
        sum += figs.running_series.value_at(SimTime::from_secs_f64(t));
    }
    HugeRun {
        makespan_s: makespan,
        task_executions: r.stats.task_executions,
        peak_concurrency: peak,
        mid_run_concurrency: sum / samples as f64,
        result: r,
        figures: figs,
    }
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let h = run(lab, 42, args[0]);
    let mut out = Output::default();
    let stats = &h.result.stats;
    out.line(format!(
        "\nFIG 15: DV3-Huge full-scale analysis\n\n\
         Makespan:             {:.0} s\n\
         Task executions:      {}\n\
         Peak concurrency:     {:.0} tasks\n\
         Mid-run concurrency:  {:.0} tasks (mean over middle half)\n\
         Preemptions:          {}\n\
         Peer transfer volume: {:.1} TB\n",
        h.makespan_s,
        h.task_executions,
        h.peak_concurrency,
        h.mid_run_concurrency,
        stats.preemptions,
        stats.peer_bytes as f64 / 1e12
    ));
    out.line("Paper: 185K tasks with 10K initially executable; TaskVine maintains");
    out.line("       high concurrency until the reduction phase of the graph.");
    out.line("Running tasks over the full run:");
    out.line(ascii_series(
        &h.figures.running_series,
        h.makespan_s,
        110,
        10,
    ));
    // Timeline on a 5 s grid.
    let mut csv = String::from("time_s,running,waiting\n");
    let until = SimTime::from_secs_f64(h.makespan_s);
    for (t, r) in h
        .figures
        .running_series
        .resample(until, SimDur::from_secs(5))
    {
        let w = h.figures.waiting_series.value_at(t);
        csv.push_str(&format!("{:.0},{:.0},{:.0}\n", t.as_secs_f64(), r, w));
    }
    out.file("fig15_timeline.csv", csv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_run_sustains_concurrency_at_reduced_scale() {
        // 1/40 scale: ~4600 tasks on 15 workers (180 cores).
        let h = run(&mut Lab::quiet(), 17, 40);
        assert!(h.task_executions >= 4_500);
        // Peak concurrency close to the full width.
        assert!(
            h.peak_concurrency >= 0.8 * 15.0 * 12.0,
            "peak {}",
            h.peak_concurrency
        );
        // Concurrency stays high through the middle of the run.
        assert!(
            h.mid_run_concurrency >= 0.5 * h.peak_concurrency,
            "mid {} vs peak {}",
            h.mid_run_concurrency,
            h.peak_concurrency
        );
    }
}
