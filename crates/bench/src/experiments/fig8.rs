//! Fig 8 — task execution time distribution: standard tasks vs
//! FunctionCalls on the DV3-Large workload.
//!
//! The paper: "A majority of tasks have execution times between 1 s and
//! 10 s (with some outliers on either side)", and serverless execution
//! shifts the whole distribution left because per-task overhead
//! (interpreter start + imports) disappears.

use vine_core::EngineConfig;
use vine_obs::FigureSet;
use vine_simcore::trace::LogHistogram;

use super::Output;
use crate::lab::Lab;

/// The two measured distributions.
#[derive(Clone, Debug)]
pub struct TaskTimeDistributions {
    /// Stack 3 (standard tasks).
    pub standard: LogHistogram,
    /// Stack 4 (function calls).
    pub functions: LogHistogram,
}

/// Run both execution modes and return their task-time histograms. Both
/// cells are recorded, so their digests can be diffed phase by phase.
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> TaskTimeDistributions {
    let (spec, cluster) = super::dv3_large(scale_down);
    let mut mk = |stack: usize| {
        let cfg = EngineConfig::stack(stack, cluster, seed);
        let record = format!("fig8-stack{stack}");
        let (r, figs) = lab.run(
            &format!("stack {stack}"),
            Some(&record),
            cfg,
            spec.to_graph(),
            FigureSet::TASK_TIMES,
        );
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        figs.task_time_hist.expect("task-time sink selected")
    };
    TaskTimeDistributions {
        standard: mk(3),
        functions: mk(4),
    }
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let d = run(lab, 42, args[0]);
    let header = ["Bin lower edge (s)", "Standard tasks", "Function calls"];
    let data: Vec<Vec<String>> = (0..d.standard.counts().len())
        .map(|i| {
            vec![
                format!("{:.3}", d.standard.bin_lo(i)),
                d.standard.counts()[i].to_string(),
                d.functions.counts()[i].to_string(),
            ]
        })
        .collect();
    let mut out = Output::default();
    out.line("\nFIG 8: Task execution time distribution (log2 bins)\n");
    out.table(&header, &data, Some("fig8.csv"));
    out.line(format!(
        "In [1s, 16s): standard {:.1}%, functions {:.1}%  (paper: majority in 1-10s)",
        100.0 * d.standard.fraction_between(1.0, 16.0),
        100.0 * d.functions.fraction_between(1.0, 16.0),
    ));
    out.line(format!(
        "Below 4s: standard {:.1}%, functions {:.1}%  (functions shift left)",
        100.0 * d.standard.fraction_between(0.0, 4.0),
        100.0 * d.functions.fraction_between(0.0, 4.0),
    ));
    // Which paper phases the per-task speedup comes from.
    if let (Some(s3), Some(s4)) = (lab.digest("fig8-stack3"), lab.digest("fig8-stack4")) {
        out.line("\nStack 3 -> Stack 4 digest diff:");
        out.console.push_str(&s3.diff(s4).to_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_between_one_and_ten_seconds() {
        let d = run(&mut Lab::quiet(), 3, 40);
        // Function-call tasks: bulk in [1, 10)s as the paper reports.
        let frac = d.functions.fraction_between(1.0, 16.0);
        assert!(frac > 0.55, "only {frac} of function tasks in bulk");
    }

    #[test]
    fn functions_shift_distribution_left() {
        let d = run(&mut Lab::quiet(), 3, 40);
        // Standard tasks carry ~2 s of interpreter/import overhead, so far
        // less of their mass sits below 4 s.
        let below_std = d.standard.fraction_between(0.0, 4.0);
        let below_fn = d.functions.fraction_between(0.0, 4.0);
        assert!(
            below_fn > below_std + 0.15,
            "below-4s: functions {below_fn} vs standard {below_std}"
        );
        // Same number of task executions measured in both runs (no
        // preemptions at this scale is not guaranteed, so allow slack).
        let (a, b) = (d.standard.total(), d.functions.total());
        assert!(a.abs_diff(b) <= a / 10, "{a} vs {b}");
    }
}
