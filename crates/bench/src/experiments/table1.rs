//! Table I — overall stack performance.
//!
//! The paper's headline: the "standard" DV3 run (17 000 tasks, 1.2 TB) on
//! 200 × 12-core workers, executed on each of the four stacks:
//!
//! | Stack | Change | Runtime | Speedup |
//! |---|---|---|---|
//! | 1 | Original (WQ + HDFS) | 3545 s | 1.00× |
//! | 2 | HDFS → VAST | 3378 s | 1.05× |
//! | 3 | WQ → TaskVine | 730 s | 4.86× |
//! | 4 | Tasks → Functions | 272 s | 13.03× |

use vine_core::EngineConfig;

use vine_obs::FigureSet;

use super::Output;
use crate::lab::Lab;

/// One measured row of Table I.
#[derive(Clone, Debug)]
pub struct StackRow {
    /// Stack number (1–4).
    pub stack: usize,
    /// What changed relative to the previous stack.
    pub change: &'static str,
    /// Measured makespan in seconds.
    pub runtime_s: f64,
    /// Speedup vs Stack 1.
    pub speedup: f64,
    /// The paper's reported runtime, for side-by-side comparison.
    pub paper_runtime_s: f64,
    /// The paper's reported speedup.
    pub paper_speedup: f64,
}

/// The paper's reported numbers.
pub const PAPER: [(f64, f64); 4] = [
    (3545.0, 1.00),
    (3378.0, 1.05),
    (730.0, 4.86),
    (272.0, 13.03),
];

const CHANGES: [&str; 4] = [
    "Original",
    "HDFS -> VAST",
    "WQ -> TaskVine",
    "Tasks -> Functions",
];

/// Run all four stacks. `scale_down = 1` is the paper's full configuration
/// (17 000 tasks on 200 workers); larger values shrink both workload and
/// cluster proportionally for quick runs. Stack 4 is the recorded cell.
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> Vec<StackRow> {
    let (spec, cluster) = super::dv3_large(scale_down);
    let mut rows = Vec::with_capacity(4);
    let mut base = None;
    for stack in 1..=4 {
        let cfg = EngineConfig::stack(stack, cluster, seed);
        let record = (stack == 4).then_some("table1-stack4");
        let r = lab
            .run(
                &format!("stack {stack}"),
                record,
                cfg,
                spec.to_graph(),
                FigureSet::NONE,
            )
            .0;
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        let runtime = r.makespan_secs();
        let base_rt = *base.get_or_insert(runtime);
        rows.push(StackRow {
            stack,
            change: CHANGES[stack - 1],
            runtime_s: runtime,
            speedup: base_rt / runtime,
            paper_runtime_s: PAPER[stack - 1].0,
            paper_speedup: PAPER[stack - 1].1,
        });
    }
    rows
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let rows = run(lab, 42, args[0]);
    let header = [
        "Stack",
        "Change",
        "Runtime",
        "Speedup",
        "Paper Runtime",
        "Paper Speedup",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("Stack {}", r.stack),
                r.change.to_string(),
                format!("{:.0}s", r.runtime_s),
                format!("{:.2}x", r.speedup),
                format!("{:.0}s", r.paper_runtime_s),
                format!("{:.2}x", r.paper_speedup),
            ]
        })
        .collect();
    let mut out = Output::default();
    out.line("\nTABLE I: Overall Stack Performance (measured vs paper)\n");
    out.table(&header, &data, Some("table1.csv"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape contract at reduced scale: Stack 2 is a marginal win over
    /// Stack 1; Stack 3 is a large win; Stack 4 beats Stack 3.
    #[test]
    fn stack_ordering_holds_at_small_scale() {
        let rows = run(&mut Lab::quiet(), 7, 10);
        assert_eq!(rows.len(), 4);
        let rt: Vec<f64> = rows.iter().map(|r| r.runtime_s).collect();
        assert!(rt[1] <= rt[0] * 1.05, "VAST should not slow things down");
        assert!(rt[2] < rt[1] * 0.6, "TaskVine should be a big win: {rt:?}");
        assert!(rt[3] < rt[2], "serverless should beat standard: {rt:?}");
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(rows[3].speedup > rows[2].speedup);
    }
}
