//! Fig 12 — workflow execution timeline for each stack (first 300 s).
//!
//! Top panel: concurrently executing tasks; bottom panel: tasks waiting
//! to be scheduled. The paper's observations: Stack 1 sustains high
//! initial concurrency (long tasks) but has a very long accumulation
//! tail; Stack 3 oscillates because "dispatched tasks complete faster
//! than the next round can be dispatched"; Stack 4 dispatches fast enough
//! to stay busy.

use vine_core::EngineConfig;
use vine_obs::FigureSet;
use vine_simcore::trace::TimeSeries;
use vine_simcore::{SimDur, SimTime};

use super::Output;
use crate::lab::Lab;
use crate::plot::ascii_series;

/// Timeline of one stack.
#[derive(Clone, Debug)]
pub struct StackTimeline {
    /// Stack number (1–4).
    pub stack: usize,
    /// Total makespan, seconds.
    pub makespan_s: f64,
    /// Running-task counter over time.
    pub running: TimeSeries,
    /// Waiting (ready, undispatched) counter over time.
    pub waiting: TimeSeries,
}

impl StackTimeline {
    /// Sample both series on a regular grid over the first `horizon_s`
    /// seconds: `(t, running, waiting)` triples.
    pub fn sampled(&self, horizon_s: u64, step_s: u64) -> Vec<(f64, f64, f64)> {
        let until = SimTime::from_secs(horizon_s);
        let dt = SimDur::from_secs(step_s.max(1));
        self.running
            .resample(until, dt)
            .into_iter()
            .map(|(t, r)| (t.as_secs_f64(), r, self.waiting.value_at(t)))
            .collect()
    }
}

/// Run all four stacks on DV3-Large and capture their timelines. Every
/// stack is a recorded cell.
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> Vec<StackTimeline> {
    let (spec, cluster) = super::dv3_large(scale_down);
    (1..=4)
        .map(|stack| {
            let cfg = EngineConfig::stack(stack, cluster, seed);
            let record = format!("fig12-stack{stack}");
            let (r, figs) = lab.run(
                &format!("stack {stack}"),
                Some(&record),
                cfg,
                spec.to_graph(),
                FigureSet::TIMELINE,
            );
            assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
            StackTimeline {
                stack,
                makespan_s: r.makespan_secs(),
                running: figs.running_series,
                waiting: figs.waiting_series,
            }
        })
        .collect()
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let timelines = run(lab, 42, args[0]);
    // Console summary: concurrency snapshots.
    let header = [
        "Stack",
        "Makespan",
        "Running@30s",
        "Running@150s",
        "Running@300s",
        "Waiting@30s",
        "Waiting@300s",
    ];
    let data: Vec<Vec<String>> = timelines
        .iter()
        .map(|t| {
            let running = |s: u64| t.running.value_at(SimTime::from_secs(s));
            let waiting = |s: u64| t.waiting.value_at(SimTime::from_secs(s));
            vec![
                format!("Stack {}", t.stack),
                format!("{:.0}s", t.makespan_s),
                format!("{:.0}", running(30)),
                format!("{:.0}", running(150)),
                format!("{:.0}", running(300)),
                format!("{:.0}", waiting(30)),
                format!("{:.0}", waiting(300)),
            ]
        })
        .collect();
    let mut out = Output::default();
    out.line("\nFIG 12: First-300s timeline summary\n");
    out.table(&header, &data, None);
    out.line("Paper: Stack 1 sustains early concurrency but has a long tail; Stack 3");
    out.line("       oscillates (dispatch cannot keep up); Stack 4 stays busy and");
    out.line("       finishes within ~272s.");
    // ASCII rendering of the running-task timelines (the figure's top
    // panel), over the first 300 s.
    for t in &timelines {
        out.line(format!("Stack {} running tasks (first 300s):", t.stack));
        out.line(ascii_series(&t.running, 300.0, 100, 8));
    }
    // Full series on a 1 s grid for plotting.
    let mut csv = String::from("stack,time_s,running,waiting\n");
    for t in &timelines {
        for (time, r, w) in t.sampled(300, 1) {
            csv.push_str(&format!("{},{:.0},{:.0},{:.0}\n", t.stack, time, r, w));
        }
    }
    out.file("fig12_timeline.csv", csv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack4_sustains_higher_mid_run_concurrency() {
        let tl = run(&mut Lab::quiet(), 9, 40);
        assert_eq!(tl.len(), 4);
        // At 1/40 scale the runs are tens of seconds; compare the mean
        // running concurrency over each run's own first half.
        let mean_conc = |t: &StackTimeline| {
            let horizon = (t.makespan_s / 2.0) as u64;
            let samples = t.sampled(horizon.max(2), 1);
            samples.iter().map(|&(_, r, _)| r).sum::<f64>() / samples.len() as f64
        };
        let c3 = mean_conc(&tl[2]);
        let c4 = mean_conc(&tl[3]);
        // Stack 4 keeps workers busier than stack 3 within its window.
        assert!(c4 > c3 * 0.8, "stack4 {c4} vs stack3 {c3}");
        // Everyone drains the waiting queue by the end.
        for t in &tl {
            assert_eq!(
                t.waiting.last().map(|(_, v)| v),
                Some(0.0),
                "stack {}",
                t.stack
            );
        }
    }

    #[test]
    fn waiting_queue_starts_full() {
        let tl = run(&mut Lab::quiet(), 9, 40);
        // At t≈0 every process task is ready and waiting.
        for t in &tl {
            assert!(
                t.waiting.max_value() >= 300.0,
                "stack {}: waiting peak {}",
                t.stack,
                t.waiting.max_value()
            );
        }
    }
}
