//! Fig 7 — data-transfer heatmap: Work Queue vs TaskVine peer transfers.
//!
//! The paper: "When using Work Queue, all data transfer is between the
//! manager (node 0) and each of the workers individually. Upwards of 40 GB
//! is transmitted to each worker. When using TaskVine and peer transfers,
//! the maximum amount of data transferred between any two nodes tops off
//! at around 4 GB."

use vine_core::EngineConfig;
use vine_obs::FigureSet;
use vine_simcore::trace::{matrix_to_csv, TransferMatrix};
use vine_simcore::units::fmt_bytes;

use super::Output;
use crate::lab::Lab;
use crate::plot::ascii_heatmap;

/// Heatmap summary for one scheduler.
#[derive(Clone, Debug)]
pub struct HeatmapSummary {
    /// Scheduler label.
    pub label: &'static str,
    /// Maximum bytes sent from the manager to any single worker.
    pub max_manager_to_worker: u64,
    /// Mean bytes sent from the manager to a worker.
    pub mean_manager_to_worker: u64,
    /// Maximum bytes between any worker pair.
    pub max_worker_pair: u64,
    /// Total bytes moved worker↔worker.
    pub total_peer: u64,
    /// Total bytes through the manager (both directions).
    pub total_manager: u64,
    /// The full matrix (manager = 0, workers 1..=W, shared FS last).
    pub matrix: TransferMatrix,
}

fn summarize(label: &'static str, m: TransferMatrix, n_workers: usize) -> HeatmapSummary {
    let mut max_m2w = 0u64;
    let mut sum_m2w = 0u64;
    let mut max_pair = 0u64;
    let mut total_peer = 0u64;
    let mut total_manager = 0u64;
    for w in 1..=n_workers {
        let b = m.get(0, w);
        max_m2w = max_m2w.max(b);
        sum_m2w += b;
        total_manager += b + m.get(w, 0);
        for v in 1..=n_workers {
            if v != w {
                max_pair = max_pair.max(m.get(w, v));
                total_peer += m.get(w, v);
            }
        }
    }
    // FS <-> manager flows also cross the manager link.
    let fs = n_workers + 1;
    total_manager += m.get(fs, 0) + m.get(0, fs);
    HeatmapSummary {
        label,
        max_manager_to_worker: max_m2w,
        mean_manager_to_worker: sum_m2w / n_workers as u64,
        max_worker_pair: max_pair,
        total_peer,
        total_manager,
        matrix: m,
    }
}

/// Run DV3-Large under Work Queue (Stack 2) and TaskVine (Stack 3) and
/// return both transfer summaries. `scale_down = 1` is paper scale. Both
/// cells are recorded: the transfer instants in their traces are the raw
/// events behind the heatmaps.
pub fn run(lab: &mut Lab, seed: u64, scale_down: usize) -> (HeatmapSummary, HeatmapSummary) {
    let (spec, cluster) = super::dv3_large(scale_down);
    let mut mk = |stack: usize| {
        let cfg = EngineConfig::stack(stack, cluster, seed);
        let record = format!("fig7-stack{stack}");
        let (r, figs) = lab.run(
            &format!("stack {stack}"),
            Some(&record),
            cfg,
            spec.to_graph(),
            FigureSet::TRANSFERS,
        );
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        figs.transfers.expect("transfer sink selected")
    };
    (
        summarize("WorkQueue", mk(2), cluster.workers),
        summarize("TaskVine", mk(3), cluster.workers),
    )
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let (wq, tv) = run(lab, 42, args[0]);
    let header = [
        "Scheduler",
        "Max mgr->worker",
        "Mean mgr->worker",
        "Max worker pair",
        "Total peer",
        "Total via manager",
    ];
    let data: Vec<Vec<String>> = [&wq, &tv]
        .iter()
        .map(|s| {
            vec![
                s.label.to_string(),
                fmt_bytes(s.max_manager_to_worker),
                fmt_bytes(s.mean_manager_to_worker),
                fmt_bytes(s.max_worker_pair),
                fmt_bytes(s.total_peer),
                fmt_bytes(s.total_manager),
            ]
        })
        .collect();
    let mut out = Output::default();
    out.line("\nFIG 7: Data transfer between node pairs\n");
    out.table(&header, &data, Some("fig7_summary.csv"));
    out.line("Paper: WQ sends upwards of 40 GB to each worker from the manager;");
    out.line("       TaskVine peer transfers top out around 4 GB per node pair.");
    out.line("\nWork Queue heatmap (node 0 = manager):");
    out.line(ascii_heatmap(&wq.matrix, 40));
    out.line("TaskVine heatmap (node 0 = manager):");
    out.line(ascii_heatmap(&tv.matrix, 40));
    out.file("fig7_heatmap_wq.csv", matrix_to_csv(&wq.matrix));
    out.file("fig7_heatmap_taskvine.csv", matrix_to_csv(&tv.matrix));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_contrast_matches_paper() {
        let (wq, tv) = run(&mut Lab::quiet(), 5, 40);
        // WQ: everything through the manager, nothing peer-to-peer.
        assert_eq!(wq.max_worker_pair, 0);
        assert!(wq.max_manager_to_worker > 0);
        // TaskVine: peer transfers dominate; manager moves (almost) nothing.
        assert!(tv.total_peer > 0);
        assert!(tv.total_manager < wq.total_manager / 10);
        // The largest single channel shrinks by an order of magnitude.
        assert!(
            tv.max_worker_pair < wq.max_manager_to_worker / 2,
            "tv pair {} vs wq m2w {}",
            tv.max_worker_pair,
            wq.max_manager_to_worker
        );
    }
}
