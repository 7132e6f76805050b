//! End-to-end integration: the four application stacks on a scaled DV3
//! workload, spanning analysis → dag → core → (storage, net, cluster).

use reshaping_hep::analysis::WorkloadSpec;
use reshaping_hep::cluster::ClusterSpec;
use reshaping_hep::core::{EngineConfig, RunRequest, RunResult};
use vine_obs::{FigureRecorder, FigureSet, FigureSinks};

fn run_stack(stack: usize, seed: u64) -> RunResult {
    let spec = WorkloadSpec::dv3_large().scaled_down(20);
    let cluster = ClusterSpec::standard(10);
    RunRequest::new(EngineConfig::stack(stack, cluster, seed), spec.to_graph()).run()
}

/// The same run with a figure recorder attached for every sink.
fn run_stack_with_figures(stack: usize, seed: u64) -> (RunResult, FigureSinks) {
    let spec = WorkloadSpec::dv3_large().scaled_down(20);
    let cfg = EngineConfig::stack(stack, ClusterSpec::standard(10), seed);
    let mut figs = FigureRecorder::new(FigureSet::ALL, cfg.worker_slots());
    let r = RunRequest::new(cfg, spec.to_graph())
        .recorder(&mut figs)
        .run();
    (r, figs.into_sinks())
}

#[test]
fn all_four_stacks_complete_and_order_correctly() {
    let results: Vec<RunResult> = (1..=4).map(|s| run_stack(s, 42)).collect();
    for (i, r) in results.iter().enumerate() {
        assert!(r.completed(), "stack {}: {:?}", i + 1, r.outcome);
        // Every task ran (preemptions may add re-runs).
        assert!(r.stats.task_executions >= r.stats.tasks_total as u64);
    }
    let rt: Vec<f64> = results.iter().map(|r| r.makespan_secs()).collect();
    // Table I ordering: storage swap is minor, scheduler swap is major,
    // serverless is a further win.
    assert!(rt[1] < rt[0] * 1.1, "stack2 {} vs stack1 {}", rt[1], rt[0]);
    assert!(rt[2] < rt[1] * 0.8, "stack3 {} vs stack2 {}", rt[2], rt[1]);
    assert!(rt[3] < rt[2], "stack4 {} vs stack3 {}", rt[3], rt[2]);
}

#[test]
fn data_paths_differ_by_scheduler() {
    let wq = run_stack(2, 7);
    let tv = run_stack(3, 7);
    // Work Queue: all payloads through the manager, none peer-to-peer.
    assert!(wq.stats.manager_bytes > 0);
    assert_eq!(wq.stats.peer_bytes, 0);
    // TaskVine: intermediates peer-to-peer, inputs straight from the FS.
    assert!(tv.stats.peer_bytes > 0);
    assert!(tv.stats.shared_fs_bytes > 0);
    assert!(tv.stats.manager_bytes < wq.stats.manager_bytes / 20);
}

#[test]
fn transfer_matrix_is_consistent_with_stats() {
    let (tv, figs) = run_stack_with_figures(3, 9);
    let m = figs.transfers.as_ref().expect("transfer sink selected");
    // Peer bytes in stats equal the worker-to-worker cells of the matrix.
    let n_workers = 10;
    let mut peer = 0u64;
    for s in 1..=n_workers {
        for d in 1..=n_workers {
            if s != d {
                peer += m.get(s, d);
            }
        }
    }
    assert_eq!(peer, tv.stats.peer_bytes);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run_stack(4, 123);
    let b = run_stack(4, 123);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.task_executions, b.stats.task_executions);
    assert_eq!(a.stats.flows_completed, b.stats.flows_completed);
    assert_eq!(a.stats.peer_bytes, b.stats.peer_bytes);
    // Different seed: different makespan (durations resampled).
    let c = run_stack(4, 124);
    assert_ne!(a.makespan, c.makespan);
}

#[test]
fn timeline_series_are_sane() {
    let (_, figs) = run_stack_with_figures(4, 5);
    // Running concurrency never exceeds total cores.
    assert!(figs.running_series.max_value() <= 120.0);
    // Waiting starts with (almost) the whole map phase and ends at zero.
    assert!(figs.waiting_series.max_value() >= 700.0);
    assert_eq!(figs.waiting_series.last().map(|(_, v)| v), Some(0.0));
}
