//! DV3 stack comparison — walk the paper's Table I evolution on a scaled
//! DV3 workload.
//!
//! Runs the same DV3 task graph under all four application stacks
//! (WQ+HDFS → WQ+VAST → TaskVine → TaskVine+serverless) on a simulated
//! campus cluster, printing runtime, data-movement, and overhead metrics
//! for each — the narrative of §IV in one program.
//!
//! Run with: `cargo run --release --example dv3_stack_comparison [scale]`
//! (default scale 10 = 1/10 of the paper's 17 000-task configuration)

use reshaping_hep::analysis::WorkloadSpec;
use reshaping_hep::cluster::ClusterSpec;
use reshaping_hep::core::{EngineConfig, RunRequest};
use reshaping_hep::simcore::units::fmt_bytes;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let spec = WorkloadSpec::dv3_large().scaled_down(scale);
    let workers = (200 / scale).max(2);
    let graph = spec.to_graph();
    println!(
        "DV3 at scale 1/{scale}: {} tasks over {} of input, {} workers x 12 cores\n",
        graph.task_count(),
        fmt_bytes(graph.external_bytes()),
        workers
    );

    let mut baseline = None;
    for stack in 1..=4 {
        let cfg = EngineConfig::stack(stack, ClusterSpec::standard(workers), 42);
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        let runtime = r.makespan_secs();
        let base = *baseline.get_or_insert(runtime);
        println!("Stack {stack}:");
        println!(
            "  runtime            {:>10.0} s   (speedup {:.2}x)",
            runtime,
            base / runtime
        );
        println!(
            "  via manager        {:>10}",
            fmt_bytes(r.stats.manager_bytes)
        );
        println!("  peer transfers     {:>10}", fmt_bytes(r.stats.peer_bytes));
        println!(
            "  from shared FS     {:>10}",
            fmt_bytes(r.stats.shared_fs_bytes)
        );
        println!("  mean task time     {:>10.2} s", r.mean_task_secs());
        println!(
            "  task executions    {:>10}   (preemptions: {})",
            r.stats.task_executions, r.stats.preemptions
        );
        println!();
    }
    println!("Paper (full scale): 3545 s -> 3378 s -> 730 s -> 272 s (13.03x total).");
}
