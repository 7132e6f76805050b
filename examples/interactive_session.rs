//! Interactive analysis against a warm facility (`vine-serve`).
//!
//! The paper's target user story: an analyst sits at a notebook, runs
//! the DV3 selection, looks at the plot, tweaks a cut, and runs again —
//! and the second run must come back in near-interactive time because
//! the facility kept every worker's cache warm between submissions.
//!
//! This example plays that loop against the simulated facility: a cold
//! first submission, an identical re-run (fully memoized — zero task
//! executions), then two successive selection edits. Each edit renames
//! only the reduction stage, so the expensive per-chunk processing
//! stays warm and only the cheap reductions re-run.
//!
//! Run with: `cargo run --release --example interactive_session`

use reshaping_hep::analysis::WorkloadSpec;
use reshaping_hep::serve::{FacilityConfig, ShardedConfig, ShardedFacility};

fn main() {
    let mut facility = ShardedFacility::new(ShardedConfig::single(FacilityConfig::demo(42)))
        .expect("demo config is clean");
    let spec = WorkloadSpec::dv3_small().scaled_down(20);

    println!("interactive session: DV3-Small, one analyst, warm facility\n");

    // The analyst's loop: (what they did, the graph they submitted).
    let session: Vec<(&str, WorkloadSpec)> = vec![
        ("first look (cold)", spec.clone()),
        ("re-run, unchanged", spec.clone()),
        ("tighten b-tag cut", spec.clone().with_edit_generation(1)),
        ("shift mass window", spec.clone().with_edit_generation(2)),
    ];

    let mut cold_makespan = None;
    for (what, spec) in session {
        let r = facility.run_now(0, spec.to_graph(), what);
        let cold = *cold_makespan.get_or_insert(r.makespan.as_secs_f64());
        let speedup = cold / r.makespan.as_secs_f64().max(1e-9);
        println!(
            "  {:<20} {:>7.1}s   executed {:>3}  memoized {:>3}  ({:.0}% warm, {:.0}x vs cold)",
            what,
            r.makespan.as_secs_f64(),
            r.stats.task_executions,
            r.stats.memoized_tasks,
            100.0 * r.warm_hit_ratio(),
            speedup.min(999.0),
        );
    }

    println!(
        "\nThe unchanged re-run executes zero tasks; the edits re-run only\n\
         their reduction stage. That is the near-interactive loop the\n\
         paper's warm TaskVine caches buy."
    );
}
