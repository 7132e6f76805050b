//! Reproduce Fig 11: single-node vs hierarchical reduction on
//! RS-TriPhoton (per-worker cache consumption, failures, runtimes).
//!
//! Usage: fig11 `[workers] [scale_down] [--trace-out DIR] [--metrics]`
//! (defaults: 14 workers, paper scale)
//!
//! The paper does not state the worker count for this experiment; with 14
//! RS-class workers (700 GB disks) the single-node reduction pins more
//! than one worker's disk can hold and workers fail, exactly as in the
//! paper's left panel, while the tree completes cleanly.

use vine_analysis::{ReductionShape, WorkloadSpec};
use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig11;
use vine_bench::{preflight, report};
use vine_core::EngineConfig;
use vine_simcore::trace::series_to_csv;
use vine_simcore::units::fmt_bytes;

fn main() {
    let cli = BenchCli::parse();
    let workers: usize = cli.rest.first().and_then(|s| s.parse().ok()).unwrap_or(14);
    let scale: usize = cli.rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    eprintln!("Fig 11: reduction shaping, RS-TriPhoton on {workers} workers (scale 1/{scale}) ...");

    // Static verdicts first: vine-lint predicts the left panel's failure
    // (R001) and the right panel's success before a single event runs.
    let cfg = EngineConfig::stack4(fig11::rs_cluster(workers), 42);
    for (shape, label) in [
        (ReductionShape::SingleNode, "single-node"),
        (ReductionShape::Tree { arity: 8 }, "tree"),
    ] {
        let spec = WorkloadSpec::rs_triphoton()
            .scaled_down(scale)
            .with_reduction(shape);
        preflight::announce_spec(label, &spec, &cfg);
    }

    let (single, tree) = fig11::run(42, workers, scale);

    let header = [
        "Reduction",
        "Completed",
        "Runtime",
        "Cache-overflow failures",
        "Peak worker cache",
        "Mean peak cache",
    ];
    let data: Vec<Vec<String>> = [&single, &tree]
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.completed.to_string(),
                format!("{:.0}s", r.makespan_s),
                r.cache_failures.to_string(),
                fmt_bytes(r.peak_cache),
                fmt_bytes(r.mean_peak_cache),
            ]
        })
        .collect();
    println!("\nFIG 11: Single-node vs hierarchical reduction\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: single-node reduction drives outlier workers to 700 GB+ and");
    println!("       worker failures; the tree keeps usage lower and uniform and the");
    println!("       analysis succeeds.");
    report::write_csv("fig11_summary.csv", &report::to_csv(&header, &data));

    // Per-worker occupancy curves for both shapes.
    for (run, name) in [
        (&single, "fig11_cache_single.csv"),
        (&tree, "fig11_cache_tree.csv"),
    ] {
        if let Some(series) = &run.result.cache_series {
            let labels: Vec<String> = (0..series.len()).map(|w| format!("worker{w}")).collect();
            let named: Vec<(&str, &vine_simcore::trace::TimeSeries)> = labels
                .iter()
                .map(|l| l.as_str())
                .zip(series.iter())
                .collect();
            report::write_csv(name, &series_to_csv(&named));
        }
    }

    // Recorded tree-reduction run for export (the shape that completes).
    if cli.enabled() {
        let spec = WorkloadSpec::rs_triphoton()
            .scaled_down(scale)
            .with_reduction(ReductionShape::Tree { arity: 8 });
        cli.export_engine_run(
            "fig11-tree",
            EngineConfig::stack4(fig11::rs_cluster(workers), 42),
            spec.to_graph(),
        );
    }
}
