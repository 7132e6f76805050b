//! Reproduce Fig 7: data-transfer heatmap, Work Queue vs TaskVine.
//!
//! Usage: fig7 `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig7;
use vine_bench::report;
use vine_simcore::trace::matrix_to_csv;
use vine_simcore::units::fmt_bytes;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Fig 7: transfer heatmap, DV3-Large (scale 1/{scale}) ...");
    let workers = (200 / scale).max(2);
    let spec = vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale);
    for stack in [2, 3] {
        let cfg =
            vine_core::EngineConfig::stack(stack, vine_cluster::ClusterSpec::standard(workers), 42);
        vine_bench::preflight::announce_spec(&format!("stack {stack}"), &spec, &cfg);
    }
    let (wq, tv) = fig7::run(42, scale);

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
    println!("\nFIG 7: Data transfer between node pairs\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: WQ sends upwards of 40 GB to each worker from the manager;");
    println!("       TaskVine peer transfers top out around 4 GB per node pair.");
    report::write_csv("fig7_summary.csv", &report::to_csv(&header, &data));
    println!("\nWork Queue heatmap (node 0 = manager):");
    println!("{}", vine_bench::plot::ascii_heatmap(&wq.matrix, 40));
    println!("TaskVine heatmap (node 0 = manager):");
    println!("{}", vine_bench::plot::ascii_heatmap(&tv.matrix, 40));
    report::write_csv("fig7_heatmap_wq.csv", &matrix_to_csv(&wq.matrix));
    report::write_csv("fig7_heatmap_taskvine.csv", &matrix_to_csv(&tv.matrix));

    // Recorded WQ and TaskVine runs for export — the transfer instants in
    // the trace are the raw events behind the heatmaps above.
    if cli.enabled() {
        for stack in [2usize, 3] {
            let cfg = vine_core::EngineConfig::stack(
                stack,
                vine_cluster::ClusterSpec::standard(workers),
                42,
            );
            cli.export_engine_run(&format!("fig7-stack{stack}"), cfg, spec.to_graph());
        }
    }
}
