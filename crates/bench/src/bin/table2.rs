//! Reproduce Table II: the application workload configurations.
//!
//! Usage: table2 `[--trace-out DIR] [--metrics]` — the observability
//! flags record one DV3-Small reference run (Table II itself needs no
//! engine runs).

use vine_bench::cli::BenchCli;
use vine_bench::experiments::table2;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    // Structural lint of every Table II workload graph (no engine runs
    // here, so only the G family applies).
    for spec in vine_analysis::WorkloadSpec::table2() {
        let report = vine_lint::lint_graph(&spec.to_graph());
        let (e, w, i) = report.counts();
        if report.is_clean() {
            eprintln!("pre-flight [{}]: clean", spec.name);
        } else {
            eprintln!(
                "pre-flight [{}]: {e} error(s), {w} warning(s), {i} info(s)",
                spec.name
            );
        }
    }
    let rows = table2::run();
    let header = [
        "Application",
        "Input",
        "Tasks",
        "Process",
        "Accum",
        "Datasets",
        "Chunk",
        "Intermediates",
        "Depth",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                table2::fmt_size(r.input_bytes),
                r.total_tasks.to_string(),
                r.process_tasks.to_string(),
                r.accum_tasks.to_string(),
                r.datasets.to_string(),
                table2::fmt_size(r.chunk_bytes),
                table2::fmt_size(r.intermediate_bytes),
                r.critical_path.to_string(),
            ]
        })
        .collect();
    println!("\nTABLE II: Application workloads (generated graphs)\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: DV3-Large = 17K tasks / 1.2 TB; DV3-Huge = 185K tasks / 1.2 TB;");
    println!("       RS-TriPhoton = 4K tasks / 500 GB; Small/Medium = 25 GB / 200 GB.");
    report::write_csv("table2.csv", &report::to_csv(&header, &data));

    if cli.enabled() {
        cli.export_engine_run(
            "table2-dv3small",
            vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(5), 42),
            vine_analysis::WorkloadSpec::dv3_small().to_graph(),
        );
    }
}
