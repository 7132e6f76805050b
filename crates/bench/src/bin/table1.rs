//! Reproduce Table I: overall stack performance on DV3-Large.
//!
//! Usage: table1 `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale: 17 000 tasks, 200 x 12-core workers;
//! e.g. 10 runs a 1/10-size configuration)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::table1;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Table I: DV3-Large stack evolution (scale 1/{scale}) ...");
    let workers = (200 / scale).max(2);
    let spec = vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale);
    for stack in 1..=4 {
        let cfg =
            vine_core::EngineConfig::stack(stack, vine_cluster::ClusterSpec::standard(workers), 42);
        vine_bench::preflight::announce_spec(&format!("stack {stack}"), &spec, &cfg);
    }
    let rows = table1::run(42, scale);
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
    println!("\nTABLE I: Overall Stack Performance (measured vs paper)\n");
    println!("{}", report::render_table(&header, &data));
    report::write_csv("table1.csv", &report::to_csv(&header, &data));

    // Representative recorded run (Stack 4) for trace/metrics export.
    if cli.enabled() {
        let cfg =
            vine_core::EngineConfig::stack(4, vine_cluster::ClusterSpec::standard(workers), 42);
        cli.export_engine_run("table1-stack4", cfg, spec.to_graph());
    }
}
