//! Reproduce Fig 14a: TaskVine vs Dask.Distributed scaling on
//! DV3-Small and DV3-Medium (60–300 cores).
//!
//! Usage: fig14a `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig14a;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Fig 14a: TaskVine vs Dask.Distributed, DV3-Small/Medium (scale 1/{scale}) ...");
    let cluster = vine_cluster::ClusterSpec::standard(5);
    for (wl, spec) in [
        (
            "DV3-Small",
            vine_analysis::WorkloadSpec::dv3_small().scaled_down(scale),
        ),
        (
            "DV3-Medium",
            vine_analysis::WorkloadSpec::dv3_medium().scaled_down(scale),
        ),
    ] {
        for (sched, cfg) in [
            ("TaskVine", vine_core::EngineConfig::stack4(cluster, 42)),
            (
                "Dask",
                vine_core::EngineConfig::dask_distributed(cluster, 42),
            ),
        ] {
            vine_bench::preflight::announce_spec(&format!("{wl} / {sched}"), &spec, &cfg);
        }
    }
    let pts = fig14a::run(42, scale);

    let header = ["Workload", "Scheduler", "Cores", "Runtime"];
    let data: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                p.scheduler.to_string(),
                p.cores.to_string(),
                p.makespan_s
                    .map(|m| format!("{m:.0}s"))
                    .unwrap_or_else(|| "FAILED".into()),
            ]
        })
        .collect();
    println!("\nFIG 14a: Scheduler scaling comparison\n");
    println!("{}", report::render_table(&header, &data));
    // Headline ratio at max cores.
    for wl in ["DV3-Small", "DV3-Medium"] {
        let find = |sched: &str| {
            pts.iter()
                .filter(|p| p.workload == wl && p.scheduler == sched)
                .max_by_key(|p| p.cores)
                .and_then(|p| p.makespan_s)
        };
        if let (Some(tv), Some(dd)) = (find("TaskVine"), find("Dask.Distributed")) {
            println!(
                "{wl} at 300 cores: Dask/TaskVine = {:.2}x  (paper: ~2x)",
                dd / tv
            );
        }
    }
    report::write_csv("fig14a.csv", &report::to_csv(&header, &data));

    // Recorded runs of both schedulers on DV3-Small for export.
    if cli.enabled() {
        let spec = vine_analysis::WorkloadSpec::dv3_small().scaled_down(scale);
        cli.export_engine_run(
            "fig14a-taskvine",
            vine_core::EngineConfig::stack4(cluster, 42),
            spec.to_graph(),
        );
        cli.export_engine_run(
            "fig14a-dask",
            vine_core::EngineConfig::dask_distributed(cluster, 42),
            spec.to_graph(),
        );
    }
}
