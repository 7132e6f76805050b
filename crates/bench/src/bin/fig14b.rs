//! Reproduce Fig 14b: scaling DV3-Large and RS-TriPhoton from 120 to
//! 2400 cores on TaskVine (plus Dask.Distributed's failure at this scale).
//!
//! Usage: fig14b `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig14b;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Fig 14b: large-scale scaling (scale 1/{scale}) ...");
    let cfg = vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(200), 42);
    for (wl, spec) in [
        (
            "DV3-Large",
            vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale),
        ),
        (
            "RS-TriPhoton",
            vine_analysis::WorkloadSpec::rs_triphoton().scaled_down(scale),
        ),
    ] {
        vine_bench::preflight::announce_spec(wl, &spec, &cfg);
    }
    // The Dask.Distributed non-result: the C005 lint predicts the paper's
    // reported failure before the engine refuses to run it.
    if scale == 1 {
        vine_bench::preflight::announce_spec(
            "DV3-Large / Dask",
            &vine_analysis::WorkloadSpec::dv3_large(),
            &vine_core::EngineConfig::dask_distributed(vine_cluster::ClusterSpec::standard(10), 42),
        );
    }
    let pts = fig14b::run(42, scale);

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
                    .unwrap_or_else(|| "FAILED (crashes/hangs)".into()),
            ]
        })
        .collect();
    println!("\nFIG 14b: Scaling of standard configurations\n");
    println!("{}", report::render_table(&header, &data));
    for wl in ["DV3-Large", "RS-TriPhoton"] {
        if let Some(best) = fig14b::best_cores(&pts, wl) {
            println!("{wl}: best makespan at {best} cores");
        }
    }
    println!("Paper: DV3-Large peaks at 1200 cores; RS-TriPhoton keeps gaining to 2400;");
    println!("       Dask.Distributed cannot execute these workflows at this scale.");
    report::write_csv("fig14b.csv", &report::to_csv(&header, &data));

    // Recorded DV3-Large run on the 200-worker cluster for export.
    if cli.enabled() {
        cli.export_engine_run(
            "fig14b-dv3large",
            vine_core::EngineConfig::stack4(
                vine_cluster::ClusterSpec::standard((200 / scale).max(2)),
                42,
            ),
            vine_analysis::WorkloadSpec::dv3_large()
                .scaled_down(scale)
                .to_graph(),
        );
    }
}
