//! Reproduce Fig 15: DV3-Huge — 185 000 tasks on 600 × 12-core workers
//! (7200 cores).
//!
//! Usage: fig15 `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale; expect minutes)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig15;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Fig 15: DV3-Huge on 7200 cores (scale 1/{scale}) — this is the big one ...");
    let workers = (600 / scale).max(4);
    vine_bench::preflight::announce_spec(
        "DV3-Huge",
        &vine_analysis::WorkloadSpec::dv3_huge().scaled_down(scale),
        &vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(workers), 42),
    );
    let h = fig15::run(42, scale);

    println!("\nFIG 15: DV3-Huge full-scale analysis\n");
    println!("Makespan:             {:.0} s", h.makespan_s);
    println!("Task executions:      {}", h.task_executions);
    println!("Peak concurrency:     {:.0} tasks", h.peak_concurrency);
    println!(
        "Mid-run concurrency:  {:.0} tasks (mean over middle half)",
        h.mid_run_concurrency
    );
    println!("Preemptions:          {}", h.result.stats.preemptions);
    println!(
        "Peer transfer volume: {:.1} TB",
        h.result.stats.peer_bytes as f64 / 1e12
    );
    println!();
    println!("Paper: 185K tasks with 10K initially executable; TaskVine maintains");
    println!("       high concurrency until the reduction phase of the graph.");

    println!("Running tasks over the full run:");
    println!(
        "{}",
        vine_bench::plot::ascii_series(&h.result.running_series, h.makespan_s, 110, 10)
    );

    // Timeline on a 5 s grid.
    let mut csv = String::from("time_s,running,waiting\n");
    let until = vine_simcore::SimTime::from_secs_f64(h.makespan_s);
    let dt = vine_simcore::SimDur::from_secs(5);
    for (t, r) in h.result.running_series.resample(until, dt) {
        let w = h.result.waiting_series.value_at(t);
        csv.push_str(&format!("{:.0},{:.0},{:.0}\n", t.as_secs_f64(), r, w));
    }
    report::write_csv("fig15_timeline.csv", &csv);

    // Recorded DV3-Huge run for export (as expensive as the run above).
    if cli.enabled() {
        cli.export_engine_run(
            "fig15-dv3huge",
            vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(workers), 42),
            vine_analysis::WorkloadSpec::dv3_huge()
                .scaled_down(scale)
                .to_graph(),
        );
    }
}
