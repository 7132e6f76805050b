//! Reproduce Fig 12: workflow execution timeline (running + waiting
//! tasks) for Stacks 1–4 over the first 300 seconds.
//!
//! Usage: fig12 `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig12;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Fig 12: stack timelines, DV3-Large (scale 1/{scale}) ...");
    let workers = (200 / scale).max(2);
    let spec = vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale);
    for stack in 1..=4 {
        let cfg =
            vine_core::EngineConfig::stack(stack, vine_cluster::ClusterSpec::standard(workers), 42);
        vine_bench::preflight::announce_spec(&format!("stack {stack}"), &spec, &cfg);
    }
    let timelines = fig12::run(42, scale);

    // Console summary: concurrency snapshots.
    let header = [
        "Stack",
        "Makespan",
        "Running@30s",
        "Running@150s",
        "Running@300s",
        "Waiting@30s",
        "Waiting@300s",
    ];
    let data: Vec<Vec<String>> = timelines
        .iter()
        .map(|t| {
            let at = |s: u64, which: &str| {
                let ts = vine_simcore::SimTime::from_secs(s);
                match which {
                    "r" => t.running.value_at(ts),
                    _ => t.waiting.value_at(ts),
                }
            };
            vec![
                format!("Stack {}", t.stack),
                format!("{:.0}s", t.makespan_s),
                format!("{:.0}", at(30, "r")),
                format!("{:.0}", at(150, "r")),
                format!("{:.0}", at(300, "r")),
                format!("{:.0}", at(30, "w")),
                format!("{:.0}", at(300, "w")),
            ]
        })
        .collect();
    println!("\nFIG 12: First-300s timeline summary\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: Stack 1 sustains early concurrency but has a long tail; Stack 3");
    println!("       oscillates (dispatch cannot keep up); Stack 4 stays busy and");
    println!("       finishes within ~272s.");

    // ASCII rendering of the running-task timelines (the figure's top
    // panel), over the first 300 s.
    for t in &timelines {
        println!("Stack {} running tasks (first 300s):", t.stack);
        println!(
            "{}",
            vine_bench::plot::ascii_series(&t.running, 300.0, 100, 8)
        );
    }

    // Full series on a 1 s grid for plotting.
    let mut csv = String::from("stack,time_s,running,waiting\n");
    for t in &timelines {
        for (time, r, w) in t.sampled(300, 1) {
            csv.push_str(&format!("{},{:.0},{:.0},{:.0}\n", t.stack, time, r, w));
        }
    }
    report::write_csv("fig12_timeline.csv", &csv);

    // Recorded runs of every stack for trace/metrics export.
    if cli.enabled() {
        for stack in 1..=4 {
            let cfg = vine_core::EngineConfig::stack(
                stack,
                vine_cluster::ClusterSpec::standard(workers),
                42,
            );
            cli.export_engine_run(&format!("fig12-stack{stack}"), cfg, spec.to_graph());
        }
    }
}
