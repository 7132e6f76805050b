//! Reproduce Fig 13: per-worker task activity for Stacks 3 and 4 at 20
//! and 200 workers (the Gantt panels).
//!
//! Usage: fig13 `[small_workers] [large_workers] [scale_down]`
//!        `[--trace-out DIR] [--metrics]`
//! (defaults: 20, 200, 1 = paper scale)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig13;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let mut args = cli.rest.iter();
    let small: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let large: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let scale: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    eprintln!(
        "Fig 13: worker activity, DV3-Large, {small} vs {large} workers (scale 1/{scale}) ..."
    );
    let spec = vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale);
    for (stack, workers) in [(3, small), (4, small), (3, large), (4, large)] {
        let mut cfg =
            vine_core::EngineConfig::stack(stack, vine_cluster::ClusterSpec::standard(workers), 42);
        cfg.trace.gantt = true;
        vine_bench::preflight::announce_spec(&format!("stack {stack} / {workers}w"), &spec, &cfg);
    }
    let cells = fig13::run(42, small, large, scale);

    let header = ["Stack", "Workers", "Cores", "Makespan", "Core utilization"];
    let data: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("Stack {}", c.stack),
                c.workers.to_string(),
                (c.workers * 12).to_string(),
                format!("{:.0}s", c.makespan_s),
                format!("{:.1}%", 100.0 * c.mean_utilization),
            ]
        })
        .collect();
    println!("\nFIG 13: Worker occupancy by stack and cluster width\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: Stack 3 keeps {small} workers busy but cannot feed {large};");
    println!("       Stack 4 is marginally faster at {small} and much better at {large}.");
    report::write_csv("fig13_summary.csv", &report::to_csv(&header, &data));

    // ASCII Gantt strips (the figure itself).
    for c in &cells {
        println!(
            "Stack {} on {} workers (shade = core occupancy per time bucket):",
            c.stack, c.workers
        );
        println!(
            "{}",
            vine_bench::plot::ascii_gantt(&c.gantt, c.workers, 12, c.makespan_s, 100, 20)
        );
    }

    // Gantt intervals (worker, start, end, kind) per cell.
    for c in &cells {
        let mut csv = String::from("worker,start_s,end_s,kind\n");
        for iv in c.gantt.intervals() {
            csv.push_str(&format!(
                "{},{:.3},{:.3},{}\n",
                iv.entity,
                iv.start.as_secs_f64(),
                iv.end.as_secs_f64(),
                if iv.tag == 0 { "process" } else { "accumulate" },
            ));
        }
        report::write_csv(
            &format!("fig13_gantt_stack{}_{}w.csv", c.stack, c.workers),
            &csv,
        );
    }

    // Recorded Stack 4 run at the wide cluster for export — the TASK
    // spans in the trace are the Gantt bars above, one per execution.
    if cli.enabled() {
        let mut cfg =
            vine_core::EngineConfig::stack(4, vine_cluster::ClusterSpec::standard(large), 42);
        cfg.trace.gantt = true;
        cli.export_engine_run(&format!("fig13-stack4-{large}w"), cfg, spec.to_graph());
    }
}
