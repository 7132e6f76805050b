//! Reproduce Fig 8: task execution time distribution, standard tasks vs
//! function calls on DV3-Large.
//!
//! Usage: fig8 `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 1 = paper scale)
//!
//! With observability enabled, also records Stack 3 and Stack 4 runs and
//! prints their digest diff: where the function-call speedup comes from,
//! phase by phase.

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig8;
use vine_bench::report;

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.scale();
    eprintln!("Fig 8: task time distribution, DV3-Large (scale 1/{scale}) ...");
    let workers = (200 / scale).max(2);
    let spec = vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale);
    for stack in [3, 4] {
        let cfg =
            vine_core::EngineConfig::stack(stack, vine_cluster::ClusterSpec::standard(workers), 42);
        vine_bench::preflight::announce_spec(&format!("stack {stack}"), &spec, &cfg);
    }
    let d = fig8::run(42, scale);

    let header = ["Bin lower edge (s)", "Standard tasks", "Function calls"];
    let mut data = Vec::new();
    for i in 0..d.standard.counts().len() {
        data.push(vec![
            format!("{:.3}", d.standard.bin_lo(i)),
            d.standard.counts()[i].to_string(),
            d.functions.counts()[i].to_string(),
        ]);
    }
    println!("\nFIG 8: Task execution time distribution (log2 bins)\n");
    println!("{}", report::render_table(&header, &data));
    println!(
        "In [1s, 16s): standard {:.1}%, functions {:.1}%  (paper: majority in 1-10s)",
        100.0 * d.standard.fraction_between(1.0, 16.0),
        100.0 * d.functions.fraction_between(1.0, 16.0),
    );
    println!(
        "Below 4s: standard {:.1}%, functions {:.1}%  (functions shift left)",
        100.0 * d.standard.fraction_between(0.0, 4.0),
        100.0 * d.functions.fraction_between(0.0, 4.0),
    );
    report::write_csv("fig8.csv", &report::to_csv(&header, &data));

    // Recorded Stack 3 vs Stack 4 runs: export both and show which paper
    // phases the per-task speedup comes from.
    if cli.enabled() {
        let mut runs = Vec::new();
        for stack in [3usize, 4] {
            let cfg = vine_core::EngineConfig::stack(
                stack,
                vine_cluster::ClusterSpec::standard(workers),
                42,
            );
            runs.push(cli.export_engine_run(&format!("fig8-stack{stack}"), cfg, spec.to_graph()));
        }
        if let (Some(Some(s3)), Some(Some(s4))) = (runs.first(), runs.get(1)) {
            if let (Some(o3), Some(o4)) = (&s3.obs, &s4.obs) {
                println!("\nStack 3 -> Stack 4 digest diff:");
                print!("{}", o3.digest.diff(&o4.digest).to_text());
            }
        }
    }
}
