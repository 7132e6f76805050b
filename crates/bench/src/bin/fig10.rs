//! Reproduce Fig 10: import-hoisting sweep (15 000 function calls on
//! 16 × 32-core workers, complexity 0.125–64, hoisted/unhoisted ×
//! local/shared filesystem).
//!
//! Usage: fig10 `[n_tasks] [--trace-out DIR] [--metrics]`
//! (default 15000 = paper scale)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::fig10;
use vine_bench::report;
use vine_core::ImportSource;

fn main() {
    let cli = BenchCli::parse();
    let n: usize = cli
        .rest
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(15_000);
    eprintln!("Fig 10: import hoisting sweep, {n} function calls ...");
    let mut cfg = vine_core::EngineConfig::stack4(fig10::hoisting_cluster(), 42);
    cfg.exec_mode = vine_core::ExecMode::FunctionCalls {
        hoist_imports: true,
    };
    vine_bench::preflight::announce("hoisting workflow", &fig10::workflow(n, 1.0), &cfg);
    let pts = fig10::run(42, n);

    let header = [
        "Complexity",
        "Mean task (hoisted, local)",
        "Mean task (unhoisted, local)",
        "Speedup local",
        "Mean task (hoisted, shared)",
        "Mean task (unhoisted, shared)",
        "Speedup shared",
    ];
    let find = |c: f64, src: ImportSource, h: bool| {
        pts.iter()
            .find(|p| p.complexity == c && p.import_source == src && p.hoisted == h)
            .expect("point exists")
    };
    let mut data = Vec::new();
    for &c in &fig10::complexities() {
        let hl = find(c, ImportSource::WorkerLocal, true);
        let ul = find(c, ImportSource::WorkerLocal, false);
        let hs = find(c, ImportSource::SharedFilesystem, true);
        let us = find(c, ImportSource::SharedFilesystem, false);
        data.push(vec![
            format!("{c}"),
            format!("{:.3}s", hl.mean_task_s),
            format!("{:.3}s", ul.mean_task_s),
            format!("{:.2}x", ul.mean_task_s / hl.mean_task_s),
            format!("{:.3}s", hs.mean_task_s),
            format!("{:.3}s", us.mean_task_s),
            format!("{:.2}x", us.mean_task_s / hs.mean_task_s),
        ]);
    }
    println!("\nFIG 10: Import hoisting (task execution time)\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: significant speedup for short fine-grained tasks, fading for long");
    println!("       tasks; local storage slightly outperforms the shared filesystem.");
    report::write_csv("fig10.csv", &report::to_csv(&header, &data));

    // Also dump the raw makespans.
    let raw_header = [
        "complexity",
        "source",
        "hoisted",
        "makespan_s",
        "mean_task_s",
    ];
    let raw: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.complexity.to_string(),
                format!("{:?}", p.import_source),
                p.hoisted.to_string(),
                format!("{:.3}", p.makespan_s),
                format!("{:.4}", p.mean_task_s),
            ]
        })
        .collect();
    report::write_csv("fig10_raw.csv", &report::to_csv(&raw_header, &raw));

    // Recorded hoisted vs unhoisted runs (complexity 1, local imports):
    // the imports phase in the digests shows exactly what hoisting saves.
    if cli.enabled() {
        let mut runs = Vec::new();
        for hoist in [false, true] {
            let mut cfg = vine_core::EngineConfig::stack4(fig10::hoisting_cluster(), 42);
            cfg.exec_mode = vine_core::ExecMode::FunctionCalls {
                hoist_imports: hoist,
            };
            let label = if hoist {
                "fig10-hoisted"
            } else {
                "fig10-unhoisted"
            };
            runs.push(cli.export_engine_run(label, cfg, fig10::workflow(n, 1.0)));
        }
        if let (Some(Some(un)), Some(Some(ho))) = (runs.first(), runs.get(1)) {
            if let (Some(ou), Some(oh)) = (&un.obs, &ho.obs) {
                println!("\nUnhoisted -> hoisted digest diff:");
                print!("{}", ou.digest.diff(&oh.digest).to_text());
            }
        }
    }
}
