//! Ablation studies of TaskVine's design choices (replication, data-aware
//! placement, peer-transfer throttling, data source). See DESIGN.md §5.
//!
//! Usage: ablations `[scale_down] [--trace-out DIR] [--metrics]`
//! (default 10)

use vine_bench::cli::BenchCli;
use vine_bench::experiments::ablations;
use vine_bench::report;
use vine_simcore::units::fmt_bytes;

fn section(title: &str, rows: &[ablations::AblationRow]) {
    let header = [
        "Variant",
        "Runtime",
        "Task executions",
        "Peer transfer volume",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                if r.completed {
                    format!("{:.0}s", r.makespan_s)
                } else {
                    "FAILED".into()
                },
                r.executions.to_string(),
                fmt_bytes(r.peer_bytes),
            ]
        })
        .collect();
    println!("\n== {title} ==\n");
    println!("{}", report::render_table(&header, &data));
    let slug: String = title
        .split_whitespace()
        .next()
        .unwrap_or("x")
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    let file = format!("ablation_{}.csv", slug.to_lowercase());
    report::write_csv(&file, &report::to_csv(&header, &data));
}

fn main() {
    let cli = BenchCli::parse();
    let scale: usize = cli.rest.first().and_then(|s| s.parse().ok()).unwrap_or(10);
    eprintln!("Ablations at scale 1/{scale} ...");
    let workers = (200 / scale.max(1)).max(4);
    let cfg = vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(workers), 42);
    for (wl, spec) in [
        (
            "DV3-Large",
            vine_analysis::WorkloadSpec::dv3_large().scaled_down(scale.max(1)),
        ),
        (
            "RS-TriPhoton",
            vine_analysis::WorkloadSpec::rs_triphoton().scaled_down(scale.max(1)),
        ),
        (
            "DV3-Medium",
            vine_analysis::WorkloadSpec::dv3_medium().scaled_down(scale.max(1)),
        ),
    ] {
        vine_bench::preflight::announce_spec(wl, &spec, &cfg);
    }
    section(
        "Replication under preemption (DV3-Large)",
        &ablations::replication(42, scale),
    );
    section(
        "Placement policy (DV3-Large)",
        &ablations::placement(42, scale),
    );
    section(
        "Peer-transfer throttle (RS-TriPhoton)",
        &ablations::throttle(42, scale),
    );
    section(
        "Datasource: site storage vs wide-area XRootD (DV3-Medium)",
        &ablations::datasource(42, scale),
    );

    // Recorded baseline (stack 4, DV3-Large) for trace/metrics export.
    if cli.enabled() {
        cli.export_engine_run(
            "ablations-baseline",
            vine_core::EngineConfig::stack4(vine_cluster::ClusterSpec::standard(workers), 42),
            vine_analysis::WorkloadSpec::dv3_large()
                .scaled_down(scale.max(1))
                .to_graph(),
        );
    }
}
