//! Facility — the serving-layer experiment: a multi-tenant facility with
//! cross-run warm caches and weighted fair-share admission
//! (`vine-serve`).
//!
//! Part 1 is the interactive-analyst demonstration: the same DV3-Small
//! graph submitted cold, resubmitted verbatim (fully warm — memoized
//! from resident cachenames), and resubmitted with an edited selection
//! (process stage warm, reductions re-run). Part 2 drives the facility
//! with the seeded multi-tenant load generator and reports per-tenant
//! p50/p95/p99 makespan, queue waits, and the facility-wide warm-hit
//! ratio; the per-submission records land in `results/facility.csv` and
//! the deterministic metrics export in `results/facility_metrics.txt`.
//! Its check re-runs it at the default scale and requires both files to
//! equal the committed ones.
//!
//! `vine-fig facility [scale=20]` (larger = smaller workloads).

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::EngineConfig;
use vine_obs::FigureSet;
use vine_serve::{FacilityConfig, LoadGen, ShardedConfig, ShardedFacility};

use super::Output;
use crate::lab::Lab;

/// The demo facility as a single shard.
pub(super) fn demo_facility(seed: u64) -> ShardedFacility {
    ShardedFacility::new(ShardedConfig::single(FacilityConfig::demo(seed)))
        .expect("demo config is clean")
}

/// `cold/this` as a readable factor; a fully-memoized run finishes in
/// (essentially) zero simulated time, which reads better as a floor.
fn speedup_label(cold_s: f64, this_s: f64) -> String {
    let x = cold_s / this_s.max(1e-9);
    if x > 1000.0 {
        ">1000x".to_string()
    } else {
        format!("{x:.1}x")
    }
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let scale = args[0];
    let seed = 42;
    let mut out = Output::default();

    // ---- Part 1: cold → warm → edited, one analyst ------------------
    let spec = WorkloadSpec::dv3_small().scaled_down(scale);
    let mut facility = demo_facility(seed);
    for d in facility.preflight().diagnostics() {
        lab.note(format_args!("  preflight: {d}"));
    }
    let cold = facility.run_now(0, spec.to_graph(), "cold");
    let warm = facility.run_now(0, spec.to_graph(), "warm");
    let edited_graph = spec.clone().with_edit_generation(1).to_graph();
    let edited = facility.run_now(0, edited_graph, "edited");

    let header = [
        "Submission",
        "Makespan",
        "Executed",
        "Memoized",
        "Warm-hit",
        "Speedup",
    ];
    let rows: Vec<Vec<String>> = [&cold, &warm, &edited]
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.1}s", r.makespan.as_secs_f64()),
                format!("{}", r.stats.task_executions),
                format!("{}", r.stats.memoized_tasks),
                format!("{:.0}%", 100.0 * r.warm_hit_ratio()),
                speedup_label(cold.makespan.as_secs_f64(), r.makespan.as_secs_f64()),
            ]
        })
        .collect();
    out.line(format!(
        "\nFACILITY: warm-start iteration latency (DV3-Small 1/{scale})\n"
    ));
    out.table(&header, &rows, None);
    out.line(format!(
        "Warm resubmission: {} faster ({} of {} tasks memoized, {} warm bytes)",
        speedup_label(cold.makespan.as_secs_f64(), warm.makespan.as_secs_f64()),
        warm.stats.memoized_tasks,
        warm.stats.tasks_total,
        warm.stats.warm_hit_bytes
    ));

    // ---- Part 2: multi-tenant load ----------------------------------
    let loadgen = LoadGen {
        scale_down: scale.max(20),
        ..LoadGen::default()
    };
    let mut facility = demo_facility(seed);
    let subs = loadgen.generate(2, seed);
    let n = subs.len();
    lab.note(format_args!("  driving {n} submissions from 2 tenants ..."));
    facility.ingest(subs);
    let rep = facility.drain().shards.remove(0);

    let header = [
        "Tenant",
        "Subs",
        "p50",
        "p95",
        "p99",
        "Queue wait",
        "Memoized",
        "Executed",
    ];
    let rows: Vec<Vec<String>> = rep
        .per_tenant()
        .iter()
        .map(|t| {
            vec![
                t.name.clone(),
                format!("{}", t.submissions),
                format!("{:.1}s", t.p50_makespan_s),
                format!("{:.1}s", t.p95_makespan_s),
                format!("{:.1}s", t.p99_makespan_s),
                format!("{:.1}s", t.mean_queue_wait_s),
                format!("{}", t.memoized_tasks),
                format!("{}", t.task_executions),
            ]
        })
        .collect();
    out.line(format!(
        "\nFACILITY: multi-tenant service quality ({n} submissions)\n"
    ));
    out.table(&header, &rows, None);
    out.line(format!(
        "Facility warm-hit ratio {:.0}%, peak in-flight {} of {} cores, horizon {:.0}s",
        100.0 * rep.warm_hit_ratio(),
        rep.peak_inflight_cores,
        rep.total_cores,
        rep.horizon_s()
    ));
    out.file("facility.csv", rep.to_csv());
    out.file("facility_metrics.txt", rep.to_metrics().to_text());

    // ---- The recorded cell: the cold graph on a plain engine ---------
    let cfg = EngineConfig::stack(3, ClusterSpec::standard(4), seed).deterministic();
    lab.run(
        "facility_cold",
        Some("facility_cold"),
        cfg,
        spec.to_graph(),
        FigureSet::NONE,
    );
    out
}
