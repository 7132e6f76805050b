//! The `--trace-out` / `--metrics` exports of the bench binaries.
//!
//! When an observability flag was given, a run executes with a
//! [`MemoryRecorder`] attached — `vine-sim`'s run, or the cells an
//! experiment marks as recorded ([`crate::lab::Lab`]) — and the
//! artifacts land under the trace directory —
//!
//! * `<label>.trace.json` — Chrome `trace_event` JSON (open in Perfetto
//!   or `chrome://tracing`),
//! * `<label>.spans.csv` / `<label>.counters.csv` — the same events as CSV,
//! * `<label>.attrib.csv` — per-task phase attribution rows,
//! * `<label>.digest.txt` — the run digest (phases, critical path,
//!   counters),
//! * `<label>.metrics.txt` — the metrics-registry export (with
//!   `--metrics`; printed to stdout when no trace dir is given).

use std::path::Path;

use vine_core::RunResult;
use vine_obs::{chrome, csv, MemoryRecorder, MetricsRegistry};

use crate::cli::BenchCli;

impl BenchCli {
    /// Write the artifacts for an already-recorded run (the metrics
    /// text goes to stdout when no trace directory was given).
    pub fn export(&self, label: &str, rec: &MemoryRecorder, result: &RunResult) {
        let dir = self.trace_dir.as_deref();
        if let Some(text) = write_artifacts(dir, self.metrics, label, rec, result) {
            print!("{text}");
        }
    }
}

/// Write a recorded run's artifacts under `trace_dir`, plus its metrics
/// export with `metrics`. Returns the metrics text instead when there is
/// no trace directory to write it into.
pub fn write_artifacts(
    trace_dir: Option<&Path>,
    metrics: bool,
    label: &str,
    rec: &MemoryRecorder,
    result: &RunResult,
) -> Option<String> {
    if let Some(dir) = trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return None;
        }
        write_file(dir, label, "trace.json", &chrome::to_chrome_json(rec));
        write_file(dir, label, "spans.csv", &csv::spans_to_csv(rec));
        write_file(dir, label, "counters.csv", &csv::counters_to_csv(rec));
        if let Some(obs) = &result.obs {
            write_file(
                dir,
                label,
                "attrib.csv",
                &vine_obs::attrib::attributions_to_csv(&obs.attributions),
            );
            write_file(dir, label, "digest.txt", &obs.digest.to_text());
        }
    }
    let text = metrics.then(|| run_metrics(result).to_text())?;
    let Some(dir) = trace_dir else {
        return Some(text);
    };
    write_file(dir, label, "metrics.txt", &text);
    None
}

/// Fold a run's aggregate numbers into a metrics registry (deterministic
/// text export).
pub fn run_metrics(result: &RunResult) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    let s = &result.stats;
    m.counter_add("tasks.total", s.tasks_total as u64);
    m.counter_add("tasks.executions", s.task_executions);
    m.counter_add("workers.preemptions", s.preemptions);
    m.counter_add("workers.cache_overflows", s.cache_overflow_failures);
    m.counter_add("net.flows_completed", s.flows_completed);
    m.counter_add("net.manager_bytes", s.manager_bytes);
    m.counter_add("net.peer_bytes", s.peer_bytes);
    m.counter_add("net.shared_fs_bytes", s.shared_fs_bytes);
    m.counter_add("serverless.libraries_started", s.libraries_started);
    m.gauge_set("run.makespan_s", result.makespan_secs());
    m.gauge_set("run.mean_task_s", result.mean_task_secs());
    m.gauge_set("run.completed", if result.completed() { 1.0 } else { 0.0 });
    if let Some(obs) = &result.obs {
        m.gauge_set(
            "run.critical_path_s",
            obs.digest.critical_path_us as f64 / 1e6,
        );
        // Same binning the engine's Fig 8 histogram uses.
        for a in &obs.attributions {
            m.histogram_record("task.wall_s", 0.0625, 16, a.wall_us() as f64 / 1e6);
        }
    }
    m
}

fn write_file(dir: &Path, label: &str, suffix: &str, content: &str) {
    let path = dir.join(format!("{label}.{suffix}"));
    match std::fs::write(&path, content) {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_registry_round_trips() {
        use vine_core::{EngineConfig, RunRequest};
        let cluster = vine_cluster::ClusterSpec::standard(2);
        let cfg = EngineConfig::stack(4, cluster, 7)
            .deterministic()
            .with_obs();
        let spec = vine_analysis::WorkloadSpec::dv3_small().scaled_down(50);
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        let m = run_metrics(&r);
        assert_eq!(m.counter("tasks.executions"), Some(r.stats.task_executions));
        let parsed = MetricsRegistry::parse_text(&m.to_text()).unwrap();
        assert_eq!(parsed.to_text(), m.to_text());
    }
}
