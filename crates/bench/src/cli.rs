//! The shared CLI flag layer of the bench binaries.
//!
//! `vine-sim` parses its command line with [`BenchCli::parse`], and
//! `vine-fig` with [`crate::experiments::parse_invocation`], which
//! builds on [`BenchCli::from_args`]. It strips the whole shared flag
//! family and leaves the binary's own arguments in [`BenchCli::rest`]:
//!
//! * `--trace-out DIR` / `--metrics` — observability export (the
//!   artifacts are listed in [`crate::obsout`]);
//! * `--chaos PRESET|SPEC` — a deterministic fault plan
//!   ([`FaultPlan::parse`]);
//! * `--recovery default|hardened|fragile` — the engine recovery
//!   policy;
//! * `--bench-json FILE` — machine-readable run summary for CI gates;
//! * `--stream-threshold T` — attach a
//!   [`vine_analysis::ConvergenceObserver`] with threshold `T` ∈ (0, 1]
//!   and let the run stop early at convergence.
//!
//! [`BenchCli::apply`] folds the chaos/recovery choices into an
//! [`EngineConfig`]; [`BenchCli::export`] writes a recorded run's
//! artifacts when an observability flag was given.

use std::path::PathBuf;

use vine_core::{EngineConfig, FaultPlan, RecoveryPolicy, RunResult};

/// The shared flags, stripped from the command line, plus the untouched
/// remainder.
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// Directory for trace artifacts (`--trace-out DIR`), created on
    /// demand.
    pub trace_dir: Option<PathBuf>,
    /// Also export the metrics registry (`--metrics`).
    pub metrics: bool,
    /// Parsed `--chaos` plan, if given.
    pub chaos: Option<FaultPlan>,
    /// `--recovery` policy (default policy when the flag is absent).
    pub recovery: RecoveryPolicy,
    /// `--bench-json FILE`.
    pub bench_json: Option<String>,
    /// `--stream-threshold T`, validated to (0, 1].
    pub stream_threshold: Option<f64>,
    /// Arguments that were none of the above, in order.
    pub rest: Vec<String>,
}

impl BenchCli {
    /// Strip the shared flags from the process arguments. Exits with a
    /// usage error (status 2) on a malformed value.
    pub fn parse() -> BenchCli {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Same, from an explicit argument list (tests).
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Result<BenchCli, String> {
        let mut cli = BenchCli::default();
        while let Some(a) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match a.as_str() {
                "--trace-out" => cli.trace_dir = Some(PathBuf::from(value("--trace-out")?)),
                "--metrics" => cli.metrics = true,
                "--chaos" => {
                    let spec = value("--chaos")?;
                    cli.chaos = Some(FaultPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?);
                }
                "--recovery" => {
                    cli.recovery = match value("--recovery")?.as_str() {
                        "default" => RecoveryPolicy::default(),
                        "hardened" => RecoveryPolicy::hardened(),
                        "fragile" => RecoveryPolicy::fragile(),
                        other => {
                            return Err(format!(
                                "unknown recovery policy {other} (default|hardened|fragile)"
                            ))
                        }
                    };
                }
                "--bench-json" => cli.bench_json = Some(value("--bench-json")?),
                "--stream-threshold" => {
                    let t: f64 = value("--stream-threshold")?
                        .parse()
                        .map_err(|e| format!("--stream-threshold: {e}"))?;
                    if !(t > 0.0 && t <= 1.0) {
                        return Err(format!("--stream-threshold must be in (0, 1], got {t}"));
                    }
                    cli.stream_threshold = Some(t);
                }
                _ => cli.rest.push(a),
            }
        }
        Ok(cli)
    }

    /// Fold the chaos plan and recovery policy into `cfg`.
    pub fn apply(&self, mut cfg: EngineConfig) -> EngineConfig {
        if let Some(plan) = &self.chaos {
            cfg = cfg.with_chaos(plan.clone());
        }
        cfg.with_recovery(self.recovery)
    }

    /// True when any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.trace_dir.is_some() || self.metrics
    }

    /// Write the `--bench-json` summary for a finished run, if the flag
    /// was given.
    ///
    /// `wall` is the host wall-clock of the whole invocation (graph
    /// build + simulate + report); `sim_wall` is the wall-clock of the
    /// simulation proper (`RunRequest::run`), which is what the CI
    /// throughput gate tracks as `sim_wall_ms` /
    /// `sim_events_per_wall_sec`. `makespan_s` is simulated time and
    /// deterministic for a fixed workload and seed, which is what the
    /// behavioral regression gate needs. The `fabric_*` and `solver_*`
    /// fields are [`RunResult::fabric_work`], and `peer_wait_visits` and
    /// `pick_visits` are [`RunResult::placement_work`]: exact, so the gate
    /// fails on any rise.
    pub fn write_bench_json(
        &self,
        workload: &str,
        seed: u64,
        r: &RunResult,
        wall: std::time::Duration,
        sim_wall: std::time::Duration,
    ) {
        let Some(path) = &self.bench_json else { return };
        let makespan_s = r.makespan_secs();
        let events = r.stats.events_processed;
        let per_sec = |secs: f64| {
            if secs > 0.0 {
                events as f64 / secs
            } else {
                0.0
            }
        };
        let events_per_sec = per_sec(wall.as_secs_f64());
        let sim_wall_ms = sim_wall.as_secs_f64() * 1e3;
        let sim_events_per_wall_sec = per_sec(sim_wall.as_secs_f64());
        let work = r.fabric_work;
        let placement = r.placement_work;
        let json = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \
             \"makespan_s\": {makespan_s:.6},\n  \"events\": {events},\n  \
             \"events_per_sec\": {events_per_sec:.3},\n  \
             \"sim_wall_ms\": {sim_wall_ms:.3},\n  \
             \"sim_events_per_wall_sec\": {sim_events_per_wall_sec:.3},\n  \
             \"peak_cache_bytes\": {},\n  \
             \"fabric_changes\": {},\n  \"fabric_solves\": {},\n  \
             \"solver_iterations\": {},\n  \"solver_link_visits\": {},\n  \
             \"peer_wait_visits\": {},\n  \"pick_visits\": {}\n}}\n",
            r.stats.peak_cache_bytes,
            work.changes,
            work.solves,
            work.iterations,
            work.link_visits,
            placement.peer_wait_visits,
            placement.pick_visits,
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> std::vec::IntoIter<String> {
        a.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn strips_shared_flags_and_keeps_rest() {
        let cli = BenchCli::from_args(args(&[
            "--workload",
            "dv3-small",
            "--chaos",
            "storm",
            "--recovery",
            "hardened",
            "--bench-json",
            "out.json",
            "--stream-threshold",
            "0.5",
            "--metrics",
            "--stack",
            "3",
        ]))
        .unwrap();
        assert!(cli.chaos.is_some());
        assert_eq!(cli.recovery, RecoveryPolicy::hardened());
        assert_eq!(cli.bench_json.as_deref(), Some("out.json"));
        assert_eq!(cli.stream_threshold, Some(0.5));
        assert!(cli.metrics);
        assert_eq!(cli.rest, ["--workload", "dv3-small", "--stack", "3"]);
    }

    #[test]
    fn strips_obs_flags_and_reads_the_scale() {
        let cli =
            BenchCli::from_args(args(&["10", "--trace-out", "/tmp/t", "--metrics", "x"])).unwrap();
        assert_eq!(
            cli.trace_dir.as_deref(),
            Some(std::path::Path::new("/tmp/t"))
        );
        assert!(cli.metrics);
        assert_eq!(cli.rest, ["10", "x"]);
        assert!(cli.enabled());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(BenchCli::from_args(args(&["--recovery", "bogus"])).is_err());
        assert!(BenchCli::from_args(args(&["--stream-threshold", "0"])).is_err());
        assert!(BenchCli::from_args(args(&["--stream-threshold", "1.5"])).is_err());
        assert!(BenchCli::from_args(args(&["--chaos"])).is_err());
        assert!(BenchCli::from_args(args(&["--trace-out"])).is_err());
    }

    #[test]
    fn defaults_are_inert() {
        let cli = BenchCli::from_args(args(&["positional"])).unwrap();
        assert!(cli.chaos.is_none());
        assert_eq!(cli.recovery, RecoveryPolicy::default());
        assert!(cli.stream_threshold.is_none());
        assert!(!cli.enabled());
        assert_eq!(cli.rest, ["positional"]);
    }
}
