//! The one path every experiment's plain engine runs take. (The serving
//! sweeps run theirs inside `vine-serve`, and fig-stream's runs carry an
//! observer, which a cell does not take.)
//!
//! A [`Lab`] runs one `(cfg, graph)` cell of a table or figure and
//! prints its pre-flight verdict — for exactly that pair — on stderr.
//! Cells under `Preflight::Enforce` (the default) print the findings
//! the engine's own gate returned in [`RunResult::lint_findings`], so
//! nothing is linted twice; `Preflight::Off` cells (Fig 11 reproduces
//! the failure the lint predicts) are linted here before they run.
//! Experiments that deliberately reproduce a failure still announce it,
//! so the prediction and the measured outcome can be compared.
//!
//! A cell names the figure sinks it draws from ([`FigureSet`]); the lab
//! attaches a [`FigureRecorder`] for them and hands back its
//! [`FigureSinks`]. An experiment also marks some cells as recorded.
//! When `--trace-out` or `--metrics` was given, the lab tees a
//! [`MemoryRecorder`] into that same run and exports its artifacts under
//! the cell's export label ([`crate::obsout`]); nothing runs a second
//! time.

use std::path::PathBuf;

use vine_core::{EngineConfig, Preflight, RunRequest, RunResult};
use vine_dag::TaskGraph;
use vine_lint::{Diagnostic, Report};
use vine_obs::{FigureRecorder, FigureSet, FigureSinks, MemoryRecorder, RunDigest, Tee};

use crate::obsout;

/// Runs experiment cells, announces their verdicts and records the
/// marked ones.
#[derive(Debug, Default)]
pub struct Lab {
    verbose: bool,
    trace_dir: Option<PathBuf>,
    metrics: bool,
    runs: usize,
    recorded: Vec<(String, Option<RunDigest>)>,
    stdout: String,
}

impl Lab {
    /// A lab that prints nothing and records nothing (tests, benches).
    pub fn quiet() -> Lab {
        Lab::default()
    }

    /// The `vine-fig` lab: verdicts on stderr; recorded
    /// cells export into `trace_dir`, plus their metrics with `metrics`.
    pub fn new(trace_dir: Option<PathBuf>, metrics: bool) -> Lab {
        Lab {
            verbose: true,
            trace_dir,
            metrics,
            ..Lab::default()
        }
    }

    /// Run one cell: `label` names it in the verdict line, `record` is
    /// its export label when the experiment marks it as recorded, and
    /// `figures` selects the sinks returned beside the result (empty
    /// unless selected).
    pub fn run(
        &mut self,
        label: &str,
        record: Option<&str>,
        mut cfg: EngineConfig,
        graph: TaskGraph,
        figures: FigureSet,
    ) -> (RunResult, FigureSinks) {
        self.runs += 1;
        let tasks = graph.task_count();
        let gated = cfg.preflight != Preflight::Off;
        if !gated && self.verbose {
            let report = vine_lint::lint_all(&graph, &cfg.lint_facts());
            self.announce(label, tasks, report.diagnostics());
        }
        let mut figs = FigureRecorder::new(figures, cfg.worker_slots());
        let export = record.filter(|_| self.trace_dir.is_some() || self.metrics);
        let result = match export {
            None if figures.is_empty() => RunRequest::new(cfg, graph).run(),
            None => RunRequest::new(cfg, graph).recorder(&mut figs).run(),
            Some(name) => {
                cfg.obs = true;
                let mut rec = MemoryRecorder::new();
                let r = RunRequest::new(cfg, graph)
                    .recorder(&mut Tee(&mut figs, &mut rec))
                    .run();
                let dir = self.trace_dir.as_deref();
                if let Some(text) = obsout::write_artifacts(dir, self.metrics, name, &rec, &r) {
                    self.stdout.push_str(&text);
                }
                let digest = r.obs.as_ref().map(|o| o.digest.clone());
                self.recorded.push((name.to_string(), digest));
                r
            }
        };
        if gated {
            self.announce(label, tasks, &result.lint_findings);
        }
        (result, figs.into_sinks())
    }

    /// Print a verdict line (and each finding, when there are any) on
    /// stderr. Experiments without engine runs announce structural lints
    /// through this too.
    pub(crate) fn announce(&self, label: &str, tasks: usize, findings: &[Diagnostic]) {
        if !self.verbose {
            return;
        }
        if findings.is_empty() {
            eprintln!("pre-flight [{label}]: clean ({tasks} tasks)");
            return;
        }
        let mut report = Report::new();
        findings.iter().for_each(|d| report.push(d.clone()));
        let (e, w, i) = report.counts();
        eprintln!("pre-flight [{label}]: {e} error(s), {w} warning(s), {i} info(s)");
        for d in findings {
            eprintln!("  {d}");
        }
    }

    /// Print a progress line on stderr, unless the lab is quiet.
    pub(crate) fn note(&self, text: impl std::fmt::Display) {
        if self.verbose {
            eprintln!("{text}");
        }
    }

    /// Engine runs so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Export labels of the recorded cells, in run order.
    pub fn recorded(&self) -> impl Iterator<Item = &str> {
        self.recorded.iter().map(|(l, _)| l.as_str())
    }

    /// The digest of the cell recorded under `export`, if it ran
    /// recorded.
    pub fn digest(&self, export: &str) -> Option<&RunDigest> {
        self.recorded
            .iter()
            .find(|(l, _)| l == export)
            .and_then(|(_, d)| d.as_ref())
    }

    /// Metrics text of recorded cells when no trace directory was
    /// given; the caller prints it after the experiment's own output.
    pub fn take_stdout(&mut self) -> String {
        std::mem::take(&mut self.stdout)
    }
}
