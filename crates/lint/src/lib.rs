#![deny(unsafe_code)]

//! # vine-lint — static pre-flight analysis
//!
//! The paper's headline failures are statically predictable: Fig 11's
//! single-node reduction pins more partials on one worker than its 700 GB
//! disk holds, Dask.Distributed is "unable to run" TB-scale DV3 inputs,
//! and §IV warns about misconfigured stacks (serverless without a
//! LibraryTask, unthrottled peer transfers). This crate analyzes a
//! `(TaskGraph, EngineFacts)` pair *before* any event is simulated or any
//! thread spawned and reports problems as structured [`Diagnostic`]s.
//!
//! Seven analysis families, one module each:
//!
//! * [`graph`] — structural lints (G codes): broken producer/consumer
//!   links, cycles, duplicate file names, orphan tasks, unconsumed
//!   inputs, unbounded reduction fan-in;
//! * [`resources`] — feasibility lints (R codes): per-worker cache
//!   footprint bounds along the reduction frontier vs. disk capacity,
//!   single tasks no node can hold, dataset size vs. cluster capacity;
//! * [`config`] — consistency lints (C codes): knob combinations that
//!   deadlock (a peer-transfer throttle of zero), silently do nothing
//!   (replication without peer transfers), or are policy-infeasible
//!   (Dask.Distributed beyond its stable input scale);
//! * [`determinism`] — reproducibility lints (D codes): trace and
//!   recovery settings that make repeated runs hard to compare;
//! * [`recovery`] — recovery-policy lints (R005–R007): retry budgets,
//!   timeouts and speculation that cannot do what they promise;
//! * [`facility`] — multi-tenant serving lints (F codes): tenant quotas
//!   or fair-share weights that can never be satisfied, and per-run
//!   worker slices the cluster cannot provide (checked by `vine-serve`
//!   before a facility accepts submissions);
//! * [`watch`] — standing-submission lints (W codes): reactive
//!   configurations that silently go stale, watch datasets the template
//!   never reads, or debounce without a bound (checked by `vine-watch`
//!   when a standing submission registers).
//!
//! The scheduler side of the world arrives as [`EngineFacts`], a plain
//! snapshot of the engine knobs this crate needs: every field is read by
//! some lint. Values no configuration can change (the engine's
//! calibrated costs, its staging throttle and replication size cap, the
//! shared tier's bandwidths) are constants of their crates, not facts,
//! and nothing here checks them. `vine-core` provides
//! `EngineConfig::lint_facts()` to build one, keeping the dependency
//! arrow pointing `vine-core → vine-lint` and never back.
//!
//! Entry points: [`lint_graph`] for graph-only checks (used by
//! `vine-exec`, which has no engine config), and [`lint_all`] for the
//! full battery (used by the engine's pre-flight gate and the
//! `vine-sim --lint` CLI).

pub mod config;
pub mod determinism;
pub mod facility;
pub mod graph;
pub mod recovery;
pub mod resources;
pub mod watch;

pub use facility::{lint_facility, lint_sharded, FacilityFacts, ShardFacts, TenantFacts};
pub use watch::{lint_watch, StandingFacts, WatchFacts};

use std::fmt;

use vine_dag::{FileId, TaskGraph, TaskId};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; never blocks a run.
    Info,
    /// Suspicious configuration; runs proceed but the finding is traced.
    Warn,
    /// The run cannot succeed (or cannot be trusted); pre-flight gates
    /// refuse to start.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes, grouped by family. The code, not the message
/// text, is the contract: tests and tooling match on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(clippy::upper_case_acronyms)]
pub enum Code {
    /// A task↔file link is broken or refers to a nonexistent node.
    G001,
    /// The graph contains a dependency cycle.
    G002,
    /// Two files share one logical name (cachename collision).
    G003,
    /// A task produces no outputs: its work is unobservable.
    G004,
    /// An external input file is never consumed.
    G005,
    /// An accumulation's fan-in exceeds the safe reduction arity.
    G006,
    /// The graph has no tasks.
    G007,
    /// Peak per-worker cache footprint bound exceeds worker disk.
    R001,
    /// A single task's input+output pin set exceeds worker disk.
    R002,
    /// The dataset exceeds the cluster's aggregate cache capacity.
    R003,
    /// Degenerate cluster: no workers, cores, or disk.
    R004,
    /// Faults injected with a zero retry budget: first failure
    /// quarantines (or aborts).
    R005,
    /// Task timeout set below the category's p99 runtime estimate:
    /// healthy tasks will be killed as stragglers.
    R006,
    /// Speculative re-execution enabled on a single-worker cluster:
    /// there is never a second worker to speculate on.
    R007,
    /// Worker-local import distribution without serverless execution.
    C002,
    /// Peer transfers enabled but throttled to zero concurrent streams.
    C003,
    /// Dask.Distributed with more input than its stable scale.
    C005,
    /// Replication target unreachable (exceeds worker count).
    C006,
    /// Scheduler/data-movement mismatch (peer transfers vs. generation).
    C007,
    /// Replication requested but peer transfers are off: no replica can
    /// be made.
    C008,
    /// Sole-copy intermediates under preemption: rerun cascades.
    D001,
    /// A tenant's in-flight core quota exceeds the whole cluster.
    F001,
    /// A tenant has zero (or invalid) fair-share weight, or the facility
    /// has no tenants at all: nothing can ever be admitted for it.
    F002,
    /// Per-run worker slice is infeasible (zero, or larger than the
    /// cluster).
    F004,
    /// A tenant's resident-byte quota exceeds the cluster's aggregate
    /// disk.
    F005,
    /// Federation has zero shards: no facility can ever run anything.
    F006,
    /// Shared object tier configured with zero capacity: every put
    /// bounces.
    F007,
    /// Cross-shard work stealing enabled on a single-shard federation:
    /// there is never another shard to steal from.
    F008,
    /// A standing submission has no automatic trigger (`Manual`): results
    /// go stale silently as the dataset grows.
    W001,
    /// A standing submission watches a dataset its graph template never
    /// reads: appends fire refreshes that recompute nothing.
    W002,
    /// A debounced trigger with no pending cap: a steady trickle of
    /// appends postpones the refresh forever.
    W003,
}

impl Code {
    /// Every code, in report order — drives the README reference table.
    pub const ALL: [Code; 31] = [
        Code::G001,
        Code::G002,
        Code::G003,
        Code::G004,
        Code::G005,
        Code::G006,
        Code::G007,
        Code::R001,
        Code::R002,
        Code::R003,
        Code::R004,
        Code::R005,
        Code::R006,
        Code::R007,
        Code::C002,
        Code::C003,
        Code::C005,
        Code::C006,
        Code::C007,
        Code::C008,
        Code::D001,
        Code::F001,
        Code::F002,
        Code::F004,
        Code::F005,
        Code::F006,
        Code::F007,
        Code::F008,
        Code::W001,
        Code::W002,
        Code::W003,
    ];

    /// One-line description (the README reference text).
    pub fn describe(self) -> &'static str {
        match self {
            Code::G001 => "broken task\u{2194}file link or reference to a nonexistent node",
            Code::G002 => "task graph contains a dependency cycle",
            Code::G003 => "two files share one logical name (cachename collision)",
            Code::G004 => "task produces no outputs; its work is unobservable",
            Code::G005 => "external input file is never consumed",
            Code::G006 => "accumulation fan-in exceeds the safe reduction arity",
            Code::G007 => "graph has no tasks",
            Code::R001 => "peak per-worker cache footprint bound exceeds worker disk",
            Code::R002 => "one task's inputs+outputs exceed a worker's disk",
            Code::R003 => "dataset exceeds the cluster's aggregate cache capacity",
            Code::R004 => "degenerate cluster (no workers, cores, or disk)",
            Code::R005 => "faults injected with a zero retry budget: first failure quarantines",
            Code::R006 => "task timeout below the category p99 estimate kills healthy tasks",
            Code::R007 => "speculation on a single-worker cluster can never launch a duplicate",
            Code::C002 => "worker-local imports without serverless execution",
            Code::C003 => "peer transfers enabled but throttled to zero",
            Code::C005 => "Dask.Distributed beyond its stable input scale",
            Code::C006 => "replication target exceeds the worker count",
            Code::C007 => "peer-transfer setting contradicts the scheduler generation",
            Code::C008 => "replication enabled but peer transfers are off",
            Code::D001 => "sole-copy intermediates under preemption (rerun cascades)",
            Code::F001 => "tenant in-flight core quota exceeds the whole cluster",
            Code::F002 => "tenant with zero fair-share weight (or no tenants): starved forever",
            Code::F004 => "per-run worker slice is zero or larger than the cluster",
            Code::F005 => "tenant resident-byte quota exceeds the cluster's aggregate disk",
            Code::F006 => "federation has zero shards; nothing can ever run",
            Code::F007 => "shared object tier with zero capacity",
            Code::F008 => "work stealing on a single-shard federation has no victim",
            Code::W001 => "standing submission without an automatic trigger goes stale silently",
            Code::W002 => "standing submission watches a dataset its template never reads",
            Code::W003 => "unbounded debounce: a steady trickle postpones refresh forever",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Where a diagnostic points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locus {
    /// The graph as a whole.
    Graph,
    /// One task.
    Task(TaskId),
    /// One file.
    File(FileId),
    /// The engine configuration.
    Config,
    /// The cluster allocation.
    Cluster,
    /// One facility tenant (by index in the facility config).
    Tenant(usize),
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Graph => write!(f, "graph"),
            Locus::Task(t) => write!(f, "task:{}", t.0),
            Locus::File(fid) => write!(f, "file:{}", fid.0),
            Locus::Config => write!(f, "config"),
            Locus::Cluster => write!(f, "cluster"),
            Locus::Tenant(i) => write!(f, "tenant:{i}"),
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code (the machine contract).
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// What it points at.
    pub locus: Locus,
    /// What is wrong, with the numbers that show it.
    pub message: String,
    /// What to do about it, if there is a known fix.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.severity, self.code, self.locus, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " ({s})")?;
        }
        Ok(())
    }
}

/// An ordered collection of findings from one lint pass.
#[derive(Clone, Debug, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Absorb another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Findings at `Severity::Error`.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Findings at `Severity::Warn`.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Warn)
    }

    /// True if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True if nothing was found at all.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True if a finding with this code exists.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Counts as `(errors, warnings, infos)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diags {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warn => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// Human-readable multi-line report with a trailing summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&format!("{d}\n"));
        }
        let (e, w, i) = self.counts();
        out.push_str(&format!(
            "lint: {e} error(s), {w} warning(s), {i} info(s)\n"
        ));
        out
    }

    /// Machine-readable format: one tab-separated line per diagnostic
    /// (`code  severity  locus  message  suggestion`), no summary line.
    pub fn to_machine(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                d.code,
                d.severity,
                d.locus,
                d.message,
                d.suggestion.as_deref().unwrap_or("-")
            ));
        }
        out
    }
}

/// Which scheduler generation the engine will run — the subset of
/// `SchedulerKind` the lints care about, restated here so the dependency
/// arrow stays `vine-core → vine-lint`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerFamily {
    /// Manager-centric Work Queue (stacks 1–2).
    WorkQueue,
    /// TaskVine with node-local caches and peer transfers (stacks 3–4).
    TaskVine,
    /// Dask's native Dask.Distributed scheduler.
    DaskDistributed,
}

/// A plain snapshot of the engine and cluster knobs the lints read.
///
/// Built by `EngineConfig::lint_facts()` in `vine-core`; constructible by
/// hand in tests. For Dask.Distributed the builder mirrors the engine's
/// share-nothing split (each physical worker becomes `cores` single-core
/// workers whose capacity is `mem/cores`), so the resource lints see the
/// same worker geometry the simulation will use.
#[derive(Clone, Debug)]
pub struct EngineFacts {
    /// Scheduler generation.
    pub scheduler: SchedulerFamily,
    /// Serverless FunctionCalls (vs. conventional standard tasks).
    pub serverless: bool,
    /// Task environments read from worker-local storage.
    pub import_worker_local: bool,
    /// External inputs fetched over the WAN rather than the shared FS.
    pub remote_inputs: bool,
    /// Worker↔worker transfers enabled.
    pub peer_transfers: bool,
    /// Concurrent outgoing peer transfers allowed per worker.
    pub max_peer_transfers_per_worker: usize,
    /// Target replica count for intermediate files (1 = off).
    pub replica_target: u32,
    /// Worker preemption rate, events per second (0 = none).
    pub preemption_rate_per_sec: f64,
    /// The fault plan holds a fault that draws on the retry budget: any
    /// family but preemption, whose worker deaths never charge it.
    pub chaos_enabled: bool,
    /// Recovery policy: task-level failures tolerated before quarantine.
    pub retry_budget: u32,
    /// Recovery policy: attempts are abandoned past this multiple of the
    /// category p99 runtime estimate (0 = timeouts off).
    pub timeout_factor: f64,
    /// Recovery policy: speculative re-execution of stragglers enabled.
    pub speculation: bool,
    /// Dask.Distributed's stable input limit, if the policy is active.
    pub dask_unstable_above_bytes: Option<u64>,
    /// Worker count (post share-nothing split for Dask).
    pub workers: usize,
    /// Cores per worker.
    pub cores_per_worker: u32,
    /// Disk (cache capacity) per worker, bytes.
    pub disk_per_worker: u64,
}

impl Default for EngineFacts {
    /// A reference TaskVine (stack 3/4-like) configuration on four
    /// DV3-class workers — a healthy fixture tests perturb.
    fn default() -> Self {
        EngineFacts {
            scheduler: SchedulerFamily::TaskVine,
            serverless: true,
            import_worker_local: true,
            remote_inputs: false,
            peer_transfers: true,
            max_peer_transfers_per_worker: 3,
            replica_target: 2,
            preemption_rate_per_sec: 0.0,
            chaos_enabled: false,
            retry_budget: 3,
            timeout_factor: 0.0,
            speculation: false,
            dask_unstable_above_bytes: None,
            workers: 4,
            cores_per_worker: 12,
            disk_per_worker: 108_000_000_000,
        }
    }
}

/// Format a byte count the way the reports do (GB with one decimal when
/// large, raw bytes when small).
pub(crate) fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000_000 {
        format!("{:.0} GB", b as f64 / 1e9)
    } else if b >= 1_000_000_000 {
        format!("{:.1} GB", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.0} MB", b as f64 / 1e6)
    } else {
        format!("{b} B")
    }
}

/// Run the graph-structure lints alone (no engine facts needed).
pub fn lint_graph(graph: &TaskGraph) -> Report {
    graph::lint(graph)
}

/// Run every lint family against a graph and the engine facts.
pub fn lint_all(graph: &TaskGraph, facts: &EngineFacts) -> Report {
    let mut report = graph::lint(graph);
    report.merge(resources::lint(graph, facts));
    report.merge(config::lint(graph, facts));
    report.merge(determinism::lint(facts));
    report.merge(recovery::lint(facts));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_queries() {
        let mut r = Report::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic {
            code: Code::C003,
            severity: Severity::Error,
            locus: Locus::Config,
            message: "x".into(),
            suggestion: None,
        });
        r.push(Diagnostic {
            code: Code::D001,
            severity: Severity::Warn,
            locus: Locus::Config,
            message: "y".into(),
            suggestion: Some("z".into()),
        });
        assert!(r.has_errors() && r.has_code(Code::C003) && !r.has_code(Code::G002));
        assert_eq!(r.counts(), (1, 1, 0));
        let text = r.to_text();
        assert!(text.contains("error C003 [config]: x"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        let machine = r.to_machine();
        assert_eq!(machine.lines().count(), 2);
        assert!(machine.starts_with("C003\terror\tconfig\tx\t-"));
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warn && Severity::Warn > Severity::Info);
    }

    #[test]
    fn every_code_has_a_description() {
        for c in Code::ALL {
            assert!(!c.describe().is_empty(), "{c}");
        }
    }
}
