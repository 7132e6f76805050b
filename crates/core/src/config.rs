//! Engine configuration and the Table I stack presets.

use vine_chaos::{Fault, FaultPlan};
use vine_cluster::{BatchSystem, ClusterSpec};
use vine_simcore::units::TB;
use vine_simcore::Dist;
use vine_storage::SharedFs;

use crate::cost::BASE_COMPUTE;
use crate::preempt::CAMPUS;
use crate::recovery::RecoveryPolicy;

/// Dask.Distributed is reported by the paper to be unable to run TB-scale
/// workloads (§V-B): its runs with more input than this abort with
/// `RunOutcome::Failed`.
pub const DASK_UNSTABLE_ABOVE_BYTES: u64 = TB / 2;

/// Which scheduler generation runs the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Baseline Work Queue: manager-centric data movement (Stacks 1–2).
    WorkQueue,
    /// TaskVine: node-local caches, data-aware placement, peer transfers
    /// (Stacks 3–4).
    TaskVine,
    /// Dask's native Dask.Distributed scheduler (Fig 14a comparison).
    DaskDistributed,
}

/// How tasks execute on workers (§IV-B "Serverless Execution").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Conventional tasks: serialize function + args, start an interpreter,
    /// import libraries, run (Stacks 1–3).
    StandardTasks,
    /// Serverless FunctionCalls against a persistent LibraryTask (Stack 4).
    FunctionCalls {
        /// Hoist imports into the library preamble so they are paid once
        /// per LibraryTask instead of once per invocation (§IV-B).
        hoist_imports: bool,
    },
}

/// Where a task's Python environment (imports) is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImportSource {
    /// TaskVine-managed copy on the worker's local disk.
    WorkerLocal,
    /// The cluster shared filesystem (the Fig 10 comparison case).
    SharedFilesystem,
}

/// Aggregate WAN bandwidth into the site under
/// [`DataSource::RemoteXrootd`], bytes/second (5 Gbit).
pub const XROOTD_WAN_BW: f64 = 6.25e8;
/// Per-stream rate achievable over the WAN at CERN-to-campus round-trip
/// times, bytes/second.
pub const XROOTD_PER_STREAM_BW: f64 = 30e6;

/// Where external input data (the ROOT files) is served from (§III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataSource {
    /// Staged on the facility's shared filesystem (HDFS/VAST) — the
    /// paper's production setup.
    SharedFilesystem,
    /// Fetched on demand from the wide-area XRootD federation over a
    /// shared path of [`XROOTD_WAN_BW`] at [`XROOTD_PER_STREAM_BW`] per
    /// stream. The paper deems this "impractical" for repeated runs
    /// (§IV-A); the `ablation_datasource` experiment quantifies why.
    RemoteXrootd,
}

/// Task-placement strategy (the "Retaining Data" half of §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Schedule tasks where their input data already lives (TaskVine).
    DataAware,
    /// Data-oblivious round-robin (the ablation baseline).
    RoundRobin,
}

/// What the pre-flight lint gate in [`crate::RunRequest::run`] does with
/// `vine-lint` findings before any event is simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preflight {
    /// Skip pre-flight analysis entirely. For tests and experiments that
    /// deliberately run infeasible configurations (e.g. reproducing the
    /// Fig 11 worker-failure curves the lint exists to predict).
    Off,
    /// Lint before running: errors abort the run with
    /// `RunOutcome::Failed`, warnings are traced into
    /// `RunResult::lint_findings`. The default.
    Enforce,
    /// Like `Enforce`, but warnings are fatal too (the CLI's
    /// `--lint-deny=warn`).
    DenyWarnings,
}

/// Everything the engine needs to execute one run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Scheduler generation.
    pub scheduler: SchedulerKind,
    /// Task execution paradigm.
    pub exec_mode: ExecMode,
    /// Shared filesystem serving the cluster.
    pub shared_fs: SharedFs,
    /// Peer (worker↔worker) transfers enabled (TaskVine only).
    pub peer_transfers: bool,
    /// Where task environments are imported from.
    pub import_source: ImportSource,
    /// Cluster allocation.
    pub cluster: ClusterSpec,
    /// Worker arrival/replacement model.
    pub batch: BatchSystem,
    /// Useful-compute duration of a nominal (work = 1.0) task; the
    /// presets use [`BASE_COMPUTE`]. The fixed overheads around it are
    /// the constants of [`crate::cost`].
    pub base_compute: Dist,
    /// Maximum concurrent outgoing peer transfers per worker (§IV-B:
    /// "the manager manages the number of concurrent peer transfers").
    pub max_peer_transfers_per_worker: usize,
    /// Target number of replicas for intermediate files (§IV: the manager
    /// "compensates by replicating data"). 1 disables replication; 2 means
    /// every task output is asynchronously copied to a second worker,
    /// making sole-copy loss — and its lineage re-run cascades — rare.
    pub replica_target: u32,
    /// Task placement strategy (TaskVine uses `DataAware`).
    pub placement: Placement,
    /// Where external inputs are read from.
    pub data_source: DataSource,
    /// Master RNG seed.
    pub seed: u64,
    /// Per-task phase attribution and run digest (`RunResult::obs`).
    /// Off in the presets: the attribution map costs memory per in-flight
    /// task and the digest is only needed for analysis runs. Figure
    /// series are not here: a figure attaches a `vine_obs::FigureRecorder`
    /// through `RunRequest::recorder`.
    pub obs: bool,
    /// Pre-flight lint policy (see [`Preflight`]).
    pub preflight: Preflight,
    /// Every fault of the run, in-run worker loss included. The stack
    /// presets carry the campus pool's opportunistic preemption (§IV),
    /// seeded with the run seed.
    pub chaos: FaultPlan,
    /// What the engine does about failures (see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
}

impl EngineConfig {
    /// Stack 1 — the original system: Work Queue over HDFS.
    pub fn stack1(cluster: ClusterSpec, seed: u64) -> Self {
        EngineConfig {
            scheduler: SchedulerKind::WorkQueue,
            exec_mode: ExecMode::StandardTasks,
            shared_fs: SharedFs::hdfs(),
            peer_transfers: false,
            import_source: ImportSource::SharedFilesystem,
            cluster,
            batch: BatchSystem::htcondor_opportunistic(),
            base_compute: BASE_COMPUTE,
            max_peer_transfers_per_worker: 3,
            replica_target: 1,
            placement: Placement::DataAware,
            data_source: DataSource::SharedFilesystem,
            seed,
            obs: false,
            preflight: Preflight::Enforce,
            chaos: FaultPlan::none()
                .with(Fault::Preemption {
                    rate_per_sec: CAMPUS,
                })
                .with_seed(seed),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Stack 2 — storage upgrade: Work Queue over VAST.
    pub fn stack2(cluster: ClusterSpec, seed: u64) -> Self {
        EngineConfig {
            shared_fs: SharedFs::vast(),
            ..Self::stack1(cluster, seed)
        }
    }

    /// Stack 3 — scheduler upgrade: TaskVine (peer transfers, node-local
    /// caches, replication against preemption), still conventional tasks.
    pub fn stack3(cluster: ClusterSpec, seed: u64) -> Self {
        EngineConfig {
            scheduler: SchedulerKind::TaskVine,
            peer_transfers: true,
            replica_target: 2,
            ..Self::stack2(cluster, seed)
        }
    }

    /// Stack 4 — execution upgrade: serverless FunctionCalls with hoisted
    /// imports from worker-local storage.
    pub fn stack4(cluster: ClusterSpec, seed: u64) -> Self {
        EngineConfig {
            exec_mode: ExecMode::FunctionCalls {
                hoist_imports: true,
            },
            import_source: ImportSource::WorkerLocal,
            ..Self::stack3(cluster, seed)
        }
    }

    /// The Fig 14a comparison scheduler: Dask.Distributed.
    pub fn dask_distributed(cluster: ClusterSpec, seed: u64) -> Self {
        EngineConfig {
            scheduler: SchedulerKind::DaskDistributed,
            // Dask workers are persistent Python processes: no per-task
            // interpreter start, but environments load per (single-core)
            // worker and intermediates live in worker memory.
            exec_mode: ExecMode::FunctionCalls {
                hoist_imports: true,
            },
            import_source: ImportSource::SharedFilesystem,
            peer_transfers: true,
            ..Self::stack2(cluster, seed)
        }
    }

    /// The Table I stack by number (1–4).
    ///
    /// # Panics
    /// If `n` is not in `1..=4`.
    pub fn stack(n: usize, cluster: ClusterSpec, seed: u64) -> Self {
        match n {
            1 => Self::stack1(cluster, seed),
            2 => Self::stack2(cluster, seed),
            3 => Self::stack3(cluster, seed),
            4 => Self::stack4(cluster, seed),
            _ => panic!("stack number must be 1..=4, got {n}"),
        }
    }

    /// Disable all stochastic elements (instant worker start, no
    /// preemption, no injected faults) — for deterministic unit tests.
    pub fn deterministic(mut self) -> Self {
        self.batch = BatchSystem::instantaneous();
        self.chaos = FaultPlan::none();
        self
    }

    /// Builder: replace the whole fault plan, the stack's campus
    /// preemption included: a plan names every fault of the run. Leaves
    /// `recovery` untouched (a heavy plan typically wants a hardened
    /// policy too).
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Builder: replace the recovery policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Enable per-task phase attribution and the run digest.
    pub fn with_obs(mut self) -> Self {
        self.obs = true;
        self
    }

    /// The engine's worker count. Under Dask.Distributed each physical
    /// worker runs share-nothing as one single-core worker per core, so
    /// the count is `workers × cores`. Sizes per-worker figure sinks.
    pub fn worker_slots(&self) -> usize {
        if self.scheduler == SchedulerKind::DaskDistributed {
            self.cluster.workers * self.cluster.worker.cores as usize
        } else {
            self.cluster.workers
        }
    }

    /// Snapshot the knobs `vine-lint` reads. Mirrors the engine's worker
    /// geometry exactly: under Dask.Distributed each physical worker is
    /// split share-nothing into `cores` single-core workers whose cache
    /// capacity is its memory share (see `Sim::new`), so the resource
    /// lints bound the same caches the simulation will run against.
    pub fn lint_facts(&self) -> vine_lint::EngineFacts {
        let per = self.cluster.worker;
        let (cores, disk) = if self.scheduler == SchedulerKind::DaskDistributed {
            (1, per.mem_bytes / per.cores as u64)
        } else {
            (per.cores, per.disk_bytes)
        };
        vine_lint::EngineFacts {
            scheduler: match self.scheduler {
                SchedulerKind::WorkQueue => vine_lint::SchedulerFamily::WorkQueue,
                SchedulerKind::TaskVine => vine_lint::SchedulerFamily::TaskVine,
                SchedulerKind::DaskDistributed => vine_lint::SchedulerFamily::DaskDistributed,
            },
            serverless: matches!(self.exec_mode, ExecMode::FunctionCalls { .. }),
            import_worker_local: self.import_source == ImportSource::WorkerLocal,
            remote_inputs: self.data_source == DataSource::RemoteXrootd,
            peer_transfers: self.peer_transfers,
            max_peer_transfers_per_worker: self.max_peer_transfers_per_worker,
            replica_target: self.replica_target,
            preemption_rate_per_sec: self.chaos.preemption_rate().unwrap_or(0.0),
            // Worker loss does not draw on the retry budget (see
            // `RecoveryPolicy`), so a preemption-only plan is no chaos to
            // R005.
            chaos_enabled: self
                .chaos
                .faults
                .iter()
                .any(|f| !matches!(f, Fault::Preemption { .. })),
            retry_budget: self.recovery.retry_budget,
            timeout_factor: self.recovery.timeout_factor,
            speculation: self.recovery.speculation,
            dask_unstable_above_bytes: Some(DASK_UNSTABLE_ABOVE_BYTES),
            workers: self.worker_slots(),
            cores_per_worker: cores,
            disk_per_worker: disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::standard(4)
    }

    #[test]
    fn stack_presets_differ_in_the_right_knobs() {
        let s1 = EngineConfig::stack1(cluster(), 1);
        let s2 = EngineConfig::stack2(cluster(), 1);
        let s3 = EngineConfig::stack3(cluster(), 1);
        let s4 = EngineConfig::stack4(cluster(), 1);

        assert_eq!(s1.scheduler, SchedulerKind::WorkQueue);
        assert_eq!(s1.shared_fs.name, "hdfs");
        assert_eq!(s2.scheduler, SchedulerKind::WorkQueue);
        assert_eq!(s2.shared_fs.name, "vast");
        assert_eq!(s3.scheduler, SchedulerKind::TaskVine);
        assert!(s3.peer_transfers);
        assert_eq!(s3.exec_mode, ExecMode::StandardTasks);
        assert_eq!(
            s4.exec_mode,
            ExecMode::FunctionCalls {
                hoist_imports: true
            }
        );
        assert_eq!(s4.import_source, ImportSource::WorkerLocal);
    }

    #[test]
    fn stack_by_number_matches_presets() {
        let a = EngineConfig::stack(3, cluster(), 7);
        let b = EngineConfig::stack3(cluster(), 7);
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.shared_fs.name, b.shared_fs.name);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn stack_five_panics() {
        EngineConfig::stack(5, cluster(), 1);
    }

    #[test]
    fn deterministic_strips_randomness() {
        let s = EngineConfig::stack4(cluster(), 1);
        assert_eq!(s.chaos.preemption_rate(), Some(CAMPUS));
        assert_eq!(s.chaos.chaos_seed, 1);
        let c = s.deterministic();
        assert!(c.chaos.is_empty());
    }

    #[test]
    fn r005_counts_only_budget_consuming_faults() {
        // A zero retry budget is harmless against worker loss, which
        // never charges it, so neither the stack's campus preemption nor
        // a preemption-only plan warns; a task-failure plan does.
        let r005 = |plan: Option<FaultPlan>| {
            let mut cfg =
                EngineConfig::stack4(cluster(), 1).with_recovery(RecoveryPolicy::fragile());
            if let Some(plan) = plan {
                cfg = cfg.with_chaos(plan);
            }
            assert_eq!(cfg.recovery.retry_budget, 0);
            vine_lint::recovery::lint(&cfg.lint_facts()).has_code(vine_lint::Code::R005)
        };
        assert!(!r005(None));
        assert!(!r005(Some(FaultPlan::parse("preempt:rate=0.01").unwrap())));
        assert!(r005(Some(FaultPlan::parse("taskfail:prob=0.1").unwrap())));
    }

    #[test]
    fn dask_preset_is_marked_unstable_at_scale() {
        let c = EngineConfig::dask_distributed(cluster(), 1);
        assert_eq!(c.scheduler, SchedulerKind::DaskDistributed);
        assert_eq!(
            c.lint_facts().dask_unstable_above_bytes,
            Some(DASK_UNSTABLE_ABOVE_BYTES)
        );
    }
}
