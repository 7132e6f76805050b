//! The discrete-event execution engine.
//!
//! One [`RunRequest`] run executes a [`TaskGraph`] on a simulated cluster
//! under a scheduler policy. The moving parts:
//!
//! * the **manager** is a serial control loop (per-dispatch / per-collect
//!   costs from [`crate::cost`]) plus an access link on the
//!   fabric — under Work Queue every byte of task input and output crosses
//!   that link; under TaskVine only control traffic does;
//! * **workers** own cores and a [`LocalCache`]; TaskVine retains every
//!   file a worker stages or produces (keyed by cachename) and the manager
//!   maps file → replica locations for data-aware placement;
//! * **transfers** are flows on the max–min fair fabric ([`Fabric`]):
//!   shared-FS reads, manager staging, and (TaskVine) throttled
//!   asynchronous peer transfers;
//! * **failures**: the fault plan's opportunistic preemption kills
//!   workers mid-run (§IV) — running tasks fail back to ready,
//!   sole-replica files are lost and regenerated by lineage recovery;
//!   cache overflow (Fig 11) likewise kills the worker;
//! * **serverless mode** instantiates a LibraryTask per worker before any
//!   FunctionCall runs, with imports hoisted into the library or paid per
//!   invocation (§IV-B).

use std::collections::VecDeque;

use rand::Rng;
use vine_chaos::{ExitClass, Fault};
use vine_dag::{FileId, TaskGraph, TaskId, TaskKind, TaskState};
use vine_net::{Fabric, FlowId, NodeId};
use vine_obs::bridge::CACHE_OVERFLOW;
use vine_obs::span::{category, counter, worker_track, Attr, InstantEvent, Span, MANAGER_TRACK};
use vine_obs::{
    CriticalPath, NullRecorder, Phase, PhaseBreakdown, Recorder, RunDigest, RunObs, TaskAttribution,
};
use vine_simcore::{EventId, EventQueue, RngHub, SimDur, SimTime};
use vine_storage::{CacheEntryKind, CacheName, LocalCache};

use crate::arena::{IdMap, SmallMap};
use crate::config::{
    DataSource, EngineConfig, ExecMode, Placement, Preflight, SchedulerKind,
    DASK_UNSTABLE_ABOVE_BYTES, XROOTD_PER_STREAM_BW, XROOTD_WAN_BW,
};
use crate::cost;
use crate::observer::{ObserverControl, PartialUpdate, RunObserver};
use crate::placement::{
    data_aware_pick, worker_load, LoadIndex, PeerWait, PeerWaits, RoundRobin, Wake,
};
use crate::request::RunRequest;
use crate::result::{PlacementWork, RunOutcome, RunResult, RunStats};

mod placement_exec;
mod recovery_exec;
mod scheduler;
#[cfg(test)]
mod tests;

/// Abort the run if workers crash this many times (crash-loop guard).
const CRASH_LOOP_LIMIT: u64 = 500;
/// Hard wall on simulated time, to catch wedged configurations.
const MAX_SIM_SECS: u64 = 3_000_000;
/// Hard wall on processed events, to catch livelocked configurations.
const MAX_EVENTS: u64 = 500_000_000;

/// Execute one [`RunRequest`]: the engine's single entry point.
pub(crate) fn run_request(req: RunRequest<'_>) -> RunResult {
    let RunRequest {
        cfg,
        graph,
        cachenames,
        mut caches,
        recorder,
        observer,
    } = req;
    let mut null = NullRecorder;
    let rec: &mut dyn Recorder = match recorder {
        Some(r) => r,
        None => &mut null,
    };
    {
        // Pre-flight gate: statically lint the (graph, config) pair and
        // refuse to simulate plans the lints prove infeasible (Fig 11's
        // single-node reduction never reaches the event loop). Findings —
        // fatal or not — travel with the result.
        let lint_findings = match cfg.preflight {
            Preflight::Off => Vec::new(),
            Preflight::Enforce | Preflight::DenyWarnings => {
                let report = vine_lint::lint_all(&graph, &cfg.lint_facts());
                let deny_warn = cfg.preflight == Preflight::DenyWarnings;
                let fatal = report
                    .diagnostics()
                    .iter()
                    .find(|d| {
                        d.severity == vine_lint::Severity::Error
                            || (deny_warn && d.severity == vine_lint::Severity::Warn)
                    })
                    .cloned();
                if let Some(d) = fatal {
                    let mut r = failed_result(
                        &format!("pre-flight lint: {} {}", d.code, d.message),
                        &graph,
                    );
                    r.lint_findings = report.diagnostics().to_vec();
                    return r;
                }
                report.diagnostics().to_vec()
            }
        };

        // The paper reports Dask.Distributed cannot run the TB-scale
        // workloads at all (§V-B): model that as an explicit failure.
        // (The C005 lint flags the same condition statically; this path
        // also covers `Preflight::Off` runs.)
        if cfg.scheduler == SchedulerKind::DaskDistributed
            && graph.external_bytes() > DASK_UNSTABLE_ABOVE_BYTES
        {
            let mut r = failed_result(
                "Dask.Distributed: worker and application crashes and hangs at this scale",
                &graph,
            );
            r.lint_findings = lint_findings;
            return r;
        }

        if let Some(caches) = &caches {
            let (have, need) = (caches.len(), cfg.worker_slots());
            if have != need {
                let mut r = failed_result(
                    &format!(
                        "cache geometry mismatch: {have} worker caches given, \
                         this run needs {need}"
                    ),
                    &graph,
                );
                r.lint_findings = lint_findings;
                return r;
            }
        }
        let mut sim = Sim::new(
            cfg,
            &graph,
            cachenames,
            caches.as_deref_mut(),
            rec,
            observer,
        );
        sim.bootstrap();
        sim.event_loop();
        if let Some(caches) = caches {
            *caches = sim.take_caches();
        }
        let mut result = sim.into_result();
        result.lint_findings = lint_findings;
        result
    }
}

/// Move the caller's warm `caches` into `workers` and seed `replicas`
/// from their residency. Returns the memoization plan the tracker starts
/// from, or `None` under Work Queue, whose workers start empty.
fn adopt_caches(
    cfg: &EngineConfig,
    graph: &TaskGraph,
    name_to_file: &[(CacheName, FileId)],
    caches: &mut Vec<LocalCache>,
    workers: &mut [Worker],
    replicas: &mut [Vec<usize>],
) -> Option<vine_dag::MemoPlan> {
    let caches = std::mem::take(caches);
    debug_assert_eq!(caches.len(), workers.len());
    let wq = cfg.scheduler == SchedulerKind::WorkQueue;
    for (wk, mut cache) in workers.iter_mut().zip(caches) {
        // Run-lifetime pins from earlier runs are meaningless now.
        cache.clear_pins();
        // Work Queue keeps intermediates at the manager; node-local
        // residue cannot be used and is dropped with the old worker.
        if wq {
            cache.clear();
        }
        wk.cache = cache;
    }
    if wq {
        return None;
    }

    // A cache entry backs produced graph file `f` only when its size
    // matches the graph's hint: same-named files from scaled workload
    // variants must not alias into false warm hits. Mismatched entries
    // are stale and dropped outright, lest a consumer dispatched to that
    // worker mistake them for a valid local input. Each cache is matched
    // in name order against the files sorted by (name, id), so replicas
    // come out in worker order.
    let mut stale: Vec<CacheName> = Vec::new();
    for (w, wk) in workers.iter_mut().enumerate() {
        wk.cache.for_each_held(
            name_to_file,
            |&(name, _)| name,
            |&(name, f), size| {
                let file = graph.file(f);
                // External inputs are re-read, never memoized; and an
                // earlier file of this name found the entry stale.
                if file.producer.is_none() || stale.last() == Some(&name) {
                    return;
                }
                if size == file.size_hint {
                    replicas[f.0 as usize].push(w);
                } else {
                    stale.push(name);
                }
            },
        );
        for name in stale.drain(..) {
            let _ = wk.cache.remove(name);
        }
    }

    Some(if cfg.scheduler == SchedulerKind::TaskVine {
        vine_dag::MemoPlan::compute(graph, |f| !replicas[f.0 as usize].is_empty())
    } else {
        vine_dag::MemoPlan::cold(graph)
    })
}

/// The file `name` resolves to in a [`Sim::name_to_file`] slab. Of files
/// sharing a cachename, the last (highest id) wins.
fn file_named(slab: &[(CacheName, FileId)], name: CacheName) -> Option<FileId> {
    let end = slab.partition_point(|&(n, _)| n <= name);
    match end.checked_sub(1).map(|i| slab[i]) {
        Some((n, f)) if n == name => Some(f),
        _ => None,
    }
}

fn failed_result(reason: &str, graph: &TaskGraph) -> RunResult {
    RunResult {
        outcome: RunOutcome::Failed {
            reason: reason.into(),
        },
        makespan: SimDur::ZERO,
        stats: RunStats {
            tasks_total: graph.task_count(),
            ..RunStats::default()
        },
        lint_findings: Vec::new(),
        obs: None,
        fabric_work: Default::default(),
        placement_work: PlacementWork::default(),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LibState {
    NotNeeded,
    Installing,
    Ready,
}

struct Worker {
    alive: bool,
    cores: u32,
    /// Cores in use. Written only through [`Sim::set_busy`], which keeps
    /// the least-loaded index in step (also with `alive`).
    busy: u32,
    node: NodeId,
    cache: LocalCache,
    lib: LibState,
    /// Active outgoing peer transfers (throttling, §IV-B).
    outgoing: usize,
    /// Incarnation counter (bumps on death) to invalidate stale events.
    epoch: u32,
    /// Files whose replica list named this worker twice at some point (a
    /// task re-run here retains an output it already held). One removal
    /// then leaves the worker listed without the file cached, so
    /// `kill_worker` visits these besides the cached files.
    doubled: Vec<FileId>,
}

/// An engine invariant found broken mid-run. The run stops with a failed
/// [`RunOutcome`] naming it, instead of panicking.
#[derive(Clone, Copy)]
enum Broken {
    /// A flow completed that `flow_why` has no purpose for.
    UnknownFlow(FlowId),
    /// A task's assignment vanished while its inputs were staged, though
    /// every input reported it intact.
    LostAssignment(TaskId),
    /// A current attempt (or the primary of a speculative duplicate) had
    /// no assignment to start or end.
    NoAttempt(TaskId),
}

impl std::fmt::Display for Broken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Broken::UnknownFlow(id) => write!(f, "flow {id:?} completed with no purpose"),
            Broken::LostAssignment(t) => write!(f, "task {} lost its assignment mid-staging", t.0),
            Broken::NoAttempt(t) => write!(f, "task {} has no attempt to end", t.0),
        }
    }
}

/// Where the one `FlowDone` event stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlowEvent {
    /// Not in the queue, and nothing to schedule.
    Idle,
    /// The fabric changed under this reserved id: `settle_flow_event`
    /// reads the next completion and schedules it before the next pop.
    Reserved(EventId),
    /// In the queue under this id.
    Queued(EventId),
}

#[derive(Clone, Debug)]
enum Ev {
    WorkerStart {
        w: usize,
    },
    WorkerPreempt {
        w: usize,
        epoch: u32,
    },
    MgrDone,
    FlowDone,
    TaskCompute {
        task: TaskId,
        w: usize,
        epoch: u32,
        attempt: u32,
    },
    LibReady {
        w: usize,
        epoch: u32,
    },
    /// A chaos-doomed attempt fails partway through its compute.
    TaskFail {
        task: TaskId,
        w: usize,
        epoch: u32,
        attempt: u32,
    },
    /// The recovery policy's timeout fires for a still-running attempt.
    TaskTimeout {
        task: TaskId,
        w: usize,
        epoch: u32,
        attempt: u32,
    },
    /// A backed-off task becomes dispatchable again.
    RetryRelease {
        task: TaskId,
    },
    /// An attempt has outlived its own estimate: consider a duplicate.
    SpecCheck {
        task: TaskId,
        w: usize,
        epoch: u32,
        attempt: u32,
    },
    /// A speculative duplicate finished (first-finisher-wins).
    SpecCompute {
        task: TaskId,
        w: usize,
        epoch: u32,
        attempt: u32,
    },
    /// A straggler/link fault window opens (`ending: false`) or closes.
    ChaosWindow {
        idx: usize,
        ending: bool,
    },
    /// A cache entry on this worker rots (checksum no longer matches).
    Corrupt {
        w: usize,
        epoch: u32,
    },
}

#[derive(Clone, Copy, Debug)]
enum MgrOp {
    Dispatch,
    Collect(TaskId),
}

#[derive(Clone, Copy, Debug)]
enum FlowWhy {
    /// Shared FS → manager (Work Queue input staging).
    StageToManager { file: FileId },
    /// Input arriving at a worker (from FS, manager, or a peer).
    InputArrive {
        file: FileId,
        w: usize,
        peer_src: Option<usize>,
    },
    /// Task outputs streaming back to the manager (Work Queue).
    OutputToManager { task: TaskId, w: usize },
}

#[derive(Clone, Copy, Debug)]
enum Source {
    SharedFs,
    Manager,
    Peer(usize),
}

struct Assignment {
    w: usize,
    missing: usize,
    computing: bool,
    /// Inputs this assignment currently pins in the worker cache.
    pinned: Vec<FileId>,
    /// When the running attempt's full charged wall ends. Busy time is
    /// charged in full at compute start; an early-stop withdrawal
    /// refunds the part after "now" against this.
    busy_until: SimTime,
}

/// A live speculative duplicate of a task's current attempt.
#[derive(Clone, Copy, Debug)]
struct SpecAttempt {
    w: usize,
    epoch: u32,
    attempt: u32,
}

/// One straggler or link-degradation window, compiled from the fault
/// plan with its affected-worker set fixed at startup.
struct ChaosWindowRt {
    /// Link-bandwidth window (vs. compute-slowdown window).
    link: bool,
    /// Compute multiplier (>= 1) or bandwidth factor in [0, 1].
    factor: f64,
    start: SimTime,
    end: SimTime,
    affected: Vec<bool>,
    active: bool,
}

/// Compiled fault-injection state. All randomness draws from a hub
/// seeded by the plan's `chaos_seed`, *separate* from the workload hub,
/// so the same workload seed explores different fault schedules and
/// vice versa — and a run with an empty plan never touches it.
struct ChaosRt {
    hub: RngHub,
    /// Per-worker preemption rate (0 = none).
    preempt_rate: f64,
    task_failure: Option<(f64, ExitClass)>,
    corruption_rate: f64,
    windows: Vec<ChaosWindowRt>,
    /// Per-worker baseline link bandwidth (link windows scale from this).
    base_link_bw: Vec<f64>,
    /// Per-worker draw counter for the bitrot event streams.
    corrupt_seq: Vec<u64>,
}

impl ChaosRt {
    fn compile(plan: &vine_chaos::FaultPlan, n_workers: usize, link_each: f64) -> Self {
        let hub = RngHub::new(plan.chaos_seed);
        let mut windows = Vec::new();
        for (i, fault) in plan.faults.iter().enumerate() {
            let (link, start, duration, factor, fraction) = match *fault {
                Fault::Straggler {
                    start,
                    duration,
                    slow_factor,
                    fraction,
                } => (false, start, duration, slow_factor, fraction),
                Fault::LinkDegrade {
                    start,
                    duration,
                    factor,
                    fraction,
                } => (true, start, duration, factor, fraction),
                _ => continue,
            };
            let family = if link { "link" } else { "straggler" };
            let mut rng = hub.indexed_stream(family, i as u64);
            let affected = (0..n_workers)
                .map(|_| rng.gen::<f64>() < fraction)
                .collect();
            windows.push(ChaosWindowRt {
                link,
                factor,
                start,
                end: start + duration,
                affected,
                active: false,
            });
        }
        ChaosRt {
            preempt_rate: plan.preemption_rate().unwrap_or(0.0),
            task_failure: plan.task_failure(),
            corruption_rate: plan.corruption_rate(),
            windows,
            base_link_bw: vec![link_each; n_workers],
            corrupt_seq: vec![0; n_workers],
            hub,
        }
    }

    /// Product of active compute-slowdown factors affecting worker `w`.
    fn slow_factor(&self, w: usize) -> f64 {
        self.windows
            .iter()
            .filter(|win| !win.link && win.active && win.affected[w])
            .map(|win| win.factor)
            .product()
    }

    /// Product of active link factors affecting worker `w`.
    fn link_factor(&self, w: usize) -> f64 {
        self.windows
            .iter()
            .filter(|win| win.link && win.active && win.affected[w])
            .map(|win| win.factor)
            .product()
    }
}

/// Attribution bookkeeping, allocated only when `EngineConfig::obs` is on.
struct ObsState {
    /// When each task was last bound to a worker (dispatch time). Stale
    /// after a failure, but always rewritten before the next execution
    /// reads it.
    assigned_at: Vec<SimTime>,
    /// In-flight executions: phases fixed at compute start, finalized at
    /// compute completion (TaskVine/Dask) or output arrival at the
    /// manager (Work Queue). Dropped if the worker dies first.
    pending: IdMap<PendingAttr>,
    /// Completed executions, in completion order.
    done: Vec<TaskAttribution>,
}

struct PendingAttr {
    worker: u32,
    start_us: u64,
    phases: PhaseBreakdown,
}

/// Streaming bookkeeping, allocated only when an observer is attached.
/// Nothing here feeds back into scheduling unless the observer stops the
/// run, so a no-observer run is byte-identical to the pre-streaming
/// engine.
struct StreamRt {
    /// Partitions ([`TaskKind::Process`] tasks) in the graph.
    partitions_total: u64,
    /// Partitions completed (memoized ones count as done up front).
    partitions_done: u64,
    /// Events the full run would process (sum of per-partition weights).
    events_total: u64,
    /// Events represented by completed partitions.
    events_done: u64,
    /// Running fold of every delta pushed so far — the engine's own copy
    /// of the live estimate, digested into `RunObs` at the end.
    acc: vine_data::HistogramSet,
    /// Set once the observer requested early stop.
    stopped: bool,
}

/// The statistical weight (synthetic event count) of one partition:
/// proportional to the bytes it reads, at the DV3 benchmark's rough
/// density of one kilobyte per event.
fn partition_events(graph: &TaskGraph, task: TaskId) -> u64 {
    let bytes: u64 = graph
        .task(task)
        .inputs
        .iter()
        .map(|&f| graph.file(f).size_hint)
        .sum();
    (bytes / 1_000).max(1)
}

struct Sim<'g, 'r, 'o> {
    cfg: EngineConfig,
    graph: &'g TaskGraph,
    tracker: vine_dag::ReadyTracker<'g>,
    fabric: Fabric,
    queue: EventQueue<Ev>,
    now: SimTime,
    workers: Vec<Worker>,
    fs_node: NodeId,
    /// Wide-area XRootD endpoint, when inputs are fetched remotely.
    remote_node: Option<NodeId>,
    /// Where external inputs come from: the shared FS or the remote
    /// endpoint, its per-stream cap, and its access latency as
    /// equivalent bytes at that cap.
    external: (NodeId, f64, u64),
    mgr_node: NodeId,
    mgr_busy: bool,
    mgr_queue: VecDeque<MgrOp>,
    rr: RoundRobin,
    /// Workers by load, for least-loaded picks.
    loads: LoadIndex,
    assignments: IdMap<Assignment>,
    /// Precomputed per-task compute durations (same across schedulers).
    durations: Vec<SimDur>,
    /// Precomputed per-task input/output byte totals (hot in cost model).
    in_bytes: Vec<u64>,
    out_bytes: Vec<u64>,
    /// Interned cachenames, indexed by `FileId` — resolved once at plan
    /// build so the hot path never re-derives producer lineage.
    cnames: Vec<CacheName>,
    /// Which workers hold each file.
    replicas: Vec<Vec<usize>>,
    /// Files resident at the manager (WQ staging / intermediates).
    at_manager: Vec<bool>,
    /// In-flight arrivals, per worker: tasks waiting for a file. An
    /// entry exists iff a flow toward that worker is active.
    inflight: Vec<SmallMap<FileId, Vec<TaskId>>>,
    /// Tasks waiting for an external file to finish staging to the manager.
    awaiting_manager: IdMap<Vec<(usize, TaskId)>>,
    /// External files currently staging to the manager.
    staging: Vec<bool>,
    staging_count: usize,
    /// External files queued behind the staging concurrency limit.
    staging_waitq: VecDeque<FileId>,
    /// Peer transfers waiting for a source slot.
    peer_waits: PeerWaits,
    /// Why each live flow exists, sorted by id (`FlowId`s are monotone,
    /// so insertion is an append and removal a binary search).
    flow_why: Vec<(FlowId, FlowWhy)>,
    flow_event: FlowEvent,
    /// Scratch for data-aware placement (reset after every use).
    loc_bytes: Vec<u64>,
    loc_seen: Vec<bool>,
    loc_touched: Vec<usize>,
    /// Consumers not yet completed, per file (drives retention pinning).
    remaining_consumers: Vec<u32>,
    completed_once: Vec<bool>,
    /// Every file as `(cachename, id)`, sorted: the cachename → file
    /// index ([`file_named`]) and adoption's name-ordered match list.
    name_to_file: Vec<(CacheName, FileId)>,
    rng_hub: RngHub,
    chaos: ChaosRt,
    /// Per-task compute-attempt counter; tags compute/fail/timeout/spec
    /// events so a re-dispatch invalidates the previous attempt's events
    /// even on the same worker and epoch.
    attempts: Vec<u32>,
    /// Per-task count of task-level failures (draws on the retry budget).
    fail_counts: Vec<u32>,
    /// Tasks sitting out a retry backoff; skipped by dispatch.
    held: Vec<bool>,
    /// Live speculative duplicates, keyed by task. Invariant: an entry
    /// exists only while the task's primary assignment is computing.
    spec: IdMap<SpecAttempt>,
    /// Failures observed per worker slot (survives re-incarnation).
    worker_fail_counts: Vec<u32>,
    /// Workers the recovery policy no longer schedules onto.
    blocklisted: Vec<bool>,
    /// Per-kind p99 of the sampled compute durations (timeout baseline).
    kind_p99: [SimDur; 3],
    /// The first broken engine invariant: the run stops failed.
    aborted: Option<String>,
    // Observability: the one sink for emitted events. Figures attach a
    // `FigureRecorder` here like any other recorder.
    rec: &'r mut dyn Recorder,
    running_count: i64,
    last_waiting: i64,
    obs: Option<ObsState>,
    /// Streaming observer and its bookkeeping; `None` when no observer
    /// is attached (the common, byte-identical-to-pre-streaming case).
    observer: Option<&'o mut dyn RunObserver>,
    stream: Option<StreamRt>,
    stats: RunStats,
    crash_count: u64,
    finished_at: Option<SimTime>,
    /// Set when the run hit the event budget (livelock guard).
    livelocked: bool,
}

impl<'g, 'r, 'o> Sim<'g, 'r, 'o> {
    /// `cnames` is the graph's [`graph_cachenames`] slab when the caller
    /// already derived it, else `None`. With warm `caches` of matching
    /// geometry, the workers adopt them (see [`adopt_caches`]).
    fn new(
        cfg: EngineConfig,
        graph: &'g TaskGraph,
        cnames: Option<Vec<CacheName>>,
        caches: Option<&mut Vec<LocalCache>>,
        rec: &'r mut dyn Recorder,
        observer: Option<&'o mut dyn RunObserver>,
    ) -> Self {
        let hub = RngHub::new(cfg.seed);
        // Dask.Distributed must run share-nothing single-core workers
        // (12 threads in one worker collapse onto the GIL, §V-B), with
        // intermediates resident in each worker's memory share.
        let per = cfg.cluster.worker;
        let n_workers = cfg.worker_slots();
        let dask = cfg.scheduler == SchedulerKind::DaskDistributed;
        let (cores_each, disk_each, link_each) = if dask {
            (
                1u32,
                per.mem_bytes / per.cores as u64,
                per.link_bw / per.cores as f64,
            )
        } else {
            (per.cores, per.disk_bytes, per.link_bw)
        };

        let mut fabric = Fabric::new();
        let mgr_node = fabric.add_symmetric_node(cfg.cluster.manager_link_bw);
        let mut workers: Vec<Worker> = (0..n_workers)
            .map(|_| Worker {
                alive: false,
                cores: cores_each,
                busy: 0,
                node: fabric.add_symmetric_node(link_each),
                cache: LocalCache::new(disk_each),
                lib: LibState::NotNeeded,
                outgoing: 0,
                epoch: 0,
                doubled: Vec::new(),
            })
            .collect();
        let fs_node = fabric.add_node(cfg.shared_fs.aggregate_bw, cfg.shared_fs.aggregate_bw);
        let (remote_node, external) = match cfg.data_source {
            DataSource::RemoteXrootd => {
                let node = fabric.add_node(XROOTD_WAN_BW, XROOTD_WAN_BW);
                // XRootD redirector round trips over the WAN: ~200 ms.
                let latency_bytes = (0.2 * XROOTD_PER_STREAM_BW) as u64;
                (Some(node), (node, XROOTD_PER_STREAM_BW, latency_bytes))
            }
            DataSource::SharedFilesystem => {
                let fs = &cfg.shared_fs;
                let latency_bytes = (fs.open_latency_s * fs.per_stream_bw) as u64;
                (None, (fs_node, fs.per_stream_bw, latency_bytes))
            }
        };

        let mut durations = Vec::with_capacity(graph.task_count());
        {
            let mut rng = hub.stream("task-durations");
            for t in graph.tasks() {
                durations.push(cost::sample_compute(&cfg.base_compute, t.work, &mut rng));
            }
        }
        let chaos = ChaosRt::compile(&cfg.chaos, n_workers, link_each);
        let kind_p99 = {
            let mut by_kind: [Vec<SimDur>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            for (i, t) in graph.tasks().iter().enumerate() {
                by_kind[kind_index(t.kind)].push(durations[i]);
            }
            by_kind.map(|mut v| {
                if v.is_empty() {
                    return SimDur::ZERO;
                }
                v.sort_unstable();
                v[((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1]
            })
        };

        let remaining_consumers: Vec<u32> = graph
            .files()
            .iter()
            .map(|f| f.consumers.len() as u32)
            .collect();
        // Intern every cachename once; the hot path indexes this slab
        // instead of re-deriving producer lineage per event.
        let cnames = match cnames {
            Some(given) => {
                debug_assert!(
                    given == graph_cachenames(graph),
                    "the request's cachenames are not this graph's"
                );
                given
            }
            None => graph_cachenames(graph),
        };
        let mut name_to_file: Vec<(CacheName, FileId)> = graph
            .files()
            .iter()
            .map(|f| (cnames[f.id.0 as usize], f.id))
            .collect();
        name_to_file.sort_unstable();
        let in_bytes: Vec<u64> = graph
            .tasks()
            .iter()
            .map(|t| t.inputs.iter().map(|&f| graph.file(f).size_hint).sum())
            .collect();
        let out_bytes: Vec<u64> = graph
            .tasks()
            .iter()
            .map(|t| t.outputs.iter().map(|&f| graph.file(f).size_hint).sum())
            .collect();

        // Stream totals are only tallied when an observer is attached:
        // the common path allocates and computes nothing extra.
        let stream = observer.is_some().then(|| {
            let mut partitions_total = 0u64;
            let mut events_total = 0u64;
            for (i, t) in graph.tasks().iter().enumerate() {
                if t.kind == TaskKind::Process {
                    partitions_total += 1;
                    events_total += partition_events(graph, TaskId(i as u32));
                }
            }
            StreamRt {
                partitions_total,
                partitions_done: 0,
                events_total,
                events_done: 0,
                acc: vine_data::HistogramSet::new(),
                stopped: false,
            }
        });

        let n_files = graph.file_count();
        let mut replicas = vec![Vec::new(); n_files];
        let plan = caches.and_then(|caches| {
            adopt_caches(
                &cfg,
                graph,
                &name_to_file,
                caches,
                &mut workers,
                &mut replicas,
            )
        });
        let tracker = match &plan {
            Some(plan) => vine_dag::ReadyTracker::with_warm_state(
                graph,
                plan.resident_mask(),
                plan.skip_mask(),
            ),
            None => vine_dag::ReadyTracker::new(graph),
        };
        let mut sim = Sim {
            tracker,
            fabric,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            fs_node,
            remote_node,
            external,
            mgr_node,
            mgr_busy: false,
            mgr_queue: VecDeque::new(),
            rr: RoundRobin::new(),
            loads: LoadIndex::new(n_workers),
            assignments: IdMap::new(graph.task_count()),
            durations,
            in_bytes,
            out_bytes,
            cnames,
            replicas,
            at_manager: vec![false; n_files],
            inflight: vec![SmallMap::default(); n_workers],
            awaiting_manager: IdMap::new(n_files),
            staging: vec![false; n_files],
            staging_count: 0,
            staging_waitq: VecDeque::new(),
            peer_waits: PeerWaits::new(),
            flow_why: Vec::new(),
            flow_event: FlowEvent::Idle,
            loc_bytes: vec![0; n_workers],
            loc_seen: vec![false; n_workers],
            loc_touched: Vec::new(),
            remaining_consumers,
            completed_once: vec![false; graph.task_count()],
            name_to_file,
            rng_hub: hub,
            chaos,
            attempts: vec![0; graph.task_count()],
            fail_counts: vec![0; graph.task_count()],
            held: vec![false; graph.task_count()],
            spec: IdMap::new(graph.task_count()),
            worker_fail_counts: vec![0; n_workers],
            blocklisted: vec![false; n_workers],
            kind_p99,
            aborted: None,
            rec,
            running_count: 0,
            last_waiting: -1,
            obs: cfg.obs.then(|| ObsState {
                assigned_at: vec![SimTime::ZERO; graph.task_count()],
                pending: IdMap::new(graph.task_count()),
                done: Vec::new(),
            }),
            observer,
            stream,
            stats: RunStats {
                tasks_total: graph.task_count(),
                ..RunStats::default()
            },
            crash_count: 0,
            finished_at: None,
            livelocked: false,
            workers,
            cfg,
            graph,
        };
        if let Some(plan) = plan {
            sim.apply_memo_plan(&plan);
        }
        sim
    }

    fn serverless(&self) -> bool {
        matches!(self.cfg.exec_mode, ExecMode::FunctionCalls { .. })
    }

    /// Set worker `w`'s busy-core count and re-index it: at its load
    /// while alive, out of the index while dead.
    fn set_busy(&mut self, w: usize, busy: u32) {
        let wk = &mut self.workers[w];
        wk.busy = busy;
        self.loads
            .set(w, wk.alive.then(|| worker_load(busy, wk.cores)));
    }

    /// Start from the warm caches' memoization plan: memoized tasks
    /// count as collected, and resident files still owed to consumers
    /// take their retention pins.
    fn apply_memo_plan(&mut self, plan: &vine_dag::MemoPlan) {
        // Memoized tasks behave as if they had already been collected:
        // they never re-collect, and their inputs owe them no retention.
        // A streaming run counts memoized partitions as done up front —
        // their results are already served from the warm store, so they
        // contribute fraction, not deltas.
        for ti in 0..self.graph.task_count() {
            if !plan.skips(TaskId(ti as u32)) {
                continue;
            }
            self.completed_once[ti] = true;
            if let Some(st) = &mut self.stream {
                if self.graph.tasks()[ti].kind == TaskKind::Process {
                    st.partitions_done += 1;
                    st.events_done += partition_events(self.graph, TaskId(ti as u32));
                }
            }
            for &g in &self.graph.tasks()[ti].inputs {
                let rc = &mut self.remaining_consumers[g.0 as usize];
                *rc = rc.saturating_sub(1);
            }
        }
        // Resident files still awaiting consumers get the retention pin
        // their producer would have taken had it run here.
        for fi in 0..self.graph.file_count() {
            if self.remaining_consumers[fi] == 0 || self.replicas[fi].is_empty() {
                continue;
            }
            let name = self.cnames[fi];
            for &w in &self.replicas[fi] {
                let _ = self.workers[w].cache.pin(name);
            }
        }
        self.stats.memoized_tasks = plan.skipped_tasks as u64;
        self.stats.warm_hit_bytes = plan.warm_bytes;
    }

    /// Hand the (pin-free) caches back to the caller after a run.
    fn take_caches(&mut self) -> Vec<LocalCache> {
        self.workers
            .iter_mut()
            .map(|wk| {
                let mut cache = std::mem::replace(&mut wk.cache, LocalCache::new(0));
                cache.clear_pins();
                cache
            })
            .collect()
    }

    fn bootstrap(&mut self) {
        let mut rng = self.rng_hub.stream("batch");
        let starts = self.cfg.batch.sample_starts(self.workers.len(), &mut rng);
        for (w, d) in starts.into_iter().enumerate() {
            self.queue
                .schedule(SimTime::ZERO + d, Ev::WorkerStart { w });
        }
        for (idx, win) in self.chaos.windows.iter().enumerate() {
            self.queue
                .schedule(win.start, Ev::ChaosWindow { idx, ending: false });
            self.queue
                .schedule(win.end, Ev::ChaosWindow { idx, ending: true });
        }
        self.record_waiting();
    }

    fn event_loop(&mut self) {
        let deadline = SimTime::from_secs(MAX_SIM_SECS);
        loop {
            self.settle_flow_event();
            let Some((t, ev)) = self.queue.pop() else {
                return;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.stats.events_processed += 1;
            if self.now > deadline
                || self.crash_count > CRASH_LOOP_LIMIT
                || self.stats.events_processed > MAX_EVENTS
            {
                self.livelocked = self.stats.events_processed > MAX_EVENTS;
                return;
            }
            match ev {
                Ev::WorkerStart { w } => self.on_worker_start(w),
                Ev::WorkerPreempt { w, epoch } => {
                    if self.workers[w].alive && self.workers[w].epoch == epoch {
                        self.stats.preemptions += 1;
                        self.kill_worker(w);
                    }
                }
                Ev::MgrDone => self.on_mgr_done(),
                Ev::FlowDone => self.on_flow_done(),
                Ev::TaskCompute {
                    task,
                    w,
                    epoch,
                    attempt,
                } => {
                    // Sanitizer: an event carrying the *current* epoch of a
                    // dead worker would mean kill_worker failed to bump the
                    // incarnation counter before new events were scheduled.
                    debug_assert!(
                        self.workers[w].epoch != epoch || self.workers[w].alive,
                        "sanitizer: current-epoch event for dead worker {w}"
                    );
                    if self.workers[w].alive
                        && self.workers[w].epoch == epoch
                        && self.attempts[task.0 as usize] == attempt
                    {
                        self.on_task_compute_done(task, w);
                    }
                }
                Ev::LibReady { w, epoch } => {
                    if self.workers[w].alive && self.workers[w].epoch == epoch {
                        self.workers[w].lib = LibState::Ready;
                        self.try_start_assigned(w);
                        self.mgr_kick();
                    }
                }
                Ev::TaskFail {
                    task,
                    w,
                    epoch,
                    attempt,
                } => {
                    if self.attempt_current(task, w, epoch, attempt) {
                        self.stats.transient_failures += 1;
                        self.fail_running_attempt(task, w);
                    }
                }
                Ev::TaskTimeout {
                    task,
                    w,
                    epoch,
                    attempt,
                } => {
                    if self.attempt_current(task, w, epoch, attempt) {
                        self.stats.task_timeouts += 1;
                        self.fail_running_attempt(task, w);
                    }
                }
                Ev::RetryRelease { task } => {
                    self.held[task.0 as usize] = false;
                    self.mgr_kick();
                }
                Ev::SpecCheck {
                    task,
                    w,
                    epoch,
                    attempt,
                } => {
                    if self.attempt_current(task, w, epoch, attempt) {
                        self.maybe_launch_speculative(task, w, attempt);
                    }
                }
                Ev::SpecCompute {
                    task,
                    w,
                    epoch,
                    attempt,
                } => self.on_spec_compute_done(task, w, epoch, attempt),
                Ev::ChaosWindow { idx, ending } => self.on_chaos_window(idx, ending),
                Ev::Corrupt { w, epoch } => {
                    if self.workers[w].alive && self.workers[w].epoch == epoch {
                        self.on_corrupt(w);
                    }
                }
            }
            self.record_waiting();
            if self.aborted.is_some() {
                return;
            }
            if self.tracker.is_complete() && self.finished_at.is_none() {
                self.finished_at = Some(self.now);
                return;
            }
        }
    }

    /// Stop the run at the end of the current event, failed with `what`
    /// (the first broken invariant wins).
    fn abort_broken(&mut self, what: Broken) {
        if self.aborted.is_none() {
            self.aborted = Some(format!("engine invariant broken: {what}"));
        }
    }

    // ----- observability ---------------------------------------------------

    /// Record one counter sample at the current time. Counters are plain
    /// numbers: no allocation, so no gate.
    fn emit_counter(&mut self, name: &'static str, track: u32, value: f64) {
        self.rec.counter(name, track, self.now.as_micros(), value);
    }

    /// Manager serial-loop span (dispatch/collect).
    fn manager_span(&mut self, name: &'static str, cost: SimDur, task: Option<TaskId>) {
        if !self.rec.is_enabled() {
            return;
        }
        let t = self.now.as_micros();
        self.rec.span(Span {
            name: name.into(),
            category: category::MANAGER,
            start_us: t,
            end_us: t + cost.as_micros(),
            track: MANAGER_TRACK,
            attrs: task
                .map(|t| Attr::u64("task", t.0 as u64))
                .into_iter()
                .collect(),
        });
    }

    fn running_delta(&mut self, delta: i64) {
        self.running_count += delta;
        self.emit_counter(counter::RUNNING, MANAGER_TRACK, self.running_count as f64);
    }

    fn record_waiting(&mut self) {
        let ready = self.tracker.ready_count() as i64;
        if ready != self.last_waiting {
            self.last_waiting = ready;
            self.emit_counter(counter::WAITING, MANAGER_TRACK, ready as f64);
        }
    }

    fn record_cache(&mut self, w: usize) {
        let used = self.workers[w].cache.used();
        if used > self.stats.peak_cache_bytes {
            self.stats.peak_cache_bytes = used;
        }
        self.emit_counter(counter::CACHE_USED, worker_track(w), used as f64);
    }

    fn into_result(self) -> RunResult {
        let outcome = match (&self.aborted, self.finished_at) {
            (Some(reason), _) => RunOutcome::Failed {
                reason: reason.clone(),
            },
            (None, Some(_)) if self.stats.quarantined_tasks > 0 => RunOutcome::Degraded {
                quarantined_tasks: self.stats.quarantined_tasks,
            },
            (None, Some(_)) => RunOutcome::Completed,
            (None, None) => RunOutcome::Failed {
                reason: if self.livelocked {
                    let (b, r, ru, d) = self.tracker.counts();
                    format!(
                        "event budget exceeded (livelock): t={} blocked={b} ready={r} \
                         running={ru} done={d} assignments={} inflight={} peer_waitq={} \
                         mgr_queue={} flows={} preempt={}",
                        self.now,
                        self.assignments.len(),
                        self.inflight.iter().map(|m| m.len()).sum::<usize>(),
                        self.peer_waits.len(),
                        self.mgr_queue.len(),
                        self.fabric.active_flows(),
                        self.stats.preemptions,
                    )
                } else if self.crash_count > CRASH_LOOP_LIMIT {
                    "worker crash loop (cache/memory overflow)".into()
                } else if self.now >= SimTime::from_secs(MAX_SIM_SECS) {
                    "exceeded simulation time limit".into()
                } else {
                    let (b, r, ru, d) = self.tracker.counts();
                    format!(
                        "no progress possible (deadlock): blocked={b} ready={r} \
                         running={ru} done={d} assignments={} inflight={} \
                         peer_waitq={} mgr_queue={} mgr_busy={} flows={}",
                        self.assignments.len(),
                        self.inflight.iter().map(|m| m.len()).sum::<usize>(),
                        self.peer_waits.len(),
                        self.mgr_queue.len(),
                        self.mgr_busy,
                        self.fabric.active_flows(),
                    )
                },
            },
        };
        let makespan = self.finished_at.unwrap_or(self.now) - SimTime::ZERO;
        let obs = self.obs.map(|o| {
            // Critical-path weights: each task's latest completed wall
            // (retried attempts overwrite earlier ones; tasks that never
            // completed weigh zero).
            let mut walls = vec![0u64; self.graph.task_count()];
            for a in &o.done {
                walls[a.task as usize] = a.wall_us();
            }
            let cp = CriticalPath::compute(self.graph, &walls);
            let label = format!("{:?}-seed{}", self.cfg.scheduler, self.cfg.seed);
            let mut digest =
                RunDigest::from_attributions(label, makespan.as_micros(), Some(&cp), &o.done);
            digest.set_counter("preemptions", self.stats.preemptions);
            digest.set_counter(
                "cache_overflow_failures",
                self.stats.cache_overflow_failures,
            );
            digest.set_counter("libraries_started", self.stats.libraries_started);
            digest.set_counter("flows_completed", self.stats.flows_completed);
            digest.set_counter("memoized_tasks", self.stats.memoized_tasks);
            digest.set_counter("warm_hit_bytes", self.stats.warm_hit_bytes);
            digest.set_counter("retries", self.stats.retries);
            digest.set_counter("backoff_time_us", self.stats.backoff_time_us);
            digest.set_counter("task_timeouts", self.stats.task_timeouts);
            digest.set_counter("transient_failures", self.stats.transient_failures);
            digest.set_counter("speculative_wins", self.stats.speculative_wins);
            digest.set_counter("speculative_losses", self.stats.speculative_losses);
            digest.set_counter("blocklisted_workers", self.stats.blocklisted_workers);
            digest.set_counter("quarantined_tasks", self.stats.quarantined_tasks);
            digest.set_counter("corruptions_detected", self.stats.corruptions_detected);
            // Streaming counters only exist when an observer was attached,
            // so observer-less digests stay byte-identical to pre-streaming
            // builds (the CI streaming cell asserts this).
            if let Some(st) = &self.stream {
                digest.set_counter("stream_partitions_done", st.partitions_done);
                digest.set_counter("stream_partitions_total", st.partitions_total);
                digest.set_counter("stream_events_done", st.events_done);
                digest.set_counter(
                    "stream_early_stop_cancelled",
                    self.stats.early_stop_cancelled,
                );
                digest.set_counter(
                    "stream_partial_digest",
                    vine_data::fnv1a64(&vine_data::encode_histogram_set(&st.acc)),
                );
            }
            RunObs {
                attributions: o.done,
                digest,
            }
        });
        RunResult {
            outcome,
            makespan,
            stats: self.stats,
            lint_findings: Vec::new(),
            obs,
            fabric_work: self.fabric.solve_work(),
            placement_work: PlacementWork {
                peer_wait_visits: self.peer_waits.visits(),
                pick_visits: self.loads.walked(),
            },
        }
    }
}

/// Dense index for per-kind tables (timeout p99 baselines).
fn kind_index(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Process => 0,
        TaskKind::Accumulate => 1,
        TaskKind::Generic => 2,
    }
}

/// Every file's [`graph_file_cachename`], indexed by `FileId`: the slab
/// one admission derives once and hands to the engine through
/// [`RunRequest::cachenames`].
pub fn graph_cachenames(graph: &TaskGraph) -> Vec<CacheName> {
    graph
        .files()
        .iter()
        .map(|f| graph_file_cachename(graph, f.id))
        .collect()
}

/// The cachename of a graph file (the content identity shared by all
/// workers, §IV-B "files must be named consistently"). Public so a
/// facility (`vine-serve`) can account cache residency against the
/// same names the engine caches under.
///
/// Within one run the name alone would suffice, but cachenames outlive
/// runs in warm caches, so the derivation folds in a one-level
/// lineage signature: the file's size hint plus its producer's input
/// names and sizes. Two workload variants that reuse a file name (a
/// scaled-down dataset, an edited selection) then miss each other's
/// entries instead of aliasing into false warm hits. The signature is
/// deliberately not transitive — generated workloads propagate any
/// upstream change into downstream names or sizes, which is as far as a
/// simulation without real content hashes can see.
pub fn graph_file_cachename(graph: &TaskGraph, f: FileId) -> CacheName {
    let fnode = graph.file(f);
    let size = fnode.size_hint.to_le_bytes();
    let mut parts: Vec<&[u8]> = vec![fnode.name.as_bytes(), &size];
    let input_sizes: Vec<[u8; 8]>;
    if let Some(p) = fnode.producer {
        let inputs = &graph.task(p).inputs;
        input_sizes = inputs
            .iter()
            .map(|&g| graph.file(g).size_hint.to_le_bytes())
            .collect();
        for (&g, sz) in inputs.iter().zip(&input_sizes) {
            parts.push(graph.file(g).name.as_bytes());
            parts.push(sz);
        }
    }
    CacheName::derive("graph-file", &parts)
}
