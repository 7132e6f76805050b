#![deny(unsafe_code)]

//! # vine-core — the TaskVine manager, scheduler policies, and simulation engine
//!
//! The paper's contribution (§IV): a task *and data* scheduler that turns
//! long-running HEP analyses into near-interactive ones. This crate
//! implements the three scheduler generations the evaluation compares and
//! the discrete-event engine that executes workloads on a simulated
//! cluster:
//!
//! * **Work Queue** ([`SchedulerKind::WorkQueue`]) — the baseline: a
//!   manager that stages every input down to workers and streams every
//!   output back, storing intermediates at the manager. Data-oblivious
//!   placement. (Stacks 1–2.)
//! * **TaskVine** ([`SchedulerKind::TaskVine`]) — node-local caches keyed
//!   by cachenames, data-aware placement, throttled asynchronous peer
//!   transfers, lineage recovery after preemption, and a serverless
//!   execution mode (LibraryTask + FunctionCall) with import hoisting.
//!   (Stacks 3–4.)
//! * **Dask.Distributed** ([`SchedulerKind::DaskDistributed`]) — the
//!   comparison scheduler of Fig 14a: share-nothing single-core workers
//!   (the GIL makes one 12-thread worker useless), per-worker environment
//!   loading, memory-resident intermediates, and the paper-reported
//!   instability on TB-scale workloads.
//!
//! The four stack configurations of Table I are provided as presets:
//! [`EngineConfig::stack1`] … [`EngineConfig::stack4`].
//!
//! The engine (run through [`RunRequest`]) marries the substrates:
//! `vine-dag` supplies the ready-set and lineage logic, `vine-net` the
//! max–min fair fabric, `vine-storage` the shared-FS and cache models,
//! `vine-cluster` the worker shapes and ramp-up, and `vine-chaos` the
//! fault plan, opportunistic preemption included. [`RunResult`] carries the
//! outcome, makespan and counters; the traces behind the paper's figures
//! come from a `vine_obs::FigureRecorder` attached with
//! [`RunRequest::recorder`], the engine's one event sink.

pub mod arena;
pub mod config;
pub mod cost;
pub mod engine;
pub mod observer;
pub mod placement;
mod preempt;
pub mod recovery;
pub mod request;
pub mod result;
pub mod session;

pub use config::{
    DataSource, EngineConfig, ExecMode, ImportSource, Placement, Preflight, SchedulerKind,
    DASK_UNSTABLE_ABOVE_BYTES,
};
pub use engine::{graph_cachenames, graph_file_cachename};
pub use observer::{ObserverControl, PartialUpdate, RunObserver};
pub use recovery::RecoveryPolicy;
pub use request::RunRequest;
pub use result::{PlacementWork, RunOutcome, RunResult, RunStats};
pub use session::SessionState;
pub use vine_chaos::{ExitClass, Fault, FaultPlan};
