//! The task-overhead decomposition (§III-C, §IV-B).
//!
//! A conventional task pays, on top of its useful compute:
//!
//! ```text
//! dispatch (manager serial)           ~ 25 ms
//! result collection (manager serial)  ~ 12 ms
//! interpreter startup (worker)        ~ 1.5 s
//! library imports (worker, per task)  ~ metadata storm + bytes read
//! ```
//!
//! A serverless FunctionCall replaces interpreter + per-task imports with a
//! one-time LibraryTask instantiation per worker, a small fork/IPC cost per
//! invocation, and (only if imports are *not* hoisted) a per-invocation
//! import paid inside the forked child (§IV-B "Import Hoisting").
//!
//! These constants were calibrated so that the DV3-Large standard run
//! reproduces Table I's shape; `vine-bench` prints the comparison. No
//! stack, figure or experiment varies them, so they are constants; the
//! one distribution an experiment does vary, the useful compute of a
//! task (Fig 10 fixes it), is `EngineConfig::base_compute`, whose stack
//! default is [`BASE_COMPUTE`].

use rand::Rng;
use vine_simcore::{Dist, SimDur};
use vine_storage::{DiskProfile, SharedFs};

use crate::config::{ExecMode, ImportSource};

/// Useful-compute duration of a nominal (work = 1.0) task. The Fig 8
/// distribution: bulk between 1 s and 10 s, heavy right tail.
pub const BASE_COMPUTE: Dist = Dist::LogNormal {
    median: 3.2,
    sigma: 0.85,
};
/// Manager serial cost to dispatch a conventional task.
pub const DISPATCH_STANDARD: SimDur = SimDur::from_millis(25);
/// Manager serial cost to dispatch a FunctionCall.
pub const DISPATCH_FUNCTION: SimDur = SimDur::from_millis(5);
/// Manager serial cost to collect a conventional task's result.
pub const COLLECT_STANDARD: SimDur = SimDur::from_millis(12);
/// Manager serial cost to collect a FunctionCall result.
pub const COLLECT_FUNCTION: SimDur = SimDur::from_millis(3);
/// Python interpreter + wrapper startup per conventional task.
pub const INTERPRETER_STARTUP: SimDur = SimDur::from_millis(1500);
/// Filesystem metadata operations issued by the task's imports (module
/// search path walks, stat calls, bytecode probes).
pub const IMPORT_METADATA_OPS: u64 = 2500;
/// Bytes of library code/data read by the imports.
pub const IMPORT_READ_BYTES: u64 = 60_000_000;
/// Fork + argument IPC per FunctionCall invocation.
pub const FUNCTION_OVERHEAD: SimDur = SimDur::from_millis(40);
/// One-time LibraryTask instantiation per worker (process launch,
/// excluding the hoisted imports, which are costed separately).
pub const LIBRARY_STARTUP: SimDur = SimDur::from_millis(2000);
/// Profile of the worker's local disk (cache hits, local imports).
pub const WORKER_DISK: DiskProfile = DiskProfile::worker_scratch();

/// Sample the useful-compute duration of a task with the given work
/// multiplier from the nominal distribution `base`.
pub fn sample_compute<R: Rng + ?Sized>(base: &Dist, work: f64, rng: &mut R) -> SimDur {
    base.scaled(work.max(0.0)).sample_dur(rng)
}

/// Cost of performing the import storm once, reading the environment
/// from `source`.
///
/// Local metadata operations resolve against the in-kernel dentry cache
/// after first touch (~60 µs each); shared-filesystem metadata operations
/// pay a network round trip each (the Fig 10 asymmetry).
pub fn import_cost(source: ImportSource, fs: &SharedFs) -> SimDur {
    match source {
        ImportSource::WorkerLocal => {
            let meta = SimDur::from_secs_f64(60e-6 * IMPORT_METADATA_OPS as f64);
            meta + SimDur::from_secs_f64(IMPORT_READ_BYTES as f64 / WORKER_DISK.read_bw)
        }
        ImportSource::SharedFilesystem => {
            fs.metadata_ops(IMPORT_METADATA_OPS)
                + SimDur::from_secs_f64(IMPORT_READ_BYTES as f64 / fs.per_stream_bw)
        }
    }
}

/// Worker-side overhead of one task attempt before its useful compute
/// starts, as `(interp, imports)`: interpreter startup (a conventional
/// task) or fork + IPC (a FunctionCall), and the per-attempt import
/// storm, which a FunctionCall with hoisted imports does not pay.
pub fn attempt_overhead(mode: ExecMode, source: ImportSource, fs: &SharedFs) -> (SimDur, SimDur) {
    match mode {
        ExecMode::StandardTasks => (INTERPRETER_STARTUP, import_cost(source, fs)),
        ExecMode::FunctionCalls {
            hoist_imports: true,
        } => (FUNCTION_OVERHEAD, SimDur::ZERO),
        ExecMode::FunctionCalls {
            hoist_imports: false,
        } => (FUNCTION_OVERHEAD, import_cost(source, fs)),
    }
}

/// One-time LibraryTask instantiation cost (includes the hoisted imports
/// when `hoist_imports`).
pub fn library_instantiation(hoist_imports: bool, source: ImportSource, fs: &SharedFs) -> SimDur {
    if hoist_imports {
        LIBRARY_STARTUP + import_cost(source, fs)
    } else {
        LIBRARY_STARTUP
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn compute_distribution_matches_fig8_bulk() {
        // "A majority of tasks have execution times between 1s and 10s".
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 10_000;
        let in_bulk = (0..n)
            .filter(|_| {
                let d = sample_compute(&BASE_COMPUTE, 1.0, &mut rng).as_secs_f64();
                (1.0..10.0).contains(&d)
            })
            .count();
        let frac = in_bulk as f64 / n as f64;
        assert!(frac > 0.6, "only {frac} of tasks in the 1-10s bulk");
    }

    #[test]
    fn work_scales_compute() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        let a = sample_compute(&BASE_COMPUTE, 1.0, &mut r1);
        let b = sample_compute(&BASE_COMPUTE, 4.0, &mut r2);
        // Same underlying draw, scaled 4x (up to microsecond rounding).
        let diff = (b.as_micros() as i64 - 4 * a.as_micros() as i64).abs();
        assert!(diff <= 3, "b {} vs 4a {}", b.as_micros(), 4 * a.as_micros());
    }

    #[test]
    fn local_imports_beat_shared_fs_imports() {
        // Fig 10: "TaskVine local storage slightly outperforming the VAST
        // shared filesystem ... attributed to localizing library metadata
        // searches to the local disk".
        let vast = SharedFs::vast();
        let local = import_cost(ImportSource::WorkerLocal, &vast);
        let shared = import_cost(ImportSource::SharedFilesystem, &vast);
        assert!(local < shared, "local {local:?} vs shared {shared:?}");
        // ... and HDFS metadata storms are far worse than either.
        let hdfs = import_cost(ImportSource::SharedFilesystem, &SharedFs::hdfs());
        assert!(hdfs > shared * 5);
    }

    /// `interp + imports` of one attempt.
    fn overhead(mode: ExecMode, source: ImportSource, fs: &SharedFs) -> SimDur {
        let (interp, imports) = attempt_overhead(mode, source, fs);
        interp + imports
    }

    #[test]
    fn hoisting_removes_per_call_import_cost() {
        let fs = SharedFs::vast();
        let call = |hoist_imports| ExecMode::FunctionCalls { hoist_imports };
        let hoisted = overhead(call(true), ImportSource::WorkerLocal, &fs);
        let unhoisted = overhead(call(false), ImportSource::WorkerLocal, &fs);
        assert_eq!(hoisted, FUNCTION_OVERHEAD);
        assert!(unhoisted > hoisted * 5);
        // The library pays the import exactly once instead.
        let lib_h = library_instantiation(true, ImportSource::WorkerLocal, &fs);
        let lib_u = library_instantiation(false, ImportSource::WorkerLocal, &fs);
        assert_eq!(lib_u, LIBRARY_STARTUP);
        assert!(lib_h > lib_u);
    }

    #[test]
    fn serverless_overhead_below_standard_overhead() {
        // The Stack 3 -> 4 premise: per-task overhead collapses.
        let fs = SharedFs::vast();
        let standard = overhead(ExecMode::StandardTasks, ImportSource::SharedFilesystem, &fs);
        let serverless = overhead(
            ExecMode::FunctionCalls {
                hoist_imports: true,
            },
            ImportSource::WorkerLocal,
            &fs,
        );
        assert!(
            standard > serverless * 10,
            "standard {standard:?} vs serverless {serverless:?}"
        );
    }

    #[test]
    fn function_dispatch_cheaper_than_standard() {
        assert!(DISPATCH_FUNCTION < DISPATCH_STANDARD);
        assert!(COLLECT_FUNCTION < COLLECT_STANDARD);
    }
}
