use super::*;
use vine_cluster::ClusterSpec;
use vine_dag::TaskKind;
use vine_obs::{FigureRecorder, FigureSet, FigureSinks};
use vine_simcore::units::{GB, MB};

mod adopt;

/// A small map+reduce graph: `n` process tasks into one accumulate.
fn small_graph(n: usize, chunk: u64, partial: u64) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..n {
        let f = g.add_external_file(format!("chunk{i}"), chunk);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[partial], 1.0);
        partials.push(outs[0]);
    }
    g.add_task("acc", TaskKind::Accumulate, partials, &[MB], 0.5);
    g
}

/// Run with a [`FigureRecorder`] attached, filling every sink.
fn run_with_figures(cfg: EngineConfig, graph: TaskGraph) -> (RunResult, FigureSinks) {
    let mut figs = FigureRecorder::new(FigureSet::ALL, cfg.worker_slots());
    let r = RunRequest::new(cfg, graph).recorder(&mut figs).run();
    (r, figs.into_sinks())
}

fn run_stack(stack: usize, n_tasks: usize) -> RunResult {
    let cluster = ClusterSpec::standard(4);
    let cfg = EngineConfig::stack(stack, cluster, 42).deterministic();
    RunRequest::new(cfg, small_graph(n_tasks, 10 * MB, MB)).run()
}

#[test]
fn all_stacks_complete_small_workload() {
    for stack in 1..=4 {
        let r = run_stack(stack, 24);
        assert!(r.completed(), "stack {stack}: {:?}", r.outcome);
        assert_eq!(r.stats.task_executions, 25);
        assert!(r.makespan_secs() > 0.0);
    }
}

#[test]
fn stack4_faster_than_stack1() {
    let s1 = run_stack(1, 48);
    let s4 = run_stack(4, 48);
    assert!(
        s4.makespan_secs() < s1.makespan_secs(),
        "stack4 {} !< stack1 {}",
        s4.makespan_secs(),
        s1.makespan_secs()
    );
}

#[test]
fn serverless_beats_standard_tasks_on_taskvine() {
    let s3 = run_stack(3, 48);
    let s4 = run_stack(4, 48);
    assert!(s4.makespan_secs() < s3.makespan_secs());
}

#[test]
fn workqueue_routes_all_bytes_through_manager() {
    let cluster = ClusterSpec::standard(3);
    let cfg = EngineConfig::stack2(cluster, 7).deterministic();
    let (r, figs) = run_with_figures(cfg, small_graph(12, 10 * MB, MB));
    assert!(r.completed());
    // No worker→worker transfers under Work Queue.
    let m = figs.transfers.unwrap();
    for s in 1..=3 {
        for d in 1..=3 {
            assert_eq!(m.get(s, d), 0, "peer transfer under WQ: {s}->{d}");
        }
    }
    assert!(r.stats.manager_bytes > 0);
    assert_eq!(r.stats.peer_bytes, 0);
}

#[test]
fn taskvine_moves_intermediates_peer_to_peer() {
    let cluster = ClusterSpec::standard(3);
    let cfg = EngineConfig::stack3(cluster, 7).deterministic();
    let r = RunRequest::new(cfg, small_graph(12, 10 * MB, 5 * MB)).run();
    assert!(r.completed());
    // Partials reach the accumulator via peers, not the manager.
    assert!(r.stats.peer_bytes > 0, "no peer transfers under TaskVine");
    // Inputs come from the shared FS directly.
    assert!(r.stats.shared_fs_bytes >= 12 * 10 * MB);
    // The manager moved no payload bytes at all.
    assert_eq!(r.stats.manager_bytes, 0);
}

#[test]
fn deterministic_given_seed() {
    let a = run_stack(3, 24);
    let b = run_stack(3, 24);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.flows_completed, b.stats.flows_completed);
}

#[test]
fn different_seeds_vary_makespan() {
    let cluster = ClusterSpec::standard(4);
    let r1 = RunRequest::new(
        EngineConfig::stack4(cluster, 1).deterministic(),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    let r2 = RunRequest::new(
        EngineConfig::stack4(cluster, 2).deterministic(),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    // Task durations are drawn per-seed; makespans should differ.
    assert_ne!(r1.makespan, r2.makespan);
}

#[test]
fn warm_resubmit_memoizes_everything() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let cfg = EngineConfig::stack3(cluster, 42).deterministic();

    let cold = RunRequest::new(cfg.clone(), small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(cold.completed(), "{:?}", cold.outcome);
    assert_eq!(cold.stats.task_executions, 25);
    assert_eq!(cold.stats.memoized_tasks, 0);
    assert!(session.resident_bytes() > 0, "nothing retained");

    let warm = RunRequest::new(cfg, small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(warm.completed(), "{:?}", warm.outcome);
    assert_eq!(warm.stats.memoized_tasks, 25, "not fully warm");
    assert_eq!(warm.stats.task_executions, 0, "warm run re-executed");
    assert!(warm.stats.warm_hit_bytes > 0);
    assert!(
        warm.makespan < cold.makespan,
        "warm {} !< cold {}",
        warm.makespan_secs(),
        cold.makespan_secs()
    );
    assert_eq!(session.runs_completed(), 2);
}

#[test]
fn preemption_between_runs_reruns_only_what_was_lost() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    // No replication: every file is a sole copy, so clearing one
    // worker loses a strict subset of the intermediates.
    let mut cfg = EngineConfig::stack3(cluster, 7).deterministic();
    cfg.replica_target = 1;

    let cold = RunRequest::new(cfg.clone(), small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(cold.completed());
    session.preempt_worker(0);

    let warm = RunRequest::new(cfg, small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(warm.completed(), "{:?}", warm.outcome);
    assert!(
        warm.stats.memoized_tasks > 0,
        "survivors' outputs should still hit"
    );
    assert!(
        warm.stats.task_executions > 0,
        "lost sole copies must re-run their producers"
    );
    assert!(warm.stats.task_executions < cold.stats.task_executions);
}

#[test]
fn workqueue_session_never_memoizes() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let cfg = EngineConfig::stack1(cluster, 42).deterministic();
    RunRequest::new(cfg.clone(), small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    let again = RunRequest::new(cfg, small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(again.completed());
    assert_eq!(again.stats.memoized_tasks, 0);
    assert_eq!(again.stats.task_executions, 13);
}

#[test]
fn session_geometry_mismatch_fails_cleanly() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&ClusterSpec::standard(2));
    let cfg = EngineConfig::stack3(cluster, 1).deterministic();
    let r = RunRequest::new(cfg, small_graph(6, 10 * MB, MB))
        .session(&mut session)
        .run();
    match r.outcome {
        RunOutcome::Failed { ref reason } => {
            assert!(reason.contains("geometry"), "{reason}")
        }
        _ => panic!("expected geometry failure"),
    }
}

#[test]
fn scaled_variant_does_not_false_hit_same_names() {
    // Same file names, different sizes: the size guard must treat the
    // residue as stale, not as warm hits.
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let cfg = EngineConfig::stack3(cluster, 42).deterministic();
    RunRequest::new(cfg.clone(), small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    let scaled = RunRequest::new(cfg, small_graph(12, 10 * MB, 2 * MB))
        .session(&mut session)
        .run();
    assert!(scaled.completed());
    assert_eq!(
        scaled.stats.memoized_tasks, 0,
        "stale same-name entries served as warm hits"
    );
    assert_eq!(scaled.stats.task_executions, 13);
}

#[test]
fn preemption_causes_retries_but_completes() {
    let cluster = ClusterSpec::standard(4);
    // Brutal preemption: ~every 30 s per worker.
    let cfg = EngineConfig::stack4(cluster, 11).with_chaos(
        FaultPlan::none()
            .with(Fault::Preemption {
                rate_per_sec: 1.0 / 30.0,
            })
            .with_seed(11),
    );
    let r = RunRequest::new(cfg, small_graph(60, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.preemptions > 0, "no preemptions sampled");
    assert!(
        r.stats.task_executions >= 61,
        "no retries despite preemptions"
    );
}

#[test]
fn single_node_reduction_overflows_small_disks() {
    // 40 partials of 1 GB must converge on one worker with a 10 GB
    // disk: the Fig 11 failure.
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..40 {
        let f = g.add_external_file(format!("c{i}"), MB);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[GB], 0.2);
        partials.push(outs[0]);
    }
    g.add_task("acc", TaskKind::Accumulate, partials, &[MB], 0.5);

    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 10 * GB;
    let mut cfg = EngineConfig::stack4(cluster, 3).deterministic();
    // This test exercises the *runtime* overflow path; the pre-flight
    // lint (R001) would reject the plan before any event fires.
    cfg.preflight = Preflight::Off;
    let r = RunRequest::new(cfg, g).run();
    assert!(
        r.stats.cache_overflow_failures > 0,
        "expected cache overflow failures"
    );
}

#[test]
fn tree_reduction_survives_small_disks() {
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..40 {
        let f = g.add_external_file(format!("c{i}"), MB);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[GB], 0.2);
        partials.push(outs[0]);
    }
    vine_dag::rewrite::add_tree_reduce(&mut g, "acc", &partials, 4, MB, 0.02);

    // 40 GB of live intermediates over 4 workers: a single-node
    // reduction needs > 40 GB on ONE worker (see the test above, which
    // fails at 10 GB); the tree spreads and drains them. 32 GB leaves
    // room for a worker's worst case: 12 cores' pinned partials plus
    // in-flight reduce inputs.
    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 32 * GB;
    let mut cfg = EngineConfig::stack4(cluster, 3).deterministic();
    // Isolate the reduction-shape effect from replication's extra
    // copies.
    cfg.replica_target = 1;
    // The static R001 bound (12 concurrent reduces x ~5 GB pins) is
    // conservative at this deliberately tight disk size; let the run
    // demonstrate the tree shape actually fits.
    cfg.preflight = Preflight::Off;
    let r = RunRequest::new(cfg, g).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert_eq!(r.stats.cache_overflow_failures, 0);
}

#[test]
fn dask_fails_at_tb_scale_by_policy() {
    let cluster = ClusterSpec::standard(10);
    let cfg = EngineConfig::dask_distributed(cluster, 5);
    let mut g = TaskGraph::new();
    // 600 GB of external input exceeds the instability threshold.
    for i in 0..600 {
        g.add_external_file(format!("big{i}"), GB);
    }
    let r = RunRequest::new(cfg, g).run();
    assert!(!r.completed());
}

#[test]
fn dask_runs_small_workloads() {
    let cluster = ClusterSpec::standard(4);
    let cfg = EngineConfig::dask_distributed(cluster, 5).deterministic();
    let r = RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
}

#[test]
fn empty_graph_completes_instantly() {
    let cluster = ClusterSpec::standard(2);
    let cfg = EngineConfig::stack4(cluster, 1).deterministic();
    let r = RunRequest::new(cfg, TaskGraph::new()).run();
    assert!(r.completed());
    assert_eq!(r.makespan, SimDur::ZERO);
}

#[test]
fn gantt_trace_records_worker_activity() {
    let cluster = ClusterSpec::standard(3);
    let cfg = EngineConfig::stack4(cluster, 2).deterministic();
    let (_, figs) = run_with_figures(cfg, small_graph(24, 10 * MB, MB));
    let g = figs.gantt.unwrap();
    assert!(g.entity_count() >= 2, "work not spread over workers");
    assert_eq!(g.intervals().len(), 25);
}

#[test]
fn running_series_peaks_at_cluster_width_or_less() {
    let cluster = ClusterSpec::standard(2); // 24 cores
    let cfg = EngineConfig::stack4(cluster, 2).deterministic();
    let (r, figs) = run_with_figures(cfg, small_graph(100, MB, MB));
    assert!(r.completed());
    assert!(figs.running_series.max_value() <= 24.0);
    assert!(figs.running_series.max_value() > 0.0);
}

#[test]
fn worker_slots_is_the_engine_worker_count() {
    let cluster = ClusterSpec::standard(3);
    for cfg in [
        EngineConfig::stack4(cluster, 1),
        EngineConfig::dask_distributed(cluster, 1),
    ] {
        let graph = small_graph(4, MB, MB);
        let slots = cfg.worker_slots();
        let mut rec = NullRecorder;
        let sim = Sim::new(cfg, &graph, None, None, &mut rec, None);
        assert_eq!(slots, sim.workers.len());
    }
    assert_eq!(EngineConfig::stack4(cluster, 1).worker_slots(), 3);
    assert_eq!(
        EngineConfig::dask_distributed(cluster, 1).worker_slots(),
        36
    );
}

#[test]
fn remote_inputs_slow_the_run_but_complete() {
    // Inputs large enough that the default WAN path (5 Gbit aggregate,
    // 30 MB/s per stream), not compute, bounds the remote run.
    const CHUNK: u64 = 400 * MB;
    let cluster = ClusterSpec::standard(4);
    let mk = |source| {
        let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
        cfg.data_source = source;
        RunRequest::new(cfg, small_graph(48, CHUNK, MB)).run()
    };
    let site = mk(crate::config::DataSource::SharedFilesystem);
    let wan = mk(crate::config::DataSource::RemoteXrootd);
    assert!(site.completed() && wan.completed());
    assert!(
        wan.makespan_secs() > site.makespan_secs() * 1.5,
        "wan {} vs site {}",
        wan.makespan_secs(),
        site.makespan_secs()
    );
    // WAN bytes are accounted as external-source reads.
    assert!(wan.stats.shared_fs_bytes >= 48 * CHUNK);
}

#[test]
fn remote_inputs_work_under_workqueue_too() {
    let cluster = ClusterSpec::standard(3);
    let mut cfg = EngineConfig::stack2(cluster, 5).deterministic();
    cfg.data_source = crate::config::DataSource::RemoteXrootd;
    let r = RunRequest::new(cfg, small_graph(12, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
}

#[test]
fn replication_creates_second_copies() {
    let cluster = ClusterSpec::standard(4);
    let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
    cfg.replica_target = 2;
    let with = RunRequest::new(cfg.clone(), small_graph(24, 10 * MB, 10 * MB)).run();
    cfg.replica_target = 1;
    let without = RunRequest::new(cfg, small_graph(24, 10 * MB, 10 * MB)).run();
    assert!(with.completed() && without.completed());
    // Replication moves strictly more peer bytes.
    assert!(
        with.stats.peer_bytes > without.stats.peer_bytes,
        "with {} vs without {}",
        with.stats.peer_bytes,
        without.stats.peer_bytes
    );
}

#[test]
fn round_robin_placement_completes() {
    let cluster = ClusterSpec::standard(4);
    let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
    cfg.placement = crate::config::Placement::RoundRobin;
    let r = RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert_eq!(r.stats.task_executions, 25);
}

#[test]
fn import_hoisting_speeds_up_serverless() {
    let cluster = ClusterSpec::standard(4);
    let base = EngineConfig::stack4(cluster, 9).deterministic();
    let mut unhoisted = base.clone();
    unhoisted.exec_mode = ExecMode::FunctionCalls {
        hoist_imports: false,
    };
    let g = || small_graph(96, MB, MB);
    let fast = RunRequest::new(base, g()).run();
    let slow = RunRequest::new(unhoisted, g()).run();
    assert!(fast.completed() && slow.completed());
    assert!(
        fast.makespan_secs() < slow.makespan_secs(),
        "hoisted {} !< unhoisted {}",
        fast.makespan_secs(),
        slow.makespan_secs()
    );
}

// ----- chaos + recovery ------------------------------------------------

use crate::recovery::RecoveryPolicy;
use vine_chaos::{ExitClass, Fault, FaultPlan};
use vine_simcore::SimTime;

fn chaos_cfg(plan: FaultPlan, policy: RecoveryPolicy) -> EngineConfig {
    EngineConfig::stack3(ClusterSpec::standard(4), 42)
        .deterministic()
        .with_chaos(plan)
        .with_recovery(policy)
}

#[test]
fn transient_failures_retry_and_complete() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 0.2,
        exit: ExitClass::Crash,
    });
    let r = RunRequest::new(
        chaos_cfg(plan, RecoveryPolicy::default()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.transient_failures > 0, "no failures injected");
    assert_eq!(r.stats.retries, r.stats.transient_failures);
    assert!(r.stats.backoff_time_us > 0, "retries skipped backoff");
}

#[test]
fn fragile_policy_degrades_instead_of_aborting() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 0.5,
        exit: ExitClass::Oom,
    });
    let r = RunRequest::new(
        chaos_cfg(plan, RecoveryPolicy::fragile()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert!(r.finished(), "{:?}", r.outcome);
    assert!(!r.completed(), "p=0.5 with zero budget should quarantine");
    let RunOutcome::Degraded { quarantined_tasks } = r.outcome else {
        panic!("expected Degraded, got {:?}", r.outcome);
    };
    assert_eq!(quarantined_tasks, r.stats.quarantined_tasks);
    assert!(quarantined_tasks > 0);
}

#[test]
fn speculation_beats_stragglers() {
    let plan = || {
        FaultPlan::none().with(Fault::Straggler {
            start: SimTime::from_secs(0),
            duration: SimDur::from_secs(1_000_000),
            slow_factor: 10.0,
            fraction: 0.5,
        })
    };
    let run = |speculation: bool| {
        let policy = RecoveryPolicy {
            speculation,
            speculation_factor: 1.5,
            ..RecoveryPolicy::default()
        };
        RunRequest::new(chaos_cfg(plan(), policy), small_graph(24, 10 * MB, MB)).run()
    };
    let with = run(true);
    let without = run(false);
    assert!(with.completed() && without.completed());
    assert!(with.stats.speculative_wins > 0, "no duplicate ever won");
    assert!(
        with.makespan < without.makespan,
        "speculation {} !< baseline {}",
        with.makespan_secs(),
        without.makespan_secs()
    );
}

#[test]
fn timeouts_abandon_stragglers() {
    let plan = FaultPlan::none().with(Fault::Straggler {
        start: SimTime::from_secs(0),
        duration: SimDur::from_secs(1_000_000),
        slow_factor: 20.0,
        fraction: 0.4,
    });
    let policy = RecoveryPolicy {
        timeout_factor: 3.0,
        ..RecoveryPolicy::default()
    };
    let r = RunRequest::new(chaos_cfg(plan, policy), small_graph(24, 10 * MB, MB)).run();
    assert!(r.finished(), "{:?}", r.outcome);
    assert!(r.stats.task_timeouts > 0, "20x stragglers never timed out");
}

#[test]
fn corruption_is_detected_on_reread() {
    // Bitrot only strikes unpinned residents, and is only *noticed* on
    // a later cache-hit read. Build chains a -> b -> c where a and c
    // both read a shared external file X but the long b stage does
    // not: while b computes, X sits unpinned in the worker cache and
    // rots; c's re-read hits the cache, detects the mismatch, and
    // re-stages from the shared FS.
    let mut g = TaskGraph::new();
    let shared = g.add_external_file("shared", 50 * MB);
    for i in 0..8 {
        let (_, a) = g.add_task(format!("a{i}"), TaskKind::Process, vec![shared], &[MB], 1.0);
        let (_, b) = g.add_task(format!("b{i}"), TaskKind::Process, vec![a[0]], &[MB], 8.0);
        g.add_task(
            format!("c{i}"),
            TaskKind::Process,
            vec![b[0], shared],
            &[MB],
            1.0,
        );
    }
    let plan = FaultPlan::none().with(Fault::CacheCorruption { rate_per_sec: 2.0 });
    let r = RunRequest::new(chaos_cfg(plan, RecoveryPolicy::default()), g).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.corruptions_detected > 0, "bitrot never detected");
}

#[test]
fn blocklisting_sidelines_failing_workers_but_not_all() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 0.6,
        exit: ExitClass::IoError,
    });
    let policy = RecoveryPolicy {
        retry_budget: 20,
        blocklist_after: 2,
        ..RecoveryPolicy::default()
    };
    let r = RunRequest::new(chaos_cfg(plan, policy), small_graph(24, 10 * MB, MB)).run();
    assert!(r.finished(), "{:?}", r.outcome);
    assert!(r.stats.blocklisted_workers > 0, "nothing blocklisted");
    assert!(
        r.stats.blocklisted_workers < 4,
        "the last worker must stay schedulable"
    );
}

#[test]
fn every_preset_finishes_under_hardened_recovery() {
    for preset in FaultPlan::PRESETS {
        for seed in [42u64, 1337] {
            let plan = FaultPlan::preset(preset).unwrap().with_seed(seed);
            let r = RunRequest::new(
                chaos_cfg(plan, RecoveryPolicy::hardened()),
                small_graph(24, 10 * MB, MB),
            )
            .run();
            assert!(r.finished(), "{preset}/seed{seed}: {:?}", r.outcome);
        }
    }
}

#[test]
fn chaos_runs_are_bit_reproducible() {
    let run = |chaos_seed: u64| {
        let plan = FaultPlan::none()
            .with_seed(chaos_seed)
            .with(Fault::TaskFailure {
                prob: 0.25,
                exit: ExitClass::Crash,
            })
            .with(Fault::Straggler {
                start: SimTime::from_secs(0),
                duration: SimDur::from_secs(1_000_000),
                slow_factor: 3.0,
                fraction: 0.5,
            });
        let cfg = chaos_cfg(plan, RecoveryPolicy::hardened()).with_obs();
        RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run()
    };
    let a = run(7);
    let b = run(7);
    assert!(a.stats.transient_failures > 0, "chaos never fired");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.transient_failures, b.stats.transient_failures);
    assert_eq!(
        a.obs.unwrap().digest.to_text(),
        b.obs.unwrap().digest.to_text(),
        "same chaos seed must replay byte-identically"
    );
    let c = run(8);
    assert_ne!(
        a.makespan, c.makespan,
        "different chaos seeds should explore different fault schedules"
    );
}

#[test]
fn empty_plan_matches_the_prechaos_engine_exactly() {
    // The chaos hub must stay untouched when no faults are planned:
    // a run with an empty plan is byte-identical to one that never
    // heard of vine-chaos.
    let base = run_stack(3, 24);
    let chaotic = RunRequest::new(
        chaos_cfg(FaultPlan::none(), RecoveryPolicy::default()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert_eq!(base.makespan, chaotic.makespan);
    assert_eq!(base.stats.flows_completed, chaotic.stats.flows_completed);
    assert_eq!(base.stats.task_executions, chaotic.stats.task_executions);
}

// ----- event-driven peer waits ------------------------------------------

/// Three layers with heavy fan-in: `n` process tasks, `n / 2` merges that
/// each read six partials (so every partial has three readers), and one
/// final accumulate over the merges. `tag` renames the merges, the way an
/// edited selection re-runs them over the same partials.
fn fan_in_graph(n: usize, tag: &str) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..n {
        let f = g.add_external_file(format!("chunk{i}"), 10 * MB);
        let (_, outs) = g.add_task(
            format!("p{i}"),
            TaskKind::Process,
            vec![f],
            &[200 * MB],
            3.0,
        );
        partials.push(outs[0]);
    }
    let mut merged = Vec::new();
    for j in 0..n / 2 {
        let inputs = (0..6).map(|k| partials[(2 * j + k) % n]).collect();
        let (_, outs) = g.add_task(
            format!("m{tag}{j}"),
            TaskKind::Accumulate,
            inputs,
            &[MB],
            0.5,
        );
        merged.push(outs[0]);
    }
    g.add_task(
        format!("acc{tag}"),
        TaskKind::Accumulate,
        merged,
        &[MB],
        0.5,
    );
    g
}

/// Run one configuration over `session` and report, per wake cause, how
/// many queued peer waits its wakes covered.
fn wake_counts(
    cfg: EngineConfig,
    graph: &TaskGraph,
    session: &mut SessionState,
) -> (Vec<u64>, RunResult) {
    let mut rec = NullRecorder;
    let mut sim = Sim::new(cfg, graph, None, Some(&mut *session), &mut rec, None);
    sim.bootstrap();
    sim.event_loop();
    session.restore_caches(sim.take_caches());
    let counts = Wake::ALL
        .iter()
        .map(|&why| sim.peer_waits.woken_by(why))
        .collect();
    (counts, sim.into_result())
}

/// Storm faults (with preemption and bitrot raised so minute-long runs
/// see them) on one peer-transfer slot per worker and three replicas per
/// file, cold and then warm over an edited selection. Debug builds check
/// at every drain that no unwoken wait is actionable; this test makes
/// sure the wake paths it relies on were actually taken with waits
/// queued. Eviction and output retention are exercised directly below.
///
/// The seeds skip 3 and 8, where a dispatch finds an input that is not
/// pinned and trips the older dispatch sanitizer in debug builds (the
/// engine did this before the wait queue was event-driven too), and 4,
/// where faults quarantine tasks and the run ends degraded.
#[test]
fn peer_wait_wake_paths_fire_under_storm() {
    let mut total = vec![0u64; Wake::ALL.len()];
    for seed in [1u64, 2, 5, 6, 7, 9] {
        let plan = FaultPlan::preset("storm")
            .unwrap()
            .with(Fault::Preemption {
                rate_per_sec: 1.0 / 100.0,
            })
            .with(Fault::CacheCorruption {
                rate_per_sec: 1.0 / 10.0,
            })
            .with_seed(seed);
        let mut cfg = EngineConfig::stack4(ClusterSpec::standard(6), seed)
            .with_chaos(plan)
            .with_recovery(RecoveryPolicy::hardened());
        cfg.max_peer_transfers_per_worker = 1;
        cfg.replica_target = 3;
        cfg.cluster.worker.disk_bytes = 16 * GB;
        let mut session = SessionState::new(&cfg.cluster);
        for tag in ["", "edit"] {
            let (counts, r) = wake_counts(cfg.clone(), &fan_in_graph(96, tag), &mut session);
            assert!(r.completed(), "seed {seed} {tag:?}: {:?}", r.outcome);
            assert!(r.placement_work.peer_wait_visits > 0);
            for (t, c) in total.iter_mut().zip(counts) {
                *t += c;
            }
        }
    }
    for (why, n) in Wake::ALL.iter().zip(&total) {
        if !matches!(why, Wake::Evicted | Wake::OutputRetained) {
            assert!(*n > 0, "wake path {why:?} never fired: {total:?}");
        }
    }
}

/// A hand-built state: one consumer queued on worker 1 for a file whose
/// only copy sits on worker 0, whose single peer slot is taken.
fn queued_wait_sim<'g, 'r>(
    graph: &'g TaskGraph,
    rec: &'r mut NullRecorder,
) -> Sim<'g, 'r, 'static> {
    let mut cfg = EngineConfig::stack3(ClusterSpec::standard(3), 1).deterministic();
    cfg.max_peer_transfers_per_worker = 1;
    let mut sim = Sim::new(cfg, graph, None, None, rec, None);
    for w in 0..3 {
        sim.workers[w].alive = true;
        sim.set_busy(w, 0);
    }
    let (f, consumer) = (FileId(1), TaskId(1));
    let name = sim.cnames[1];
    let _ = sim.workers[0]
        .cache
        .insert(name, MB, CacheEntryKind::Intermediate);
    sim.replicas[1].push(0);
    sim.workers[0].outgoing = 1;
    sim.assignments.insert(
        consumer.0,
        Assignment {
            w: 1,
            missing: 1,
            computing: false,
            pinned: Vec::new(),
            busy_until: SimTime::ZERO,
        },
    );
    sim.start_peer_or_queue(f, 1, consumer);
    assert_eq!(sim.peer_waits.len(), 1, "the wait must queue");
    assert_eq!(sim.peer_waits.unwoken().count(), 1);
    sim
}

/// `p` (reading one chunk) produces the file two consumers read.
fn one_file_graph() -> TaskGraph {
    let mut g = TaskGraph::new();
    let chunk = g.add_external_file("chunk", MB);
    let (_, outs) = g.add_task("p", TaskKind::Process, vec![chunk], &[MB], 1.0);
    g.add_task("c0", TaskKind::Accumulate, vec![outs[0]], &[MB], 0.5);
    g.add_task("c1", TaskKind::Accumulate, vec![outs[0]], &[MB], 0.5);
    g
}

#[test]
fn evicting_a_copy_wakes_its_waits() {
    let g = one_file_graph();
    let mut rec = NullRecorder;
    let mut sim = queued_wait_sim(&g, &mut rec);
    let name = sim.cnames[1];
    let _ = sim.workers[0].cache.remove(name);
    sim.handle_eviction(0, name);
    assert_eq!(sim.peer_waits.woken_by(Wake::Evicted), 1);
    assert_eq!(sim.peer_waits.unwoken().count(), 0);
}

#[test]
fn retaining_an_output_wakes_its_waits() {
    let g = one_file_graph();
    let mut rec = NullRecorder;
    let mut sim = queued_wait_sim(&g, &mut rec);
    // The producer re-runs on worker 2 and keeps its output there.
    let producer = TaskId(0);
    sim.tracker.mark_running(producer);
    sim.set_busy(2, 1);
    sim.assignments.insert(
        producer.0,
        Assignment {
            w: 2,
            missing: 0,
            computing: true,
            pinned: Vec::new(),
            busy_until: SimTime::ZERO,
        },
    );
    sim.mgr_busy = true; // keep the manager from collecting
    sim.on_task_compute_done(producer, 2);
    assert_eq!(sim.peer_waits.woken_by(Wake::OutputRetained), 1);
    // Worker 2 is a free source now: the next drain pulls from it.
    sim.drain_peer_waitq();
    assert!(sim.peer_waits.is_empty());
    assert!(sim.inflight[1].contains(FileId(1)));
    assert_eq!(sim.workers[2].outgoing, 1);
}

#[test]
fn broken_invariant_fails_the_run_instead_of_panicking() {
    let g = one_file_graph();
    let mut rec = NullRecorder;
    let mut sim = queued_wait_sim(&g, &mut rec);
    // A flow the engine never noted a purpose for.
    let (from, to) = (sim.workers[0].node, sim.workers[2].node);
    let id = sim.fabric.start_flow(sim.now, from, to, 0, f64::INFINITY);
    sim.complete_one_flow(id);
    match sim.into_result().outcome {
        RunOutcome::Failed { reason } => {
            assert!(reason.starts_with("engine invariant broken"), "{reason}");
        }
        other => panic!("expected a failed run, got {other:?}"),
    }
}

#[test]
fn killing_a_worker_drops_a_doubled_replica_its_cache_lost() {
    let g = one_file_graph();
    let mut rec = NullRecorder;
    let mut sim = queued_wait_sim(&g, &mut rec);
    let (f, name) = (FileId(1), sim.cnames[1]);
    // A re-run on worker 0 retains the output it already holds: listed
    // twice. An eviction then drops the copy and one listing.
    sim.add_replica(f, 0);
    assert_eq!(sim.replicas[1], [0, 0]);
    let _ = sim.workers[0].cache.remove(name);
    sim.handle_eviction(0, name);
    assert_eq!(sim.replicas[1], [0]);
    assert!(!sim.workers[0].cache.contains(name));
    sim.kill_worker(0);
    assert!(sim.replicas[1].is_empty(), "{:?}", sim.replicas[1]);
    assert!(sim.workers[0].doubled.is_empty());
}

#[test]
fn flow_done_read_waits_within_an_instant_only_while_no_flow_can_finish() {
    let g = one_file_graph();
    let mut rec = NullRecorder;
    let mut sim = queued_wait_sim(&g, &mut rec);
    let (a, b) = (sim.workers[0].node, sim.workers[2].node);
    for (bytes, due_now) in [(MB, false), (0, true)] {
        sim.fabric.start_flow(sim.now, a, b, bytes, f64::INFINITY);
        sim.reschedule_flow_event();
        // A later event at the same instant, queued after the reservation.
        sim.queue.schedule(sim.now, Ev::MgrDone);
        let solves = sim.fabric.solve_work().solves;
        sim.settle_flow_event();
        if due_now {
            // The FlowDone keeps its reserved place ahead of that event.
            assert!(matches!(sim.flow_event, FlowEvent::Queued(_)));
            assert!(matches!(sim.queue.pop(), Some((_, Ev::FlowDone))));
        } else {
            // The read, and its solve, wait for the instant's next event.
            assert!(matches!(sim.flow_event, FlowEvent::Reserved(_)));
            assert_eq!(sim.fabric.solve_work().solves, solves);
        }
        assert!(matches!(sim.queue.pop(), Some((_, Ev::MgrDone))));
    }
}
/// Graph-file cachenames are keys in warm sessions and the shared tier
/// and feed every facility digest, so their values are pinned: external
/// files (name and size) and produced ones (with the one-level lineage
/// of their producer's inputs).
#[test]
fn graph_file_cachenames_are_pinned() {
    let mut g = TaskGraph::new();
    let a = g.add_external_file("a", 100);
    let b = g.add_external_file("b", 200);
    let (_, outs) = g.add_task("p", TaskKind::Process, vec![a, b], &[10, 20], 1.0);
    g.add_task("acc", TaskKind::Accumulate, outs, &[5], 0.5);
    let golden: [u128; 5] = [
        0xf35940d4056ed3e68be155ff0b43ecdd,
        0x74bbc3c9723b0813b0931455fc26c6d8,
        0x18b516fbd94b7b83bf4434866df11c32,
        0x175d50649b15d6e60f4fe844d952b28f,
        0xec58c62f0a972b7d99924efd4633845c,
    ];
    let names = graph_cachenames(&g);
    for (i, want) in golden.into_iter().enumerate() {
        let f = FileId(i as u32);
        assert_eq!(graph_file_cachename(&g, f).as_u128(), want, "file {i}");
        assert_eq!(names[i], graph_file_cachename(&g, f));
    }
}
