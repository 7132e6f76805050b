//! Failure injection: opportunistic preemption, cache exhaustion, and the
//! Dask.Distributed instability rule, end to end.

use reshaping_hep::analysis::{ReductionShape, WorkloadSpec};
use reshaping_hep::cluster::ClusterSpec;
use reshaping_hep::core::{
    graph_file_cachename, EngineConfig, Fault, FaultPlan, Preflight, RunOutcome, RunRequest,
    RunStats,
};
use reshaping_hep::dag::{MemoPlan, TaskGraph, TaskKind};
use reshaping_hep::simcore::units::{GB, MB};
use reshaping_hep::storage::LocalCache;

/// A plan of per-worker preemption alone, seeded with the run seed like
/// the stack presets' campus pool.
fn preemption(rate_per_sec: f64, seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with(Fault::Preemption { rate_per_sec })
        .with_seed(seed)
}

/// One empty cache per worker of `cluster`, sized to its disk.
fn cold_caches(cluster: &ClusterSpec) -> Vec<LocalCache> {
    vec![LocalCache::new(cluster.worker.disk_bytes); cluster.workers]
}

#[test]
fn survives_paper_grade_preemption() {
    // The paper's campus pool preempts ~1% of workers per run; recovery
    // must be invisible apart from re-executions.
    let spec = WorkloadSpec::dv3_large().scaled_down(20);
    let cfg = EngineConfig::stack4(ClusterSpec::standard(10), 3);
    let r = RunRequest::new(cfg, spec.to_graph()).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.task_executions >= r.stats.tasks_total as u64);
}

#[test]
fn survives_preemption_storm() {
    // Far more preemption than the paper's pool: every worker dies
    // every ~20 seconds on average, many times per run.
    let spec = WorkloadSpec::dv3_large().scaled_down(40);
    let cfg =
        EngineConfig::stack4(ClusterSpec::standard(5), 21).with_chaos(preemption(1.0 / 20.0, 21));
    let r = RunRequest::new(cfg, spec.to_graph()).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.preemptions > 0, "storm produced no preemptions");
    assert!(
        r.stats.task_executions > r.stats.tasks_total as u64,
        "no lineage re-runs under heavy preemption"
    );
}

#[test]
fn preemption_costs_time_but_not_correctness() {
    let spec = WorkloadSpec::dv3_large().scaled_down(40);
    let quiet = {
        let cfg = EngineConfig::stack4(ClusterSpec::standard(5), 21).deterministic();
        RunRequest::new(cfg, spec.to_graph()).run()
    };
    let stormy = {
        let cfg = EngineConfig::stack4(ClusterSpec::standard(5), 21)
            .with_chaos(preemption(1.0 / 100.0, 21));
        RunRequest::new(cfg, spec.to_graph()).run()
    };
    assert!(quiet.completed() && stormy.completed());
    assert!(
        stormy.makespan_secs() > quiet.makespan_secs(),
        "storm {} not slower than quiet {}",
        stormy.makespan_secs(),
        quiet.makespan_secs()
    );
}

#[test]
fn workqueue_also_recovers_from_preemption() {
    let spec = WorkloadSpec::dv3_large().scaled_down(40);
    let cfg =
        EngineConfig::stack2(ClusterSpec::standard(5), 17).with_chaos(preemption(1.0 / 200.0, 17));
    let r = RunRequest::new(cfg, spec.to_graph()).run();
    assert!(r.completed(), "{:?}", r.outcome);
}

#[test]
fn preempted_runs_keep_their_exact_draws() {
    // Pins two preempted runs to the exact makespan and counters the
    // per-worker `preempt` streams produce, so a change in how the
    // preemption rate reaches the engine cannot shift a single draw.
    let spec = WorkloadSpec::dv3_large().scaled_down(40);
    let run = |stack: usize, seed: u64, rate_per_sec: f64| {
        let cfg = EngineConfig::stack(stack, ClusterSpec::standard(5), seed)
            .with_chaos(preemption(rate_per_sec, seed));
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        assert!(r.completed(), "{:?}", r.outcome);
        (r.makespan.as_micros(), r.stats)
    };
    assert_eq!(
        run(4, 21, 1.0 / 100.0),
        (
            206_729_567,
            RunStats {
                tasks_total: 436,
                task_executions: 873,
                preemptions: 6,
                peer_bytes: 138_800_000_000,
                shared_fs_bytes: 62_486_737_344,
                flows_completed: 1510,
                libraries_started: 9,
                total_task_busy_us: 5_026_511_705,
                peak_cache_bytes: 72_949_748_688,
                events_processed: 4008,
                ..RunStats::default()
            }
        )
    );
    assert_eq!(
        run(2, 17, 1.0 / 200.0),
        (
            144_311_168,
            RunStats {
                tasks_total: 436,
                task_executions: 463,
                preemptions: 3,
                manager_bytes: 238_762_021_764,
                shared_fs_bytes: 30_477_599_832,
                flows_completed: 1703,
                total_task_busy_us: 3_364_257_802,
                peak_cache_bytes: 37_074_371_804,
                events_processed: 2687,
                ..RunStats::default()
            }
        )
    );
}

#[test]
fn impossible_reduction_fails_cleanly_not_forever() {
    // A single-node reduction whose inputs exceed every worker's disk can
    // never succeed; the engine must stop (crash-loop guard), not spin.
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..100 {
        let f = g.add_external_file(format!("c{i}"), MB);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[GB], 0.1);
        partials.push(outs[0]);
    }
    g.add_task("acc", TaskKind::Accumulate, partials, &[MB], 1.0);
    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 20 * GB; // 100 GB of pinned inputs never fit
    let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
    // Bypass the pre-flight lint: this test is about the *runtime*
    // crash-loop guard (the static rejection has its own test below).
    cfg.preflight = Preflight::Off;
    let r = RunRequest::new(cfg, g).run();
    assert!(!r.completed());
    assert!(r.stats.cache_overflow_failures > 0);
}

#[test]
fn impossible_reduction_is_rejected_by_preflight() {
    // The same shape under the default `Preflight::Enforce`: vine-lint's
    // R001/R002 bounds prove infeasibility and the engine refuses to
    // simulate — zero events, zero worker crashes.
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..100 {
        let f = g.add_external_file(format!("c{i}"), MB);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[GB], 0.1);
        partials.push(outs[0]);
    }
    g.add_task("acc", TaskKind::Accumulate, partials, &[MB], 1.0);
    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 20 * GB;
    let cfg = EngineConfig::stack4(cluster, 5).deterministic();
    let r = RunRequest::new(cfg, g).run();
    assert!(!r.completed());
    assert_eq!(
        r.stats.cache_overflow_failures, 0,
        "must fail before simulating"
    );
    match &r.outcome {
        RunOutcome::Failed { reason } => {
            assert!(
                reason.starts_with("pre-flight lint:"),
                "unexpected reason: {reason}"
            )
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(
        r.lint_findings
            .iter()
            .any(|d| d.code == reshaping_hep::lint::Code::R001),
        "expected an R001 finding: {:?}",
        r.lint_findings
    );
}

#[test]
fn rewriting_the_same_workflow_makes_it_feasible() {
    // Same data, tree-shaped: fits comfortably.
    let spec_tree = WorkloadSpec::rs_triphoton()
        .scaled_down(40)
        .with_reduction(ReductionShape::Tree { arity: 4 });
    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 60 * GB;
    let cfg = EngineConfig::stack4(cluster, 5).deterministic();
    let r = RunRequest::new(cfg, spec_tree.to_graph()).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert_eq!(r.stats.cache_overflow_failures, 0);
}

#[test]
fn preemption_between_submissions_reruns_exactly_the_lost_producers() {
    // Warm-cache recovery: run once over warm caches, lose one worker's
    // disk between submissions, resubmit. With replication off, every
    // intermediate is a sole copy, so the static memoization plan over
    // the surviving caches names *exactly* the tasks that must re-run —
    // and the engine must execute exactly those: no serving evicted
    // entries, no gratuitous extra re-runs.
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let mut cfg = EngineConfig::stack3(ClusterSpec::standard(4), 11).deterministic();
    cfg.replica_target = 1;
    let mut caches = cold_caches(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    assert!(cold.completed(), "{:?}", cold.outcome);
    assert_eq!(cold.stats.memoized_tasks, 0);

    caches[0].clear();

    let graph = spec.to_graph();
    let expected = MemoPlan::compute(&graph, |f| {
        let name = graph_file_cachename(&graph, f);
        let size = graph.file(f).size_hint;
        caches.iter().any(|c| c.size_of(name) == Some(size))
    });
    let total = graph.task_count();
    assert!(
        expected.skipped_tasks > 0,
        "survivors' entries must still produce warm hits"
    );
    assert!(
        expected.skipped_tasks < total,
        "losing a whole worker must force some re-runs"
    );

    let warm = RunRequest::new(cfg, graph).warm_caches(&mut caches).run();
    assert!(warm.completed(), "{:?}", warm.outcome);
    assert_eq!(
        warm.stats.task_executions,
        (total - expected.skipped_tasks) as u64,
        "re-executions must be exactly the non-memoizable set"
    );
    assert_eq!(warm.stats.memoized_tasks, expected.skipped_tasks as u64);
}

#[test]
fn replicated_entries_still_hit_after_losing_one_worker() {
    // Same scenario with replication on (stack 3 default, target 2):
    // entries whose second copy survives stay warm, so the resubmission
    // executes strictly less than a cold run — and with a small graph
    // whose partials all replicate, usually nothing at all.
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let cfg = EngineConfig::stack3(ClusterSpec::standard(4), 11).deterministic();
    let mut caches = cold_caches(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    assert!(cold.completed(), "{:?}", cold.outcome);

    caches[0].clear();
    let warm = RunRequest::new(cfg, spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    assert!(warm.completed(), "{:?}", warm.outcome);
    assert!(
        warm.stats.memoized_tasks > 0,
        "replicas must keep hits warm"
    );
    assert!(
        warm.stats.task_executions < cold.stats.task_executions,
        "warm {} not fewer than cold {}",
        warm.stats.task_executions,
        cold.stats.task_executions
    );
}

#[test]
fn dask_instability_rule_applies_only_at_scale() {
    let small = WorkloadSpec::dv3_small().scaled_down(10);
    let cfg = EngineConfig::dask_distributed(ClusterSpec::standard(4), 9);
    let r = RunRequest::new(cfg.clone(), small.to_graph()).run();
    assert!(r.completed(), "small workload must run: {:?}", r.outcome);

    let large = WorkloadSpec::dv3_large(); // 1.2 TB > instability threshold
    let r = RunRequest::new(cfg, large.to_graph()).run();
    assert!(!r.completed(), "TB-scale Dask run must fail per the paper");
}
