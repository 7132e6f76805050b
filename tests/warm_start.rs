//! Warm-start acceptance, end to end: resubmitting an identical graph
//! over warm worker caches is at least 3× faster, the observability digest
//! attributes the saving to memoized tasks and warm bytes, the physics
//! answer a warm run serves is bit-identical to a cold recomputation, and the facility's exports are byte-stable per seed.

use reshaping_hep::analysis::{Dv3Processor, WorkloadSpec};
use reshaping_hep::cluster::ClusterSpec;
use reshaping_hep::core::{EngineConfig, RunRequest};
use reshaping_hep::data::{encode_histogram_set, Dataset};
use reshaping_hep::exec::{ExecMode, Executor};
use reshaping_hep::serve::{FacilityConfig, LoadGen, ShardedConfig, ShardedFacility};
use reshaping_hep::simcore::units::KB;
use reshaping_hep::storage::LocalCache;

fn base_cfg() -> EngineConfig {
    EngineConfig::stack3(ClusterSpec::standard(4), 7).deterministic()
}

/// One empty cache per worker of `cluster`, sized to its disk.
fn cold_caches(cluster: &ClusterSpec) -> Vec<LocalCache> {
    vec![LocalCache::new(cluster.worker.disk_bytes); cluster.workers]
}

#[test]
fn warm_resubmission_is_at_least_three_times_faster() {
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let cfg = base_cfg();
    let mut caches = cold_caches(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    let warm = RunRequest::new(cfg, spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    assert!(cold.completed() && warm.completed());
    assert_eq!(cold.stats.memoized_tasks, 0);
    assert_eq!(
        warm.stats.memoized_tasks, warm.stats.tasks_total as u64,
        "an identical resubmission must be fully memoized"
    );
    assert_eq!(warm.stats.task_executions, 0);
    assert!(
        cold.makespan_secs() >= 3.0 * warm.makespan_secs(),
        "warm {}s not >=3x faster than cold {}s",
        warm.makespan_secs(),
        cold.makespan_secs()
    );
}

#[test]
fn obs_digest_attributes_the_saving_to_memoization() {
    // The digest of an observed warm run must carry the attribution:
    // which tasks were skipped and how many bytes were served warm.
    let spec = WorkloadSpec::dv3_small().scaled_down(20);
    let cfg = base_cfg().with_obs();
    let mut caches = cold_caches(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    let warm = RunRequest::new(cfg, spec.to_graph())
        .warm_caches(&mut caches)
        .run();

    let cold_digest = &cold.obs.as_ref().expect("obs on").digest;
    let warm_digest = &warm.obs.as_ref().expect("obs on").digest;
    assert_eq!(cold_digest.counters["memoized_tasks"], 0);
    assert_eq!(
        warm_digest.counters["memoized_tasks"],
        warm.stats.tasks_total as u64
    );
    assert!(warm_digest.counters["warm_hit_bytes"] > 0);
    assert_eq!(
        warm_digest.counters["warm_hit_bytes"],
        warm.stats.warm_hit_bytes
    );
    // The diff between the two runs names the counters that moved, so a
    // regression report localizes the warm-start effect.
    let diff = cold_digest.diff(warm_digest).to_text();
    assert!(diff.contains("memoized_tasks"), "diff: {diff}");
    assert!(diff.contains("warm_hit_bytes"), "diff: {diff}");
}

#[test]
fn memoized_run_serves_bit_identical_histograms() {
    // The simulation decides *that* the final reduction can be served
    // warm; the cold run's encoded answer is *what* to serve. Because the
    // real executor is deterministic, that blob is byte-for-byte what any
    // recomputation (any thread count) produces.
    let spec = WorkloadSpec::dv3_small().scaled_down(20);

    let datasets = vec![Dataset::synthesize("warmstart.ds0", 500 * KB, KB, 150, 3)];
    let processor = Dv3Processor::default();
    let run_exec = |threads| {
        Executor {
            threads,
            mode: ExecMode::Serverless,
            import_work: 10_000,
            arity: 4,
            obs: false,
            chaos: None,
        }
        .run(&processor, &datasets)
    };

    // Cold: simulate, execute for real, keep the encoded answer.
    let cfg = base_cfg();
    let mut caches = cold_caches(&cfg.cluster);
    let cold = RunRequest::new(cfg.clone(), spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    assert!(cold.completed());
    let stored = encode_histogram_set(&run_exec(4).final_result);

    // Warm: the simulation memoizes every task, so the stored blob may be
    // served without recomputing — and it must equal what a fresh
    // (differently-threaded) computation yields.
    let warm = RunRequest::new(cfg, spec.to_graph())
        .warm_caches(&mut caches)
        .run();
    assert_eq!(warm.stats.memoized_tasks, warm.stats.tasks_total as u64);
    assert_eq!(
        stored,
        encode_histogram_set(&run_exec(1).final_result),
        "stored physics blob differs from recomputation"
    );
}

#[test]
fn facility_metrics_export_is_byte_stable_per_seed() {
    let run = || {
        let mut facility = ShardedFacility::new(ShardedConfig::single(FacilityConfig::demo(9)))
            .expect("demo config is clean");
        let loadgen = LoadGen {
            scale_down: 60,
            submissions_per_tenant: 3,
            ..LoadGen::default()
        };
        facility.ingest(loadgen.generate(2, 9));
        let report = facility.drain().shards.remove(0);
        (report.to_csv(), report.to_metrics().to_text())
    };
    let (csv_a, metrics_a) = run();
    let (csv_b, metrics_b) = run();
    assert_eq!(csv_a, csv_b, "facility.csv must be byte-identical per seed");
    assert_eq!(metrics_a, metrics_b);
    assert!(metrics_a.contains("facility.warm_hit_ratio"));
}
