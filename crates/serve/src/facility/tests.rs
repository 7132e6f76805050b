use super::*;
use crate::{ShardedConfig, ShardedFacility};
use std::collections::BTreeMap;
use vine_analysis::WorkloadSpec;
use vine_simcore::units::GB;

mod merges;
use merges::{residency_by_sort, size_in};

/// A single facility: the one-shard, storeless federation.
fn single(cfg: FacilityConfig) -> ShardedFacility {
    ShardedFacility::new(ShardedConfig::single(cfg)).unwrap()
}

fn spec() -> WorkloadSpec {
    WorkloadSpec::dv3_small().scaled_down(20)
}

fn sub(tenant: usize, at: u64, label: &str) -> Submission {
    Submission {
        tenant,
        graph: spec().to_graph(),
        priority: 0,
        arrival: SimTime::from_secs(at),
        label: label.to_string(),
    }
}

#[test]
fn warm_resubmission_is_much_faster_and_fully_memoized() {
    let mut f = single(FacilityConfig::demo(7));
    let cold = f.run_now(0, spec().to_graph(), "cold");
    let warm = f.run_now(0, spec().to_graph(), "warm");
    assert!(cold.completed && warm.completed);
    assert_eq!(warm.stats.task_executions, 0, "everything memoized");
    assert_eq!(warm.stats.memoized_tasks as usize, warm.stats.tasks_total);
    assert!(warm.makespan.as_secs_f64() * 3.0 < cold.makespan.as_secs_f64());
    assert!(warm.overlap_bytes > 0);
}

#[test]
fn edited_resubmission_reruns_only_reductions() {
    let mut f = single(FacilityConfig::demo(7));
    let cold = f.run_now(0, spec().to_graph(), "cold");
    let edited = f.run_now(0, spec().with_edit_generation(1).to_graph(), "edit");
    assert!(edited.completed);
    // Process stage (the bulk) memoized; reductions re-ran.
    assert!(edited.stats.memoized_tasks > 0);
    assert!(edited.stats.task_executions > 0);
    assert!(edited.stats.task_executions < cold.stats.task_executions);
}

#[test]
fn quota_blocked_tenant_waits_without_blocking_others() {
    let mut cfg = FacilityConfig::demo(11);
    // Tenant 0 may hold only one run's cores in flight.
    cfg.tenants[0].max_inflight_cores = cfg.run_cores() as u32;
    let mut f = single(cfg);
    f.ingest(vec![sub(0, 0, "a0"), sub(0, 0, "a1"), sub(1, 0, "b0")]);
    let report = f.drain().shards.remove(0);
    assert_eq!(report.records.len(), 3);
    let a1 = report.records.iter().find(|r| r.label == "a1").unwrap();
    let b0 = report.records.iter().find(|r| r.label == "b0").unwrap();
    // b0 was admitted immediately; a1 had to wait for a0's cores.
    assert_eq!(b0.queue_wait(), SimDur::ZERO);
    assert!(a1.queue_wait() > SimDur::ZERO);
}

#[test]
fn byte_quota_evicts_deterministically() {
    let mut cfg = FacilityConfig::demo(13);
    cfg.tenants[0].max_resident_bytes = GB / 2;
    let mut f = single(cfg);
    f.run_now(0, spec().to_graph(), "big");
    let resident = f.shards[0].tenant_resident_bytes(0);
    assert!(
        resident <= GB / 2,
        "quota enforced after writeback: {resident} bytes"
    );
}

#[test]
fn residency_snapshot_is_the_per_name_max() {
    let mut shard = Shard::new(FacilityConfig::demo(5), None, 0, 1);
    let name = |i: u32| CacheName::for_dataset_file("residency-test", i);
    let kind = CacheEntryKind::Intermediate;
    for (w, cache) in shard.caches.iter_mut().enumerate().take(4) {
        for i in 0..6 {
            let size = 100 * (i + 1) + 10 * w as u64;
            cache
                .insert(name(i as u32 * 3 + w as u32), size, kind)
                .unwrap();
        }
        // One name held by every cache, at a different size in each.
        cache.insert(name(99), 60 + 10 * w as u64, kind).unwrap();
    }
    // Worker 3's slice is checked out: only its placeholder remains.
    shard.caches[3] = LocalCache::new(0);
    let want = residency_by_sort(&shard);
    let snapshot = shard.residency(&[1]);
    let sized: Vec<(CacheName, u64)> = snapshot.iter().map(|r| (r.name, r.size)).collect();
    assert_eq!(sized, want);
    assert_eq!(size_in(&want, name(99)), Some(80));
    // Name 3 is on workers 0 (200) and 3 (130); name 18 only on 3.
    assert_eq!(size_in(&want, name(3)), Some(200));
    assert_eq!(size_in(&want, name(18)), None);
    assert!(
        snapshot.windows(2).all(|p| p[0].name < p[1].name),
        "sorted, unique"
    );
    // Worker 1 holds name 99 (at 70, not the largest copy) and name 1.
    let on_slice = |n| snapshot.iter().find(|r| r.name == n).unwrap().on_slice;
    assert!(on_slice(name(99)) && on_slice(name(1)) && !on_slice(name(0)));
}

#[test]
fn preflight_errors_refuse_service() {
    let mut cfg = FacilityConfig::demo(1);
    cfg.tenants[0].weight = 0.0;
    let err = ShardedFacility::new(ShardedConfig::single(cfg))
        .err()
        .expect("zero weight must refuse");
    assert!(err.has_code(vine_lint::Code::F002));
}

#[test]
fn higher_priority_jumps_the_tenant_queue() {
    let mut f = single(FacilityConfig::demo(3));
    // Fill the cluster so later arrivals queue.
    f.ingest(vec![sub(0, 0, "w0"), sub(1, 0, "w1")]);
    let mut low = sub(0, 1, "low");
    low.priority = 0;
    let mut high = sub(0, 1, "high");
    high.priority = 5;
    f.ingest(vec![low, high]);
    let report = f.drain().shards.remove(0);
    let admitted = |label: &str| {
        report
            .records
            .iter()
            .find(|r| r.label == label)
            .unwrap()
            .admitted
    };
    assert!(admitted("high") <= admitted("low"));
}

#[test]
fn extreme_priorities_are_admitted_in_priority_order() {
    let mut f = single(FacilityConfig::demo(3));
    // Fill the cluster so later arrivals queue.
    f.ingest(vec![sub(0, 0, "w0"), sub(1, 0, "w1")]);
    // Distinct scale-downs keep each one off the others' warm caches, so
    // every run takes time and the admissions are strictly ordered.
    let subs = [
        ("min", i32::MIN, 10),
        ("zero", 0, 14),
        ("max", i32::MAX, 30),
    ];
    f.ingest(
        subs.map(|(label, priority, scale)| Submission {
            graph: WorkloadSpec::dv3_small().scaled_down(scale).to_graph(),
            priority,
            ..sub(0, 1, label)
        })
        .to_vec(),
    );
    let report = f.drain().shards.remove(0);
    let admitted = |label: &str| {
        report
            .records
            .iter()
            .find(|r| r.label == label)
            .unwrap()
            .admitted
    };
    assert!(admitted("max") < admitted("zero"));
    assert!(admitted("zero") < admitted("min"));
}

#[test]
fn between_run_preemption_forces_partial_rerun() {
    let mut f = single(FacilityConfig::demo(17));
    let cold = f.run_now(0, spec().to_graph(), "cold");
    // Preempt all but one warm worker between runs (each loses its
    // disk): entries replicated only among the victims are lost for
    // good, the survivor's copies still hit.
    let caches = &mut f.shards[0].caches;
    let warm_workers: Vec<usize> = (0..caches.len())
        .filter(|&w| !caches[w].is_empty())
        .collect();
    assert!(warm_workers.len() > 1, "need survivors and victims");
    for &w in &warm_workers[1..] {
        caches[w].clear_pins();
        caches[w].clear();
    }
    let warm = f.run_now(0, spec().to_graph(), "after-preempt");
    assert!(warm.completed);
    assert!(warm.stats.task_executions > 0, "lost entries must re-run");
    assert!(
        warm.stats.task_executions < cold.stats.task_executions,
        "surviving workers' entries must still hit"
    );
}

#[test]
fn same_seed_same_report_bytes() {
    let run = |seed| {
        let mut f = single(FacilityConfig::demo(seed));
        f.ingest(vec![sub(0, 0, "x"), sub(1, 3, "y"), sub(0, 5, "z")]);
        let r = f.drain().shards.remove(0);
        (r.to_csv(), r.to_metrics().to_text())
    };
    let (csv_a, metrics_a) = run(99);
    let (csv_b, metrics_b) = run(99);
    assert_eq!(csv_a, csv_b);
    assert_eq!(metrics_a, metrics_b);
}

#[test]
fn fair_share_holds_under_injected_faults() {
    let mut cfg = FacilityConfig::demo(23);
    cfg.chaos = FaultPlan::preset("storm").unwrap().with_seed(23);
    cfg.recovery = RecoveryPolicy::hardened();
    let mut f = single(cfg);
    f.ingest(vec![
        sub(0, 0, "a0"),
        sub(1, 0, "b0"),
        sub(0, 2, "a1"),
        sub(1, 2, "b1"),
    ]);
    let report = f.drain().shards.remove(0);
    // Every submission is served even while every inner run is being
    // bombarded; hardened recovery completes or degrades, never
    // wedges the facility.
    assert_eq!(report.records.len(), 4);
    for r in &report.records {
        assert!(
            r.completed || r.degraded,
            "{} neither finished state",
            r.label
        );
    }
    let injected: u64 = report
        .records
        .iter()
        .map(|r| r.stats.preemptions + r.stats.transient_failures)
        .sum();
    assert!(injected > 0, "the storm never reached the inner runs");
    // And the facility stays bit-deterministic under chaos.
    let mut cfg2 = FacilityConfig::demo(23);
    cfg2.chaos = FaultPlan::preset("storm").unwrap().with_seed(23);
    cfg2.recovery = RecoveryPolicy::hardened();
    let mut f2 = single(cfg2);
    f2.ingest(vec![
        sub(0, 0, "a0"),
        sub(1, 0, "b0"),
        sub(0, 2, "a1"),
        sub(1, 2, "b1"),
    ]);
    assert_eq!(report.to_csv(), f2.drain().shards[0].to_csv());
}
