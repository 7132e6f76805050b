//! Property tests of fair-share admission: for arbitrary tenant weights,
//! quotas, and submission orders, the facility never over-commits the
//! cluster, never starves a tenant with queued work, and is bit-for-bit
//! deterministic in its admission sequence.

use proptest::prelude::*;
use vine_cluster::ClusterSpec;
use vine_dag::{TaskGraph, TaskKind};
use vine_serve::{FacilityConfig, ShardedConfig, ShardedFacility, Submission, TenantSpec};
use vine_simcore::SimTime;

/// A small process→reduce graph, distinct per (tenant, index) so graphs
/// from different submissions do not accidentally share cachenames.
fn small_graph(tag: usize, width: usize) -> TaskGraph {
    let mb = 1_000_000;
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for c in 0..width {
        let input = g.add_external_file(format!("p{tag}.chunk{c}"), 20 * mb);
        let (_, outs) = g.add_task(
            format!("p{tag}.process{c}"),
            TaskKind::Process,
            vec![input],
            &[5 * mb],
            0.3,
        );
        partials.push(outs[0]);
    }
    g.add_task(
        format!("p{tag}.reduce"),
        TaskKind::Accumulate,
        partials,
        &[mb],
        0.1,
    );
    g
}

/// A single facility (one shard, no shared tier, no stealing).
fn facility(weights: &[f64], workers: usize, workers_per_run: usize, seed: u64) -> ShardedFacility {
    let cfg = FacilityConfig {
        cluster: ClusterSpec::standard(workers),
        tenants: weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                TenantSpec::new(format!("t{i}"), w)
                    .with_core_quota(ClusterSpec::standard(workers).total_cores())
                    .with_byte_quota(u64::MAX / 2)
            })
            .collect(),
        workers_per_run,
        stack: 3,
        seed,
        chaos: vine_core::FaultPlan::none(),
        recovery: vine_core::RecoveryPolicy::default(),
    };
    ShardedFacility::new(ShardedConfig::single(cfg)).expect("generated configs are lint-clean")
}

fn submissions(orders: &[(usize, u64)], n_tenants: usize) -> Vec<Submission> {
    orders
        .iter()
        .enumerate()
        .map(|(i, &(tenant, at))| Submission {
            tenant: tenant % n_tenants,
            graph: small_graph(i, 3 + i % 3),
            priority: (i % 3) as i32,
            arrival: SimTime::from_secs(at % 40),
            label: format!("s{i}"),
            stream_threshold: None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// In-flight cores never exceed the cluster, for any weights, order,
    /// and slice size.
    #[test]
    fn admission_never_exceeds_cluster_cores(
        weights in proptest::collection::vec(1u32..8, 1..4),
        orders in proptest::collection::vec((0usize..4, 0u64..40), 1..7),
        workers in 2usize..5,
        wpr in 1usize..3,
        seed in 0u64..1000,
    ) {
        let weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let wpr = wpr.min(workers);
        let mut f = facility(&weights, workers, wpr, seed);
        f.ingest(submissions(&orders, weights.len()));
        let report = f.drain().shards.remove(0);
        let total = ClusterSpec::standard(workers).total_cores() as u64;
        prop_assert!(
            report.peak_inflight_cores <= total,
            "peak {} > cluster {}",
            report.peak_inflight_cores,
            total
        );
        // Workers per run bounds concurrency too: every record's slice
        // is exactly wpr distinct workers.
        for r in &report.records {
            prop_assert_eq!(r.workers.len(), wpr);
            let mut ws = r.workers.clone();
            ws.sort_unstable();
            ws.dedup();
            prop_assert_eq!(ws.len(), wpr);
        }
    }

    /// Every submission of every tenant is eventually served: the drain
    /// terminates with one record per submission, no matter the weights.
    #[test]
    fn no_tenant_queue_is_starved(
        weights in proptest::collection::vec(1u32..10, 1..4),
        orders in proptest::collection::vec((0usize..4, 0u64..40), 1..8),
        seed in 0u64..1000,
    ) {
        let weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let mut f = facility(&weights, 3, 1, seed);
        let subs = submissions(&orders, weights.len());
        let n = subs.len();
        f.ingest(subs);
        let report = f.drain().shards.remove(0);
        prop_assert_eq!(report.records.len(), n);
        let mut seqs: Vec<usize> = report.records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        prop_assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        prop_assert!(report.records.iter().all(|r| r.completed));
    }

    /// Identical seeds ⇒ identical admission sequences (and identical
    /// exports, byte for byte).
    #[test]
    fn identical_seeds_identical_admissions(
        weights in proptest::collection::vec(1u32..8, 1..4),
        orders in proptest::collection::vec((0usize..4, 0u64..40), 1..7),
        seed in 0u64..1000,
    ) {
        let weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let run = || {
            let mut f = facility(&weights, 3, 1, seed);
            f.ingest(submissions(&orders, weights.len()));
            let report = f.drain().shards.remove(0);
            let admissions: Vec<(usize, SimTime)> = report
                .records
                .iter()
                .map(|r| (r.seq, r.admitted))
                .collect();
            (admissions, report.to_csv(), report.to_metrics().to_text())
        };
        let (adm_a, csv_a, metrics_a) = run();
        let (adm_b, csv_b, metrics_b) = run();
        prop_assert_eq!(adm_a, adm_b);
        prop_assert_eq!(csv_a, csv_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }

    /// Growing a federation N → N+1 shards remaps at most roughly a
    /// 1/(N+1) fraction of tenants — rendezvous hashing's minimal
    /// disruption bound (with slack for hash variance on small samples).
    #[test]
    fn shard_growth_remaps_at_most_its_fair_share(
        n in 2usize..9,
        salt in 0u64..1000,
    ) {
        let tenants: Vec<String> =
            (0..600).map(|i| format!("group-{salt}-{i}")).collect();
        let moved = tenants
            .iter()
            .filter(|t| vine_serve::assign_shard(t, n) != vine_serve::assign_shard(t, n + 1))
            .count();
        // Expected fraction is 1/(n+1); allow 2× for sampling noise.
        let bound = 2.0 * tenants.len() as f64 / (n as f64 + 1.0);
        prop_assert!(
            (moved as f64) <= bound,
            "{moved} of {} tenants remapped at {n}→{} shards (bound {bound:.0})",
            tenants.len(),
            n + 1
        );
    }

    /// A tenant that moves when a shard is added always moves TO the new
    /// shard — never between two pre-existing shards.
    #[test]
    fn shard_growth_never_remaps_between_old_shards(
        n in 1usize..10,
        name in "[a-z]{1,12}",
        salt in 0u64..1_000_000,
    ) {
        let tenant = format!("{name}-{salt}");
        let before = vine_serve::assign_shard(&tenant, n);
        let after = vine_serve::assign_shard(&tenant, n + 1);
        prop_assert!(
            after == before || after == n,
            "tenant {tenant} moved {before} → {after} with new shard {n}"
        );
    }

    /// Weights steer throughput: with a saturated facility and weights
    /// k:1, the heavy tenant's admissions among the first half are at
    /// least as numerous as the light tenant's.
    #[test]
    fn heavier_tenants_are_served_at_least_as_often(
        k in 2u32..6,
        seed in 0u64..1000,
    ) {
        let mut f = facility(&[k as f64, 1.0], 2, 1, seed);
        // Everything arrives at t=0: pure weight competition.
        let orders: Vec<(usize, u64)> = (0..8).map(|i| (i % 2, 0)).collect();
        f.ingest(submissions(&orders, 2));
        let report = f.drain().shards.remove(0);
        let mut by_admission: Vec<_> = report.records.iter().collect();
        by_admission.sort_by_key(|r| (r.admitted, r.seq));
        let first_half = &by_admission[..4];
        let heavy = first_half.iter().filter(|r| r.tenant == 0).count();
        let light = first_half.iter().filter(|r| r.tenant == 1).count();
        prop_assert!(heavy >= light, "heavy {} < light {}", heavy, light);
    }
}
