//! fig-shards — the federation experiment: N facility shards over one
//! shared content-addressed object tier (`vine-store`), swept across
//! shard counts and tenant-population sizes. See DESIGN.md §13.
//!
//! `vine-fig fig-shards [max_tenants=100000]` runs the populations of
//! at most `max_tenants` tenants. Each cell of the sweep builds a
//! [`ShardedFacility`] (store enabled, work stealing on), drives it with
//! the seeded multi-tenant load generator, and runs the whole cell
//! **twice**, asserting the two [`ShardedReport::digest`]s are
//! bit-identical — the lockstep replay guarantee. The per-cell rows land
//! in `results/shards.csv`.
//!
//! It also asserts that shards=1 with the store disabled reproduces the
//! pinned digest of the single-facility CSV export on the same
//! submissions. The claim: for every tenant population, the warm-hit
//! ratio at shards=8 stays within 5 % (relative) of shards=1 — the
//! shared tier must make a federated facility as warm as a monolithic
//! one.
//!
//! Its check runs only the CI cell (shards=4, the smallest population,
//! seed 42), replayed twice in-process, and returns the line
//! `digest=<hex> warm_hit=<ratio>`, which must equal the committed
//! `results/shards_gate.txt`.

use vine_data::fnv1a64;
use vine_serve::{
    FacilityConfig, LoadGen, ShardedConfig, ShardedFacility, ShardedReport, Submission,
};
use vine_store::{ShardCounters, DEMO_CAPACITY};

use super::Output;
use crate::lab::Lab;
use crate::report;

const SEED: u64 = 42;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One tenant-population row of the sweep: population size, submissions
/// per tenant, the workload scale-down (larger populations run smaller
/// graphs so the sweep stays tractable), and the FNV-1a digest of the
/// single-facility CSV export on its submissions (store off, no
/// stealing), captured before the one-shard federation became the only
/// facility.
const TENANT_SWEEP: [(usize, usize, usize, u64); 3] = [
    (1_000, 2, 40, 0xeeb5_ba8c_d04e_e61b),
    (10_000, 1, 80, 0x6f66_9405_8f9f_0441),
    (100_000, 1, 160, 0x2013_0224_c4eb_4d65),
];

/// The federation template for one cell.
fn config(n_tenants: usize, shards: usize, seed: u64, store: bool) -> ShardedConfig {
    let mut base = FacilityConfig::demo(seed);
    let slice = base.run_cores() as u32;
    let disk = base.cluster.worker.disk_bytes * base.cluster.workers as u64;
    base.tenants = (0..n_tenants)
        .map(|i| {
            vine_serve::TenantSpec::new(format!("tenant-{i}"), 1.0)
                .with_core_quota(slice)
                .with_byte_quota(disk / 2)
        })
        .collect();
    ShardedConfig {
        base,
        shards,
        store: store.then_some(DEMO_CAPACITY),
        work_stealing: true,
    }
}

/// The seeded open-loop schedule for one cell. The inter-arrival mean
/// scales with the population so the *aggregate* offered load is the
/// same at every population size; a realistic mix (rotated first specs,
/// resubmits, edits) exercises both cross-tenant sharing and the store.
fn schedule(n_tenants: usize, subs: usize, scale_down: usize, seed: u64) -> Vec<Submission> {
    LoadGen {
        mean_interarrival_s: 0.12 * n_tenants as f64,
        submissions_per_tenant: subs,
        scale_down,
        first_spec_by_tenant: true,
        ..LoadGen::default()
    }
    .generate(n_tenants, seed)
}

/// Run one cell twice (build, ingest, drain), asserting the two
/// reports' digests are equal; return the report plus the tier's summed
/// per-shard counters.
fn replayed_cell(
    n_tenants: usize,
    subs: usize,
    scale: usize,
    shards: usize,
) -> (ShardedReport, ShardCounters) {
    let run = || {
        let cfg = config(n_tenants, shards, SEED, true);
        let mut fed = ShardedFacility::new(cfg).expect("sweep config is clean");
        fed.ingest(schedule(n_tenants, subs, scale, SEED));
        let rep = fed.drain();
        let mut t = ShardCounters::default();
        if let Some(store) = fed.store() {
            let store = store.borrow();
            for c in (0..store.shard_count()).map(|s| store.counters(s)) {
                t.hits += c.hits;
                t.misses += c.misses;
                t.evictions += c.evictions;
                t.fetched_bytes += c.fetched_bytes;
            }
        }
        (rep, t)
    };
    let ((rep, store), (replay, _)) = (run(), run());
    assert_eq!(
        rep.digest(),
        replay.digest(),
        "cell (shards={shards}, tenants={n_tenants}) must replay bit-identically"
    );
    (rep, store)
}

/// The shards=1 degeneracy check: with the store disabled and no
/// stealing, the federation's one shard must export exactly the pinned
/// single-facility CSV.
fn assert_single_shard_identity(lab: &Lab, population: (usize, usize, usize, u64)) {
    let (n_tenants, subs, scale, pinned) = population;
    let mut fed = ShardedFacility::new(ShardedConfig {
        work_stealing: false,
        ..config(n_tenants, 1, SEED, false)
    })
    .expect("single-shard config is clean");
    fed.ingest(schedule(n_tenants, subs, scale, SEED));
    let rep = fed.drain();
    assert_eq!(
        fnv1a64(rep.shards[0].to_csv().as_bytes()),
        pinned,
        "a 1-shard storeless federation must reproduce the pinned single-facility CSV"
    );
    lab.note("  identity: shards=1 (store off) matches the pinned single-facility CSV");
}

/// The CI cell: the smallest population at shards=4, replayed twice
/// in-process.
pub(super) fn check(_lab: &mut Lab, _args: &[usize]) -> Output {
    let (t, subs, scale, _) = TENANT_SWEEP[0];
    let (rep, _) = replayed_cell(t, subs, scale, 4);
    let line = format!(
        "digest={:016x} warm_hit={:.6}",
        rep.digest(),
        rep.warm_hit_ratio()
    );
    let mut out = Output::default();
    out.line(&line);
    out.file("shards_gate.txt", format!("{line}\n"));
    out
}

pub(super) fn figure(lab: &mut Lab, args: &[usize]) -> Output {
    let mut out = Output::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for population in TENANT_SWEEP.into_iter().filter(|p| p.0 <= args[0]) {
        assert_single_shard_identity(lab, population);
        let (tenants, subs, scale, _) = population;
        let mut warm_by_shards: Vec<(usize, f64)> = Vec::new();
        for shards in SHARD_COUNTS {
            // vine-audit: allow(A103) -- wall-time progress for the human at the terminal; cell results use only simulated time
            let t0 = std::time::Instant::now();
            let (rep, store) = replayed_cell(tenants, subs, scale, shards);
            let warm_hit = rep.warm_hit_ratio();
            let p99_wait_s = rep.queue_wait_percentile(0.99);
            lab.note(format_args!(
                "  shards={shards} tenants={tenants} warm-hit {:.1}% p99 wait {p99_wait_s:.1}s steals {} ({:.1}s wall)",
                100.0 * warm_hit,
                rep.steals,
                t0.elapsed().as_secs_f64()
            ));
            warm_by_shards.push((shards, warm_hit));
            rows.push(vec![
                shards.to_string(),
                tenants.to_string(),
                rep.total_records().to_string(),
                format!("{warm_hit:.6}"),
                format!("{p99_wait_s:.3}"),
                store.hits.to_string(),
                store.misses.to_string(),
                store.evictions.to_string(),
                store.fetched_bytes.to_string(),
                rep.steals.to_string(),
                format!("{:.1}", rep.horizon_s()),
                format!("{:016x}", rep.digest()),
            ]);
        }
        let wh = |n: usize| warm_by_shards.iter().find(|(s, _)| *s == n).unwrap().1;
        let (one, eight) = (wh(1), wh(8));
        if (one - eight).abs() > 0.05 * one.max(1e-9) {
            out.fail(format!(
                "tenants={tenants}: warm-hit at shards=8 ({eight:.4}) drifted >5% from shards=1 ({one:.4})"
            ));
        }
        lab.note(format_args!(
            "  tenants={tenants}: warm-hit {:.1}% at shards=1 -> {:.1}% at shards=8",
            100.0 * one,
            100.0 * eight
        ));
    }

    let header = [
        "shards",
        "tenants",
        "records",
        "warm_hit",
        "p99_queue_wait_s",
        "store_hits",
        "store_misses",
        "store_evictions",
        "store_fetch_bytes",
        "steals",
        "horizon_s",
        "digest",
    ];
    out.file("shards.csv", report::to_csv(&header, &rows));
    let table: Vec<Vec<String>> = rows.iter().map(|r| r[..5].to_vec()).collect();
    let shown = ["Shards", "Tenants", "Records", "Warm-hit", "p99 wait"];
    out.line("\nFIG-SHARDS: federation scaling (store on, stealing on)\n");
    out.table(&shown, &table, None);
    if out.failures.is_empty() {
        out.line("All cells replayed bit-identically; warm-hit flat across shard counts.");
    }
    out
}
