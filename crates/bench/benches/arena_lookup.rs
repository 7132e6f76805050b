//! Arena (`IdMap`) vs. `BTreeMap` for the engine's task-keyed hot state.
//!
//! The engine keys assignments/spec-attempts/pending-attrs by dense task
//! ids fixed at plan-build time. This measures the representation switch
//! in isolation: random lookups and an insert/remove churn over a 20k-id
//! space with ~2k live entries — roughly DV3-Full's concurrent-assignment
//! shape.
//!
//! Run as a smoke test with `cargo bench --bench arena_lookup -- --test`.

use std::collections::BTreeMap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vine_core::arena::IdMap;

const SPACE: u32 = 20_000;
const LIVE: u32 = 2_000;
const OPS: u32 = 100_000;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn bench_task_lookup(c: &mut Criterion) {
    let ids: Vec<u32> = (0..LIVE)
        .map(|i| (mix(i as u64) % SPACE as u64) as u32)
        .collect();
    let probes: Vec<u32> = (0..OPS)
        .map(|i| (mix(1_000_000 + i as u64) % SPACE as u64) as u32)
        .collect();
    // Churn toggles within a window ~2x the steady-state live set, like the
    // engine's assignment table: inserts and removes balance, live stays small.
    let churn: Vec<u32> = (0..OPS)
        .map(|i| (mix(2_000_000 + i as u64) % (2 * LIVE) as u64) as u32)
        .collect();

    let mut arena: IdMap<u64> = IdMap::new(SPACE as usize);
    let mut tree: BTreeMap<u32, u64> = BTreeMap::new();
    for &id in &ids {
        arena.insert(id, id as u64);
        tree.insert(id, id as u64);
    }

    let mut g = c.benchmark_group("task_lookup");
    g.bench_function("get/arena", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &probes {
                if let Some(&v) = arena.get(p) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("get/btreemap", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &probes {
                if let Some(&v) = tree.get(&p) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("churn/arena", |b| {
        b.iter(|| {
            let mut m: IdMap<u64> = IdMap::new(SPACE as usize);
            for &p in &churn {
                if m.remove(p).is_none() {
                    m.insert(p, p as u64);
                }
            }
            black_box(m.len())
        })
    });
    g.bench_function("churn/btreemap", |b| {
        b.iter(|| {
            let mut m: BTreeMap<u32, u64> = BTreeMap::new();
            for &p in &churn {
                if m.remove(&p).is_none() {
                    m.insert(p, p as u64);
                }
            }
            black_box(m.len())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_task_lookup
}
criterion_main!(benches);
