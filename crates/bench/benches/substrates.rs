//! Micro-benchmarks of the core data structures and substrates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use vine_cluster::ClusterSpec;
use vine_core::{graph_cachenames, EngineConfig};
use vine_dag::rewrite::add_tree_reduce;
use vine_dag::{MemoPlan, ReadyTracker, TaskGraph, TaskKind};
use vine_data::{EventGenerator, Hist1D};
use vine_net::fairshare::{max_min_fair, FlowSpec};
use vine_net::{Fabric, NodeId};
use vine_serve::LoadGen;
use vine_simcore::{EventQueue, SimTime};
use vine_storage::{CacheEntryKind, CacheName, LocalCache};
use vine_store::ObjectStore;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_10k", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_micros(t), t);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

fn bench_fairshare(c: &mut Criterion) {
    // The Work Queue pattern at full scale: 400 flows over one uplink.
    let flows: Vec<FlowSpec> = (0..400)
        .map(|w| FlowSpec {
            egress_link: 0,
            ingress_link: 1 + w,
            rate_cap: f64::INFINITY,
        })
        .collect();
    let caps: Vec<f64> = std::iter::once(1.5e9)
        .chain((0..400).map(|_| 1.25e9))
        .collect();
    c.bench_function("fairshare/manager_fanout_400", |b| {
        b.iter(|| black_box(max_min_fair(black_box(&flows), black_box(&caps))))
    });

    // The TaskVine pattern: disjoint peer pairs.
    let peer_flows: Vec<FlowSpec> = (0..200)
        .map(|i| FlowSpec {
            egress_link: 2 * i,
            ingress_link: 2 * i + 1,
            rate_cap: f64::INFINITY,
        })
        .collect();
    let peer_caps = vec![1.25e9; 400];
    c.bench_function("fairshare/peer_pairs_200", |b| {
        b.iter(|| black_box(max_min_fair(black_box(&peer_flows), black_box(&peer_caps))))
    });

    // Campus shape, as the fabric solves it on every flow start and
    // finish: a shared-FS endpoint (node 0) plus 1200 workers, 2402 links
    // in all, of which only the ~900 flows' endpoints are loaded. Peer
    // flows run uncapped; shared-FS reads carry a per-stream cap.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let workers = 1200;
    let mut campus_caps = vec![12.5e9, 12.5e9];
    campus_caps.extend(std::iter::repeat_n(1.25e9, 2 * workers));
    let campus_flows: Vec<FlowSpec> = (0..900)
        .map(|i| {
            let dst = rng.gen_range(1..=workers);
            let (src, rate_cap) = if i % 3 == 0 {
                (0, 60e6)
            } else {
                let src = rng.gen_range(1..workers);
                (if src >= dst { src + 1 } else { src }, f64::INFINITY)
            };
            FlowSpec {
                egress_link: 2 * src,
                ingress_link: 2 * dst + 1,
                rate_cap,
            }
        })
        .collect();
    c.bench_function("fairshare/campus_1200", |b| {
        b.iter(|| {
            black_box(max_min_fair(
                black_box(&campus_flows),
                black_box(&campus_caps),
            ))
        })
    });

    // The fabric as the engine drives it: ~900 flows over the same
    // 1 201 nodes, where each cycle starts a flow, reads the next
    // completion, completes that flow and reads again. Peer flows leave
    // 40 producer workers, as staged outputs do, so a solve takes tens of
    // water-filling iterations (the engine's campus runs take ~34) rather
    // than one per loaded link.
    let mut fab = Fabric::new();
    let fs = fab.add_symmetric_node(12.5e9);
    let nodes: Vec<NodeId> = (0..workers)
        .map(|_| fab.add_symmetric_node(1.25e9))
        .collect();
    let mut start = move |fab: &mut Fabric, i: usize| {
        let dst = rng.gen_range(0..workers);
        let (src, rate_cap) = if i.is_multiple_of(3) {
            (fs, 60e6)
        } else {
            let src = rng.gen_range(0..40);
            (nodes[if src >= dst { src + 1 } else { src }], f64::INFINITY)
        };
        let bytes = rng.gen_range(1_000_000..1_000_000_000);
        fab.start_flow(fab.now(), src, nodes[dst], bytes, rate_cap);
    };
    for i in 0..900 {
        start(&mut fab, i);
    }
    let mut i = 900;
    c.bench_function("fabric/campus_churn", |b| {
        b.iter(|| {
            i += 1;
            start(&mut fab, i);
            let (t, id) = fab.next_completion().expect("flows are active");
            fab.complete_flow(t, id);
            black_box(fab.next_completion())
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/insert_evict_churn", |b| {
        b.iter(|| {
            let mut cache = LocalCache::new(100_000);
            for i in 0..1000u32 {
                let name = CacheName::for_dataset_file("bench", i);
                let _ = cache.insert(name, 1000, CacheEntryKind::Intermediate);
            }
            black_box(cache.used())
        })
    });

    // A staged input's cache hit: each iteration pins every one of
    // `RESIDENT` clean entries once.
    c.bench_function("cache/pin_clean", |b| {
        let names = resident_names(RESIDENT);
        let mut cache = LocalCache::new(u64::MAX);
        for &n in &names {
            let _ = cache.insert(n, 1000, CacheEntryKind::Input);
        }
        b.iter(|| {
            for &n in &names {
                black_box(cache.pin_clean(n));
            }
        })
    });
}

/// Objects in the warm tier and worker cache of the probe cases below.
const RESIDENT: u32 = 4096;

fn resident_names(n: u32) -> Vec<CacheName> {
    (0..n)
        .map(|i| CacheName::for_dataset_file("bench", i))
        .collect()
}

/// The shared tier's publish path: each iteration puts `RESIDENT`
/// one-byte objects into a tier that holds exactly `RESIDENT`.
fn bench_store(c: &mut Criterion) {
    let tier = || ObjectStore::new(u64::from(RESIDENT), 1);

    // Names cycle through twice the capacity, so each put finds its name
    // evicted long ago: one insert and one eviction.
    c.bench_function("store/put_evicting", |b| {
        let names = resident_names(2 * RESIDENT);
        let mut store = tier();
        for &n in &names[..RESIDENT as usize] {
            store.put(0, n, 1);
        }
        let mut next = RESIDENT as usize;
        b.iter(|| {
            for _ in 0..RESIDENT {
                black_box(store.put(0, names[next], 1));
                next = (next + 1) % names.len();
            }
        })
    });

    // Every put names a resident object: the publish of an unchanged
    // intermediate.
    c.bench_function("store/put_present", |b| {
        let names = resident_names(RESIDENT);
        let mut store = tier();
        for &n in &names {
            store.put(0, n, 1);
        }
        b.iter(|| {
            for &n in &names {
                black_box(store.put(0, n, 1));
            }
        })
    });
}

fn bench_dag(c: &mut Criterion) {
    c.bench_function("dag/build_tree_reduce_4096", |b| {
        b.iter(|| {
            let mut g = TaskGraph::new();
            let leaves: Vec<_> = (0..4096)
                .map(|i| g.add_external_file(format!("l{i}"), 100))
                .collect();
            add_tree_reduce(&mut g, "acc", &leaves, 16, 10, 0.1);
            black_box(g.task_count())
        })
    });

    c.bench_function("dag/tracker_execute_10k", |b| {
        let mut g = TaskGraph::new();
        let mut partials = Vec::new();
        for i in 0..10_000 {
            let f = g.add_external_file(format!("c{i}"), 10);
            let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[1], 1.0);
            partials.push(outs[0]);
        }
        add_tree_reduce(&mut g, "acc", &partials, 16, 1, 0.1);
        b.iter(|| {
            let mut t = ReadyTracker::new(&g);
            let mut n = 0;
            while let Some(task) = t.pop_ready() {
                t.mark_done(task);
                n += 1;
            }
            black_box(n)
        })
    });
}

/// The fixed costs every facility admission pays before its inner run's
/// event loop, on one facility-load graph against a 4-worker slice: the
/// largest of `LoadGen`'s fresh workloads at scale-down 15 (RS-TriPhoton,
/// 293 tasks over 526 files).
fn bench_admission(c: &mut Criterion) {
    let load = LoadGen {
        scale_down: 15,
        submissions_per_tenant: 3,
        resubmit_prob: 0.0,
        edit_prob: 0.0,
        ..LoadGen::default()
    };
    let graph = (load.generate(1, 7).into_iter())
        .map(|s| s.graph)
        .max_by_key(TaskGraph::task_count)
        .expect("three submissions");
    let facts = EngineConfig::stack3(ClusterSpec::standard(4), 7).lint_facts();
    c.bench_function("admission/lint_all", |b| {
        b.iter(|| black_box(vine_lint::lint_all(black_box(&graph), &facts)))
    });

    // An edited resubmit: the processing stage is warm, reductions rerun.
    let plan = MemoPlan::compute(&graph, |f| {
        graph
            .file(f)
            .producer
            .is_some_and(|p| graph.task(p).kind == TaskKind::Process)
    });
    c.bench_function("admission/tracker_with_warm_state", |b| {
        b.iter(|| {
            let t = ReadyTracker::with_warm_state(&graph, plan.resident_mask(), plan.skip_mask());
            black_box(t.ready_count())
        })
    });

    c.bench_function("admission/graph_cachenames", |b| {
        b.iter(|| black_box(graph_cachenames(black_box(&graph))))
    });
}

fn bench_data(c: &mut Criterion) {
    c.bench_function("data/generate_1k_events", |b| {
        let gen = EventGenerator::default();
        let mut chunk = 0u32;
        b.iter(|| {
            chunk += 1;
            black_box(gen.generate("bench", 0, chunk, 1000))
        })
    });

    c.bench_function("data/hist_fill_merge", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.gen_range(0.0..300.0)).collect();
        b.iter(|| {
            let mut a = Hist1D::new(100, 0.0, 300.0);
            let mut bh = Hist1D::new(100, 0.0, 300.0);
            a.fill_all(&xs[..5000]);
            bh.fill_all(&xs[5000..]);
            a.merge(&bh);
            black_box(a.total())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_fairshare, bench_store, bench_cache, bench_dag, bench_admission, bench_data
}
criterion_main!(benches);
