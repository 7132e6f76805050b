//! Differential tests of warm-cache adoption's name-ordered replica merge
//! against the lookups it replaced, and of the cachename slab a request
//! may carry.

use super::*;
use proptest::prelude::*;

/// Reference replica discovery: for each produced file in id order, one
/// `size_of` lookup per worker; an entry of another size is removed.
fn replicas_by_lookup(
    graph: &TaskGraph,
    cnames: &[CacheName],
    caches: &mut [LocalCache],
) -> Vec<Vec<usize>> {
    let mut replicas = vec![Vec::new(); graph.file_count()];
    for (fi, f) in graph.files().iter().enumerate() {
        if f.producer.is_none() {
            continue;
        }
        let name = cnames[fi];
        for (w, cache) in caches.iter_mut().enumerate() {
            match cache.size_of(name) {
                Some(s) if s == f.size_hint => replicas[fi].push(w),
                Some(_) => {
                    let _ = cache.remove(name);
                }
                None => {}
            }
        }
    }
    replicas
}

/// Tasks drawn from a small pool of names over a few inputs, so two
/// tasks often share a name, inputs and output size, and with them
/// their outputs' cachename; one accumulate consumes every output.
fn graph_of(tasks: &[(u32, usize, u64)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let inputs: Vec<FileId> = (0..3)
        .map(|i| g.add_external_file(format!("in{i}"), MB))
        .collect();
    let mut outs = Vec::new();
    for &(name, input, size) in tasks {
        let (_, o) = g.add_task(
            format!("t{name}"),
            TaskKind::Process,
            vec![inputs[input]],
            &[size],
            1.0,
        );
        outs.extend(o);
    }
    g.add_task("acc", TaskKind::Accumulate, outs, &[MB], 0.5);
    g
}

fn cfg() -> EngineConfig {
    EngineConfig::stack3(ClusterSpec::standard(3), 5).deterministic()
}

/// A cache's contents and lifetime counters (pins are the retention
/// step's, which runs after discovery).
fn contents(c: &LocalCache) -> (Vec<(CacheName, u64)>, u64, u64) {
    let entries = c.iter().map(|(n, s, _)| (n, s)).collect();
    (entries, c.used(), c.lifetime_evictions())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Adoption finds the same replicas, in ascending worker order, and
    /// removes the same stale entries as the per-file lookups, with two
    /// produced files under one cachename and entries of the wrong size.
    #[test]
    fn adoption_merge_matches_the_lookups(
        tasks in collection::vec((0u32..3, 0usize..3, 1u64..3), 1..10),
        entries in collection::vec(collection::vec((0usize..12, 0u32..4, any::<bool>()), 0..12), 3..4),
    ) {
        let tasks: Vec<(u32, usize, u64)> = tasks.into_iter().map(|(n, i, s)| (n, i, s * MB)).collect();
        let graph = graph_of(&tasks);
        let cnames = graph_cachenames(&graph);
        // Entries name a file of the graph (at its size, or off by one
        // byte) or a name the graph does not hold.
        let mut caches: Vec<LocalCache> = entries
            .iter()
            .map(|es| {
                let mut c = LocalCache::new(GB);
                for &(fi, how, pin) in es {
                    let fi = fi % graph.file_count();
                    let size = graph.files()[fi].size_hint;
                    let (name, size) = match how {
                        0 => (CacheName::for_dataset_file("other", fi as u32), size),
                        1 => (cnames[fi], size + 1),
                        _ => (cnames[fi], size),
                    };
                    let _ = c.insert(name, size, CacheEntryKind::Intermediate);
                    if pin {
                        let _ = c.pin(name);
                    }
                }
                c
            })
            .collect();
        let mut reference = caches.clone();
        for c in &mut reference {
            c.clear_pins();
        }
        let want = replicas_by_lookup(&graph, &cnames, &mut reference);

        let mut rec = NullRecorder;
        let sim = Sim::new(cfg(), &graph, Some(cnames), Some(&mut caches), &mut rec, None);
        prop_assert_eq!(&sim.replicas, &want);
        for (wk, c) in sim.workers.iter().zip(&reference) {
            prop_assert_eq!(contents(&wk.cache), contents(c));
        }
    }
}

#[test]
fn a_given_slab_runs_like_a_derived_one() {
    let graph = small_graph(6, 10 * MB, MB);
    let derived = RunRequest::new(cfg(), graph.clone()).run();
    let given = RunRequest::new(cfg(), graph.clone())
        .cachenames(graph_cachenames(&graph))
        .run();
    assert_eq!(derived.makespan, given.makespan);
    assert_eq!(derived.stats, given.stats);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "not this graph's")]
fn a_foreign_slab_is_refused_in_debug_builds() {
    let graph = small_graph(6, 10 * MB, MB);
    let other = small_graph(6, 20 * MB, MB);
    let _ = RunRequest::new(cfg(), graph)
        .cachenames(graph_cachenames(&other))
        .run();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// The cachename → file slab resolves every name as the map it
    /// replaced did, where the last file of a repeated cachename wins and
    /// a name the graph does not hold resolves to nothing. The graph
    /// still runs cold and then warm with pre-flight off (pre-flight
    /// refuses its repeated file names, G003).
    #[test]
    fn name_slab_matches_a_last_wins_map(
        tasks in collection::vec((0u32..3, 0usize..3, 1u64..3), 1..10),
    ) {
        let tasks: Vec<(u32, usize, u64)> = tasks.into_iter().map(|(n, i, s)| (n, i, s * MB)).collect();
        let graph = graph_of(&tasks);
        let cnames = graph_cachenames(&graph);
        let reference: std::collections::BTreeMap<CacheName, FileId> = graph
            .files()
            .iter()
            .map(|f| (cnames[f.id.0 as usize], f.id))
            .collect();
        let mut rec = NullRecorder;
        let sim = Sim::new(cfg(), &graph, Some(cnames.clone()), None, &mut rec, None);
        let foreign = (0..4).map(|i| CacheName::for_dataset_file("other", i));
        for name in cnames.iter().copied().chain(foreign) {
            prop_assert_eq!(file_named(&sim.name_to_file, name), reference.get(&name).copied());
        }
        drop(sim);

        let mut off = cfg();
        off.preflight = Preflight::Off;
        let mut caches = cold_caches(&off.cluster);
        for _ in 0..2 {
            let r = RunRequest::new(off.clone(), graph.clone())
                .warm_caches(&mut caches)
                .run();
            prop_assert!(r.completed(), "{:?}", r.outcome);
        }
    }
}
