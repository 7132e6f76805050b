//! Differential tests of the engine's optimized index structures against
//! their simple references: `IdMap` and `SmallMap` against `BTreeMap`,
//! and the least-loaded `LoadIndex` against the linear
//! `least_loaded_pick`, under random operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vine_core::arena::{IdMap, SmallMap};
use vine_core::placement::{least_loaded_pick, worker_load, LoadIndex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every operation returns what `BTreeMap` returns, and iteration
    /// stays in ascending id order.
    #[test]
    fn idmap_matches_btreemap(
        ops in proptest::collection::vec((0u8..5, 0u32..40, any::<u32>()), 0..300),
    ) {
        let mut arena: IdMap<u32> = IdMap::new(40);
        let mut lists: IdMap<Vec<u32>> = IdMap::new(40);
        let mut tree: BTreeMap<u32, u32> = BTreeMap::new();
        let mut tree_lists: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (op, id, v) in ops {
            match op {
                0 => prop_assert_eq!(arena.insert(id, v), tree.insert(id, v)),
                1 => prop_assert_eq!(arena.remove(id), tree.remove(&id)),
                2 => {
                    if let Some(x) = arena.get_mut(id) {
                        *x = x.wrapping_add(v);
                    }
                    if let Some(x) = tree.get_mut(&id) {
                        *x = x.wrapping_add(v);
                    }
                }
                3 => {
                    lists.get_or_insert_default(id).push(v);
                    tree_lists.entry(id).or_default().push(v);
                }
                _ => prop_assert_eq!(lists.remove(id), tree_lists.remove(&id)),
            }
            prop_assert_eq!(arena.get(id), tree.get(&id));
            prop_assert_eq!(arena.contains(id), tree.contains_key(&id));
            prop_assert_eq!(arena.len(), tree.len());
            prop_assert_eq!(arena.is_empty(), tree.is_empty());
            let got: Vec<(u32, u32)> = arena.iter().map(|(k, &x)| (k, x)).collect();
            let want: Vec<(u32, u32)> = tree.iter().map(|(&k, &x)| (k, x)).collect();
            prop_assert_eq!(got, want);
            let got: Vec<(u32, Vec<u32>)> = lists.iter().map(|(k, x)| (k, x.clone())).collect();
            let want: Vec<(u32, Vec<u32>)> =
                tree_lists.iter().map(|(&k, x)| (k, x.clone())).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Same for the sorted-vector map, including `clear`.
    #[test]
    fn smallmap_matches_btreemap(
        ops in proptest::collection::vec((0u8..6, 0u32..24, any::<u32>()), 0..300),
    ) {
        let mut small: SmallMap<u32, u32> = SmallMap::default();
        let mut tree: BTreeMap<u32, u32> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 | 1 => {
                    *small.get_or_insert_default(k) = v;
                    *tree.entry(k).or_default() = v;
                }
                2 => prop_assert_eq!(small.remove(k), tree.remove(&k)),
                3 => {
                    if let Some(x) = small.get_mut(k) {
                        *x = x.wrapping_add(v);
                    }
                    if let Some(x) = tree.get_mut(&k) {
                        *x = x.wrapping_add(v);
                    }
                }
                4 => {
                    for (_, x) in small.iter_mut() {
                        *x ^= v;
                    }
                    for x in tree.values_mut() {
                        *x ^= v;
                    }
                }
                _ if v % 16 == 0 => {
                    small.clear();
                    tree.clear();
                }
                _ => {}
            }
            prop_assert_eq!(small.get(k), tree.get(&k));
            prop_assert_eq!(small.contains(k), tree.contains_key(&k));
            prop_assert_eq!(small.len(), tree.len());
            prop_assert_eq!(small.is_empty(), tree.is_empty());
            let got: Vec<(u32, u32)> = small.iter_mut().map(|(k, x)| (k, *x)).collect();
            let want: Vec<(u32, u32)> = tree.iter().map(|(&k, &x)| (k, x)).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Through random busy counts, liveness changes and predicates, the
    /// index picks exactly what the linear scan picks among live workers
    /// (and, for the free-core pick, among live workers with a free core).
    #[test]
    fn load_index_matches_the_linear_scan(
        cores in proptest::collection::vec(0u32..5, 1..24),
        ops in proptest::collection::vec((0usize..24, 0u32..7, any::<bool>(), any::<u64>()), 0..300),
    ) {
        let n = cores.len();
        let mut busy = vec![0u32; n];
        let mut alive = vec![false; n];
        let mut index = LoadIndex::new(n);
        for (w, b, up, mask) in ops {
            let w = w % n;
            busy[w] = b;
            alive[w] = up;
            index.set(w, up.then(|| worker_load(b, cores[w])));
            let loads: Vec<u32> = (0..n).map(|v| worker_load(busy[v], cores[v])).collect();
            let pred = |v: usize| (mask >> (v % 64)) & 1 == 1;
            prop_assert_eq!(
                index.pick(pred),
                least_loaded_pick(&loads, |v| alive[v] && pred(v))
            );
            prop_assert_eq!(
                index.pick_with_free_core(pred),
                least_loaded_pick(&loads, |v| alive[v] && busy[v] < cores[v] && pred(v))
            );
            prop_assert_eq!(
                index.pick(|_| true),
                least_loaded_pick(&loads, |v| alive[v])
            );
        }
    }
}
