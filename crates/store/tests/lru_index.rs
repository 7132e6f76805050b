//! Differential test of `ObjectStore`'s LRU index against a linear-scan
//! reference: random `put`/`lookup`/`pin`/`unpin`/`evict` sequences on
//! a tiny capacity, so nearly every insert evicts.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vine_storage::CacheName;
use vine_store::{ObjectStore, PutOutcome, ShardCounters, StoreConfig};

const SHARDS: usize = 3;
const NAMES: u32 = 12;

fn name(i: u32) -> CacheName {
    CacheName::for_dataset_file("lru-index-test", i)
}

struct RefEntry {
    size: u64,
    pins: u32,
    last_use: u64,
}

/// The store's semantics with the victim found by scanning every entry
/// for the least `(last_use, name)` among the unpinned ones.
struct LinearStore {
    capacity: u64,
    entries: BTreeMap<CacheName, RefEntry>,
    used: u64,
    peak_used: u64,
    tick: u64,
    counters: Vec<ShardCounters>,
}

impl LinearStore {
    fn new(capacity: u64) -> Self {
        LinearStore {
            capacity,
            entries: BTreeMap::new(),
            used: 0,
            peak_used: 0,
            tick: 0,
            counters: vec![ShardCounters::default(); SHARDS],
        }
    }

    fn lookup(&mut self, shard: usize, name: CacheName, size: u64) -> bool {
        self.tick += 1;
        match self.entries.get_mut(&name) {
            Some(e) if e.size == size => {
                e.last_use = self.tick;
                self.counters[shard].hits += 1;
                true
            }
            _ => {
                self.counters[shard].misses += 1;
                false
            }
        }
    }

    fn put(&mut self, shard: usize, name: CacheName, size: u64) -> PutOutcome {
        self.tick += 1;
        if let Some(e) = self.entries.get(&name) {
            return if e.size == size {
                PutOutcome::AlreadyPresent
            } else {
                PutOutcome::SizeMismatch
            };
        }
        if size > self.capacity {
            return PutOutcome::WontFit;
        }
        while self.used + size > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(n, e)| (e.last_use, **n))
                .map(|(n, _)| *n);
            let Some(v) = victim else {
                return PutOutcome::WontFit;
            };
            let gone = self.entries.remove(&v).expect("victim is resident");
            self.used -= gone.size;
            self.counters[shard].evictions += 1;
        }
        let last_use = self.tick;
        self.entries.insert(
            name,
            RefEntry {
                size,
                pins: 0,
                last_use,
            },
        );
        self.used += size;
        self.peak_used = self.peak_used.max(self.used);
        self.counters[shard].puts += 1;
        PutOutcome::Inserted
    }

    fn pin(&mut self, name: CacheName) -> bool {
        self.entries.get_mut(&name).map(|e| e.pins += 1).is_some()
    }

    fn unpin(&mut self, name: CacheName) -> bool {
        self.entries
            .get_mut(&name)
            .map(|e| e.pins = e.pins.saturating_sub(1))
            .is_some()
    }

    fn evict(&mut self, name: CacheName) -> Option<u64> {
        match self.entries.get(&name) {
            Some(e) if e.pins == 0 => {
                let size = e.size;
                self.entries.remove(&name);
                self.used -= size;
                Some(size)
            }
            _ => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every return value, every name's size and all accounting agree
    /// with the linear scan after every operation.
    #[test]
    fn lru_index_matches_linear_scan(
        capacity in 8u64..40,
        ops in proptest::collection::vec((0u8..6, 0..SHARDS, 0..NAMES, 0u64..14), 0..400),
    ) {
        let mut store = ObjectStore::new(StoreConfig::demo().with_capacity(capacity), SHARDS);
        let mut reference = LinearStore::new(capacity);
        for (op, shard, i, size) in ops {
            let n = name(i);
            match op {
                0 | 1 => prop_assert_eq!(store.put(shard, n, size), reference.put(shard, n, size)),
                2 => {
                    // Half the lookups ask for the resident size, so they hit.
                    let size = reference.entries.get(&n).map_or(size, |e| e.size);
                    prop_assert_eq!(store.lookup(shard, n, size), reference.lookup(shard, n, size));
                }
                3 => prop_assert_eq!(store.pin(n), reference.pin(n)),
                4 => {
                    // An unpin without a pin is a debug-build assertion;
                    // release builds check its saturating behaviour too.
                    let unpinned = reference.entries.get(&n).is_some_and(|e| e.pins == 0);
                    if !(cfg!(debug_assertions) && unpinned) {
                        prop_assert_eq!(store.unpin(n), reference.unpin(n));
                    }
                }
                _ => prop_assert_eq!(store.evict(n), reference.evict(n)),
            }
            for j in 0..NAMES {
                prop_assert_eq!(store.size_of(name(j)), reference.entries.get(&name(j)).map(|e| e.size));
            }
            for s in 0..SHARDS {
                prop_assert_eq!(store.counters(s), reference.counters[s]);
            }
            prop_assert_eq!(store.used(), reference.used);
            prop_assert_eq!(store.peak_used(), reference.peak_used);
            prop_assert_eq!(store.len(), reference.entries.len());
        }
    }
}
