//! Differential test of `ObjectStore`'s name and LRU indexes against a
//! linear-scan reference: random `put`/`lookup`/`pin`/`unpin`/`evict`
//! sequences on a tiny capacity, so nearly every insert evicts, over a
//! dozen names and over thousands.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vine_storage::CacheName;
use vine_store::{ObjectStore, PutOutcome, ShardCounters};

const SHARDS: usize = 3;
const NAMES: u32 = 12;
const WIDE_NAMES: u32 = 4096;

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

/// Apply `ops` (`(op, shard, name, size)`) to the store and the
/// reference, comparing every return value, the touched name's size and
/// all accounting after each op, and every name's size every `sweep`
/// ops and at the end. Panics on the first disagreement.
fn run_ops(capacity: u64, names: u32, sweep: usize, ops: &[(u8, usize, u32, u64)]) {
    let mut store = ObjectStore::new(capacity, SHARDS);
    let mut reference = LinearStore::new(capacity);
    for (k, &(op, shard, i, size)) in ops.iter().enumerate() {
        let n = name(i);
        match op {
            0 | 1 => assert_eq!(store.put(shard, n, size), reference.put(shard, n, size)),
            2 => {
                // Half the lookups ask for the resident size, so they hit.
                let size = reference.entries.get(&n).map_or(size, |e| e.size);
                assert_eq!(
                    store.lookup(shard, n, size),
                    reference.lookup(shard, n, size)
                );
            }
            3 => assert_eq!(store.pin(n), reference.pin(n)),
            4 => {
                // An unpin without a pin is a debug-build assertion;
                // release builds check its saturating behaviour too.
                let unpinned = reference.entries.get(&n).is_some_and(|e| e.pins == 0);
                if !(cfg!(debug_assertions) && unpinned) {
                    assert_eq!(store.unpin(n), reference.unpin(n));
                }
            }
            _ => assert_eq!(store.evict(n), reference.evict(n)),
        }
        assert_eq!(store.size_of(n), reference.entries.get(&n).map(|e| e.size));
        if (k + 1) % sweep == 0 || k + 1 == ops.len() {
            for j in 0..names {
                assert_eq!(
                    store.size_of(name(j)),
                    reference.entries.get(&name(j)).map(|e| e.size)
                );
            }
        }
        for s in 0..SHARDS {
            assert_eq!(store.counters(s), reference.counters[s]);
        }
        assert_eq!(store.used(), reference.used);
        assert_eq!(store.peak_used(), reference.peak_used);
        assert_eq!(store.len(), reference.entries.len());
        assert_eq!(store.is_empty(), reference.entries.is_empty());
    }
}

/// Name indices for a wide test: puts mostly bring new names, while
/// the other ops mostly address one of the last 64 names put, so they
/// meet resident, pinned and just-evicted entries. Half the pins become
/// unpins, so pinned entries do not fill the tier.
fn wide_ops(raw: Vec<(u8, usize, u32, u64, u8)>) -> Vec<(u8, usize, u32, u64)> {
    let mut recent: Vec<u32> = Vec::new();
    raw.into_iter()
        .map(|(op, shard, i, size, back)| {
            let op = if op == 3 && back % 2 == 1 { 4 } else { op };
            let i = match (op, recent.len()) {
                (0 | 1, _) | (_, 0) => i,
                (_, r) if back < 192 => recent[r - 1 - usize::from(back) % r],
                _ => i,
            };
            if op <= 1 {
                if recent.len() == 64 {
                    recent.remove(0);
                }
                recent.push(i);
            }
            (op, shard, i, size)
        })
        .collect()
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
        run_ops(capacity, NAMES, 1, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thousands of names through a tier of a few dozen objects: the
    /// hash index grows, then churns as nearly every insert evicts, and
    /// still agrees with the linear scan on every return value and all
    /// accounting.
    #[test]
    fn wide_names_churn_like_the_linear_scan(
        capacity in 48u64..120,
        raw in proptest::collection::vec(
            (0u8..6, 0..SHARDS, 0..WIDE_NAMES, 1u64..5, any::<u8>()),
            1000..3000,
        ),
    ) {
        run_ops(capacity, WIDE_NAMES, 500, &wide_ops(raw));
    }
}
