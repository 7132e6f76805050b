//! The shared object tier: immutable content-addressed entries, LRU +
//! refcount eviction (O(log n) per victim, from an index of the
//! unpinned entries), per-shard accounting, and a fabric-backed fetch
//! cost model.
//!
//! Entries live in a hash index over their cachenames: every access is
//! a point lookup, and nothing ever walks the entries, so no order can
//! leak into a result. The LRU index is the only ordered structure.
//!
//! The store holds *index* state only — `(cachename, size)` pairs — on
//! the same grounds as [`vine_storage::LocalCache`]: the simulation
//! reasons about bytes and time, not payloads. The facility's
//! [`ResultStore`](https://docs.rs) keeps actual physics blobs; this
//! tier is the inter-shard warm-cache fabric.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use vine_net::{Fabric, NodeId};
use vine_obs::MetricsRegistry;
use vine_simcore::units::{gbit_per_sec, GB};
use vine_simcore::SimDur;
use vine_storage::CacheName;

/// Byte capacity of the demonstration tier (the VAST-class tier the
/// demo federation attaches).
pub const DEMO_CAPACITY: u64 = 200 * GB;
/// Fixed per-fetch cost (request + metadata round trip).
const FETCH_LATENCY: SimDur = SimDur::from_millis(1);
/// Store egress bandwidth, bytes/second (shared by all shards): a
/// VAST-class 100 Gb/s.
const STORE_BW: f64 = gbit_per_sec(100.0);
/// Per-shard ingress bandwidth, bytes/second (10 Gb/s).
const SHARD_BW: f64 = gbit_per_sec(10.0);

/// What a `put` did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// The object is now resident (it was not before).
    Inserted,
    /// An identical object was already resident; nothing changed.
    AlreadyPresent,
    /// An object with this name but a *different* size is resident —
    /// a lineage-signature collision that immutability forbids. The
    /// store keeps the original.
    SizeMismatch,
    /// The object exceeds what eviction could ever free (pinned bytes
    /// plus the object exceed capacity); it was not admitted.
    WontFit,
}

/// Per-shard accounting, exported through [`ObjectStore::export_metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Lookups that found the object resident (size agreeing).
    pub hits: u64,
    /// Lookups that found nothing (or a size mismatch).
    pub misses: u64,
    /// Objects this shard's puts evicted to make room.
    pub evictions: u64,
    /// Objects this shard inserted.
    pub puts: u64,
    /// Bytes this shard fetched out of the store.
    pub fetched_bytes: u64,
}

#[derive(Clone, Debug)]
struct Entry {
    size: u64,
    pins: u32,
    last_use: u64,
}

/// Hashes a [`CacheName`] by folding its two 64-bit halves. Cachenames
/// are already hashes, so no further mixing is needed; the rotation
/// puts each half's well-mixed high bits where the table reads them
/// (bucket index from the low bits, tag from the high ones).
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u128(&mut self, v: u128) {
        self.0 ^= ((v >> 64) as u64).rotate_left(32) ^ v as u64;
    }

    /// Not reached by `CacheName` keys; folds any other bytes in.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// The tier's entries by name: point lookups and nothing else. It has
/// no iterator, so its (fixed, seedless) hash order cannot reach any
/// output.
#[derive(Default)]
struct NameIndex(
    // vine-audit: allow(A101) -- point lookups only; never iterated
    HashMap<CacheName, Entry, BuildHasherDefault<FoldHasher>>,
);

impl NameIndex {
    fn get(&self, name: &CacheName) -> Option<&Entry> {
        self.0.get(name)
    }

    fn get_mut(&mut self, name: &CacheName) -> Option<&mut Entry> {
        self.0.get_mut(name)
    }

    fn insert(&mut self, name: CacheName, entry: Entry) {
        self.0.insert(name, entry);
    }

    fn remove(&mut self, name: &CacheName) -> Option<Entry> {
        self.0.remove(name)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The shared, immutable, content-addressed object tier. See the crate
/// docs for the model.
pub struct ObjectStore {
    /// Byte capacity; LRU eviction keeps `used` under it.
    capacity: u64,
    entries: NameIndex,
    /// LRU index: `last_use → name` of exactly the entries with
    /// `pins == 0`. Its first element is the next eviction victim. Every
    /// `lookup` and `put` takes a fresh tick and stamps at most one
    /// entry with it, so no two entries share a `last_use`, and ordering
    /// by tick alone equals ordering by `(last_use, name)`.
    lru: BTreeMap<u64, CacheName>,
    /// Entries with `pins > 0`: with `lru`, they account for every entry.
    pinned: usize,
    used: u64,
    peak_used: u64,
    tick: u64,
    counters: Vec<ShardCounters>,
    /// Cost-model fabric: node 0 is the store, nodes 1..=N the shards.
    fabric: Fabric,
    store_node: NodeId,
    shard_nodes: Vec<NodeId>,
}

impl ObjectStore {
    /// An empty store of `capacity` bytes serving `shards` shards.
    pub fn new(capacity: u64, shards: usize) -> Self {
        let mut fabric = Fabric::new();
        let store_node = fabric.add_symmetric_node(STORE_BW);
        let shard_nodes = (0..shards)
            .map(|_| fabric.add_symmetric_node(SHARD_BW))
            .collect();
        ObjectStore {
            capacity,
            entries: NameIndex::default(),
            lru: BTreeMap::new(),
            pinned: 0,
            used: 0,
            peak_used: 0,
            tick: 0,
            counters: vec![ShardCounters::default(); shards],
            fabric,
            store_node,
            shard_nodes,
        }
    }

    /// Number of shards the store serves.
    pub fn shard_count(&self) -> usize {
        self.counters.len()
    }

    /// Resident objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of `used`.
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// One shard's counters.
    pub fn counters(&self, shard: usize) -> ShardCounters {
        self.counters[shard]
    }

    /// Size of the resident object, without touching counters or LRU
    /// state (planning probes).
    pub fn size_of(&self, name: CacheName) -> Option<u64> {
        self.entries.get(&name).map(|e| e.size)
    }

    /// Whether an object with this exact `(name, size)` is resident,
    /// counted as a hit or miss for `shard` and refreshing LRU age on a
    /// hit. A resident name with a *different* size is a miss: the
    /// caller's lineage signature does not match the stored object.
    pub fn lookup(&mut self, shard: usize, name: CacheName, size: u64) -> bool {
        self.tick += 1;
        match self.entries.get_mut(&name) {
            Some(e) if e.size == size => {
                if e.pins == 0 {
                    self.lru.remove(&e.last_use);
                    self.lru.insert(self.tick, name);
                }
                e.last_use = self.tick;
                self.counters[shard].hits += 1;
                #[cfg(debug_assertions)]
                self.check_lru_index();
                true
            }
            _ => {
                self.counters[shard].misses += 1;
                false
            }
        }
    }

    /// Insert an immutable object on behalf of `shard`, evicting LRU
    /// unpinned entries as needed. See [`PutOutcome`] for the verdicts;
    /// the store's contents never change on `AlreadyPresent`,
    /// `SizeMismatch`, or `WontFit`.
    pub fn put(&mut self, shard: usize, name: CacheName, size: u64) -> PutOutcome {
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
            let Some((_, victim)) = self.lru.pop_first() else {
                return PutOutcome::WontFit;
            };
            let gone = self
                .entries
                .remove(&victim)
                .expect("indexed victim is resident");
            self.used -= gone.size;
            self.counters[shard].evictions += 1;
        }
        self.entries.insert(
            name,
            Entry {
                size,
                pins: 0,
                last_use: self.tick,
            },
        );
        self.lru.insert(self.tick, name);
        self.used += size;
        self.peak_used = self.peak_used.max(self.used);
        self.counters[shard].puts += 1;
        #[cfg(debug_assertions)]
        self.check_lru_index();
        PutOutcome::Inserted
    }

    /// Pin an object (refcount up); pinned objects are never evicted.
    /// Returns false when the object is not resident.
    pub fn pin(&mut self, name: CacheName) -> bool {
        let Some(e) = self.entries.get_mut(&name) else {
            return false;
        };
        if e.pins == 0 {
            self.lru.remove(&e.last_use);
            self.pinned += 1;
        }
        e.pins += 1;
        #[cfg(debug_assertions)]
        self.check_lru_index();
        true
    }

    /// Drop one pin. Returns false when the object is not resident (an
    /// unpin for an entry that was never pinned is a logic error and
    /// panics in debug builds).
    pub fn unpin(&mut self, name: CacheName) -> bool {
        let Some(e) = self.entries.get_mut(&name) else {
            return false;
        };
        debug_assert!(e.pins > 0, "unpin without a matching pin");
        if e.pins == 1 {
            self.lru.insert(e.last_use, name);
            self.pinned -= 1;
        }
        e.pins = e.pins.saturating_sub(1);
        #[cfg(debug_assertions)]
        self.check_lru_index();
        true
    }

    /// Forcibly drop an object (operator invalidation). Pinned objects
    /// refuse. Returns the freed bytes.
    pub fn evict(&mut self, name: CacheName) -> Option<u64> {
        match self.entries.get(&name) {
            Some(e) if e.pins == 0 => {
                let size = e.size;
                self.lru.remove(&e.last_use);
                self.entries.remove(&name);
                self.used -= size;
                #[cfg(debug_assertions)]
                self.check_lru_index();
                Some(size)
            }
            _ => None,
        }
    }

    /// Debug-build invariant: `lru` holds exactly the unpinned entries,
    /// each under its current `last_use`. Every indexed name is an
    /// unpinned entry with that tick, and the index plus the pinned
    /// entries count every entry, so no unpinned entry is missing.
    #[cfg(debug_assertions)]
    fn check_lru_index(&self) {
        for (&t, n) in &self.lru {
            let e = self.entries.get(n);
            assert!(
                e.is_some_and(|e| e.pins == 0 && e.last_use == t),
                "LRU index out of step with entries"
            );
        }
        assert_eq!(
            self.lru.len() + self.pinned,
            self.entries.len(),
            "LRU index out of step with entries"
        );
    }

    /// The simulated cost for `shard` to fetch `bytes` out of the store:
    /// the max–min fair completion time of one store→shard flow on the
    /// cost fabric (rate = min of store egress and shard ingress) plus
    /// the fixed per-fetch latency. Zero bytes cost zero — the caller
    /// batches one fetch per admission, not one per object.
    ///
    /// Also charges the bytes to the shard's `fetched_bytes` counter.
    pub fn fetch_cost(&mut self, shard: usize, bytes: u64) -> SimDur {
        if bytes == 0 {
            return SimDur::ZERO;
        }
        self.counters[shard].fetched_bytes += bytes;
        // The fabric's clock sits at the previous fetch's finish; the
        // flow is alone on the fabric, so its drain time does not depend
        // on when it starts.
        let start = self.fabric.now();
        let flow = self.fabric.start_flow(
            start,
            self.store_node,
            self.shard_nodes[shard],
            bytes,
            f64::INFINITY,
        );
        let (finish, id) = self
            .fabric
            .next_completion()
            .expect("a just-started flow has a completion");
        debug_assert_eq!(id, flow);
        self.fabric.complete_flow(finish, id);
        FETCH_LATENCY + finish.saturating_since(start)
    }

    /// Fold the store's state and per-shard counters into `m`. Metric
    /// names sort deterministically, so the registry's text export is
    /// byte-stable.
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter_add("store.entries", self.entries.len() as u64);
        m.counter_add("store.used_bytes", self.used);
        m.counter_add("store.peak_used_bytes", self.peak_used);
        m.counter_add("store.capacity_bytes", self.capacity);
        for (s, c) in self.counters.iter().enumerate() {
            let k = |suffix: &str| format!("store.shard{s}.{suffix}");
            m.counter_add(&k("hits"), c.hits);
            m.counter_add(&k("misses"), c.misses);
            m.counter_add(&k("evictions"), c.evictions);
            m.counter_add(&k("puts"), c.puts);
            m.counter_add(&k("fetched_bytes"), c.fetched_bytes);
        }
    }

    /// The export as a fresh registry.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        self.export_metrics(&mut m);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: u32) -> CacheName {
        CacheName::for_dataset_file("store-test", i)
    }

    fn small_store(capacity: u64) -> ObjectStore {
        ObjectStore::new(capacity, 2)
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let mut s = small_store(1000);
        assert!(!s.lookup(0, name(1), 100), "cold store misses");
        assert_eq!(s.put(0, name(1), 100), PutOutcome::Inserted);
        assert!(s.lookup(1, name(1), 100), "shard 1 sees shard 0's object");
        assert!(!s.lookup(1, name(1), 999), "size mismatch is a miss");
        assert_eq!(s.counters(0).misses, 1);
        assert_eq!(s.counters(1).hits, 1);
        assert_eq!(s.counters(1).misses, 1);
        assert_eq!(s.used(), 100);
    }

    #[test]
    fn puts_are_immutable() {
        let mut s = small_store(1000);
        assert_eq!(s.put(0, name(1), 100), PutOutcome::Inserted);
        assert_eq!(s.put(1, name(1), 100), PutOutcome::AlreadyPresent);
        assert_eq!(s.put(1, name(1), 200), PutOutcome::SizeMismatch);
        assert_eq!(s.size_of(name(1)), Some(100), "original object kept");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lru_eviction_under_capacity() {
        let mut s = small_store(300);
        s.put(0, name(1), 100);
        s.put(0, name(2), 100);
        s.put(0, name(3), 100);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(s.lookup(0, name(1), 100));
        assert_eq!(s.put(0, name(4), 100), PutOutcome::Inserted);
        assert!(s.size_of(name(2)).is_none(), "LRU entry evicted");
        assert!(s.size_of(name(1)).is_some());
        assert_eq!(s.counters(0).evictions, 1);
        assert_eq!(s.used(), 300);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let mut s = small_store(200);
        s.put(0, name(1), 100);
        s.put(0, name(2), 100);
        assert!(s.pin(name(1)));
        assert!(s.pin(name(2)));
        // Everything pinned: nothing can be evicted, the put bounces.
        assert_eq!(s.put(0, name(3), 100), PutOutcome::WontFit);
        assert!(s.unpin(name(2)));
        assert_eq!(s.put(0, name(3), 100), PutOutcome::Inserted);
        assert!(s.size_of(name(2)).is_none(), "unpinned entry evicted");
        assert!(s.size_of(name(1)).is_some(), "pinned entry survives");
    }

    #[test]
    fn oversized_objects_refuse() {
        let mut s = small_store(100);
        assert_eq!(s.put(0, name(1), 101), PutOutcome::WontFit);
        assert!(s.is_empty());
    }

    #[test]
    fn forced_evict_respects_pins() {
        let mut s = small_store(1000);
        s.put(0, name(1), 100);
        s.pin(name(1));
        assert_eq!(s.evict(name(1)), None, "pinned objects refuse");
        s.unpin(name(1));
        assert_eq!(s.evict(name(1)), Some(100));
        assert_eq!(s.used(), 0);
    }

    #[test]
    fn fetch_cost_is_bandwidth_bound_plus_latency() {
        let mut s = small_store(GB);
        // 5 GB at min(100, 10) Gb/s = 4 s, plus 1 ms latency.
        let d = s.fetch_cost(0, 5 * GB);
        assert!((d.as_secs_f64() - 4.001).abs() < 1e-3, "{d:?}");
        assert_eq!(s.counters(0).fetched_bytes, 5 * GB);
        assert_eq!(s.fetch_cost(1, 0), SimDur::ZERO);
    }

    #[test]
    fn consecutive_fetches_cost_the_same() {
        // Each fetch starts where the previous one left the store
        // fabric's clock, so the second neither rewinds time nor pays
        // for the first.
        let mut s = small_store(GB);
        let first = s.fetch_cost(0, 50_000_000);
        assert_eq!(s.fetch_cost(1, 50_000_000), first);
        assert_eq!(s.fetch_cost(0, 50_000_000), first);
    }

    #[test]
    fn metrics_export_is_deterministic() {
        let build = || {
            let mut s = small_store(1000);
            s.put(0, name(1), 100);
            s.lookup(1, name(1), 100);
            s.lookup(1, name(2), 50);
            s.metrics().to_text()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("store.shard1.hits"));
        assert!(a.contains("store.used_bytes"));
    }
}
