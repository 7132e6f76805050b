//! Per-worker file cache (TaskVine "Retaining Data", §IV-B).
//!
//! Each TaskVine worker owns its node-local disk and retains every file it
//! stages or produces, keyed by [`CacheName`]. The manager consults these
//! caches to place tasks where their inputs already live. Entries in use by
//! a running task (or queued for a peer transfer) are *pinned* and cannot
//! be evicted; everything else is reclaimable in LRU order.
//!
//! When pinned data alone exceeds the disk, [`LocalCache::insert`] fails
//! with [`CacheError::WontFit`] — exactly the Fig 11 failure mode, where a
//! single-node reduction pins hundreds of gigabytes of histogram inputs on
//! one worker and kills it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::cachename::CacheName;

/// Why a file is in the cache; affects accounting and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheEntryKind {
    /// Input data staged from the shared filesystem or a remote source.
    Input,
    /// Output produced by a task on this worker or fetched from a peer.
    Intermediate,
    /// A serverless library/environment installed on this worker.
    Library,
}

/// Errors from cache mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// The file cannot fit even after evicting every unpinned entry.
    /// Carries the shortfall in bytes.
    WontFit { needed: u64, reclaimable: u64 },
    /// The named entry does not exist.
    Missing,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::WontFit {
                needed,
                reclaimable,
            } => write!(
                f,
                "cache overflow: need {needed} bytes but only {reclaimable} reclaimable"
            ),
            CacheError::Missing => write!(f, "no such cache entry"),
        }
    }
}

impl std::error::Error for CacheError {}

/// [`LocalCache::for_each_held`] looks names up one by one when the cache
/// holds more than this many entries per name asked about: a merge then
/// walks mostly entries nobody asked for.
const LOOKUP_RATIO: usize = 8;

#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct Entry {
    size: u64,
    kind: CacheEntryKind,
    pins: u32,
    last_use: u64,
    /// The bytes no longer match the cachename checksum (chaos bitrot).
    /// Dropped whenever the bytes are replaced; leaves with the entry.
    corrupt: bool,
}

/// An LRU cache over one worker's local disk.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct LocalCache {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: BTreeMap<CacheName, Entry>,
    /// High-water mark of `used`, for Fig 11 reporting.
    peak_used: u64,
    /// Lifetime insertions (survives `clear`), for cross-session accounting.
    insertions: u64,
    /// Lifetime evictions + clears of resident entries (survives `clear`).
    evictions: u64,
    /// Resident entries marked `corrupt`.
    corrupt: usize,
}

impl LocalCache {
    /// An empty cache over a disk of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LocalCache {
            capacity,
            used: 0,
            tick: 0,
            entries: BTreeMap::new(),
            peak_used: 0,
            insertions: 0,
            evictions: 0,
            corrupt: 0,
        }
    }

    /// Disk capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The highest occupancy ever reached.
    pub fn peak_used(&self) -> u64 {
        self.peak_used
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the named file is resident.
    pub fn contains(&self, name: CacheName) -> bool {
        self.entries.contains_key(&name)
    }

    /// Size of the named resident file, if present.
    pub fn size_of(&self, name: CacheName) -> Option<u64> {
        self.entries.get(&name).map(|e| e.size)
    }

    /// Record a use of the named file (bumps its LRU recency).
    /// Returns `false` if the file is not resident.
    pub fn touch(&mut self, name: CacheName) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&name) {
            Some(e) => {
                e.last_use = tick;
                true
            }
            None => false,
        }
    }

    /// Insert a file, evicting unpinned entries in LRU order as needed.
    ///
    /// Returns the names evicted to make room (possibly empty). Re-inserting
    /// a resident name refreshes its recency; if the size changed the entry
    /// is resized (evicting as needed for growth).
    ///
    /// Fails with [`CacheError::WontFit`] if pinned entries prevent making
    /// room; the cache is left unchanged in that case.
    pub fn insert(
        &mut self,
        name: CacheName,
        size: u64,
        kind: CacheEntryKind,
    ) -> Result<Vec<CacheName>, CacheError> {
        self.tick += 1;
        let tick = self.tick;

        let existing_size = self.entries.get(&name).map(|e| e.size);
        let net_growth = size.saturating_sub(existing_size.unwrap_or(0));
        let free = self.capacity - self.used;

        let evicted = if net_growth > free {
            self.make_room(name, net_growth)?
        } else {
            Vec::new()
        };

        match self.entries.get_mut(&name) {
            Some(e) => {
                self.used = self.used - e.size + size;
                self.corrupt -= usize::from(e.corrupt);
                e.size = size;
                e.kind = kind;
                e.last_use = tick;
                e.corrupt = false;
            }
            None => {
                self.entries.insert(
                    name,
                    Entry {
                        size,
                        kind,
                        pins: 0,
                        last_use: tick,
                        corrupt: false,
                    },
                );
                self.used += size;
                self.insertions += 1;
            }
        }
        self.peak_used = self.peak_used.max(self.used);
        Ok(evicted)
    }

    /// Evict unpinned entries other than `keep`, coldest first, until
    /// `net_growth` more bytes fit; the cache is unchanged on `WontFit`.
    /// Kept out of line: most inserts fit without evicting, and `insert`
    /// is on the engine's hot path.
    #[cold]
    fn make_room(
        &mut self,
        keep: CacheName,
        net_growth: u64,
    ) -> Result<Vec<CacheName>, CacheError> {
        let free = self.capacity - self.used;
        let need = net_growth - free;
        // One pass sums what is reclaimable and finds the coldest
        // candidate, which usually covers the need on its own.
        let mut reclaimable = 0;
        let mut coldest: Option<(u64, CacheName, u64)> = None;
        for c in self.unpinned(keep) {
            reclaimable += c.2;
            if coldest.is_none_or(|m| c < m) {
                coldest = Some(c);
            }
        }
        if reclaimable < need {
            return Err(CacheError::WontFit {
                needed: net_growth,
                reclaimable: free + reclaimable,
            });
        }
        Ok(match coldest {
            Some((_, victim, vsize)) if vsize >= need => {
                self.drop_victim(victim, vsize);
                vec![victim]
            }
            _ => {
                let candidates = self.unpinned(keep).map(Reverse).collect();
                // `need <= reclaimable <= used`, so `net_growth <= capacity`.
                self.evict_coldest(candidates, self.capacity - net_growth)
            }
        })
    }

    /// Pin a resident file so it cannot be evicted. Pins nest.
    pub fn pin(&mut self, name: CacheName) -> Result<(), CacheError> {
        let e = self.entries.get_mut(&name).ok_or(CacheError::Missing)?;
        e.pins += 1;
        Ok(())
    }

    /// Release one pin on a resident file.
    pub fn unpin(&mut self, name: CacheName) -> Result<(), CacheError> {
        let e = self.entries.get_mut(&name).ok_or(CacheError::Missing)?;
        debug_assert!(e.pins > 0, "unpin without matching pin");
        e.pins = e.pins.saturating_sub(1);
        Ok(())
    }

    /// True if the named file is resident and pinned.
    pub fn is_pinned(&self, name: CacheName) -> bool {
        self.entries.get(&name).is_some_and(|e| e.pins > 0)
    }

    /// Release one pin if the named file is resident and pinned, in one
    /// lookup: `is_pinned` then `unpin`. Returns whether a pin was
    /// released.
    pub fn release(&mut self, name: CacheName) -> bool {
        match self.entries.get_mut(&name) {
            Some(e) if e.pins > 0 => {
                e.pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Read a cached file for a task, in one lookup: a clean resident
    /// copy is touched and pinned (`Some(true)`), a corrupt one is left
    /// as it is (`Some(false)`), and an absent one gives `None`. The
    /// same as `contains`, `is_corrupt`, then `touch` and `pin` on a
    /// clean hit.
    pub fn pin_clean(&mut self, name: CacheName) -> Option<bool> {
        let e = self.entries.get_mut(&name)?;
        if e.corrupt {
            return Some(false);
        }
        self.tick += 1;
        e.last_use = self.tick;
        e.pins += 1;
        Some(true)
    }

    /// Explicitly remove a file (e.g. the manager pruned it). Pinned files
    /// cannot be removed.
    pub fn remove(&mut self, name: CacheName) -> Result<u64, CacheError> {
        match self.entries.get(&name) {
            None => Err(CacheError::Missing),
            Some(e) if e.pins > 0 => Err(CacheError::WontFit {
                needed: 0,
                reclaimable: 0,
            }),
            Some(e) => {
                let size = e.size;
                self.drop_victim(name, size);
                Ok(size)
            }
        }
    }

    /// Unpinned entries other than `keep`, as `(last_use, name, size)`:
    /// eviction takes them in ascending order.
    fn unpinned(&self, keep: CacheName) -> impl Iterator<Item = (u64, CacheName, u64)> + '_ {
        self.entries
            .iter()
            .filter(move |(n, e)| e.pins == 0 && **n != keep)
            .map(|(n, e)| (e.last_use, *n, e.size))
    }

    /// Evict `candidates` coldest first until `used <= target` (or none
    /// are left); returns the victims in eviction order. Heapifying is
    /// linear and each victim costs one pop, so evicting a few entries
    /// out of thousands does not pay for sorting them all.
    fn evict_coldest(
        &mut self,
        mut candidates: BinaryHeap<Reverse<(u64, CacheName, u64)>>,
        target: u64,
    ) -> Vec<CacheName> {
        let mut evicted = Vec::new();
        while self.used > target {
            let Some(Reverse((_, victim, vsize))) = candidates.pop() else {
                break;
            };
            self.drop_victim(victim, vsize);
            evicted.push(victim);
        }
        evicted
    }

    /// Remove a resident entry of `size` bytes (evicted or removed).
    fn drop_victim(&mut self, victim: CacheName, size: u64) {
        if let Some(gone) = self.entries.remove(&victim) {
            self.corrupt -= usize::from(gone.corrupt);
        }
        self.used -= size;
        self.evictions += 1;
    }

    /// Release every pin on every entry. A facility uses this at session
    /// hand-off: run-lifetime pins (retention, transfers) are meaningless
    /// once the run that took them is over, but the bytes stay resident.
    pub fn clear_pins(&mut self) {
        for e in self.entries.values_mut() {
            e.pins = 0;
        }
    }

    /// Drop everything (worker preempted / restarted).
    pub fn clear(&mut self) {
        self.evictions += self.entries.len() as u64;
        self.entries.clear();
        self.corrupt = 0;
        self.used = 0;
    }

    /// Mark a resident entry's bytes as corrupted (chaos bitrot). Returns
    /// `false` when the name is not resident. The mark survives until the
    /// entry's bytes change: re-[`insert`]ing the name clears it, as does
    /// any form of removal.
    ///
    /// [`insert`]: LocalCache::insert
    pub fn mark_corrupt(&mut self, name: CacheName) -> bool {
        let Some(e) = self.entries.get_mut(&name) else {
            return false;
        };
        self.corrupt += usize::from(!e.corrupt);
        e.corrupt = true;
        true
    }

    /// True when the resident entry is marked corrupt: a reader comparing
    /// the bytes' checksum against the cachename would detect a mismatch.
    pub fn is_corrupt(&self, name: CacheName) -> bool {
        self.entries.get(&name).is_some_and(|e| e.corrupt)
    }

    /// Number of currently-corrupt resident entries.
    pub fn corrupt_count(&self) -> usize {
        self.corrupt
    }

    /// Lifetime count of distinct-entry insertions; survives [`clear`].
    ///
    /// [`clear`]: LocalCache::clear
    pub fn lifetime_insertions(&self) -> u64 {
        self.insertions
    }

    /// Lifetime count of entries removed by eviction, [`remove`], or
    /// [`clear`]; survives [`clear`].
    ///
    /// [`remove`]: LocalCache::remove
    /// [`clear`]: LocalCache::clear
    pub fn lifetime_evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate resident `(name, size, kind)` triples in ascending
    /// cachename order. Callers rely on the order: a facility publishes
    /// entries to its shared tier in it (the tier's LRU ticks follow),
    /// and merges several caches' iterations by name.
    pub fn iter(&self) -> impl Iterator<Item = (CacheName, u64, CacheEntryKind)> + '_ {
        self.entries.iter().map(|(n, e)| (*n, e.size, e.kind))
    }

    /// Call `f(item, size)` for each item of `sorted` whose name (ascending
    /// in `sorted`; repeats allowed) is resident here, in `sorted`'s
    /// order. A list much shorter than the cache costs one lookup per
    /// item; otherwise one merge of the two name-ordered lists.
    pub fn for_each_held<T>(
        &self,
        sorted: &[T],
        name: impl Fn(&T) -> CacheName,
        mut f: impl FnMut(&T, u64),
    ) {
        if sorted.len().saturating_mul(LOOKUP_RATIO) < self.entries.len() {
            for item in sorted {
                if let Some(e) = self.entries.get(&name(item)) {
                    f(item, e.size);
                }
            }
            return;
        }
        let mut entries = self.entries.iter().peekable();
        for item in sorted {
            let n = name(item);
            while entries.next_if(|&(e, _)| *e < n).is_some() {}
            match entries.peek() {
                Some(&(e, entry)) if *e == n => f(item, entry.size),
                Some(_) => {}
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn name(i: u32) -> CacheName {
        CacheName::for_dataset_file("t", i)
    }

    /// Remove a resident entry and its corruption mark, by hand.
    fn drop_entry(c: &mut LocalCache, victim: CacheName) {
        let gone = c.entries.remove(&victim).unwrap();
        if gone.corrupt {
            c.corrupt -= 1;
        }
        c.used -= gone.size;
        c.evictions += 1;
    }

    /// The full-sort eviction [`LocalCache::insert`] replaced: collect and
    /// sort every candidate, then evict from the cold end.
    fn insert_by_sort(
        c: &mut LocalCache,
        name: CacheName,
        size: u64,
        kind: CacheEntryKind,
    ) -> Result<Vec<CacheName>, CacheError> {
        c.tick += 1;
        let tick = c.tick;
        let existing_size = c.entries.get(&name).map(|e| e.size);
        let net_growth = size.saturating_sub(existing_size.unwrap_or(0));
        let free = c.capacity - c.used;
        let mut evicted = Vec::new();
        if net_growth > free {
            let mut need = net_growth - free;
            let mut candidates: Vec<(u64, CacheName, u64)> = c
                .entries
                .iter()
                .filter(|(n, e)| e.pins == 0 && **n != name)
                .map(|(n, e)| (e.last_use, *n, e.size))
                .collect();
            candidates.sort_unstable();
            let reclaimable: u64 = candidates.iter().map(|&(_, _, s)| s).sum();
            if reclaimable < need {
                return Err(CacheError::WontFit {
                    needed: net_growth,
                    reclaimable: free + reclaimable,
                });
            }
            for (_, victim, vsize) in candidates {
                if need == 0 {
                    break;
                }
                drop_entry(c, victim);
                need = need.saturating_sub(vsize);
                evicted.push(victim);
            }
        }
        match c.entries.get_mut(&name) {
            Some(e) => {
                c.used = c.used - e.size + size;
                if e.corrupt {
                    c.corrupt -= 1;
                }
                e.size = size;
                e.kind = kind;
                e.last_use = tick;
                e.corrupt = false;
            }
            None => {
                let entry = Entry {
                    size,
                    kind,
                    pins: 0,
                    last_use: tick,
                    corrupt: false,
                };
                c.entries.insert(name, entry);
                c.used += size;
                c.insertions += 1;
            }
        }
        c.peak_used = c.peak_used.max(c.used);
        Ok(evicted)
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, u64),
        Touch(u32),
        Pin(u32),
        Unpin(u32),
        Remove(u32),
        Rot(u32),
        ClearPins,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..24, 1u64..500).prop_map(|(i, s)| Op::Insert(i, s)),
            (0u32..24, 1u64..1200).prop_map(|(i, s)| Op::Insert(i, s)),
            (0u32..24).prop_map(Op::Touch),
            (0u32..24).prop_map(Op::Pin),
            (0u32..24).prop_map(Op::Unpin),
            (0u32..24).prop_map(Op::Remove),
            (0u32..24).prop_map(Op::Rot),
            Just(Op::ClearPins),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Heap-chosen victims equal the full sort's under pins, resizes
        /// (an entry never evicts itself), corruption marks and `WontFit`
        /// (which leaves both caches unchanged), and the two caches stay
        /// identical, field for field, after every operation.
        #[test]
        fn victims_match_the_full_sort(ops in collection::vec(op(), 0..200)) {
            let mut fast = LocalCache::new(1000);
            let mut slow = LocalCache::new(1000);
            for op in ops {
                match op {
                    Op::Insert(i, size) => {
                        let before = fast.clone();
                        let got = fast.insert(name(i), size, CacheEntryKind::Intermediate);
                        let want = insert_by_sort(&mut slow, name(i), size, CacheEntryKind::Intermediate);
                        prop_assert_eq!(&got, &want);
                        if got.is_err() {
                            prop_assert_eq!(fast.entries.clone(), before.entries);
                            prop_assert_eq!(fast.used, before.used);
                        }
                    }
                    Op::Touch(i) => prop_assert_eq!(fast.touch(name(i)), slow.touch(name(i))),
                    Op::Pin(i) => prop_assert_eq!(fast.pin(name(i)), slow.pin(name(i))),
                    Op::Unpin(i) => {
                        if fast.is_pinned(name(i)) {
                            prop_assert_eq!(fast.unpin(name(i)), slow.unpin(name(i)));
                        }
                    }
                    Op::Remove(i) => prop_assert_eq!(fast.remove(name(i)), slow.remove(name(i))),
                    Op::Rot(i) => prop_assert_eq!(fast.mark_corrupt(name(i)), slow.mark_corrupt(name(i))),
                    Op::ClearPins => {
                        fast.clear_pins();
                        slow.clear_pins();
                    }
                }
                prop_assert_eq!(&fast, &slow);
            }
        }
    }

    /// [`LocalCache::release`] as the two calls it replaced.
    fn release_by_two_lookups(c: &mut LocalCache, name: CacheName) -> bool {
        if c.is_pinned(name) {
            c.unpin(name).unwrap();
            return true;
        }
        false
    }

    /// [`LocalCache::pin_clean`] as the four calls it replaced.
    fn pin_clean_by_four_lookups(c: &mut LocalCache, name: CacheName) -> Option<bool> {
        if !c.contains(name) {
            return None;
        }
        if c.is_corrupt(name) {
            return Some(false);
        }
        c.touch(name);
        c.pin(name).unwrap();
        Some(true)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `release` and `pin_clean` return what the call sequences they
        /// replaced return, and leave the cache identical, field for
        /// field, to a clone those sequences ran on: over absent, pinned,
        /// unpinned, nested-pin and corrupt entries.
        #[test]
        fn single_probes_match_their_call_sequences(
            steps in collection::vec((op(), any::<bool>(), 0u32..24), 0..200),
        ) {
            let mut c = LocalCache::new(1000);
            for (op, release, i) in steps {
                match op {
                    Op::Insert(i, size) => {
                        let _ = c.insert(name(i), size, CacheEntryKind::Input);
                    }
                    Op::Touch(i) => {
                        c.touch(name(i));
                    }
                    Op::Pin(i) => {
                        let _ = c.pin(name(i));
                    }
                    Op::Unpin(i) => {
                        if c.is_pinned(name(i)) {
                            c.unpin(name(i)).unwrap();
                        }
                    }
                    Op::Remove(i) => {
                        let _ = c.remove(name(i));
                    }
                    Op::Rot(i) => {
                        c.mark_corrupt(name(i));
                    }
                    Op::ClearPins => c.clear_pins(),
                }
                let mut old = c.clone();
                if release {
                    prop_assert_eq!(c.release(name(i)), release_by_two_lookups(&mut old, name(i)));
                } else {
                    prop_assert_eq!(c.pin_clean(name(i)), pin_clean_by_four_lookups(&mut old, name(i)));
                }
                prop_assert_eq!(&c, &old);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Both strategies of `for_each_held` (lookups for a short list,
        /// a merge otherwise) visit exactly the resident items, repeats
        /// included, in list order, with their sizes.
        #[test]
        fn held_items_match_the_lookups(
            resident in collection::vec((0u32..64, 1u64..9), 0..60),
            asked in collection::vec(0u32..64, 0..40),
        ) {
            let mut c = LocalCache::new(u64::MAX);
            for (i, size) in resident {
                c.insert(name(i), size, CacheEntryKind::Intermediate).unwrap();
            }
            let mut asked: Vec<(CacheName, usize)> =
                asked.into_iter().enumerate().map(|(k, i)| (name(i), k)).collect();
            asked.sort_unstable();
            let want: Vec<(usize, u64)> = asked
                .iter()
                .filter_map(|&(n, k)| c.size_of(n).map(|s| (k, s)))
                .collect();
            let mut got = Vec::new();
            c.for_each_held(&asked, |&(n, _)| n, |&(_, k), s| got.push((k, s)));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn iteration_is_in_ascending_cachename_order() {
        let mut c = LocalCache::new(u64::MAX);
        // Insertion order and recency are unrelated to name order.
        for i in [7u32, 3, 11, 0, 5, 9, 1] {
            c.insert(name(i), u64::from(i) + 1, CacheEntryKind::Input)
                .unwrap();
        }
        c.touch(name(0));
        let names: Vec<CacheName> = c.iter().map(|(n, _, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn corruption_marks_follow_the_bytes() {
        let mut c = LocalCache::new(1000);
        assert!(!c.mark_corrupt(name(1)), "absent entries cannot rot");
        c.insert(name(1), 400, CacheEntryKind::Input).unwrap();
        c.insert(name(2), 400, CacheEntryKind::Input).unwrap();
        assert!(c.mark_corrupt(name(1)));
        assert!(c.is_corrupt(name(1)));
        assert!(!c.is_corrupt(name(2)));
        assert_eq!(c.corrupt_count(), 1);
        // Re-staging the file replaces the bytes: mark gone.
        c.insert(name(1), 400, CacheEntryKind::Input).unwrap();
        assert!(!c.is_corrupt(name(1)));
        // Removal in any form drops the mark with the entry.
        c.mark_corrupt(name(2));
        c.remove(name(2)).unwrap();
        assert!(!c.is_corrupt(name(2)));
        c.mark_corrupt(name(1));
        c.clear();
        assert_eq!(c.corrupt_count(), 0);
        // Eviction drops marks too.
        c.insert(name(3), 600, CacheEntryKind::Input).unwrap();
        c.mark_corrupt(name(3));
        c.insert(name(4), 600, CacheEntryKind::Input).unwrap();
        assert!(!c.contains(name(3)));
        assert_eq!(c.corrupt_count(), 0);
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = LocalCache::new(1000);
        assert_eq!(
            c.insert(name(1), 400, CacheEntryKind::Input).unwrap(),
            vec![]
        );
        assert!(c.contains(name(1)));
        assert_eq!(c.size_of(name(1)), Some(400));
        assert_eq!(c.used(), 400);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_lru_first() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 400, CacheEntryKind::Input).unwrap();
        c.insert(name(2), 400, CacheEntryKind::Input).unwrap();
        c.touch(name(1)); // 2 is now coldest
        let evicted = c.insert(name(3), 400, CacheEntryKind::Input).unwrap();
        assert_eq!(evicted, vec![name(2)]);
        assert!(c.contains(name(1)));
        assert!(!c.contains(name(2)));
        assert_eq!(c.used(), 800);
    }

    #[test]
    fn evicts_multiple_if_needed() {
        let mut c = LocalCache::new(1000);
        for i in 0..5 {
            c.insert(name(i), 200, CacheEntryKind::Input).unwrap();
        }
        let evicted = c
            .insert(name(9), 900, CacheEntryKind::Intermediate)
            .unwrap();
        // need 900 bytes, free 0, victims are 200 bytes each -> 5 evictions
        assert_eq!(evicted.len(), 5);
        assert_eq!(c.used(), 900);
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 600, CacheEntryKind::Input).unwrap();
        c.pin(name(1)).unwrap();
        c.insert(name(2), 300, CacheEntryKind::Input).unwrap();
        // Needs 500: only name(2) (300) is reclaimable -> WontFit.
        let err = c.insert(name(3), 500, CacheEntryKind::Input).unwrap_err();
        assert_eq!(
            err,
            CacheError::WontFit {
                needed: 500,
                reclaimable: 400
            }
        );
        // Cache unchanged on failure.
        assert!(c.contains(name(1)));
        assert!(c.contains(name(2)));
        assert_eq!(c.used(), 900);
    }

    #[test]
    fn unpin_restores_evictability() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 600, CacheEntryKind::Input).unwrap();
        c.pin(name(1)).unwrap();
        c.unpin(name(1)).unwrap();
        let evicted = c.insert(name(2), 800, CacheEntryKind::Input).unwrap();
        assert_eq!(evicted, vec![name(1)]);
    }

    #[test]
    fn nested_pins() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 500, CacheEntryKind::Input).unwrap();
        c.pin(name(1)).unwrap();
        c.pin(name(1)).unwrap();
        c.unpin(name(1)).unwrap();
        assert!(c.is_pinned(name(1)));
        c.unpin(name(1)).unwrap();
        assert!(!c.is_pinned(name(1)));
    }

    #[test]
    fn oversized_file_wont_fit() {
        let mut c = LocalCache::new(100);
        let err = c.insert(name(1), 200, CacheEntryKind::Input).unwrap_err();
        assert!(matches!(err, CacheError::WontFit { .. }));
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_resizes_in_place() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 300, CacheEntryKind::Input).unwrap();
        c.insert(name(1), 500, CacheEntryKind::Input).unwrap();
        assert_eq!(c.used(), 500);
        assert_eq!(c.len(), 1);
        c.insert(name(1), 100, CacheEntryKind::Input).unwrap();
        assert_eq!(c.used(), 100);
    }

    #[test]
    fn reinsert_never_evicts_itself() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 900, CacheEntryKind::Input).unwrap();
        // Growing 900 -> 1000 must not evict name(1) to make room.
        let evicted = c.insert(name(1), 1000, CacheEntryKind::Input).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(c.used(), 1000);
    }

    #[test]
    fn remove_frees_space_but_not_pinned() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 500, CacheEntryKind::Intermediate)
            .unwrap();
        c.pin(name(1)).unwrap();
        assert!(c.remove(name(1)).is_err());
        c.unpin(name(1)).unwrap();
        assert_eq!(c.remove(name(1)).unwrap(), 500);
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn remove_missing_errors() {
        let mut c = LocalCache::new(1000);
        assert_eq!(c.remove(name(1)), Err(CacheError::Missing));
    }

    #[test]
    fn peak_used_tracks_high_water() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 700, CacheEntryKind::Input).unwrap();
        c.remove(name(1)).unwrap();
        c.insert(name(2), 100, CacheEntryKind::Input).unwrap();
        assert_eq!(c.peak_used(), 700);
        assert_eq!(c.used(), 100);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 500, CacheEntryKind::Library).unwrap();
        c.pin(name(1)).unwrap();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut c = LocalCache::new(10);
        assert!(!c.touch(name(1)));
    }

    #[test]
    fn clear_pins_makes_everything_evictable() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 500, CacheEntryKind::Intermediate)
            .unwrap();
        c.pin(name(1)).unwrap();
        c.pin(name(1)).unwrap();
        c.clear_pins();
        assert!(!c.is_pinned(name(1)));
        assert_eq!(
            c.insert(name(2), 1000, CacheEntryKind::Intermediate),
            Ok(vec![name(1)])
        );
    }

    #[test]
    fn lifetime_counters_survive_clear() {
        let mut c = LocalCache::new(1000);
        c.insert(name(1), 400, CacheEntryKind::Input).unwrap();
        c.insert(name(2), 400, CacheEntryKind::Input).unwrap();
        c.insert(name(1), 500, CacheEntryKind::Input).unwrap(); // resize, not an insertion
        assert_eq!(c.lifetime_insertions(), 2);
        c.insert(name(3), 900, CacheEntryKind::Input).unwrap(); // evicts both
        assert_eq!(c.lifetime_evictions(), 2);
        c.clear(); // one resident entry dropped
        assert_eq!(c.lifetime_evictions(), 3);
        assert_eq!(c.lifetime_insertions(), 3);
        assert_eq!(c.used(), 0);
    }
}
