//! Content-addressed memoization of *physics* results.
//!
//! The simulation's warm caches skip a producer's compute and transfer;
//! the facility still has to hand the analyst the same histograms a cold
//! run would have produced. [`ResultStore`] closes that loop: encoded
//! result blobs (e.g. [`vine_data::encode_histogram_set`] output) keyed
//! by the cachename of the graph file they correspond to. Because the
//! real executor is deterministic (accumulation order is fixed by the
//! plan, not completion timing), a stored blob is bit-identical to what
//! recomputation would yield — which the warm-start tests assert.
//!
//! Streaming runs additionally publish **live partial entries**: the
//! encoded partial histogram at each progress milestone, keyed by the
//! final result's cachename plus the fraction complete (in milli-units).
//! A tenant polling for a result it just submitted can read the 30%
//! estimate while the remaining partitions are still in flight — the
//! "first plot in seconds" the paper's near-interactive goal asks for.

use std::collections::BTreeMap;

use vine_storage::CacheName;

/// A facility-lifetime store of encoded results keyed by cachename.
#[derive(Clone, Debug, Default)]
pub struct ResultStore {
    entries: BTreeMap<CacheName, Vec<u8>>,
    /// Live partial results keyed by (final cachename, milli-fraction):
    /// `(name, 300)` is the estimate at 30% complete. Replaced wholesale
    /// when the same run re-executes.
    partials: BTreeMap<(CacheName, u32), Vec<u8>>,
    /// Epoch-versioned results: logical key (e.g. a standing submission
    /// label) → the epoch and cachename of its current blob. A growing
    /// dataset changes the result's *cachename* every refresh; this map
    /// links the generations so publishing a newer epoch invalidates the
    /// superseded blob **and its live partials** — without it, a client
    /// polling the old cachename would keep reading stale partials
    /// forever.
    versioned: BTreeMap<String, (u64, CacheName)>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored blob for `name`, if any.
    pub fn get(&self, name: CacheName) -> Option<&[u8]> {
        self.entries.get(&name).map(Vec::as_slice)
    }

    /// Store (or overwrite) a blob. Publishing the final result
    /// supersedes any partial entries for it.
    pub fn put(&mut self, name: CacheName, bytes: Vec<u8>) {
        self.entries.insert(name, bytes);
        self.drop_partials(name);
    }

    /// Publish a live partial result for `name` at `milli_fraction`
    /// (e.g. `300` = 30% complete).
    pub fn put_partial(&mut self, name: CacheName, milli_fraction: u32, bytes: Vec<u8>) {
        self.partials.insert((name, milli_fraction), bytes);
    }

    /// The freshest partial for `name` at or below `milli_fraction`
    /// (`1000` returns the most complete partial available), with the
    /// fraction it was taken at.
    pub fn get_partial(&self, name: CacheName, milli_fraction: u32) -> Option<(u32, &[u8])> {
        self.partials
            .range((name, 0)..=(name, milli_fraction))
            .next_back()
            .map(|((_, f), b)| (*f, b.as_slice()))
    }

    /// All partial fractions published for `name`, ascending.
    pub fn partial_fractions(&self, name: CacheName) -> Vec<u32> {
        self.partials
            .range((name, 0)..=(name, u32::MAX))
            .map(|((_, f), _)| *f)
            .collect()
    }

    /// Drop every partial entry for `name`. Returns how many were
    /// removed.
    pub fn drop_partials(&mut self, name: CacheName) -> usize {
        let keys: Vec<u32> = self.partial_fractions(name);
        for f in &keys {
            self.partials.remove(&(name, *f));
        }
        keys.len()
    }

    /// Drop the blob for `name` (when the backing cache entry was
    /// evicted or invalidated). Partials for it go too.
    pub fn invalidate(&mut self, name: CacheName) -> bool {
        self.drop_partials(name);
        self.entries.remove(&name).is_some()
    }

    /// Publish the result of `key` at `epoch` under `name`. When a blob
    /// of an older (or equal) epoch exists under a different cachename,
    /// that blob and every live partial keyed by it are invalidated — the
    /// stale-partial fix for growing datasets. Publishing an epoch older
    /// than the current one is refused (returns `false`): replays must
    /// never roll a served result backward.
    pub fn publish_epoch(
        &mut self,
        key: &str,
        epoch: u64,
        name: CacheName,
        bytes: Vec<u8>,
    ) -> bool {
        if let Some(&(cur_epoch, cur_name)) = self.versioned.get(key) {
            if epoch < cur_epoch {
                return false;
            }
            if cur_name != name {
                self.invalidate(cur_name);
            }
        }
        self.versioned.insert(key.to_string(), (epoch, name));
        self.put(name, bytes);
        true
    }

    /// The epoch of `key`'s current result, if one was published.
    pub fn current_epoch(&self, key: &str) -> Option<u64> {
        self.versioned.get(key).map(|&(e, _)| e)
    }

    /// `key`'s current result: its epoch, cachename, and blob.
    pub fn get_versioned(&self, key: &str) -> Option<(u64, CacheName, &[u8])> {
        let &(epoch, name) = self.versioned.get(key)?;
        let blob = self.entries.get(&name)?;
        Some((epoch, name, blob.as_slice()))
    }

    /// Stored (final) blob count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live partial entry count.
    pub fn partial_count(&self) -> usize {
        self.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: u32) -> CacheName {
        CacheName::for_dataset_file("results", i)
    }

    #[test]
    fn get_takes_shared_ref() {
        let mut store = ResultStore::new();
        store.put(name(1), vec![7]);
        let shared: &ResultStore = &store;
        assert_eq!(shared.get(name(1)), Some(&[7u8][..]));
        assert!(shared.get(name(2)).is_none());
    }

    #[test]
    fn invalidate_forces_recompute() {
        let mut store = ResultStore::new();
        store.put(name(2), vec![5]);
        assert!(store.invalidate(name(2)));
        assert!(!store.invalidate(name(2)));
        assert!(store.get(name(2)).is_none());
        store.put(name(2), vec![6]);
        assert_eq!(store.get(name(2)), Some(&[6u8][..]));
    }

    #[test]
    fn accounting() {
        let mut store = ResultStore::new();
        assert!(store.is_empty());
        store.put(name(1), vec![0; 10]);
        store.put(name(2), vec![0; 5]);
        store.put(name(1), vec![0; 3]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(name(1)).map(<[u8]>::len), Some(3));
        assert!(store.get(name(3)).is_none());
    }

    #[test]
    fn partials_keyed_by_fraction() {
        let mut store = ResultStore::new();
        store.put_partial(name(1), 300, vec![3]);
        store.put_partial(name(1), 700, vec![7]);
        store.put_partial(name(2), 500, vec![5]);
        assert_eq!(store.partial_count(), 3);
        assert_eq!(store.get_partial(name(1), 1000), Some((700, &[7u8][..])));
        assert_eq!(store.get_partial(name(1), 500), Some((300, &[3u8][..])));
        assert_eq!(store.get_partial(name(1), 100), None);
        assert_eq!(store.partial_fractions(name(1)), vec![300, 700]);
        assert_eq!(store.len(), 0, "partials are not final blobs");
    }

    #[test]
    fn final_result_supersedes_partials() {
        let mut store = ResultStore::new();
        store.put_partial(name(1), 300, vec![3]);
        store.put_partial(name(1), 900, vec![9]);
        store.put(name(1), vec![10]);
        assert_eq!(store.partial_count(), 0, "final publish drops partials");
        assert_eq!(store.get(name(1)), Some(&[10u8][..]));
    }

    #[test]
    fn newer_epoch_invalidates_stale_blob_and_partials() {
        // Regression: a streaming run published live partials under the
        // epoch-1 cachename; the dataset then grew and epoch 2 finished
        // under a *different* cachename. Without the versioned link, the
        // epoch-1 partials survived and a client polling the old name
        // read a stale 90% estimate of a superseded result.
        let mut store = ResultStore::new();
        assert!(store.publish_epoch("dv3.watch", 1, name(1), vec![1]));
        store.put_partial(name(1), 900, vec![9]);
        assert_eq!(store.current_epoch("dv3.watch"), Some(1));

        assert!(store.publish_epoch("dv3.watch", 2, name(2), vec![2]));
        assert_eq!(store.current_epoch("dv3.watch"), Some(2));
        assert!(store.get(name(1)).is_none(), "stale blob gone");
        assert_eq!(
            store.get_partial(name(1), 1000),
            None,
            "stale partials gone"
        );
        let (epoch, n, blob) = store.get_versioned("dv3.watch").unwrap();
        assert_eq!((epoch, n, blob), (2, name(2), &[2u8][..]));
    }

    #[test]
    fn same_name_republish_keeps_the_blob_fresh() {
        // A quiet epoch may republish under the same cachename; the blob
        // is replaced (put drops same-name partials) without a spurious
        // invalidation of itself.
        let mut store = ResultStore::new();
        assert!(store.publish_epoch("k", 1, name(1), vec![1]));
        assert!(store.publish_epoch("k", 2, name(1), vec![2]));
        assert_eq!(store.get(name(1)), Some(&[2u8][..]));
    }

    #[test]
    fn stale_epoch_publish_is_refused() {
        let mut store = ResultStore::new();
        assert!(store.publish_epoch("k", 3, name(3), vec![3]));
        assert!(!store.publish_epoch("k", 2, name(2), vec![2]));
        assert_eq!(store.current_epoch("k"), Some(3));
        assert_eq!(store.get(name(3)), Some(&[3u8][..]));
        assert!(store.get(name(2)).is_none());
    }
}
