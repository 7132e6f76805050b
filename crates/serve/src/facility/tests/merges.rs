//! Differential tests of the shard's name-ordered merges against the
//! sort-and-lookup code they replaced, kept here as references.

use super::*;
use proptest::prelude::*;

fn name(i: u32) -> CacheName {
    CacheName::for_dataset_file("merge-test", i)
}

/// The size a `(name, size)` snapshot records for `name`.
pub(super) fn size_in(residency: &[(CacheName, u64)], name: CacheName) -> Option<u64> {
    residency
        .binary_search_by_key(&name, |&(n, _)| n)
        .ok()
        .map(|i| residency[i].1)
}

/// Reference residency: collect every checked-in entry, sort, and keep
/// each name's largest size.
pub(super) fn residency_by_sort(shard: &Shard) -> Vec<(CacheName, u64)> {
    let mut all = Vec::new();
    for c in &shard.caches {
        all.extend(c.iter().map(|(name, size, _)| (name, size)));
    }
    all.sort_unstable();
    all.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
    all
}

/// Reference ownership update: every name on the slice is looked up and
/// inserted if absent, then every owned name is binary-searched in the
/// snapshot and dropped when absent.
fn reown_by_lookup(
    shard: &Shard,
    owner: &mut BTreeMap<CacheName, usize>,
    tenant: usize,
    slice: &[usize],
) {
    for &w in slice {
        for (name, _, _) in shard.caches[w].iter() {
            owner.entry(name).or_insert(tenant);
        }
    }
    let residency = residency_by_sort(shard);
    owner.retain(|&n, _| size_in(&residency, n).is_some());
}

/// Reference `owned_bytes`: one binary search per owned name.
fn owned_bytes_by_lookup(
    owner: &BTreeMap<CacheName, usize>,
    residency: &[(CacheName, u64)],
    tenant: usize,
) -> u64 {
    owner
        .iter()
        .filter(|&(_, &o)| o == tenant)
        .filter_map(|(&name, _)| size_in(residency, name))
        .sum()
}

/// Reference quota enforcement: the owned names in order, each cleared
/// from every cache (pins first) until the tenant is under `quota`.
fn enforce_by_lookup(
    shard: &mut Shard,
    owner: &mut BTreeMap<CacheName, usize>,
    tenant: usize,
    quota: u64,
) {
    let residency = residency_by_sort(shard);
    let mut usage = owned_bytes_by_lookup(owner, &residency, tenant);
    if usage <= quota {
        return;
    }
    let owned: Vec<CacheName> = owner
        .iter()
        .filter(|&(_, &o)| o == tenant)
        .map(|(n, _)| *n)
        .collect();
    for name in owned {
        if usage <= quota {
            break;
        }
        let Some(size) = size_in(&residency, name) else {
            continue;
        };
        for c in &mut shard.caches {
            c.clear_pins();
            let _ = c.remove(name);
        }
        owner.remove(&name);
        usage -= size.min(usage);
    }
}

/// Reference slice score: one `size_of` lookup per wanted name.
fn overlap_by_lookup(wanted: &[(CacheName, u64)], cache: &LocalCache) -> u64 {
    wanted
        .iter()
        .filter(|&&(n, s)| cache.size_of(n) == Some(s))
        .map(|&(_, s)| s)
        .sum()
}

/// A generated cache entry: `(name id, size, pinned)`.
type Entry = (u32, u64, bool);

/// One random shard state: per demo worker either a checked-out
/// placeholder or `(name, size, pinned)` entries drawn from a small pool
/// at three sizes (so one name is often resident at two sizes), plus an
/// owner table that may name non-resident names, a written-back slice,
/// the writing tenant and its byte quota.
#[derive(Clone, Debug)]
struct State {
    caches: Vec<(bool, Vec<Entry>)>,
    owner: Vec<(u32, usize)>,
    slice: Vec<usize>,
    tenant: usize,
    quota: u64,
}

fn state() -> impl Strategy<Value = State> {
    let entry = (0u32..40, 1u64..4, 0u32..6).prop_map(|(n, s, p)| (n, 100 * s, p == 0));
    let cache = (0u32..4, collection::vec(entry, 0..30)).prop_map(|(out, e)| (out == 0, e));
    (
        collection::vec(cache, 8..9),
        collection::vec((0u32..48, 0usize..2), 0..40),
        collection::vec(0usize..8, 0..5),
        0usize..2,
        0u64..3000,
    )
        .prop_map(|(caches, owner, slice, tenant, quota)| State {
            caches,
            owner,
            slice,
            tenant,
            quota,
        })
}

/// The shard `st` describes, and its owner table as the old map.
fn build(st: &State) -> (Shard, BTreeMap<CacheName, usize>) {
    let mut shard = Shard::new(FacilityConfig::demo(3), None, 0, 1);
    for (w, (checked_out, entries)) in st.caches.iter().enumerate() {
        if *checked_out {
            shard.caches[w] = LocalCache::new(0);
            continue;
        }
        for &(n, size, pinned) in entries {
            let kind = CacheEntryKind::Intermediate;
            shard.caches[w].insert(name(n), size, kind).unwrap();
            if pinned {
                shard.caches[w].pin(name(n)).unwrap();
            }
        }
    }
    let owner: BTreeMap<CacheName, usize> = st.owner.iter().map(|&(n, t)| (name(n), t)).collect();
    shard.owner = owner.iter().map(|(&n, &t)| (n, t)).collect();
    (shard, owner)
}

/// A cache's observable state: entries, occupancy and pins.
fn cache_state(c: &LocalCache) -> (Vec<(CacheName, u64, bool)>, u64) {
    let entries = c.iter().map(|(n, s, _)| (n, s, c.is_pinned(n))).collect();
    (entries, c.used())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The k-way merge equals the sort: checked-out (zero-capacity)
    /// caches contribute nothing, a name resident at two sizes keeps the
    /// larger, and `on_slice` marks exactly the names a slice worker holds.
    #[test]
    fn residency_merge_matches_the_sort(st in state()) {
        let (shard, _) = build(&st);
        let got = shard.residency(&st.slice);
        let sized: Vec<(CacheName, u64)> = got.iter().map(|r| (r.name, r.size)).collect();
        prop_assert_eq!(sized, residency_by_sort(&shard));
        for r in &got {
            let held = st.slice.iter().any(|&w| shard.caches[w].contains(r.name));
            prop_assert_eq!(r.on_slice, held);
        }
    }

    /// `reown` and `owned_bytes` equal the per-name inserts, retain and
    /// lookups, for owner tables holding stale and foreign names.
    #[test]
    fn ownership_merges_match_the_lookups(st in state()) {
        let (mut shard, mut owner) = build(&st);
        let residency = shard.residency(&st.slice);
        shard.reown(st.tenant, &residency);
        reown_by_lookup(&shard, &mut owner, st.tenant, &st.slice);
        let want: Vec<(CacheName, usize)> = owner.iter().map(|(&n, &t)| (n, t)).collect();
        prop_assert_eq!(&shard.owner, &want);
        let sorted = residency_by_sort(&shard);
        for t in 0..2 {
            prop_assert_eq!(
                shard.owned_bytes(t, &residency),
                owned_bytes_by_lookup(&owner, &sorted, t)
            );
        }
        // Before the re-own, owner may name non-resident names too.
        let (fresh, old) = build(&st);
        for t in 0..2 {
            prop_assert_eq!(
                fresh.owned_bytes(t, &fresh.residency(&[])),
                owned_bytes_by_lookup(&old, &residency_by_sort(&fresh), t)
            );
        }
    }

    /// Quota enforcement after a re-own evicts the same names from the
    /// same caches (pins cleared) and leaves the same owner table.
    #[test]
    fn quota_enforcement_matches_the_lookups(st in state()) {
        let (mut shard, _) = build(&st);
        let (mut reference, mut owner) = build(&st);
        shard.cfg.tenants[st.tenant].max_resident_bytes = st.quota;
        let residency = shard.residency(&st.slice);
        shard.reown(st.tenant, &residency);
        shard.enforce_byte_quota(st.tenant, &residency);
        reown_by_lookup(&reference, &mut owner, st.tenant, &st.slice);
        enforce_by_lookup(&mut reference, &mut owner, st.tenant, st.quota);
        let want: Vec<(CacheName, usize)> = owner.iter().map(|(&n, &t)| (n, t)).collect();
        prop_assert_eq!(&shard.owner, &want);
        for (a, b) in shard.caches.iter().zip(&reference.caches) {
            prop_assert_eq!(cache_state(a), cache_state(b));
        }
    }

    /// The merged slice score equals the per-name lookups, with repeated
    /// wanted names (each counts) and sizes that miss.
    #[test]
    fn slice_score_matches_the_lookups(
        st in state(),
        wanted in collection::vec((0u32..48, 1u64..4), 0..60),
    ) {
        let (shard, _) = build(&st);
        let mut wanted: Vec<(CacheName, u64)> =
            wanted.into_iter().map(|(n, s)| (name(n), 100 * s)).collect();
        let unsorted_total: Vec<u64> =
            shard.caches.iter().map(|c| overlap_by_lookup(&wanted, c)).collect();
        wanted.sort_unstable();
        let merged: Vec<u64> = shard.caches.iter().map(|c| overlap_bytes(&wanted, c)).collect();
        prop_assert_eq!(merged, unsorted_total);
    }
}
