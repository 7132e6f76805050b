#![deny(unsafe_code)]

//! # vine-store — a shared content-addressed object tier for federated facilities
//!
//! One TaskVine manager keeps its warm state on its own workers' disks;
//! a *federated* facility runs N managers (shards) over N worker pools,
//! and a cachename produced on shard A is invisible to shard B. This
//! crate closes that gap with a vineyard-style immutable object tier
//! shared between shards:
//!
//! * [`ObjectStore`] — an in-memory, content-addressed index of
//!   immutable objects keyed by the lineage-signature
//!   [`vine_storage::CacheName`]s the engine already derives. Entries
//!   carry only their byte size (the simulation never materializes
//!   payloads); identity *is* content, so a second `put` of the same
//!   name is a no-op and a size disagreement is a hard error surfaced
//!   as [`PutOutcome::SizeMismatch`].
//! * **Eviction** is LRU over unpinned entries under a configurable
//!   byte capacity; pins are refcounts taken by shards while a fetch's
//!   run is in flight, so an object can never be evicted between the
//!   moment a shard decided to rely on it and the moment the run's
//!   writeback completes. An index of the unpinned entries ordered by
//!   last use makes each eviction O(log n) rather than a scan of every
//!   entry; the entries themselves sit in a hash index by name, so a
//!   put or lookup is one probe.
//! * **Accounting** is per shard: hit/miss/eviction/put counters and
//!   fetched bytes, exported deterministically through a
//!   [`vine_obs::MetricsRegistry`] (sorted text dump, byte-stable).
//! * **Transfer costs** reuse the `vine-net` fabric: the store is a
//!   node with a bounded egress link, each shard a node with a bounded
//!   ingress link, and a cross-shard fetch of `b` bytes is charged the
//!   max–min fair completion time of a `b`-byte flow between them plus
//!   a fixed latency ([`ObjectStore::fetch_cost`]). A warm hit on a
//!   remote shard is therefore cheaper than recompute but never free.
//!
//! Everything is deterministic: the only ordered state is the BTree LRU
//! index (the hash index is never iterated), LRU age is a tick (no wall
//! clocks), and counters that depend only on the call
//! sequence — the sharded facility's lockstep event loop replays
//! bit-identically for a fixed seed.

pub mod object;

pub use object::{ObjectStore, PutOutcome, ShardCounters, DEMO_CAPACITY};
