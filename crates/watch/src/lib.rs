#![deny(unsafe_code)]

//! # vine-watch — reactive recomputation for standing analyses
//!
//! The paper's near-interactive loop (§VII) assumes the *analysis*
//! changes while the data stands still. Production is the other way
//! around: the selection is frozen and the dataset grows — a new run is
//! appended every few hours, and the physics group wants its histograms
//! to track the data without anyone resubmitting anything. This crate
//! turns a one-shot submission into a **standing** one:
//!
//! * [`vine_data::DatasetLog`] — an append-only growth log: partition
//!   appends and spec edits staged and committed in *epochs*, each event
//!   content-hashed, each epoch digest-chained (the replay contract);
//! * [`GraphTemplate`] — instantiates a workload at any epoch with
//!   **subtree content signatures** baked into reduction task names, so
//!   the engine's one-level memo keys see exactly the affected cone as
//!   new and everything else as warm (quiet epoch ⇒ nothing re-runs,
//!   append ⇒ only the spine from that partition to the dataset root,
//!   spec edit ⇒ the reduce stage only);
//! * [`TriggerPolicy`] — when a standing submission refreshes:
//!   every epoch, batched appends, debounced quiet windows, or manual;
//! * [`WatchSession`] — the reactive scheduler: assigns run IDs, diffs
//!   input content hashes against the last completed epoch, charges each
//!   refresh to the owning tenant on a [`vine_serve::ShardedFacility`]
//!   (one shard or many), folds streamed partition deltas exactly-once into a persistent
//!   [`vine_analysis::StreamAccumulator`], and publishes epoch-versioned
//!   results (stale partials invalidated) — so the served histogram
//!   after any refresh is **bit-identical** to a cold full recompute of
//!   the same epoch.
//!
//! Pre-flight, standing submissions pass the W-family lints
//! ([`vine_lint::lint_watch`]): no silent staleness (`W001`), no
//! watch-list wider than the template reads (`W002`), no unbounded
//! debounce (`W003`).

pub mod template;
pub mod trigger;
pub mod watcher;

pub use template::GraphTemplate;
pub use trigger::TriggerPolicy;
pub use watcher::{RefreshRecord, StandingSubmission, WatchReport, WatchSession};
