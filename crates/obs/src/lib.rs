#![deny(unsafe_code)]

//! # vine-obs — unified observability for both execution paths
//!
//! The paper's entire argument is a sequence of observability claims:
//! Table I's 13.03× decomposes into dispatch/transfer/interpreter/import/
//! compute time, Fig 7 is a transfer matrix, Figs 12–13 are concurrency
//! and occupancy timelines. This crate is the layer that produces those
//! artifacts for *any* run — simulated (`vine-core`'s engine, integer
//! microseconds of virtual time) or real (`vine-exec`'s threaded
//! runtime, wall-clock microseconds) — behind one set of abstractions:
//!
//! * [`span`] — the structured event model: [`Span`]s (name, category,
//!   start/end, attributes), [`InstantEvent`]s, and counter samples.
//! * [`recorder`] — the pluggable [`Recorder`] trait with a zero-cost
//!   [`NullRecorder`] default, an in-memory [`MemoryRecorder`] that
//!   feeds the exporters, and [`Tee`], which sends one run's events to
//!   two recorders.
//! * [`clock`] — the [`Clock`] abstraction over run-relative timestamps
//!   and its real-time source, [`WallClock`] (monotonic `Instant`).
//! * [`metrics`] — a registry of counters, gauges, and log-binned
//!   histograms with deterministic text export and parsing.
//! * [`chrome`] / [`csv`] — exporters: Chrome `trace_event` JSON
//!   (loadable in Perfetto / `chrome://tracing`) and CSV, hand-rolled
//!   without serde.
//! * [`json`] — a minimal validating JSON parser used to verify exported
//!   traces in tests.
//! * [`attrib`] — per-task overhead attribution into the paper's cost
//!   phases (dispatch, input transfer, interpreter startup, imports,
//!   compute, output transfer), with the invariant that phases sum to
//!   task wall time exactly.
//! * [`critical`] — critical-path extraction over a completed DAG.
//! * [`digest`] — [`RunDigest`], a compact phase-by-phase summary of a
//!   run, and [`RunDigest::diff`] for cross-run comparison (same seed or
//!   cross-policy).
//! * [`bridge`] — [`FigureRecorder`], a [`Recorder`] that folds spans and
//!   counters into the `vine-simcore::trace` sinks backing the paper's
//!   figures. The engine has one sink, the recorder its caller attaches;
//!   a figure attaches this one, so every figure is derived from the
//!   same events the exporters see.

pub mod attrib;
pub mod bridge;
pub mod chrome;
pub mod clock;
pub mod critical;
pub mod csv;
pub mod digest;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use attrib::{Phase, PhaseBreakdown, TaskAttribution, NPHASES};
pub use bridge::{FigureRecorder, FigureSet, FigureSinks};
pub use clock::{Clock, WallClock};
pub use critical::CriticalPath;
pub use digest::{DigestDiff, RunDigest, RunObs};
pub use metrics::{Metric, MetricsRegistry};
pub use recorder::{MemoryRecorder, NullRecorder, Recorder, Tee};
pub use span::{Attr, AttrValue, InstantEvent, Span};
