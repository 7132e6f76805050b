#![deny(unsafe_code)]

//! # vine-data — synthetic HEP data substrate
//!
//! Stands in for the CMS ROOT datasets the paper consumes (which are
//! proprietary). Provides:
//!
//! * [`jagged`] — awkward-array-style jagged arrays (per-event variable-
//!   length lists of jets/photons) over flat storage;
//! * [`events`] — [`events::EventBatch`], a columnar batch of collision
//!   events with scalar and jagged columns;
//! * [`gen`] — deterministic, physics-shaped event generation (jet pₜ
//!   spectra, b-tag scores, photon kinematics, MET);
//! * [`rootfile`] — a ROOT-like dataset catalog: datasets → files →
//!   column chunks, with sizes, so the simulator can cost I/O without
//!   materializing events, while the real executor materializes the same
//!   chunks deterministically on demand;
//! * [`hist`] — 1-D/2-D histograms whose merge is commutative and
//!   associative — the property that legitimizes hierarchical reduction
//!   (Fig 11).

pub mod codec;
pub mod events;
pub mod gen;
pub mod hist;
pub mod jagged;
pub mod log;
pub mod rootfile;
pub mod stream;

pub use codec::{
    decode_event_batch, decode_histogram_set, encode_event_batch, encode_histogram_set, CodecError,
};
pub use events::EventBatch;
pub use gen::EventGenerator;
pub use hist::{Hist1D, Hist2D, HistogramSet};
pub use jagged::Jagged;
pub use log::{DatasetLog, GrowthEvent, GrowthKind};
pub use rootfile::{Chunk, Dataset, RootFile};
pub use stream::{partition_delta, STREAM_HIST};
pub use vine_simcore::fnv1a64;
