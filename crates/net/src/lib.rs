#![deny(unsafe_code)]

//! # vine-net — cluster network fabric
//!
//! Models the in-cluster network as a star: every node (manager, workers,
//! shared-filesystem endpoint) has an egress and an ingress access link;
//! the core is non-blocking. Concurrent flows share link capacity
//! **max–min fairly** ([`fairshare`]), which captures the two effects the
//! paper's evaluation turns on:
//!
//! * with Work Queue, every task's inputs and outputs cross the *manager's*
//!   access link, so hundreds of concurrent transfers collapse to a few
//!   MB/s each (Fig 7 left, Table I Stacks 1–2);
//! * with TaskVine peer transfers, flows spread across worker links and the
//!   per-pair volume drops by an order of magnitude (Fig 7 right).
//!
//! [`Fabric`] is engine-driven: the simulation engine starts flows, asks
//! for the next projected completion, and advances the fabric to that
//! instant. Rates are re-solved lazily, once per read after any change of
//! the active-flow set or the capacities, and in-flight progress is
//! preserved across re-solves.

pub mod fabric;
pub mod fairshare;

pub use fabric::{Fabric, FlowId, FlowRecord, NodeId};
