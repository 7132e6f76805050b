#![deny(unsafe_code)]

//! # vine-cluster — compute-cluster substrate
//!
//! Models the paper's execution facility (§IV, §V): a heterogeneous campus
//! HTCondor pool from which 12-core **workers** are allocated
//! opportunistically. Two behaviours matter to the evaluation:
//!
//! * **worker shape** — the paper's standard worker is 12 cores, 96 GB RAM,
//!   108 GB disk ([`WorkerSpec::dv3_standard`]); RS-TriPhoton workers get
//!   700 GB disk and 200 GB RAM ([`WorkerSpec::rs_triphoton`]);
//! * **batch ramp-up** — workers are jobs in a batch system and do not all
//!   materialize at t=0 ([`BatchSystem`]).
//!
//! Opportunistic preemption is a fault process, not a cluster property:
//! it is a `vine_chaos::Fault::Preemption` entry of the run's fault plan.

pub mod batch;
pub mod spec;

pub use batch::BatchSystem;
pub use spec::{ClusterSpec, WorkerSpec};
