#![deny(unsafe_code)]

//! # vine-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each with a
//! `run(lab, ...)` entry point returning structured rows, and one per
//! serving, chaos or streaming sweep; each has a registry entry
//! ([`experiments::ALL`]) that renders it. The `vine-fig` binary runs an
//! entry by name — `vine-fig <name> [args...]` — printing its tables and
//! writing its CSVs under `results/`; every plain engine cell goes
//! through one [`lab::Lab`]. `vine-fig check <name|all>` runs the gated
//! entries' CI-sized checks against the committed `results/`. The
//! Criterion benches in `benches/` run scaled-down versions of the same
//! experiments.
//!
//! | Artifact | Module | Command |
//! |---|---|---|
//! | Table I (stack evolution) | [`experiments::table1`] | `vine-fig table1` |
//! | Table II (workloads) | [`experiments::table2`] | `vine-fig table2` |
//! | Fig 7 (transfer heatmap) | [`experiments::fig7`] | `vine-fig fig7` |
//! | Fig 8 (task time distribution) | [`experiments::fig8`] | `vine-fig fig8` |
//! | Fig 10 (import hoisting) | [`experiments::fig10`] | `vine-fig fig10` |
//! | Fig 11 (reduction shape) | [`experiments::fig11`] | `vine-fig fig11` |
//! | Fig 12 (stack timelines) | [`experiments::fig12`] | `vine-fig fig12` |
//! | Fig 13 (worker Gantt) | [`experiments::fig13`] | `vine-fig fig13` |
//! | Fig 14a (vs Dask.Distributed) | [`experiments::fig14a`] | `vine-fig fig14a` |
//! | Fig 14b (scaling to 2400 cores) | [`experiments::fig14b`] | `vine-fig fig14b` |
//! | Fig 15 (DV3-Huge at 7200 cores) | [`experiments::fig15`] | `vine-fig fig15` |
//! | Ablations (DESIGN.md §5) | [`experiments::ablations`] | `vine-fig ablations` |
//! | Facility (DESIGN.md §9) | [`experiments::facility`] | `vine-fig facility` |
//! | Federation sweep (DESIGN.md §13) | [`experiments::fig_shards`] | `vine-fig fig-shards` |
//! | Chaos matrix (DESIGN.md §10) | [`experiments::fig_chaos`] | `vine-fig fig-chaos` |
//! | Streaming early stop (DESIGN.md §11) | [`experiments::fig_stream`] | `vine-fig fig-stream` |
//! | Standing analyses (DESIGN.md §14) | [`experiments::fig_watch`] | `vine-fig fig-watch` |

pub mod cli;
pub mod experiments;
pub mod lab;
pub mod obsout;
pub mod plot;
pub mod report;
pub mod simargs;
