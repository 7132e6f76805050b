#![deny(unsafe_code)]

//! # vine-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each with a
//! `run(lab, ...)` entry point returning structured rows and a registry
//! entry ([`experiments::ALL`]) that renders them. The `vine-fig` binary
//! runs an entry by name — `vine-fig <name> [args...]` — printing its
//! tables and writing its CSVs under `results/`; every engine run goes
//! through one [`lab::Lab`]. The Criterion benches in `benches/` run
//! scaled-down versions of the same experiments.
//!
//! | Paper artifact | Module | Command |
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

pub mod cli;
pub mod experiments;
pub mod lab;
pub mod obsout;
pub mod plot;
pub mod report;
pub mod simargs;
