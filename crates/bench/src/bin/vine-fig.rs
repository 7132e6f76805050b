//! Reproduce the paper's tables and figures, and run the sweeps.
//!
//! Usage: `vine-fig <name|all|list> [args...] [--trace-out DIR] [--metrics]`
//! or `vine-fig check <name|all>`
//!
//! `vine-fig list` prints the registered experiments, one per line, and
//! `vine-fig all` runs every one at its defaults (paper scale for the
//! paper's tables and figures). Each
//! experiment prints its tables and writes its CSVs under `results/`;
//! with `--trace-out`/`--metrics` its recorded cells also export their
//! traces and metrics. `vine-fig check` runs the gated entries' CI-sized
//! checks and writes nothing. A failed claim, a check file that differs
//! from its committed `results/` copy, or an entry that panics (reported
//! as `FAIL <name>: panicked: <message>`) exits 1 once every requested
//! entry has run. Bad arguments exit 2 with a usage line.

use std::path::Path;

use vine_bench::experiments::{self, Output, Target};
use vine_bench::lab::Lab;
use vine_bench::report;

/// Print `out`'s failures on stderr; true when there were any.
fn failed(name: &str, out: &Output) -> bool {
    for f in &out.failures {
        eprintln!("FAIL {name}: {f}");
    }
    !out.failures.is_empty()
}

fn main() {
    let (target, cli) = match experiments::parse_invocation(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut any_failed = false;
    match target {
        Target::List => {
            for e in experiments::ALL {
                println!("{}", e.name);
            }
        }
        Target::Run(runs) => {
            for (exp, args) in runs {
                eprintln!("{} {args:?} ...", exp.name);
                let mut lab = Lab::new(cli.trace_dir.clone(), cli.metrics);
                let out = exp.execute(&mut lab, &args);
                print!("{}", out.console);
                for (name, csv) in &out.files {
                    report::write_csv(name, csv);
                }
                print!("{}", lab.take_stdout());
                any_failed |= failed(exp.name, &out);
            }
        }
        Target::Check(exps) => {
            for exp in exps {
                eprintln!("check {} ...", exp.name);
                let out = exp
                    .run_check(Path::new("results"))
                    .expect("parse_invocation returns checked entries only");
                print!("{}", out.console);
                if failed(exp.name, &out) {
                    any_failed = true;
                } else {
                    println!("check {}: ok", exp.name);
                }
            }
        }
    }
    if any_failed {
        std::process::exit(1);
    }
}
