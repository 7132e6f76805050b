//! Reproduce the paper's tables and figures.
//!
//! Usage: `vine-fig <name|all|list> [args...] [--trace-out DIR] [--metrics]`
//!
//! `vine-fig list` prints the registered experiments, one per line, and
//! `vine-fig all` runs every one at its defaults (paper scale). Each
//! experiment prints its tables and writes its CSVs under `results/`;
//! with `--trace-out`/`--metrics` its recorded cells also export their
//! traces and metrics. Bad arguments exit 2 with a usage line.

use vine_bench::experiments::{self, Target};
use vine_bench::lab::Lab;
use vine_bench::report;

fn main() {
    let (target, cli) = match experiments::parse_invocation(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let runs = match target {
        Target::List => {
            for e in experiments::ALL {
                println!("{}", e.name);
            }
            return;
        }
        Target::Run(runs) => runs,
    };
    for (exp, args) in runs {
        eprintln!("{} {args:?} ...", exp.name);
        let mut lab = Lab::new(cli.trace_dir.clone(), cli.metrics);
        let out = (exp.run)(&mut lab, &args);
        print!("{}", out.console);
        for (name, csv) in &out.files {
            report::write_csv(name, csv);
        }
        print!("{}", lab.take_stdout());
    }
}
