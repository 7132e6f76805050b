//! One module per reproduced table/figure, ablation study and serving,
//! chaos or streaming sweep, and the registry `vine-fig` runs them from.
//!
//! Each module builds its cells once, runs them, and renders its own
//! console text, CSVs and failed claims into an [`Output`]; modules do
//! no file I/O. [`ALL`] lists every entry with its positional arguments
//! and their defaults, and the gated entries with their check.

use std::path::Path;

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;

use crate::cli::BenchCli;
use crate::lab::Lab;
use crate::report;

pub mod ablations;
pub mod facility;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14a;
pub mod fig14b;
pub mod fig15;
pub mod fig7;
pub mod fig8;
pub mod fig_chaos;
pub mod fig_shards;
pub mod fig_stream;
pub mod fig_watch;
pub mod table1;
pub mod table2;

/// One positional argument of an experiment.
#[derive(Clone, Copy, Debug)]
pub struct Arg {
    /// Name shown in the usage line.
    pub name: &'static str,
    /// Value when the argument is not given.
    pub default: usize,
}

const fn arg(name: &'static str, default: usize) -> Arg {
    Arg { name, default }
}

/// The customary argument: the scale-down divisor, 1 = paper scale.
const SCALE: Arg = arg("scale", 1);

/// What an experiment produces: console text, `(file, csv)` pairs
/// destined for `results/`, and the claims it found false.
#[derive(Clone, Debug, Default)]
pub struct Output {
    /// Everything the experiment prints, in order.
    pub console: String,
    /// CSV files by name, in the order they are written.
    pub files: Vec<(String, String)>,
    /// One line per failed claim; `vine-fig` exits 1 when any, after
    /// writing the files.
    pub failures: Vec<String>,
}

impl Output {
    /// Append one line of console text.
    pub(crate) fn line(&mut self, text: impl AsRef<str>) {
        self.console.push_str(text.as_ref());
        self.console.push('\n');
    }

    /// Append an aligned table (followed by a blank line), and queue it
    /// as `results/<csv>` when named.
    pub(crate) fn table(&mut self, header: &[&str], rows: &[Vec<String>], csv: Option<&str>) {
        self.line(report::render_table(header, rows));
        if let Some(name) = csv {
            self.file(name, report::to_csv(header, rows));
        }
    }

    /// Queue `results/<name>`.
    pub(crate) fn file(&mut self, name: impl Into<String>, csv: String) {
        self.files.push((name.into(), csv));
    }

    /// Record a failed claim.
    pub(crate) fn fail(&mut self, claim: String) {
        self.failures.push(claim);
    }
}

/// How an experiment runs: its lab and every positional argument.
pub type RunFn = fn(&mut Lab, &[usize]) -> Output;

/// One registry entry: a table or figure of the paper, or a sweep.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Name on the `vine-fig` command line (and of its log file).
    pub name: &'static str,
    /// Positional arguments, in order.
    pub args: &'static [Arg],
    /// Run the experiment with every positional argument filled in.
    pub run: RunFn,
    /// The entry's CI-sized run for `vine-fig check`, called with the
    /// defaults. Its claims must hold, and every file it returns must
    /// equal the committed `results/<file>` byte for byte.
    pub check: Option<RunFn>,
}

const fn entry(name: &'static str, args: &'static [Arg], run: RunFn) -> Experiment {
    Experiment {
        name,
        args,
        run,
        check: None,
    }
}

/// Every entry, in the order `vine-fig all` runs them: the paper's
/// tables and figures, then the sweeps. Fig 11's worker count is not
/// stated in the paper; with 14 RS-class workers (700 GB disks) the
/// single-node reduction overflows a disk, as in the paper's left panel,
/// while the tree completes cleanly.
pub const ALL: &[Experiment] = &[
    entry("table1", &[SCALE], table1::figure),
    entry("table2", &[], table2::figure),
    entry("fig7", &[SCALE], fig7::figure),
    entry("fig8", &[SCALE], fig8::figure),
    entry("fig10", &[arg("n_tasks", 15_000)], fig10::figure),
    entry("fig11", &[arg("workers", 14), SCALE], fig11::figure),
    entry("fig12", &[SCALE], fig12::figure),
    entry(
        "fig13",
        &[arg("small_workers", 20), arg("large_workers", 200), SCALE],
        fig13::figure,
    ),
    entry("fig14a", &[SCALE], fig14a::figure),
    entry("fig14b", &[SCALE], fig14b::figure),
    entry("fig15", &[SCALE], fig15::figure),
    entry("ablations", &[arg("scale", 10)], ablations::figure),
    entry("facility", &[arg("scale", 20)], facility::figure).checked(facility::figure),
    entry(
        "fig-shards",
        &[arg("max_tenants", 100_000)],
        fig_shards::figure,
    )
    .checked(fig_shards::check),
    entry(
        "fig-chaos",
        &[arg("scale", fig_chaos::SCALE)],
        fig_chaos::figure,
    )
    .checked(fig_chaos::figure),
    entry("fig-stream", &[arg("scale", 4)], fig_stream::figure).checked(fig_stream::figure),
    entry("fig-watch", &[], fig_watch::figure).checked(fig_watch::check),
];

/// The paper's standard DV3-Large run at `1/scale_down`: the workload,
/// and its 200 twelve-core workers shrunk alike (at least 2). Table I
/// and Figs 7, 8 and 12 run it.
fn dv3_large(scale_down: usize) -> (WorkloadSpec, ClusterSpec) {
    let s = scale_down.max(1);
    let workers = (200 / s).max(2);
    (
        WorkloadSpec::dv3_large().scaled_down(s),
        ClusterSpec::standard(workers),
    )
}

const USAGE: &str = "usage: vine-fig <name|all|list> [args...] [--trace-out DIR] [--metrics]
       vine-fig check <name|all>";

impl Experiment {
    /// The same entry with a check.
    const fn checked(mut self, check: RunFn) -> Experiment {
        self.check = Some(check);
        self
    }

    /// Run the entry with every positional argument filled in. A panic
    /// becomes the output's one failure, `panicked: <message>`, so the
    /// entries after it still run.
    pub fn execute(&self, lab: &mut Lab, args: &[usize]) -> Output {
        guarded(|| (self.run)(lab, args))
    }

    /// Every argument at its default.
    fn defaults(&self) -> Vec<usize> {
        self.args.iter().map(|a| a.default).collect()
    }

    /// Fill the positional arguments from `given`, defaults for the
    /// rest. Each must be a positive integer, and there may be no more
    /// than the entry declares. Errors carry the entry's usage line.
    fn parse_args(&self, given: &[String]) -> Result<Vec<usize>, String> {
        let shown: String = self
            .args
            .iter()
            .map(|a| format!(" [{}={}]", a.name, a.default))
            .collect();
        let usage = format!("usage: vine-fig {}{shown}", self.name);
        if given.len() > self.args.len() {
            let n = self.args.len();
            return Err(format!(
                "{} takes at most {n} argument(s)\n{usage}",
                self.name
            ));
        }
        let mut values = self.defaults();
        for ((slot, arg), text) in values.iter_mut().zip(self.args).zip(given) {
            *slot = text
                .parse()
                .ok()
                .filter(|&n: &usize| n > 0)
                .ok_or_else(|| {
                    format!(
                        "{} must be a positive integer, got `{text}`\n{usage}",
                        arg.name
                    )
                })?;
        }
        Ok(values)
    }

    /// Run the entry's check in a quiet lab: its output, with one more
    /// failure for each file it returns that differs from
    /// `<results>/<file>` or cannot be read there. A panic becomes a
    /// failure as in [`Experiment::execute`]. `None` when the entry has
    /// no check.
    pub fn run_check(&self, results: &Path) -> Option<Output> {
        let check = self.check?;
        let mut out = guarded(|| check(&mut Lab::quiet(), &self.defaults()));
        for (name, text) in &out.files {
            let path = results.join(name);
            match std::fs::read(&path) {
                Ok(committed) if committed == text.as_bytes() => {}
                Ok(committed) => out.failures.push(first_difference(
                    &path,
                    &String::from_utf8_lossy(&committed),
                    text,
                )),
                Err(e) => out
                    .failures
                    .push(format!("cannot read {}: {e}", path.display())),
            }
        }
        Some(out)
    }
}

/// Call `f`, turning a panic into an output whose one failure is
/// `panicked: <message>`.
fn guarded(f: impl FnOnce() -> Output) -> Output {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-text payload".to_string());
        Output {
            failures: vec![format!("panicked: {message}")],
            ..Output::default()
        }
    })
}

/// Name `path` and the first line at which `committed` and `checked`
/// part.
fn first_difference(path: &Path, committed: &str, checked: &str) -> String {
    let a: Vec<&str> = committed.lines().collect();
    let b: Vec<&str> = checked.lines().collect();
    let i = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let at = |lines: &[&str]| lines.get(i).copied().unwrap_or("<end>").to_string();
    format!(
        "{} differs from the check at line {}\n  committed: {}\n  checked:   {}",
        path.display(),
        i + 1,
        at(&a),
        at(&b)
    )
}

/// What a `vine-fig` command line asks for.
#[derive(Clone, Debug)]
pub enum Target {
    /// Print the registered names.
    List,
    /// Run these entries with these arguments (`all`: every entry at its
    /// defaults).
    Run(Vec<(&'static Experiment, Vec<usize>)>),
    /// Run these entries' checks (`check all`: every entry that has
    /// one).
    Check(Vec<&'static Experiment>),
}

/// Parse `vine-fig <name|all|list> [args...] [--trace-out DIR]
/// [--metrics]` or `vine-fig check <name|all>` into its target and the
/// observability flags (in the returned [`BenchCli`]). The shared flags
/// no figure honours are refused, and a check takes none. Errors carry a
/// usage line.
pub fn parse_invocation(
    args: impl IntoIterator<Item = String>,
) -> Result<(Target, BenchCli), String> {
    let args: Vec<String> = args.into_iter().collect();
    let unsupported = [
        "--chaos",
        "--recovery",
        "--bench-json",
        "--stream-threshold",
    ];
    if let Some(flag) = args.iter().find(|a| unsupported.contains(&a.as_str())) {
        return Err(format!("{flag} is not supported by vine-fig\n{USAGE}"));
    }
    let cli = BenchCli::from_args(args.into_iter()).map_err(|e| format!("{e}\n{USAGE}"))?;
    let target = match cli.rest.split_first() {
        None => return Err(USAGE.to_string()),
        Some((name, [])) if name == "list" => Target::List,
        Some((name, [])) if name == "all" => {
            Target::Run(ALL.iter().map(|e| (e, e.defaults())).collect())
        }
        Some((name, _)) if name == "list" || name == "all" => {
            return Err(format!("{name} takes no arguments\n{USAGE}"))
        }
        Some((name, which)) if name == "check" => {
            let checked = || ALL.iter().filter(|e| e.check.is_some());
            let exps: Vec<&Experiment> = match which {
                [w] if w == "all" => checked().collect(),
                [w] => checked().filter(|e| e.name == w).collect(),
                _ => Vec::new(),
            };
            if exps.is_empty() || cli.enabled() {
                let names: Vec<&str> = checked().map(|e| e.name).collect();
                return Err(format!(
                    "check takes `all` or one of {} and no flags\n{USAGE}",
                    names.join(", ")
                ));
            }
            Target::Check(exps)
        }
        Some((name, given)) => {
            let Some(exp) = ALL.iter().find(|e| e.name == name) else {
                return Err(format!(
                    "unknown experiment `{name}` (see `vine-fig list`)\n{USAGE}"
                ));
            };
            Target::Run(vec![(exp, exp.parse_args(given)?)])
        }
    };
    Ok((target, cli))
}
