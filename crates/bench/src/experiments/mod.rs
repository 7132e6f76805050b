//! One module per reproduced table/figure, plus ablation studies, and
//! the registry `vine-fig` runs them from.
//!
//! Each module builds its cells once, runs them through a [`Lab`], and
//! renders its own console text and CSVs into an [`Output`]; modules do
//! no file I/O. [`ALL`] lists every entry with its positional arguments
//! and their defaults.

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;

use crate::cli::BenchCli;
use crate::lab::Lab;
use crate::report;

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14a;
pub mod fig14b;
pub mod fig15;
pub mod fig7;
pub mod fig8;
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

/// What an experiment produces: console text, and `(file, csv)` pairs
/// destined for `results/`.
#[derive(Clone, Debug, Default)]
pub struct Output {
    /// Everything the experiment prints, in order.
    pub console: String,
    /// CSV files by name, in the order they are written.
    pub files: Vec<(String, String)>,
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
}

/// One registry entry: a table or figure of the paper.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Name on the `vine-fig` command line (and of its log file).
    pub name: &'static str,
    /// Positional arguments, in order.
    pub args: &'static [Arg],
    /// Run the experiment with every positional argument filled in.
    pub run: fn(&mut Lab, &[usize]) -> Output,
}

const fn entry(
    name: &'static str,
    args: &'static [Arg],
    run: fn(&mut Lab, &[usize]) -> Output,
) -> Experiment {
    Experiment { name, args, run }
}

/// Every entry, in the order `vine-fig all` runs them. Fig 11's worker
/// count is not stated in the paper; with 14 RS-class workers (700 GB
/// disks) the single-node reduction overflows a disk, as in the paper's
/// left panel, while the tree completes cleanly.
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

const USAGE: &str = "usage: vine-fig <name|all|list> [args...] [--trace-out DIR] [--metrics]";

impl Experiment {
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
}

/// What a `vine-fig` command line asks for.
#[derive(Clone, Debug)]
pub enum Target {
    /// Print the registered names.
    List,
    /// Run these entries with these arguments (`all`: every entry at its
    /// defaults).
    Run(Vec<(&'static Experiment, Vec<usize>)>),
}

/// Parse `vine-fig <name|all|list> [args...] [--trace-out DIR]
/// [--metrics]` into its target and the observability flags (in the
/// returned [`BenchCli`]). The shared flags no figure honours are
/// refused. Errors carry a usage line.
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
