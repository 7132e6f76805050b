//! `vine-sim`'s own command line: workload, stack and cluster shape,
//! lint mode and a few ablation switches. The shared flag family
//! (`--trace-out`, `--chaos`, …) is [`crate::cli::BenchCli`]'s.

/// `vine-sim`'s own arguments, after [`crate::cli::BenchCli`] has
/// stripped the shared flag family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// `--workload`: the workload name (default `dv3-large`).
    pub workload: String,
    /// `--stack`: the Table I stack, 1–4 (default 4).
    pub stack: usize,
    /// `--scheduler dask`: run under Dask.Distributed instead.
    pub dask: bool,
    /// `--workers`: worker count; 0 picks the workload's default.
    pub workers: usize,
    /// `--scale`: divide the workload (and the default workers) by this.
    pub scale: usize,
    /// `--seed`: the run seed (default 42).
    pub seed: u64,
    /// `--single-node-reduction`: reduce on one node, not a tree.
    pub single_node: bool,
    /// `--no-peer-transfers`: disable worker-to-worker transfers.
    pub no_peer: bool,
    /// `--placement round-robin`: data-oblivious placement.
    pub round_robin: bool,
    /// `--replicas`: intermediate replica target.
    pub replicas: Option<u32>,
    /// `--remote-inputs`: read inputs over XRootD, not the shared FS.
    pub remote_inputs: bool,
    /// `--dot FILE`: write the task graph as DOT.
    pub dot: Option<String>,
    /// `--explain-memo FILE`: write the memo plan of an edited resubmission.
    pub explain_memo: Option<String>,
    /// `--lint`: print the static report and exit.
    pub lint_only: bool,
    /// `--lint-deny=warn`: warnings fail the lint or the pre-flight gate.
    pub lint_deny_warn: bool,
    /// `--no-preflight`: skip the engine's pre-flight gate.
    pub no_preflight: bool,
    /// `--bench-reps`: plain repetitions timed for `--bench-json` (≥ 1).
    pub bench_reps: usize,
}

/// Parse `argv` (the arguments after the shared flags). Bad input is an
/// `Err` with a one-line message, never a panic.
pub fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "dv3-large".into(),
        stack: 4,
        dask: false,
        workers: 0,
        scale: 1,
        seed: 42,
        single_node: false,
        no_peer: false,
        round_robin: false,
        replicas: None,
        remote_inputs: false,
        dot: None,
        explain_memo: None,
        lint_only: false,
        lint_deny_warn: false,
        no_preflight: false,
        bench_reps: 1,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--stack" => {
                args.stack = value("--stack")?
                    .parse()
                    .map_err(|e| format!("--stack: {e}"))?;
                if !(1..=4).contains(&args.stack) {
                    return Err(format!("--stack: must be 1..=4, got {}", args.stack));
                }
            }
            "--scheduler" => {
                let v = value("--scheduler")?;
                match v.as_str() {
                    "dask" => args.dask = true,
                    "taskvine" => args.stack = 4,
                    "workqueue" => args.stack = 2,
                    other => return Err(format!("unknown scheduler {other}")),
                }
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if args.scale == 0 {
                    return Err("--scale: must be at least 1, got 0".into());
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--replicas" => {
                args.replicas = Some(
                    value("--replicas")?
                        .parse()
                        .map_err(|e| format!("--replicas: {e}"))?,
                )
            }
            "--single-node-reduction" => args.single_node = true,
            "--no-peer-transfers" => args.no_peer = true,
            "--placement" => {
                let v = value("--placement")?;
                match v.as_str() {
                    "round-robin" => args.round_robin = true,
                    "data-aware" => args.round_robin = false,
                    other => return Err(format!("unknown placement {other}")),
                }
            }
            "--remote-inputs" => args.remote_inputs = true,
            "--dot" => args.dot = Some(value("--dot")?),
            "--explain-memo" => args.explain_memo = Some(value("--explain-memo")?),
            "--lint" => args.lint_only = true,
            "--lint-deny=warn" => args.lint_deny_warn = true,
            "--lint-deny" => match value("--lint-deny")?.as_str() {
                "warn" => args.lint_deny_warn = true,
                other => return Err(format!("unknown --lint-deny level {other}")),
            },
            "--no-preflight" => args.no_preflight = true,
            "--bench-reps" => {
                args.bench_reps = value("--bench-reps")?
                    .parse::<usize>()
                    .map_err(|e| format!("--bench-reps: {e}"))?
                    .max(1)
            }
            "--help" | "-h" => {
                return Err(
                    "usage: see module docs (vine-sim --workload dv3-large --stack 4 ...)"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}
