//! vine-sim — run any workload × stack × cluster configuration from the
//! command line.
//!
//! ```text
//! vine-sim [--workload NAME] [--stack N | --scheduler dask] [--workers N]
//!          [--scale N] [--seed N] [--single-node-reduction]
//!          [--no-peer-transfers] [--placement round-robin]
//!          [--replicas N] [--remote-inputs] [--dot FILE]
//!          [--explain-memo FILE]
//!          [--chaos PRESET|SPEC] [--recovery default|hardened|fragile]
//!          [--lint] [--lint-deny=warn] [--no-preflight]
//!          [--trace-out DIR] [--metrics] [--bench-json FILE]
//!          [--bench-reps N] [--stream-threshold T]
//! ```
//!
//! Workloads: dv3-small, dv3-medium, dv3-large (default), dv3-full,
//! dv3-huge, agc-scale, rs-triphoton.
//!
//! `--chaos` injects deterministic faults: a preset name (`campus`,
//! `storm`, `stragglers`, `flaky-net`, `bitrot`) or a spec string such as
//! `taskfail:prob=0.05;seed=7` (see `vine_chaos::FaultPlan::parse`).
//! `--recovery` picks the engine recovery policy. A chaos run exits 0
//! when it *finishes* — completed or gracefully degraded.
//!
//! `--bench-json FILE` writes a small machine-readable summary (makespan,
//! events processed, events/sec, simulation wall-clock, peak cache bytes,
//! and the exact flow-fabric work counters) for CI perf gates. `--bench-reps N` runs the simulation N times and
//! reports the fastest repetition's wall-clock (the noise-robust minimum),
//! which steadies the number for workloads that simulate in well under a
//! millisecond.
//!
//! `--explain-memo FILE` threads the run through a warm session, then asks
//! what an *edited resubmission* (final selection changed) would re-run:
//! the memo plan's per-task disposition — must-run vs. resident vs.
//! warm-in-store — is overlaid on the DOT export written to FILE, and the
//! counts are printed.
//!
//! `--stream-threshold T` attaches a convergence observer: the run
//! streams a partial histogram after every partition and stops early
//! once it reaches `T` of the full run's statistical precision
//! (`T = 1.0` streams but never stops early). The shared flag family
//! (`--trace-out`, `--metrics`, `--chaos`, `--recovery`, `--bench-json`,
//! `--stream-threshold`) is parsed by [`vine_bench::cli::BenchCli`].
//!
//! `--trace-out DIR` records the run and writes a Chrome `trace_event`
//! JSON (open in Perfetto), span/counter CSVs, a per-task phase
//! attribution CSV, and the run digest under DIR. `--metrics` exports the
//! metrics registry (to DIR, or stdout without `--trace-out`).
//!
//! `--lint` analyzes the configuration and exits without simulating
//! (exit 1 if any error-level diagnostic is found; with `--lint-deny=warn`
//! warnings fail too). Without `--lint` the engine still runs its own
//! pre-flight gate; `--no-preflight` disables it, and `--lint-deny=warn`
//! makes it reject warnings as well.

use vine_analysis::{ConvergenceObserver, ReductionShape, WorkloadSpec};
use vine_bench::cli::BenchCli;
use vine_bench::plot;
use vine_bench::simargs::parse_args;
use vine_cluster::{ClusterSpec, WorkerSpec};
use vine_core::{DataSource, EngineConfig, Placement, Preflight, RunRequest};
use vine_obs::{FigureRecorder, FigureSet, MemoryRecorder, Recorder, Tee};
use vine_simcore::units::{fmt_bytes, gbit_per_sec};

fn main() {
    let cli = BenchCli::parse();
    let args = match parse_args(cli.rest.clone()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let mut spec = match args.workload.as_str() {
        "dv3-small" => WorkloadSpec::dv3_small(),
        "dv3-medium" => WorkloadSpec::dv3_medium(),
        "dv3-large" => WorkloadSpec::dv3_large(),
        "dv3-full" => WorkloadSpec::dv3_full(),
        "dv3-huge" => WorkloadSpec::dv3_huge(),
        "agc-scale" => WorkloadSpec::agc_scale(),
        "rs-triphoton" => WorkloadSpec::rs_triphoton(),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    }
    .scaled_down(args.scale);
    if args.single_node {
        spec = spec.with_reduction(ReductionShape::SingleNode);
    }

    let default_workers = match args.workload.as_str() {
        "dv3-full" => 1200,
        "dv3-huge" => 600,
        "agc-scale" => 300,
        "rs-triphoton" => 40,
        _ => 200,
    };
    let workers = if args.workers > 0 {
        args.workers
    } else {
        (default_workers / args.scale).max(2)
    };
    let worker_spec = if args.workload == "rs-triphoton" {
        WorkerSpec::rs_triphoton()
    } else {
        WorkerSpec::dv3_standard()
    };
    let cluster = ClusterSpec {
        workers,
        worker: worker_spec,
        manager_link_bw: gbit_per_sec(12.0),
    };

    let mut cfg = if args.dask {
        EngineConfig::dask_distributed(cluster, args.seed)
    } else {
        EngineConfig::stack(args.stack, cluster, args.seed)
    };
    if args.no_peer {
        cfg.peer_transfers = false;
    }
    if args.round_robin {
        cfg.placement = Placement::RoundRobin;
    }
    if let Some(r) = args.replicas {
        cfg.replica_target = r;
    }
    if args.remote_inputs {
        cfg.data_source = DataSource::RemoteXrootd;
    }
    cfg = cli.apply(cfg);
    cfg.obs |= cli.enabled();
    cfg.preflight = if args.no_preflight {
        Preflight::Off
    } else if args.lint_deny_warn {
        Preflight::DenyWarnings
    } else {
        Preflight::Enforce
    };

    let graph = spec.to_graph();

    if args.lint_only {
        let report = vine_lint::lint_all(&graph, &cfg.lint_facts());
        print!("{}", report.to_text());
        let deny =
            report.has_errors() || (args.lint_deny_warn && report.warnings().next().is_some());
        std::process::exit(if deny { 1 } else { 0 });
    }
    if let Some(path) = &args.dot {
        let dot = vine_dag::dot::to_dot(&graph, vine_dag::dot::DotOptions::default());
        match std::fs::write(path, dot) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }

    println!(
        "{}: {} tasks / {} input on {} x {}-core workers, {} (seed {})",
        spec.name,
        graph.task_count(),
        fmt_bytes(graph.external_bytes()),
        workers,
        cluster.worker.cores,
        if args.dask {
            "Dask.Distributed".into()
        } else {
            format!("stack {}", args.stack)
        },
        args.seed
    );

    let mut rec = MemoryRecorder::new();
    let mut figs = FigureRecorder::new(FigureSet::TIMELINE, cfg.worker_slots());
    let mut conv = cli.stream_threshold.map(ConvergenceObserver::new);
    // --explain-memo needs the post-run caches, so that run (and only
    // that run) is threaded through a session.
    let mut session = args
        .explain_memo
        .as_ref()
        .map(|_| vine_core::SessionState::new(&cluster));
    // vine-audit: allow(A103) -- CLI wall-time report for the human at the terminal; simulated time comes exclusively from the sim clock
    let wall_start = std::time::Instant::now();
    // --bench-reps: extra identical plain runs; the *fastest* repetition is
    // what --bench-json reports. The minimum is the standard noise-robust
    // statistic (scheduler preemption and cache pollution only ever add
    // time), so sub-millisecond workloads — dv3-small's gate cell simulates
    // in ~0.5ms — produce a wall-clock number the CI throughput gate can
    // compare without drowning in timer jitter.
    let mut best_rep_wall: Option<std::time::Duration> = None;
    for _ in 1..args.bench_reps {
        let rep = RunRequest::new(cfg.clone(), spec.to_graph());
        // vine-audit: allow(A103) -- benchmark repetition timing for --bench-json; simulated time is untouched
        let t = std::time::Instant::now();
        let _ = rep.run();
        let d = t.elapsed();
        best_rep_wall = Some(best_rep_wall.map_or(d, |b| b.min(d)));
    }
    let mut export = Tee(&mut figs, &mut rec);
    let recorder: &mut dyn Recorder = if cli.enabled() { &mut export } else { export.0 };
    let mut request = RunRequest::new(cfg, graph).recorder(recorder);
    if let Some(conv) = &mut conv {
        request = request.observer(conv);
    }
    if let Some(session) = &mut session {
        request = request.session(session);
    }
    // vine-audit: allow(A103) -- wall-clock of the simulation proper, reported via --bench-json for the CI throughput gate; simulated time is untouched
    let sim_start = std::time::Instant::now();
    let r = request.run();
    let final_sim_wall = sim_start.elapsed();
    let sim_wall = best_rep_wall.map_or(final_sim_wall, |b| b.min(final_sim_wall));
    let wall = wall_start.elapsed();
    println!();
    if !r.finished() {
        println!("RUN FAILED: {:?}", r.outcome);
        for d in &r.lint_findings {
            println!("  {d}");
        }
    } else if !r.completed() {
        println!("RUN DEGRADED: {:?}", r.outcome);
    }
    println!("makespan            {:>12.0} s", r.makespan_secs());
    println!("task executions     {:>12}", r.stats.task_executions);
    println!("mean task time      {:>12.2} s", r.mean_task_secs());
    println!("preemptions         {:>12}", r.stats.preemptions);
    if let Some(conv) = &conv {
        println!("partitions streamed {:>12}", r.stats.partitions_streamed);
        println!(
            "converged at        {:>12}",
            match conv.stopped_at() {
                Some(f) => format!("{:.0}%", f * 100.0),
                None => "never".into(),
            }
        );
        println!("early-stop cancels  {:>12}", r.stats.early_stop_cancelled);
        println!("partial digest      {:>12x}", conv.accumulator().digest());
    }
    if cli.chaos.is_some() {
        println!("transient failures  {:>12}", r.stats.transient_failures);
        println!("task timeouts       {:>12}", r.stats.task_timeouts);
        println!("retries             {:>12}", r.stats.retries);
        println!("speculative wins    {:>12}", r.stats.speculative_wins);
        println!("corruptions found   {:>12}", r.stats.corruptions_detected);
        println!("quarantined tasks   {:>12}", r.stats.quarantined_tasks);
        println!("blocklisted workers {:>12}", r.stats.blocklisted_workers);
    }
    println!(
        "cache overflows     {:>12}",
        r.stats.cache_overflow_failures
    );
    println!(
        "bytes via manager   {:>12}",
        fmt_bytes(r.stats.manager_bytes)
    );
    println!("peer transfer bytes {:>12}", fmt_bytes(r.stats.peer_bytes));
    println!(
        "shared FS bytes     {:>12}",
        fmt_bytes(r.stats.shared_fs_bytes)
    );
    println!();
    println!("running tasks:");
    println!(
        "{}",
        plot::ascii_series(
            &figs.into_sinks().running_series,
            r.makespan_secs().max(1.0),
            100,
            8
        )
    );
    if cli.enabled() {
        let label = if args.dask {
            format!("{}-dask-seed{}", args.workload, args.seed)
        } else {
            format!("{}-stack{}-seed{}", args.workload, args.stack, args.seed)
        };
        cli.export(&label, &rec, &r);
        if let Some(o) = &r.obs {
            println!();
            print!("{}", o.digest.to_text());
        }
    }
    if let (Some(path), Some(session)) = (&args.explain_memo, &session) {
        // What would a warm resubmission with an edited final selection
        // re-run? Overlay the memo dispositions on the edited graph: the
        // process stage is resident (palegreen), evicted-but-needed and
        // edited tasks must run (tomato).
        let gen = spec.edit_generation + 1;
        let edited = spec.clone().with_edit_generation(gen).to_graph();
        let plan = vine_dag::MemoPlan::compute(&edited, |f| {
            session.contains(vine_core::graph_file_cachename(&edited, f))
        });
        let explain = plan.explain(&edited);
        let dot =
            vine_dag::dot::to_dot_with_memo(&edited, vine_dag::dot::DotOptions::default(), &plan);
        match std::fs::write(path, dot) {
            Ok(()) => {
                println!();
                println!(
                    "memo explain (edited resubmission): {} must-run, {} resident, {} warm-in-store",
                    explain.must_run, explain.resident, explain.warm_in_store
                );
                println!("[wrote {path}]");
            }
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    cli.write_bench_json(&args.workload, args.seed, &r, wall, sim_wall);
    std::process::exit(if r.finished() { 0 } else { 1 });
}
