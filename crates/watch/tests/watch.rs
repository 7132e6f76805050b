//! End-to-end tests for the reactive session: cone exactness (task-ID
//! set equality, not counts), bit-identity with cold full recomputes,
//! trigger-driven refreshes, epoch-versioned serving, and replay
//! determinism under mid-timeline chaos.

use std::collections::BTreeSet;

use vine_analysis::{StreamAccumulator, WorkloadSpec};
use vine_chaos::FaultPlan;
use vine_core::{ObserverControl, PartialUpdate, RecoveryPolicy, RunObserver};
use vine_dag::{FileId, TaskGraph};
use vine_data::encode_histogram_set;
use vine_obs::span::category;
use vine_obs::MemoryRecorder;
use vine_serve::{FacilityConfig, ShardedConfig, ShardedFacility};
use vine_watch::{GraphTemplate, StandingSubmission, TriggerPolicy, WatchSession};

fn spec() -> WorkloadSpec {
    WorkloadSpec::dv3_small().scaled_down(20)
}

/// The demo facility as a single shard.
fn facility(seed: u64) -> ShardedFacility {
    ShardedFacility::new(ShardedConfig::single(FacilityConfig::demo(seed))).unwrap()
}

/// Folds every streamed partition delta (no dedup: used only on cold
/// runs, where each partition completes exactly once).
struct Collect(StreamAccumulator);

impl RunObserver for Collect {
    fn on_partition(&mut self, u: PartialUpdate) -> ObserverControl {
        self.0.fold(&u);
        ObserverControl::Continue
    }
}

/// Every task downstream of `roots` (transitively, through files).
fn downstream_closure(g: &TaskGraph, roots: &[FileId]) -> BTreeSet<u64> {
    let mut files: BTreeSet<FileId> = roots.iter().copied().collect();
    let mut tasks: BTreeSet<u64> = BTreeSet::new();
    loop {
        let mut grew = false;
        for t in g.tasks() {
            if tasks.contains(&u64::from(t.id.0)) {
                continue;
            }
            if t.inputs.iter().any(|f| files.contains(f)) {
                tasks.insert(u64::from(t.id.0));
                files.extend(t.outputs.iter().copied());
                grew = true;
            }
        }
        if !grew {
            return tasks;
        }
    }
}

#[test]
fn reactive_refresh_executes_exactly_the_affected_cone() {
    let f = facility(7);
    let mut ws = WatchSession::new(f, 42);
    let id = ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::Manual,
        "dv3.standing",
    ));
    let cold_digest_epoch0 = ws.digest(id);

    ws.append_partition(0, 50_000_000);
    let epoch = ws.commit_epoch(); // Manual trigger: nothing fires.
    assert_eq!(ws.refreshes(id).len(), 1, "manual trigger must not fire");

    let mut rec = MemoryRecorder::new();
    let refresh = ws.refresh_now_recorded(id, &mut rec);
    assert_eq!(refresh.epoch, epoch);
    assert!(refresh.published);
    assert_ne!(ws.digest(id), cold_digest_epoch0, "estimate tracked growth");

    // The expected cone: the downstream closure of the appended chunk in
    // the epoch-1 graph — its process task plus the renamed reduce spine.
    let g1 = GraphTemplate::new(spec()).graph_at(ws.log(), epoch);
    let appended: Vec<FileId> = g1
        .external_files()
        .filter(|f| f.name.contains(".h"))
        .map(|f| f.id)
        .collect();
    assert_eq!(appended.len(), 1, "one partition was appended");
    let expected = downstream_closure(&g1, &appended);
    // The appended chunk's own process task is in the closure too (it
    // consumes the root file directly), so `expected` is the full cone.
    assert!(!expected.is_empty());

    // The actual executed set: task spans the inner run emitted. SET
    // equality, not counts — nothing outside the cone may run, nothing
    // inside it may be skipped.
    let actual: BTreeSet<u64> = rec
        .spans_in(category::TASK)
        .filter_map(|s| s.attr_u64("task"))
        .collect();
    assert_eq!(actual, expected, "executed set ≠ affected cone");
    assert_eq!(refresh.executed_tasks as usize, expected.len());
    assert!(refresh.saved_tasks > 0, "the rest of the graph stayed warm");

    // Bit-identity: a cold full recompute of the same epoch's graph on a
    // fresh facility folds every partition once and must reach exactly
    // the same digest as the incrementally re-merged standing estimate.
    let mut cold = facility(7);
    let mut obs = Collect(StreamAccumulator::new());
    let record = cold.run_standing(0, g1, "cold-full", &mut obs, None);
    assert!(record.completed);
    assert_eq!(
        obs.0.digest(),
        ws.digest(id),
        "reactive re-merge must be bit-identical to a cold recompute"
    );
}

#[test]
fn quiet_epoch_refresh_executes_nothing() {
    let f = facility(11);
    let mut ws = WatchSession::new(f, 1);
    let id = ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::EveryEpoch,
        "dv3.quiet",
    ));
    let before = ws.digest(id);
    ws.commit_epoch(); // quiet: EveryEpoch does not fire
    assert_eq!(ws.refreshes(id).len(), 1);
    let r = ws.refresh_now(id); // force it anyway
    assert_eq!(r.executed_tasks, 0, "nothing changed, nothing re-runs");
    assert!(r.saved_tasks > 0, "the whole graph was warm");
    assert_eq!(r.changed_inputs, 0);
    assert_eq!(ws.digest(id), before);
}

#[test]
fn batched_trigger_fires_only_at_the_batch_threshold() {
    let f = facility(13);
    let mut ws = WatchSession::new(f, 2);
    let id = ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::BatchedAppends(3),
        "dv3.batched",
    ));
    ws.append_partition(0, 10_000_000);
    ws.commit_epoch();
    assert_eq!(ws.refreshes(id).len(), 1, "1 < 3 pending appends");
    ws.append_partition(0, 10_000_000);
    ws.append_partition(1, 10_000_000);
    ws.commit_epoch();
    assert_eq!(ws.refreshes(id).len(), 2, "3 pending appends fire");
    ws.append_partition(0, 10_000_000);
    ws.commit_epoch();
    assert_eq!(ws.refreshes(id).len(), 2, "batch counter reset");
    // The batched refresh caught up on *all* pending appends at once.
    let last = ws.refreshes(id).last().unwrap();
    assert!(last.changed_inputs >= 3);
}

#[test]
fn served_results_are_epoch_versioned() {
    let f = facility(17);
    let mut ws = WatchSession::new(f, 3);
    let id = ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::EveryEpoch,
        "dv3.served",
    ));
    assert_eq!(
        ws.facility().results_for(0).current_epoch("dv3.served"),
        Some(0)
    );
    ws.append_partition(0, 25_000_000);
    let epoch = ws.commit_epoch();
    let (served_epoch, _, payload) = ws
        .facility()
        .results_for(0)
        .get_versioned("dv3.served")
        .expect("standing submission must be served");
    assert_eq!(served_epoch, epoch);
    assert_eq!(
        payload,
        &encode_histogram_set(ws.estimate(id))[..],
        "served payload is the re-merged estimate, byte for byte"
    );
}

/// One fixed growth timeline; optionally injects chaos mid-way.
fn run_timeline(chaos: bool) -> (u64, u64) {
    let f = facility(9);
    let mut ws = WatchSession::new(f, 5);
    let id = ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::EveryEpoch,
        "dv3.replay",
    ));
    ws.append_partition(0, 30_000_000);
    ws.commit_epoch();
    if chaos {
        ws.facility_mut().inject_chaos(
            FaultPlan::preset("campus").unwrap(),
            RecoveryPolicy::default(),
        );
    }
    ws.append_partition(1, 40_000_000);
    ws.commit_epoch();
    ws.edit_spec();
    ws.append_partition(0, 20_000_000);
    ws.commit_epoch();
    (ws.report().digest(), ws.digest(id))
}

#[test]
fn chaotic_timeline_replays_bit_identically() {
    let (report_a, digest_a) = run_timeline(true);
    let (report_b, digest_b) = run_timeline(true);
    assert_eq!(
        report_a, report_b,
        "same seed + same event log ⇒ same report"
    );
    assert_eq!(digest_a, digest_b);
}

#[test]
fn chaos_does_not_change_the_served_estimate() {
    // Re-executions forced by faults are deduplicated by partition name,
    // so the accumulated estimate is the clean timeline's, bit for bit.
    let (_, chaotic) = run_timeline(true);
    let (_, clean) = run_timeline(false);
    assert_eq!(chaotic, clean);
}

#[test]
fn sharded_backend_serves_standing_submissions() {
    let fed = ShardedFacility::new(ShardedConfig::demo(21)).unwrap();
    let mut ws = WatchSession::new(fed, 6);
    let id = ws.register(StandingSubmission::new(
        1,
        GraphTemplate::new(spec()),
        TriggerPolicy::EveryEpoch,
        "dv3.sharded",
    ));
    ws.append_partition(0, 15_000_000);
    let epoch = ws.commit_epoch();
    assert_eq!(ws.refreshes(id).len(), 2);
    let r = ws.refreshes(id).last().unwrap().clone();
    assert!(r.published);
    assert!(r.executed_tasks > 0 && r.saved_tasks > 0);
    assert_eq!(
        ws.facility().results_for(1).current_epoch("dv3.sharded"),
        Some(epoch)
    );

    // The federation-served estimate matches a single-facility session
    // replaying the same timeline: the backend is an execution substrate,
    // not part of the result.
    let f = facility(23);
    let mut solo = WatchSession::new(f, 6);
    let sid = solo.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::EveryEpoch,
        "dv3.sharded",
    ));
    solo.append_partition(0, 15_000_000);
    solo.commit_epoch();
    assert_eq!(ws.digest(id), solo.digest(sid));
}

#[test]
fn metrics_count_saved_executions() {
    let f = facility(29);
    let mut ws = WatchSession::new(f, 7);
    ws.register(StandingSubmission::new(
        0,
        GraphTemplate::new(spec()),
        TriggerPolicy::EveryEpoch,
        "dv3.metrics",
    ));
    ws.append_partition(0, 10_000_000);
    ws.commit_epoch();
    let m = ws.metrics();
    assert_eq!(m.counter("watch.refreshes"), Some(2));
    assert_eq!(m.counter("watch.epochs"), Some(1));
    let reactive = m.counter("watch.reactive_tasks").unwrap();
    let saved = m.counter("watch.saved_task_executions").unwrap();
    // The cold register executes the full graph; the reactive refresh
    // only the cone — most of the graph lands in the saved counter.
    assert!(saved > 0 && reactive > saved);
    assert!(m.counter("watch.epoch_digest.1").is_some());
    assert!(ws.lint().is_clean());
}

#[test]
#[should_panic(expected = "rejected by lint")]
fn overwide_watch_list_is_refused_at_registration() {
    let f = facility(31);
    let mut ws = WatchSession::new(f, 8);
    ws.register(
        StandingSubmission::new(
            0,
            GraphTemplate::new(spec()),
            TriggerPolicy::EveryEpoch,
            "dv3.overwide",
        )
        .with_watched_datasets(5),
    );
}
