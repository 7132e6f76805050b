//! The reactive scheduler: standing submissions over a growing dataset.
//!
//! A [`WatchSession`] owns a [`DatasetLog`], a set of
//! [`StandingSubmission`]s, and the [`ShardedFacility`] they refresh
//! against. Growth is staged (`append_partition`, `edit_spec`) and
//! committed in epochs; at each commit every submission's
//! [`TriggerPolicy`] looks at the events since its last completed epoch
//! and decides whether to refresh. A refresh
//! instantiates the template at the new epoch — signature-carrying task
//! names make the warm facility session re-execute exactly the affected
//! cone (see [`GraphTemplate`]) — and streams each newly executed
//! partition's delta into a persistent [`StreamAccumulator`]. The
//! re-merged histogram set is served by [`WatchSession::estimate`].
//!
//! Determinism contract: run IDs, refresh ordering, metric exports, and
//! the served estimates are pure functions of `(seed, event timeline,
//! registration order)`. Folding is exactly-once per partition name
//! (chaos-forced re-executions are deduplicated), and partition deltas
//! are integer-valued, so the accumulated estimate after any refresh is
//! bit-identical to a cold full recompute of the same epoch's graph.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use vine_analysis::StreamAccumulator;
use vine_core::{ObserverControl, PartialUpdate, RunObserver};
use vine_data::{fnv1a64, DatasetLog, HistogramSet};
use vine_lint::{lint_watch, Report, StandingFacts, WatchFacts};
use vine_obs::{MetricsRegistry, Recorder};
use vine_serve::ShardedFacility;

use crate::template::GraphTemplate;
use crate::trigger::TriggerPolicy;

/// A graph template bound to a tenant, a trigger policy, and a label.
#[derive(Clone, Debug)]
pub struct StandingSubmission {
    /// Owning tenant (refreshes are charged to its fair share).
    pub tenant: usize,
    /// The analysis shape, instantiable at any epoch.
    pub template: GraphTemplate,
    /// When refreshes fire.
    pub trigger: TriggerPolicy,
    /// Datasets whose growth the trigger watches (`0..watched_datasets`).
    /// Defaults to everything the template reads; watching more is lint
    /// error `W002`.
    pub watched_datasets: usize,
    /// Display label for refresh records and the facility's reports.
    pub label: String,
}

impl StandingSubmission {
    /// A submission watching exactly the datasets its template reads.
    pub fn new(
        tenant: usize,
        template: GraphTemplate,
        trigger: TriggerPolicy,
        label: &str,
    ) -> Self {
        let watched = template.n_datasets();
        StandingSubmission {
            tenant,
            template,
            trigger,
            watched_datasets: watched,
            label: label.to_string(),
        }
    }

    /// Override the watch list width (lint `W002` flags widths beyond
    /// what the template reads).
    pub fn with_watched_datasets(mut self, n: usize) -> Self {
        self.watched_datasets = n;
        self
    }

    fn facts(&self) -> StandingFacts {
        StandingFacts {
            label: self.label.clone(),
            tenant: self.tenant,
            has_trigger: !matches!(self.trigger, TriggerPolicy::Manual),
            watched_datasets: self.watched_datasets,
            graph_datasets: self.template.n_datasets(),
            debounce_bounded: !matches!(
                self.trigger,
                TriggerPolicy::Debounced {
                    max_pending: None,
                    ..
                }
            ),
        }
    }
}

/// What one refresh did.
#[derive(Clone, Debug)]
pub struct RefreshRecord {
    /// Session-global run ID (the watchdag pattern: every reactive run
    /// gets a fresh ID so overlapping refreshes are distinguishable).
    pub run_id: u64,
    /// The epoch the refresh brought the submission up to.
    pub epoch: u64,
    /// External inputs whose content hash changed since the last
    /// completed epoch (appended chunks + the spec pseudo-input).
    pub changed_inputs: usize,
    /// Tasks the inner run actually executed — the affected cone.
    pub executed_tasks: u64,
    /// Tasks satisfied warm (resident or in-store) instead of executing.
    pub saved_tasks: u64,
    /// FNV digest of the accumulated estimate after the refresh.
    pub digest: u64,
    /// The dataset log's digest at this epoch.
    pub log_digest: u64,
}

/// Per-submission mutable state.
struct StandingState {
    sub: StandingSubmission,
    /// Persistent across refreshes: deltas fold in once per partition.
    acc: StreamAccumulator,
    /// Partition names already folded (exactly-once guard).
    seen: BTreeSet<String>,
    /// Last epoch a refresh completed at.
    last_epoch: u64,
    /// Input snapshot at `last_epoch` (for `changed_inputs` reporting).
    input_hashes: BTreeMap<String, u64>,
    refreshes: Vec<RefreshRecord>,
}

/// Folds streamed partition deltas into the persistent accumulator,
/// skipping names already folded so chaos-forced re-executions cannot
/// double-count.
struct FoldObserver<'a> {
    acc: &'a mut StreamAccumulator,
    seen: &'a mut BTreeSet<String>,
}

impl RunObserver for FoldObserver<'_> {
    fn on_partition(&mut self, update: PartialUpdate) -> ObserverControl {
        if self.seen.insert(update.name.clone()) {
            self.acc.fold(&update);
        }
        ObserverControl::Continue
    }
}

/// The reactive session: a growing dataset log, standing submissions,
/// and the facility they refresh against.
pub struct WatchSession {
    facility: ShardedFacility,
    log: DatasetLog,
    subs: Vec<StandingState>,
    metrics: MetricsRegistry,
    next_run_id: u64,
}

impl WatchSession {
    /// A session over `facility` with an empty dataset log at epoch 0.
    pub fn new(facility: ShardedFacility, seed: u64) -> Self {
        WatchSession {
            facility,
            log: DatasetLog::new(seed),
            subs: Vec::new(),
            metrics: MetricsRegistry::new(),
            next_run_id: 1,
        }
    }

    /// Register a standing submission and run its initial full refresh
    /// at the current epoch. Returns the submission's index.
    ///
    /// Pre-flight: the W-family lints run first and errors (`W002`)
    /// refuse the registration, mirroring the facility's F-code gate.
    pub fn register(&mut self, sub: StandingSubmission) -> usize {
        let report = lint_watch(&WatchFacts {
            submissions: vec![sub.facts()],
        });
        assert!(
            !report.has_errors(),
            "standing submission rejected by lint:\n{}",
            report.to_text()
        );
        let id = self.subs.len();
        self.subs.push(StandingState {
            sub,
            acc: StreamAccumulator::new(),
            seen: BTreeSet::new(),
            last_epoch: self.log.epoch(),
            input_hashes: BTreeMap::new(),
            refreshes: Vec::new(),
        });
        self.refresh(id, None);
        id
    }

    /// Stage a partition append to `dataset` (visible next commit).
    pub fn append_partition(&mut self, dataset: usize, bytes: u64) {
        self.log.append_partition(dataset, bytes);
    }

    /// Stage a spec edit (visible next commit).
    pub fn edit_spec(&mut self) {
        self.log.edit_spec();
    }

    /// Commit staged growth as one epoch, then evaluate every standing
    /// submission's trigger and refresh the ones that fire (in
    /// registration order). Returns the committed epoch.
    pub fn commit_epoch(&mut self) -> u64 {
        let epoch = self.log.commit();
        self.metrics.counter_add("watch.epochs", 1);
        self.metrics.counter_add(
            &format!("watch.epoch_digest.{epoch}"),
            self.log.epoch_digest(epoch),
        );
        for id in 0..self.subs.len() {
            let st = &self.subs[id];
            if st
                .sub
                .trigger
                .fires(&self.log, st.last_epoch, epoch, st.sub.watched_datasets)
            {
                self.refresh(id, None);
            }
        }
        epoch
    }

    /// Force a refresh of submission `id` at the current epoch (the only
    /// way a `Manual`-trigger submission ever re-runs).
    pub fn refresh_now(&mut self, id: usize) -> RefreshRecord {
        self.refresh(id, None)
    }

    /// [`refresh_now`](Self::refresh_now) with the inner run's spans
    /// forwarded to `recorder` — the hook the cone-exactness tests use to
    /// observe the executed task set.
    pub fn refresh_now_recorded(
        &mut self,
        id: usize,
        recorder: &mut dyn Recorder,
    ) -> RefreshRecord {
        self.refresh(id, Some(recorder))
    }

    fn refresh(&mut self, id: usize, recorder: Option<&mut dyn Recorder>) -> RefreshRecord {
        let epoch = self.log.epoch();
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        let st = &mut self.subs[id];
        let graph = st.sub.template.graph_at(&self.log, epoch);
        let new_hashes = st.sub.template.input_hashes(&self.log, epoch);
        let changed_inputs = new_hashes
            .iter()
            .filter(|(k, v)| st.input_hashes.get(*k) != Some(v))
            .count();
        let record = {
            let mut obs = FoldObserver {
                acc: &mut st.acc,
                seen: &mut st.seen,
            };
            self.facility
                .run_standing(st.sub.tenant, graph, &st.sub.label, &mut obs, recorder)
        };
        st.last_epoch = epoch;
        st.input_hashes = new_hashes;
        let refresh = RefreshRecord {
            run_id,
            epoch,
            changed_inputs,
            executed_tasks: record.stats.task_executions,
            saved_tasks: record.stats.memoized_tasks,
            digest: st.acc.digest(),
            log_digest: self.log.epoch_digest(epoch),
        };
        st.refreshes.push(refresh.clone());
        self.metrics.counter_add("watch.refreshes", 1);
        self.metrics
            .counter_add("watch.reactive_tasks", refresh.executed_tasks);
        self.metrics
            .counter_add("watch.saved_task_executions", refresh.saved_tasks);
        refresh
    }

    /// The dataset log (epochs, events, digests).
    pub fn log(&self) -> &DatasetLog {
        &self.log
    }

    /// The facility, for serving-side inspection (reports).
    pub fn facility(&self) -> &ShardedFacility {
        &self.facility
    }

    /// Mutable facility access (mid-timeline chaos injection).
    pub fn facility_mut(&mut self) -> &mut ShardedFacility {
        &mut self.facility
    }

    /// Every refresh submission `id` has completed, in run order.
    pub fn refreshes(&self, id: usize) -> &[RefreshRecord] {
        &self.subs[id].refreshes
    }

    /// The submission's accumulated estimate (all folded partitions).
    pub fn estimate(&self, id: usize) -> &HistogramSet {
        self.subs[id].acc.estimate()
    }

    /// FNV digest of the submission's current estimate.
    pub fn digest(&self, id: usize) -> u64 {
        self.subs[id].acc.digest()
    }

    /// W-family lint report over every registered submission.
    pub fn lint(&self) -> Report {
        lint_watch(&WatchFacts {
            submissions: self.subs.iter().map(|s| s.sub.facts()).collect(),
        })
    }

    /// Deterministic metrics export (`watch.*` counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The session report: per-submission refresh history plus metrics.
    pub fn report(&self) -> WatchReport {
        WatchReport {
            epoch: self.log.epoch(),
            submissions: self
                .subs
                .iter()
                .map(|s| (s.sub.label.clone(), s.refreshes.clone()))
                .collect(),
            metrics_text: self.metrics.to_text(),
        }
    }
}

/// A byte-stable summary of a watch session.
#[derive(Clone, Debug)]
pub struct WatchReport {
    /// The log's current epoch.
    pub epoch: u64,
    /// Per-submission `(label, refresh history)`, registration order.
    pub submissions: Vec<(String, Vec<RefreshRecord>)>,
    /// The session's metrics export.
    pub metrics_text: String,
}

impl WatchReport {
    /// Render the report; byte-identical across replays of the same
    /// timeline.
    pub fn to_text(&self) -> String {
        let mut out = format!("watch session @ epoch {}\n", self.epoch);
        for (label, refreshes) in &self.submissions {
            out.push_str(&format!(
                "standing {label}: {} refresh(es)\n",
                refreshes.len()
            ));
            for r in refreshes {
                out.push_str(&format!(
                    "  run {} epoch {} changed {} exec {} saved {} digest {:016x} log {:016x}\n",
                    r.run_id,
                    r.epoch,
                    r.changed_inputs,
                    r.executed_tasks,
                    r.saved_tasks,
                    r.digest,
                    r.log_digest,
                ));
            }
        }
        out.push_str(&self.metrics_text);
        out
    }

    /// FNV digest of [`to_text`](Self::to_text) — the replay contract.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_text().as_bytes())
    }
}
