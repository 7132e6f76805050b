//! Data-movement half of the engine: staging, replication, peer
//! transfers, and flow-completion handling.
//!
//! These methods execute the placement the scheduler decided on: pulling
//! inputs from the manager or shared FS, queueing throttled peer
//! transfers, draining the batched flow-completion events, and keeping
//! worker caches (eviction, corruption detection) honest.

use super::*;

/// Maximum concurrent shared-FS → manager staging streams (Work Queue).
/// With few streams, the storage system's per-stream rate — where HDFS
/// and VAST differ most — becomes visible end to end.
const MAX_CONCURRENT_STAGINGS: usize = 8;

/// Only replicate intermediates at or below this size. Re-running one
/// producer is cheaper than proactively copying very large partials, so
/// replication of (say) GB-scale files is not worth the bandwidth.
const REPLICATE_MAX_BYTES: u64 = 512 * 1_000_000;

/// Where a peer transfer of a file toward a worker could come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PeerSource {
    /// No live worker other than the destination holds a copy.
    NoCopy,
    /// Every live holder is at its peer-transfer limit.
    Throttled,
    /// The least-busy live holder with a free slot.
    Free(usize),
}

/// What examining a queued peer wait would do. Everything but `Stay` is
/// actionable: a drain that reaches the entry acts and dequeues it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PeerWaitStep {
    /// The destination died or the task is no longer assigned.
    Moot,
    /// The destination's cache holds the file (corrupt or not).
    Cached,
    /// A flow of the file toward the destination is active.
    JoinFlow,
    /// No copy is left to pull from.
    Lost,
    /// Pull from this source.
    Pull(usize),
    /// Every source is still throttled.
    Stay,
}

impl<'g, 'r, 'o> Sim<'g, 'r, 'o> {
    // ----- input staging ---------------------------------------------------

    pub(super) fn stage_inputs(&mut self, task: TaskId, w: usize) {
        let graph = self.graph;
        let mut missing = 0;
        for &f in &graph.task(task).inputs {
            if self.pin_cached_input(w, f) {
                if let Some(a) = self.assignments.get_mut(task.0) {
                    a.pinned.push(f);
                }
            } else {
                missing += 1;
                self.stage_one_input(task, f, w);
            }
            if !self.assignments.contains(task.0) {
                return; // staging failed hard; assignment was torn down
            }
        }
        let Some(a) = self.assignments.get_mut(task.0) else {
            self.abort_broken(Broken::LostAssignment(task));
            return;
        };
        a.missing = missing;
        if missing == 0 {
            self.maybe_start_compute(task, w);
        }
    }

    /// Begin moving file `f` toward worker `w` for `task`.
    pub(super) fn stage_one_input(&mut self, task: TaskId, f: FileId, w: usize) {
        if let Some(waiters) = self.inflight[w].get_mut(f) {
            waiters.push(task);
            return;
        }
        let external = self.graph.file(f).producer.is_none();
        match self.cfg.scheduler {
            SchedulerKind::WorkQueue => {
                if self.at_manager[f.0 as usize] {
                    self.start_input_flow(f, w, task, Source::Manager);
                } else {
                    debug_assert!(external, "WQ intermediates live at the manager");
                    let queued_or_active =
                        self.staging[f.0 as usize] || self.staging_waitq.contains(&f);
                    self.awaiting_manager
                        .get_or_insert_default(f.0)
                        .push((w, task));
                    if !queued_or_active {
                        if self.staging_count < MAX_CONCURRENT_STAGINGS {
                            self.begin_staging(f);
                        } else {
                            self.staging_waitq.push_back(f);
                        }
                    }
                }
            }
            SchedulerKind::TaskVine | SchedulerKind::DaskDistributed => {
                if external {
                    self.start_input_flow(f, w, task, Source::SharedFs);
                } else {
                    self.start_peer_or_queue(f, w, task);
                }
            }
        }
    }

    /// Start one external-source → manager staging stream (Work Queue).
    pub(super) fn begin_staging(&mut self, f: FileId) {
        if !self.staging[f.0 as usize] {
            self.staging[f.0 as usize] = true;
            self.staging_count += 1;
        }
        let (from, cap, latency_bytes) = self.external;
        let size = self.graph.file(f).size_hint + latency_bytes;
        let id = self
            .fabric
            .start_flow(self.now, from, self.mgr_node, size, cap);
        self.flow_note(id, FlowWhy::StageToManager { file: f });
        self.reschedule_flow_event();
    }

    /// Opportunistically replicate a freshly-produced file to one more
    /// worker (§IV: the manager "compensates by replicating data").
    /// Skipped when throttled — replication is best-effort.
    pub(super) fn maybe_replicate(&mut self, f: FileId, src: usize) {
        if self.cfg.replica_target < 2
            || !self.cfg.peer_transfers
            || self.remaining_consumers[f.0 as usize] == 0
            || self.graph.file(f).size_hint > REPLICATE_MAX_BYTES
        {
            return;
        }
        let have = self.replicas[f.0 as usize].len() as u32;
        if have >= self.cfg.replica_target {
            return;
        }
        if self.workers[src].outgoing >= self.cfg.max_peer_transfers_per_worker {
            return;
        }
        // Destination: least-loaded alive worker without a copy.
        let (workers, replicas, inflight) = (&self.workers, &self.replicas, &self.inflight);
        let dst = self.loads.pick(|w| {
            w != src
                && workers[w].alive
                && !replicas[f.0 as usize].contains(&w)
                && !inflight[w].contains(f)
        });
        let Some(dst) = dst else {
            return;
        };
        self.workers[src].outgoing += 1;
        let size = self.graph.file(f).size_hint;
        let id = self.fabric.start_flow(
            self.now,
            self.workers[src].node,
            self.workers[dst].node,
            size,
            f64::INFINITY,
        );
        self.flow_note(
            id,
            FlowWhy::InputArrive {
                file: f,
                w: dst,
                peer_src: Some(src),
            },
        );
        self.inflight[dst].get_or_insert_default(f);
        self.peer_waits.wake_file(f, Wake::FlowStarted);
        self.reschedule_flow_event();
    }

    pub(super) fn start_peer_or_queue(&mut self, f: FileId, w: usize, task: TaskId) {
        let source = self.peer_source(f, w);
        if source == PeerSource::NoCopy {
            // No copy exists anywhere (e.g. the file was consumed, its
            // copies evicted as garbage, and now a revived consumer needs
            // it again). Declare the loss so the tracker re-runs the
            // producer, then tear this assignment down; the task
            // re-dispatches once the file is regenerated.
            self.fail_over_lost(f, task);
            return;
        }
        if !self.cfg.peer_transfers {
            // Relay through the manager (worker → manager → worker); we
            // charge the manager-side hop, which dominates.
            self.start_input_flow(f, w, task, Source::Manager);
            return;
        }
        match source {
            PeerSource::Free(src) => self.start_peer_flow(f, w, task, src),
            // All sources throttled: queue until a slot frees. No
            // inflight entry is created — the wait queue owns this
            // request until a flow actually starts.
            PeerSource::Throttled | PeerSource::NoCopy => {
                debug_assert!(
                    !self.peer_waits.draining(),
                    "a peer wait was queued during a drain"
                );
                let behind = self.live_holders(f, w);
                let seq = self
                    .peer_waits
                    .push(PeerWait { file: f, w, task }, behind.iter().copied());
                self.rewake_if_resident(seq, f, w);
            }
        }
    }

    /// Where a peer transfer of `f` toward `w` would come from now: the
    /// live holder other than `w` with the fewest outgoing transfers
    /// (ties to the lower index) among those below the throttle.
    fn peer_source(&self, f: FileId, w: usize) -> PeerSource {
        let mut any_live = false;
        let mut best: Option<(usize, usize)> = None;
        for &src in &self.replicas[f.0 as usize] {
            if src == w || !self.workers[src].alive {
                continue;
            }
            any_live = true;
            let out = self.workers[src].outgoing;
            if out < self.cfg.max_peer_transfers_per_worker && best.is_none_or(|b| (out, src) < b) {
                best = Some((out, src));
            }
        }
        match best {
            Some((_, src)) => PeerSource::Free(src),
            None if any_live => PeerSource::Throttled,
            None => PeerSource::NoCopy,
        }
    }

    /// The live holders of `f` other than `w`: the sources a throttled
    /// wait stays behind.
    fn live_holders(&self, f: FileId, w: usize) -> Vec<usize> {
        self.replicas[f.0 as usize]
            .iter()
            .copied()
            .filter(|&src| src != w && self.workers[src].alive)
            .collect()
    }

    fn start_peer_flow(&mut self, f: FileId, w: usize, task: TaskId, src: usize) {
        self.workers[src].outgoing += 1;
        self.start_input_flow(f, w, task, Source::Peer(src));
    }

    /// `f` has no copy left for `task`: make sure the tracker knows (it may
    /// still believe the file exists if the last copy was evicted after
    /// consumption), then fail the task's assignment over.
    fn fail_over_lost(&mut self, f: FileId, task: TaskId) {
        self.declare_file_lost(f);
        if self.tracker.state(task) == TaskState::Running {
            self.tracker.mark_task_failed(task);
        }
        self.release_assignment(task);
    }

    /// A wait whose destination still holds a copy of its file can only be
    /// a corrupt copy that a pin keeps resident. Every drain re-reads it
    /// (and counts the corruption again), so the wait stays woken.
    fn rewake_if_resident(&mut self, seq: u64, f: FileId, w: usize) {
        if self.workers[w].cache.contains(self.cnames[f.0 as usize]) {
            self.peer_waits.wake(seq, Wake::CorruptResident);
        }
    }

    /// What examining the queued wait for `f` on `w` for `task` would do.
    /// Pure: the drain acts on it, and the debug sanitizer checks with it
    /// that no unwoken entry is actionable.
    fn peer_wait_step(&self, f: FileId, w: usize, task: TaskId) -> PeerWaitStep {
        if !self.workers[w].alive || !self.assignments.contains(task.0) {
            return PeerWaitStep::Moot;
        }
        if self.workers[w].cache.contains(self.cnames[f.0 as usize]) {
            return PeerWaitStep::Cached;
        }
        self.peer_fetch_step(f, w)
    }

    /// The part of [`Sim::peer_wait_step`] after the cache check: join an
    /// active flow, fail over, pull, or stay.
    fn peer_fetch_step(&self, f: FileId, w: usize) -> PeerWaitStep {
        if self.inflight[w].contains(f) {
            return PeerWaitStep::JoinFlow;
        }
        match self.peer_source(f, w) {
            PeerSource::NoCopy => PeerWaitStep::Lost,
            PeerSource::Throttled => PeerWaitStep::Stay,
            PeerSource::Free(src) => PeerWaitStep::Pull(src),
        }
    }

    /// Visit the woken peer waits in arrival order (see [`PeerWaits`]).
    /// Serving one never queues another, so the drain only shrinks the
    /// queue.
    pub(super) fn drain_peer_waitq(&mut self) {
        #[cfg(debug_assertions)]
        self.sanitize_peer_waits();
        self.peer_waits.begin_drain();
        while let Some((seq, PeerWait { file, w, task })) = self.peer_waits.next_woken() {
            if self.serve_peer_wait(file, w, task) {
                self.peer_waits.remove(seq);
            } else {
                let behind = self.live_holders(file, w);
                self.peer_waits.stay(seq, behind.iter().copied());
                self.rewake_if_resident(seq, file, w);
            }
        }
        self.peer_waits.end_drain();
        #[cfg(debug_assertions)]
        self.sanitize_peer_waits();
    }

    /// Act on one queued peer wait; false when it keeps waiting.
    fn serve_peer_wait(&mut self, f: FileId, w: usize, task: TaskId) -> bool {
        let step = match self.peer_wait_step(f, w, task) {
            PeerWaitStep::Cached => {
                // Arrived meanwhile via another task's transfer? A corrupt
                // copy is dropped (if unpinned) and the wait looks on.
                if self.pin_cached_input(w, f) {
                    let ready = self.assignments.get_mut(task.0).is_some_and(|a| {
                        a.pinned.push(f);
                        a.missing = a.missing.saturating_sub(1);
                        a.missing == 0
                    });
                    if ready {
                        self.maybe_start_compute(task, w);
                    }
                    return true;
                }
                self.peer_fetch_step(f, w)
            }
            step => step,
        };
        match step {
            PeerWaitStep::Moot => true,
            PeerWaitStep::JoinFlow => {
                if let Some(ws) = self.inflight[w].get_mut(f) {
                    ws.push(task);
                }
                true
            }
            PeerWaitStep::Lost => {
                // Sole replica died while queued.
                self.fail_over_lost(f, task);
                true
            }
            PeerWaitStep::Pull(src) => {
                self.start_peer_flow(f, w, task, src);
                true
            }
            PeerWaitStep::Cached | PeerWaitStep::Stay => false,
        }
    }

    /// Sanitizer (debug builds only): no peer wait that the drain would
    /// skip is actionable — the wake rules missed nothing.
    #[cfg(debug_assertions)]
    fn sanitize_peer_waits(&self) {
        for wait in self.peer_waits.unwoken() {
            let step = self.peer_wait_step(wait.file, wait.w, wait.task);
            assert!(
                step == PeerWaitStep::Stay,
                "sanitizer: unwoken peer wait {wait:?} is actionable ({step:?})"
            );
        }
    }

    pub(super) fn start_input_flow(&mut self, f: FileId, w: usize, task: TaskId, src: Source) {
        let mut size = self.graph.file(f).size_hint;
        let (from, cap, peer_src) = match src {
            Source::SharedFs => {
                // Fold the source's access latency into the flow as
                // equivalent bytes at the per-stream rate (monotone
                // approximation).
                let (node, cap, latency_bytes) = self.external;
                size += latency_bytes;
                (node, cap, None)
            }
            Source::Manager => (self.mgr_node, f64::INFINITY, None),
            Source::Peer(p) => (self.workers[p].node, f64::INFINITY, Some(p)),
        };
        let id = self
            .fabric
            .start_flow(self.now, from, self.workers[w].node, size, cap);
        self.flow_note(
            id,
            FlowWhy::InputArrive {
                file: f,
                w,
                peer_src,
            },
        );
        self.inflight[w].get_or_insert_default(f).push(task);
        self.peer_waits.wake_file(f, Wake::FlowStarted);
        self.reschedule_flow_event();
    }

    /// Record why a freshly-started flow exists. `FlowId`s are handed out
    /// monotonically by the fabric, so appending keeps the list sorted.
    pub(super) fn flow_note(&mut self, id: FlowId, why: FlowWhy) {
        debug_assert!(self.flow_why.last().is_none_or(|&(last, _)| last < id));
        self.flow_why.push((id, why));
    }

    /// Remove and return the reason for flow `id` (binary search on the
    /// sorted-by-id list).
    pub(super) fn flow_take(&mut self, id: FlowId) -> Option<FlowWhy> {
        match self.flow_why.binary_search_by_key(&id, |e| e.0) {
            Ok(pos) => Some(self.flow_why.remove(pos).1),
            Err(_) => None,
        }
    }

    // ----- flows -----------------------------------------------------------

    /// The fabric changed, so the flow-completion event moves: cancel a
    /// queued `FlowDone` and reserve the id its successor takes. Reading
    /// the next completion (a solve) waits for `settle_flow_event`, once
    /// the instant's changes are in.
    pub(super) fn reschedule_flow_event(&mut self) {
        if let FlowEvent::Queued(ev) = self.flow_event {
            self.queue.cancel(ev);
        }
        self.flow_event = FlowEvent::Reserved(self.queue.reserve());
    }

    /// Before each pop: schedule a reserved `FlowDone` under its id at the
    /// fabric's next completion (never before `now`), so it pops in the
    /// `(time, id)` place a schedule at reservation time would have
    /// given it. The read waits while the queue's head is still at `now`
    /// and no flow can finish at `now`: the `FlowDone` would then be
    /// later than that head, and the head's handler may change the
    /// fabric again.
    pub(super) fn settle_flow_event(&mut self) {
        let FlowEvent::Reserved(id) = self.flow_event else {
            return;
        };
        if self.fabric.now() == self.now
            && !self.fabric.may_finish_now()
            && self.queue.peek_time().is_some_and(|t| t <= self.now)
        {
            return;
        }
        self.flow_event = match self.fabric.next_completion() {
            Some((t, _)) => {
                self.queue
                    .schedule_reserved(id, t.max(self.now), Ev::FlowDone);
                FlowEvent::Queued(id)
            }
            None => FlowEvent::Idle,
        };
    }

    /// Drain due transfer completions. Each completion runs its
    /// bookkeeping, moves the `FlowDone` (a fresh reservation, which
    /// supersedes any its handlers made) and kicks the manager, exactly
    /// as a one-completion-per-event handler would. When that `FlowDone`
    /// would provably be the queue's next event, the round trip through
    /// the queue is elided and the next completion processed inline, a
    /// pure event-count optimization for same-instant transfer storms.
    /// The proof needs all of: nothing else was due at `now` after the
    /// completion, the kick moved nothing, and the next completion is at
    /// `now`. The last is read (a solve) only if the first two hold and
    /// [`Fabric::may_finish_now`] allows it.
    pub(super) fn on_flow_done(&mut self) {
        loop {
            self.flow_event = FlowEvent::Idle;
            let Some((t, id)) = self.fabric.next_completion() else {
                return;
            };
            if t > self.now {
                self.flow_event = FlowEvent::Queued(self.queue.schedule(t, Ev::FlowDone));
                return;
            }
            self.complete_one_flow(id);
            let quiet = self.queue.peek_time().is_none_or(|qt| qt > self.now);
            let saved = FlowEvent::Reserved(self.queue.reserve());
            self.flow_event = saved;
            self.mgr_kick();
            let inline_next = quiet
                && self.flow_event == saved
                && self.fabric.may_finish_now()
                && self
                    .fabric
                    .next_completion()
                    .is_some_and(|(t2, _)| t2 <= self.now);
            if !inline_next {
                return;
            }
        }
    }

    /// Complete one due transfer and run its bookkeeping (the body of the
    /// historical FlowDone handler, minus rescheduling and the kick).
    pub(super) fn complete_one_flow(&mut self, id: FlowId) {
        let record = self.fabric.complete_flow(self.now, id);
        self.stats.flows_completed += 1;
        self.account_flow(record.src, record.dst, record.bytes_moved);
        let Some(why) = self.flow_take(id) else {
            self.abort_broken(Broken::UnknownFlow(id));
            return;
        };
        match why {
            FlowWhy::StageToManager { file } => {
                if self.staging[file.0 as usize] {
                    self.staging[file.0 as usize] = false;
                    self.staging_count -= 1;
                }
                self.at_manager[file.0 as usize] = true;
                if let Some(next) = self.staging_waitq.pop_front() {
                    self.begin_staging(next);
                }
                if let Some(waiters) = self.awaiting_manager.remove(file.0) {
                    for (w, task) in waiters {
                        if self.assignments.contains(task.0) && self.workers[w].alive {
                            self.stage_one_input(task, file, w);
                        }
                    }
                }
            }
            FlowWhy::InputArrive { file, w, peer_src } => {
                if let Some(src) = peer_src {
                    self.workers[src].outgoing = self.workers[src].outgoing.saturating_sub(1);
                    self.stats.peer_bytes += record.bytes_moved;
                    self.peer_waits.wake_source(src, Wake::SlotFreed);
                }
                self.on_input_arrived(file, w);
                self.drain_peer_waitq();
            }
            FlowWhy::OutputToManager { task, .. } => {
                for &f in &self.graph.task(task).outputs {
                    self.at_manager[f.0 as usize] = true;
                }
                // Work Queue: the execution's wall ends when its outputs
                // reach the manager.
                self.finalize_attribution(task, self.now.as_micros());
                self.mgr_queue.push_back(MgrOp::Collect(task));
            }
        }
    }

    pub(super) fn account_flow(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        if src == self.mgr_node || dst == self.mgr_node {
            self.stats.manager_bytes += bytes;
        }
        if src == self.fs_node || Some(src) == self.remote_node {
            self.stats.shared_fs_bytes += bytes;
        }
        if self.rec.is_enabled() {
            let n_workers = self.workers.len();
            let mgr = self.mgr_node;
            let fs = self.fs_node;
            let remote = self.remote_node;
            let map = move |n: NodeId| {
                if n == mgr {
                    0
                } else if n == fs || Some(n) == remote {
                    n_workers + 1
                } else {
                    n.0 // workers were added right after the manager
                }
            };
            self.rec.instant(InstantEvent {
                name: "transfer".into(),
                category: category::TRANSFER,
                t_us: self.now.as_micros(),
                track: MANAGER_TRACK,
                attrs: vec![
                    Attr::u64("src", map(src) as u64),
                    Attr::u64("dst", map(dst) as u64),
                    Attr::u64("bytes", bytes),
                ],
            });
        }
    }

    pub(super) fn on_input_arrived(&mut self, f: FileId, w: usize) {
        if !self.workers[w].alive {
            return;
        }
        let name = self.cnames[f.0 as usize];
        let size = self.graph.file(f).size_hint;
        let kind = if self.graph.file(f).producer.is_none() {
            CacheEntryKind::Input
        } else {
            CacheEntryKind::Intermediate
        };
        match self.workers[w].cache.insert(name, size, kind) {
            Ok(evicted) => {
                for victim in evicted {
                    self.handle_eviction(w, victim);
                }
                self.add_replica(f, w);
                self.peer_waits.wake_file(f, Wake::InputArrived);
                self.record_cache(w);
            }
            Err(_) => {
                let has_waiters = self.inflight[w].get(f).is_some_and(|ws| !ws.is_empty());
                if has_waiters {
                    // A task pinned more than this disk can hold (Fig 11):
                    // the worker fails.
                    self.worker_cache_overflow(w);
                } else {
                    // A best-effort replica that doesn't fit is dropped.
                    self.inflight[w].remove(f);
                }
                return;
            }
        }
        let waiters = self.inflight[w].remove(f).unwrap_or_default();
        for task in waiters {
            let Some(a) = self.assignments.get_mut(task.0) else {
                continue;
            };
            if a.w != w {
                continue;
            }
            let _ = self.workers[w].cache.pin(name);
            a.pinned.push(f);
            a.missing = a.missing.saturating_sub(1);
            if a.missing == 0 {
                self.maybe_start_compute(task, w);
            }
        }
    }

    /// List worker `w`, whose cache now holds `f`, as a replica of `f`.
    pub(super) fn add_replica(&mut self, f: FileId, w: usize) {
        let reps = &mut self.replicas[f.0 as usize];
        if reps.contains(&w) {
            self.workers[w].doubled.push(f);
        }
        reps.push(w);
    }

    pub(super) fn worker_cache_overflow(&mut self, w: usize) {
        // Fig 11: the worker's disk cannot hold its pinned set; the worker
        // fails and is re-submitted.
        self.stats.cache_overflow_failures += 1;
        self.crash_count += 1;
        if self.rec.is_enabled() {
            self.rec.instant(InstantEvent {
                name: CACHE_OVERFLOW.into(),
                category: category::WORKER,
                t_us: self.now.as_micros(),
                track: worker_track(w),
                attrs: Vec::new(),
            });
        }
        self.kill_worker(w);
    }

    /// Read worker `w`'s cached copy of input `f`: a clean copy is
    /// touched and pinned, and the call returns true. A copy whose bytes
    /// no longer match its cachename checksum (chaos bitrot) is dropped
    /// and placement fixed; the caller treats the input as missing, as it
    /// does an absent one, and the normal staging / lineage-recovery
    /// machinery takes it from there.
    fn pin_cached_input(&mut self, w: usize, f: FileId) -> bool {
        let name = self.cnames[f.0 as usize];
        match self.workers[w].cache.pin_clean(name) {
            Some(true) => return true,
            None => return false,
            Some(false) => {}
        }
        self.stats.corruptions_detected += 1;
        let _ = self.workers[w].cache.remove(name);
        let reps = &mut self.replicas[f.0 as usize];
        if let Some(pos) = reps.iter().position(|&rw| rw == w) {
            reps.remove(pos);
            self.peer_waits.wake_file(f, Wake::Corrupted);
        }
        self.record_cache(w);
        false
    }

    /// An unpinned cache entry was evicted to make room. Update placement
    /// and recover if it was the last copy of a needed file.
    pub(super) fn handle_eviction(&mut self, w: usize, victim: CacheName) {
        let Some(f) = file_named(&self.name_to_file, victim) else {
            return;
        };
        let fi = f.0 as usize;
        if let Some(pos) = self.replicas[fi].iter().position(|&rw| rw == w) {
            self.replicas[fi].remove(pos);
            self.peer_waits.wake_file(f, Wake::Evicted);
            if self.replicas[fi].is_empty()
                && !self.at_manager[fi]
                && self.graph.file(f).producer.is_some()
                && self.file_needed(f)
            {
                self.declare_file_lost(f);
            }
        }
    }
}
