//! Failure half of the engine: worker lifecycle, chaos, and recovery.
//!
//! Worker ramp-up and preemption, chaos windows (slowdowns, partitions,
//! corruption), attempt-failure bookkeeping (retries, quarantine,
//! blocklisting), speculative execution, and the lineage-driven
//! invalidation that declares files lost and reschedules their producers.

use super::*;
use crate::preempt::next_arrival;

impl<'g, 'r, 'o> Sim<'g, 'r, 'o> {
    /// True when a task-attempt event still refers to the live attempt:
    /// same worker incarnation, same attempt tag, and the task is still
    /// computing there. Anything else is a stale echo of a superseded
    /// attempt.
    pub(super) fn attempt_current(&self, task: TaskId, w: usize, epoch: u32, attempt: u32) -> bool {
        self.workers[w].alive
            && self.workers[w].epoch == epoch
            && self.attempts[task.0 as usize] == attempt
            && self
                .assignments
                .get(task.0)
                .is_some_and(|a| a.computing && a.w == w)
    }

    // ----- recovery --------------------------------------------------------

    /// A *task-level* failure (transient chaos failure or timeout) of the
    /// current attempt: tear the attempt down, fail the task back to
    /// ready, and charge the retry budget. The worker stays alive — only
    /// this attempt is gone.
    pub(super) fn fail_running_attempt(&mut self, task: TaskId, w: usize) {
        let Some(a) = self.end_assignment(task) else {
            self.abort_broken(Broken::NoAttempt(task));
            return;
        };
        debug_assert!(a.computing && a.w == w);
        self.running_delta(-1);
        self.set_busy(w, self.workers[w].busy.saturating_sub(1));
        for f in a.pinned {
            let name = self.cnames[f.0 as usize];
            self.workers[w].cache.release(name);
        }
        if let Some(obs) = &mut self.obs {
            obs.pending.remove(task.0);
        }
        self.cancel_spec(task);
        self.tracker.mark_task_failed(task);
        self.note_worker_failure(w);
        self.charge_task_failure(task);
        self.mgr_kick();
    }

    /// Draw on `task`'s retry budget. Within budget: count the retry and
    /// hold the task in exponential backoff (with jitter on the chaos
    /// hub). Exhausted: quarantine it (graceful degradation).
    pub(super) fn charge_task_failure(&mut self, task: TaskId) {
        let ti = task.0 as usize;
        self.fail_counts[ti] += 1;
        let n = self.fail_counts[ti];
        let policy = self.cfg.recovery;
        if n > policy.retry_budget {
            self.quarantine_task(task);
            return;
        }
        self.stats.retries += 1;
        let mut delay = policy.backoff_for_failure(n);
        if delay > SimDur::ZERO && policy.backoff_jitter > 0.0 {
            let mut rng = self
                .chaos
                .hub
                .indexed_stream("backoff", ((ti as u64) << 20) | n as u64);
            delay = delay.mul_f64(1.0 + policy.backoff_jitter * rng.gen::<f64>());
        }
        if delay > SimDur::ZERO {
            self.stats.backoff_time_us += delay.as_micros();
            self.held[ti] = true;
            self.queue
                .schedule(self.now + delay, Ev::RetryRelease { task });
        }
    }

    /// Withdraw `task` and its transitive consumers from the run. Any
    /// live assignments among them are torn down; already-`Done` members
    /// keep their results.
    pub(super) fn quarantine_task(&mut self, task: TaskId) {
        let mut members = vec![task];
        members.extend(self.tracker.consumer_closure(task));
        for m in members {
            if self.withdraw_task(m) {
                self.stats.quarantined_tasks += 1;
            }
        }
    }

    /// Tear down `m`'s live state (assignment, pins, spec duplicate,
    /// backoff hold) and mark it quarantined in the tracker. Returns
    /// whether it was newly withdrawn — the caller charges the stat
    /// (fault quarantine vs. early-stop cancellation) so the two stay
    /// distinguishable in results and digests.
    pub(super) fn withdraw_task(&mut self, m: TaskId) -> bool {
        if self.assignments.get(m.0).is_some_and(|a| !a.computing) {
            self.release_assignment(m);
        } else if let Some(a) = self.end_assignment(m) {
            self.running_delta(-1);
            if self.workers[a.w].alive {
                self.set_busy(a.w, self.workers[a.w].busy.saturating_sub(1));
            }
            for f in a.pinned {
                let name = self.cnames[f.0 as usize];
                self.workers[a.w].cache.release(name);
            }
            if let Some(obs) = &mut self.obs {
                obs.pending.remove(m.0);
            }
            self.cancel_spec(m);
        }
        self.held[m.0 as usize] = false;
        self.tracker.mark_quarantined(m)
    }

    /// The observer declared convergence: cancel every task that has not
    /// completed yet — the remaining partition cone plus whatever
    /// reductions depended on it. Counted separately from fault
    /// quarantine ([`RunStats::early_stop_cancelled`]), so an
    /// early-stopped run still reports `Completed`.
    pub(super) fn early_stop_cancel_remaining(&mut self) {
        for ti in 0..self.graph.task_count() {
            if self.completed_once[ti] {
                continue;
            }
            let task = TaskId(ti as u32);
            // A withdrawn mid-flight attempt stops burning its core now:
            // refund the part of its (fully pre-charged) wall that would
            // have run after this instant, so `total_task_busy_us` means
            // core-seconds actually consumed.
            if let Some(a) = self.assignments.get(task.0) {
                if a.computing {
                    let refund = a.busy_until.saturating_since(self.now);
                    self.stats.total_task_busy_us = self
                        .stats
                        .total_task_busy_us
                        .saturating_sub(refund.as_micros());
                }
            }
            if self.withdraw_task(task) {
                self.stats.early_stop_cancelled += 1;
            }
        }
        self.stats.early_stopped = true;
    }

    /// Count a failure observed on worker `w` (death or task-level
    /// failure) toward the blocklist threshold. The last non-blocklisted
    /// worker is never blocklisted — someone has to run the work.
    pub(super) fn note_worker_failure(&mut self, w: usize) {
        self.worker_fail_counts[w] = self.worker_fail_counts[w].saturating_add(1);
        let k = self.cfg.recovery.blocklist_after;
        if k == 0 || self.blocklisted[w] || self.worker_fail_counts[w] < k {
            return;
        }
        if self.blocklisted.iter().filter(|b| !**b).count() <= 1 {
            return;
        }
        self.blocklisted[w] = true;
        self.stats.blocklisted_workers += 1;
    }

    /// Cancel `task`'s speculative duplicate, if any, releasing its core.
    /// Counted as a speculative loss (the primary won, failed, or died).
    pub(super) fn cancel_spec(&mut self, task: TaskId) {
        if let Some(s) = self.spec.remove(task.0) {
            if self.workers[s.w].alive && self.workers[s.w].epoch == s.epoch {
                self.set_busy(s.w, self.workers[s.w].busy.saturating_sub(1));
            }
            self.stats.speculative_losses += 1;
            self.mgr_kick();
        }
    }

    /// The current attempt has run past `speculation_factor ×` its own
    /// estimate: duplicate it on a different eligible worker. The
    /// duplicate occupies a core and re-runs the compute from scratch;
    /// whichever attempt finishes first wins.
    pub(super) fn maybe_launch_speculative(
        &mut self,
        task: TaskId,
        primary_w: usize,
        attempt: u32,
    ) {
        if self.spec.contains(task.0) {
            return;
        }
        let serverless = self.serverless();
        let (workers, blocklisted) = (&self.workers, &self.blocklisted);
        let candidate = self.loads.pick_with_free_core(|sw| {
            sw != primary_w
                && workers[sw].alive
                && !blocklisted[sw]
                && (!serverless || workers[sw].lib == LibState::Ready)
        });
        let Some(sw) = candidate else {
            return; // no second worker free; let the primary ride
        };
        self.set_busy(sw, self.workers[sw].busy + 1);
        let epoch = self.workers[sw].epoch;
        self.spec.insert(
            task.0,
            SpecAttempt {
                w: sw,
                epoch,
                attempt,
            },
        );
        let total = self.attempt_total(task, sw);
        self.queue.schedule(
            self.now + total,
            Ev::SpecCompute {
                task,
                w: sw,
                epoch,
                attempt,
            },
        );
    }

    /// A speculative duplicate finished before its primary: the primary
    /// attempt is cancelled and the task completes on the duplicate's
    /// worker (first-finisher-wins).
    pub(super) fn on_spec_compute_done(
        &mut self,
        task: TaskId,
        w: usize,
        epoch: u32,
        attempt: u32,
    ) {
        let valid = self
            .spec
            .get(task.0)
            .is_some_and(|s| s.w == w && s.epoch == epoch && s.attempt == attempt)
            && self.workers[w].alive
            && self.workers[w].epoch == epoch
            && self.attempts[task.0 as usize] == attempt;
        if !valid {
            return;
        }
        self.spec.remove(task.0);
        self.stats.speculative_wins += 1;
        // Tear down the primary attempt by hand: release its core and
        // pins (no running_delta — the task is still running, just here).
        let Some(a) = self.end_assignment(task) else {
            self.abort_broken(Broken::NoAttempt(task));
            return;
        };
        debug_assert!(a.computing && a.w != w);
        if self.workers[a.w].alive {
            self.set_busy(a.w, self.workers[a.w].busy.saturating_sub(1));
        }
        for f in a.pinned {
            let name = self.cnames[f.0 as usize];
            self.workers[a.w].cache.release(name);
        }
        // Complete on the duplicate's worker: outputs materialize there.
        self.assignments.insert(
            task.0,
            Assignment {
                w,
                missing: 0,
                computing: true,
                pinned: Vec::new(),
                busy_until: self.now,
            },
        );
        self.on_task_compute_done(task, w);
    }

    // ----- worker lifecycle ------------------------------------------------

    pub(super) fn on_worker_start(&mut self, w: usize) {
        self.workers[w].alive = true;
        self.set_busy(w, 0);
        self.workers[w].outgoing = 0;
        // The copies this worker holds (from warm caches; a restarted
        // worker holds none) are live sources now. Waking is a no-op,
        // wake counters included, while no peer transfer waits, as at
        // every t = 0 start, so the scan is skipped then.
        {
            let (slab, waits) = (&self.name_to_file, &mut self.peer_waits);
            let cache = &self.workers[w].cache;
            let mut held = cache.iter().filter_map(|(n, _, _)| file_named(slab, n));
            if waits.is_empty() {
                debug_assert!(
                    held.all(|f| waits.waiting_on(f) == 0),
                    "a skipped worker-start scan would have woken a peer wait"
                );
            } else {
                held.for_each(|f| waits.wake_file(f, Wake::WorkerStarted));
            }
        }
        if self.serverless() {
            self.workers[w].lib = LibState::Installing;
            let hoist = matches!(
                self.cfg.exec_mode,
                ExecMode::FunctionCalls {
                    hoist_imports: true
                }
            );
            let d = cost::library_instantiation(hoist, self.cfg.import_source, &self.cfg.shared_fs);
            let epoch = self.workers[w].epoch;
            self.stats.libraries_started += 1;
            if self.rec.is_enabled() {
                let t = self.now.as_micros();
                self.rec.span(Span {
                    name: "library".into(),
                    category: category::LIBRARY,
                    start_us: t,
                    end_us: t + d.as_micros(),
                    track: worker_track(w),
                    attrs: vec![Attr::u64("hoist", hoist as u64)],
                });
            }
            self.queue.schedule(self.now + d, Ev::LibReady { w, epoch });
        }
        let epoch = self.workers[w].epoch;
        let mut rng = self
            .chaos
            .hub
            .indexed_stream("preempt", ((w as u64) << 16) | epoch as u64);
        if let Some(t) = next_arrival(self.now, self.chaos.preempt_rate, &mut rng) {
            self.queue.schedule(t, Ev::WorkerPreempt { w, epoch });
        }
        if self.chaos.corruption_rate > 0.0 {
            self.schedule_corruption(w);
        }
        self.mgr_kick();
    }

    // ----- chaos processes -------------------------------------------------

    /// Schedule this worker's next bitrot event (Poisson inter-arrival on
    /// the chaos hub; one fresh indexed stream per draw).
    pub(super) fn schedule_corruption(&mut self, w: usize) {
        let epoch = self.workers[w].epoch;
        self.chaos.corrupt_seq[w] += 1;
        let seq = self.chaos.corrupt_seq[w];
        let mut rng = self
            .chaos
            .hub
            .indexed_stream("bitrot", ((w as u64) << 40) | seq);
        if let Some(t) = next_arrival(self.now, self.chaos.corruption_rate, &mut rng) {
            self.queue.schedule(t, Ev::Corrupt { w, epoch });
        }
    }

    /// Rot one resident cache entry on worker `w`: a deterministically
    /// chosen unpinned, not-yet-corrupt data file. Detection happens
    /// later, when a cache-hit read checks the mark (checksum mismatch
    /// against the cachename).
    pub(super) fn on_corrupt(&mut self, w: usize) {
        let cache = &self.workers[w].cache;
        let mut names: Vec<CacheName> = cache
            .iter()
            .filter(|&(n, _, k)| {
                k != CacheEntryKind::Library && !cache.is_pinned(n) && !cache.is_corrupt(n)
            })
            .map(|(n, _, _)| n)
            .collect();
        names.sort_unstable();
        if !names.is_empty() {
            let seq = self.chaos.corrupt_seq[w];
            let mut rng = self
                .chaos
                .hub
                .indexed_stream("bitrot-pick", ((w as u64) << 40) | seq);
            let idx = ((rng.gen::<f64>() * names.len() as f64) as usize).min(names.len() - 1);
            self.workers[w].cache.mark_corrupt(names[idx]);
        }
        self.schedule_corruption(w);
    }

    /// A straggler/link window opens or closes. Slowdowns apply to
    /// attempts that *start* inside the window; link factors reshape the
    /// fabric immediately.
    pub(super) fn on_chaos_window(&mut self, idx: usize, ending: bool) {
        self.chaos.windows[idx].active = !ending;
        if !self.chaos.windows[idx].link {
            return;
        }
        let affected: Vec<usize> = (0..self.workers.len())
            .filter(|&w| self.chaos.windows[idx].affected[w])
            .collect();
        for w in affected {
            let bw = self.chaos.base_link_bw[w] * self.chaos.link_factor(w);
            let node = self.workers[w].node;
            self.fabric.set_node_bandwidth(self.now, node, bw, bw);
        }
        self.reschedule_flow_event();
    }

    /// Kill a worker (preemption or cache overflow) and schedule a
    /// replacement through the batch system.
    pub(super) fn kill_worker(&mut self, w: usize) {
        self.workers[w].alive = false;
        self.workers[w].epoch += 1;
        self.workers[w].lib = LibState::NotNeeded;
        self.set_busy(w, 0);
        self.workers[w].outgoing = 0;
        self.note_worker_failure(w);

        // Speculative duplicates hosted here die with the worker (their
        // primaries elsewhere keep running).
        let orphaned: Vec<u32> = self
            .spec
            .iter()
            .filter(|(_, s)| s.w == w)
            .map(|(t, _)| t)
            .collect();
        for t in orphaned {
            self.spec.remove(t);
            self.stats.speculative_losses += 1;
        }

        // Cancel flows touching this worker and repair their bookkeeping.
        let node = self.workers[w].node;
        let _partial = self.fabric.cancel_flows_touching(self.now, node);
        // `flow_why` is kept sorted by (monotone) flow id, so this filter
        // already yields the same id order the old sort produced.
        let cancelled: Vec<(FlowId, FlowWhy)> = self
            .flow_why
            .iter()
            .filter(|(_, why)| match why {
                FlowWhy::InputArrive {
                    w: dw, peer_src, ..
                } => *dw == w || *peer_src == Some(w),
                FlowWhy::OutputToManager { w: sw, .. } => *sw == w,
                FlowWhy::StageToManager { .. } => false,
            })
            .map(|&(id, why)| (id, why))
            .collect();
        let mut to_restage: Vec<(FileId, usize)> = Vec::new();
        for (id, why) in cancelled {
            self.flow_take(id);
            match why {
                FlowWhy::InputArrive {
                    file,
                    w: dw,
                    peer_src,
                } => {
                    if dw == w {
                        self.inflight[dw].remove(file);
                        // Release the surviving source's throttle slot.
                        if let Some(src) = peer_src {
                            if src != w {
                                self.workers[src].outgoing =
                                    self.workers[src].outgoing.saturating_sub(1);
                            }
                        }
                    } else {
                        debug_assert_eq!(peer_src, Some(w));
                        to_restage.push((file, dw));
                    }
                }
                FlowWhy::OutputToManager { task, .. } => {
                    // Output upload died with its producer; the task (still
                    // Running, no assignment) falls back to ready. Its
                    // attribution never completes.
                    if let Some(obs) = &mut self.obs {
                        obs.pending.remove(task.0);
                    }
                    if self.tracker.state(task) == TaskState::Running {
                        self.tracker.mark_task_failed(task);
                    }
                }
                FlowWhy::StageToManager { .. } => unreachable!("manager flows survive"),
            }
        }

        // Fail tasks assigned here (staging or computing). Arena
        // iteration is already ascending by task id.
        let doomed: Vec<TaskId> = self
            .assignments
            .iter()
            .filter(|(_, a)| a.w == w)
            .map(|(t, _)| TaskId(t))
            .collect();
        for t in doomed {
            if self.end_assignment(t).is_some_and(|a| a.computing) {
                self.running_delta(-1);
                if let Some(obs) = &mut self.obs {
                    obs.pending.remove(t.0);
                }
                // A duplicate cannot outlive its primary.
                self.cancel_spec(t);
            }
            self.tracker.mark_task_failed(t);
        }

        // Drop stale inflight entries destined for this worker (queued peer
        // waits with no active flow).
        self.inflight[w].clear();

        // Lose this worker's file copies; recover needed sole copies. The
        // replica lists naming it are those of the files its cache holds
        // and of its doubled files (sanitized below), taken in ascending
        // id order so `lost` is too.
        if cfg!(debug_assertions) {
            self.sanitize_replicas_held(w);
        }
        let worker = &mut self.workers[w];
        let mut held = std::mem::take(&mut worker.doubled);
        let name_to_file = &self.name_to_file;
        held.extend(
            worker
                .cache
                .iter()
                .filter_map(|(name, _, _)| file_named(name_to_file, name)),
        );
        held.sort_unstable();
        held.dedup();
        let mut lost: Vec<FileId> = Vec::new();
        for &f in &held {
            let fi = f.0 as usize;
            let reps = &mut self.replicas[fi];
            if let Some(pos) = reps.iter().position(|&rw| rw == w) {
                reps.remove(pos);
                if reps.is_empty() && !self.at_manager[fi] {
                    lost.push(f);
                }
            }
        }
        self.workers[w].cache.clear();
        held.retain(|f| self.replicas[f.0 as usize].contains(&w));
        self.workers[w].doubled = held;
        for f in lost {
            if self.file_needed(f) {
                self.declare_file_lost(f);
            }
        }

        // Restage surviving destinations' inputs from another source.
        for (file, dw) in to_restage {
            if let Some(waiters) = self.inflight[dw].remove(file) {
                if self.workers[dw].alive {
                    for t in waiters {
                        if self.assignments.contains(t.0) {
                            self.stage_one_input(t, file, dw);
                        }
                    }
                }
            }
        }

        // Replacement worker via the batch system.
        let epoch = self.workers[w].epoch;
        let mut rng = self
            .rng_hub
            .indexed_stream("resubmit", ((w as u64) << 16) | epoch as u64);
        let delay = self.cfg.batch.sample_resubmit(&mut rng);
        self.queue.schedule(self.now + delay, Ev::WorkerStart { w });

        self.reschedule_flow_event();
        self.record_cache(w);
        self.peer_waits.wake_all(Wake::WorkerKilled);
        self.drain_peer_waitq();
        self.mgr_kick();
    }

    /// Sanitizer (debug builds only): every file listing worker `w` as a
    /// replica is in `w`'s cache or among its doubled files, which
    /// `kill_worker` relies on to visit only those instead of every
    /// file's replica list. The converse can fail: a corrupt copy that a
    /// task pins stays cached after `pin_cached_input` drops it from the
    /// replica list.
    fn sanitize_replicas_held(&self, w: usize) {
        let worker = &self.workers[w];
        for (fi, reps) in self.replicas.iter().enumerate() {
            assert!(
                !reps.contains(&w)
                    || worker.cache.contains(self.cnames[fi])
                    || worker.doubled.contains(&FileId(fi as u32)),
                "sanitizer: worker {w} is a replica of file {fi} but holds no copy"
            );
        }
    }

    /// A needed file became unavailable; any assignment still staging it
    /// has been re-blocked by the tracker and must be torn down.
    pub(super) fn abort_assignments_missing(&mut self, f: FileId) {
        let holders: Vec<TaskId> = self
            .graph
            .file(f)
            .consumers
            .iter()
            .copied()
            .filter(|t| {
                self.assignments.get(t.0).is_some_and(|a| !a.computing)
                    && self.tracker.state(*t) == TaskState::Blocked
            })
            .collect();
        for t in holders {
            self.release_assignment(t);
        }
    }

    /// Tear down a non-computing assignment: release its core, unpin its
    /// staged inputs, unregister it from arrival waits.
    pub(super) fn release_assignment(&mut self, t: TaskId) {
        let Some(a) = self.end_assignment(t) else {
            return;
        };
        debug_assert!(!a.computing);
        let w = a.w;
        if self.workers[w].alive {
            self.set_busy(w, self.workers[w].busy.saturating_sub(1));
        }
        for f in a.pinned {
            let name = self.cnames[f.0 as usize];
            self.workers[w].cache.release(name);
        }
        // Arrival waits for `t` only ever live on its assigned worker.
        for (_, waiters) in self.inflight[w].iter_mut() {
            waiters.retain(|&wt| wt != t);
        }
    }

    /// Remove `t`'s assignment. Its queued peer waits (if any) turn moot,
    /// so they are woken for the next drain to drop.
    pub(super) fn end_assignment(&mut self, t: TaskId) -> Option<Assignment> {
        let a = self.assignments.remove(t.0)?;
        self.peer_waits.wake_task(t, Wake::AssignmentEnded);
        Some(a)
    }

    pub(super) fn file_needed(&self, f: FileId) -> bool {
        // Quarantined consumers will never run; don't regenerate for them.
        self.graph
            .file(f)
            .consumers
            .iter()
            .any(|&c| self.tracker.state(c) != TaskState::Done && !self.tracker.is_quarantined(c))
    }

    /// Declare that no physical copy of `f` exists, reviving its producer
    /// and tearing down assignments that were staging it — then cascade:
    /// a revived producer that was `Done` *by memoization* may itself
    /// depend on files that only ever existed as cache residue. Any such
    /// input with no copy anywhere is lost too, transitively, so the
    /// whole skipped ancestor chain re-runs (warm-cache invalidation).
    pub(super) fn declare_file_lost(&mut self, f: FileId) {
        let mut work = vec![f];
        while let Some(f) = work.pop() {
            let Some(p) = self.graph.file(f).producer else {
                continue;
            };
            let producer_was_done = self.tracker.state(p) == TaskState::Done;
            self.tracker.mark_file_lost(f);
            self.abort_assignments_missing(f);
            if !producer_was_done {
                continue; // already pending a re-run; inputs handled before
            }
            for &g in &self.graph.task(p).inputs {
                let gi = g.0 as usize;
                let has_copy = !self.replicas[gi].is_empty() || self.at_manager[gi];
                if has_copy || self.graph.file(g).producer.is_none() {
                    continue;
                }
                // Only push files the tracker still believes are settled
                // (available, or produced by a still-Done task); anything
                // else is already being regenerated.
                let settled = self.tracker.file_available(g)
                    || self
                        .graph
                        .file(g)
                        .producer
                        .is_some_and(|q| self.tracker.state(q) == TaskState::Done);
                if settled {
                    work.push(g);
                }
            }
        }
    }
}
