//! Scheduling half of the engine: the manager's serial decision loop.
//!
//! Everything here runs "inside the manager": picking a worker for the
//! next ready task (data-aware, round-robin, or least-loaded), charging
//! the per-message manager costs, launching compute once inputs are
//! resident, and retiring finished attempts. Data movement itself lives
//! in `placement_exec`; failure handling in `recovery_exec`.

use super::*;

impl<'g, 'r, 'o> Sim<'g, 'r, 'o> {
    // ----- manager serial loop --------------------------------------------

    pub(super) fn mgr_kick(&mut self) {
        if self.mgr_busy || self.finished_at.is_some() {
            return;
        }
        // Collects run first: they unblock downstream tasks.
        let op = if let Some(op) = self.mgr_queue.pop_front() {
            op
        } else if self.tracker.ready_count() > 0 {
            MgrOp::Dispatch
        } else {
            return;
        };
        match op {
            MgrOp::Dispatch => {
                if !self.do_dispatch() {
                    return; // no eligible worker; retry on the next event
                }
                let cost = if self.serverless() {
                    cost::DISPATCH_FUNCTION
                } else {
                    cost::DISPATCH_STANDARD
                };
                self.mgr_busy = true;
                self.manager_span("dispatch", cost, None);
                self.queue.schedule(self.now + cost, Ev::MgrDone);
            }
            MgrOp::Collect(t) => {
                self.do_collect(t);
                let cost = if self.serverless() {
                    cost::COLLECT_FUNCTION
                } else {
                    cost::COLLECT_STANDARD
                };
                self.mgr_busy = true;
                self.manager_span("collect", cost, Some(t));
                self.queue.schedule(self.now + cost, Ev::MgrDone);
            }
        }
    }

    pub(super) fn on_mgr_done(&mut self) {
        self.mgr_busy = false;
        self.mgr_kick();
    }

    pub(super) fn choose_worker(&mut self, task: TaskId) -> Option<usize> {
        fn eligible(w: usize, wk: &Worker, blocklisted: &[bool]) -> bool {
            wk.alive && !blocklisted[w] && wk.busy < wk.cores && wk.lib != LibState::Installing
        }
        let data_aware = self.cfg.scheduler == SchedulerKind::TaskVine
            && self.cfg.placement == Placement::DataAware;
        match self.cfg.scheduler {
            SchedulerKind::TaskVine if data_aware => {
                // Accumulate locality bytes into per-worker scratch slots
                // (reset below) instead of an ordered map per dispatch.
                for &f in &self.graph.task(task).inputs {
                    let size = self.graph.file(f).size_hint;
                    for &w in &self.replicas[f.0 as usize] {
                        if !self.loc_seen[w] {
                            self.loc_seen[w] = true;
                            self.loc_touched.push(w);
                        }
                        self.loc_bytes[w] += size;
                    }
                }
                self.loc_touched.sort_unstable();
                let pairs: Vec<(usize, u64)> = self
                    .loc_touched
                    .iter()
                    .map(|&w| (w, self.loc_bytes[w]))
                    .collect();
                for &w in &self.loc_touched {
                    self.loc_bytes[w] = 0;
                    self.loc_seen[w] = false;
                }
                self.loc_touched.clear();
                let workers = &self.workers;
                let blocklisted = &self.blocklisted;
                let loads = &mut self.loads;
                data_aware_pick(
                    &pairs,
                    |w| eligible(w, &workers[w], blocklisted),
                    // The least-loaded fallback is only computed when the
                    // locality pass yields no eligible worker. Eligible
                    // workers have a free core, so the walk stops at the
                    // first full one.
                    std::iter::once_with(|| {
                        loads.pick_with_free_core(|w| eligible(w, &workers[w], blocklisted))
                    })
                    .flatten(),
                )
            }
            SchedulerKind::TaskVine | SchedulerKind::WorkQueue | SchedulerKind::DaskDistributed => {
                let workers = &self.workers;
                let blocklisted = &self.blocklisted;
                self.rr
                    .pick(workers.len(), |w| eligible(w, &workers[w], blocklisted))
            }
        }
    }

    /// Pop the next ready task (skipping any held in retry backoff), bind
    /// it to a worker, and begin staging.
    pub(super) fn do_dispatch(&mut self) -> bool {
        let held = &self.held;
        let Some(task) = self.tracker.ready_tasks().find(|t| !held[t.0 as usize]) else {
            return false;
        };
        let Some(w) = self.choose_worker(task) else {
            return false;
        };
        self.tracker.mark_running(task);
        self.set_busy(w, self.workers[w].busy + 1);
        self.assignments.insert(
            task.0,
            Assignment {
                w,
                missing: 0,
                computing: false,
                pinned: Vec::new(),
                busy_until: SimTime::ZERO,
            },
        );
        if let Some(obs) = &mut self.obs {
            obs.assigned_at[task.0 as usize] = self.now;
        }
        self.stage_inputs(task, w);
        true
    }

    pub(super) fn do_collect(&mut self, task: TaskId) {
        if self.tracker.is_quarantined(task) {
            return; // withdrawn while its result was in flight
        }
        let first = !self.completed_once[task.0 as usize];
        if first {
            self.completed_once[task.0 as usize] = true;
            let graph = self.graph;
            for &f in &graph.task(task).inputs {
                let rc = &mut self.remaining_consumers[f.0 as usize];
                *rc = rc.saturating_sub(1);
                if *rc == 0 {
                    self.unpin_retention(f);
                }
            }
        }
        self.tracker.mark_done(task);
        if first {
            self.stream_partition_done(task);
        }
    }

    /// Streaming hook: a partition completed for the first time. Fold its
    /// delta into the live estimate, push a [`PartialUpdate`] to the
    /// observer, and honor an early-stop verdict. Runs strictly after the
    /// collect bookkeeping above and touches no RNG hub, so runs without
    /// an observer are byte-identical to pre-streaming builds.
    pub(super) fn stream_partition_done(&mut self, task: TaskId) {
        let (Some(st), Some(observer)) = (&mut self.stream, self.observer.as_deref_mut()) else {
            return;
        };
        if st.stopped || self.graph.task(task).kind != TaskKind::Process {
            return;
        }
        let name = self.graph.task(task).name.clone();
        let events = partition_events(self.graph, task);
        st.partitions_done += 1;
        st.events_done += events;
        let delta = vine_data::partition_delta(&name, events);
        st.acc.merge(&delta);
        self.stats.partitions_streamed = st.partitions_done;
        let update = PartialUpdate {
            task,
            name,
            delta,
            partitions_done: st.partitions_done,
            partitions_total: st.partitions_total,
            events_done: st.events_done,
            events_total: st.events_total,
            sim_time_us: self.now.as_micros(),
        };
        let verdict = observer.on_partition(update);
        if verdict == ObserverControl::Stop && st.partitions_done < st.partitions_total {
            st.stopped = true;
            self.early_stop_cancel_remaining();
        }
    }

    /// Release the retention pin a file's producer put on it (its consumers
    /// are all done; LRU may now reclaim it).
    pub(super) fn unpin_retention(&mut self, f: FileId) {
        let name = self.cnames[f.0 as usize];
        let workers = &mut self.workers;
        for &w in &self.replicas[f.0 as usize] {
            workers[w].cache.release(name);
        }
    }

    // ----- compute ---------------------------------------------------------

    pub(super) fn try_start_assigned(&mut self, w: usize) {
        // Arena iteration is already ascending by task id.
        let ready: Vec<TaskId> = self
            .assignments
            .iter()
            .filter(|(_, a)| a.w == w && a.missing == 0 && !a.computing)
            .map(|(t, _)| TaskId(t))
            .collect();
        for t in ready {
            self.maybe_start_compute(t, w);
        }
    }

    /// Sanitizer (debug builds only): every invariant a dispatch relies
    /// on. An assignment with `missing == 0` must sit on a live,
    /// non-oversubscribed worker whose cache really holds — pinned —
    /// every input the staging machinery claims to have delivered, and
    /// cache occupancy can never exceed capacity.
    #[cfg(debug_assertions)]
    pub(super) fn sanitize_dispatch(&self, task: TaskId, w: usize) {
        let wk = &self.workers[w];
        assert!(
            wk.alive,
            "sanitizer: dispatching task {task:?} to dead worker {w}"
        );
        assert!(
            wk.busy <= wk.cores,
            "sanitizer: worker {w} oversubscribed (busy {} > cores {})",
            wk.busy,
            wk.cores
        );
        assert!(
            wk.cache.used() <= wk.cache.capacity(),
            "sanitizer: worker {w} cache occupancy {} exceeds capacity {}",
            wk.cache.used(),
            wk.cache.capacity()
        );
        // vine-audit: allow(A301) -- debug-only dispatch sanitizer; a missing assignment here must abort loudly
        let a = self.assignments.get(task.0).expect("assigned");
        for &f in &a.pinned {
            let name = self.cnames[f.0 as usize];
            assert!(
                wk.cache.contains(name) && wk.cache.is_pinned(name),
                "sanitizer: input {f:?} of task {task:?} not pinned in worker {w}'s cache \
                 at dispatch"
            );
        }
    }

    pub(super) fn maybe_start_compute(&mut self, task: TaskId, w: usize) {
        if self.serverless() && self.workers[w].lib != LibState::Ready {
            return; // starts when the library comes up
        }
        {
            let Some(a) = self.assignments.get_mut(task.0) else {
                self.abort_broken(Broken::NoAttempt(task));
                return;
            };
            debug_assert_eq!(a.w, w);
            if a.computing || a.missing > 0 {
                return;
            }
            a.computing = true;
        }
        #[cfg(debug_assertions)]
        self.sanitize_dispatch(task, w);

        // The overhead split is kept explicit (rather than calling
        // `standard_task_overhead` / `function_call_overhead`) so the
        // attribution can report interpreter startup and import time as
        // separate phases; `interp + imports` equals those functions exactly.
        let (interp, imports, read_io, write_io) = self.attempt_components(task);
        let task_node = self.graph.task(task);
        let dispatch_cost_us = if self.serverless() {
            cost::DISPATCH_FUNCTION
        } else {
            cost::DISPATCH_STANDARD
        }
        .as_micros();
        // An attempt that starts inside a straggler window runs its
        // compute at the window's slowdown for its whole life.
        let base_compute = self.durations[task.0 as usize];
        let slow = self.chaos.slow_factor(w);
        let compute = if slow > 1.0 {
            base_compute.mul_f64(slow)
        } else {
            base_compute
        };
        let total = interp + imports + compute + read_io + write_io;
        let base_total = interp + imports + base_compute + read_io + write_io;

        let Some(a) = self.assignments.get_mut(task.0) else {
            self.abort_broken(Broken::NoAttempt(task));
            return;
        };
        a.busy_until = self.now + total;
        self.stats.total_task_busy_us += total.as_micros();
        self.running_delta(1);
        if self.rec.is_enabled() {
            let tag = match task_node.kind {
                TaskKind::Process => 0,
                TaskKind::Accumulate => 1,
                TaskKind::Generic => 2,
            };
            self.rec.span(Span {
                name: task_node.name.clone(),
                category: category::TASK,
                start_us: self.now.as_micros(),
                end_us: (self.now + total).as_micros(),
                track: worker_track(w),
                attrs: vec![Attr::u64("task", task.0 as u64), Attr::u64("tag", tag)],
            });
        }
        if let Some(obs) = &mut self.obs {
            // Attribute the window from dispatch to compute start: the
            // manager's serial cost first, every remaining microsecond is
            // input transfer (staging flows, library waits, peer queueing).
            let assigned_us = obs.assigned_at[task.0 as usize].as_micros();
            let window_pre = self.now.as_micros().saturating_sub(assigned_us);
            let dispatch = dispatch_cost_us.min(window_pre);
            let mut phases = PhaseBreakdown::new();
            phases.set(Phase::Dispatch, dispatch);
            phases.set(
                Phase::InputTransfer,
                window_pre - dispatch + read_io.as_micros(),
            );
            phases.set(Phase::InterpreterStartup, interp.as_micros());
            phases.set(Phase::Imports, imports.as_micros());
            phases.set(Phase::Compute, compute.as_micros());
            phases.set(Phase::OutputTransfer, write_io.as_micros());
            obs.pending.insert(
                task.0,
                PendingAttr {
                    worker: w as u32,
                    start_us: assigned_us,
                    phases,
                },
            );
        }
        let epoch = self.workers[w].epoch;
        // Count the execution as it starts: an attempt aborted by
        // preemption is work done (and re-done), which is what this
        // statistic measures.
        self.stats.task_executions += 1;
        self.attempts[task.0 as usize] = self.attempts[task.0 as usize].wrapping_add(1);
        let attempt = self.attempts[task.0 as usize];

        // Chaos: decide up front whether this attempt fails transiently,
        // and when (a fraction of its wall, on the chaos hub).
        let mut fail_at: Option<SimDur> = None;
        if let Some((prob, _exit)) = self.chaos.task_failure {
            let mut rng = self
                .chaos
                .hub
                .indexed_stream("taskfail", ((task.0 as u64) << 24) | attempt as u64);
            if rng.gen::<f64>() < prob {
                let frac = 1.0 - rng.gen::<f64>(); // (0, 1]
                fail_at = Some(total.mul_f64(frac));
            }
        }
        match fail_at {
            Some(d) => self.queue.schedule(
                self.now + d,
                Ev::TaskFail {
                    task,
                    w,
                    epoch,
                    attempt,
                },
            ),
            None => self.queue.schedule(
                self.now + total,
                Ev::TaskCompute {
                    task,
                    w,
                    epoch,
                    attempt,
                },
            ),
        };

        let policy = self.cfg.recovery;
        if policy.timeout_factor > 0.0 {
            // The timeout bounds the *compute* phase by a multiple of the
            // category's p99 sampled runtime; overheads ride on top.
            let p99 = self.kind_p99[kind_index(task_node.kind)];
            let allowed =
                interp + imports + read_io + write_io + p99.mul_f64(policy.timeout_factor);
            if allowed < total && fail_at.is_none_or(|d| allowed < d) {
                self.queue.schedule(
                    self.now + allowed,
                    Ev::TaskTimeout {
                        task,
                        w,
                        epoch,
                        attempt,
                    },
                );
            }
        }
        if policy.speculation {
            // Only worth checking if the attempt will actually outlive its
            // own estimate (e.g. it started inside a straggler window).
            let spec_at = base_total.mul_f64(policy.speculation_factor);
            if spec_at < total {
                self.queue.schedule(
                    self.now + spec_at,
                    Ev::SpecCheck {
                        task,
                        w,
                        epoch,
                        attempt,
                    },
                );
            }
        }
    }

    pub(super) fn on_task_compute_done(&mut self, task: TaskId, w: usize) {
        let Some(a) = self.end_assignment(task) else {
            return; // stale event (task was failed over)
        };
        debug_assert!(a.computing && a.w == w);
        // First-finisher-wins: a still-running duplicate loses here.
        self.cancel_spec(task);
        self.running_delta(-1);
        self.set_busy(w, self.workers[w].busy.saturating_sub(1));

        // Release this task's input pins.
        for f in a.pinned {
            let name = self.cnames[f.0 as usize];
            self.workers[w].cache.release(name);
        }

        let graph = self.graph;
        let outputs = &graph.task(task).outputs;
        match self.cfg.scheduler {
            SchedulerKind::WorkQueue => {
                // Stream outputs back to the manager; collect on arrival.
                // Workers do not retain outputs under Work Queue.
                let total = self.out_bytes[task.0 as usize];
                let id = self.fabric.start_flow(
                    self.now,
                    self.workers[w].node,
                    self.mgr_node,
                    total,
                    f64::INFINITY,
                );
                self.flow_note(id, FlowWhy::OutputToManager { task, w });
                self.reschedule_flow_event();
            }
            SchedulerKind::TaskVine | SchedulerKind::DaskDistributed => {
                // Retain outputs locally; only a result message goes back.
                for &f in outputs {
                    let name = self.cnames[f.0 as usize];
                    let size = self.graph.file(f).size_hint;
                    match self.workers[w]
                        .cache
                        .insert(name, size, CacheEntryKind::Intermediate)
                    {
                        Ok(evicted) => {
                            for victim in evicted {
                                self.handle_eviction(w, victim);
                            }
                            if self.remaining_consumers[f.0 as usize] > 0 {
                                let _ = self.workers[w].cache.pin(name);
                            }
                            self.add_replica(f, w);
                            self.peer_waits.wake_file(f, Wake::OutputRetained);
                        }
                        Err(_) => {
                            // The producing worker dies before collect: the
                            // execution never completes, so its attribution
                            // is discarded with it.
                            if let Some(obs) = &mut self.obs {
                                obs.pending.remove(task.0);
                            }
                            self.worker_cache_overflow(w);
                            return;
                        }
                    }
                }
                debug_assert!(
                    self.workers[w].cache.used() <= self.workers[w].cache.capacity(),
                    "sanitizer: worker {w} cache occupancy exceeds capacity after \
                     output retention"
                );
                self.record_cache(w);
                for &f in outputs {
                    self.maybe_replicate(f, w);
                }
                // Outputs stay local: the execution's wall ends here.
                self.finalize_attribution(task, self.now.as_micros());
                self.mgr_queue.push_back(MgrOp::Collect(task));
            }
        }
        self.mgr_kick();
    }

    /// Close out a pending attribution at `end_us`. Time past the phases
    /// fixed at compute start — zero under TaskVine/Dask, the
    /// output-to-manager flow under Work Queue — lands in the
    /// output-transfer phase, keeping phases summing to wall time exactly.
    pub(super) fn finalize_attribution(&mut self, task: TaskId, end_us: u64) {
        let Some(obs) = &mut self.obs else {
            return;
        };
        let Some(p) = obs.pending.remove(task.0) else {
            return;
        };
        let mut phases = p.phases;
        let covered = p.start_us.saturating_add(phases.total_us());
        phases.add(Phase::OutputTransfer, end_us.saturating_sub(covered));
        obs.done.push(TaskAttribution {
            task: task.0,
            worker: p.worker,
            start_us: p.start_us,
            end_us,
            phases,
        });
    }

    /// The full wall an attempt of `task` occupies on worker `w` right
    /// now: overheads + (slowdown-scaled) compute + local I/O. Mirrors
    /// the breakdown in [`Sim::maybe_start_compute`].
    pub(super) fn attempt_total(&self, task: TaskId, w: usize) -> SimDur {
        let (interp, imports, read_io, write_io) = self.attempt_components(task);
        let slow = self.chaos.slow_factor(w);
        let compute = if slow > 1.0 {
            self.durations[task.0 as usize].mul_f64(slow)
        } else {
            self.durations[task.0 as usize]
        };
        interp + imports + compute + read_io + write_io
    }

    /// The non-compute components of one attempt of `task`:
    /// `(interp, imports, read_io, write_io)`.
    pub(super) fn attempt_components(&self, task: TaskId) -> (SimDur, SimDur, SimDur, SimDur) {
        let import_cost = || cost::import_cost(self.cfg.import_source, &self.cfg.shared_fs);
        let (interp, imports) = match self.cfg.exec_mode {
            ExecMode::StandardTasks => (cost::INTERPRETER_STARTUP, import_cost()),
            ExecMode::FunctionCalls { hoist_imports } => (
                cost::FUNCTION_OVERHEAD,
                if hoist_imports {
                    SimDur::ZERO
                } else {
                    import_cost()
                },
            ),
        };
        (
            interp,
            imports,
            cost::WORKER_DISK.read_time(self.in_bytes[task.0 as usize]),
            cost::WORKER_DISK.write_time(self.out_bytes[task.0 as usize]),
        )
    }
}
