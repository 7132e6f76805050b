//! Runtime DAG state: ready-set maintenance and lineage recovery.
//!
//! [`ReadyTracker`] is the logical half of every scheduler policy: it knows
//! which files exist *somewhere*, which tasks can run, and — when a worker
//! preemption wipes the only copy of an intermediate file — which ancestor
//! tasks must re-run to regenerate it (lineage recovery, the "re-running
//! tasks" compensation of §IV). The *physical* half (which worker holds
//! which replica) lives in the scheduler policies in `vine-core`; the
//! policy tells the tracker definitively when a file is lost everywhere.
//!
//! Invariant maintained across any interleaving of completions and losses:
//! an unavailable file's producer is never `Done` — it is always `Blocked`,
//! `Ready`, or `Running` again, so the file will eventually rematerialize.

use std::collections::BTreeSet;

use crate::graph::{FileId, TaskGraph, TaskId};

/// Lifecycle state of a task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// At least one input file is unavailable.
    Blocked,
    /// All inputs available; waiting for dispatch.
    Ready,
    /// Dispatched to a worker.
    Running,
    /// Completed; outputs were produced.
    Done,
}

/// Tracks task/file state over a fixed [`TaskGraph`].
///
/// The tracker borrows the graph for its adjacency (inputs, outputs,
/// producers, consumers) and owns only the per-task and per-file state,
/// so building one costs two passes over the graph and no copies of it.
pub struct ReadyTracker<'g> {
    graph: &'g TaskGraph,
    state: Vec<TaskState>,
    file_available: Vec<bool>,
    missing_inputs: Vec<usize>,
    ready: BTreeSet<TaskId>,
    done_count: usize,
    running_count: usize,
    /// Total completions ever recorded, counting re-runs (for accounting
    /// the cost of preemption recovery).
    completions: u64,
    /// Side mask of tasks withdrawn from scheduling after exhausting
    /// their retry budget (graceful degradation). A quarantined task
    /// reads as `Blocked` and is never promoted to `Ready`; the run is
    /// complete when every task is `Done` *or* quarantined.
    quarantined: Vec<bool>,
    quarantined_count: usize,
}

impl<'g> ReadyTracker<'g> {
    /// Initialize from a validated graph: external files are available,
    /// tasks with no produced inputs are `Ready`.
    pub fn new(graph: &'g TaskGraph) -> Self {
        ReadyTracker::seeded(graph, |_| false, |_| false)
    }

    /// Initialize against a *warm* session: `resident[f]` marks produced
    /// files that already exist somewhere in the cluster, `skip[t]` marks
    /// tasks a [`crate::memo::MemoPlan`] satisfies from cache. Skipped
    /// tasks start `Done` without counting as completions; resident files
    /// start available, so consumers that do run can fetch them.
    ///
    /// The caller is responsible for `skip` being memo-sound (a skipped
    /// task's needed outputs resident — see [`crate::memo`]); a skipped
    /// task may legitimately have *unneeded* outputs that are not
    /// resident, which is the one sanctioned relaxation of the module
    /// invariant. If such a file later turns out to be needed after all
    /// (an eviction revived one of its consumers), the policy declares it
    /// lost and [`ReadyTracker::mark_file_lost`] revives the producer.
    pub fn with_warm_state(graph: &'g TaskGraph, resident: &[bool], skip: &[bool]) -> Self {
        assert_eq!(resident.len(), graph.file_count(), "residency mask length");
        assert_eq!(skip.len(), graph.task_count(), "skip mask length");
        ReadyTracker::seeded(graph, |f| resident[f], |t| skip[t])
    }

    /// External files and those `resident(f)` marks start available,
    /// tasks `skip(t)` marks start `Done`, and every other task starts
    /// `Ready` or `Blocked` by its inputs.
    fn seeded(
        graph: &'g TaskGraph,
        resident: impl Fn(usize) -> bool,
        skip: impl Fn(usize) -> bool,
    ) -> Self {
        let nt = graph.task_count();
        let file_available: Vec<bool> = graph
            .files()
            .iter()
            .enumerate()
            .map(|(i, f)| f.producer.is_none() || resident(i))
            .collect();
        let mut t = ReadyTracker {
            graph,
            state: vec![TaskState::Blocked; nt],
            file_available,
            missing_inputs: vec![0; nt],
            ready: BTreeSet::new(),
            done_count: 0,
            running_count: 0,
            completions: 0,
            quarantined: vec![false; nt],
            quarantined_count: 0,
        };
        for (i, task) in graph.tasks().iter().enumerate() {
            let missing = task
                .inputs
                .iter()
                .filter(|f| !t.file_available[f.0 as usize])
                .count();
            t.missing_inputs[i] = missing;
            if skip(i) {
                t.state[i] = TaskState::Done;
                t.done_count += 1;
            } else if missing == 0 {
                t.state[i] = TaskState::Ready;
                t.ready.insert(TaskId(i as u32));
            }
        }
        t
    }

    /// Current state of a task.
    pub fn state(&self, t: TaskId) -> TaskState {
        self.state[t.0 as usize]
    }

    /// Whether a file is (logically) available somewhere.
    pub fn file_available(&self, f: FileId) -> bool {
        self.file_available[f.0 as usize]
    }

    /// Tasks currently ready, in ascending id order.
    pub fn ready_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.ready.iter().copied()
    }

    /// Number of ready tasks.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// `(blocked, ready, running, done)` task counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let total = self.state.len();
        let blocked = total - self.ready.len() - self.running_count - self.done_count;
        (
            blocked,
            self.ready.len(),
            self.running_count,
            self.done_count,
        )
    }

    /// True when every task is `Done` or quarantined: nothing further
    /// can or will run.
    pub fn is_complete(&self) -> bool {
        self.done_count + self.quarantined_count == self.state.len()
    }

    /// Total completions recorded, counting re-runs of recovered tasks.
    pub fn total_completions(&self) -> u64 {
        self.completions
    }

    /// Remove and return the lowest-id ready task, if any.
    pub fn pop_ready(&mut self) -> Option<TaskId> {
        let t = self.ready.iter().next().copied()?;
        self.mark_running(t);
        Some(t)
    }

    /// Transition `Ready -> Running`.
    ///
    /// # Panics
    /// If the task is not ready.
    pub fn mark_running(&mut self, t: TaskId) {
        assert_eq!(
            self.state[t.0 as usize],
            TaskState::Ready,
            "task {t:?} not ready"
        );
        self.ready.remove(&t);
        self.state[t.0 as usize] = TaskState::Running;
        self.running_count += 1;
    }

    /// Transition `Running -> Done`, making outputs available. Returns the
    /// tasks that became ready as a result, in ascending id order.
    ///
    /// # Panics
    /// If the task is not running.
    pub fn mark_done(&mut self, t: TaskId) -> Vec<TaskId> {
        let ti = t.0 as usize;
        assert_eq!(self.state[ti], TaskState::Running, "task {t:?} not running");
        self.state[ti] = TaskState::Done;
        self.running_count -= 1;
        self.done_count += 1;
        self.completions += 1;
        let mut newly_ready = Vec::new();
        let graph = self.graph;
        for &f in &graph.tasks()[ti].outputs {
            newly_ready.extend(self.set_file_available(f));
        }
        newly_ready.sort_unstable();
        newly_ready.dedup();
        newly_ready
    }

    /// A running task's worker died. The task returns to `Ready` (if its
    /// inputs are still available) or `Blocked`. Returns `true` if it is
    /// ready again immediately.
    ///
    /// # Panics
    /// If the task is not running.
    pub fn mark_task_failed(&mut self, t: TaskId) -> bool {
        let ti = t.0 as usize;
        assert_eq!(self.state[ti], TaskState::Running, "task {t:?} not running");
        self.running_count -= 1;
        if self.missing_inputs[ti] == 0 {
            self.state[ti] = TaskState::Ready;
            self.ready.insert(t);
            true
        } else {
            self.state[ti] = TaskState::Blocked;
            false
        }
    }

    /// The last physical copy of `f` is gone. Reverts the producer (and,
    /// through the policy's repeated calls, any ancestors) to be re-run and
    /// re-blocks pending consumers. Returns tasks that transitioned into
    /// `Ready` (producers whose inputs are all still available).
    ///
    /// External files (no producer) cannot be lost; calling this on one is
    /// a no-op because the shared filesystem retains them.
    pub fn mark_file_lost(&mut self, f: FileId) -> Vec<TaskId> {
        let fi = f.0 as usize;
        let graph = self.graph;
        let Some(p) = graph.files()[fi].producer else {
            return Vec::new();
        };
        let was_available = self.file_available[fi];
        let mut newly_ready = Vec::new();

        if was_available {
            self.file_available[fi] = false;
            // Pending consumers lose an input.
            for &c in &graph.files()[fi].consumers {
                let cs = c.0 as usize;
                self.missing_inputs[cs] += 1;
                if self.state[cs] == TaskState::Ready {
                    self.ready.remove(&c);
                    self.state[cs] = TaskState::Blocked;
                }
                // Running consumers already hold their inputs; Done
                // consumers no longer need them. Both keep their state,
                // but their missing-count now reflects the lost file in
                // case they must re-run later.
            }
        }
        // Even when the file was never marked available — a memoized
        // (warm-skipped) task's unneeded output has no availability bit —
        // a Done producer must still be revived so the file can be
        // regenerated; consumer bookkeeping already counts it as missing.

        // The producer must run again.
        let pi = p.0 as usize;
        match self.state[pi] {
            TaskState::Done => {
                self.done_count -= 1;
                if self.missing_inputs[pi] == 0 {
                    self.state[pi] = TaskState::Ready;
                    self.ready.insert(p);
                    newly_ready.push(p);
                } else {
                    // Some of the producer's own inputs are unavailable;
                    // their producers are already pending re-runs (see
                    // module invariant), so this task will unblock when
                    // they complete.
                    self.state[pi] = TaskState::Blocked;
                }
            }
            // Already being re-run (or never ran): nothing to do.
            TaskState::Blocked | TaskState::Ready | TaskState::Running => {}
        }
        newly_ready
    }

    fn set_file_available(&mut self, f: FileId) -> Vec<TaskId> {
        let fi = f.0 as usize;
        let mut newly_ready = Vec::new();
        if self.file_available[fi] {
            return newly_ready;
        }
        self.file_available[fi] = true;
        let graph = self.graph;
        for &c in &graph.files()[fi].consumers {
            let cs = c.0 as usize;
            debug_assert!(self.missing_inputs[cs] > 0);
            self.missing_inputs[cs] -= 1;
            if self.missing_inputs[cs] == 0
                && self.state[cs] == TaskState::Blocked
                && !self.quarantined[cs]
            {
                self.state[cs] = TaskState::Ready;
                self.ready.insert(c);
                newly_ready.push(c);
            }
        }
        newly_ready
    }

    /// Withdraw a task from scheduling permanently (retry budget
    /// exhausted). The caller handles any in-flight attempt first
    /// ([`ReadyTracker::mark_task_failed`]); quarantining a `Running`
    /// task here silently retires the attempt. `Done` tasks keep their
    /// result and are left alone. Idempotent. Returns `true` if the task
    /// was newly quarantined.
    ///
    /// Downstream consumers are *not* quarantined implicitly — the
    /// policy decides how far the blast radius extends (typically the
    /// transitive consumer closure, since those tasks can never become
    /// ready once a producer is quarantined).
    pub fn mark_quarantined(&mut self, t: TaskId) -> bool {
        let ti = t.0 as usize;
        if self.quarantined[ti] || self.state[ti] == TaskState::Done {
            return false;
        }
        match self.state[ti] {
            TaskState::Ready => {
                self.ready.remove(&t);
            }
            TaskState::Running => {
                self.running_count -= 1;
            }
            TaskState::Blocked => {}
            TaskState::Done => unreachable!("handled above"),
        }
        self.state[ti] = TaskState::Blocked;
        self.quarantined[ti] = true;
        self.quarantined_count += 1;
        true
    }

    /// True if the task has been withdrawn by [`mark_quarantined`].
    ///
    /// [`mark_quarantined`]: ReadyTracker::mark_quarantined
    pub fn is_quarantined(&self, t: TaskId) -> bool {
        self.quarantined[t.0 as usize]
    }

    /// Number of quarantined tasks.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined_count
    }

    /// Quarantined tasks in ascending id order.
    pub fn quarantined_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(i, _)| TaskId(i as u32))
    }

    /// The transitive consumer closure of `t`: every task that directly
    /// or indirectly needs one of `t`'s outputs (excluding `t` itself),
    /// ascending id order. This is the blast radius a policy quarantines
    /// along with a retired task.
    pub fn consumer_closure(&self, t: TaskId) -> Vec<TaskId> {
        let mut seen = vec![false; self.state.len()];
        let mut stack = vec![t];
        seen[t.0 as usize] = true;
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            for &f in &self.graph.tasks()[cur.0 as usize].outputs {
                for &c in &self.graph.files()[f.0 as usize].consumers {
                    if !seen[c.0 as usize] {
                        seen[c.0 as usize] = true;
                        out.push(c);
                        stack.push(c);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{TaskGraph, TaskKind};

    /// ext -> p0 -> f0 ; ext -> p1 -> f1 ; (f0,f1) -> acc -> result
    fn chain() -> (TaskGraph, TaskId, TaskId, TaskId) {
        let mut g = TaskGraph::new();
        let e0 = g.add_external_file("e0", 10);
        let e1 = g.add_external_file("e1", 10);
        let (p0, f0) = g.add_task("p0", TaskKind::Process, vec![e0], &[5], 1.0);
        let (p1, f1) = g.add_task("p1", TaskKind::Process, vec![e1], &[5], 1.0);
        let (acc, _) = g.add_task("acc", TaskKind::Accumulate, vec![f0[0], f1[0]], &[1], 1.0);
        (g, p0, p1, acc)
    }

    #[test]
    fn initial_ready_set_is_source_tasks() {
        let (g, p0, p1, _) = chain();
        let t = ReadyTracker::new(&g);
        let ready: Vec<_> = t.ready_tasks().collect();
        assert_eq!(ready, vec![p0, p1]);
        assert_eq!(t.counts(), (1, 2, 0, 0));
    }

    #[test]
    fn completion_unblocks_consumers() {
        let (g, p0, p1, acc) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        t.mark_running(p1);
        assert!(t.mark_done(p0).is_empty());
        assert_eq!(t.mark_done(p1), vec![acc]);
        assert_eq!(t.state(acc), TaskState::Ready);
        t.mark_running(acc);
        t.mark_done(acc);
        assert!(t.is_complete());
        assert_eq!(t.total_completions(), 3);
    }

    #[test]
    fn pop_ready_returns_lowest_id_and_marks_running() {
        let (g, p0, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        assert_eq!(t.pop_ready(), Some(p0));
        assert_eq!(t.state(p0), TaskState::Running);
        assert_eq!(t.counts(), (1, 1, 1, 0));
    }

    #[test]
    fn failed_task_returns_to_ready() {
        let (g, p0, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        assert!(t.mark_task_failed(p0));
        assert_eq!(t.state(p0), TaskState::Ready);
    }

    #[test]
    fn lost_file_reruns_producer() {
        let (g, p0, p1, acc) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        t.mark_running(p1);
        t.mark_done(p0);
        t.mark_done(p1);
        // acc ready; now p0's output vanishes (its worker died).
        let f0 = g.task(p0).outputs[0];
        let revived = t.mark_file_lost(f0);
        assert_eq!(revived, vec![p0]);
        assert_eq!(t.state(p0), TaskState::Ready);
        // acc lost an input: back to Blocked.
        assert_eq!(t.state(acc), TaskState::Blocked);
        // Re-run p0.
        t.mark_running(p0);
        let ready = t.mark_done(p0);
        assert_eq!(ready, vec![acc]);
        assert_eq!(t.total_completions(), 3); // p0 ran twice
    }

    #[test]
    fn cascaded_loss_recovers_transitively() {
        // e -> a -> fa -> b -> fb -> c
        let mut g = TaskGraph::new();
        let e = g.add_external_file("e", 10);
        let (a, fa) = g.add_task("a", TaskKind::Process, vec![e], &[5], 1.0);
        let (b, fb) = g.add_task("b", TaskKind::Process, vec![fa[0]], &[5], 1.0);
        let (c, _) = g.add_task("c", TaskKind::Process, vec![fb[0]], &[1], 1.0);
        let mut t = ReadyTracker::new(&g);
        for task in [a, b] {
            t.mark_running(task);
            t.mark_done(task);
        }
        // Both fa and fb lost (same worker held both). Policy reports both.
        let r1 = t.mark_file_lost(fb[0]);
        assert_eq!(r1, vec![b]); // b revived (fa still assumed available)
        let r2 = t.mark_file_lost(fa[0]);
        assert_eq!(r2, vec![a]);
        // b must now be blocked again: its input fa is gone.
        assert_eq!(t.state(b), TaskState::Blocked);
        assert_eq!(t.state(c), TaskState::Blocked);
        // Replay: a -> b -> c.
        t.mark_running(a);
        assert_eq!(t.mark_done(a), vec![b]);
        t.mark_running(b);
        assert_eq!(t.mark_done(b), vec![c]);
        t.mark_running(c);
        t.mark_done(c);
        assert!(t.is_complete());
    }

    #[test]
    fn lost_file_reported_in_either_order() {
        // Same cascade, losses reported parent-first.
        let mut g = TaskGraph::new();
        let e = g.add_external_file("e", 10);
        let (a, fa) = g.add_task("a", TaskKind::Process, vec![e], &[5], 1.0);
        let (b, fb) = g.add_task("b", TaskKind::Process, vec![fa[0]], &[5], 1.0);
        let mut t = ReadyTracker::new(&g);
        for task in [a, b] {
            t.mark_running(task);
            t.mark_done(task);
        }
        let r1 = t.mark_file_lost(fa[0]);
        assert_eq!(r1, vec![a]);
        let r2 = t.mark_file_lost(fb[0]);
        // b's producer must re-run but is blocked on fa.
        assert!(r2.is_empty());
        assert_eq!(t.state(b), TaskState::Blocked);
        t.mark_running(a);
        assert_eq!(t.mark_done(a), vec![b]);
    }

    #[test]
    fn external_files_cannot_be_lost() {
        let (g, _, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        assert!(t.mark_file_lost(FileId(0)).is_empty());
        assert!(t.file_available(FileId(0)));
    }

    #[test]
    fn double_loss_is_idempotent() {
        let (g, p0, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        t.mark_done(p0);
        let f0 = g.task(p0).outputs[0];
        assert_eq!(t.mark_file_lost(f0), vec![p0]);
        assert!(t.mark_file_lost(f0).is_empty());
        assert_eq!(t.state(p0), TaskState::Ready);
    }

    #[test]
    fn counts_sum_to_total() {
        let (g, p0, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        let (b, r, ru, d) = t.counts();
        assert_eq!(b + r + ru + d, g.task_count());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn running_a_blocked_task_panics() {
        let (g, _, _, acc) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(acc);
    }

    #[test]
    fn quarantine_retires_a_task_and_its_closure_completes_the_run() {
        let (g, p0, p1, acc) = chain();
        let mut t = ReadyTracker::new(&g);
        // p0 keeps failing: the policy gives up on it and everything
        // downstream of it.
        assert_eq!(t.consumer_closure(p0), vec![acc]);
        assert!(t.mark_quarantined(p0));
        assert!(!t.mark_quarantined(p0), "idempotent");
        assert!(t.mark_quarantined(acc));
        assert!(t.is_quarantined(p0));
        assert_eq!(t.quarantined_count(), 2);
        assert_eq!(t.quarantined_tasks().collect::<Vec<_>>(), vec![p0, acc]);
        // p0 left the ready set; p1 still runs to completion.
        assert_eq!(t.ready_tasks().collect::<Vec<_>>(), vec![p1]);
        t.mark_running(p1);
        // p1's output becoming available must NOT revive the quarantined
        // consumer even once p0's side would have been its last miss.
        t.mark_done(p1);
        assert_eq!(t.state(acc), TaskState::Blocked);
        assert_eq!(t.ready_count(), 0);
        assert!(t.is_complete(), "done + quarantined covers every task");
    }

    #[test]
    fn quarantining_a_running_task_retires_the_attempt() {
        let (g, p0, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        assert!(t.mark_quarantined(p0));
        assert_eq!(t.state(p0), TaskState::Blocked);
        let (_, _, running, _) = t.counts();
        assert_eq!(running, 0);
    }

    #[test]
    fn done_tasks_cannot_be_quarantined() {
        let (g, p0, _, _) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        t.mark_done(p0);
        assert!(!t.mark_quarantined(p0));
        assert_eq!(t.state(p0), TaskState::Done);
        assert_eq!(t.quarantined_count(), 0);
    }

    #[test]
    fn consumer_closure_is_transitive() {
        // e -> a -> fa -> b -> fb -> c
        let mut g = TaskGraph::new();
        let e = g.add_external_file("e", 10);
        let (a, fa) = g.add_task("a", TaskKind::Process, vec![e], &[5], 1.0);
        let (b, fb) = g.add_task("b", TaskKind::Process, vec![fa[0]], &[5], 1.0);
        let (c, _) = g.add_task("c", TaskKind::Process, vec![fb[0]], &[1], 1.0);
        let t = ReadyTracker::new(&g);
        assert_eq!(t.consumer_closure(a), vec![b, c]);
        assert_eq!(t.consumer_closure(c), Vec::<TaskId>::new());
    }

    #[test]
    fn loss_while_producer_running_is_ignored() {
        let (g, p0, p1, acc) = chain();
        let mut t = ReadyTracker::new(&g);
        t.mark_running(p0);
        t.mark_running(p1);
        t.mark_done(p0);
        t.mark_done(p1);
        t.mark_running(acc);
        // p0's output lost while acc is running: acc keeps running (it has
        // the bytes); p0 is revived only if someone still needs the file.
        let f0 = g.task(p0).outputs[0];
        let revived = t.mark_file_lost(f0);
        assert_eq!(revived, vec![p0]);
        assert_eq!(t.state(acc), TaskState::Running);
        t.mark_done(acc);
        // Graph not complete: p0 must re-run (its output is a dependency
        // no longer needed, but the tracker conservatively regenerates it).
        assert!(!t.is_complete());
    }
}
