//! Task-placement decisions.
//!
//! Work Queue and Dask.Distributed place data-obliviously (round-robin over
//! workers with free slots). TaskVine consults the manager's file-location
//! map and "tasks can be scheduled where data dependencies are already
//! available, reducing the need for unnecessary data movement" (§IV-B).
//!
//! Two indexes keep the engine's per-event placement work proportional to
//! what changed: [`LoadIndex`] orders workers by load for least-loaded
//! picks, and [`PeerWaits`] holds throttled peer-transfer requests so a
//! drain visits only the ones an event may have made actionable.

use std::collections::{BTreeMap, BTreeSet};

use vine_dag::{FileId, TaskId};

use crate::arena::SmallMap;

/// Round-robin cursor over a worker set.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// A cursor starting at worker 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pick the next eligible worker index in `0..n`, advancing the
    /// cursor. Returns `None` if no worker is eligible.
    pub fn pick(&mut self, n: usize, mut eligible: impl FnMut(usize) -> bool) -> Option<usize> {
        if n == 0 {
            return None;
        }
        for step in 0..n {
            let w = (self.cursor + step) % n;
            if eligible(w) {
                self.cursor = (w + 1) % n;
                return Some(w);
            }
        }
        None
    }
}

/// Data-aware pick: among eligible workers, prefer the one already holding
/// the most input bytes; fall back to `fallback` order when no candidate
/// with locality is eligible.
///
/// `locality` pairs `(worker, cached_input_bytes)` and need not be sorted;
/// ties break on lower worker index for determinism.
pub fn data_aware_pick(
    locality: &[(usize, u64)],
    mut eligible: impl FnMut(usize) -> bool,
    fallback: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for &(w, bytes) in locality {
        if bytes == 0 || !eligible(w) {
            continue;
        }
        let candidate = (bytes, w);
        best = Some(match best {
            None => candidate,
            // Prefer more bytes; on ties prefer the lower index.
            Some((bb, bw)) => {
                if bytes > bb || (bytes == bb && w < bw) {
                    candidate
                } else {
                    (bb, bw)
                }
            }
        });
    }
    if let Some((_, w)) = best {
        return Some(w);
    }
    fallback.into_iter().find(|&w| eligible(w))
}

/// Load of a worker whose every core is busy: a worker has a free core
/// exactly when its [`worker_load`] is below this.
pub const FULL_LOAD: u32 = 1000;

/// A worker's load as least-loaded picks order it: busy cores per
/// thousand cores, `u32::MAX` for a worker without cores.
pub fn worker_load(busy: u32, cores: u32) -> u32 {
    (busy * FULL_LOAD).checked_div(cores).unwrap_or(u32::MAX)
}

/// The reference least-loaded pick: among the workers that satisfy
/// `pred`, the one with the smallest `(load, index)`, by a linear scan.
/// [`LoadIndex`] gives the same answer without visiting every worker.
pub fn least_loaded_pick(loads: &[u32], mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for (w, &load) in loads.iter().enumerate() {
        if pred(w) && best.is_none_or(|b| (load, w) < b) {
            best = Some((load, w));
        }
    }
    best.map(|(_, w)| w)
}

/// Live workers ordered by `(load, index)`. The engine re-indexes a
/// worker whenever its busy count or liveness changes, so a least-loaded
/// pick walks from the front and stops at the first worker that
/// qualifies. Every pick the engine makes requires a live worker, so dead
/// ones are left out of the order.
#[derive(Clone, Debug, Default)]
pub struct LoadIndex {
    order: BTreeSet<(u32, usize)>,
    /// Each worker's load, `None` while it is not indexed.
    load: Vec<Option<u32>>,
    walked: u64,
}

impl LoadIndex {
    /// An index over workers `0..n`, none of them indexed yet.
    pub fn new(n: usize) -> Self {
        LoadIndex {
            order: BTreeSet::new(),
            load: vec![None; n],
            walked: 0,
        }
    }

    /// Index worker `w` at `load`, or drop it from the order (`None`).
    pub fn set(&mut self, w: usize, load: Option<u32>) {
        let old = std::mem::replace(&mut self.load[w], load);
        if old != load {
            if let Some(l) = old {
                self.order.remove(&(l, w));
            }
            if let Some(l) = load {
                self.order.insert((l, w));
            }
        }
    }

    /// [`least_loaded_pick`] among the indexed workers.
    pub fn pick(&mut self, pred: impl FnMut(usize) -> bool) -> Option<usize> {
        first_match(&mut self.walked, self.order.iter(), pred)
    }

    /// [`least_loaded_pick`] among the indexed workers with a free core:
    /// the walk stops at the first full one.
    pub fn pick_with_free_core(&mut self, pred: impl FnMut(usize) -> bool) -> Option<usize> {
        first_match(&mut self.walked, self.order.range(..(FULL_LOAD, 0)), pred)
    }

    /// Index entries walked by every pick so far.
    pub fn walked(&self) -> u64 {
        self.walked
    }
}

fn first_match<'a>(
    walked: &mut u64,
    mut order: impl Iterator<Item = &'a (u32, usize)>,
    mut pred: impl FnMut(usize) -> bool,
) -> Option<usize> {
    order
        .find(|&&(_, w)| {
            *walked += 1;
            pred(w)
        })
        .map(|&(_, w)| w)
}

/// A peer transfer waiting for a source slot: `file` for `task` on
/// worker `w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerWait {
    pub file: FileId,
    pub w: usize,
    pub task: TaskId,
}

/// What woke a peer wait. Each engine call site that can make a queued
/// wait actionable wakes under its own cause, and [`PeerWaits::woken_by`]
/// counts the queued entries each cause covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// A copy of the file arrived at a worker.
    InputArrived,
    /// A worker kept the file as a task output.
    OutputRetained,
    /// A copy of the file was evicted.
    Evicted,
    /// A corrupt copy of the file was dropped.
    Corrupted,
    /// A flow of the file toward some worker started.
    FlowStarted,
    /// A peer-transfer slot freed at the source.
    SlotFreed,
    /// A worker started.
    WorkerStarted,
    /// A worker died.
    WorkerKilled,
    /// The task's assignment ended.
    AssignmentEnded,
    /// The destination holds a corrupt copy a pin keeps resident: every
    /// drain re-reads it.
    CorruptResident,
}

impl Wake {
    /// Every cause, in declaration order.
    pub const ALL: [Wake; 10] = [
        Wake::InputArrived,
        Wake::OutputRetained,
        Wake::Evicted,
        Wake::Corrupted,
        Wake::FlowStarted,
        Wake::SlotFreed,
        Wake::WorkerStarted,
        Wake::WorkerKilled,
        Wake::AssignmentEnded,
        Wake::CorruptResident,
    ];
}

/// The throttled peer-transfer wait queue, driven by events.
///
/// Entries are keyed by arrival sequence number, so ascending order is
/// arrival (FIFO) order, and an entry that keeps waiting keeps its number.
/// The engine *wakes* the entries an event may have made actionable:
/// those on a file, behind a source, of a task, or all of them. The
/// invariant is that an entry not woken since it was last examined is not
/// actionable, and examining it would have no side effect. A drain
/// therefore visits only woken entries, in ascending order, with a cursor
/// that only moves forward and an end fixed when the drain begins. An
/// entry woken behind the cursor waits for the next drain.
#[derive(Default)]
pub struct PeerWaits {
    entries: BTreeMap<u64, PeerWait>,
    woken: BTreeSet<u64>,
    by_file: SmallMap<FileId, Vec<u64>>,
    by_task: SmallMap<TaskId, Vec<u64>>,
    /// The entries that stayed behind each source when last examined. A
    /// source's list is dropped when it wakes, so it may still name
    /// entries that are gone; the wake skips those.
    by_src: SmallMap<usize, Vec<u64>>,
    next_seq: u64,
    /// `(cursor, end)` while a drain runs.
    drain: Option<(u64, u64)>,
    visits: u64,
    wakes: [u64; Wake::ALL.len()],
}

impl PeerWaits {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queue `wait` behind the sources in `behind`, unwoken: the caller
    /// has just found it not actionable. Returns its sequence number. An
    /// entry queued while a drain runs lies past its end.
    pub fn push(&mut self, wait: PeerWait, behind: impl IntoIterator<Item = usize>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(seq, wait);
        self.by_file.get_or_insert_default(wait.file).push(seq);
        self.by_task.get_or_insert_default(wait.task).push(seq);
        self.stay(seq, behind);
        seq
    }

    /// True while a drain runs.
    pub fn draining(&self) -> bool {
        self.drain.is_some()
    }

    /// Start a drain over the entries queued so far.
    pub fn begin_drain(&mut self) {
        debug_assert!(self.drain.is_none(), "peer-wait drains do not nest");
        self.drain = Some((0, self.next_seq));
    }

    /// The next woken entry at or past the cursor and before the drain's
    /// end. It is un-woken and the cursor moves past it; the caller then
    /// either [`remove`](Self::remove)s it or lets it [`stay`](Self::stay).
    pub fn next_woken(&mut self) -> Option<(u64, PeerWait)> {
        let (cursor, end) = self.drain?;
        let seq = *self.woken.range(cursor..end).next()?;
        self.woken.remove(&seq);
        self.drain = Some((seq + 1, end));
        self.visits += 1;
        self.entries.get(&seq).map(|&wait| (seq, wait))
    }

    /// End the current drain.
    pub fn end_drain(&mut self) {
        self.drain = None;
    }

    /// Entry `seq` keeps waiting, now behind the sources in `behind`.
    pub fn stay(&mut self, seq: u64, behind: impl IntoIterator<Item = usize>) {
        for src in behind {
            let seqs = self.by_src.get_or_insert_default(src);
            if seqs.last() != Some(&seq) {
                seqs.push(seq);
            }
        }
    }

    /// Entry `seq` was served or found moot: forget it.
    pub fn remove(&mut self, seq: u64) {
        let Some(wait) = self.entries.remove(&seq) else {
            return;
        };
        self.woken.remove(&seq);
        unfile(&mut self.by_file, wait.file, seq);
        unfile(&mut self.by_task, wait.task, seq);
    }

    /// Wake entry `seq`.
    pub fn wake(&mut self, seq: u64, why: Wake) {
        if self.entries.contains_key(&seq) {
            self.woken.insert(seq);
            self.wakes[why as usize] += 1;
        }
    }

    /// Queued entries waiting for file `f`.
    pub fn waiting_on(&self, f: FileId) -> usize {
        self.by_file.get(f).map_or(0, Vec::len)
    }

    /// Wake the entries waiting for file `f`.
    pub fn wake_file(&mut self, f: FileId, why: Wake) {
        if let Some(seqs) = self.by_file.get(f) {
            self.woken.extend(seqs);
            self.wakes[why as usize] += seqs.len() as u64;
        }
    }

    /// Wake the entries of task `t`.
    pub fn wake_task(&mut self, t: TaskId, why: Wake) {
        if let Some(seqs) = self.by_task.get(t) {
            self.woken.extend(seqs);
            self.wakes[why as usize] += seqs.len() as u64;
        }
    }

    /// Wake the entries that stayed behind source `src`.
    pub fn wake_source(&mut self, src: usize, why: Wake) {
        for seq in self.by_src.remove(src).unwrap_or_default() {
            if self.entries.contains_key(&seq) {
                self.woken.insert(seq);
                self.wakes[why as usize] += 1;
            }
        }
    }

    /// Wake every entry. Each will be examined again and re-filed behind
    /// its sources if it stays, so the source lists start afresh.
    pub fn wake_all(&mut self, why: Wake) {
        self.woken.extend(self.entries.keys());
        self.by_src.clear();
        self.wakes[why as usize] += self.entries.len() as u64;
    }

    /// The entries not woken since they were last examined.
    pub fn unwoken(&self) -> impl Iterator<Item = PeerWait> + '_ {
        self.entries
            .iter()
            .filter(|(seq, _)| !self.woken.contains(seq))
            .map(|(_, &wait)| wait)
    }

    /// Entries visited by every drain so far.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Queued entries covered by the wakes of cause `why` so far, counted
    /// whether or not they were already woken.
    pub fn woken_by(&self, why: Wake) -> u64 {
        self.wakes[why as usize]
    }
}

/// Drop `seq` from `key`'s list in `index`, and the list once empty.
fn unfile<K: Ord + Copy>(index: &mut SmallMap<K, Vec<u64>>, key: K, seq: u64) {
    if let Some(seqs) = index.get_mut(key) {
        seqs.retain(|&s| s != seq);
        if seqs.is_empty() {
            index.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(file: u32, w: usize, task: u32) -> PeerWait {
        PeerWait {
            file: FileId(file),
            w,
            task: TaskId(task),
        }
    }

    /// Drain once, keeping the entries `keep` accepts (without filing
    /// them behind any further source); returns the entries visited.
    fn drain(q: &mut PeerWaits, mut keep: impl FnMut(PeerWait) -> bool) -> Vec<PeerWait> {
        let mut seen = Vec::new();
        q.begin_drain();
        while let Some((seq, pw)) = q.next_woken() {
            seen.push(pw);
            if keep(pw) {
                q.stay(seq, []);
            } else {
                q.remove(seq);
            }
        }
        q.end_drain();
        seen
    }

    #[test]
    fn peer_waits_keep_fifo_order_across_requeues() {
        let mut q = PeerWaits::new();
        let (a, b, c) = (wait(1, 1, 10), wait(2, 1, 11), wait(1, 2, 12));
        for pw in [a, b, c] {
            q.push(pw, [0]);
        }
        q.wake_all(Wake::WorkerKilled);
        assert_eq!(drain(&mut q, |pw| pw != b), vec![a, b, c]);
        assert_eq!(q.len(), 2);
        let d = wait(3, 1, 13);
        q.push(d, [0]);
        q.wake_all(Wake::WorkerKilled);
        assert_eq!(drain(&mut q, |_| true), vec![a, c, d]);
    }

    #[test]
    fn peer_waits_visit_only_woken_entries() {
        let mut q = PeerWaits::new();
        let (a, b, c) = (wait(1, 1, 10), wait(2, 1, 11), wait(3, 2, 12));
        q.push(a, [0]);
        q.push(b, [5]);
        q.push(c, [0]);
        assert!(drain(&mut q, |_| true).is_empty(), "nothing woken");
        q.wake_file(FileId(2), Wake::InputArrived);
        assert_eq!(drain(&mut q, |_| true), vec![b]);
        q.wake_source(0, Wake::SlotFreed);
        assert_eq!(drain(&mut q, |_| true), vec![a, c]);
        assert_eq!(q.woken_by(Wake::SlotFreed), 2);
        q.wake_task(TaskId(12), Wake::AssignmentEnded);
        assert_eq!(drain(&mut q, |_| false), vec![c]);
        q.wake_source(5, Wake::SlotFreed);
        assert_eq!(drain(&mut q, |_| true), vec![b]);
        // A source's list may still name a removed entry: skipped.
        let d = wait(4, 3, 13);
        q.push(d, [7]);
        q.wake_file(FileId(4), Wake::InputArrived);
        assert_eq!(drain(&mut q, |_| false), vec![d]);
        q.wake_source(7, Wake::SlotFreed);
        assert!(drain(&mut q, |_| true).is_empty());
        assert_eq!(q.woken_by(Wake::SlotFreed), 3);
        assert_eq!(q.unwoken().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(q.visits(), 6);
    }

    #[test]
    fn peer_waits_defer_an_entry_woken_behind_the_cursor() {
        let mut q = PeerWaits::new();
        let (a, b) = (wait(1, 1, 10), wait(2, 1, 11));
        q.push(a, [0]);
        q.push(b, [0]);
        q.wake_all(Wake::WorkerKilled);
        q.begin_drain();
        let (sa, got) = q.next_woken().unwrap_or((0, b));
        assert_eq!(got, a);
        q.stay(sa, []);
        // Serving `b` wakes `a`, which the cursor has passed.
        let (sb, got) = q.next_woken().unwrap_or((0, a));
        assert_eq!(got, b);
        q.wake_file(FileId(1), Wake::FlowStarted);
        q.remove(sb);
        assert_eq!(q.next_woken(), None, "a waits for the next drain");
        q.end_drain();
        assert_eq!(drain(&mut q, |_| true), vec![a]);
    }

    #[test]
    fn peer_waits_skip_entries_pushed_after_the_drain_began() {
        let mut q = PeerWaits::new();
        let (a, b) = (wait(1, 1, 10), wait(1, 2, 11));
        q.push(a, [0]);
        q.wake_all(Wake::WorkerKilled);
        q.begin_drain();
        assert!(q.draining());
        let seq = q.push(b, [0]);
        q.wake(seq, Wake::CorruptResident);
        let visited: Vec<PeerWait> =
            std::iter::from_fn(|| q.next_woken().map(|(_, pw)| pw)).collect();
        assert_eq!(visited, vec![a], "b lies past the drain's end");
        q.end_drain();
        assert_eq!(drain(&mut q, |_| true), vec![b]);
    }

    #[test]
    fn load_index_walks_in_load_order() {
        let mut idx = LoadIndex::new(4);
        for (w, busy) in [(0, 6), (1, 2), (2, 12), (3, 2)] {
            idx.set(w, Some(worker_load(busy, 12)));
        }
        assert_eq!(idx.pick(|_| true), Some(1));
        assert_eq!(idx.pick(|w| w != 1), Some(3));
        assert_eq!(idx.pick_with_free_core(|w| w == 2), None, "full");
        assert_eq!(idx.pick(|w| w == 2), Some(2));
        idx.set(1, None);
        assert_eq!(idx.pick(|_| true), Some(3));
        assert_eq!(worker_load(1, 0), u32::MAX);
        assert!(idx.walked() > 0);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(3, |_| true), Some(0));
        assert_eq!(rr.pick(3, |_| true), Some(1));
        assert_eq!(rr.pick(3, |_| true), Some(2));
        assert_eq!(rr.pick(3, |_| true), Some(0));
    }

    #[test]
    fn round_robin_skips_ineligible() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(4, |w| w % 2 == 1), Some(1));
        assert_eq!(rr.pick(4, |w| w % 2 == 1), Some(3));
        assert_eq!(rr.pick(4, |w| w % 2 == 1), Some(1));
    }

    #[test]
    fn round_robin_none_when_all_busy() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(5, |_| false), None);
        assert_eq!(rr.pick(0, |_| true), None);
    }

    #[test]
    fn data_aware_prefers_most_bytes() {
        let locality = [(2, 100), (0, 500), (1, 300)];
        assert_eq!(data_aware_pick(&locality, |_| true, 0..3), Some(0));
    }

    #[test]
    fn data_aware_skips_busy_holders() {
        let locality = [(0, 500), (1, 300)];
        assert_eq!(data_aware_pick(&locality, |w| w != 0, 0..3), Some(1));
    }

    #[test]
    fn data_aware_falls_back_in_order() {
        let locality = [(0, 0), (1, 0)];
        assert_eq!(data_aware_pick(&locality, |w| w >= 2, 0..4), Some(2));
    }

    #[test]
    fn data_aware_tie_breaks_on_index() {
        let locality = [(3, 100), (1, 100)];
        assert_eq!(data_aware_pick(&locality, |_| true, 0..4), Some(1));
    }

    #[test]
    fn data_aware_none_when_nothing_eligible() {
        let locality = [(0, 10)];
        assert_eq!(
            data_aware_pick(&locality, |_| false, std::iter::empty()),
            None
        );
    }
}
