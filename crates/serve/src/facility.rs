//! One facility shard: persistent worker caches, admission control,
//! quotas, and the shared-store consult.
//!
//! A `Shard` is the per-shard state machine of a
//! [`ShardedFacility`](crate::ShardedFacility), which owns the event loop
//! and is the only serving type (a single facility is the one-shard
//! case). A shard owns its clock, the per-tenant submission queues, and
//! one [`LocalCache`] per cluster worker that survives between runs.
//! Each admitted submission gets an exclusive slice of `workers_per_run`
//! workers; the slice's caches are checked out into a [`SessionState`],
//! the inner engine run executes (its own full DES), and the post-run
//! caches are written back **only when the shard clock reaches the run's
//! completion** — an earlier-finishing or later-admitted run can never
//! observe outputs of a run that is still logically in flight.
//!
//! Admission (on every state change) is weighted fair-share with quotas:
//! among tenants with queued work whose in-flight core quota has room,
//! the stride scheduler's minimum-virtual-time tenant is admitted onto
//! the free workers whose resident caches overlap the submission's
//! cachenames the most. Resident-byte quotas are enforced after each
//! writeback by evicting the owning tenant's entries in deterministic
//! (sorted cachename) order.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;

use vine_analysis::ConvergenceObserver;
use vine_cluster::ClusterSpec;
use vine_core::{
    graph_cachenames, graph_file_cachename, EngineConfig, FaultPlan, RecoveryPolicy, RunObserver,
    RunRequest, RunStats, SessionState,
};
use vine_dag::{FileId, MemoPlan, TaskGraph};
use vine_lint::FacilityFacts;
use vine_simcore::{RngHub, SimDur, SimTime};
use vine_storage::{CacheEntryKind, CacheName, LocalCache};
use vine_store::ObjectStore;

use crate::report::FacilityReport;
use crate::resultstore::ResultStore;
use crate::tenant::{FairShare, TenantSpec};

/// Everything a facility needs to start serving.
#[derive(Clone, Debug)]
pub struct FacilityConfig {
    /// The shared cluster.
    pub cluster: ClusterSpec,
    /// The analysis groups, in fixed order (tenant indices refer here).
    pub tenants: Vec<TenantSpec>,
    /// Workers each admitted run receives, exclusively, for its duration.
    pub workers_per_run: usize,
    /// Table I stack for the inner engine runs (3 or 4 for warm caches;
    /// 1–2 retain nothing and every run is cold).
    pub stack: usize,
    /// Master seed: inner run seeds and load-generator draws derive from
    /// it. Identical seeds ⇒ identical admission sequences and reports.
    pub seed: u64,
    /// Fault plan injected into every inner run (chaos-testing the
    /// facility end to end). [`FaultPlan::none`] injects nothing.
    pub chaos: FaultPlan,
    /// Recovery policy for the inner runs.
    pub recovery: RecoveryPolicy,
}

impl FacilityConfig {
    /// A small demonstration facility: 8 standard workers, two tenants
    /// ("atlas" at weight 2, "cms" at weight 1), 4 workers per run,
    /// stack 3.
    pub fn demo(seed: u64) -> Self {
        let cluster = ClusterSpec::standard(8);
        let half_cores = cluster.total_cores() / 2;
        let disk = cluster.worker.disk_bytes * cluster.workers as u64;
        FacilityConfig {
            cluster,
            tenants: vec![
                TenantSpec::new("atlas", 2.0)
                    .with_core_quota(half_cores)
                    .with_byte_quota(disk / 2),
                TenantSpec::new("cms", 1.0)
                    .with_core_quota(half_cores)
                    .with_byte_quota(disk / 2),
            ],
            workers_per_run: 4,
            stack: 3,
            seed,
            chaos: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Cores an admitted run occupies.
    pub fn run_cores(&self) -> u64 {
        self.workers_per_run as u64 * u64::from(self.cluster.worker.cores)
    }

    /// The snapshot [`vine_lint::lint_facility`] reads.
    pub fn lint_facts(&self) -> FacilityFacts {
        FacilityFacts {
            workers: self.cluster.workers,
            cores_per_worker: self.cluster.worker.cores,
            disk_per_worker: self.cluster.worker.disk_bytes,
            workers_per_run: self.workers_per_run,
            tenants: self.tenants.iter().map(TenantSpec::lint_facts).collect(),
        }
    }
}

/// One graph submitted by one tenant.
#[derive(Clone, Debug)]
pub struct Submission {
    /// Index into [`FacilityConfig::tenants`].
    pub tenant: usize,
    /// The work.
    pub graph: TaskGraph,
    /// Within-tenant ordering: higher runs first (arrival breaks ties).
    pub priority: i32,
    /// Facility-clock arrival time.
    pub arrival: SimTime,
    /// Display label for records and metrics.
    pub label: String,
    /// Convergence threshold for streaming runs: the fraction of the
    /// full run's statistical precision at which the run may stop early
    /// (see [`vine_analysis::ConvergenceObserver`]). `None` runs to
    /// completion without streaming; `Some(1.0)` streams partials but
    /// never stops early.
    pub stream_threshold: Option<f64>,
}

/// What happened to one submission, start to finish.
#[derive(Clone, Debug)]
pub struct SubmissionRecord {
    /// Global submission sequence number (ingest order).
    pub seq: usize,
    /// Tenant index.
    pub tenant: usize,
    /// Submission label.
    pub label: String,
    /// When it arrived.
    pub arrival: SimTime,
    /// When it was admitted.
    pub admitted: SimTime,
    /// When its run completed (facility clock).
    pub finished: SimTime,
    /// Workers it ran on, in selection order (best cache overlap first).
    pub workers: Vec<usize>,
    /// Bytes of already-resident intermediates its worker slice offered.
    pub overlap_bytes: u64,
    /// Inner run statistics.
    pub stats: RunStats,
    /// Inner run makespan.
    pub makespan: SimDur,
    /// Whether the inner run completed.
    pub completed: bool,
    /// Whether the inner run finished degraded (some tasks quarantined
    /// by the recovery policy under injected faults).
    pub degraded: bool,
    /// Fraction-complete at which the run's observer stopped it, for
    /// streaming submissions that converged early (1.0 = ran to the
    /// end; `None` = not a streaming run).
    pub stream_stopped_at: Option<f64>,
    /// Content digest (FNV-1a) of the streamed partial-result estimate,
    /// for streaming submissions. Matches the engine digest's
    /// `stream_partial_digest` counter.
    pub stream_digest: Option<u64>,
    /// Live partial entries this run published into the
    /// [`ResultStore`].
    pub partials_published: usize,
    /// Files pre-fetched out of the shared object tier before the run
    /// (federated facilities only; zero when no tier is attached).
    pub store_fetched_files: usize,
    /// Bytes of those pre-fetches.
    pub store_fetch_bytes: u64,
    /// Simulated transfer time charged for the pre-fetch, added to the
    /// run's facility-clock duration.
    pub store_fetch: SimDur,
}

impl SubmissionRecord {
    /// Time spent queued before admission.
    pub fn queue_wait(&self) -> SimDur {
        self.admitted.saturating_since(self.arrival)
    }

    /// Fraction of the graph's tasks satisfied from warm caches.
    pub fn warm_hit_ratio(&self) -> f64 {
        if self.stats.tasks_total == 0 {
            0.0
        } else {
            self.stats.memoized_tasks as f64 / self.stats.tasks_total as f64
        }
    }
}

/// One queued submission; crate-visible so the federation layer can move
/// it between shards when work stealing.
pub(crate) struct Queued {
    pub(crate) seq: usize,
    pub(crate) priority: i32,
    pub(crate) arrival: SimTime,
    pub(crate) graph: TaskGraph,
    pub(crate) label: String,
    pub(crate) stream_threshold: Option<f64>,
}

struct ActiveRun {
    record: SubmissionRecord,
    /// Post-run caches, held back until `record.finished`.
    caches: Vec<LocalCache>,
    /// Shared-tier entries pinned for this run's duration.
    pinned: Vec<CacheName>,
}

/// Caller-supplied streaming hooks for an externally driven (standing)
/// admission: the observer receives every partition delta, and the
/// recorder — when present — the inner run's full span/metric stream.
pub(crate) struct ExternalHooks<'o, 'r> {
    pub(crate) observer: &'o mut dyn RunObserver,
    pub(crate) recorder: Option<&'r mut dyn vine_obs::Recorder>,
}

/// The cachename a graph's final answer lives under: its first produced
/// file that no task consumes. `None` for graphs with no produced sink
/// (degenerate; lint G004 flags them).
pub fn graph_result_name(graph: &TaskGraph) -> Option<CacheName> {
    let consumed: BTreeSet<u32> = graph
        .tasks()
        .iter()
        .flat_map(|t| t.inputs.iter().map(|f| f.0))
        .collect();
    graph
        .files()
        .iter()
        .enumerate()
        .find(|(i, f)| f.producer.is_some() && !consumed.contains(&(*i as u32)))
        .map(|(i, _)| graph_file_cachename(graph, FileId(i as u32)))
}

/// One name of a [`Shard::residency`] snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Resident {
    name: CacheName,
    /// The largest resident copy's size.
    size: u64,
    /// Whether a worker of the slice being written back holds a copy.
    on_slice: bool,
}

/// Bytes of `wanted` (sorted by name; a repeated name counts each time)
/// that `cache` holds at exactly the wanted size.
fn overlap_bytes(wanted: &[(CacheName, u64)], cache: &LocalCache) -> u64 {
    let mut bytes = 0;
    cache.for_each_held(
        wanted,
        |&(name, _)| name,
        |&(_, want), size| {
            if size == want {
                bytes += size;
            }
        },
    );
    bytes
}

/// One facility shard. See the module docs for the model.
pub(crate) struct Shard {
    cfg: FacilityConfig,
    /// Per-worker persistent caches; a zero-capacity placeholder while a
    /// worker's cache is checked out into a running session.
    caches: Vec<LocalCache>,
    busy: Vec<bool>,
    share: FairShare,
    queues: Vec<VecDeque<Queued>>,
    /// Admission candidates: `(vtime, tenant)` for every tenant with
    /// queued work whose core quota has room. Kept in lockstep with
    /// `queues`/`inflight_cores` so admission is O(log tenants) instead
    /// of a full scan — load-bearing at federation scale (10⁵ tenants).
    ready: BTreeSet<(u64, usize)>,
    /// Tenants with queued work blocked on their in-flight core quota;
    /// they re-enter `ready` when a writeback frees cores.
    quota_blocked: BTreeSet<usize>,
    inflight_cores: Vec<u64>,
    /// Which tenant first materialized each resident cachename, sorted by
    /// name so a writeback re-derives it in one merge with the residency.
    owner: Vec<(CacheName, usize)>,
    /// Staged `(seq, submission)` pairs, sorted by (arrival, seq)
    /// descending; pop from the back.
    pending: Vec<(usize, Submission)>,
    active: Vec<ActiveRun>,
    records: Vec<SubmissionRecord>,
    now: SimTime,
    next_seq: usize,
    peak_inflight_cores: u64,
    /// Physics results across runs: final blobs plus the live partial
    /// entries streaming runs publish (keyed by cachename + fraction).
    pub(crate) results: ResultStore,
    /// The federation's shared object tier, if it has one.
    store: Option<Rc<RefCell<ObjectStore>>>,
    /// This shard's index: its slot in the tier's accounting and its
    /// first seq.
    index: usize,
    /// Seqs advance by the shard count, so they stay globally unique
    /// across the federation and inner run seeds — derived from the seq —
    /// are stable under work stealing.
    seq_stride: usize,
}

impl Shard {
    /// Shard `index` of a `count`-shard federation over `store`. The
    /// federation has already run the pre-flight lints.
    pub(crate) fn new(
        cfg: FacilityConfig,
        store: Option<Rc<RefCell<ObjectStore>>>,
        index: usize,
        count: usize,
    ) -> Self {
        assert!(index < count, "shard numbering out of range");
        let n = cfg.tenants.len();
        let weights = cfg.tenants.iter().map(|t| t.weight).collect();
        Shard {
            caches: (0..cfg.cluster.workers)
                .map(|_| LocalCache::new(cfg.cluster.worker.disk_bytes))
                .collect(),
            busy: vec![false; cfg.cluster.workers],
            share: FairShare::new(weights),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            ready: BTreeSet::new(),
            quota_blocked: BTreeSet::new(),
            inflight_cores: vec![0; n],
            owner: Vec::new(),
            pending: Vec::new(),
            active: Vec::new(),
            records: Vec::new(),
            now: SimTime::ZERO,
            next_seq: index,
            peak_inflight_cores: 0,
            cfg,
            results: ResultStore::new(),
            store,
            index,
            seq_stride: count,
        }
    }

    /// The shard clock.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The seq the next staged or standing submission receives.
    pub(crate) fn next_seq(&self) -> usize {
        self.next_seq
    }

    /// Swap the fault plan and recovery policy injected into subsequent
    /// inner runs; runs already in flight keep the plan they started
    /// with.
    pub(crate) fn set_chaos(&mut self, chaos: FaultPlan, recovery: RecoveryPolicy) {
        self.cfg.chaos = chaos;
        self.cfg.recovery = recovery;
    }

    /// Unique resident bytes currently attributed to `tenant`.
    #[cfg(test)]
    fn tenant_resident_bytes(&self, tenant: usize) -> u64 {
        self.owned_bytes(tenant, &self.residency(&[]))
    }

    /// Bytes of `tenant`'s owned names, sized by `residency`: one merge
    /// of the two name-ordered lists.
    fn owned_bytes(&self, tenant: usize, residency: &[Resident]) -> u64 {
        let mut res = residency.iter().peekable();
        let mut bytes = 0;
        for &(name, owner) in &self.owner {
            while res.next_if(|r| r.name < name).is_some() {}
            match res.peek() {
                Some(r) if r.name == name && owner == tenant => bytes += r.size,
                Some(_) => {}
                None => break,
            }
        }
        bytes
    }

    /// Every name resident in a checked-in cache, its largest copy's
    /// size, and whether a `slice` worker holds it, sorted by name: a
    /// k-way merge of the caches' name-ordered iterations. Checked-out
    /// workers hold empty placeholders, so they contribute nothing.
    fn residency(&self, slice: &[usize]) -> Vec<Resident> {
        let mut out: Vec<Resident> = Vec::new();
        let mut iters: Vec<_> = self.caches.iter().map(LocalCache::iter).collect();
        let mut heads: BinaryHeap<Reverse<(CacheName, usize, u64)>> = iters
            .iter_mut()
            .enumerate()
            .filter_map(|(w, it)| it.next().map(|(n, s, _)| Reverse((n, w, s))))
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((name, w, size)) = *head;
            let on_slice = slice.contains(&w);
            match out.last_mut() {
                Some(r) if r.name == name => {
                    r.size = r.size.max(size);
                    r.on_slice |= on_slice;
                }
                _ => out.push(Resident {
                    name,
                    size,
                    on_slice,
                }),
            }
            match iters[w].next() {
                Some((n, s, _)) => *head = Reverse((n, w, s)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        out
    }

    /// Re-derive `owner` against `residency` in one merge: a name
    /// resident nowhere loses its owner, and a name first materialized by
    /// `tenant`'s run on `residency`'s slice gains `tenant`. Kept entries
    /// stay in place; the new ones, usually few, merge in from the back.
    fn reown(&mut self, tenant: usize, residency: &[Resident]) {
        let mut fresh: Vec<(CacheName, usize)> = Vec::new();
        let mut res = residency.iter().peekable();
        self.owner.retain(|&(name, _)| {
            while let Some(r) = res.next_if(|r| r.name < name) {
                if r.on_slice {
                    fresh.push((r.name, tenant));
                }
            }
            res.next_if(|r| r.name == name).is_some()
        });
        fresh.extend(res.filter(|r| r.on_slice).map(|r| (r.name, tenant)));
        let mut kept = self.owner.len();
        self.owner.extend_from_slice(&fresh);
        let mut at = self.owner.len();
        while let Some(&new) = fresh.last() {
            at -= 1;
            if kept > 0 && self.owner[kept - 1].0 > new.0 {
                kept -= 1;
                self.owner[at] = self.owner[kept];
            } else {
                self.owner[at] = new;
                fresh.pop();
            }
        }
    }

    /// Stage submissions for the event loop. Seqs are assigned in the
    /// order given; arrivals may be in any time order.
    pub(crate) fn ingest(&mut self, subs: Vec<Submission>) {
        for s in subs {
            assert!(s.tenant < self.cfg.tenants.len(), "unknown tenant");
            self.pending.push((self.next_seq, s));
            self.next_seq += self.seq_stride;
        }
        // Pop-from-back order: latest arrival first in the vector.
        self.pending
            .sort_by_key(|(seq, s)| std::cmp::Reverse((s.arrival, *seq)));
    }

    /// Advance the shard clock to `t` (monotone) and settle every event
    /// due: completions, then arrivals, then admissions — repeated until
    /// quiescent (a warm run can finish in ~zero time, re-enabling
    /// completions at the same instant).
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        loop {
            self.complete_due();
            self.arrive_due();
            if self.admit_all() == 0 {
                break;
            }
        }
    }

    /// The earliest future event — run completion or staged arrival —
    /// or `None` when the shard is fully drained.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        let next_arrival = self.pending.last().map(|(_, s)| s.arrival);
        self.active
            .iter()
            .map(|r| r.record.finished)
            .chain(next_arrival)
            .min()
    }

    /// The completed record of submission `seq`, if it has finished here.
    pub(crate) fn record(&self, seq: usize) -> Option<&SubmissionRecord> {
        self.records.iter().find(|r| r.seq == seq)
    }

    /// Whether a standing run for `tenant` could be admitted right now: a
    /// free slice and room under the tenant's core quota.
    pub(crate) fn can_admit_standing(&self, tenant: usize) -> bool {
        self.free_workers() >= self.cfg.workers_per_run && self.tenant_has_quota_room(tenant)
    }

    /// Admit a standing (reactive) run now, bypassing the queue: every
    /// partition delta streams into the caller's hooks instead of a
    /// shard-owned convergence loop. The run is charged against
    /// `tenant`'s fair share and core quota exactly like a queued
    /// admission. Requires [`can_admit_standing`](Self::can_admit_standing);
    /// returns the run's seq.
    pub(crate) fn admit_standing(
        &mut self,
        tenant: usize,
        graph: TaskGraph,
        label: &str,
        hooks: ExternalHooks,
    ) -> usize {
        assert!(tenant < self.cfg.tenants.len(), "unknown tenant");
        let seq = self.next_seq;
        self.next_seq += self.seq_stride;
        // Charge the refresh against the owning tenant: remove its (stale
        // after the charge) ready entry first, exactly as admit_all does.
        self.ready.remove(&(self.share.vtime(tenant), tenant));
        self.share.activate(tenant);
        self.share.charge(tenant, self.cfg.run_cores());
        let free: Vec<usize> = (0..self.busy.len()).filter(|&w| !self.busy[w]).collect();
        self.admit(
            tenant,
            Queued {
                seq,
                priority: 0,
                arrival: self.now,
                graph,
                label: label.to_string(),
                stream_threshold: None,
            },
            &free,
            Some(hooks),
        );
        self.mark_admissible(tenant);
        seq
    }

    /// The report so far (records in seq order).
    pub(crate) fn report(&self) -> FacilityReport {
        let mut records = self.records.clone();
        records.sort_by_key(|r| r.seq);
        FacilityReport {
            tenants: self.cfg.tenants.iter().map(|t| t.name.clone()).collect(),
            records,
            total_cores: u64::from(self.cfg.cluster.total_cores()),
            peak_inflight_cores: self.peak_inflight_cores,
            resident_bytes: self.caches.iter().map(|c| c.used()).sum(),
        }
    }

    // ------------------------------------------------------------------
    // Event processing
    // ------------------------------------------------------------------

    fn complete_due(&mut self) {
        loop {
            // Earliest (finished, seq) due run, one at a time.
            let idx = self
                .active
                .iter()
                .enumerate()
                .filter(|(_, r)| r.record.finished <= self.now)
                .min_by_key(|(_, r)| (r.record.finished, r.record.seq))
                .map(|(i, _)| i);
            let Some(i) = idx else { break };
            let run = self.active.swap_remove(i);
            self.writeback(run);
        }
    }

    fn writeback(&mut self, run: ActiveRun) {
        let tenant = run.record.tenant;
        for (&w, cache) in run.record.workers.iter().zip(run.caches) {
            self.caches[w] = cache;
            self.busy[w] = false;
        }
        self.inflight_cores[tenant] -= self.cfg.run_cores();
        // Cores freed: the tenant (if quota-blocked with queued work)
        // may be admissible again.
        if self.quota_blocked.contains(&tenant) && self.tenant_has_quota_room(tenant) {
            self.quota_blocked.remove(&tenant);
            self.ready.insert((self.share.vtime(tenant), tenant));
        }
        // Publish the run's intermediates into the shared tier (inputs
        // are externally re-readable, not store material) and release
        // the pins its pre-fetch took.
        if let Some(store) = &self.store {
            let mut tier = store.borrow_mut();
            for &name in &run.pinned {
                tier.unpin(name);
            }
            for &w in &run.record.workers {
                for (name, size, kind) in self.caches[w].iter() {
                    if kind == CacheEntryKind::Intermediate {
                        let _ = tier.put(self.index, name, size);
                    }
                }
            }
        }
        // Newly resident entries belong to the first tenant that
        // materialized them; entries that vanished everywhere (evicted
        // inside runs) drop off the ownership list.
        let residency = self.residency(&run.record.workers);
        self.reown(tenant, &residency);
        self.enforce_byte_quota(tenant, &residency);
        self.records.push(run.record);
    }

    /// Evict `tenant`-owned entries (sorted cachename order — oldest
    /// names are not privileged, but the order is reproducible) until
    /// the tenant is back under its resident-byte quota. `residency` is
    /// the writeback's snapshot; it stays exact through the loop, since
    /// removing one name leaves every other name's largest copy as is.
    fn enforce_byte_quota(&mut self, tenant: usize, residency: &[Resident]) {
        let quota = self.cfg.tenants[tenant].max_resident_bytes;
        let mut usage = self.owned_bytes(tenant, residency);
        if usage <= quota {
            return;
        }
        // `reown` just ran, so every owned name is in `residency`.
        let mut res = residency.iter();
        let mut evict: Vec<CacheName> = Vec::new();
        for &(name, owner) in &self.owner {
            if usage <= quota {
                break;
            }
            if owner != tenant {
                continue;
            }
            let Some(r) = res.find(|r| r.name == name) else {
                break;
            };
            evict.push(name);
            usage -= r.size.min(usage);
        }
        for c in &mut self.caches {
            c.clear_pins();
            for &name in &evict {
                let _ = c.remove(name);
            }
        }
        self.owner.retain(|(n, _)| evict.binary_search(n).is_err());
    }

    fn arrive_due(&mut self) {
        while self
            .pending
            .last()
            .is_some_and(|(_, s)| s.arrival <= self.now)
        {
            let (seq, s) = self.pending.pop().expect("checked non-empty");
            let tenant = s.tenant;
            self.enqueue(
                tenant,
                Queued {
                    seq,
                    priority: s.priority,
                    arrival: s.arrival,
                    graph: s.graph,
                    label: s.label,
                    stream_threshold: s.stream_threshold,
                },
            );
        }
    }

    /// Queue one submission for `tenant` (arrival or stolen work) and
    /// refresh its admission bookkeeping.
    fn enqueue(&mut self, tenant: usize, q: Queued) {
        let queue = &mut self.queues[tenant];
        if queue.is_empty() {
            self.share.activate(tenant);
        }
        // Insert keeping (descending priority, arrival, seq) order.
        let key = |e: &Queued| (Reverse(e.priority), e.arrival, e.seq);
        let pos = queue
            .iter()
            .position(|e| key(e) > key(&q))
            .unwrap_or(queue.len());
        queue.insert(pos, q);
        self.mark_admissible(tenant);
    }

    fn tenant_has_quota_room(&self, t: usize) -> bool {
        self.inflight_cores[t] + self.cfg.run_cores()
            <= u64::from(self.cfg.tenants[t].max_inflight_cores)
    }

    /// Re-derive which admission set the tenant belongs in. Idempotent;
    /// call after any change to its queue, vtime, or in-flight cores.
    fn mark_admissible(&mut self, t: usize) {
        if self.queues[t].is_empty() {
            self.ready.remove(&(self.share.vtime(t), t));
            self.quota_blocked.remove(&t);
            return;
        }
        if self.tenant_has_quota_room(t) {
            self.quota_blocked.remove(&t);
            self.ready.insert((self.share.vtime(t), t));
        } else {
            self.quota_blocked.insert(t);
        }
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    fn admit_all(&mut self) -> usize {
        let mut admitted = 0;
        loop {
            let free: Vec<usize> = (0..self.busy.len()).filter(|&w| !self.busy[w]).collect();
            if free.len() < self.cfg.workers_per_run {
                break;
            }
            // The ready set's head is exactly `share.pick` over eligible
            // tenants: min (vtime, index), entries kept fresh at every
            // vtime/queue/quota change.
            let Some(&(vt, t)) = self.ready.iter().next() else {
                break;
            };
            debug_assert_eq!(vt, self.share.vtime(t), "stale ready-set vtime");
            self.ready.remove(&(vt, t));
            let q = self.queues[t].pop_front().expect("ready ⇒ non-empty");
            self.share.charge(t, self.cfg.run_cores());
            self.admit(t, q, &free, None);
            admitted += 1;
            self.mark_admissible(t);
        }
        admitted
    }

    fn admit(&mut self, tenant: usize, q: Queued, free: &[usize], hooks: Option<ExternalHooks>) {
        // Every file's cachename, derived once: the slice scorer and the
        // store consult read the produced files', and the engine takes
        // the whole slab with the request.
        let cachenames = graph_cachenames(&q.graph);
        let names: Vec<Option<(CacheName, u64)>> = q
            .graph
            .files()
            .iter()
            .zip(&cachenames)
            .map(|(f, &n)| f.producer.map(|_| (n, f.size_hint)))
            .collect();
        // Cache-aware slice selection: prefer free workers already
        // holding this graph's intermediates (exact name *and* size).
        let mut wanted: Vec<(CacheName, u64)> = names.iter().flatten().copied().collect();
        wanted.sort_unstable();
        let mut scored: Vec<(u64, usize)> = free
            .iter()
            .map(|&w| (overlap_bytes(&wanted, &self.caches[w]), w))
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(self.cfg.workers_per_run);
        let overlap_bytes: u64 = scored.iter().map(|&(s, _)| s).sum();
        let slice: Vec<usize> = scored.iter().map(|&(_, w)| w).collect();

        let mut run_caches: Vec<LocalCache> = slice
            .iter()
            .map(|&w| {
                self.busy[w] = true;
                std::mem::replace(&mut self.caches[w], LocalCache::new(0))
            })
            .collect();

        // Consult the shared tier before recompute: anything the run
        // needs that is warm in the store but cold on this slice is
        // pre-fetched into the roomiest slice cache, pinned in the tier
        // for the run's duration, and charged one batched transfer at
        // the tier's simulated bandwidth.
        let mut store_fetched_files = 0usize;
        let mut store_fetch_bytes = 0u64;
        let mut store_fetch = SimDur::ZERO;
        let mut pinned: Vec<CacheName> = Vec::new();
        if let Some(store) = &self.store {
            let mut tier = store.borrow_mut();
            let shard = self.index;
            let plan = {
                let tier = &mut *tier;
                let caches = &run_caches;
                MemoPlan::compute_with_store(
                    &q.graph,
                    |f| {
                        names[f.0 as usize]
                            .is_some_and(|(n, s)| caches.iter().any(|c| c.size_of(n) == Some(s)))
                    },
                    |f| names[f.0 as usize].is_some_and(|(n, s)| tier.lookup(shard, n, s)),
                )
            };
            for &f in &plan.store_fetches {
                let (name, size) = names[f.0 as usize].expect("fetch set ⇒ produced file");
                // Roomiest cache first (ties → lowest index); a file no
                // slice cache can hold without eviction is simply not
                // fetched — its producer re-runs, which is always safe.
                let target = (0..run_caches.len())
                    .max_by_key(|&i| {
                        let c = &run_caches[i];
                        (c.capacity() - c.used(), std::cmp::Reverse(i))
                    })
                    .expect("slice is non-empty");
                let c = &mut run_caches[target];
                if c.capacity() - c.used() < size {
                    continue;
                }
                if c.insert(name, size, CacheEntryKind::Intermediate).is_ok() && tier.pin(name) {
                    pinned.push(name);
                    store_fetched_files += 1;
                    store_fetch_bytes += size;
                }
            }
            store_fetch = tier.fetch_cost(shard, store_fetch_bytes);
        }
        let mut session = SessionState::from_caches(run_caches);

        let inner_cluster = ClusterSpec {
            workers: self.cfg.workers_per_run,
            worker: self.cfg.cluster.worker,
            manager_link_bw: self.cfg.cluster.manager_link_bw,
        };
        let seed = RngHub::new(self.cfg.seed).stream_seed(&format!("run.{}", q.seq));
        // Inner runs start every worker at once and lose none but the
        // facility's own fault plan names, so their makespans are pure.
        let ecfg = EngineConfig::stack(self.cfg.stack, inner_cluster, seed)
            .deterministic()
            .with_chaos(self.cfg.chaos.clone())
            .with_recovery(self.cfg.recovery);

        // The cachename the run's final answer lives under: the produced
        // file nothing consumes. Live partial entries are keyed by it.
        let result_name = q.stream_threshold.and_then(|_| graph_result_name(&q.graph));

        let request = RunRequest::new(ecfg, q.graph)
            .cachenames(cachenames)
            .session(&mut session);
        let (result, stream_stopped_at, stream_digest, partials_published) =
            match (hooks, q.stream_threshold) {
                (Some(h), _) => {
                    // Externally driven (standing) admission: the caller's
                    // observer folds every partition delta itself, and the
                    // caller decides what to publish, so no convergence
                    // logic or partial publication happens here.
                    let mut request = request.observer(h.observer);
                    if let Some(rec) = h.recorder {
                        request = request.recorder(rec);
                    }
                    (request.run(), None, None, 0)
                }
                (None, Some(threshold)) => {
                    let mut obs = ConvergenceObserver::new(threshold);
                    let result = request.observer(&mut obs).run();
                    let mut published = 0;
                    if let Some(name) = result_name {
                        for s in obs.snapshots() {
                            self.results
                                .put_partial(name, s.milli_fraction, s.payload.clone());
                            published += 1;
                        }
                    }
                    let stopped_at = obs.stopped_at().unwrap_or(1.0);
                    let digest = obs.accumulator().digest();
                    (result, Some(stopped_at), Some(digest), published)
                }
                (None, None) => (request.run(), None, None, 0),
            };

        self.inflight_cores[tenant] += self.cfg.run_cores();
        let inflight: u64 = self.inflight_cores.iter().sum();
        self.peak_inflight_cores = self.peak_inflight_cores.max(inflight);

        self.active.push(ActiveRun {
            record: SubmissionRecord {
                seq: q.seq,
                tenant,
                label: q.label,
                arrival: q.arrival,
                admitted: self.now,
                finished: self.now + store_fetch + result.makespan,
                workers: slice,
                overlap_bytes,
                stats: result.stats,
                makespan: result.makespan,
                completed: matches!(result.outcome, vine_core::RunOutcome::Completed),
                degraded: matches!(result.outcome, vine_core::RunOutcome::Degraded { .. }),
                stream_stopped_at,
                stream_digest,
                partials_published,
                store_fetched_files,
                store_fetch_bytes,
                store_fetch,
            },
            caches: session.into_caches(),
            pinned,
        });
    }

    // ------------------------------------------------------------------
    // Federation hooks (work stealing)
    // ------------------------------------------------------------------

    /// Whether any tenant could be admitted right now if workers freed
    /// up (quota-blocked work does not count — admitting it is illegal).
    pub(crate) fn has_admissible_work(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Workers not checked out to a run.
    pub(crate) fn free_workers(&self) -> usize {
        self.busy.iter().filter(|&&b| !b).count()
    }

    /// Cores `tenant` currently holds in flight on this shard.
    pub(crate) fn tenant_inflight_cores(&self, tenant: usize) -> u64 {
        self.inflight_cores[tenant]
    }

    /// The entry a thief shard would steal: the front of the most
    /// underserved admissible tenant's queue, as `(tenant, arrival,
    /// seq)`. O(log tenants) — reads the ready set's head.
    pub(crate) fn steal_candidate(&self) -> Option<(usize, SimTime, usize)> {
        let &(_, t) = self.ready.iter().next()?;
        let front = self.queues[t].front().expect("ready ⇒ non-empty");
        Some((t, front.arrival, front.seq))
    }

    /// Remove the current steal candidate for `tenant` (its queue
    /// front) so another shard can run it.
    pub(crate) fn take_steal(&mut self, tenant: usize) -> Option<Queued> {
        let q = self.queues[tenant].pop_front()?;
        self.mark_admissible(tenant);
        Some(q)
    }

    /// Accept work stolen from another shard: queue it under the same
    /// tenant and settle admissions at the current clock.
    pub(crate) fn accept_stolen(&mut self, tenant: usize, q: Queued) {
        self.enqueue(tenant, q);
        self.advance_to(self.now);
    }
}

#[cfg(test)]
mod tests;
