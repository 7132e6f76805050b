//! The facility: N `Shard`s advanced in lockstep over a shared clock,
//! optionally backed by one shared content-addressed object tier
//! ([`vine_store::ObjectStore`]). A single facility is the one-shard,
//! storeless case ([`ShardedConfig::single`]).
//!
//! ## Model
//!
//! A production HEP facility is not one manager over one worker pool; it
//! is several manager instances, each with its own pool, serving a common
//! tenant population. This module federates the per-shard state machine
//! in [`crate::facility`]:
//!
//! * **Routing** — each tenant has a home shard chosen by rendezvous
//!   (highest-random-weight) hashing over `(tenant name, shard index)`.
//!   Adding a shard reassigns only ~1/N of tenants, and the assignment
//!   is a pure function of the name — stable across runs, machines, and
//!   ingest order.
//! * **Lockstep advancement** — shards are discrete-event simulations
//!   with private clocks. The federation repeatedly settles every shard
//!   at the global clock (in shard-index order), then advances the
//!   global clock to the earliest next event across shards. Determinism
//!   follows by induction: each settle round's outcome depends only on
//!   shard states at the same global instant and the fixed iteration
//!   order, never on wall-clock interleaving. Batch drains, interactive
//!   submissions, and standing refreshes all run this one loop.
//! * **Shared warm tier** — every shard consults the [`ObjectStore`]
//!   during admission (a `MemoPlan` "warm-in-store" residency source):
//!   intermediates produced on shard A satisfy recompute on shard B at
//!   the cost of one simulated store→shard transfer, and every run's
//!   intermediates are published back on writeback.
//! * **Work stealing** — after each settle round, a shard with a free
//!   worker slice and no admissible queue of its own takes the most
//!   underserved admissible entry from the most backlogged competitor,
//!   gated by the tenant's aggregate (federation-wide) in-flight core
//!   quota, so stealing can never launder a quota violation across
//!   shards.

use std::cell::RefCell;
use std::rc::Rc;

use vine_core::{FaultPlan, RecoveryPolicy, RunObserver};
use vine_dag::TaskGraph;
use vine_lint::{lint_sharded, Report, ShardFacts};
use vine_obs::Recorder;
use vine_simcore::{fnv1a64, fnv1a64_extend, SimTime};
use vine_store::ObjectStore;

use crate::facility::{ExternalHooks, FacilityConfig, Shard, Submission, SubmissionRecord};
use crate::report::{percentile, FacilityReport};

/// Knobs for a facility of one or more shards.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// The per-shard facility template: every shard runs this config
    /// (cluster, tenants, stack, seed) over its own worker pool.
    pub base: FacilityConfig,
    /// Number of independent facility shards.
    pub shards: usize,
    /// The shared object tier's byte capacity; `None` leaves shards
    /// fully isolated (each still warm within itself, cold across
    /// shards).
    pub store: Option<u64>,
    /// Allow idle shards to steal queued work from backlogged ones.
    pub work_stealing: bool,
}

impl ShardedConfig {
    /// A single facility: one shard, no shared tier, no stealing.
    pub fn single(base: FacilityConfig) -> Self {
        ShardedConfig {
            base,
            shards: 1,
            store: None,
            work_stealing: false,
        }
    }

    /// A demonstration federation: the [`FacilityConfig::demo`] shard
    /// template, four shards, the demo store tier, stealing on.
    pub fn demo(seed: u64) -> Self {
        ShardedConfig {
            base: FacilityConfig::demo(seed),
            shards: 4,
            store: Some(vine_store::DEMO_CAPACITY),
            work_stealing: true,
        }
    }

    /// The snapshot [`vine_lint::lint_sharded`] reads.
    pub fn shard_facts(&self) -> ShardFacts {
        ShardFacts {
            shards: self.shards,
            store_enabled: self.store.is_some(),
            store_capacity_bytes: self.store.unwrap_or(0),
            work_stealing: self.work_stealing,
        }
    }
}

/// Avalanche finalizer (the 64-bit murmur3 fmix). FNV-1a barely mixes
/// trailing-byte differences — for `name ‖ shard` keys the shard index is
/// exactly the tail, so raw FNV scores are correlated across shards and
/// rendezvous loses its minimal-disruption bound (~2× the tenants moved
/// on shard growth). The finalizer restores full diffusion.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The rendezvous (highest-random-weight) home shard for a tenant name:
/// argmax over shards of `fmix64(fnv64(name ‖ shard))`. Ties break on
/// the lower shard index (collisions, vanishingly rare). Growing a
/// federation N → N+1 moves a ~1/(N+1) fraction of tenants, all of them
/// onto the new shard (property-tested in `tests/properties.rs`).
pub fn assign_shard(tenant_name: &str, shards: usize) -> usize {
    assert!(shards > 0, "federation needs at least one shard");
    let name_hash = fnv1a64(tenant_name.as_bytes());
    (0..shards)
        .max_by_key(|&s| {
            let h = fnv1a64_extend(name_hash, &(s as u64).to_le_bytes());
            (fmix64(h), std::cmp::Reverse(s))
        })
        .expect("non-empty shard range")
}

/// The outcome of a federated session: one report per shard plus the
/// tier's final accounting.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// Per-shard facility reports, in shard order.
    pub shards: Vec<FacilityReport>,
    /// The shared tier's metrics text export (sorted, byte-stable);
    /// empty string when no store was attached.
    pub store_metrics: String,
    /// Cross-shard steals executed.
    pub steals: u64,
}

impl ShardedReport {
    /// Completed submissions across all shards.
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Fraction of all submitted tasks satisfied from warm caches
    /// (local or store-prefetched), federation-wide.
    pub fn warm_hit_ratio(&self) -> f64 {
        let total: u64 = self
            .shards
            .iter()
            .flat_map(|s| &s.records)
            .map(|r| r.stats.tasks_total as u64)
            .sum();
        let memo: u64 = self
            .shards
            .iter()
            .flat_map(|s| &s.records)
            .map(|r| r.stats.memoized_tasks)
            .sum();
        if total == 0 {
            0.0
        } else {
            memo as f64 / total as f64
        }
    }

    /// The `q`-th percentile of queue wait across every record, seconds.
    pub fn queue_wait_percentile(&self, q: f64) -> f64 {
        let waits: Vec<f64> = self
            .shards
            .iter()
            .flat_map(|s| &s.records)
            .map(|r| r.queue_wait().as_secs_f64())
            .collect();
        percentile(&waits, q)
    }

    /// Bytes pre-fetched out of the shared tier, federation-wide.
    pub fn store_fetch_bytes(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.records)
            .map(|r| r.store_fetch_bytes)
            .sum()
    }

    /// When the last run finished anywhere, seconds.
    pub fn horizon_s(&self) -> f64 {
        self.shards
            .iter()
            .map(FacilityReport::horizon_s)
            .fold(0.0, f64::max)
    }

    /// The federation's full deterministic text form: every shard's CSV
    /// (prefixed with a shard header) followed by the tier metrics and
    /// the steal count. [`ShardedReport::digest`] hashes this.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!("# shard {i}\n"));
            out.push_str(&s.to_csv());
        }
        out.push_str("# store\n");
        out.push_str(&self.store_metrics);
        out.push_str(&format!("# steals {}\n", self.steals));
        out
    }

    /// FNV-1a content digest of [`ShardedReport::to_text`] — the replay
    /// identity the shard gate compares across runs.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_text().as_bytes())
    }
}

/// The serving facility: one or more shards in lockstep. See the module
/// docs for the model.
pub struct ShardedFacility {
    cfg: ShardedConfig,
    /// The shards, in index order.
    pub(crate) shards: Vec<Shard>,
    store: Option<Rc<RefCell<ObjectStore>>>,
    preflight: Report,
    steals: u64,
}

impl ShardedFacility {
    /// Build a facility, running the facility lints plus the sharding
    /// lints (F006–F008) against the combined configuration. A config
    /// with lint errors (no tenants, zero weights, impossible quotas or
    /// slices, no shards, a broken store) is refused and the report
    /// returned as `Err`.
    pub fn new(cfg: ShardedConfig) -> Result<Self, Report> {
        let preflight = lint_sharded(&cfg.base.lint_facts(), &cfg.shard_facts());
        if preflight.has_errors() {
            return Err(preflight);
        }
        let store = cfg
            .store
            .map(|capacity| Rc::new(RefCell::new(ObjectStore::new(capacity, cfg.shards))));
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(cfg.base.clone(), store.clone(), i, cfg.shards))
            .collect();
        Ok(ShardedFacility {
            cfg,
            shards,
            store,
            preflight,
            steals: 0,
        })
    }

    /// The combined pre-flight lint report (warnings survive even when
    /// clean enough to start).
    pub fn preflight(&self) -> &Report {
        &self.preflight
    }

    /// The shared tier, when configured.
    pub fn store(&self) -> Option<&Rc<RefCell<ObjectStore>>> {
        self.store.as_ref()
    }

    /// A tenant's home shard under this federation's routing.
    pub fn home_shard(&self, tenant: usize) -> usize {
        assign_shard(&self.cfg.base.tenants[tenant].name, self.cfg.shards)
    }

    /// Route submissions to their tenants' home shards. Relative order
    /// within a shard follows the input order (seqs are assigned per
    /// shard in stride, so they stay globally unique).
    pub fn ingest(&mut self, subs: Vec<Submission>) {
        let mut per_shard: Vec<Vec<Submission>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for s in subs {
            let home = self.home_shard(s.tenant);
            per_shard[home].push(s);
        }
        for (shard, batch) in self.shards.iter_mut().zip(per_shard) {
            shard.ingest(batch);
        }
    }

    /// Run the lockstep event loop until every shard is drained, then
    /// return the combined report. Completions are processed before
    /// arrivals at equal times; admission is retried after every state
    /// change.
    pub fn drain(&mut self) -> ShardedReport {
        self.run_until(|_| false);
        self.report()
    }

    /// Submit one graph for `tenant` at the current facility time and
    /// drain (the interactive, single-analyst path). Returns the
    /// submission's record.
    pub fn run_now(&mut self, tenant: usize, graph: TaskGraph, label: &str) -> SubmissionRecord {
        let home = self.home_shard(tenant);
        let seq = self.shards[home].next_seq();
        let arrival = self.now();
        self.shards[home].ingest(vec![Submission {
            tenant,
            graph,
            priority: 0,
            arrival,
            label: label.to_string(),
        }]);
        self.drain();
        self.record(seq)
            .expect("drained facility must have recorded the submission")
    }

    /// Run a standing (reactive) submission on `tenant`'s home shard
    /// right now: like [`run_now`](Self::run_now), but every partition
    /// delta streams into the caller's `observer` (and the inner run's
    /// span/metric stream into `recorder`, when given), so a reactive
    /// scheduler can fold refresh deltas into a persistent accumulator.
    /// The run needs an
    /// exclusive slice and quota room like any other, so the lockstep
    /// loop advances through queued work until the home shard has both;
    /// it is then charged against `tenant`'s fair share and core quota
    /// exactly like a queued admission, and the loop advances until it
    /// completes.
    pub fn run_standing(
        &mut self,
        tenant: usize,
        graph: TaskGraph,
        label: &str,
        observer: &mut dyn RunObserver,
        recorder: Option<&mut dyn Recorder>,
    ) -> SubmissionRecord {
        let home = self.home_shard(tenant);
        let room = self.run_until(|f| f.shards[home].can_admit_standing(tenant));
        assert!(
            room,
            "no future event can free a slice for the standing run"
        );
        let hooks = ExternalHooks { observer, recorder };
        let seq = self.shards[home].admit_standing(tenant, graph, label, hooks);
        let done = self.run_until(|f| f.record(seq).is_some());
        assert!(done, "admitted standing run must complete");
        self.record(seq).expect("checked above")
    }

    /// Swap the fault plan and recovery policy injected into
    /// *subsequent* inner runs on every shard — mid-timeline chaos for
    /// reactive sessions. Runs already in flight keep the plan they
    /// started with.
    pub fn inject_chaos(&mut self, chaos: FaultPlan, recovery: RecoveryPolicy) {
        for shard in &mut self.shards {
            shard.set_chaos(chaos.clone(), recovery);
        }
    }

    /// The combined report so far.
    pub fn report(&self) -> ShardedReport {
        ShardedReport {
            shards: self.shards.iter().map(Shard::report).collect(),
            store_metrics: self
                .store
                .as_ref()
                .map(|s| s.borrow().metrics().to_text())
                .unwrap_or_default(),
            steals: self.steals,
        }
    }

    /// The facility clock: every shard sits at it between calls.
    fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(Shard::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The completed record of submission `seq`, on whichever shard ran
    /// it (stealing may move work off its home shard).
    fn record(&self, seq: usize) -> Option<SubmissionRecord> {
        self.shards.iter().find_map(|s| s.record(seq)).cloned()
    }

    /// The lockstep event loop. Each round settles every shard at the
    /// global clock, in index order, then steals while an idle shard can;
    /// the clock then advances to the earliest next event across shards.
    /// Returns `true` as soon as `done` holds after a round, `false` once
    /// no event is left.
    fn run_until(&mut self, done: impl Fn(&Self) -> bool) -> bool {
        let mut now = self.now();
        loop {
            for shard in &mut self.shards {
                shard.advance_to(now);
            }
            if self.cfg.work_stealing {
                while self.steal_once() {}
            }
            if done(self) {
                return true;
            }
            let next = self.shards.iter().filter_map(Shard::next_event_time).min();
            let Some(next) = next else { return false };
            now = now.max(next);
        }
    }

    /// One steal: the first idle shard (free slice, nothing admissible
    /// of its own) takes the globally longest-waiting admissible entry
    /// whose tenant has aggregate quota room, and admits it at the
    /// current clock. Returns whether a steal happened.
    fn steal_once(&mut self) -> bool {
        let wpr = self.cfg.base.workers_per_run;
        let thief = (0..self.shards.len()).find(|&i| {
            let s = &self.shards[i];
            !s.has_admissible_work() && s.free_workers() >= wpr
        });
        let Some(thief) = thief else { return false };

        // The longest-waiting candidate across the other shards whose
        // tenant's federation-wide in-flight cores leave quota room.
        let run_cores = self.cfg.base.run_cores();
        let victim = (0..self.shards.len())
            .filter(|&i| i != thief)
            .filter_map(|i| {
                let (tenant, arrival, seq) = self.shards[i].steal_candidate()?;
                let aggregate: u64 = self
                    .shards
                    .iter()
                    .map(|s| s.tenant_inflight_cores(tenant))
                    .sum();
                let quota = u64::from(self.cfg.base.tenants[tenant].max_inflight_cores);
                (aggregate + run_cores <= quota).then_some((arrival, seq, i, tenant))
            })
            .min();
        let Some((_, _, victim, tenant)) = victim else {
            return false;
        };
        let Some(q) = self.shards[victim].take_steal(tenant) else {
            return false;
        };
        self.shards[thief].accept_stolen(tenant, q);
        self.steals += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_stable_and_spreading() {
        // Pure function of the name: same answer twice.
        assert_eq!(assign_shard("atlas", 4), assign_shard("atlas", 4));
        // All shards of a reasonable federation get someone.
        let shards = 4;
        let mut seen = vec![false; shards];
        for i in 0..64 {
            seen[assign_shard(&format!("tenant-{i}"), shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 names must cover 4 shards");
        // Single shard takes everyone.
        assert_eq!(assign_shard("anyone", 1), 0);
    }

    #[test]
    fn rendezvous_is_minimally_disruptive() {
        // Growing N→N+1 only moves tenants whose new shard is the new
        // one; nobody is shuffled between old shards.
        for i in 0..128 {
            let name = format!("tenant-{i}");
            let old = assign_shard(&name, 4);
            let new = assign_shard(&name, 5);
            assert!(new == old || new == 4, "{name}: {old} -> {new}");
        }
    }

    #[test]
    fn streamed_hash_matches_the_concatenated_key() {
        // The formula before the name's hash was reused across shards:
        // hash a fresh copy of `name ‖ shard` for every shard.
        fn concatenated(tenant_name: &str, shards: usize) -> usize {
            (0..shards)
                .max_by_key(|&s| {
                    let mut key = tenant_name.as_bytes().to_vec();
                    key.extend_from_slice(&(s as u64).to_le_bytes());
                    (fmix64(fnv1a64(&key)), std::cmp::Reverse(s))
                })
                .unwrap()
        }
        let mut names: Vec<String> = (0..300).map(|i| format!("tenant-{i}")).collect();
        names.extend(["", "atlas", "cms", "ü-группа"].map(String::from));
        for name in &names {
            for shards in 1..=9 {
                assert_eq!(
                    assign_shard(name, shards),
                    concatenated(name, shards),
                    "{name}/{shards}"
                );
            }
        }
    }

    #[test]
    fn zero_shards_refused() {
        let mut cfg = ShardedConfig::demo(1);
        cfg.shards = 0;
        let err = ShardedFacility::new(cfg).err().expect("must refuse");
        assert!(err.has_code(vine_lint::Code::F006));
    }

    #[test]
    fn broken_store_refused() {
        let mut cfg = ShardedConfig::demo(1);
        cfg.store = Some(0);
        let err = ShardedFacility::new(cfg).err().expect("must refuse");
        assert!(err.has_code(vine_lint::Code::F007));
    }

    #[test]
    fn single_shard_stealing_warns_but_serves() {
        let mut cfg = ShardedConfig::demo(1);
        cfg.shards = 1;
        let fed = ShardedFacility::new(cfg).expect("warning is not refusal");
        assert!(fed.preflight().has_code(vine_lint::Code::F008));
    }
}
