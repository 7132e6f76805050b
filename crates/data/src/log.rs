//! Append-only dataset growth: an epoch-stamped event log.
//!
//! Real HEP datasets are not static — new runs land on tape for months
//! while the analysis keeps iterating. [`DatasetLog`] models that growth
//! as an append-only sequence of [`GrowthEvent`]s (partition appends and
//! analysis spec edits), grouped into **epochs** by explicit
//! [`commit`](DatasetLog::commit) calls. Each event carries a content
//! hash derived from the log seed and the event's identity, so two logs
//! built from the same seed and the same staged sequence are equal
//! event-for-event — and any consumer keyed on those hashes (graph
//! templates, reactive schedulers) is replay-deterministic across the
//! whole growth timeline.
//!
//! Every commit also records a cumulative **epoch digest** (FNV-1a over
//! the canonical text encoding of the log prefix), the identity
//! `vine-watch` compares across replays: same seed + same event log ⇒
//! bit-identical per-epoch digests.

use vine_simcore::fnv1a64;

/// What one growth event does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrowthKind {
    /// A new partition (input chunk) of `bytes` appended to a dataset.
    AppendPartition {
        /// Size of the appended chunk.
        bytes: u64,
    },
    /// The analyst edited the final selection: reduction generation bump.
    /// Applies to the whole analysis, not a single dataset.
    EditSpec {
        /// The generation this edit moves the reduction stage to.
        generation: u32,
    },
}

/// One committed, epoch-stamped growth event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrowthEvent {
    /// Global position in the log (ingest order, 0-based).
    pub index: u64,
    /// The epoch this event was committed under (1-based; epoch 0 is the
    /// pristine pre-growth state).
    pub epoch: u64,
    /// The dataset the event touches (`0` for analysis-wide spec edits).
    pub dataset: usize,
    /// What happened.
    pub kind: GrowthKind,
    /// Content hash of the event: FNV-1a over the log seed and the
    /// event's canonical encoding. Stable across replays; unique per
    /// position in a given log.
    pub content_hash: u64,
}

impl GrowthEvent {
    /// Canonical one-line text encoding (what the epoch digest hashes).
    fn to_line(self) -> String {
        match self.kind {
            GrowthKind::AppendPartition { bytes } => format!(
                "{} {} {} append {} {:016x}\n",
                self.index, self.epoch, self.dataset, bytes, self.content_hash
            ),
            GrowthKind::EditSpec { generation } => format!(
                "{} {} {} edit {} {:016x}\n",
                self.index, self.epoch, self.dataset, generation, self.content_hash
            ),
        }
    }
}

/// The append-only growth log. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct DatasetLog {
    seed: u64,
    epoch: u64,
    events: Vec<GrowthEvent>,
    staged: Vec<(usize, GrowthKind)>,
    /// `digests[e]` is the cumulative digest at epoch `e`.
    digests: Vec<u64>,
}

impl DatasetLog {
    /// An empty log at epoch 0. The seed flavors every content hash, so
    /// distinct campaigns never collide even with identical shapes.
    pub fn new(seed: u64) -> Self {
        let digest0 = fnv1a64(format!("dataset-log {seed}\n").as_bytes());
        DatasetLog {
            seed,
            epoch: 0,
            events: Vec::new(),
            staged: Vec::new(),
            digests: vec![digest0],
        }
    }

    /// Stage a partition append for `dataset`; takes effect (gets an
    /// epoch stamp and a content hash) at the next [`commit`](Self::commit).
    pub fn append_partition(&mut self, dataset: usize, bytes: u64) {
        self.staged
            .push((dataset, GrowthKind::AppendPartition { bytes }));
    }

    /// Stage a spec edit: the reduction stage moves to the next
    /// generation at the next commit.
    pub fn edit_spec(&mut self) {
        let next_gen = self.generation_at(u64::MAX)
            + self
                .staged
                .iter()
                .filter(|(_, k)| matches!(k, GrowthKind::EditSpec { .. }))
                .count() as u32
            + 1;
        self.staged.push((
            0,
            GrowthKind::EditSpec {
                generation: next_gen,
            },
        ));
    }

    /// Seal the staged events into a new epoch and return it. Committing
    /// with nothing staged is meaningful: it records a *quiet* epoch
    /// (debounced triggers count those).
    pub fn commit(&mut self) -> u64 {
        self.epoch += 1;
        for (dataset, kind) in std::mem::take(&mut self.staged) {
            let index = self.events.len() as u64;
            let ident = match kind {
                GrowthKind::AppendPartition { bytes } => {
                    format!("{} {} {} append {}", self.seed, self.epoch, index, bytes)
                }
                GrowthKind::EditSpec { generation } => {
                    format!("{} {} {} edit {}", self.seed, self.epoch, index, generation)
                }
            };
            self.events.push(GrowthEvent {
                index,
                epoch: self.epoch,
                dataset,
                kind,
                content_hash: fnv1a64(ident.as_bytes()),
            });
        }
        let mut text = format!("dataset-log {} epoch {}\n", self.seed, self.epoch);
        for e in &self.events {
            text.push_str(&e.to_line());
        }
        self.digests.push(fnv1a64(text.as_bytes()));
        self.epoch
    }

    /// The current (last committed) epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The log seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Every committed event, in log order.
    pub fn events(&self) -> &[GrowthEvent] {
        &self.events
    }

    /// Events committed under exactly `epoch`.
    pub fn events_in(&self, epoch: u64) -> impl Iterator<Item = &GrowthEvent> {
        self.events.iter().filter(move |e| e.epoch == epoch)
    }

    /// Partition appends for `dataset` committed at or before `epoch`,
    /// in log order.
    pub fn appends_for(&self, dataset: usize, epoch: u64) -> Vec<GrowthEvent> {
        self.events
            .iter()
            .filter(|e| {
                e.dataset == dataset
                    && e.epoch <= epoch
                    && matches!(e.kind, GrowthKind::AppendPartition { .. })
            })
            .copied()
            .collect()
    }

    /// The reduction generation in force at `epoch`: the highest
    /// generation of any spec edit committed at or before it (0 when the
    /// spec was never edited).
    pub fn generation_at(&self, epoch: u64) -> u32 {
        self.events
            .iter()
            .filter(|e| e.epoch <= epoch)
            .filter_map(|e| match e.kind {
                GrowthKind::EditSpec { generation } => Some(generation),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The cumulative content digest at `epoch` (epoch 0 is the empty
    /// log). Panics when `epoch` has not been committed yet.
    pub fn epoch_digest(&self, epoch: u64) -> u64 {
        self.digests[epoch as usize]
    }

    /// All cumulative digests, indexed by epoch.
    pub fn digests(&self) -> &[u64] {
        &self.digests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grown(seed: u64) -> DatasetLog {
        let mut log = DatasetLog::new(seed);
        log.append_partition(0, 1_000_000);
        log.append_partition(1, 2_000_000);
        log.commit();
        log.edit_spec();
        log.commit();
        log.commit(); // quiet epoch
        log.append_partition(0, 3_000_000);
        log.commit();
        log
    }

    #[test]
    fn epochs_stamp_events_in_order() {
        let log = grown(7);
        assert_eq!(log.epoch(), 4);
        assert_eq!(log.events().len(), 4);
        let epochs: Vec<u64> = log.events().iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![1, 1, 2, 4]);
        let indices: Vec<u64> = log.events().iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert_eq!(log.events_in(3).count(), 0, "quiet epoch holds nothing");
    }

    #[test]
    fn appends_and_generation_are_cumulative_views() {
        let log = grown(7);
        assert_eq!(log.appends_for(0, 1).len(), 1);
        assert_eq!(log.appends_for(0, 4).len(), 2);
        assert_eq!(log.appends_for(1, 4).len(), 1);
        assert_eq!(log.generation_at(1), 0);
        assert_eq!(log.generation_at(2), 1);
        assert_eq!(log.generation_at(4), 1);
    }

    #[test]
    fn same_seed_same_log_bit_identical_digests() {
        let a = grown(42);
        let b = grown(42);
        assert_eq!(a.digests(), b.digests());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_diverge_everywhere() {
        let a = grown(1);
        let b = grown(2);
        assert_ne!(a.epoch_digest(0), b.epoch_digest(0));
        assert_ne!(a.epoch_digest(4), b.epoch_digest(4));
        for (ea, eb) in a.events().iter().zip(b.events()) {
            assert_ne!(ea.content_hash, eb.content_hash);
        }
    }

    #[test]
    fn content_hashes_are_unique_within_a_log() {
        let log = grown(9);
        let mut hashes: Vec<u64> = log.events().iter().map(|e| e.content_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), log.events().len());
    }

    #[test]
    fn quiet_commits_still_advance_the_digest() {
        let mut log = DatasetLog::new(5);
        let d0 = log.epoch_digest(0);
        log.commit();
        let d1 = log.epoch_digest(1);
        assert_ne!(d0, d1, "the epoch counter is part of the digest");
        assert_eq!(log.events().len(), 0);
    }

    #[test]
    fn spec_edits_number_their_generations() {
        let mut log = DatasetLog::new(3);
        log.edit_spec();
        log.edit_spec();
        log.commit();
        assert_eq!(log.generation_at(1), 2, "two staged edits, two bumps");
        log.edit_spec();
        log.commit();
        assert_eq!(log.generation_at(2), 3);
    }
}
