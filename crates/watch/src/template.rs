//! Graph templates: instantiating a workload at a growth epoch so that
//! cachenames carry **subtree content signatures**.
//!
//! The engine's memoization keys (`graph_file_cachename`) hash one level
//! of lineage only: a file's own name and size plus its producer's input
//! names and sizes. That is exactly right for one-shot resubmission but a
//! trap for growth: appending a partition leaves every downstream reduce
//! *name* unchanged, so a warm session would find the old final histogram
//! resident and skip the entire graph — including the new partition —
//! serving a stale result.
//!
//! [`GraphTemplate`] closes the trap structurally: every reduction task's
//! name embeds an FNV signature of its input subtree (leaf signatures are
//! the process-task names for base partitions and the
//! [`vine_data::GrowthEvent`] content hashes for appended ones; interior
//! signatures hash the child signatures plus the edit generation). Any
//! upstream change therefore propagates into the names — and hence the
//! cachenames — of exactly its downstream cone, and nothing else:
//!
//! * appending a partition renames only the reduce spine from that leaf's
//!   group to the dataset root (appends land at the *end* of the partial
//!   list, so existing arity-groups keep their membership);
//! * a spec edit bumps the generation, renaming the whole reduce stage
//!   while the process stage stays memoized;
//! * a quiet epoch changes no names at all, so a warm session skips
//!   everything.

use vine_analysis::{ReductionShape, WorkloadSpec};
use vine_dag::{FileId, TaskGraph, TaskKind};
use vine_data::{fnv1a64, DatasetLog, GrowthKind};

use std::collections::BTreeMap;

/// A standing analysis shape: a [`WorkloadSpec`] that can be instantiated
/// against any epoch of a [`DatasetLog`].
#[derive(Clone, Debug)]
pub struct GraphTemplate {
    spec: WorkloadSpec,
}

impl GraphTemplate {
    /// Wrap a workload spec. Its `edit_generation` is the template's
    /// floor; spec-edit events in the log raise the effective generation.
    pub fn new(spec: WorkloadSpec) -> Self {
        GraphTemplate { spec }
    }

    /// The underlying workload spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Datasets this template reads (indices `0..n`).
    pub fn n_datasets(&self) -> usize {
        self.spec.n_datasets
    }

    /// The effective reduction generation at `epoch`: the spec's own
    /// generation plus any spec-edit events committed by then.
    pub fn generation_at(&self, log: &DatasetLog, epoch: u64) -> u32 {
        self.spec.edit_generation + log.generation_at(epoch)
    }

    /// Instantiate the task graph as of `epoch`: the spec's base
    /// partitions plus every partition appended at or before `epoch`,
    /// reduced per-dataset with signature-carrying task names.
    pub fn graph_at(&self, log: &DatasetLog, epoch: u64) -> TaskGraph {
        let spec = &self.spec;
        let mut g = TaskGraph::new();
        let per_dataset = spec.process_tasks / spec.n_datasets;
        let remainder = spec.process_tasks % spec.n_datasets;
        let chunk = spec.chunk_bytes();
        let accum_work_per_input = 0.05 * spec.work_scale;
        let gen = self.generation_at(log, epoch);

        for d in 0..spec.n_datasets {
            let base_chunks = per_dataset + usize::from(d < remainder);
            // (partial file, subtree signature) — appends go at the END so
            // existing arity-groups keep their membership across epochs.
            let mut partials: Vec<(FileId, u64)> = Vec::with_capacity(base_chunks);
            for c in 0..base_chunks {
                let pname = format!("{}.ds{d}.process{c}", spec.name);
                let input = g.add_external_file(format!("{}.ds{d}.chunk{c}", spec.name), chunk);
                let (_, outs) = g.add_task(
                    pname.clone(),
                    TaskKind::Process,
                    vec![input],
                    &[spec.process_output_bytes],
                    spec.work_scale,
                );
                partials.push((outs[0], fnv1a64(pname.as_bytes())));
            }
            for (j, ev) in log.appends_for(d, epoch).iter().enumerate() {
                let GrowthKind::AppendPartition { bytes } = ev.kind else {
                    continue;
                };
                let c = base_chunks + j;
                let h = ev.content_hash;
                let input =
                    g.add_external_file(format!("{}.ds{d}.chunk{c}.h{h:016x}", spec.name), bytes);
                let (_, outs) = g.add_task(
                    format!("{}.ds{d}.process{c}.h{h:016x}", spec.name),
                    TaskKind::Process,
                    vec![input],
                    &[spec.process_output_bytes],
                    spec.work_scale,
                );
                partials.push((outs[0], h));
            }

            match spec.reduction {
                ReductionShape::SingleNode => {
                    if partials.len() > 1 {
                        let sig = combine_sigs(gen, 0, partials.iter().map(|&(_, s)| s));
                        g.add_task(
                            format!("{}.ds{d}.reduce.g{gen}.s{sig:016x}", spec.name),
                            TaskKind::Accumulate,
                            partials.iter().map(|&(f, _)| f).collect(),
                            &[spec.accum_output_bytes],
                            accum_work_per_input * partials.len() as f64,
                        );
                    }
                }
                ReductionShape::Tree { arity } => {
                    let arity = arity.max(2);
                    let mut frontier = partials;
                    let mut level = 0usize;
                    while frontier.len() > 1 {
                        let mut next = Vec::with_capacity(frontier.len().div_ceil(arity));
                        for (i, group) in frontier.chunks(arity).enumerate() {
                            if group.len() == 1 {
                                next.push(group[0]);
                                continue;
                            }
                            let sig = combine_sigs(gen, level, group.iter().map(|&(_, s)| s));
                            let (_, outs) = g.add_task(
                                format!(
                                    "{}.ds{d}.reduce.g{gen}.L{level}.{i}.s{sig:016x}",
                                    spec.name
                                ),
                                TaskKind::Accumulate,
                                group.iter().map(|&(f, _)| f).collect(),
                                &[spec.accum_output_bytes],
                                accum_work_per_input * group.len() as f64,
                            );
                            next.push((outs[0], sig));
                        }
                        frontier = next;
                        level += 1;
                    }
                }
            }
        }
        debug_assert!(g.validate().is_ok());
        g
    }

    /// The watchdag-style input snapshot at `epoch`: external input name →
    /// content hash. Diffing two snapshots names exactly the inputs that
    /// changed between epochs (for reporting; cone selection itself rides
    /// on the task names).
    pub fn input_hashes(&self, log: &DatasetLog, epoch: u64) -> BTreeMap<String, u64> {
        let spec = &self.spec;
        let per_dataset = spec.process_tasks / spec.n_datasets;
        let remainder = spec.process_tasks % spec.n_datasets;
        let mut out = BTreeMap::new();
        for d in 0..spec.n_datasets {
            let base_chunks = per_dataset + usize::from(d < remainder);
            for c in 0..base_chunks {
                let name = format!("{}.ds{d}.chunk{c}", spec.name);
                let h = fnv1a64(name.as_bytes());
                out.insert(name, h);
            }
            for (j, ev) in log.appends_for(d, epoch).iter().enumerate() {
                let c = base_chunks + j;
                out.insert(
                    format!("{}.ds{d}.chunk{c}.h{:016x}", spec.name, ev.content_hash),
                    ev.content_hash,
                );
            }
        }
        // A spec edit is an input too (it invalidates the reduce stage).
        out.insert(
            format!("{}.spec", spec.name),
            u64::from(self.generation_at(log, epoch)),
        );
        out
    }
}

/// Order-sensitive FNV over a generation, a tree level, and child sigs.
fn combine_sigs(gen: u32, level: usize, sigs: impl Iterator<Item = u64>) -> u64 {
    let mut text = format!("reduce g{gen} L{level}");
    for s in sigs {
        text.push_str(&format!(" {s:016x}"));
    }
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::dv3_small().scaled_down(20)
    }

    fn names(g: &TaskGraph) -> BTreeSet<String> {
        g.tasks().iter().map(|t| t.name.clone()).collect()
    }

    #[test]
    fn quiet_epochs_change_nothing() {
        let t = GraphTemplate::new(small_spec());
        let mut log = DatasetLog::new(1);
        log.commit();
        log.commit();
        let g0 = t.graph_at(&log, 0);
        let g2 = t.graph_at(&log, 2);
        assert_eq!(names(&g0), names(&g2));
    }

    #[test]
    fn append_renames_exactly_the_spine() {
        let t = GraphTemplate::new(small_spec());
        let mut log = DatasetLog::new(2);
        log.append_partition(0, 50_000_000);
        log.commit();
        let g0 = t.graph_at(&log, 0);
        let g1 = t.graph_at(&log, 1);
        let n0 = names(&g0);
        let n1 = names(&g1);

        // Everything in the old graph except the rightmost ds0 reduce
        // spine survives verbatim; the new graph adds the appended process
        // task plus the renamed spine.
        let gone: Vec<&String> = n0.difference(&n1).collect();
        let added: Vec<&String> = n1.difference(&n0).collect();
        assert!(
            gone.iter().all(|n| n.contains(".ds0.reduce.")),
            "only ds0 reduces may be invalidated: {gone:?}"
        );
        assert!(added.iter().any(|n| n.contains(".ds0.process")));
        // ds1 is untouched entirely.
        assert!(gone.iter().all(|n| !n.contains(".ds1.")));
        assert!(added.iter().all(|n| !n.contains(".ds1.")));
        // The spine is small: one task per affected tree level plus the
        // new process task — far fewer than the dataset's task count.
        assert!(added.len() <= 5, "spine too large: {added:?}");
        assert!(g1.validate().is_ok());
    }

    #[test]
    fn spec_edit_renames_all_reduces_and_no_process() {
        let t = GraphTemplate::new(small_spec());
        let mut log = DatasetLog::new(3);
        log.edit_spec();
        log.commit();
        let g0 = t.graph_at(&log, 0);
        let g1 = t.graph_at(&log, 1);
        let reduces = |g: &TaskGraph| {
            g.tasks()
                .iter()
                .filter(|t| t.kind == TaskKind::Accumulate)
                .map(|t| t.name.clone())
                .collect::<BTreeSet<_>>()
        };
        let procs = |g: &TaskGraph| {
            g.tasks()
                .iter()
                .filter(|t| t.kind == TaskKind::Process)
                .map(|t| t.name.clone())
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(procs(&g0), procs(&g1), "process stage must stay warm");
        assert!(reduces(&g0).is_disjoint(&reduces(&g1)));
        assert!(reduces(&g1).iter().all(|n| n.contains(".g1.")));
    }

    #[test]
    fn same_log_same_epoch_is_bit_stable() {
        let t = GraphTemplate::new(small_spec());
        let mut log = DatasetLog::new(4);
        log.append_partition(1, 10_000_000);
        log.commit();
        let a = t.graph_at(&log, 1);
        let b = t.graph_at(&log, 1);
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.task_count(), b.task_count());
        assert_eq!(a.file_count(), b.file_count());
    }

    #[test]
    fn input_hash_diff_names_the_appended_chunks() {
        let t = GraphTemplate::new(small_spec());
        let mut log = DatasetLog::new(5);
        log.append_partition(0, 10_000_000);
        log.append_partition(1, 20_000_000);
        log.commit();
        let before = t.input_hashes(&log, 0);
        let after = t.input_hashes(&log, 1);
        let changed: Vec<&String> = after
            .iter()
            .filter(|(k, v)| before.get(*k) != Some(v))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(changed.len(), 2);
        assert!(changed.iter().any(|n| n.contains(".ds0.")));
        assert!(changed.iter().any(|n| n.contains(".ds1.")));
    }

    #[test]
    fn single_node_shape_gets_one_signed_reduce_per_dataset() {
        let spec = small_spec().with_reduction(ReductionShape::SingleNode);
        let t = GraphTemplate::new(spec);
        let log = DatasetLog::new(6);
        let g = t.graph_at(&log, 0);
        let reduces: Vec<&str> = g
            .tasks()
            .iter()
            .filter(|t| t.kind == TaskKind::Accumulate)
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(reduces.len(), t.n_datasets());
        assert!(reduces.iter().all(|n| n.contains(".reduce.g0.s")));
    }
}
