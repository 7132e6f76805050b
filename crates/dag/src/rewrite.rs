//! Reduction shaping (the Fig 11 transformation).
//!
//! RS-TriPhoton originally compiled all partial results with a *single*
//! reduction task, forcing every input onto one worker at once and
//! overflowing its 700 GB disk. The fix is a bounded-arity reduction tree:
//! the same accumulation (histogram addition is commutative and
//! associative) computed in layers, so no worker ever holds more than
//! `arity` inputs of one reduction. Workloads build that tree with
//! [`add_tree_reduce`] while constructing their graphs.

use crate::graph::{FileId, TaskGraph, TaskKind};

/// Add a bounded-arity reduction tree over `inputs` to `graph`.
///
/// Leaves are grouped `arity` at a time; each group becomes an
/// `Accumulate` task producing one file of `output_size` bytes; layers
/// repeat until one file remains, which is returned. `work_per_input` is
/// the compute multiplier contributed by each consumed input.
///
/// With a single input, no task is added and the input is returned as-is.
///
/// # Panics
/// If `inputs` is empty or `arity < 2`.
pub fn add_tree_reduce(
    graph: &mut TaskGraph,
    name_prefix: &str,
    inputs: &[FileId],
    arity: usize,
    output_size: u64,
    work_per_input: f64,
) -> FileId {
    assert!(!inputs.is_empty(), "cannot reduce zero files");
    assert!(arity >= 2, "reduction arity must be at least 2");
    let mut level = 0usize;
    let mut frontier: Vec<FileId> = inputs.to_vec();
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(arity));
        for (i, chunk) in frontier.chunks(arity).enumerate() {
            if chunk.len() == 1 {
                // An odd leftover passes through to the next level untouched.
                next.push(chunk[0]);
                continue;
            }
            let (_, outs) = graph.add_task(
                format!("{name_prefix}.L{level}.{i}"),
                TaskKind::Accumulate,
                chunk.to_vec(),
                &[output_size],
                work_per_input * chunk.len() as f64,
            );
            next.push(outs[0]);
        }
        frontier = next;
        level += 1;
    }
    frontier[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskNode;

    fn leaves(graph: &mut TaskGraph, n: usize) -> Vec<FileId> {
        (0..n)
            .map(|i| graph.add_external_file(format!("leaf{i}"), 100))
            .collect()
    }

    /// Collect the external files reachable from `file` through producers.
    fn reachable_leaves(graph: &TaskGraph, file: FileId) -> Vec<FileId> {
        let mut out = Vec::new();
        let mut stack = vec![file];
        while let Some(f) = stack.pop() {
            match graph.file(f).producer {
                None => out.push(f),
                Some(p) => stack.extend(graph.task(p).inputs.iter().copied()),
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn binary_tree_over_eight_leaves() {
        let mut g = TaskGraph::new();
        let ls = leaves(&mut g, 8);
        let root = add_tree_reduce(&mut g, "acc", &ls, 2, 10, 0.1);
        assert!(g.validate().is_ok());
        // 8 leaves, binary: 4 + 2 + 1 = 7 accumulate tasks.
        assert_eq!(g.task_count(), 7);
        assert_eq!(g.max_fan_in(), 2);
        let mut expect = ls.clone();
        expect.sort_unstable();
        assert_eq!(reachable_leaves(&g, root), expect);
    }

    #[test]
    fn tree_with_odd_count_passes_leftover_up() {
        let mut g = TaskGraph::new();
        let ls = leaves(&mut g, 5);
        let root = add_tree_reduce(&mut g, "acc", &ls, 2, 10, 0.1);
        assert!(g.validate().is_ok());
        assert_eq!(reachable_leaves(&g, root).len(), 5);
        assert_eq!(g.max_fan_in(), 2);
    }

    #[test]
    fn single_input_is_identity() {
        let mut g = TaskGraph::new();
        let ls = leaves(&mut g, 1);
        let root = add_tree_reduce(&mut g, "acc", &ls, 2, 10, 0.1);
        assert_eq!(root, ls[0]);
        assert_eq!(g.task_count(), 0);
    }

    #[test]
    fn wide_arity_flattens_tree() {
        let mut g = TaskGraph::new();
        let ls = leaves(&mut g, 20);
        add_tree_reduce(&mut g, "acc", &ls, 20, 10, 0.1);
        assert_eq!(g.task_count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_one_panics() {
        let mut g = TaskGraph::new();
        let ls = leaves(&mut g, 3);
        add_tree_reduce(&mut g, "acc", &ls, 1, 10, 0.1);
    }

    #[test]
    fn tree_reduce_work_scales_with_inputs() {
        let mut g = TaskGraph::new();
        let ls = leaves(&mut g, 4);
        add_tree_reduce(&mut g, "acc", &ls, 2, 10, 0.5);
        let works: Vec<f64> = g.tasks().iter().map(|t: &TaskNode| t.work).collect();
        assert_eq!(works, vec![1.0, 1.0, 1.0]);
    }
}
