//! Property-based tests for graph construction, reduction trees, and the
//! ready tracker.

use proptest::prelude::*;
use vine_dag::graph::{FileId, TaskGraph, TaskKind};
use vine_dag::rewrite::add_tree_reduce;
use vine_dag::{ReadyTracker, TaskState};

/// Collect the leaf (external) files reachable from `file` via producers,
/// counting multiplicity.
fn reachable_leaf_multiset(graph: &TaskGraph, file: FileId) -> Vec<FileId> {
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

proptest! {
    /// A reduction tree over any leaf count and arity is acyclic, has
    /// bounded fan-in, and covers every leaf exactly once.
    #[test]
    fn tree_reduce_shape(n_leaves in 1usize..200, arity in 2usize..10) {
        let mut g = TaskGraph::new();
        let leaves: Vec<FileId> = (0..n_leaves)
            .map(|i| g.add_external_file(format!("l{i}"), 10))
            .collect();
        let root = add_tree_reduce(&mut g, "acc", &leaves, arity, 8, 0.1);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.max_fan_in() <= arity);
        let mut expect = leaves.clone();
        expect.sort_unstable();
        prop_assert_eq!(reachable_leaf_multiset(&g, root), expect);
        // A tree over n leaves with arity a needs at least ceil((n-1)/(a-1))
        // internal nodes and at most n - 1.
        if n_leaves > 1 {
            let min = (n_leaves - 1).div_ceil(arity - 1);
            prop_assert!(g.task_count() >= min);
            prop_assert!(g.task_count() < n_leaves);
        } else {
            prop_assert_eq!(g.task_count(), 0);
        }
    }

    /// Executing any randomly-built DAG through the tracker in ready order
    /// completes every task exactly once, regardless of pop strategy.
    #[test]
    fn tracker_executes_random_dags(
        layers in proptest::collection::vec(1usize..8, 1..5),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = TaskGraph::new();
        // Layered DAG: each task consumes 1-3 files from the previous layer.
        let mut prev: Vec<FileId> = (0..3)
            .map(|i| g.add_external_file(format!("ext{i}"), 10))
            .collect();
        for (li, &width) in layers.iter().enumerate() {
            let mut next = Vec::new();
            for w in 0..width {
                let k = rng.gen_range(1..=prev.len().min(3));
                let mut ins = Vec::new();
                for _ in 0..k {
                    ins.push(prev[rng.gen_range(0..prev.len())]);
                }
                ins.sort_unstable();
                ins.dedup();
                let (_, outs) =
                    g.add_task(format!("t{li}.{w}"), TaskKind::Process, ins, &[5], 1.0);
                next.extend(outs);
            }
            prev = next;
        }
        prop_assert!(g.validate().is_ok());

        let mut tracker = ReadyTracker::new(&g);
        let mut executed = 0usize;
        while let Some(t) = tracker.pop_ready() {
            tracker.mark_done(t);
            executed += 1;
            prop_assert!(executed <= g.task_count(), "task ran twice");
        }
        prop_assert!(tracker.is_complete());
        prop_assert_eq!(executed, g.task_count());
    }

    /// Random loss/recovery storms never wedge the tracker: re-running
    /// revived tasks always drives the graph back to completion, and no
    /// unavailable file ever has a Done producer.
    #[test]
    fn tracker_survives_loss_storms(
        n_chain in 2usize..10,
        loss_points in proptest::collection::vec((0usize..10, 0usize..10), 0..20),
    ) {
        // A chain graph: e -> t0 -> f0 -> t1 -> f1 -> ...
        let mut g = TaskGraph::new();
        let e = g.add_external_file("e", 10);
        let mut prev = e;
        let mut produced = Vec::new();
        for i in 0..n_chain {
            let (_, outs) = g.add_task(format!("t{i}"), TaskKind::Process, vec![prev], &[5], 1.0);
            prev = outs[0];
            produced.push(outs[0]);
        }
        let mut tracker = ReadyTracker::new(&g);
        let mut steps = 0usize;
        let mut losses = loss_points.iter().cycle();
        let mut loss_budget = loss_points.len();

        while !tracker.is_complete() {
            steps += 1;
            prop_assert!(steps < 10_000, "tracker wedged");
            if let Some(t) = tracker.pop_ready() {
                tracker.mark_done(t);
                // Occasionally lose an already-produced file (deepest first
                // so the "losses reported for every lost file" contract is
                // honored within one storm).
                if loss_budget > 0 {
                    let &(which, _) = losses.next().unwrap();
                    loss_budget -= 1;
                    let idx = which % produced.len();
                    if tracker.file_available(produced[idx]) {
                        // Report the loss of this file and every produced
                        // file downstream of it (they lived on one worker).
                        for &f in produced.iter().skip(idx).rev() {
                            tracker.mark_file_lost(f);
                        }
                    }
                }
            }
            // Invariant: unavailable file => producer not Done.
            for &f in &produced {
                if !tracker.file_available(f) {
                    let p = g.file(f).producer.unwrap();
                    prop_assert!(tracker.state(p) != TaskState::Done,
                        "unavailable file with Done producer");
                }
            }
        }
        prop_assert!(tracker.total_completions() >= g.task_count() as u64);
    }
}
