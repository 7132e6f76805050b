//! Every registry entry, run small: recording the marked cells changes
//! no CSV byte and adds no engine run, and each recorded export label is
//! a cell that actually ran.

use vine_bench::experiments::{self, Output};
use vine_bench::lab::Lab;

/// Cheap positional arguments per entry, and the export labels its
/// recorded cells carry at those arguments.
fn small(name: &str) -> (Vec<usize>, &'static [&'static str]) {
    match name {
        "table1" => (vec![80], &["table1-stack4"]),
        "table2" => (vec![], &[]),
        "fig7" => (vec![80], &["fig7-stack2", "fig7-stack3"]),
        "fig8" => (vec![80], &["fig8-stack3", "fig8-stack4"]),
        "fig10" => (vec![64], &["fig10-hoisted", "fig10-unhoisted"]),
        "fig11" => (vec![4, 40], &["fig11-tree"]),
        "fig12" => (
            vec![80],
            &[
                "fig12-stack1",
                "fig12-stack2",
                "fig12-stack3",
                "fig12-stack4",
            ],
        ),
        "fig13" => (vec![2, 6, 80], &["fig13-stack4-6w"]),
        "fig14a" => (vec![40], &["fig14a-taskvine", "fig14a-dask"]),
        "fig14b" => (vec![80], &["fig14b-dv3large"]),
        "fig15" => (vec![160], &["fig15-dv3huge"]),
        "ablations" => (vec![80], &["ablations-baseline"]),
        other => panic!("no small arguments for registry entry {other}"),
    }
}

#[test]
fn recording_changes_no_csv_and_reruns_nothing() {
    for exp in experiments::ALL {
        let (args, labels) = small(exp.name);
        assert_eq!(args.len(), exp.args.len(), "{}: argument count", exp.name);

        let mut plain = Lab::quiet();
        let off: Output = (exp.run)(&mut plain, &args);
        assert_eq!(plain.recorded().count(), 0, "{}", exp.name);

        // Metrics without a trace directory: recorded, nothing written.
        let mut rec = Lab::new(None, true);
        let on: Output = (exp.run)(&mut rec, &args);

        assert_eq!(
            off.files, on.files,
            "{}: CSVs differ when recorded",
            exp.name
        );
        assert_eq!(plain.runs(), rec.runs(), "{}: engine runs", exp.name);

        let recorded: Vec<&str> = rec.recorded().collect();
        let mut sorted = recorded.clone();
        sorted.sort_unstable();
        let mut want = labels.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want, "{}: recorded labels", exp.name);
        for label in recorded {
            assert!(
                rec.digest(label).is_some(),
                "{}: {label} has no digest",
                exp.name
            );
        }
        if !labels.is_empty() {
            assert!(!rec.take_stdout().is_empty(), "{}: no metrics", exp.name);
        }
    }
}
