//! Every registry entry, run small: recording the marked cells changes
//! no CSV byte and adds no engine run, and each recorded export label is
//! a cell that actually ran. The fast checks pass against the committed
//! `results/`, and a check fails on a one-byte difference.

use std::path::{Path, PathBuf};

use vine_bench::experiments::{self, Experiment, Output};
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
        "facility" => (vec![80], &["facility_cold"]),
        // Below the smallest population: the entry runs no cell.
        "fig-shards" => (vec![999], &[]),
        "fig-chaos" | "fig-stream" => (vec![16], &[]),
        "fig-watch" => (vec![], &[]),
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

fn entry(name: &str) -> &'static Experiment {
    experiments::ALL
        .iter()
        .find(|e| e.name == name)
        .expect("registered")
}

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Every check but `fig-shards` (whose CI cell drains 1 000 tenants
/// twice, so it runs in release builds only) reproduces its committed
/// files and holds its claims.
#[test]
fn fast_checks_pass_against_the_committed_results() {
    for name in ["facility", "fig-chaos", "fig-stream", "fig-watch"] {
        let out = entry(name)
            .run_check(&committed_results())
            .expect("the entry has a check");
        assert!(!out.files.is_empty(), "{name}: the check pins no file");
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
    }
    assert!(entry("fig7").run_check(&committed_results()).is_none());
}

fn explode(_: &mut Lab, args: &[usize]) -> Output {
    panic!("claim {} cannot be evaluated", args.len())
}

/// A panicking entry, run or checked, is one failure naming the panic
/// rather than the end of the process.
#[test]
fn a_panicking_entry_becomes_a_failure() {
    let exp = Experiment {
        name: "explodes",
        args: &[],
        run: explode,
        check: Some(explode),
    };
    let expected = vec!["panicked: claim 0 cannot be evaluated".to_string()];
    let checked = exp.run_check(&committed_results()).unwrap();
    assert_eq!(checked.failures, expected);
    assert!(checked.files.is_empty());
    assert_eq!(exp.execute(&mut Lab::quiet(), &[]).failures, expected);
}

#[test]
fn a_check_fails_on_a_one_byte_difference() {
    let dir = std::env::temp_dir().join(format!("vine-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut csv = std::fs::read(committed_results().join("chaos.csv")).unwrap();
    let at = csv.len() / 2;
    csv[at] = if csv[at] == b'0' { b'1' } else { b'0' };
    std::fs::write(dir.join("chaos.csv"), &csv).unwrap();
    let out = entry("fig-chaos").run_check(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    assert!(
        out.failures[0].contains("chaos.csv differs"),
        "{}",
        out.failures[0]
    );
}
