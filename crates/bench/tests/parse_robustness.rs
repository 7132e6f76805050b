//! `BenchCli::from_args`, `vine-fig`'s and `vine-sim`'s argument parsing
//! return `Ok` or `Err` on arbitrary argument vectors; they never panic.
//! Most tokens are the words the parsers look for — flags, experiment
//! names, numbers at the edges of `usize` and `f64` — so vectors reach
//! past the first token; the rest are arbitrary strings.

use proptest::prelude::*;
use vine_bench::cli::BenchCli;
use vine_bench::experiments::{self, Target};
use vine_bench::simargs::parse_args;

const WORDS: &[&str] = &[
    "--trace-out",
    "--metrics",
    "--chaos",
    "--recovery",
    "--bench-json",
    "--stream-threshold",
    "storm",
    "campus;seed=3",
    "taskfail:prob=2",
    "default",
    "hardened",
    "fragile",
    "list",
    "all",
    "check",
    "table1",
    "table2",
    "fig11",
    "fig13",
    "fig99",
    "fig-watch",
    "fig-shards",
    "0",
    "1",
    "10",
    "-1",
    "+4",
    "0.5",
    "NaN",
    "inf",
    "1e308",
    "18446744073709551615",
    "18446744073709551616",
    "",
];

/// `vine-sim`'s own flags and values, with the numeric edge cases.
const SIM_WORDS: &[&str] = &[
    "--workload",
    "--stack",
    "--scheduler",
    "--workers",
    "--scale",
    "--seed",
    "--replicas",
    "--single-node-reduction",
    "--no-peer-transfers",
    "--placement",
    "--remote-inputs",
    "--dot",
    "--explain-memo",
    "--lint",
    "--lint-deny=warn",
    "--lint-deny",
    "--no-preflight",
    "--bench-reps",
    "--help",
    "-h",
    "dv3-small",
    "dask",
    "taskvine",
    "workqueue",
    "round-robin",
    "data-aware",
    "warn",
    "0",
    "4",
    "-1",
    "4294967296",
    "18446744073709551616",
    "",
];

/// Any string, as a run of arbitrary scalars and ASCII characters.
fn text() -> BoxedStrategy<String> {
    proptest::collection::vec(
        prop_oneof![
            any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}')),
            (0u8..128).prop_map(char::from),
        ],
        0..16,
    )
    .prop_map(|chars| chars.into_iter().collect())
    .boxed()
}

/// Usually one of the parsers' words, sometimes arbitrary text.
fn token() -> BoxedStrategy<String> {
    let word = || (0..WORDS.len()).prop_map(|i| WORDS[i].to_string());
    prop_oneof![word(), word(), word(), text()].boxed()
}

fn argv() -> BoxedStrategy<Vec<String>> {
    proptest::collection::vec(token(), 0..8).boxed()
}

fn sim_argv() -> BoxedStrategy<Vec<String>> {
    let word = || (0..SIM_WORDS.len()).prop_map(|i| SIM_WORDS[i].to_string());
    proptest::collection::vec(prop_oneof![word(), word(), word(), text()], 0..8).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// Strips what it knows; everything else lands in `rest`, in order.
    #[test]
    fn bench_cli_from_args_never_panics(args in argv()) {
        if let Ok(cli) = BenchCli::from_args(args.clone().into_iter()) {
            prop_assert!(cli.rest.len() <= args.len());
        }
    }

    /// A parsed invocation runs registered experiments, each with
    /// exactly its declared number of positive arguments, or checks
    /// entries that have a check.
    #[test]
    fn vine_fig_parse_never_panics(args in argv()) {
        match experiments::parse_invocation(args.clone()) {
            Ok((Target::Run(runs), _)) => {
                for (exp, values) in runs {
                    prop_assert!(experiments::ALL.iter().any(|e| e.name == exp.name));
                    prop_assert_eq!(values.len(), exp.args.len());
                    prop_assert!(values.iter().all(|&v| v > 0));
                }
            }
            Ok((Target::Check(exps), _)) => {
                prop_assert!(exps.iter().all(|e| e.check.is_some()));
            }
            Ok((Target::List, _)) => {}
            Err(e) => prop_assert!(e.contains("usage: vine-fig"), "{args:?}: {e}"),
        }
    }

    /// `vine-sim`'s parser returns an error message or arguments with
    /// at least one benchmark repetition.
    #[test]
    fn vine_sim_parse_never_panics(args in sim_argv()) {
        match parse_args(args.clone()) {
            Ok(a) => prop_assert!(a.bench_reps >= 1),
            Err(e) => prop_assert!(!e.is_empty(), "{args:?}"),
        }
    }
}

fn sim(args: &[&str]) -> Result<vine_bench::simargs::Args, String> {
    parse_args(args.iter().map(|s| s.to_string()).collect())
}

#[test]
fn vine_sim_defaults_and_errors() {
    let a = sim(&[]).unwrap();
    assert_eq!((a.workload.as_str(), a.stack, a.seed), ("dv3-large", 4, 42));
    assert_eq!((a.workers, a.scale, a.bench_reps), (0, 1, 1));
    let a = sim(&[
        "--scheduler",
        "dask",
        "--bench-reps",
        "0",
        "--lint-deny",
        "warn",
    ])
    .unwrap();
    assert!(a.dask && a.lint_deny_warn);
    assert_eq!(a.bench_reps, 1);
    for (bad, msg) in [
        (&["--stack"][..], "--stack requires a value"),
        (&["--stack", "x"], "--stack: "),
        (&["--stack", "0"], "--stack: must be 1..=4, got 0"),
        (&["--stack", "5"], "--stack: must be 1..=4, got 5"),
        (&["--scale", "0"], "--scale: must be at least 1, got 0"),
        (&["--scheduler", "slurm"], "unknown scheduler slurm"),
        (&["--placement", "random"], "unknown placement random"),
        (&["--lint-deny", "info"], "unknown --lint-deny level info"),
        (&["--frobnicate"], "unknown flag --frobnicate"),
        (&["--help"], "usage: "),
    ] {
        let err = sim(bad).expect_err(&format!("{bad:?} parsed"));
        assert!(err.starts_with(msg), "{bad:?}: {err}");
    }
}

fn parse(args: &[&str]) -> Result<(Target, BenchCli), String> {
    experiments::parse_invocation(args.iter().map(|s| s.to_string()))
}

#[test]
fn vine_fig_fills_defaults_after_given_arguments() {
    let (target, cli) = parse(&["fig13", "4", "--metrics", "20"]).unwrap();
    let Target::Run(runs) = target else {
        panic!("not a run")
    };
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].0.name, "fig13");
    assert_eq!(runs[0].1, [4, 20, 1]);
    assert!(cli.metrics);
    let Ok((Target::Run(all), _)) = parse(&["all"]) else {
        panic!("`all` is not a run")
    };
    assert_eq!(all.len(), experiments::ALL.len());
    assert!(matches!(parse(&["list"]), Ok((Target::List, _))));
}

#[test]
fn vine_fig_rejects_bad_invocations() {
    for bad in [
        &[][..],
        &["fig99"],
        &["fig11", "abc"],
        &["fig11", "0"],
        &["fig11", "-3"],
        &["fig11", "4", "10", "2"],
        &["table2", "10"],
        &["all", "10"],
        &["list", "x"],
        &["fig7", "--chaos", "storm"],
        &["fig7", "--recovery", "default"],
        &["fig7", "--bench-json", "x.json"],
        &["fig7", "--stream-threshold", "0.5"],
        &["fig7", "--trace-out"],
        &["fig-chaos", "abc"],
        &["fig-shards", "--max-tenants", "x"],
        &["facility", "0"],
        &["fig-watch", "1"],
        &["check"],
        &["check", "fig7"],
        &["check", "all", "fig-watch"],
        &["check", "fig-watch", "--metrics"],
    ] {
        let err = parse(bad).expect_err(&format!("{bad:?} parsed"));
        assert!(err.contains("usage: vine-fig"), "{bad:?}: {err}");
    }
}

#[test]
fn vine_fig_check_targets_the_checked_entries() {
    let Ok((Target::Check(all), _)) = parse(&["check", "all"]) else {
        panic!("`check all` is not a check")
    };
    let names: Vec<&str> = all.iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        [
            "facility",
            "fig-shards",
            "fig-chaos",
            "fig-stream",
            "fig-watch"
        ]
    );
    let Ok((Target::Check(one), _)) = parse(&["check", "fig-watch"]) else {
        panic!("`check fig-watch` is not a check")
    };
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].name, "fig-watch");
}

#[test]
fn registry_names_are_unique() {
    let all = experiments::ALL;
    for (i, e) in all.iter().enumerate() {
        assert!(all[..i].iter().all(|o| o.name != e.name), "{}", e.name);
    }
}
