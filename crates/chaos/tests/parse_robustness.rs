//! `FaultPlan::parse` on arbitrary text returns `Ok` or `Err`; it never
//! panics. Inputs are arbitrary strings, half of them shaped like the
//! spec grammar (with arbitrary characters in every slot) so they also
//! reach past the first token.

use proptest::prelude::*;
use vine_chaos::FaultPlan;

const FAMILIES: &[&str] = &["preempt", "straggler", "taskfail", "link", "bitrot", "seed"];

const KEYS: &[&str] = &[
    "rate", "start", "dur", "slow", "frac", "prob", "factor", "exit",
];

const VALUES: &[&str] = &[
    "0",
    "0.5",
    "1",
    "2",
    "-1",
    "1e308",
    "-1e308",
    "NaN",
    "inf",
    "-inf",
    "1e-320",
    "",
    "18446744073709551615",
    "18446744073709551616",
    "crash",
    "oom",
    "io",
];

/// Any string, as a run of arbitrary scalars and ASCII characters.
fn text() -> BoxedStrategy<String> {
    proptest::collection::vec(
        prop_oneof![
            any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}')),
            (0u8..128).prop_map(char::from),
        ],
        0..64,
    )
    .prop_map(|chars| chars.into_iter().collect())
    .boxed()
}

/// Usually one of `words`, sometimes a few arbitrary characters.
fn pick(words: &'static [&'static str]) -> BoxedStrategy<String> {
    let word = move || (0..words.len()).prop_map(move |i| words[i].to_string());
    let noise = proptest::collection::vec(any::<u32>(), 0..3).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect::<String>()
    });
    prop_oneof![word(), word(), word(), noise].boxed()
}

/// `;`-separated clauses shaped like the grammar: presets, `seed=N` and
/// `family:key=value,...`, with arbitrary clauses mixed in.
fn clauses() -> BoxedStrategy<String> {
    let kv = (pick(KEYS), pick(VALUES)).prop_map(|(k, v)| format!("{k}={v}"));
    let clause = prop_oneof![
        pick(&FaultPlan::PRESETS),
        pick(VALUES).prop_map(|v| format!("seed={v}")),
        (pick(FAMILIES), proptest::collection::vec(kv, 0..5))
            .prop_map(|(f, kvs)| format!("{f}:{}", kvs.join(","))),
        text(),
    ];
    proptest::collection::vec(clause, 0..4)
        .prop_map(|c| c.join(";"))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// A plan that parses also validates.
    #[test]
    fn fault_plan_parse_never_panics(spec in prop_oneof![text(), clauses()]) {
        if let Ok(plan) = FaultPlan::parse(&spec) {
            prop_assert!(plan.validate().is_ok(), "{spec:?} parsed to an invalid plan");
        }
    }
}
