//! The obs text parsers, `JsonValue::parse` and
//! `MetricsRegistry::parse_text`, on arbitrary text return `Ok` or
//! `Err`; they never panic. Inputs are arbitrary strings, half of them
//! shaped by each grammar (with arbitrary text in every slot) so they
//! also reach past the first token.

use proptest::prelude::*;
use vine_obs::json::JsonValue;
use vine_obs::MetricsRegistry;

const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\uD800", "\\uDC00", "\\u00e9", "\\n", ":", ",",
    "true", "false", "null", "-", "0", "1", ".", "e", "E+", "1e999", "-0.5", " ", "\n", "\"k\"",
];

const METRIC_NAMES: &[&str] = &["h", "x.y", "#", "counter", "min=1"];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "-1",
    "0.5",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "1e-320",
    "",
    "+2",
    "18446744073709551615",
    "18446744073709551616",
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

/// Token soup: a run of grammar tokens and arbitrary characters.
fn tokens(tokens: &'static [&'static str]) -> BoxedStrategy<String> {
    proptest::collection::vec(pick(tokens), 0..24)
        .prop_map(|p| p.concat())
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

/// Metrics text shaped like the format, one `kind name fields` line per
/// metric, with arbitrary lines and characters mixed in.
fn metrics_lines() -> BoxedStrategy<String> {
    let counts = || {
        proptest::collection::vec(pick(NUMBERS), 1..4)
            .prop_map(|c| format!("counts={}", c.join(",")))
    };
    let line = prop_oneof![
        (pick(METRIC_NAMES), pick(NUMBERS)).prop_map(|(n, v)| format!("counter {n} {v}")),
        (pick(METRIC_NAMES), pick(NUMBERS)).prop_map(|(n, v)| format!("gauge {n} {v}")),
        (pick(METRIC_NAMES), pick(NUMBERS), counts())
            .prop_map(|(n, m, c)| format!("hist {n} min={m} {c}")),
        (pick(METRIC_NAMES), counts(), pick(NUMBERS))
            .prop_map(|(n, c, m)| format!("hist {n} {c} min={m}")),
        text(),
    ];
    proptest::collection::vec(line, 0..4)
        .prop_map(|lines| lines.join("\n"))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn json_parse_never_panics(text in prop_oneof![text(), tokens(JSON_TOKENS)]) {
        let _ = JsonValue::parse(&text);
    }

    /// A registry that parses renders to text that parses back to the
    /// same text.
    #[test]
    fn metrics_parse_never_panics(text in prop_oneof![text(), metrics_lines()]) {
        if let Ok(reg) = MetricsRegistry::parse_text(&text) {
            let rendered = reg.to_text();
            let again = MetricsRegistry::parse_text(&rendered).map(|r| r.to_text());
            prop_assert_eq!(again, Ok(rendered));
        }
    }
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let text = open.repeat(100_000);
        assert!(JsonValue::parse(&text).is_err());
    }
}

#[test]
fn huge_histogram_counts_parse_without_replaying_them() {
    let text = "hist h min=1 counts=0,18446744073709551615\n";
    let reg = MetricsRegistry::parse_text(text).unwrap();
    assert!(reg.to_text().ends_with(text));
}
