//! `Baseline::parse` on arbitrary text returns `Ok` or `Err`; it never
//! panics. Inputs are arbitrary strings, half of them shaped like the
//! baseline format (with arbitrary characters in every field) so they
//! also reach past the first field.

use proptest::prelude::*;
use vine_audit::Baseline;

const KINDS: &[&str] = &["count", "lines", "#", ""];

const CODES: &[&str] = &["A101", "A103", "A301", "A302", "Z999", "a101"];

const PATHS: &[&str] = &["crates/core/src/engine.rs", "x", " ", ""];

const NUMBERS: &[&str] = &["0", "7", "-1", "4294967295", "4294967296", "+3", "1.5", ""];

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

/// Lines shaped like the format (`count` and `lines` entries, or any
/// run of tab-separated fields), with arbitrary lines mixed in.
fn lines() -> BoxedStrategy<String> {
    let line = prop_oneof![
        (pick(CODES), pick(PATHS), pick(NUMBERS))
            .prop_map(|(c, p, n)| format!("count\t{c}\t{p}\t{n}")),
        (pick(PATHS), pick(NUMBERS)).prop_map(|(p, n)| format!("lines\t{p}\t{n}")),
        proptest::collection::vec(pick(KINDS), 1..6).prop_map(|f| f.join("\t")),
        text(),
    ];
    proptest::collection::vec(line, 0..5)
        .prop_map(|l| l.join("\n"))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// A baseline that parses renders to text that parses back to it.
    #[test]
    fn baseline_parse_never_panics(text in prop_oneof![text(), lines()]) {
        if let Ok(b) = Baseline::parse(&text) {
            prop_assert_eq!(Baseline::parse(&b.to_text()), Ok(b));
        }
    }
}
