//! README's "Diagnostic codes" table claims to come from `Code::ALL` and
//! `Code::describe()`; this test holds it to that.

use vine_lint::Code;

const README: &str = include_str!("../../../README.md");

/// The `(code, meaning)` cells of the table that follows `heading`.
fn table_after(heading: &str) -> Vec<(&'static str, &'static str)> {
    let start = README.find(heading).expect("README has the lint table");
    README[start..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator rows
        .map(|row| {
            let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 3, "not a Code | Severity | Meaning row: {row}");
            (cells[0], cells[2])
        })
        .collect()
}

#[test]
fn readme_table_matches_code_all_and_describe() {
    let rows = table_after("Diagnostic codes (from `vine_lint::Code::ALL`");
    let codes: Vec<&str> = rows.iter().map(|(code, _)| *code).collect();
    let want: Vec<String> = Code::ALL.iter().map(Code::to_string).collect();
    assert_eq!(codes, want, "README codes differ from Code::ALL");
    for ((code, meaning), c) in rows.into_iter().zip(Code::ALL) {
        assert_eq!(meaning, c.describe(), "README meaning of {code}");
    }
}
