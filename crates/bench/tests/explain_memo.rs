//! `vine-sim --explain-memo`, end to end: the run writes its caches back,
//! and the edited resubmission's memo plan finds outputs resident in them.

use std::process::Command;

#[test]
fn explain_memo_writes_dot_and_finds_resident_outputs() {
    let dir = std::env::temp_dir().join(format!("vine-explain-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dot = dir.join("memo.dot");
    let out = Command::new(env!("CARGO_BIN_EXE_vine-sim"))
        .args(["--workload", "dv3-small", "--scale", "8", "--explain-memo"])
        .arg(&dot)
        .output()
        .expect("vine-sim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "vine-sim failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let graph = std::fs::read_to_string(&dot).expect("DOT file written");
    assert!(graph.starts_with("digraph"), "not a DOT file");

    // "memo explain (edited resubmission): N must-run, M resident, ..."
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("memo explain (edited resubmission): "))
        .unwrap_or_else(|| panic!("no memo explain line in:\n{stdout}"));
    let count = |what: &str| -> u64 {
        line.split(", ")
            .find_map(|part| part.strip_suffix(what))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {what:?} count in {line:?}"))
    };
    assert!(
        count(" must-run") > 0,
        "the edit must re-run something: {line}"
    );
    assert!(
        count(" resident") > 0,
        "the written-back caches hold nothing: {line}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
