//! Differential test of G003 (duplicate file names): the sort-based
//! check in `graph::lint` against a copy of the map-counting version it
//! replaced, on random graphs with injected duplicate names.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vine_dag::{FileId, TaskGraph, TaskKind};
use vine_lint::{graph, Code, Diagnostic, Locus, Severity};

/// The G003 findings as the `BTreeMap<&str, usize>` version made them:
/// count every name, then walk the files in order and flag each repeated
/// name once, at its first file.
fn g003_by_map(graph: &TaskGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for f in graph.files() {
        *by_name.entry(f.name.as_str()).or_insert(0) += 1;
    }
    for f in graph.files() {
        if by_name.get(f.name.as_str()).copied().unwrap_or(0) > 1 {
            out.push(Diagnostic {
                code: Code::G003,
                severity: Severity::Error,
                locus: Locus::File(f.id),
                message: format!("file name \"{}\" is shared by multiple files", f.name),
                suggestion: Some("give every file a unique logical name".into()),
            });
            by_name.insert(f.name.as_str(), 0);
        }
    }
    out
}

type Fields = (Code, Severity, Locus, String, Option<String>);

fn fields(d: &Diagnostic) -> Fields {
    (
        d.code,
        d.severity,
        d.locus,
        d.message.clone(),
        d.suggestion.clone(),
    )
}

/// External files and tasks named from small pools, so names repeat on
/// their own; each task reads one or two earlier files and writes one or
/// two outputs (`<task>.out<i>`).
fn graph_of(externals: &[u8], tasks: &[(u8, usize, usize, bool)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    for &e in externals {
        g.add_external_file(format!("e{e}"), 1_000);
    }
    for &(name, a, b, two_outputs) in tasks {
        let n = g.file_count();
        let mut inputs = vec![FileId((a % n) as u32)];
        if b % 3 != 0 && b % n != a % n {
            inputs.push(FileId((b % n) as u32));
        }
        let outputs: &[u64] = if two_outputs { &[10, 20] } else { &[10] };
        g.add_task(format!("t{name}"), TaskKind::Process, inputs, outputs, 1.0);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The report opens with exactly the old G003 findings, in the same
    /// order with the same loci and text, and holds no other G003.
    #[test]
    fn g003_matches_the_map_version(
        externals in collection::vec(0u8..6, 1..8),
        tasks in collection::vec((0u8..5, 0usize..64, 0usize..64, any::<bool>()), 1..12),
        renames in collection::vec((0usize..64, 0usize..64), 0..4),
    ) {
        let mut g = graph_of(&externals, &tasks);
        // Inject duplicates: copy one file's name onto another.
        let n = g.file_count();
        let (_, files) = g.raw_parts_mut();
        for (to, from) in renames {
            files[to % n].name = files[from % n].name.clone();
        }

        let want: Vec<Fields> = g003_by_map(&g).iter().map(fields).collect();
        let got: Vec<Fields> = graph::lint(&g).diagnostics().iter().map(fields).collect();
        prop_assert_eq!(&got[..want.len().min(got.len())], &want[..]);
        prop_assert!(got[want.len()..].iter().all(|d| d.0 != Code::G003), "{:?}", got);
    }
}

#[test]
fn each_repeated_name_is_flagged_once_at_its_first_file() {
    let mut g = graph_of(&[0, 1, 0, 2, 1, 1], &[(0, 0, 0, false)]);
    let (_, files) = g.raw_parts_mut();
    files[6].name = "e2".into();
    let loci: Vec<Locus> = graph::lint(&g)
        .diagnostics()
        .iter()
        .filter(|d| d.code == Code::G003)
        .map(|d| d.locus)
        .collect();
    let at = |i| Locus::File(FileId(i));
    assert_eq!(loci, vec![at(0), at(1), at(3)]);
    assert_eq!(loci.len(), g003_by_map(&g).len());
}
