//! Console tables and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// Write `contents` to `results/<name>` (relative to the invocation
/// directory), creating the directory. Prints the path written. Errors
/// are reported, not fatal — the console output is the primary artifact.
pub fn write_csv(name: &str, contents: &str) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("  [wrote {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Render an aligned text table: a header row plus data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:<width$}", cell, width = widths[i]);
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    fmt_row(&header_cells, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Render rows as CSV (naive quoting: fields with commas get quoted).
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = header
        .iter()
        .map(|h| quote(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
        // Data starts at the same column in every row.
        let col = lines[2].find('1').unwrap();
        assert_eq!(lines[3].find("22").unwrap(), col);
    }

    #[test]
    fn csv_quotes_commas() {
        let c = to_csv(&["a"], &[vec!["x,y".into()]]);
        assert_eq!(c, "a\n\"x,y\"\n");
    }
}
