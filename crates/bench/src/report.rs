//! Plain-text report formatting: markdown tables and JSON series.

use std::fmt::Write as _;

/// A simple markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", render_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "| {} |", sep.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// Formats a float with the given number of decimals.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Writes a `BENCH_*.json` artifact: a seed-stamped object wrapping
/// pre-rendered row objects, `{"seed":N,"rows":[…]}`. Stamping the
/// effective seed into every artifact makes any checked-in benchmark
/// file reproducible without consulting the run log.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_json_artifact(
    path: &std::path::Path,
    seed: u64,
    rows: &[String],
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::fs::File::create(path)?;
    writeln!(out, "{{\"seed\":{seed},\"rows\":[")?;
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(out, "  {row}{sep}")?;
    }
    writeln!(out, "]}}")?;
    Ok(())
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a labeled `(x, y)` series as a single-line JSON object —
/// `{"series":…,"tags":{…},"x":…,"y":…,"points":[[x,y],…]}` — without
/// any serialization dependency. Tags carry sweep parameters (strategy,
/// drop probability, …) so downstream plotting can group lines.
pub fn json_series(
    name: &str,
    tags: &[(&str, String)],
    x_label: &str,
    y_label: &str,
    points: &[(f64, f64)],
) -> String {
    let mut out = format!("{{\"series\":\"{}\",\"tags\":{{", json_escape(name));
    for (i, (k, v)) in tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    let _ = write!(
        out,
        "}},\"x\":\"{}\",\"y\":\"{}\",\"points\":[",
        json_escape(x_label),
        json_escape(y_label)
    );
    for (i, (x, y)) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{x:.6},{y:.6}]");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "22"]);
        t.row(["333", "4"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a"));
        assert!(md.contains("| 333 | 4"));
        assert_eq!(md.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_row_panics() {
        Table::new(["a"]).row(["1", "2"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn json_series_shape() {
        let s = json_series(
            "recall",
            &[("strategy", "redelegate".into()), ("drop", "0.2".into())],
            "crash_fraction",
            "recall",
            &[(0.1, 0.95), (0.2, 0.9)],
        );
        assert_eq!(
            s,
            "{\"series\":\"recall\",\"tags\":{\"strategy\":\"redelegate\",\
             \"drop\":\"0.2\"},\"x\":\"crash_fraction\",\"y\":\"recall\",\
             \"points\":[[0.100000,0.950000],[0.200000,0.900000]]}"
        );
    }

    #[test]
    fn json_series_escapes_strings() {
        let s = json_series("a\"b\\c\n", &[], "x", "y", &[]);
        assert!(s.contains("a\\\"b\\\\c\\n"));
    }

    #[test]
    fn json_artifact_is_seed_stamped() {
        let dir = std::env::temp_dir().join("hyperdex_report_json_test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("BENCH_test.json");
        write_json_artifact(&path, 1234, &["{\"a\":1}".into(), "{\"a\":2}".into()]).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with("{\"seed\":1234,\"rows\":[\n"));
        assert!(text.contains("  {\"a\":1},\n"));
        assert!(text.contains("  {\"a\":2}\n"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
