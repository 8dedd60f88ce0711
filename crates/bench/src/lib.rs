//! # cil-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md §13 and EXPERIMENTS.md):
//!
//! | binary                | artifact |
//! |-----------------------|----------|
//! | `fig1_forces`         | Fig. 1 — forces on a bunch from the gap voltage |
//! | `fig2_signals`        | Fig. 2 — input/output signals, h = 2 snapshot |
//! | `fig5_phase`          | Fig. 5 — phase traces, simulator vs real-beam stand-in |
//! | `table_schedule`      | §IV-B — schedule lengths & max revolution frequencies |
//! | `jitter_table`        | §I motivation — software vs CGRA timing jitter |
//! | `ablation_*`          | design-choice ablations A1–A6 |
//!
//! plus the `bench_*` throughput bins for the real-time claims. Binaries
//! print aligned tables to stdout and drop CSV artifacts into `results/`;
//! every timing claim goes through [`measure`], which writes its JSON
//! under `target/bench/`.

pub mod loop_bench;
pub mod measure;
pub mod reftrack_bench;
pub mod service_bench;

use std::fs;
use std::path::{Path, PathBuf};

/// Write a CSV artifact to `results/` (created on demand); returns the
/// path written.
pub fn write_csv(name: &str, contents: &str) -> PathBuf {
    let _ = fs::create_dir_all("results");
    let path = Path::new("results").join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Accumulates a CSV artifact row by row: header written up front, every
/// row arity-checked against it, fields escaped per RFC 4180 (via
/// [`cil_core::campaign::csv_escape_field`]) only when they contain a
/// comma, quote or line break — plain numeric fields pass through
/// byte-identical to the hand-rolled `writeln!` they replace.
pub struct CsvWriter {
    columns: usize,
    buf: String,
}

impl CsvWriter {
    /// New writer with the given column headers (headers are escaped by
    /// the same rules as data fields).
    pub fn new(headers: &[&str]) -> Self {
        let mut w = Self {
            columns: headers.len(),
            buf: String::new(),
        };
        w.push_row(headers.iter().copied());
        w
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, fields: &[String]) -> &mut Self {
        assert_eq!(fields.len(), self.columns, "column count mismatch");
        self.push_row(fields.iter().map(String::as_str));
        self
    }

    fn push_row<'a>(&mut self, fields: impl Iterator<Item = &'a str>) {
        for (i, field) in fields.enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            if field.contains(['"', ',', '\n', '\r']) {
                self.buf
                    .push_str(&cil_core::campaign::csv_escape_field(field));
            } else {
                self.buf.push_str(field);
            }
        }
        self.buf.push('\n');
    }

    /// The CSV text accumulated so far.
    pub fn contents(&self) -> &str {
        &self.buf
    }

    /// Write to `results/<name>`; returns the path written.
    pub fn write(&self, name: &str) -> PathBuf {
        write_csv(name, &self.buf)
    }
}

/// A minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i] + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Parse a `--key value`-style flag from `std::env::args`.
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True if a bare `--flag` is present.
pub fn arg_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Format a paper-vs-measured comparison line.
pub fn compare_line(metric: &str, paper: &str, measured: &str) -> String {
    format!("  {metric:<42} paper: {paper:<18} ours: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long_header", "c"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        t.row(&["wide_cell".into(), "x".into(), "y".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long_header"));
        // Columns align: the second column starts at the same offset.
        let off0 = lines[0].find("long_header").unwrap();
        let off2 = lines[2].find('2').unwrap();
        let off3 = lines[3].find('x').unwrap();
        assert_eq!(off2, off0);
        assert_eq!(off3, off0);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_checks_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn csv_writer_passes_plain_fields_through_unchanged() {
        let mut w = CsvWriter::new(&["bits", "fs_hz", "noise_ps"]);
        w.row(&["8".into(), "1279.63".into(), "4.120".into()]);
        w.row(&["14".into(), "1280.01".into(), "0.310".into()]);
        assert_eq!(
            w.contents(),
            "bits,fs_hz,noise_ps\n8,1279.63,4.120\n14,1280.01,0.310\n"
        );
    }

    #[test]
    fn csv_writer_escapes_only_when_needed() {
        let mut w = CsvWriter::new(&["name", "msg"]);
        w.row(&["plain".into(), "a,b \"quoted\"\nnext".into()]);
        assert_eq!(
            w.contents(),
            "name,msg\nplain,\"a,b \"\"quoted\"\" next\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn csv_writer_checks_arity() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&["1".into()]);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["prog", "--side", "sim", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--side").as_deref(), Some("sim"));
        assert_eq!(arg_value(&args, "--missing"), None);
        assert!(arg_flag(&args, "--quick"));
        assert!(!arg_flag(&args, "--verbose"));
    }
}
