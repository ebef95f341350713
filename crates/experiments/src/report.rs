//! Exhibit rendering: aligned text tables plus CSV files.

use std::io::Write;
use std::path::Path;

/// One regenerated table or figure: a grid of cells with a header row.
///
/// Figures are represented as tables whose first column is the x-axis
/// (`D_q`) and whose remaining columns are the series — the same rows a
/// plot of the paper's figure would be drawn from.
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// Short id, e.g. `"fig5"` — also the CSV file stem.
    pub id: String,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (assumptions, deviations).
    pub notes: Vec<String>,
    /// Side-channel files written next to the CSV: `(file name, content)`.
    /// Measured exhibits attach their metrics snapshot and JSONL query
    /// trace here.
    pub artifacts: Vec<(String, String)>,
}

impl Exhibit {
    /// Creates an empty exhibit.
    pub fn new(id: &str, title: &str, headers: Vec<&str>) -> Self {
        Exhibit {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Appends a data row; must match the header arity.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity mismatch in {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Formats a float the way the paper's tables read: integers plain,
    /// small values with enough precision to compare.
    pub fn fmt(v: f64) -> String {
        if !v.is_finite() {
            return "∞".into();
        }
        if v == v.trunc() && v.abs() < 1e12 {
            format!("{}", v as i64)
        } else if v.abs() >= 100.0 {
            format!("{v:.0}")
        } else if v.abs() >= 1.0 {
            format!("{v:.1}")
        } else {
            format!("{v:.3}")
        }
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Prints the exhibit to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Writes `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{}.csv", self.id)))?);
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()
    }

    /// Writes every attached artifact into `dir` under its own file name,
    /// minus wall-clock: these files are committed, so a diff in them must
    /// mean behaviour changed. Live sinks keep `latency_ns`.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<()> {
        if self.artifacts.is_empty() {
            return Ok(());
        }
        std::fs::create_dir_all(dir)?;
        for (name, content) in &self.artifacts {
            std::fs::write(dir.join(name), without_wall_clock(content))?;
        }
        Ok(())
    }
}

/// Drops the trailing `latency_ns` key from trace lines and the `*_ns`
/// histograms from metrics lines.
fn without_wall_clock(content: &str) -> String {
    let mut out = String::with_capacity(content.len());
    for line in content.lines() {
        if let Some(cut) = line.find(",\"latency_ns\":") {
            out.push_str(&line[..cut]);
            out.push('}');
        } else if line.split(' ').next().is_some_and(|n| n.ends_with("_ns")) {
            continue;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut e = Exhibit::new("t", "test", vec!["D_q", "RC"]);
        e.push_row(vec!["1".into(), "10.5".into()]);
        e.push_row(vec!["100".into(), "3".into()]);
        e.note("hello");
        let s = e.render();
        assert!(s.contains("D_q"));
        assert!(s.contains("note: hello"));
        // Right-aligned: the 1 lines up under the q of D_q.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    /// The strip cuts a trace line at `latency_ns`: every other key sits
    /// before it and survives, the `*_ns` histograms go, counters stay.
    #[test]
    fn without_wall_clock_cuts_only_the_clock() {
        let trace =
            "{\"facility\":\"bssf\",\"false_drops\":3,\"cache_misses\":null,\"latency_ns\":5150}\n";
        assert_eq!(
            without_wall_clock(trace),
            "{\"facility\":\"bssf\",\"false_drops\":3,\"cache_misses\":null}\n"
        );
        let metrics = "bssf.false_drops 64\nbssf.latency_ns count=2 sum=9\nbssf.pages count=2\n";
        assert_eq!(
            without_wall_clock(metrics),
            "bssf.false_drops 64\nbssf.pages count=2\n"
        );
        // The last key of the real schema is the clock.
        let ev = setsig_obs::QueryTrace {
            facility: "nix".to_owned(),
            predicate: "InSubset".to_owned(),
            d_q: 1,
            f_bits: None,
            m_weight: None,
            slices_touched: None,
            early_exit: false,
            pages: Some(2),
            candidates: 1,
            exact: false,
            false_drops: Some(1),
            cache_hits: None,
            cache_misses: None,
            latency_ns: 77,
        };
        let stripped = without_wall_clock(&ev.to_json());
        assert!(
            stripped.ends_with(",\"cache_misses\":null}\n"),
            "{stripped}"
        );
        assert!(stripped.contains("\"false_drops\":1") && !stripped.contains("latency_ns"));
    }

    #[test]
    fn fmt_rules() {
        assert_eq!(Exhibit::fmt(3.0), "3");
        assert_eq!(Exhibit::fmt(123.4), "123");
        assert_eq!(Exhibit::fmt(3.25), "3.2");
        assert_eq!(Exhibit::fmt(0.001234), "0.001");
        assert_eq!(Exhibit::fmt(f64::INFINITY), "∞");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut e = Exhibit::new("t", "test", vec!["a", "b"]);
        e.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("setsig-csv-{}", std::process::id()));
        let mut e = Exhibit::new("sample", "test", vec!["x", "y"]);
        e.push_row(vec!["1".into(), "2".into()]);
        e.write_csv(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("sample.csv")).unwrap();
        assert_eq!(text, "x,y\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_artifacts_carry_no_wall_clock() {
        // The same run timed twice differs only in its nanoseconds; what
        // lands on disk must not.
        let run = |ns: u64| {
            let mut e = Exhibit::new("x", "test", vec!["a"]);
            e.artifacts.push((
                "x.trace.jsonl".into(),
                format!("{{\"facility\":\"ssf\",\"pages\":8,\"latency_ns\":{ns}}}\n"),
            ));
            e.artifacts.push((
                "x.metrics.txt".into(),
                format!("ssf.latency_ns count=1 sum={ns} mean={ns}.0 p99<={ns}\nssf.queries 1\n"),
            ));
            e
        };
        let dir = std::env::temp_dir().join(format!("setsig-art-{}", std::process::id()));
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        run(5150).write_artifacts(&dir).unwrap();
        let first = (read("x.trace.jsonl"), read("x.metrics.txt"));
        run(777).write_artifacts(&dir).unwrap();
        assert_eq!((read("x.trace.jsonl"), read("x.metrics.txt")), first);
        assert_eq!(first.0, "{\"facility\":\"ssf\",\"pages\":8}\n");
        assert_eq!(first.1, "ssf.queries 1\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
