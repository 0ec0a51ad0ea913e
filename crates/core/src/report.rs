//! Plain-text table/series rendering shared by benches and examples.

use core::fmt;

/// A renderable text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        line(f)?;
        write!(f, "|")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        line(f)?;
        for row in &self.rows {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)?;
        }
        line(f)
    }
}

/// Formats a probability compactly (scientific below 1e-3).
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p < 1e-3 {
        format!("{p:.2e}")
    } else {
        format!("{p:.4}")
    }
}

/// Formats a year count compactly.
pub fn fmt_years(y: f64) -> String {
    if y.is_infinite() {
        "inf".to_string()
    } else if y >= 100.0 {
        format!("{y:.0}")
    } else if y >= 1.0 {
        format!("{y:.1}")
    } else {
        format!("{y:.2e}")
    }
}

/// A labelled (x, y) series, for figure-shaped outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Renders several series as aligned text columns, sampling at the
    /// x-values of the first series.
    pub fn render_columns(series: &[Series], x_label: &str, max_rows: usize) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "{x_label:>10}");
        for s in series {
            let _ = write!(out, " {:>16}", s.label);
        }
        out.push('\n');
        let Some(first) = series.first() else {
            return out;
        };
        let step = (first.points.len() / max_rows.max(1)).max(1);
        for (i, &(x, _)) in first.points.iter().enumerate() {
            if i % step != 0 {
                continue;
            }
            let _ = write!(out, "{x:>10.2}");
            for s in series {
                let y = sample_at(s, x);
                match y {
                    Some(v) => {
                        let _ = write!(out, " {v:>16.3}");
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

fn sample_at(s: &Series, x: f64) -> Option<f64> {
    // Latest point at or before x.
    s.points
        .iter()
        .take_while(|&&(px, _)| px <= x)
        .last()
        .map(|&(_, y)| y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["round", "benign", "malicious"]);
        t.push_row(vec!["12".into(), "44".into(), "89".into()]);
        t.push_row(vec!["13".into(), "48".into(), "89".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("| round | benign | malicious |"));
        assert!(s.contains("|    12 |     44 |        89 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn prob_and_year_formatting() {
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(0.25), "0.2500");
        assert!(fmt_prob(1e-6).contains('e'));
        assert_eq!(fmt_years(f64::INFINITY), "inf");
        assert_eq!(fmt_years(250.4), "250");
        assert_eq!(fmt_years(20.45), "20.4");
        assert!(fmt_years(0.001).contains('e'));
    }

    #[test]
    fn series_columns_sample_latest_value() {
        let a = Series {
            label: "a".into(),
            points: vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
        };
        let b = Series {
            label: "b".into(),
            points: vec![(0.0, 5.0), (1.5, 6.0)],
        };
        let text = Series::render_columns(&[a, b], "hours", 10);
        assert!(text.contains("hours"));
        assert!(text.lines().count() >= 4);
    }
}
