//! Plain-text table formatting for experiment outputs.
//!
//! Every reproduction binary prints the rows/series of its paper figure as
//! an aligned text table plus an optional CSV dump, so results can be
//! eyeballed and machine-read.

use std::fmt;

/// An aligned text table.
///
/// # Examples
///
/// ```
/// use etrain_sim::Table;
///
/// let mut t = Table::new("Fig. X", &["theta", "energy_j"]);
/// t.push_row(&["0.2", "812.5"]);
/// let text = t.to_string();
/// assert!(text.contains("Fig. X"));
/// assert!(text.contains("812.5"));
/// assert_eq!(t.to_csv(), "theta,energy_j\n0.2,812.5\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows are
    /// truncated to the header width.
    pub fn push_row(&mut self, cells: &[&str]) {
        let mut row: Vec<String> = cells
            .iter()
            .take(self.headers.len())
            .map(|s| (*s).to_owned())
            .collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Appends a row of pre-formatted strings.
    pub fn push_row_strings(&mut self, cells: Vec<String>) {
        let mut row = cells;
        row.truncate(self.headers.len());
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers, in display order.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The cell at data row `row` in the column named `column`.
    ///
    /// Negative `row` values index from the end (`-1` is the last row).
    /// Returns `None` if the row is out of range or no column has that
    /// header.
    pub fn cell(&self, row: isize, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        let index = if row < 0 {
            self.rows.len().checked_sub(row.unsigned_abs())?
        } else {
            usize::try_from(row).ok()?
        };
        self.rows.get(index)?.get(col).map(String::as_str)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV (headers first, no title).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
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
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| format!("{:>width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a float with the given number of decimal places (helper for
/// experiment tables).
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_padding() {
        let mut t = Table::new("T", &["a", "long_header"]);
        t.push_row(&["1"]);
        t.push_row(&["22", "3", "extra-ignored"]);
        let text = t.to_string();
        assert!(text.contains("== T =="));
        assert!(!text.contains("extra-ignored"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("T", &["x", "y"]);
        t.push_row_strings(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn cell_lookup_by_header_and_signed_row() {
        let mut t = Table::new("T", &["theta", "energy_j"]);
        t.push_row(&["0.5", "812.5"]);
        t.push_row(&["2.0", "640.0"]);
        assert_eq!(t.cell(0, "theta"), Some("0.5"));
        assert_eq!(t.cell(-1, "energy_j"), Some("640.0"));
        assert_eq!(t.cell(-2, "energy_j"), Some("812.5"));
        assert_eq!(t.cell(2, "theta"), None);
        assert_eq!(t.cell(-3, "theta"), None);
        assert_eq!(t.cell(0, "missing"), None);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("E", &["only"]);
        assert!(t.is_empty());
        assert!(t.to_string().contains("only"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.61803, 2), "1.62");
        assert_eq!(fmt_f(1000.0, 0), "1000");
    }
}
