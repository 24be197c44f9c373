//! Plain-text table formatting for the experiment binaries, mirroring the
//! layout of the paper's tables (left-aligned row labels, right-aligned
//! numeric columns).

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have the same number of cells as the header).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width does not match header"
        );
        self.rows.push(cells);
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    out.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            out.push('\n');
        };
        emit_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit_row(row, &mut out);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with a fixed number of decimals (helper for table cells).
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["graph", "avg. cut", "avg. t [s]"]);
        t.add_row(vec!["rgg17'".into(), "15339".into(), "24.61".into()]);
        t.add_row(vec!["eur'".into(), "1935".into(), "295.81".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("avg. cut"));
        assert!(lines[2].starts_with("rgg17'"));
        // All rows have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_wrong_row_width() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(10.0, 3), "10.000");
    }
}
