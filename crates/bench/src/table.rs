//! Plain-text aligned tables for figure/table output.

/// Render `rows` under `headers`: right-aligned columns two spaces
/// apart, a dashed rule under the headers, a newline after every line.
///
/// # Panics
/// Panics when a row's arity differs from the headers'.
pub fn table(headers: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let line = |cells: &[&str]| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    let mut out = line(headers) + &"-".repeat(rule) + "\n";
    for row in &rows {
        out += &line(&row.iter().map(String::as_str).collect::<Vec<_>>());
    }
    out
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format bytes as KB with 1 decimal.
pub fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let rows = [
            vec!["16".into(), f2(1.5), f2(20.25)],
            vec!["128".into(), f2(11.0), f2(3.5)],
        ];
        let s = table(&["n", "GP", "NORM"], rows);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("NORM"));
        assert!(lines[2].ends_with("20.25"));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        table(&["a", "b"], [vec!["1".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f1(1.28), "1.3");
        assert_eq!(kb(2048), "2.0");
    }
}
