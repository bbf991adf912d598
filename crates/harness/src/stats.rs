//! Fixed-width tables, small statistics, and the parallel trial loop —
//! the helpers every experiment shares.

use std::fmt::Display;

/// Fixed-width table printer: pass header once, then rows; everything is
/// right-aligned to the header widths (minimum 8 columns wide).
#[derive(Debug)]
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Prints the header row and remembers column widths.
    pub fn header(cols: &[&str]) -> Self {
        let widths: Vec<usize> = cols.iter().map(|c| c.len().max(8)).collect();
        let line: Vec<String> = cols
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        Table { widths }
    }

    /// Prints one data row.
    pub fn row<D: Display>(&self, cells: &[D]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with 3 significant-ish decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Least-squares slope of `log2(y)` against `log2(x)`: the empirical
/// scaling exponent. Requires at least two positive points.
///
/// ```rust
/// // y = x²  →  slope 2.
/// let xs = [2.0, 4.0, 8.0, 16.0];
/// let ys = [4.0, 16.0, 64.0, 256.0];
/// let s = ba_exp::loglog_slope(&xs, &ys);
/// assert!((s - 2.0).abs() < 1e-9);
/// ```
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "need matched points");
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.log2(), y.log2()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let num: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let den: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    num / den
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Runs `trials` seeds of `f` in parallel (on `ba-par`'s persistent
/// worker pool, via [`ba_par::par_map_index`]) and returns the results
/// in seed order.
pub fn par_trials<T: Send, F: Fn(u64) -> T + Sync>(trials: u64, f: F) -> Vec<T> {
    ba_par::par_map_index(trials as usize, |i| f(i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_linear_is_one() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys = [3.0, 6.0, 12.0, 24.0];
        assert!((loglog_slope(&xs, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn par_trials_ordered() {
        let out = par_trials(20, |s| s * 2);
        assert_eq!(out, (0..20).map(|s| s * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn table_prints_without_panic() {
        let t = Table::header(&["n", "bits"]);
        t.row(&["64", "123"]);
        t.row(&[f3(1.23456), f1(9.87)]);
    }
}
