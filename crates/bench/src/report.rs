//! Tabular reporting: every harness binary prints the same rows/series
//! the paper plots, plus the derived speedups its text quotes.

/// One plotted series of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, matching the paper's.
    pub label: String,
    /// One value per x-axis point.
    pub values: Vec<f64>,
}

impl Series {
    /// Construct from a label and values.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            values,
        }
    }
}

/// A reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// "Fig. 6a" etc.
    pub id: String,
    /// Caption-style description.
    pub title: String,
    /// X-axis label ("Number of processes").
    pub x_label: String,
    /// Y-axis label ("I/O rate (GB/s)" / "Time (s)").
    pub y_label: String,
    /// X-axis points.
    pub x: Vec<u64>,
    /// The series.
    pub series: Vec<Series>,
}

/// Format a rate in GB/s from (bytes, seconds).
pub fn rate_gbs(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 / secs / 1e9
}

/// Geometric mean of pairwise ratios `num[i]/den[i]` (the "×" numbers the
/// paper's text reports as averages), plus min and max.
pub fn speedup_stats(num: &[f64], den: &[f64]) -> (f64, f64, f64) {
    assert_eq!(num.len(), den.len());
    assert!(!num.is_empty());
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let geo = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    (min, geo.exp(), max)
}

/// The median of `xs` (upper middle for even counts) — the robust
/// estimate the wall-clock bins report for paired-round ratios.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Render a figure as CSV (x column + one column per series) — the format
/// plotting scripts consume.
pub fn figure_to_csv(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&fig.x_label.replace(',', "_"));
    for s in &fig.series {
        out.push(',');
        out.push_str(&s.label.replace(',', "_"));
    }
    out.push('\n');
    for (i, x) in fig.x.iter().enumerate() {
        out.push_str(&x.to_string());
        for s in &fig.series {
            out.push(',');
            out.push_str(&format!("{:.6}", s.values[i]));
        }
        out.push('\n');
    }
    out
}

/// Write a figure's CSV next to the given directory, named after its id
/// ("Fig. 6a" → `fig_6a.csv`). Returns the path written.
pub fn save_figure_csv(fig: &Figure, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
    let name = fig
        .id
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .replace("__", "_");
    let path = dir.join(format!("{name}.csv"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, figure_to_csv(fig))?;
    Ok(path)
}

/// Write a telemetry snapshot as `metrics.json` into the same directory
/// the figure CSVs land in. Returns the path written.
pub fn save_metrics_json(
    snapshot: &univistor_core::MetricsSnapshot,
    dir: &std::path::Path,
) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join("metrics.json");
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, snapshot.to_json())?;
    Ok(path)
}

/// Honor `--csv-dir`: write each figure's CSV plus the run's combined
/// telemetry as `metrics.json`, logging every path (or failure) to
/// stderr. The harness binaries all funnel through this.
pub fn emit_outputs(
    figs: &[&Figure],
    metrics: &univistor_core::MetricsSnapshot,
    dir: &std::path::Path,
) {
    for fig in figs {
        match save_figure_csv(fig, dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("csv write failed for {}: {e}", fig.id),
        }
    }
    match save_metrics_json(metrics, dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("metrics write failed: {e}"),
    }
}

/// Print a figure as an aligned table.
pub fn print_figure(fig: &Figure) {
    println!("== {} — {} ==", fig.id, fig.title);
    print!("{:>12}", fig.x_label);
    for s in &fig.series {
        print!("  {:>22}", s.label);
    }
    println!("   [{}]", fig.y_label);
    for (i, x) in fig.x.iter().enumerate() {
        print!("{:>12}", x);
        for s in &fig.series {
            print!("  {:>22.4}", s.values[i]);
        }
        println!();
    }
    println!();
}

/// Print "A is min–max× (avg) faster than B" for *rate* figures (higher
/// is better): speedup = rate_A / rate_B.
pub fn print_speedup(context: &str, fast: &Series, slow: &Series) {
    let (min, avg, max) = speedup_stats(&fast.values, &slow.values);
    println!(
        "  {context}: {} vs {}: {:.2}×–{:.2}× ({:.2}× avg)",
        fast.label, slow.label, min, max, avg
    );
}

/// Print speedups for *time* figures (lower is better): speedup =
/// time_B / time_A.
pub fn print_speedup_times(context: &str, fast: &Series, slow: &Series) {
    let (min, avg, max) = speedup_stats(&slow.values, &fast.values);
    println!(
        "  {context}: {} vs {}: {:.2}×–{:.2}× ({:.2}× avg)",
        fast.label, slow.label, min, max, avg
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_math() {
        assert!((rate_gbs(2_000_000_000, 2.0) - 1.0).abs() < 1e-12);
        assert!(rate_gbs(1, 0.0).is_infinite());
    }

    #[test]
    fn speedup_stats_ranges() {
        let (min, avg, max) = speedup_stats(&[2.0, 4.0, 8.0], &[1.0, 1.0, 1.0]);
        assert_eq!(min, 2.0);
        assert_eq!(max, 8.0);
        assert!((avg - 4.0).abs() < 1e-12); // geometric mean
    }

    #[test]
    fn csv_rendering_is_wellformed() {
        let fig = Figure {
            id: "Fig. 9".into(),
            title: "t".into(),
            x_label: "procs".into(),
            y_label: "s".into(),
            x: vec![64, 128],
            series: vec![
                Series::new("a,b", vec![1.0, 2.0]),
                Series::new("c", vec![3.5, 4.25]),
            ],
        };
        let csv = figure_to_csv(&fig);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "procs,a_b,c");
        assert!(lines[1].starts_with("64,1.000000,3.500000"));
    }

    #[test]
    fn figures_print_without_panicking() {
        let fig = Figure {
            id: "Fig. X".into(),
            title: "test".into(),
            x_label: "procs".into(),
            y_label: "GB/s".into(),
            x: vec![64, 128],
            series: vec![Series::new("a", vec![1.0, 2.0])],
        };
        print_figure(&fig);
        print_speedup("t", &fig.series[0], &fig.series[0]);
    }
}
