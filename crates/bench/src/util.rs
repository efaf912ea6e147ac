//! Formatting helpers for the experiment reports, plus the *frozen wall*
//! switch that makes report strings byte-comparable across runs.

use antdt_core::{Job, JobConfig, JobReport};
use antdt_sim::{SimTime, TimeSeries};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

/// While nonzero, stopwatch readings render as `0.0` and artifact files are
/// not written (both sides print the identical "skipped" line instead). The
/// perf harness and the parity tests freeze the wall so a serial and a
/// parallel `run("all")` produce byte-identical strings — wall time is the
/// only nondeterministic ingredient in any report. It counts the frozen
/// sections currently running, so sections may nest or overlap (parity tests
/// run side by side) and the wall thaws only when the last one ends.
static WALL_FROZEN: AtomicUsize = AtomicUsize::new(0);

/// Whether the wall clock is currently frozen (see [`freeze_wall`]).
pub fn wall_frozen() -> bool {
    WALL_FROZEN.load(Ordering::Relaxed) > 0
}

/// Run `f` with the wall clock frozen. The freeze is global (worker threads
/// of the experiment fan-out must observe it), so frozen sections should not be
/// run concurrently with sections that want real timings.
pub fn freeze_wall<R>(f: impl FnOnce() -> R) -> R {
    struct Unfreeze;
    impl Drop for Unfreeze {
        fn drop(&mut self) {
            WALL_FROZEN.fetch_sub(1, Ordering::Relaxed);
        }
    }
    WALL_FROZEN.fetch_add(1, Ordering::Relaxed);
    let _guard = Unfreeze;
    f()
}

/// Stopwatch reading honoring the frozen wall: elapsed seconds since `t0`,
/// or exactly `0.0` while frozen.
pub fn elapsed_secs(t0: std::time::Instant) -> f64 {
    if wall_frozen() {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    }
}

/// Best-of-`reps` wall time plus the (deterministic) report. Under a frozen
/// wall (see [`freeze_wall`]) the reported wall is exactly `0.0`, so report
/// strings stay byte-comparable across parity runs.
pub fn timed(reps: usize, mk: impl Fn() -> JobConfig) -> (f64, JobReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = Job::run(mk());
        best = best.min(elapsed_secs(t0));
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// Write a machine-readable artifact under `target/`, appending the outcome
/// line to `out`. Under a frozen wall the write is skipped and a fixed line is
/// printed instead, so parity runs stay byte-identical without racing on the
/// filesystem.
pub fn write_artifact(out: &mut String, filename: &str, json: &str) {
    if wall_frozen() {
        let _ = writeln!(out, "  skipped writing target/{filename} (frozen wall: parity run)");
        return;
    }
    let _ = std::fs::create_dir_all("target");
    let path = std::path::Path::new("target").join(filename);
    match std::fs::write(&path, json) {
        Ok(()) => {
            let _ = writeln!(out, "  wrote {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(out, "  could not write {}: {e}", path.display());
        }
    }
}

/// Section header.
pub fn header(id: &str, title: &str) -> String {
    format!("\n=== {id}: {title} ===\n")
}

/// A simple aligned table: `rows` of equal arity, first row is the header.
pub fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows[0].len();
    let mut widths = vec![0usize; cols];
    for r in rows {
        for (c, cell) in r.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        let line: Vec<String> =
            r.iter().enumerate().map(|(c, cell)| format!("{:<w$}", cell, w = widths[c])).collect();
        let _ = writeln!(out, "  {}", line.join("  "));
        if i == 0 {
            let _ = writeln!(
                out,
                "  {}",
                widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
            );
        }
    }
    out
}

pub fn secs(s: f64) -> String {
    format!("{s:.1}s")
}

pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Render a downsampled series as `t:v` pairs.
pub fn series_line(s: &TimeSeries, buckets: usize, unit: &str) -> String {
    s.downsample(buckets)
        .iter()
        .map(|&(t, v)| format!("{:.0}s:{v:.2}{unit}", t.as_secs_f64()))
        .collect::<Vec<_>>()
        .join("  ")
}

/// A crude sparkline over the series values.
pub fn sparkline(s: &TimeSeries, buckets: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let pts = s.downsample(buckets);
    if pts.is_empty() {
        return String::new();
    }
    let lo = pts.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let hi = pts.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    pts.iter().map(|&(_, v)| GLYPHS[(((v - lo) / span) * 7.0).round() as usize]).collect()
}

/// Format a sim instant compactly.
pub fn at(t: SimTime) -> String {
    format!("{:.0}s", t.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(&[
            vec!["method".into(), "jct".into()],
            vec!["BSP".into(), "8144s".into()],
            vec!["AntDT-ND".into(), "3982s".into()],
        ]);
        assert!(t.contains("method"));
        assert!(t.contains("--------"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn sparkline_spans_glyphs() {
        let mut s = TimeSeries::new();
        for i in 0..16 {
            s.push(SimTime::from_secs_f64(i as f64), i as f64);
        }
        let sp = sparkline(&s, 8);
        assert_eq!(sp.chars().count(), 8);
        assert!(sp.starts_with('▁'));
        assert!(sp.ends_with('█'));
        assert_eq!(sparkline(&TimeSeries::new(), 4), "");
    }

    /// An inner (or overlapping) frozen section ending must not thaw an
    /// outer one that is still running.
    #[test]
    fn nested_frozen_sections_keep_the_wall_frozen() {
        freeze_wall(|| {
            freeze_wall(|| assert!(wall_frozen()));
            assert!(wall_frozen(), "the inner section thawed the outer one");
            assert_eq!(elapsed_secs(std::time::Instant::now()), 0.0);
        });
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct(0.275), "+27.5%");
        assert_eq!(pct(-0.10), "-10.0%");
    }
}
