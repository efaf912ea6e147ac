//! The metrics registry: counters, gauges and fixed-bucket histograms keyed by
//! `(name, labels)`, with a Prometheus text-exposition renderer and a JSON
//! snapshot.
//!
//! Registration (name/label lookup) takes a lock and may allocate; the handles
//! it returns are `Arc<AtomicU64>` cells, so the hot path — `inc` / `add` /
//! `set` / `observe` on an already-registered handle — is a single relaxed
//! atomic op with no allocation and no lock. Process-level users (the what-if
//! service) register once and update through the cached handles; a simulated
//! job keeps plain counts and writes them into a fresh registry once, at
//! report time.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock `m`. A poisoned lock is recovered rather than propagated, so a panic
/// elsewhere in the process does not disable the registry.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing counter. Clones share the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a point-in-time value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds in ascending order; an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (conventionally
/// microseconds). Clones share the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(mut bounds: Vec<u64>) -> Self {
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets,
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation. Lock-free and allocation-free.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Non-cumulative per-bucket counts (last entry is the `+Inf` bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// Label set for a metric series, kept sorted by key so that identical label
/// sets written in any order resolve to the same series and render identically.
/// Keys and values are interned [`Arc<str>`]s: each distinct string is
/// allocated once per registry, and repeat lookups only bump refcounts.
type Labels = Vec<(Arc<str>, Arc<str>)>;

/// Get or insert `s` in the intern pool. `BTreeSet::get` accepts `&str`
/// because `Arc<str>: Borrow<str>`, so the hit path allocates nothing.
fn intern_in(pool: &mut BTreeSet<Arc<str>>, s: &str) -> Arc<str> {
    if let Some(a) = pool.get(s) {
        return a.clone();
    }
    let a: Arc<str> = Arc::from(s);
    pool.insert(a.clone());
    a
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry. Series are keyed `(name, sorted labels)`; iteration order is
/// therefore deterministic regardless of registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Intern pool for metric names, label keys and label values. Locked
    /// strictly before (never together with) `series`.
    interned: Mutex<BTreeSet<Arc<str>>>,
    series: Mutex<BTreeMap<Arc<str>, BTreeMap<Labels, Metric>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern the name and label pairs for one series lookup. After the first
    /// registration of a series, repeat lookups allocate nothing.
    fn key_of(&self, name: &str, pairs: &[(&str, &str)]) -> (Arc<str>, Labels) {
        let mut pool = lock(&self.interned);
        let name = intern_in(&mut pool, name);
        let mut ls: Labels = pairs
            .iter()
            .map(|&(k, v)| (intern_in(&mut pool, k), intern_in(&mut pool, v)))
            .collect();
        drop(pool);
        ls.sort();
        (name, ls)
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let (name, labels) = self.key_of(name, labels);
        let mut s = lock(&self.series);
        let m = s
            .entry(name.clone())
            .or_default()
            .entry(labels)
            .or_insert_with(|| Metric::Counter(Counter::default()));
        match m {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let (name, labels) = self.key_of(name, labels);
        let mut s = lock(&self.series);
        let m = s
            .entry(name.clone())
            .or_default()
            .entry(labels)
            .or_insert_with(|| Metric::Gauge(Gauge::default()));
        match m {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name{labels}` with the given inclusive
    /// upper bucket bounds (an implicit `+Inf` bucket is appended).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        let (name, labels) = self.key_of(name, labels);
        let mut s = lock(&self.series);
        let m = s
            .entry(name.clone())
            .or_default()
            .entry(labels)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds.to_vec())));
        match m {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Render the registry in the Prometheus text exposition format. Output is
    /// byte-identical across runs that registered and updated the same series.
    pub fn render_prometheus(&self) -> String {
        /// `{k="v",...}`, or nothing for an empty set. Values are escaped
        /// as the text format requires: `\` as `\\`, `"` as `\"` and a
        /// newline as `\n`.
        fn label_str(labels: &Labels, extra: Option<(&str, &str)>) -> String {
            let mut out = String::new();
            for (k, v) in labels.iter().map(|(k, v)| (&**k, &**v)).chain(extra) {
                out.push(if out.is_empty() { '{' } else { ',' });
                out.push_str(k);
                out.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => out.push_str("\\\\"),
                        '"' => out.push_str("\\\""),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            if !out.is_empty() {
                out.push('}');
            }
            out
        }

        let s = lock(&self.series);
        let mut out = String::new();
        for (name, by_labels) in s.iter() {
            let kind = match by_labels.values().next() {
                Some(Metric::Counter(_)) => "counter",
                Some(Metric::Gauge(_)) => "gauge",
                Some(Metric::Histogram(_)) => "histogram",
                None => continue,
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, metric) in by_labels.iter() {
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", label_str(labels, None), c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", label_str(labels, None), g.get());
                    }
                    Metric::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, &b) in h.inner.bounds.iter().enumerate() {
                            cum += counts[i];
                            let le = b.to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                label_str(labels, Some(("le", &le)))
                            );
                        }
                        cum += counts[h.inner.bounds.len()];
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            label_str(labels, Some(("le", "+Inf")))
                        );
                        let _ = writeln!(out, "{name}_sum{} {}", label_str(labels, None), h.sum());
                        let _ =
                            writeln!(out, "{name}_count{} {}", label_str(labels, None), h.count());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("antdt_events_total", &[("runtime", "ps")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering the same series returns the same cell.
        let c2 = reg.counter("antdt_events_total", &[("runtime", "ps")]);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("antdt_pending", &[]);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("m", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(reg.render_prometheus(), "# TYPE m counter\nm{a=\"1\",b=\"2\"} 2\n");
    }

    #[test]
    fn histogram_buckets_count_cumulatively_in_prometheus() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", &[], &[10, 100, 1000]);
        for v in [5, 10, 11, 500, 5000] {
            h.observe(v);
        }
        // Bounds are inclusive: 10 lands in the `le="10"` bucket.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 500 + 5000);

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"10\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 3"));
        assert!(text.contains("lat_us_bucket{le=\"1000\"} 4"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_us_count 5"));
    }

    #[test]
    fn render_is_deterministic_across_registration_order() {
        let build = |flip: bool| {
            let reg = MetricsRegistry::new();
            let names = if flip { ["b_metric", "a_metric"] } else { ["a_metric", "b_metric"] };
            for n in names {
                reg.counter(n, &[("node", "w0")]).add(7);
            }
            reg.render_prometheus()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("path", "C:\\tmp"), ("quote", "say \"hi\""), ("text", "a\nb")]).inc();
        reg.histogram("h", &[("q", "\"")], &[1]).observe(0);
        let text = reg.render_prometheus();
        assert!(text.contains(r#"m{path="C:\\tmp",quote="say \"hi\"",text="a\nb"} 1"#), "{text}");
        assert!(text.contains(r#"h_bucket{q="\"",le="1"} 1"#), "{text}");
        // Every sample stays on one line.
        assert_eq!(text.lines().count(), 7, "{text}");
    }
}
