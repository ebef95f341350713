//! The metrics registry: counters and log2-bucket histograms.
//!
//! Updates are lock-free (`AtomicU64`); only name→metric resolution takes
//! the registry lock, and callers that care hold the returned `Arc` so the
//! lookup happens once. Snapshots are point-in-time copies safe to render
//! or diff while queries keep running.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ATOMIC: Relaxed — an event tally; nothing is published through it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ATOMIC: Relaxed — monitoring read; a stale count is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count for [`Histogram`]: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so 65 buckets cover all of `u64`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucket histogram of `u64` samples (latencies, page counts).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Bucket index of a sample: 0 for 0, else `64 - leading_zeros`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        // ATOMIC: Relaxed ×3 — the cells advance independently; a snapshot
        // racing this record may see count without sum, and the snapshot
        // contract (below) allows exactly that skew.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ATOMIC: Relaxed ×3 — a copy taken under concurrent records is
        // approximate by design; per-cell loads never tear.
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram`] for the bucket scheme).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`); 0 with no samples. Log2 buckets make this an
    /// order-of-magnitude estimate, which is all the drift checks need.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        u64::MAX
    }
}

/// One metric's current value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram state (boxed: the bucket array dwarfs the other variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time copy of every metric in a [`MetricsRegistry`], keyed by
/// name (sorted — `BTreeMap` — so renders are deterministic).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Counter value by name, if present and a counter.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state by name, if present and a histogram.
    pub fn get_histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metrics were captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Renders the snapshot as aligned `name value` text, one metric per
    /// line; histograms show count / sum / mean / p99 bound.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("{name} {v}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{name} count={} sum={} mean={:.1} p99<={}\n",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.quantile_upper_bound(0.99)
                )),
            }
        }
        out
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Lookups get-or-create; a name keeps the
/// kind of its first registration (a counter name asked for as a histogram
/// yields a detached histogram rather than panicking — observability must
/// never take the query path down).
#[derive(Default)]
pub struct MetricsRegistry {
    // LOCK-ORDER: obs.metrics leaf
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::default()),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Captures every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        let values = m
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (k.clone(), value)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetricsRegistry {{ metrics: {} }}",
            self.metrics.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = MetricsRegistry::new();
        let c = r.counter("q.total");
        c.inc();
        c.add(4);
        r.counter("q.total").inc(); // same counter by name
        assert_eq!(r.snapshot().get_counter("q.total"), Some(6));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);

        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [0u64, 1, 3, 900, 1000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.get_histogram("lat").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1904);
        assert_eq!(hs.buckets[0], 1); // the zero
        assert_eq!(hs.buckets[1], 1); // 1
        assert_eq!(hs.buckets[2], 1); // 3
        assert_eq!(hs.buckets[10], 2); // 900 and 1000 in [512, 1024)
                                       // p99 bound covers the largest bucket touched.
        assert_eq!(hs.quantile_upper_bound(0.99), 1024);
        assert!((hs.mean() - 380.8).abs() < 1e-9);
    }

    #[test]
    fn kind_mismatch_yields_detached_metric_not_panic() {
        let r = MetricsRegistry::new();
        r.counter("x").inc();
        // Asking for the same name as a histogram must not panic or clobber.
        r.histogram("x").record(7);
        assert_eq!(r.snapshot().get_counter("x"), Some(1));
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let r = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per = 1000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("n");
                    let h = r.histogram("h");
                    for i in 0..per {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.get_counter("n"), Some(threads * per));
        assert_eq!(snap.get_histogram("h").unwrap().count, threads * per);
    }

    #[test]
    fn render_text_is_deterministic_and_sorted() {
        let r = MetricsRegistry::new();
        r.histogram("c.hist").record(8);
        r.counter("b.count").add(2);
        let text = r.snapshot().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("b.count 2"));
        assert!(lines[1].contains("count=1 sum=8"));
    }
}
