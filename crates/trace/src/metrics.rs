//! A tiny counter / histogram registry with deterministic ordering.
//!
//! Instrumented code bumps named counters and records samples into
//! power-of-two-bucketed histograms; reports iterate in lexicographic
//! name order so rendered output (and serialized JSON) is byte-stable
//! across identical runs.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::{Arc, Mutex};

use crate::json::ObjWriter;

/// 1, 2, 4, …, 2^26, overflow: as µs samples, finite bounds reach
/// about 67 s, past serve's slowest compile jobs.
const BUCKETS: usize = 28;

/// Power-of-two-bucketed histogram of `u64` samples.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound_exclusive, count)` for each non-empty bucket; the
    /// last bucket's bound is `u64::MAX`.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let bound = if i >= BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << i
                };
                (bound, n)
            })
    }
}

/// Named counters and histograms.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to counter `name` (creating it at 0).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into histogram `name` (creating it).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counters in lexicographic name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Histograms in lexicographic name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Human-readable report (deterministic ordering).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in self.counters() {
                let _ = writeln!(out, "  {k:<28} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in self.histograms() {
                let _ = writeln!(
                    out,
                    "  {k:<28} n={} mean={:.2} max={}",
                    h.count(),
                    h.mean(),
                    h.max()
                );
                for (bound, n) in h.nonempty_buckets() {
                    if bound == u64::MAX {
                        let _ = writeln!(out, "    <inf   {n}");
                    } else {
                        let _ = writeln!(out, "    <{bound:<5} {n}");
                    }
                }
            }
        }
        out
    }

    /// One-line JSON object (deterministic key order).
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        {
            let mut w = ObjWriter::new(&mut counters);
            for (k, v) in self.counters() {
                w.u64(k, v);
            }
            w.close();
        }
        let mut hists = String::new();
        {
            let mut w = ObjWriter::new(&mut hists);
            for (k, h) in self.histograms() {
                let mut one = String::new();
                let mut hw = ObjWriter::new(&mut one);
                hw.u64("count", h.count())
                    .u64("sum", h.sum())
                    .u64("max", h.max());
                hw.close();
                w.raw(k, &one);
            }
            w.close();
        }
        let mut out = String::new();
        let mut w = ObjWriter::new(&mut out);
        w.raw("counters", &counters).raw("histograms", &hists);
        w.close();
        out
    }
}

/// A clonable, thread-safe handle to a [`Metrics`] registry.
///
/// Worker threads (e.g. the evaluation grid engine's per-cell workers)
/// bump counters and record timing samples through shared handles; the
/// owner takes a [`SharedMetrics::snapshot`] afterwards for rendering.
/// Aggregation order cannot affect the result — counters are sums and
/// histograms are order-insensitive — so reports stay deterministic
/// under any thread interleaving (modulo the timing values themselves).
#[derive(Debug, Default, Clone)]
pub struct SharedMetrics(Arc<Mutex<Metrics>>);

impl SharedMetrics {
    /// A fresh, empty shared registry.
    pub fn new() -> SharedMetrics {
        SharedMetrics::default()
    }

    /// Locks the registry, recovering from a poisoned lock (a panicking
    /// worker can never leave a registry half-updated: every update is a
    /// single `+=` or histogram insert).
    fn lock(&self) -> std::sync::MutexGuard<'_, Metrics> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `n` to counter `name` (creating it at 0).
    pub fn count(&self, name: &'static str, n: u64) {
        self.lock().count(name, n);
    }

    /// Current value of counter `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counter(name)
    }

    /// Records `v` into histogram `name` (creating it).
    pub fn observe(&self, name: &'static str, v: u64) {
        self.lock().observe(name, v);
    }

    /// A point-in-time copy of the underlying registry.
    pub fn snapshot(&self) -> Metrics {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 100, 40_000, 2_000_000, 1 << 26, 100_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 169_148_969);
        assert_eq!(h.max(), 100_000_000);
        assert!((h.mean() - 169_148_969.0 / 9.0).abs() < 1e-6);
        // 0 → bucket 0; 1,1 → bucket 1 (<2); 3 → bucket 2 (<4);
        // 100 → <128; 40,000 → <2^16; 2,000,000 → <2^21; 2^26 and
        // 100,000,000 → overflow.
        let got: Vec<(u64, u64)> = h.nonempty_buckets().collect();
        assert_eq!(
            got,
            vec![
                (1, 1),
                (2, 2),
                (4, 1),
                (128, 1),
                (1 << 16, 1),
                (1 << 21, 1),
                (u64::MAX, 2)
            ]
        );
    }

    #[test]
    fn registry_is_deterministic() {
        let mut m = Metrics::new();
        m.count("zeta", 1);
        m.count("alpha", 2);
        m.count("zeta", 1);
        m.observe("lat", 4);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(m.counter("zeta"), 2);
        assert_eq!(m.counter("missing"), 0);
        let j = m.to_json();
        assert!(j.starts_with(r#"{"counters":{"alpha":2,"zeta":2"#), "{j}");
        assert!(j.contains(r#""lat":{"count":1,"sum":4,"max":4}"#), "{j}");
        let r = m.render();
        assert!(r.contains("alpha"));
        assert!(r.contains("lat"));
    }

    /// `/metrics`, the reproduce stderr tables, and tests all consume
    /// snapshot/render output; it must be sorted by metric name no
    /// matter what order instrumentation sites first touched their
    /// counters and histograms.
    #[test]
    fn render_is_insertion_order_independent() {
        let mut forward = Metrics::new();
        forward.count("serve.http.requests", 3);
        forward.count("grid.cells.hit", 1);
        forward.observe("serve.request.micros", 7);
        forward.observe("compile.pass.validate.micros", 2);

        let mut backward = Metrics::new();
        backward.observe("compile.pass.validate.micros", 2);
        backward.observe("serve.request.micros", 7);
        backward.count("grid.cells.hit", 1);
        backward.count("serve.http.requests", 3);

        assert_eq!(forward, backward);
        assert_eq!(forward.render(), backward.render());
        assert_eq!(forward.to_json(), backward.to_json());
        let counter_names: Vec<&str> = forward.counters().map(|(k, _)| k).collect();
        assert_eq!(counter_names, vec!["grid.cells.hit", "serve.http.requests"]);
        let hist_names: Vec<&str> = forward.histograms().map(|(k, _)| k).collect();
        assert_eq!(
            hist_names,
            vec!["compile.pass.validate.micros", "serve.request.micros"]
        );
    }

    #[test]
    fn shared_metrics_aggregates_across_threads() {
        let shared = SharedMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = shared.clone();
                s.spawn(move || {
                    for i in 0..25 {
                        h.count("work", 1);
                        h.observe("size", i);
                    }
                });
            }
        });
        assert_eq!(shared.counter("work"), 100);
        let snap = shared.snapshot();
        assert_eq!(snap.histogram("size").unwrap().count(), 100);
    }
}
