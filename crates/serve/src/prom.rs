//! Prometheus text exposition (format version 0.0.4) for a
//! [`Metrics`] snapshot.
//!
//! Counter and histogram families are merged into one stream sorted by
//! metric name, so `GET /metrics` is byte-deterministic for a given
//! snapshot regardless of which instrumentation site touched its metric
//! first.

use std::fmt::Write;

use sentinel_trace::{Histogram, Metrics};

/// Maps a dotted metric name (`serve.cache.hit`) to a legal Prometheus
/// name (`serve_cache_hit`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn render_counter(out: &mut String, name: &str, v: u64) {
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {v}");
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, n) in h.nonempty_buckets() {
        cumulative += n;
        if bound == u64::MAX {
            // The overflow bucket folds into +Inf below.
            continue;
        }
        // Bucket upper bounds are exclusive (`v < bound`); Prometheus
        // `le` is inclusive, and samples are integers.
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", bound - 1);
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Renders every counter and histogram of `m`, sorted by metric name.
pub fn render(m: &Metrics) -> String {
    enum Family<'a> {
        Counter(u64),
        Histogram(&'a Histogram),
    }
    let mut families: Vec<(String, Family<'_>)> = m
        .counters()
        .map(|(k, v)| (sanitize(k), Family::Counter(v)))
        .chain(
            m.histograms()
                .map(|(k, h)| (sanitize(k), Family::Histogram(h))),
        )
        .collect();
    families.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::new();
    for (name, family) in families {
        match family {
            Family::Counter(v) => render_counter(&mut out, &name, v),
            Family::Histogram(h) => render_histogram(&mut out, &name, h),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("serve.cache.hit"), "serve_cache_hit");
        assert_eq!(
            sanitize("compile.pass.clear-tags.micros"),
            "compile_pass_clear_tags_micros"
        );
        assert_eq!(sanitize("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn renders_counters_and_histograms_sorted() {
        let mut m = Metrics::new();
        m.count("serve.http.requests", 2);
        m.count("grid.cells.hit", 1);
        for v in [3, 100, 40_000, 2_000_000] {
            m.observe("serve.request.micros", v);
        }
        let text = render(&m);
        let grid = text.find("grid_cells_hit 1").unwrap();
        let req = text.find("serve_http_requests 2").unwrap();
        let hist = text.find("# TYPE serve_request_micros histogram").unwrap();
        assert!(grid < req && req < hist, "{text}");
        // 3 → bucket <4 (le 3); 100 → <128; 40,000 → <2^16; 2,000,000
        // → <2^21: each a finite bucket, cumulative, none in overflow.
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("serve_request_micros_bucket"))
            .collect();
        assert_eq!(
            buckets,
            [
                "serve_request_micros_bucket{le=\"3\"} 1",
                "serve_request_micros_bucket{le=\"127\"} 2",
                "serve_request_micros_bucket{le=\"65535\"} 3",
                "serve_request_micros_bucket{le=\"2097151\"} 4",
                "serve_request_micros_bucket{le=\"+Inf\"} 4",
            ],
            "{text}"
        );
        assert!(
            text.contains("serve_request_micros_sum 2040103\n"),
            "{text}"
        );
        assert!(text.contains("serve_request_micros_count 4\n"), "{text}");
    }

    #[test]
    fn render_is_deterministic_across_insertion_order() {
        let mut a = Metrics::new();
        a.count("b.two", 2);
        a.count("a.one", 1);
        a.observe("c.three", 3);
        let mut b = Metrics::new();
        b.observe("c.three", 3);
        b.count("a.one", 1);
        b.count("b.two", 2);
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(render(&Metrics::new()), "");
    }
}
