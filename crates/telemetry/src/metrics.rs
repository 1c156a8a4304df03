//! Streaming metrics registry: counters, gauges, and histograms keyed
//! by name, with deterministic Prometheus-style text exposition.
//!
//! `BTreeMap` keys give a stable iteration order, so two runs with
//! the same seed render byte-identical dumps.

use std::collections::BTreeMap;

use crate::hist::StreamingHistogram;
use crate::json::json_f64;

/// Format a number for Prometheus exposition: canonical shortest
/// round-trip, `NaN` spelled out (Prometheus accepts it, JSON does not).
fn prom_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        json_f64(x)
    }
}

/// A registry of named counters, gauges, and streaming histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, StreamingHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter (created at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Fold a sample into the named histogram (default latency layout).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Access a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&StreamingHistogram> {
        self.histograms.get(name)
    }

    /// Merge `h` into the named histogram (created empty). Merging
    /// into a fresh name installs `h` unchanged, `sum` included.
    pub fn histogram_merge(&mut self, name: &str, h: &StreamingHistogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Render every metric in Prometheus text exposition format.
    /// Histograms render as summaries with p50/p90/p99 quantiles.
    /// Output is deterministic: names sort lexicographically and all
    /// numbers use canonical shortest round-trip formatting.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", prom_f64(*v)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, p) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{q}\"}} {}\n",
                    prom_f64(h.percentile(p))
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", prom_f64(h.sum())));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.counter_add("spotweb_served_total", 3);
        m.counter_add("spotweb_served_total", 2);
        assert_eq!(m.counter("spotweb_served_total"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn exposition_is_sorted_and_canonical() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b_total", 1);
        m.counter_add("a_total", 2);
        m.gauge_set("fleet_size", 6.0);
        m.observe("latency_seconds", 0.25);
        let text = m.render_prometheus();
        let a = text.find("a_total 2").unwrap();
        let b = text.find("b_total 1").unwrap();
        assert!(a < b, "counters must sort by name");
        assert!(text.contains("fleet_size 6.0"));
        assert!(text.contains("latency_seconds_count 1"));
        assert!(text.contains("latency_seconds{quantile=\"0.5\"} 0.25"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, m.render_prometheus());
    }
}
