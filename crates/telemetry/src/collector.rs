//! The aggregating [`Collector`] sink, its [`MetricsRegistry`], and the
//! [`TelemetryReport`] snapshot it produces.

use crate::histogram::Log2Histogram;
use crate::sink::TelemetrySink;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Named atomic counters and high-water gauges.
///
/// Handles are `Arc<AtomicU64>`s created on first use; updates after that
/// are single lock-free atomic ops behind a read-locked map probe, so a
/// hot counter costs no allocation and no write lock in steady state.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
}

fn cell(map: &RwLock<HashMap<&'static str, Arc<AtomicU64>>>, name: &'static str) -> Arc<AtomicU64> {
    if let Some(existing) = map.read().get(name) {
        return Arc::clone(existing);
    }
    Arc::clone(map.write().entry(name).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The atomic cell backing the named counter, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        cell(&self.counters, name)
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the named gauge to at least `value`.
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        cell(&self.gauges, name).fetch_max(value, Ordering::Relaxed);
    }

    /// Sorted snapshot of all counters.
    pub fn counters(&self) -> Vec<(String, u64)> {
        snapshot(&self.counters)
    }

    /// Sorted snapshot of all gauges.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        snapshot(&self.gauges)
    }

    /// Clears every counter and gauge.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
    }
}

fn snapshot(map: &RwLock<HashMap<&'static str, Arc<AtomicU64>>>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = map
        .read()
        .iter()
        .map(|(name, v)| (name.to_string(), v.load(Ordering::Relaxed)))
        .collect();
    out.sort();
    out
}

#[derive(Debug, Default, Clone)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    histogram: Log2Histogram,
    threads: BTreeSet<u64>,
}

const SPAN_SHARDS: usize = 8;

fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

fn label_shard(label: &str) -> usize {
    // FNV-1a over the label bytes; labels are few, this only spreads lock
    // contention across shards.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in label.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % SPAN_SHARDS as u64) as usize
}

/// The standard aggregating sink: per-label span statistics (sharded
/// mutexes, merged at snapshot time) plus a [`MetricsRegistry`].
///
/// Aggregation is thread-aware — spans recorded on rayon workers fold
/// into the same per-label totals, and each label remembers how many
/// distinct threads contributed. Snapshots ([`Collector::report`]) are
/// cheap and can be taken while recording continues.
#[derive(Debug, Default)]
pub struct Collector {
    spans: [Mutex<HashMap<&'static str, SpanStats>>; SPAN_SHARDS],
    metrics: MetricsRegistry,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collector's metrics registry (counters and gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Clears all recorded spans, counters and gauges.
    pub fn reset(&self) {
        for shard in &self.spans {
            shard.lock().clear();
        }
        self.metrics.reset();
    }

    /// Snapshots everything recorded so far into a [`TelemetryReport`].
    pub fn report(&self) -> TelemetryReport {
        let mut spans = Vec::new();
        for shard in &self.spans {
            for (label, stats) in shard.lock().iter() {
                spans.push(SpanReport {
                    label: (*label).to_string(),
                    count: stats.count,
                    total_ns: stats.total_ns,
                    max_ns: stats.max_ns,
                    // A log2 bucket's upper bound can exceed every sample
                    // in it; no percentile is larger than the maximum.
                    p50_ns: stats.histogram.quantile(0.50).min(stats.max_ns),
                    p90_ns: stats.histogram.quantile(0.90).min(stats.max_ns),
                    p99_ns: stats.histogram.quantile(0.99).min(stats.max_ns),
                    threads: stats.threads.len(),
                });
            }
        }
        spans.sort_by(|a, b| a.label.cmp(&b.label));
        TelemetryReport {
            spans,
            counters: self.metrics.counters(),
            gauges: self.metrics.gauges(),
        }
    }
}

impl TelemetrySink for Collector {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record_span(&self, label: &'static str, nanos: u64) {
        let mut shard = self.spans[label_shard(label)].lock();
        let stats = shard.entry(label).or_default();
        stats.count += 1;
        stats.total_ns = stats.total_ns.saturating_add(nanos);
        stats.max_ns = stats.max_ns.max(nanos);
        stats.histogram.record(nanos);
        stats.threads.insert(thread_ordinal());
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        self.metrics.add(name, delta);
    }

    fn gauge_max(&self, name: &'static str, value: u64) {
        self.metrics.gauge_max(name, value);
    }
}

/// Aggregated statistics for one span label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// The static label passed to [`span!`](crate::span).
    pub label: String,
    /// Number of completed spans.
    pub count: u64,
    /// Sum of all span durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Median duration estimate, nanoseconds: the upper bound of the log2
    /// bucket holding the median, capped at [`SpanReport::max_ns`].
    pub p50_ns: u64,
    /// 90th-percentile duration estimate, nanoseconds (bucketed and capped
    /// like [`SpanReport::p50_ns`]).
    pub p90_ns: u64,
    /// 99th-percentile duration estimate, nanoseconds (bucketed and capped
    /// like [`SpanReport::p50_ns`]).
    pub p99_ns: u64,
    /// Number of distinct threads that recorded this label.
    pub threads: usize,
}

impl SpanReport {
    /// Mean duration in nanoseconds (0 for an empty report).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time snapshot of a [`Collector`]: sorted span statistics,
/// counters and gauges. Serializable to a human-readable table
/// ([`TelemetryReport::table`]) and hand-rolled JSON
/// ([`TelemetryReport::to_json`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Per-label span statistics, sorted by label.
    pub spans: Vec<SpanReport>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl TelemetryReport {
    /// The span report for `label`, if any spans were recorded under it.
    pub fn span(&self, label: &str) -> Option<&SpanReport> {
        self.spans.iter().find(|s| s.label == label)
    }

    /// The counter value for `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The gauge value for `name` (0 when never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of `total_ns` over every span whose label starts with
    /// `prefix` — e.g. `layer_total_ns("proxy.")` for all proxy time.
    pub fn layer_total_ns(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.label.starts_with(prefix))
            .map(|s| s.total_ns)
            .sum()
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Renders the report as an aligned human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<34} {:>9} {:>11} {:>10} {:>10} {:>10} {:>10} {:>4}\n",
                "span", "count", "total", "mean", "p50", "p90", "p99", "thr"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "{:<34} {:>9} {:>11} {:>10} {:>10} {:>10} {:>10} {:>4}\n",
                    s.label,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns()),
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p90_ns),
                    fmt_ns(s.p99_ns),
                    s.threads,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<50} {:>14}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<50} {value:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("{:<50} {:>14}\n", "gauge", "value"));
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<50} {value:>14}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }

    /// Serializes the report as a JSON object (hand-rolled — the
    /// workspace serde shim has no-op derives).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":{},\"count\":{},\"total_ns\":{},\"max_ns\":{},\
                 \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"threads\":{}}}",
                crate::json::escape_string(&s.label),
                s.count,
                s.total_ns,
                s.max_ns,
                s.p50_ns,
                s.p90_ns,
                s.p99_ns,
                s.threads,
            ));
        }
        out.push_str("],\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", crate::json::escape_string(name), value));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", crate::json::escape_string(name), value));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        reg.add("a", 2);
        reg.add("a", 3);
        reg.add("b", 1);
        reg.gauge_max("peak", 5);
        reg.gauge_max("peak", 3);
        assert_eq!(
            reg.counters(),
            vec![("a".to_string(), 5), ("b".to_string(), 1)]
        );
        assert_eq!(reg.gauges(), vec![("peak".to_string(), 5)]);
        reg.reset();
        assert!(reg.counters().is_empty());
    }

    #[test]
    fn collector_aggregates_spans_across_threads() {
        let collector = Arc::new(Collector::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&collector);
                scope.spawn(move || {
                    for _ in 0..10 {
                        c.record_span("work", 100);
                    }
                });
            }
        });
        let report = collector.report();
        let span = report.span("work").unwrap();
        assert_eq!(span.count, 40);
        assert_eq!(span.total_ns, 4000);
        assert_eq!(span.max_ns, 100);
        // The log2 bucket's upper bound (127) is capped at the maximum.
        assert_eq!(span.p50_ns, 100);
        assert!(span.threads >= 1 && span.threads <= 4);
    }

    #[test]
    fn single_sample_percentiles_equal_the_sample() {
        let collector = Collector::new();
        collector.record_span("once", 8_610_000);
        let report = collector.report();
        let span = report.span("once").unwrap();
        assert_eq!(span.max_ns, 8_610_000);
        assert_eq!(span.p50_ns, span.max_ns);
        assert_eq!(span.p90_ns, span.max_ns);
        assert_eq!(span.p99_ns, span.max_ns);
    }

    #[test]
    fn report_lookup_and_layer_totals() {
        let collector = Collector::new();
        collector.record_span("nn.stem_forward", 10);
        collector.record_span("nn.edge_forward", 30);
        collector.record_span("proxy.ntk", 100);
        collector.add_counter("store.hits", 2);
        let report = collector.report();
        assert_eq!(report.layer_total_ns("nn."), 40);
        assert_eq!(report.layer_total_ns("proxy."), 100);
        assert_eq!(report.counter("store.hits"), 2);
        assert_eq!(report.counter("absent"), 0);
        assert!(!report.is_empty());
        assert!(report.span("absent").is_none());
    }

    #[test]
    fn report_table_and_json_render() {
        let collector = Collector::new();
        collector.record_span("a.b", 1_500_000);
        collector.add_counter("c", 7);
        collector.gauge_max("g", 9);
        let report = collector.report();
        let table = report.table();
        assert!(table.contains("a.b"));
        assert!(table.contains("1.50ms"));
        assert!(table.contains('c'));
        let json = report.to_json();
        let parsed = crate::json::parse(&json).expect("report JSON parses");
        let spans = parsed.get("spans").and_then(|v| v.as_array()).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("c"))
                .and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let report = Collector::new().report();
        assert!(report.is_empty());
        assert!(report.table().contains("no telemetry recorded"));
    }

    #[test]
    fn collector_reset_clears_everything() {
        let collector = Collector::new();
        collector.record_span("x", 5);
        collector.add_counter("y", 5);
        collector.reset();
        assert!(collector.report().is_empty());
    }
}
