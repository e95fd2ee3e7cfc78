//! Metric identities, the per-sample [`Frame`], and the hub's side table.
//!
//! Every series has exactly one store: the stats struct of the
//! subsystem that owns it. At sample time each owner's `collect` writes
//! `(name, labels, value)` straight into a [`Frame`] — e.g.
//! `("flash_reads", [("drive","3")], 17)` — and the frame is what the
//! flight recorder diffs and what freezes into the exported
//! [`MetricsSnapshot`] (JSON schema in OBSERVABILITY.md). Series the
//! array does not own (host report, replication fabric, cluster plane,
//! offered load) are set into the hub's [`MetricsRegistry`], a plain
//! ordered table merged into the frame by [`MetricsRegistry::collect`].

use crate::json::JsonWriter;
use parking_lot::Mutex;
use purity_sim::{LatencyHistogram, Nanos};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A metric's identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// `name{k=v,k2=v2}` rendering used in reports.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }

    /// An open JSON object holding `name` and `labels`; callers append
    /// the series' value fields.
    pub(crate) fn json_object(&self) -> JsonWriter {
        let mut w = JsonWriter::object();
        w.str_field("name", &self.name);
        let mut labels = JsonWriter::object();
        for (k, v) in &self.labels {
            labels.str_field(k, v);
        }
        w.raw_field("labels", &labels.finish());
        w
    }
}

/// One sample of every series, written by the owners' `collect`
/// methods. Cumulative histograms are borrowed from the stats struct
/// that holds them; only the side table's few are owned copies.
/// Entries are in collection order — [`Frame::into_snapshot`] sorts.
#[derive(Debug, Default)]
pub struct Frame<'a> {
    pub counters: Vec<(MetricId, u64)>,
    pub gauges: Vec<(MetricId, i64)>,
    pub histograms: Vec<(MetricId, Cow<'a, LatencyHistogram>)>,
}

impl<'a> Frame<'a> {
    /// A cumulative, monotone count.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.counters.push((MetricId::new(name, labels), v));
    }

    /// A point-in-time value.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.gauges.push((MetricId::new(name, labels), v));
    }

    /// A cumulative latency distribution, borrowed from its owner.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &'a LatencyHistogram) {
        self.histograms
            .push((MetricId::new(name, labels), Cow::Borrowed(h)));
    }

    /// Freezes the frame for export: every section ordered by id,
    /// histograms reduced to their quantile summaries.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: self.counters,
            gauges: self.gauges,
            histograms: self
                .histograms
                .into_iter()
                .map(|(id, h)| (id, HistogramSummary::of(&h)))
                .collect(),
        };
        snap.counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// Frozen quantile summary of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean: Nanos,
    pub min: Nanos,
    pub max: Nanos,
    pub p50: Nanos,
    pub p95: Nanos,
    pub p99: Nanos,
    pub p999: Nanos,
}

impl HistogramSummary {
    pub fn of(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            p999: h.p999(),
        }
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("count", self.count)
            .u64_field("mean_ns", self.mean)
            .u64_field("min_ns", self.min)
            .u64_field("max_ns", self.max)
            .u64_field("p50_ns", self.p50)
            .u64_field("p95_ns", self.p95)
            .u64_field("p99_ns", self.p99)
            .u64_field("p999_ns", self.p999);
        w.finish()
    }
}

#[derive(Default)]
struct Table {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, i64>,
    histograms: BTreeMap<MetricId, LatencyHistogram>,
}

/// The hub's side table: current values of the series the array does
/// not own, set by whoever drives it (host engine, replication fabric,
/// cluster plane, bench harnesses). A series set once stays until the
/// hub dies, so every later sample and export carries it.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Table>,
}

/// `Debug` shows only cardinalities; dumping every series is what the
/// export is for.
impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &g.counters.len())
            .field("gauges", &g.gauges.len())
            .field("histograms", &g.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the counter `name{labels}` to its owner's cumulative value.
    pub fn set_counter(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let id = MetricId::new(name, labels);
        self.inner.lock().counters.insert(id, v);
    }

    /// Sets the gauge `name{labels}`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        let id = MetricId::new(name, labels);
        self.inner.lock().gauges.insert(id, v);
    }

    /// Runs `f` on the histogram `name{labels}`, creating it empty
    /// first if needed: record a sample, or `clone_from` an owner's
    /// cumulative distribution.
    pub fn with_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl FnOnce(&mut LatencyHistogram),
    ) {
        let id = MetricId::new(name, labels);
        f(self.inner.lock().histograms.entry(id).or_default());
    }

    /// Merges every series of the table into `out`.
    pub fn collect(&self, out: &mut Frame<'_>) {
        let g = self.inner.lock();
        out.counters
            .extend(g.counters.iter().map(|(id, v)| (id.clone(), *v)));
        out.gauges
            .extend(g.gauges.iter().map(|(id, v)| (id.clone(), *v)));
        out.histograms.extend(
            g.histograms
                .iter()
                .map(|(id, h)| (id.clone(), Cow::Owned(h.clone()))),
        );
    }
}

/// A frozen [`Frame`], ready for export.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(MetricId, u64)>,
    pub gauges: Vec<(MetricId, i64)>,
    pub histograms: Vec<(MetricId, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Sum of every counter series with this name (across labels).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|&(_, v)| v)
            .sum()
    }

    /// The value of an exact counter series, 0 if absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = MetricId::new(name, labels);
        self.counters
            .iter()
            .find(|(i, _)| *i == id)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The summary of an exact histogram series, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSummary> {
        let id = MetricId::new(name, labels);
        self.histograms
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, s)| s)
    }

    pub fn to_json(&self) -> String {
        let mut counters = JsonWriter::array();
        for (id, v) in &self.counters {
            let mut w = id.json_object();
            w.u64_field("value", *v);
            counters.raw_element(&w.finish());
        }
        let mut gauges = JsonWriter::array();
        for (id, v) in &self.gauges {
            let mut w = id.json_object();
            w.i64_field("value", *v);
            gauges.raw_element(&w.finish());
        }
        let mut histograms = JsonWriter::array();
        for (id, s) in &self.histograms {
            let mut w = id.json_object();
            w.raw_field("summary", &s.to_json());
            histograms.raw_element(&w.finish());
        }
        let mut root = JsonWriter::object();
        root.raw_field("counters", &counters.finish())
            .raw_field("gauges", &gauges.finish())
            .raw_field("histograms", &histograms.finish());
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sets_are_absolute_and_sticky() {
        let r = MetricsRegistry::new();
        r.set_counter("reads", &[("drive", "3")], 1);
        r.set_counter("reads", &[("drive", "3")], 3);
        // Different labels are a different series; label order is canonical.
        r.set_counter("x", &[("a", "1"), ("b", "2")], 1);
        r.set_counter("x", &[("b", "2"), ("a", "1")], 2);
        r.with_histogram("rtt", &[], |_| {});
        r.with_histogram("rtt", &[], |h| h.record(500));
        let mut f = Frame::default();
        r.collect(&mut f);
        let s = f.into_snapshot();
        assert_eq!(s.counter("reads", &[("drive", "3")]), 3);
        assert_eq!(s.counter("reads", &[("drive", "4")]), 0);
        assert_eq!(s.counter("x", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(s.histogram("rtt", &[]).unwrap().count, 1);
    }

    #[test]
    fn snapshot_is_sorted_with_lookup_and_totals() {
        let lat = {
            let mut h = LatencyHistogram::new();
            h.record(1000);
            h
        };
        let mut f = Frame::default();
        f.counter("reads", &[("drive", "1")], 7);
        f.counter("reads", &[("drive", "0")], 5);
        f.gauge("depth", &[], -3);
        f.histogram("lat", &[("path", "direct")], &lat);
        let r = MetricsRegistry::new();
        r.set_counter("host_ops", &[], 2);
        r.collect(&mut f);
        let s = f.into_snapshot();
        let names: Vec<String> = s.counters.iter().map(|(id, _)| id.render()).collect();
        assert_eq!(names, ["host_ops", "reads{drive=0}", "reads{drive=1}"]);
        assert_eq!(s.counter_total("reads"), 12);
        assert_eq!(s.counter("reads", &[("drive", "1")]), 7);
        assert_eq!(s.histogram("lat", &[("path", "direct")]).unwrap().count, 1);
        let j = s.to_json();
        assert!(j.contains("\"drive\":\"1\""), "{j}");
        assert!(j.contains("\"p999_ns\""), "{j}");
    }

    #[test]
    fn render_includes_labels() {
        let id = MetricId::new("flash_reads", &[("die", "2"), ("drive", "3")]);
        assert_eq!(id.render(), "flash_reads{die=2,drive=3}");
    }
}
