//! A flat metrics registry with Prometheus-text and JSON rendering.

use crate::escape::{escape_help, escape_label_value, is_valid_label_name, is_valid_metric_name};
use crate::hist::HistogramSnapshot;
use crate::json::json_document;
use serde::Serialize;
use serde_json::JsonValue;
use std::fmt::Write as _;

/// Label pairs attached to one sample (empty for unlabeled metrics).
type Labels = Vec<(String, String)>;

/// A point-in-time collection of named metrics, built by the component
/// that owns the counters (e.g. the broker) and rendered to either the
/// [Prometheus text exposition format] or a JSON document.
///
/// [Prometheus text exposition format]:
///     https://prometheus.io/docs/instrumenting/exposition_formats/
///
/// Conventions follow Prometheus: counters end in `_total`, histograms
/// are recorded in nanoseconds but exposed in **seconds** with
/// cumulative `le` buckets, plus `_sum` and `_count` series.
///
/// Metric and label names are validated at registration time (invalid
/// names panic — they are programming errors, not data) and label
/// values are escaped on render, so no registered sample can corrupt
/// the scrape text. Several samples may share a metric name as long as
/// their label sets differ; `# HELP`/`# TYPE` headers are emitted once
/// per name. Samples registered more than once under the *same* name
/// and label set (e.g. per-shard or per-worker copies of one logical
/// metric) are coalesced on render — counters sum, gauges keep the last
/// value, histograms merge — so the exposition never repeats a series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, String, Labels, u64)>,
    gauges: Vec<(String, String, Labels, f64)>,
    histograms: Vec<(String, String, Labels, HistogramSnapshot)>,
    summaries: Vec<(String, String, Labels, HistogramSnapshot)>,
}

/// A named quantile accessor on a histogram snapshot.
type Quantile = (&'static str, fn(&HistogramSnapshot) -> std::time::Duration);

/// The quantiles a summary series exposes, matching the percentile
/// gauges the JSON document has always carried.
const SUMMARY_QUANTILES: [Quantile; 4] = [
    ("0.5", HistogramSnapshot::p50),
    ("0.9", HistogramSnapshot::p90),
    ("0.95", HistogramSnapshot::p95),
    ("0.99", HistogramSnapshot::p99),
];

/// Renders a nanosecond value as a Prometheus seconds literal.
fn secs(nanos: u64) -> String {
    format!("{}", nanos as f64 / 1e9)
}

/// Panics unless `name` is a valid Prometheus metric name.
fn check_metric_name(name: &str) {
    assert!(
        is_valid_metric_name(name),
        "invalid Prometheus metric name: {name:?}"
    );
}

/// Validates label names and clones the pairs into owned storage.
fn check_labels(metric: &str, labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| {
            assert!(
                is_valid_label_name(k),
                "invalid Prometheus label name {k:?} on metric {metric:?}"
            );
            (k.to_string(), v.to_string())
        })
        .collect()
}

/// Renders `name{k="v",...}` with label values escaped (bare `name`
/// when the label set is empty).
fn series(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Writes the `# HELP`/`# TYPE` header once per metric name.
fn header(out: &mut String, emitted: &mut Vec<String>, name: &str, help: &str, kind: &str) {
    if emitted.iter().any(|n| n == name) {
        return;
    }
    emitted.push(name.to_string());
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One coalesced sample: name, help, labels and the merged value.
type Coalesced<'a, T> = (&'a str, &'a str, &'a Labels, T);

/// `samples` with each duplicate `(name, labels)` folded into its first
/// occurrence by `merge` (counters sum, gauges keep the last value,
/// histograms and summaries merge). Names keep the order of their first
/// registration, and a new label set joins the end of its name's group,
/// so each family renders as one block under its header.
fn coalesce<T: Clone>(
    samples: &[(String, String, Labels, T)],
    merge: impl Fn(&mut T, &T),
) -> Vec<Coalesced<'_, T>> {
    let mut out: Vec<Coalesced<'_, T>> = Vec::new();
    for (name, help, labels, value) in samples {
        if let Some(entry) = out
            .iter_mut()
            .find(|(n, _, l, _)| *n == name && *l == labels)
        {
            merge(&mut entry.3, value);
            continue;
        }
        let at = out
            .iter()
            .rposition(|(n, ..)| *n == name)
            .map_or(out.len(), |last| last + 1);
        out.insert(at, (name, help, labels, value.clone()));
    }
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds a monotone counter.
    ///
    /// # Panics
    /// If `name` is not a valid Prometheus metric name.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.counter_with(name, help, &[], value)
    }

    /// Adds a monotone counter carrying label pairs. The same metric
    /// name may be registered repeatedly with different label sets.
    ///
    /// # Panics
    /// If `name` or any label name is invalid; label *values* are
    /// arbitrary and escaped on render.
    pub fn counter_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) -> &mut Self {
        check_metric_name(name);
        let labels = check_labels(name, labels);
        self.counters
            .push((name.into(), help.into(), labels, value));
        self
    }

    /// Adds a gauge (a value that can go both ways).
    ///
    /// # Panics
    /// If `name` is not a valid Prometheus metric name.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.gauge_with(name, help, &[], value)
    }

    /// Adds a gauge carrying label pairs.
    ///
    /// # Panics
    /// If `name` or any label name is invalid.
    pub fn gauge_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        check_metric_name(name);
        let labels = check_labels(name, labels);
        self.gauges.push((name.into(), help.into(), labels, value));
        self
    }

    /// Adds a latency histogram snapshot (nanosecond-valued).
    ///
    /// # Panics
    /// If `name` is not a valid Prometheus metric name.
    pub fn histogram(&mut self, name: &str, help: &str, snap: HistogramSnapshot) -> &mut Self {
        self.histogram_with(name, help, &[], snap)
    }

    /// Adds a latency histogram snapshot carrying label pairs (e.g. a
    /// `window="10s"` variant next to the cumulative bare series).
    ///
    /// # Panics
    /// If `name` or any label name is invalid.
    pub fn histogram_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: HistogramSnapshot,
    ) -> &mut Self {
        check_metric_name(name);
        let labels = check_labels(name, labels);
        self.histograms
            .push((name.into(), help.into(), labels, snap));
        self
    }

    /// Adds a latency summary (nanosecond-valued): the snapshot is
    /// exposed as precomputed `{quantile="..."}` series plus `_sum`
    /// and `_count` companions, so scrapers get the broker-side
    /// percentile estimates *and* enough to compute true averages,
    /// without shipping the full bucket vector twice.
    ///
    /// # Panics
    /// If `name` is not a valid Prometheus metric name.
    pub fn summary(&mut self, name: &str, help: &str, snap: HistogramSnapshot) -> &mut Self {
        self.summary_with(name, help, &[], snap)
    }

    /// Adds a latency summary carrying label pairs.
    ///
    /// # Panics
    /// If `name` or any label name is invalid.
    pub fn summary_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snap: HistogramSnapshot,
    ) -> &mut Self {
        check_metric_name(name);
        let labels = check_labels(name, labels);
        self.summaries
            .push((name.into(), help.into(), labels, snap));
        self
    }

    /// The Prometheus text exposition document.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut emitted: Vec<String> = Vec::new();
        for (name, help, labels, value) in coalesce(&self.counters, |sum, v| *sum += v) {
            header(&mut out, &mut emitted, name, help, "counter");
            let _ = writeln!(out, "{} {value}", series(name, labels));
        }
        for (name, help, labels, value) in coalesce(&self.gauges, |last, v| *last = *v) {
            header(&mut out, &mut emitted, name, help, "gauge");
            let _ = writeln!(out, "{} {value}", series(name, labels));
        }
        for (name, help, labels, snap) in coalesce(&self.histograms, HistogramSnapshot::merge) {
            header(&mut out, &mut emitted, name, help, "histogram");
            // `le` joins the sample's own labels inside one brace set.
            let prefix: String = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\",", escape_label_value(v)))
                .collect();
            let mut cumulative = 0u64;
            for (upper_ns, count) in snap.nonzero_buckets() {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{prefix}le=\"{}\"}} {cumulative}",
                    secs(upper_ns)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(
                out,
                "{} {}",
                series(&format!("{name}_sum"), labels),
                secs(snap.sum().as_nanos() as u64)
            );
            let _ = writeln!(
                out,
                "{} {cumulative}",
                series(&format!("{name}_count"), labels)
            );
        }
        for (name, help, labels, snap) in coalesce(&self.summaries, HistogramSnapshot::merge) {
            header(&mut out, &mut emitted, name, help, "summary");
            // `quantile` joins the sample's own labels, like `le` does
            // for histograms.
            let prefix: String = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\",", escape_label_value(v)))
                .collect();
            for (q, pick) in SUMMARY_QUANTILES {
                let _ = writeln!(
                    out,
                    "{name}{{{prefix}quantile=\"{q}\"}} {}",
                    secs(pick(&snap).as_nanos() as u64)
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                series(&format!("{name}_sum"), labels),
                secs(snap.sum().as_nanos() as u64)
            );
            let _ = writeln!(
                out,
                "{} {}",
                series(&format!("{name}_count"), labels),
                snap.count()
            );
        }
        out
    }

    /// A JSON document with counters, gauges, and per-histogram
    /// percentile summaries (nanosecond units, suffixed `_ns`). Labeled
    /// samples are keyed by their full `name{k="v"}` series string, in
    /// registration order.
    pub fn render_json(&self) -> String {
        // Summaries share the histogram JSON shape (both are snapshot
        // percentile objects); names are disjoint by convention.
        let mut distributions = coalesce(&self.histograms, HistogramSnapshot::merge);
        distributions.extend(coalesce(&self.summaries, HistogramSnapshot::merge));
        json_document(&RegistryJson {
            counters: coalesce(&self.counters, |sum, v| *sum += v)
                .into_iter()
                .map(|(name, _, labels, value)| (series(name, labels), value))
                .collect(),
            gauges: coalesce(&self.gauges, |last, v| *last = *v)
                .into_iter()
                .map(|(name, _, labels, value)| (series(name, labels), value))
                .collect(),
            histograms: distributions
                .iter()
                .map(|(name, _, labels, snap)| {
                    let ns = |d: std::time::Duration| d.as_nanos() as u64;
                    let summary = DistributionJson {
                        count: snap.count(),
                        p50_ns: ns(snap.p50()),
                        p90_ns: ns(snap.p90()),
                        p95_ns: ns(snap.p95()),
                        p99_ns: ns(snap.p99()),
                        max_ns: ns(snap.max()),
                        mean_ns: ns(snap.mean()),
                        sum_ns: ns(snap.sum()),
                    };
                    let value =
                        serde_json::to_value(&summary).expect("plain data always serializes");
                    (series(name, labels), value)
                })
                .collect(),
        })
    }
}

/// The [`MetricsRegistry::render_json`] document; each section maps a
/// series key to its value.
#[derive(Serialize)]
struct RegistryJson {
    counters: JsonValue,
    gauges: JsonValue,
    histograms: JsonValue,
}

/// One histogram or summary in [`RegistryJson`], in nanoseconds.
#[derive(Serialize)]
struct DistributionJson {
    count: u64,
    p50_ns: u64,
    p90_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: u64,
    sum_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn registry() -> MetricsRegistry {
        let h = LatencyHistogram::new();
        for us in [1u64, 10, 100] {
            h.record_nanos(us * 1_000);
        }
        let mut r = MetricsRegistry::new();
        r.counter("tep_published_total", "Events accepted.", 42)
            .gauge("tep_live_workers", "Worker threads alive.", 4.0)
            .histogram("tep_stage_match_seconds", "Match latency.", h.snapshot());
        r
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let text = registry().render_prometheus();
        assert!(text.contains("# TYPE tep_published_total counter"));
        assert!(text.contains("tep_published_total 42"));
        assert!(text.contains("# TYPE tep_live_workers gauge"));
        assert!(text.contains("tep_live_workers 4"));
        assert!(text.contains("# TYPE tep_stage_match_seconds histogram"));
        assert!(text.contains("tep_stage_match_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tep_stage_match_seconds_count 3"));
        // Sum = 111 µs.
        assert!(text.contains("tep_stage_match_seconds_sum 0.000111"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn labeled_counters_share_one_header_and_escape_values() {
        let mut r = MetricsRegistry::new();
        r.counter_with(
            "tep_dropped_total",
            "Dropped, by reason.",
            &[("reason", "full")],
            3,
        )
        .counter_with(
            "tep_dropped_total",
            "Dropped, by reason.",
            &[("reason", "dis\\connec\"ted\nx")],
            1,
        );
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE tep_dropped_total counter").count(),
            1,
            "one TYPE header per metric name"
        );
        assert_eq!(text.matches("# HELP tep_dropped_total").count(), 1);
        assert!(text.contains("tep_dropped_total{reason=\"full\"} 3"));
        // Backslash, quote, and newline are escaped per the exposition
        // format, keeping the document line-oriented.
        assert!(
            text.contains("tep_dropped_total{reason=\"dis\\\\connec\\\"ted\\nx\"} 1"),
            "escaped label value missing:\n{text}"
        );
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn help_text_is_escaped() {
        let mut r = MetricsRegistry::new();
        r.counter("x_total", "multi\nline \\ help", 1);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP x_total multi\\nline \\\\ help"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn invalid_metric_name_is_rejected_at_registration() {
        MetricsRegistry::new().counter("bad name", "help", 1);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus label name")]
    fn invalid_label_name_is_rejected_at_registration() {
        MetricsRegistry::new().counter_with("ok_total", "help", &[("bad-label", "v")], 1);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn invalid_histogram_name_is_rejected_at_registration() {
        MetricsRegistry::new().histogram("no newlines\nhere", "help", HistogramSnapshot::empty());
    }

    #[test]
    fn json_export_contains_percentiles() {
        let json = registry().render_json();
        assert!(json.contains("\"tep_published_total\": 42"));
        assert!(json.contains("\"tep_live_workers\": 4"));
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"p99_ns\""));
        // Braces balance (cheap well-formedness check without a parser).
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_export_escapes_labeled_series_keys() {
        let mut r = MetricsRegistry::new();
        r.counter_with("d_total", "h", &[("reason", "a\"b")], 7);
        let json = r.render_json();
        // The series key `d_total{reason="a\"b"}` must itself be
        // JSON-escaped inside the document.
        assert!(
            json.contains("\"d_total{reason=\\\"a\\\\\\\"b\\\"}\": 7"),
            "{json}"
        );
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn duplicate_series_coalesce_instead_of_repeating() {
        // Same logical metric registered once per shard/worker: the
        // exposition must contain one header and ONE summed sample line.
        let h1 = LatencyHistogram::new();
        let h2 = LatencyHistogram::new();
        h1.record_nanos(1_000);
        h2.record_nanos(2_000);
        let mut r = MetricsRegistry::new();
        r.counter("tep_shard_hits_total", "Cache hits.", 10)
            .counter("tep_shard_hits_total", "Cache hits.", 32)
            .gauge("tep_shard_entries", "Entries.", 5.0)
            .gauge("tep_shard_entries", "Entries.", 7.0)
            .histogram("tep_shard_seconds", "Latency.", h1.snapshot())
            .histogram("tep_shard_seconds", "Latency.", h2.snapshot());
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE tep_shard_hits_total").count(), 1);
        assert_eq!(text.matches("tep_shard_hits_total 42").count(), 1);
        assert!(
            !text.contains("tep_shard_hits_total 10"),
            "per-shard values must sum, not repeat:\n{text}"
        );
        // Gauges keep the last reading.
        assert!(text.contains("tep_shard_entries 7"));
        assert!(!text.contains("tep_shard_entries 5"));
        // Histograms merge: one _count line with both samples.
        assert_eq!(text.matches("tep_shard_seconds_count").count(), 1);
        assert!(text.contains("tep_shard_seconds_count 2"));
        // JSON sees the coalesced values too.
        let json = r.render_json();
        assert!(json.contains("\"tep_shard_hits_total\": 42"));
        assert!(json.contains("\"tep_shard_entries\": 7"));
        assert!(json.contains("\"count\": 2"));
    }

    #[test]
    fn labeled_histograms_render_window_variants() {
        let cumulative = LatencyHistogram::new();
        let windowed = LatencyHistogram::new();
        for us in [1u64, 10, 100] {
            cumulative.record_nanos(us * 1_000);
        }
        windowed.record_nanos(10_000);
        let mut r = MetricsRegistry::new();
        r.histogram(
            "tep_stage_match_seconds",
            "Match latency.",
            cumulative.snapshot(),
        )
        .histogram_with(
            "tep_stage_match_seconds",
            "Match latency.",
            &[("window", "10s")],
            windowed.snapshot(),
        );
        let text = r.render_prometheus();
        // One header for both variants.
        assert_eq!(
            text.matches("# TYPE tep_stage_match_seconds histogram")
                .count(),
            1
        );
        // Bare cumulative series and labeled windowed series coexist.
        assert!(text.contains("tep_stage_match_seconds_count 3"));
        assert!(text.contains("tep_stage_match_seconds_count{window=\"10s\"} 1"));
        assert!(
            text.contains("tep_stage_match_seconds_bucket{window=\"10s\",le="),
            "windowed buckets must put the window label before le:\n{text}"
        );
        assert!(text.contains("tep_stage_match_seconds_sum{window=\"10s\"} 0.00001"));
        let json = r.render_json();
        assert!(json.contains("\"tep_stage_match_seconds{window=\\\"10s\\\"}\""));
    }

    #[test]
    fn interleaved_label_sets_render_as_one_block_per_family() {
        let h = LatencyHistogram::new();
        h.record_nanos(1_000);
        let mut r = MetricsRegistry::new();
        r.histogram("a_seconds", "A.", h.snapshot())
            .histogram("b_seconds", "B.", h.snapshot())
            .histogram_with("a_seconds", "A.", &[("window", "10s")], h.snapshot())
            .counter_with("c_total", "C.", &[("k", "1")], 1)
            .counter("d_total", "D.", 2)
            .counter_with("c_total", "C.", &[("k", "2")], 3);
        let text = r.render_prometheus();
        let families: Vec<&str> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.split(['_', '{', ' ']).next().unwrap())
            .collect();
        let mut blocks = families.clone();
        blocks.dedup();
        assert_eq!(blocks, ["c", "d", "a", "b"], "{text}");
        assert!(text.contains("c_total{k=\"1\"} 1\nc_total{k=\"2\"} 3\n"));
        assert!(text.contains("a_seconds_count 1\na_seconds_bucket{window=\"10s\","));
    }

    #[test]
    fn summaries_render_quantiles_with_sum_and_count() {
        let h = LatencyHistogram::new();
        for us in [1u64, 10, 100] {
            h.record_nanos(us * 1_000);
        }
        let mut r = MetricsRegistry::new();
        r.summary("tep_stage_match_summary_seconds", "Match.", h.snapshot())
            .summary_with(
                "tep_stage_match_summary_seconds",
                "Match.",
                &[("window", "10s")],
                h.snapshot(),
            );
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# TYPE tep_stage_match_summary_seconds summary")
                .count(),
            1
        );
        for q in ["0.5", "0.9", "0.95", "0.99"] {
            assert!(
                text.contains(&format!(
                    "tep_stage_match_summary_seconds{{quantile=\"{q}\"}}"
                )),
                "missing quantile {q}:\n{text}"
            );
        }
        // The companions let scrapers compute true averages.
        assert!(text.contains("tep_stage_match_summary_seconds_sum 0.000111"));
        assert!(text.contains("tep_stage_match_summary_seconds_count 3"));
        // Labeled variant puts its labels before `quantile` and keeps
        // its own companions.
        assert!(text.contains("tep_stage_match_summary_seconds{window=\"10s\",quantile=\"0.5\"}"));
        assert!(text.contains("tep_stage_match_summary_seconds_count{window=\"10s\"} 3"));
        // The JSON document carries the same snapshot percentiles.
        let json: JsonValue = serde_json::from_str(&r.render_json()).unwrap();
        let summary = json
            .get("histograms")
            .and_then(|h| h.get("tep_stage_match_summary_seconds"));
        assert_eq!(
            summary
                .and_then(|s| s.get("count"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn duplicate_summaries_merge_like_histograms() {
        let h1 = LatencyHistogram::new();
        let h2 = LatencyHistogram::new();
        h1.record_nanos(1_000);
        h2.record_nanos(2_000);
        let mut r = MetricsRegistry::new();
        r.summary("tep_s_seconds", "S.", h1.snapshot()).summary(
            "tep_s_seconds",
            "S.",
            h2.snapshot(),
        );
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE tep_s_seconds summary").count(), 1);
        assert!(text.contains("tep_s_seconds_count 2"));
        assert!(text.contains("tep_s_seconds_sum 0.000003"));
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let r = MetricsRegistry::new();
        assert!(r.render_prometheus().is_empty());
        let json = r.render_json();
        assert!(json.contains("\"counters\": {"));
        assert!(json.contains("\"histograms\": {"));
    }
}
