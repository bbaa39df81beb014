//! # tep-obs
//!
//! Observability primitives for the thematic event processing pipeline,
//! hand-rolled in the spirit of the `vendor/` stand-ins (crates.io is not
//! reachable from the build environment, so no `hdrhistogram`/`prometheus`
//! dependency is possible); the only dependencies are the vendored
//! `serde`/`serde_json` shims behind [`json_document`].
//!
//! * [`LatencyHistogram`] — a lock-free, log-linear-bucketed latency
//!   histogram: recording is a handful of relaxed atomic adds, snapshots
//!   are consistent-enough counter reads, and snapshots merge, so
//!   per-stage and per-shard histograms can be aggregated after the fact;
//! * [`HistogramSnapshot`] — the frozen counts with quantile
//!   (p50/p90/p95/p99/max) and mean estimation;
//! * [`MetricsRegistry`] — a flat registry of counters, gauges, and
//!   histogram snapshots rendering both the Prometheus text exposition
//!   format and a JSON document;
//! * [`BoundedRing`] — a bounded MPMC ring buffer keeping the last N
//!   entries, the store behind match explanations and causal spans;
//! * [`SpanCollector`] / [`SpanRecord`] / [`span_tree`] — causal
//!   parent/child spans with deterministic 1-in-k sampling, so one
//!   event's publish → route → match → deliver journey reconstructs as
//!   a tree;
//! * [`serve`] / [`ScrapeHandlers`] — a single-threaded blocking HTTP
//!   scrape server (std `TcpListener`) exposing `/metrics`, `/healthz`,
//!   `/explain`, and (when installed) `/quality` and `/top`;
//! * [`TopKSketch`] — a concurrent space-saving sketch for the top-k
//!   hottest themes/terms in bounded memory;
//! * [`FlightRecorder`] / [`DiagnosticFrame`] — a bounded ring of
//!   periodic cumulative frames that freezes into a JSON diagnostic
//!   bundle (with a bounded on-disk spool) when a trigger fires, so the
//!   evidence of an incident survives the incident, and whose frame
//!   differences ([`WindowedDelta`]) turn forever-counters into windowed
//!   rates and windowed percentiles;
//! * [`AttributionRow`] — one attributed key's count and sampled
//!   nanosecond columns, charged with relaxed atomics;
//! * [`LabeledRows`] — attribution rows keyed by theme or subscriber
//!   under a hard cardinality cap with an overflow row;
//! * [`CostTable`] — a sharded exact table of attribution rows keyed by
//!   index-entry slot, charged without allocating on the hot path.
//!
//! * [`json_document`] — the one JSON encoder: every endpoint body,
//!   bundle and bench report in the workspace is a `#[derive(Serialize)]`
//!   value rendered through it.
//!
//! The crate is intentionally free of tep dependencies so any layer
//! (semantics, matcher, broker, bench) can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cost;
mod dim;
mod escape;
mod hist;
mod json;
mod recorder;
mod registry;
mod ring;
mod serve;
mod span;
mod topk;

pub use cost::{sort_by_cost, AttributionRow, CostEntry, CostTable, RowTotals};
pub use dim::{LabeledRows, OVERFLOW_LABEL};
pub use escape::{is_valid_label_name, is_valid_metric_name};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use json::json_document;
pub use recorder::{DiagnosticFrame, FlightRecorder, FrameWriter, RecorderConfig, WindowedDelta};
pub use registry::MetricsRegistry;
pub use ring::BoundedRing;
pub use serve::{serve, ScrapeHandlers, ScrapeServer};
pub use span::{render_spans_json, span_tree, SpanCollector, SpanJson, SpanNode, SpanRecord};
pub use topk::TopKSketch;
